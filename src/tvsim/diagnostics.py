"""Functionals and inequality checks evaluated along a trajectory.

All integrals use the solver's own discrete operators and quadrature, so the
exact cancellations the scheme was built around carry over to the reported
balances instead of failing by discretization mismatch.  Energies, entropy
and the productions of the entropy balance come from the integrator's ledger
of the state; a record adds the reporting functionals.  Two diffusion
production forms appear:

  * P_diff, the nodal-gradient form D int |grad theta|^2 / theta^2 used for
    reporting, and
  * prod_diff_edge, the ledger's edge (Dirichlet-form) representation
    D (1/theta) . (W lap_N) theta that the implicit heat step produces
    exactly; the per-step entropy balance is one-sided only in this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensors as tn
from .errors import ConfigError
from .integrator import _safe_ratio
from .materials import M_MIN

_E = math.e
# entropy shortfall allowed, times (1 + |S|), by every entropy check
_INEQ_TOL_REL = 1e-8
# how far the samples of a unit window may stop short of its ends
_WINDOW_SLACK = 1e-9


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Every scalar functional of one state snapshot."""

    t: float
    kinetic: float
    elastic: float
    thermal: float
    F: float
    S: float
    S_hat: float
    P_diff: float
    P_visc: float
    P_src: float
    L1: float
    L2: float
    llogl: float
    lnsq: float
    u_norm: float
    v_l1: float
    theta_l1: float
    prod_diff_edge: float
    visc_lb: float
    corner_t1: float
    corner_t2: float
    min_theta: float
    max_theta: float

    @classmethod
    def field_names(cls):
        return [f.name for f in fields(cls)]

    def as_row(self):
        return [getattr(self, name) for name in self.field_names()]


@dataclass(frozen=True)
class WindowMetrics:
    """Unit-window averages used by the stabilization checks."""

    t0: float
    w_theta_half: float
    w_theta_1: float
    w_ut: float
    theta_inf: float
    L: float


@dataclass(frozen=True)
class LimitReport:
    """Estimated large-time limits of the entropy mean and the temperature."""

    L: float
    theta_inf: float
    theta_inf_energy: float
    converged: bool


class Diagnostics:
    """Bound evaluator: one grid, one tensor set, one (floored) law, one M."""

    def __init__(self, grid, tensors, model, d_diff, m_shift=M_MIN):
        if m_shift < M_MIN - 1e-9:
            raise ConfigError("diagnostics need M >= e^4")
        self.grid = grid
        self.model = model
        self.d_diff = float(d_diff)
        self.m_shift = float(m_shift)
        self.comp_D = tn.component_matrix(tensors.D4)

    def record(self, state, ledger):
        """The record of state around its ledger, the StepReport of the step
        that ended at state or Integrator.ledger(state, g): it must belong to
        state as passed, strain included, as the record reads ledger.strain."""
        g = self.grid
        m_shift = self.m_shift
        theta = state.theta

        speed2 = state.v[..., 0] ** 2 + state.v[..., 1] ** 2
        strain = ledger.strain.reshape(g.ny, g.nx, 3)
        qd = np.einsum("ab,ija,ijb->ij", self.comp_D, strain, strain)
        strain_sq = strain[..., 0] ** 2 + strain[..., 1] ** 2 + 2.0 * strain[..., 2] ** 2
        strain_abs = np.sqrt(strain_sq)

        gt = g.grad(theta)
        grad_sq = gt[..., 0] ** 2 + gt[..., 1] ** 2

        with np.errstate(divide="ignore", invalid="ignore"):
            p_diff = self.d_diff * g.integrate(_safe_ratio(grad_sq, theta ** 2))
            p_visc = g.integrate(_safe_ratio(qd, theta))
            log_e = np.log(theta + _E) ** 2
            l1 = self.d_diff * g.integrate(log_e * grad_sq / (theta + 1.0) ** 2)
            l2 = g.integrate(log_e * strain_sq / (theta + 1.0))
            lnsq = g.integrate(np.where(theta > 0, np.log(
                np.maximum(theta, 1e-300)) ** 2, np.inf))
            log_m = np.log(theta + m_shift) ** 2
            corner_t1 = g.integrate(log_m * grad_sq / (theta + m_shift) ** 2)
            corner_t2 = g.integrate(log_m * strain_sq / (theta + m_shift))

        return DiagnosticsRecord(
            t=state.t,
            kinetic=ledger.kinetic, elastic=ledger.elastic,
            thermal=ledger.thermal, F=ledger.F, S=ledger.S,
            S_hat=g.integrate(self.model.ell_hat(theta, m_shift)),
            P_diff=p_diff, P_visc=p_visc, P_src=ledger.prod_source,
            L1=l1, L2=l2,
            llogl=g.integrate(strain_abs * np.log(strain_abs + _E)),
            lnsq=lnsq,
            u_norm=math.sqrt(g.integrate(state.u[..., 0] ** 2 + state.u[..., 1] ** 2)),
            v_l1=g.integrate(np.sqrt(speed2)),
            theta_l1=g.integrate(np.abs(theta)),
            prod_diff_edge=ledger.prod_diffusion,
            visc_lb=ledger.prod_viscous_lb,
            corner_t1=corner_t1, corner_t2=corner_t2,
            min_theta=float(theta.min()), max_theta=float(theta.max()),
        )


def log_entropy_inequality(rec_k, rec_k1, dt, tensors, d_diff, area,
                           m_shift=M_MIN):
    """Per-step form of the log-weighted entropy inequality.

    Checks  dS_hat >= dt [ (D/4) T1 + (kD/2) T2 - c1 int |v|^2 - c2 ] - tol
    with the explicit constants c1 = 4 |B|^2 / D and
    c2 = 2 M^2 |B|^2 |Omega| / (e^2 kD), evaluated at the end state, and
    tol = _INEQ_TOL_REL (1 + |S_hat|).
    """
    b2 = tensors.b_norm ** 2
    c1 = 4.0 * b2 / d_diff
    c2 = 2.0 * m_shift ** 2 * b2 * area / (math.e ** 2 * tensors.kD)
    t1 = rec_k1.corner_t1
    t2 = rec_k1.corner_t2
    v_sq = 2.0 * rec_k1.kinetic
    lhs = rec_k1.S_hat - rec_k.S_hat
    rhs = dt * (0.25 * d_diff * t1 + 0.5 * tensors.kD * t2 - c1 * v_sq - c2)
    tol = _INEQ_TOL_REL * (1.0 + abs(rec_k1.S_hat))
    return {
        "lhs": lhs, "rhs": rhs, "margin": lhs - rhs, "tol": tol,
        "holds": bool(lhs >= rhs - tol),
        "t1": t1, "t2": t2, "c1": c1, "c2": c2, "v_sq": v_sq,
    }


def theta_infinity(records, model, area, energy_budget=None):
    """Large-time limits from a window of records near the final time.

    L is the window mean of S / |Omega| and theta_inf its image under the
    inverse entropy primitive; converged says that S drops by no more than
    _INEQ_TOL_REL (1 + |S|) between neighbouring records.  When an energy
    budget (F(0) plus cumulative source work) is supplied, the energy-based
    cross-check solves K(theta) |Omega| = budget, which is the limit value
    when the mechanical energy has fully relaxed.
    """
    if len(records) < 10:
        raise ConfigError("theta_infinity needs a window of at least 10 records")
    s_vals = np.array([r.S for r in records])
    drops = np.diff(s_vals)
    converged = bool(np.all(drops >= -_INEQ_TOL_REL * (1.0 + np.abs(s_vals[:-1]))))
    big_l = float(s_vals.mean()) / area
    theta_inf = model.ell_inverse(big_l)
    theta_energy = math.nan
    if energy_budget is not None:
        theta_energy = model.K_inverse(energy_budget / area)
    return LimitReport(L=big_l, theta_inf=theta_inf,
                       theta_inf_energy=theta_energy, converged=converged)


@dataclass(frozen=True)
class WindowSample:
    """One retained temperature snapshot for window metrics."""

    t: float
    theta: np.ndarray
    v_l1: float


def window_metrics(samples, grid, t0, theta_inf, L=math.nan):
    """Time-trapezoid of the stabilization integrands over [t0, t0 + 1].

    samples must cover the window densely (cadence at most 0.05); endpoint
    values are linearly interpolated so the window is exact.
    """
    times = np.array([s.t for s in samples])
    if (times.size < 3 or times[0] > t0 + _WINDOW_SLACK
            or times[-1] < t0 + 1.0 - _WINDOW_SLACK):
        raise ConfigError(f"window [{t0}, {t0 + 1}] is not covered by samples")
    if np.max(np.diff(times)) > 0.05 + 1e-12:
        raise ConfigError("window metrics need sample cadence <= 0.05")

    half = np.array([grid.integrate(np.sqrt(np.abs(s.theta - theta_inf)))
                     for s in samples])
    one = np.array([grid.integrate(np.abs(s.theta - theta_inf)) for s in samples])
    ut = np.array([s.v_l1 for s in samples])

    def clip_trapz(vals):
        lo, hi = t0, t0 + 1.0
        inside = (times > lo) & (times < hi)
        ts = np.concatenate([[lo], times[inside], [hi]])
        vs = np.concatenate([[np.interp(lo, times, vals)], vals[inside],
                             [np.interp(hi, times, vals)]])
        return float(np.trapezoid(vs, ts))

    return WindowMetrics(t0=t0, w_theta_half=clip_trapz(half),
                         w_theta_1=clip_trapz(one), w_ut=clip_trapz(ut),
                         theta_inf=theta_inf, L=L)
