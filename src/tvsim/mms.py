"""Manufactured-solution forcing for convergence studies.

The exact fields are fixed and compatible with the boundary conditions
(displacement clamped, temperature with zero normal derivative):

    u     = c(t) S(x, y),  c = a_u (1 - e^{-2t}) (cos t, sin t),
            S = sin(pi x / Lx) sin(pi y / Ly)
    theta = 1 + a_theta cos(pi x / Lx) cos t + s t

For isotropic tensors T (Lame pair lambda, mu),
div(T : sym_grad w) = mu Lap w + (lambda + mu) grad div w, so every term of
the momentum forcing f is a time factor (c, c' or c'') times S or one of its
second derivatives, and the heat forcing g (constant heat capacity) follows
from sym_grad v = sym(c' (x) grad S).  g is affine in the ramp slope s; the
smallest s that keeps g >= margin on a 41^3 sample of the study window is
used, so the heat forcing stays nonnegative.

The sample is evaluated in blocks of 8 x-rows, with the whole t axis in each:
in one pass its temporaries of 41^3 floats would take about 4.5 MB, the
largest allocation of a whole convergence study, and in blocks they take
about a quarter of that.  Every point's arithmetic and the transcendental
calls on the x, y and t axes are those of the one pass, so the slope is the
same to the bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .integrator import FieldState
from .tensors import isotropic_tensor

_SAMPLE = 41  # points per axis of the sample that sets the ramp slope
_SAMPLE_BLOCK = 8  # x-rows of the sample evaluated at once


def _extract_isotropic(t4, name):
    mu = float(t4[0, 1, 0, 1])
    lam = float(t4[0, 0, 1, 1])
    ref = isotropic_tensor(lam, mu) if mu > 0 else None
    if ref is None or np.max(np.abs(np.asarray(t4) - ref)) > 1e-12:
        raise ConfigError(f"convergence study needs an isotropic tensor {name}")
    return lam, mu


class ManufacturedProblem:
    """Exact fields, forcings and initial data on a given rectangle."""

    def __init__(self, tensors, kappa0, d_diff, lx=1.0, ly=1.0, t_final=1.0,
                 amp_u=0.25, amp_theta=0.25, margin=0.01):
        self._lam_d, self._mu_d = _extract_isotropic(tensors.D4, "D")
        self._lam_c, self._mu_c = _extract_isotropic(tensors.C4, "C")
        if kappa0 <= 0:
            raise ConfigError("convergence study needs a constant heat capacity")
        self._b = np.array(tensors.B, dtype=float)
        self._kappa0 = float(kappa0)
        self._d_diff = float(d_diff)
        self._kx = math.pi / lx
        self._ky = math.pi / ly
        self._amp_u = amp_u
        self._amp_theta = amp_theta
        self.t_final = t_final
        self._grid_factors = {}  # (nx, ny, Lx, Ly) -> _factors of that grid

        # broadcastable axes: only the heat parts fill the whole sample, a
        # block of _SAMPLE_BLOCK x-rows at a time
        xg, yg, tg = np.meshgrid(
            np.linspace(0, lx, _SAMPLE), np.linspace(0, ly, _SAMPLE),
            np.linspace(0, t_final, _SAMPLE), indexing="ij", sparse=True)
        (s_x, s_y), cos_kx = self._shape(xg, yg)[1], np.cos(self._kx * xg)
        slope = 0.0
        for rows in range(0, _SAMPLE, _SAMPLE_BLOCK):
            block = slice(rows, rows + _SAMPLE_BLOCK)
            g0, gs = self._heat_parts((s_x[block], s_y[block]), cos_kx[block], tg)
            if gs.min() <= 0:
                raise ConfigError("cannot offset the heat forcing to nonnegative; "
                                  "reduce the coupling matrix")
            slope = max(slope, np.max((margin - g0) / gs))
        self.slope = float(slope)

    def _time_factors(self, t):
        """c, c' and c'' of u = c(t) S, each a pair of components."""
        e = np.exp(-2.0 * t)
        r, dr, ddr = 1.0 - e, 2.0 * e, -4.0 * e
        p = (np.cos(t), np.sin(t))
        dp = (-p[1], p[0])  # and p'' = -p
        a = self._amp_u
        c = [a * r * p[i] for i in range(2)]
        dc = [a * (dr * p[i] + r * dp[i]) for i in range(2)]
        ddc = [a * (ddr * p[i] + 2.0 * dr * dp[i] - r * p[i]) for i in range(2)]
        return c, dc, ddc

    def _shape(self, x, y):
        """S and its first derivatives (S_x, S_y), and the rows of its Hessian."""
        kx, ky = self._kx, self._ky
        sx, cx = np.sin(kx * x), np.cos(kx * x)
        sy, cy = np.sin(ky * y), np.cos(ky * y)
        s = sx * sy
        s_xy = kx * ky * cx * cy
        return s, (kx * cx * sy, ky * sx * cy), ((-kx * kx * s, s_xy),
                                                  (s_xy, -ky * ky * s))

    def _factors(self, grid):
        """_shape(X, Y), sin(kx X) and cos(kx X) on grid's nodes, evaluated
        once per grid size: a study builds a new Grid for every run, and the
        forcings read these factors at every step."""
        key = (grid.nx, grid.ny, grid.Lx, grid.Ly)
        if key not in self._grid_factors:
            self._grid_factors[key] = (self._shape(grid.X, grid.Y),
                                       np.sin(self._kx * grid.X), np.cos(self._kx * grid.X))
        return self._grid_factors[key]

    def _heat_parts(self, grad_s, cos_kx, t):
        """g at ramp slope 0 and dg/ds, so g = g0 + s * gs, from (S_x, S_y)
        and cos(kx x) at the points."""
        s_x, s_y = grad_s
        _, dc, _ = self._time_factors(t)
        e_xx, e_yy = dc[0] * s_x, dc[1] * s_y
        e_xy = 0.5 * (dc[0] * s_y + dc[1] * s_x)
        tr = e_xx + e_yy
        heating = (2.0 * self._mu_d * (e_xx ** 2 + e_yy ** 2 + 2.0 * e_xy ** 2)
                   + self._lam_d * tr ** 2)
        b = self._b
        b_e = b[0, 0] * e_xx + (b[0, 1] + b[1, 0]) * e_xy + b[1, 1] * e_yy
        wave = self._amp_theta * cos_kx
        g0 = (-self._kappa0 * wave * np.sin(t)
              + self._d_diff * self._kx ** 2 * wave * np.cos(t)
              - heating + (1.0 + wave * np.cos(t)) * b_e)
        return g0, self._kappa0 + t * b_e

    def _clamped(self, factor, grid):
        s = self._factors(grid)[0][0]
        out = np.stack([factor[0] * s, factor[1] * s], axis=-1)
        out[grid.boundary_mask] = 0.0
        return out

    def exact_u(self, t, grid):
        return self._clamped(self._time_factors(t)[0], grid)

    def exact_v(self, t, grid):
        return self._clamped(self._time_factors(t)[1], grid)

    def exact_theta(self, t, grid):
        return (1.0 + self._amp_theta * self._factors(grid)[2] * math.cos(t)
                + self.slope * t)

    def forcing_f(self, t, grid):
        (s, _, hess), sin_kx, _ = self._factors(grid)
        c, dc, ddc = self._time_factors(t)
        lap = hess[0][0] + hess[1][1]
        # B grad theta, with theta_y = 0
        out = -self._b[:, 0] * (self._amp_theta * self._kx * math.cos(t)
                                * sin_kx)[..., None]
        for i, row in enumerate(hess):
            out[..., i] += (ddc[i] * s
                            - (self._mu_d * dc[i] + self._mu_c * c[i]) * lap
                            - (self._lam_d + self._mu_d) * (dc[0] * row[0] + dc[1] * row[1])
                            - (self._lam_c + self._mu_c) * (c[0] * row[0] + c[1] * row[1]))
        return out

    def forcing_g(self, t, grid):
        (_, grad_s, _), _, cos_kx = self._factors(grid)
        g0, gs = self._heat_parts(grad_s, cos_kx, t)
        out = g0 + self.slope * gs
        if out.min() < -1e-10:
            raise ConfigError(f"manufactured heat source negative: {out.min():g}")
        return np.maximum(out, 0.0)

    def initial_state(self, grid):
        return FieldState(self.exact_u(0.0, grid), self.exact_v(0.0, grid),
                          self.exact_theta(0.0, grid), 0.0)

    def errors(self, state, grid):
        """Quadrature L2 errors of displacement and temperature."""
        du = state.u - self.exact_u(state.t, grid)
        dth = state.theta - self.exact_theta(state.t, grid)
        e_u = math.sqrt(grid.integrate(du[..., 0] ** 2 + du[..., 1] ** 2))
        e_th = math.sqrt(grid.integrate(dth ** 2))
        return e_u, e_th
