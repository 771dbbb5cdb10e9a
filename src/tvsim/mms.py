"""Manufactured-solution forcing for convergence studies.

Prescribes smooth exact fields compatible with the boundary conditions
(displacement clamped, temperature with zero normal derivative), derives the
residual momentum and heat forcings symbolically for isotropic tensors and a
constant heat capacity, and offsets the temperature ramp so the heat forcing
stays nonnegative over the whole study window.
"""

from __future__ import annotations

import math

import numpy as np
import sympy as sp

from .errors import ConfigError
from .tensors import isotropic_tensor


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
        lam_d, mu_d = _extract_isotropic(tensors.D4, "D")
        lam_c, mu_c = _extract_isotropic(tensors.C4, "C")
        if kappa0 <= 0:
            raise ConfigError("convergence study needs a constant heat capacity")
        bmat = sp.Matrix(2, 2, [float(tensors.B[i, j]) for i in range(2) for j in range(2)])
        x, y, t, s_off = sp.symbols("x y t s", real=True)

        shape = sp.sin(sp.pi * x / lx) * sp.sin(sp.pi * y / ly)
        ramp = 1 - sp.exp(-2 * t)
        u = amp_u * ramp * sp.Matrix([sp.cos(t) * shape, sp.sin(t) * shape])
        theta = 1 + amp_theta * sp.cos(sp.pi * x / lx) * sp.cos(t) + s_off * t

        def grad_vec(w):
            return sp.Matrix([[sp.diff(w[0], x), sp.diff(w[0], y)],
                              [sp.diff(w[1], x), sp.diff(w[1], y)]])

        def sym_grad(w):
            j = grad_vec(w)
            return (j + j.T) / 2

        def div_mat(m):
            return sp.Matrix([sp.diff(m[0, 0], x) + sp.diff(m[0, 1], y),
                              sp.diff(m[1, 0], x) + sp.diff(m[1, 1], y)])

        def iso_apply(lam, mu, e):
            return 2 * mu * e + lam * (e[0, 0] + e[1, 1]) * sp.eye(2)

        def inner(a, b):
            return sum(a[i, j] * b[i, j] for i in range(2) for j in range(2))

        ut = sp.diff(u, t)
        utt = sp.diff(u, t, 2)
        e_ut = sym_grad(ut)
        stress_v = iso_apply(lam_d, mu_d, e_ut)
        stress_u = iso_apply(lam_c, mu_c, sym_grad(u))
        grad_theta = sp.Matrix([sp.diff(theta, x), sp.diff(theta, y)])

        f_expr = utt - div_mat(stress_v) - div_mat(stress_u) + bmat * grad_theta
        lap_theta = sp.diff(theta, x, 2) + sp.diff(theta, y, 2)
        heating = inner(stress_v, e_ut)
        cooling = theta * inner(bmat, e_ut)
        g_expr = kappa0 * sp.diff(theta, t) - d_diff * lap_theta - heating + cooling

        # g is affine in the ramp slope s: pick the smallest s with g >= margin
        g0 = g_expr.subs(s_off, 0)
        gs = sp.diff(g_expr, s_off)
        g0_fn = sp.lambdify((x, y, t), g0, "numpy")
        gs_fn = sp.lambdify((x, y, t), gs, "numpy")
        xs = np.linspace(0, lx, 41)
        ys = np.linspace(0, ly, 41)
        ts = np.linspace(0, t_final, 41)
        xg, yg, tg = np.meshgrid(xs, ys, ts, indexing="ij")
        g0_s = np.broadcast_to(g0_fn(xg, yg, tg), xg.shape)
        gs_s = np.broadcast_to(gs_fn(xg, yg, tg), xg.shape)
        if gs_s.min() <= 0:
            raise ConfigError("cannot offset the heat forcing to nonnegative; "
                              "reduce the coupling matrix")
        slope = float(max(0.0, np.max((margin - g0_s) / gs_s)))
        subs = {s_off: slope}

        # the fields and forcings, evaluated at every step, share their common
        # subexpressions (cse); the sampling of g above does not, because on
        # its 41^3 points the shared intermediates would add ~14 MB of memory
        def lamb(expr):
            return sp.lambdify((x, y, t), expr.subs(subs), "numpy", cse=True)

        self.slope = slope
        self.t_final = t_final
        self._u = [lamb(u[0]), lamb(u[1])]
        self._v = [lamb(ut[0]), lamb(ut[1])]
        self._theta = lamb(theta)
        self._f = [lamb(f_expr[0]), lamb(f_expr[1])]
        self._g = lamb(g_expr)

    def _vec(self, fns, t, grid, clamp=False):
        out = np.stack([np.broadcast_to(np.asarray(fn(grid.X, grid.Y, t), dtype=float),
                                        grid.X.shape).copy() for fn in fns], axis=-1)
        if clamp:
            out[grid.boundary_mask] = 0.0
        return out

    def exact_u(self, t, grid):
        return self._vec(self._u, t, grid, clamp=True)

    def exact_v(self, t, grid):
        return self._vec(self._v, t, grid, clamp=True)

    def exact_theta(self, t, grid):
        return np.broadcast_to(np.asarray(self._theta(grid.X, grid.Y, t),
                                          dtype=float), grid.X.shape).copy()

    def forcing_f(self, t, grid):
        return self._vec(self._f, t, grid)

    def forcing_g(self, t, grid):
        out = np.broadcast_to(np.asarray(self._g(grid.X, grid.Y, t), dtype=float),
                              grid.X.shape).copy()
        if out.min() < -1e-10:
            raise ConfigError(f"manufactured heat source negative: {out.min():g}")
        return np.maximum(out, 0.0)

    def initial_state(self, grid):
        from .integrator import FieldState
        return FieldState(self.exact_u(0.0, grid), self.exact_v(0.0, grid),
                          self.exact_theta(0.0, grid), 0.0)

    def errors(self, state, grid):
        """Quadrature L2 errors of displacement and temperature."""
        du = state.u - self.exact_u(state.t, grid)
        dth = state.theta - self.exact_theta(state.t, grid)
        e_u = math.sqrt(grid.integrate(du[..., 0] ** 2 + du[..., 1] ** 2))
        e_th = math.sqrt(grid.integrate(dth ** 2))
        return e_u, e_th
