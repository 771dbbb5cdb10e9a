import os

import numpy as np
import pytest
import scipy.sparse as sp

from tvsim import tensors as tn
from tvsim.errors import ConfigError, SolverError
from tvsim.grid import (Grid, _cosine_modes_1d, _neumann_laplacian_1d,
                        _parity_order, _sbp_derivative_1d, _sbp_modes_1d,
                        _trapezoid_1d, read_snapshot, solve_spd,
                        write_snapshot)
from conftest import boundary_vanishing_field


def laplacian_neumann(grid, f):
    """Five-point Laplacian with mirror ghosts (zero normal derivative)."""
    out = np.zeros_like(f)
    ihx2, ihy2 = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    out[:, 1:-1] += (f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]) * ihx2
    out[:, 0] += 2.0 * (f[:, 1] - f[:, 0]) * ihx2
    out[:, -1] += 2.0 * (f[:, -2] - f[:, -1]) * ihx2
    out[1:-1, :] += (f[2:, :] - 2.0 * f[1:-1, :] + f[:-2, :]) * ihy2
    out[0, :] += 2.0 * (f[1, :] - f[0, :]) * ihy2
    out[-1, :] += 2.0 * (f[-2, :] - f[-1, :]) * ihy2
    return out


def component_stress_matrix(t):
    """3x3 matrix mapping strain triples (a11, a22, a12) to stress triples.

    Unlike tn.component_matrix this returns the plain components of T:A,
    without the quadratic-form multiplicity on the shear row.
    """
    t = np.asarray(t, dtype=float)
    return np.array([
        [t[0, 0, 0, 0], t[0, 0, 1, 1], 2.0 * t[0, 0, 0, 1]],
        [t[1, 1, 0, 0], t[1, 1, 1, 1], 2.0 * t[1, 1, 0, 1]],
        [t[0, 1, 0, 0], t[0, 1, 1, 1], 2.0 * t[0, 1, 0, 1]],
    ])


def full_form(grid, comp_matrix):
    """Oracle: the form G^T [M (x) diag(w)] G over all 2 n_nodes vector dof."""
    g = grid.G()
    return (g.T @ sp.kron(comp_matrix, sp.diags(grid.weights.ravel())) @ g).tocsr()


def stencil_d_x(grid, f):
    """The SBP x-derivative as a stencil: centered inside, one-sided ends."""
    out = np.empty_like(f)
    out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (2.0 * grid.hx)
    out[:, 0] = (f[:, 1] - f[:, 0]) / grid.hx
    out[:, -1] = (f[:, -1] - f[:, -2]) / grid.hx
    return out


def stencil_d_y(grid, f):
    out = np.empty_like(f)
    out[1:-1, :] = (f[2:, :] - f[:-2, :]) / (2.0 * grid.hy)
    out[0, :] = (f[1, :] - f[0, :]) / grid.hy
    out[-1, :] = (f[-1, :] - f[-2, :]) / grid.hy
    return out


def korn_quotients(grid, comp_matrix, n_samples=100, seed=0):
    """Rayleigh quotients of the elastic form against the full gradient.

    For boundary-clamped random fields w returns the sampled values of
    integrate(<C: sym_grad w, sym_grad w>) / integrate(|grad w|^2), whose
    positive infimum is the discrete Korn-type coercivity constant.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    for k in range(n_samples):
        w = np.zeros((grid.ny, grid.nx, 2))
        w[1:-1, 1:-1, :] = rng.standard_normal((grid.ny - 2, grid.nx - 2, 2))
        e = grid.sym_grad(w)
        num = grid.integrate(np.einsum("ab,ija,ijb->ij", comp_matrix, e, e))
        gx0 = grid.grad(w[..., 0])
        gx1 = grid.grad(w[..., 1])
        den = grid.integrate(gx0[..., 0] ** 2 + gx0[..., 1] ** 2
                             + gx1[..., 0] ** 2 + gx1[..., 1] ** 2)
        out[k] = num / den
    return out


def poincare_korn_quotients(grid, n_samples=100, seed=0):
    """Sampled L1 quotients integrate(|w|) / integrate(|sym_grad w|).

    Boundedness of these ratios is the discrete counterpart of the
    Poincare-Korn inequality for boundary-clamped fields.
    """
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    for k in range(n_samples):
        w = np.zeros((grid.ny, grid.nx, 2))
        w[1:-1, 1:-1, :] = rng.standard_normal((grid.ny - 2, grid.nx - 2, 2))
        e = grid.sym_grad(w)
        mag = np.sqrt(e[..., 0] ** 2 + e[..., 1] ** 2 + 2.0 * e[..., 2] ** 2)
        num = grid.integrate(np.sqrt(w[..., 0] ** 2 + w[..., 1] ** 2))
        out[k] = num / grid.integrate(mag)
    return out


class TestGridBasics:
    def test_spacing_and_weights(self):
        g = Grid(5, 9, 2.0, 1.0)
        assert g.hx == pytest.approx(0.5)
        assert g.hy == pytest.approx(0.125)
        # corner 1/4, edge 1/2, interior 1 of the cell area
        cell = g.hx * g.hy
        assert g.weights[0, 0] == pytest.approx(0.25 * cell)
        assert g.weights[0, 2] == pytest.approx(0.5 * cell)
        assert g.weights[3, 3] == pytest.approx(cell)

    def test_rejects_small_grid(self):
        with pytest.raises(ConfigError):
            Grid(3, 8)

    def test_integrate_examples(self, grid):
        assert grid.integrate(np.ones((grid.ny, grid.nx))) == pytest.approx(1.0)
        assert grid.integrate(np.zeros((grid.ny, grid.nx))) == 0.0
        assert grid.integrate(grid.X) == pytest.approx(0.5)


class TestSymGrad:
    def test_shear_field(self, grid):
        v = np.stack([grid.Y, np.zeros_like(grid.X)], axis=-1)
        e = grid.sym_grad(v)
        assert np.allclose(e[..., 0], 0.0)
        assert np.allclose(e[..., 1], 0.0)
        assert np.allclose(e[..., 2], 0.5)

    def test_zero_field(self, grid):
        assert np.all(grid.sym_grad(np.zeros((grid.ny, grid.nx, 2))) == 0.0)

    def test_identity_field_exact(self, grid):
        v = np.stack([grid.X, grid.Y], axis=-1)
        e = grid.sym_grad(v)
        assert np.allclose(e[..., 0], 1.0)
        assert np.allclose(e[..., 1], 1.0)
        assert np.allclose(e[..., 2], 0.0)


class TestDivergenceAdjoint:
    def test_adjointness_random(self, grid, rng):
        worst = 0.0
        for _ in range(50):
            a = rng.standard_normal((grid.ny, grid.nx, 3))
            w = boundary_vanishing_field(grid, rng)
            e = grid.sym_grad(w)
            pairing = grid.integrate(a[..., 0] * e[..., 0] + a[..., 1] * e[..., 1]
                                     + 2.0 * a[..., 2] * e[..., 2])
            d = grid.div_matrix(a)
            dual = grid.integrate(d[..., 0] * w[..., 0] + d[..., 1] * w[..., 1])
            scale = max(1.0, abs(pairing))
            worst = max(worst, abs(pairing + dual) / scale)
        assert worst <= 1e-12

    def test_constant_field_divergence_free(self, grid):
        a = np.broadcast_to(np.array([1.3, -0.4, 0.7]),
                            (grid.ny, grid.nx, 3)).copy()
        assert np.abs(grid.div_matrix(a)).max() == 0.0

    def test_exchange_sum_vanishes(self, grid, rng):
        b = np.array([0.5, 0.5, 0.3])
        for _ in range(10):
            w = boundary_vanishing_field(grid, rng)
            e = grid.sym_grad(w)
            val = grid.integrate(b[0] * e[..., 0] + b[1] * e[..., 1]
                                 + 2.0 * b[2] * e[..., 2])
            assert abs(val) <= 1e-12 * (1.0 + np.abs(w).max())

    @pytest.mark.parametrize("nx, ny", [(5, 4), (13, 9), (12, 10), (32, 32)])
    def test_thermal_force_is_the_quadrature_adjoint(self, nx, ny, rng):
        """v . T_B theta = integrate(theta <B, sym_grad v>), checked against
        the quadrature, not against the Gi^T formula that builds T_B."""
        g = Grid(nx, ny, Lx=1.3)
        worst = 0.0
        for b in [(1.0, 1.0, 0.0), (0.5, 0.3, 0.2), (0.7, 0.0, -0.4)]:
            t_b = g.coupling_force_matrix(b)
            for _ in range(5):
                v = boundary_vanishing_field(g, rng)
                theta = rng.uniform(0.5, 2.0, (ny, nx))
                e = g.sym_grad(v)
                terms = [b[0] * e[..., 0], b[1] * e[..., 1], 2.0 * b[2] * e[..., 2]]
                pairing = g.integrate(theta * sum(terms))
                scale = g.integrate(theta * sum(np.abs(t) for t in terms))
                got = g.interior_vec(v) @ (t_b @ theta.ravel())
                worst = max(worst, abs(got - pairing) / scale)
        assert worst <= 1e-13

    def test_divergence_refinement_to_analytic(self):
        # div(C: sym_grad v) for v = sine mode approaches
        # mu lap(v) + (lam + mu) grad div v at second order away from the edge
        lam, mu = 1.0, 2.0
        smat = component_stress_matrix(tn.isotropic_tensor(lam, mu))
        errs = []
        for n in (17, 33, 65):
            g = Grid(n, n)
            sx, sy = np.sin(np.pi * g.X), np.sin(np.pi * g.Y)
            cx, cy = np.cos(np.pi * g.X), np.cos(np.pi * g.Y)
            v = np.zeros((n, n, 2))
            v[..., 0] = sx * sy
            e = g.sym_grad(v)
            stress = np.einsum("ab,ijb->ija", smat, e)
            got = g.div_matrix(stress)
            pi = np.pi
            lap = -2.0 * pi ** 2 * sx * sy
            ddiv_x = -pi ** 2 * sx * sy
            ddiv_y = pi ** 2 * cx * cy
            exact_x = mu * lap + (lam + mu) * ddiv_x
            exact_y = (lam + mu) * ddiv_y
            box = (g.X >= 0.245) & (g.X <= 0.755) & (g.Y >= 0.245) & (g.Y <= 0.755)
            err = max(np.abs((got[..., 0] - exact_x)[box]).max(),
                      np.abs((got[..., 1] - exact_y)[box]).max())
            errs.append(err)
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5


class TestNeumannLaplacian:
    def test_constants_in_kernel(self, grid):
        c = np.full((grid.ny, grid.nx), 3.7)
        assert np.abs(laplacian_neumann(grid, c)).max() == 0.0

    def test_discrete_conservation(self, grid, rng):
        theta = rng.standard_normal((grid.ny, grid.nx))
        val = grid.integrate(laplacian_neumann(grid, theta))
        assert abs(val) <= 1e-12 * np.abs(theta).max()

    def test_cosine_eigenfield(self):
        # cos(pi x / Lx) is an exact discrete eigenfield of the mirror-ghost
        # operator; its eigenvalue tends to -(pi/Lx)^2 at second order
        gaps = []
        for n in (9, 17, 33):
            g = Grid(n, n)
            theta = np.cos(np.pi * g.X / g.Lx)
            lam_h = -(2.0 - 2.0 * np.cos(np.pi * g.hx / g.Lx)) / g.hx ** 2
            resid = np.abs(laplacian_neumann(g, theta) - lam_h * theta).max()
            assert resid <= 1e-11 / g.hx ** 2
            gaps.append(abs(lam_h + np.pi ** 2))
        assert gaps[0] / gaps[1] >= 3.5
        assert gaps[1] / gaps[2] >= 3.5

    def test_weighted_operator_symmetric_negative(self, grid, rng):
        a = grid.neumann_weighted()
        assert abs(a - a.T).max() == 0.0
        theta = rng.standard_normal(grid.n_nodes)
        assert theta @ (a @ theta) <= 1e-12


class TestKornChecks:
    def test_pointwise_symmetric_gradient_coercivity(self, grid, rng):
        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 1.0))
        kc = 2.0
        for _ in range(100):
            w = boundary_vanishing_field(grid, rng)
            e = grid.sym_grad(w)
            lhs = grid.integrate(np.einsum("ab,ija,ijb->ij", comp, e, e))
            rhs = kc * grid.integrate(e[..., 0] ** 2 + e[..., 1] ** 2
                                      + 2.0 * e[..., 2] ** 2)
            assert lhs >= rhs - 1e-10 * abs(rhs)

    def test_full_gradient_korn_positive(self):
        g = Grid(16, 16)
        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 1.0))
        q = korn_quotients(g, comp, n_samples=100, seed=3)
        assert q.min() > 1.0  # comfortably above half the coercivity constant

    def test_poincare_korn_bounded(self):
        # frozen bound computed from smooth and rough samples on this domain
        for n in (8, 16, 32):
            g = Grid(n, n)
            q = poincare_korn_quotients(g, n_samples=100, seed=3)
            assert q.max() <= 0.5
        # smooth single-mode field stays below the same frozen bound
        g = Grid(32, 32)
        w = np.zeros((32, 32, 2))
        w[..., 0] = np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
        w[g.boundary_mask] = 0.0
        e = g.sym_grad(w)
        mag = np.sqrt(e[..., 0] ** 2 + e[..., 1] ** 2 + 2 * e[..., 2] ** 2)
        ratio = g.integrate(np.abs(w[..., 0])) / g.integrate(mag)
        assert ratio <= 0.5


def _lil_derivative(n, h):
    d = sp.lil_matrix((n, n))
    d[0, 0], d[0, 1] = -1.0 / h, 1.0 / h
    d[n - 1, n - 2], d[n - 1, n - 1] = -1.0 / h, 1.0 / h
    for i in range(1, n - 1):
        d[i, i - 1], d[i, i + 1] = -0.5 / h, 0.5 / h
    return d.tocsr()


def _lil_neumann(n, h):
    lap = sp.lil_matrix((n, n))
    c = 1.0 / h**2
    lap[0, 0], lap[0, 1] = -2.0 * c, 2.0 * c
    lap[n - 1, n - 2], lap[n - 1, n - 1] = 2.0 * c, -2.0 * c
    for i in range(1, n - 1):
        lap[i, i - 1], lap[i, i], lap[i, i + 1] = c, -2.0 * c, c
    return lap.tocsr()


class TestOneDimensionalOperators:
    @pytest.mark.parametrize("n, h", [(4, 1.0 / 3), (9, 0.125), (13, 0.1083)])
    def test_match_entrywise_assembly(self, n, h):
        for new, ref in [(_sbp_derivative_1d(n, h), _lil_derivative(n, h)),
                         (_neumann_laplacian_1d(n, h), _lil_neumann(n, h))]:
            assert new.nnz == ref.nnz
            assert np.array_equal(new.toarray(), ref.toarray())

    @pytest.mark.parametrize("n, h", [(4, 0.5), (13, 0.1)])
    def test_cosine_modes_diagonalize_neumann(self, n, h):
        q, mu = _cosine_modes_1d(n, h)
        p = np.diag(_trapezoid_1d(n, h))
        assert np.abs(q.T @ p @ q - np.eye(n)).max() <= 1e-12
        lap = _neumann_laplacian_1d(n, h).toarray()
        assert np.abs(lap @ q + q * mu).max() <= 1e-10 * mu.max()

    @pytest.mark.parametrize("n", range(4, 15))
    def test_sbp_form_has_no_odd_even_entry(self, n):
        d = _sbp_derivative_1d(n, 1.0 / (n - 1))
        k = (d.T @ sp.diags(_trapezoid_1d(n, 1.0 / (n - 1))) @ d).toarray()
        parity = np.arange(n - 2) % 2
        cross = parity[:, None] != parity[None, :]
        assert not k[1:-1, 1:-1][cross].any()

    @pytest.mark.parametrize("n, h", [(5, 0.25), (13, 0.1), (8, 1.0 / 7),
                                      (14, 0.08)])
    def test_sbp_modes_diagonalize_interior_form(self, n, h):
        q_blocks, lam_blocks = _sbp_modes_1d(n, h)
        d = _sbp_derivative_1d(n, h).toarray()
        p = np.diag(_trapezoid_1d(n, h))
        k = (d.T @ p @ d)[1:-1, 1:-1]
        # scatter the parity blocks' modes back to natural node order
        q, lam, col = np.zeros((n - 2, n - 2)), np.zeros(n - 2), 0
        for qb, lb, pos in zip(q_blocks, lam_blocks, _parity_order(n - 2)):
            size = np.count_nonzero(pos < n - 2)
            q[pos[:size], col:col + size] = qb[:size, :size]
            lam[col:col + size] = lb[:size]
            col += size
            # a pad position carries the decoupled unit mode with lam = 0
            assert not qb[size:, :size].any() and not qb[:size, size:].any()
            assert np.all(qb[size:, size:] == np.eye(pos.size - size) / np.sqrt(h))
            assert not lb[size:].any()
        assert col == n - 2
        assert np.abs(q.T @ p[1:-1, 1:-1] @ q - np.eye(n - 2)).max() <= 1e-12
        assert np.abs(q.T @ k @ q - np.diag(lam)).max() <= 1e-10 * lam.max()
        assert lam.min() > 0


class TestSolveSpd:
    def test_identity(self, rng):
        a = sp.identity(40, format="csr")
        rhs = rng.standard_normal(40)
        x, it = solve_spd(a, rhs)
        assert np.allclose(x, rhs)

    def test_diagonal(self, rng):
        a = sp.diags(np.full(25, 2.0)).tocsr()
        rhs = rng.standard_normal(25)
        x, _ = solve_spd(a, rhs)
        assert np.allclose(x, rhs / 2.0)

    def test_viscous_resolvent_vs_dense(self, rng):
        g = Grid(8, 8)
        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 1.0))
        a_int = g.quadratic_form_matrix(comp)
        w2 = np.concatenate([g.weights.ravel(), g.weights.ravel()])
        system = (sp.diags(w2[g.interior_dof]) + 0.02 * a_int).tocsr()
        rhs = rng.standard_normal(system.shape[0])
        x, _ = solve_spd(system, rhs, tol=1e-12)
        dense = np.linalg.solve(system.toarray(), rhs)
        assert np.abs(x - dense).max() <= 1e-9

    def test_nonconvergence_reports_residual(self, rng):
        g = Grid(16, 16)
        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 1.0))
        a_int = g.quadratic_form_matrix(comp)
        rhs = rng.standard_normal(a_int.shape[0])
        with pytest.raises(SolverError) as err:
            solve_spd(a_int, rhs, tol=1e-14, maxiter=2)
        assert err.value.residual is not None
        assert err.value.iterations == 2


class TestInteriorUnknowns:
    """The interior velocity unknowns in their parity-major order."""

    @pytest.mark.parametrize("nx, ny", [(13, 9), (12, 10), (13, 10)])
    def test_every_interior_dof_once_and_pads_zero(self, nx, ny, rng):
        g = Grid(nx, ny)
        real = g.interior_dof < 2 * g.n_nodes
        inner = np.flatnonzero(~g.boundary_mask.ravel())
        natural = np.concatenate([inner, inner + g.n_nodes])
        assert np.array_equal(np.sort(g.interior_dof[real]), natural)
        # both parity blocks of a direction are padded to one size
        assert g.interior_dof.size == 8 * ((nx - 1) // 2) * ((ny - 1) // 2)
        w = boundary_vanishing_field(g, rng)
        v = g.interior_vec(w)
        assert not v[~real].any()
        assert np.array_equal(g.vec_from_interior(v), w)

    @pytest.mark.parametrize("nx, ny", [(13, 9), (12, 10)])
    def test_operators_follow_the_order(self, nx, ny, rng):
        g = Grid(nx, ny, Lx=1.3)
        w = boundary_vanishing_field(g, rng)
        real = g.interior_dof < 2 * g.n_nodes
        # the clamped five-point Laplacian of each component
        lap = np.zeros_like(w)
        lap[1:-1, 1:-1] = ((w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]) / g.hx ** 2
                           + (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / g.hy ** 2)
        got = g.dirichlet_laplacian_interior() @ g.interior_vec(w)
        assert np.abs(got - g.interior_vec(lap)).max() <= 1e-12 * np.abs(lap).max()
        # the elastic form and the thermal force on the unknowns; the pad
        # slots have zero rows
        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 2.0))
        a_full = full_form(g, comp)
        flat = np.concatenate([w[..., 0].ravel(), w[..., 1].ravel()])
        expected = g.interior_vec(g._vec_unflat(a_full @ flat))
        a_int = g.quadratic_form_matrix(comp)
        assert np.abs(a_int @ g.interior_vec(w) - expected).max() \
            <= 1e-12 * np.abs(expected).max()
        t_b = g.coupling_force_matrix((0.5, 0.3, 0.2))
        pads = np.flatnonzero(~real)
        assert abs(a_int[pads]).sum() == 0.0 and abs(t_b[pads]).sum() == 0.0


class TestOneDerivative:
    """Every operator comes from the one SBP derivative: the pointwise ones
    match its stencil, the interior forms the full form restricted."""

    @pytest.mark.parametrize("nx, ny", [(13, 9), (12, 10)])
    def test_pointwise_operators_match_the_stencils(self, nx, ny, rng):
        g = Grid(nx, ny, Lx=1.3)
        f = rng.standard_normal((ny, nx))
        v = rng.standard_normal((ny, nx, 2))
        a = rng.standard_normal((ny, nx, 3))
        dx, dy = (lambda h: stencil_d_x(g, h)), (lambda h: stencil_d_y(g, h))
        cases = [
            (g.grad(f), np.stack([dx(f), dy(f)], axis=-1)),
            (g.sym_grad(v), np.stack([dx(v[..., 0]), dy(v[..., 1]),
                                      0.5 * (dy(v[..., 0]) + dx(v[..., 1]))], axis=-1)),
        ]
        # the adjoint is the centered divergence at interior nodes, 0 elsewhere
        div = np.stack([dx(a[..., 0]) + dy(a[..., 2]),
                        dx(a[..., 2]) + dy(a[..., 1])], axis=-1)
        div[g.boundary_mask] = 0.0
        cases.append((g.div_matrix(a), div))
        for got, expected in cases:
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("nx, ny", [(13, 9), (12, 10)])
    def test_interior_forms_restrict_the_full_form(self, nx, ny):
        g = Grid(nx, ny, Lx=1.3)
        b = (0.5, 0.3, 0.2)
        for comp in (tn.component_matrix(tn.isotropic_tensor(1.0, 2.0)),
                     np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 0.9]])):
            expected = g.interior_submatrix(full_form(g, comp)).toarray()
            assert np.array_equal(g.quadratic_form_matrix(comp).toarray(), expected)
        w = sp.diags(g.weights.ravel())
        stack = sp.vstack([b[0] * w, b[1] * w, 2.0 * b[2] * w])
        full_t_b = np.vstack([(g.G().T @ stack).toarray(), np.zeros((1, g.n_nodes))])
        assert np.array_equal(g.coupling_force_matrix(b).toarray(),
                              full_t_b[g.interior_dof])


def _restricted(a, rows, cols=None):
    """a[rows][:, cols] by generic sparse slicing, where the index one past
    the last row (column) reads an empty one, as a pad slot does."""
    a = sp.csr_matrix(a, copy=True)
    a.resize(a.shape[0] + 1, a.shape[1] + (cols is not None))
    a = a[rows]
    return (a if cols is None else a[:, cols]).tocsr()


def generic_operators(g, bs, comps):
    """Oracle: every grid operator built by generic sparse algebra (Kronecker
    products, block stacks, products and slices) from the 1-D factors."""
    n, dof = g.n_nodes, g.interior_dof
    d_x, d_y = _sbp_derivative_1d(g.nx, g.hx), _sbp_derivative_1d(g.ny, g.hy)
    dx = sp.kron(sp.identity(g.ny), d_x, format="csr")
    dy = sp.kron(d_y, sp.identity(g.nx), format="csr")
    zero = sp.csr_matrix(dx.shape)
    gm = sp.bmat([[dx, zero], [zero, dy], [0.5 * dy, 0.5 * dx]], format="csr")
    w = sp.diags(g.weights.ravel())
    px, py = sp.diags(_trapezoid_1d(g.nx, g.hx)), sp.diags(_trapezoid_1d(g.ny, g.hy))
    lx, ly = _neumann_laplacian_1d(g.nx, g.hx), _neumann_laplacian_1d(g.ny, g.hy)

    def clamped(m, h):
        return sp.diags([np.full(m - 1, 1.0 / h**2), np.full(m, -2.0 / h**2),
                         np.full(m - 1, 1.0 / h**2)], [-1, 0, 1])
    lap = (sp.kron(sp.identity(g.ny), clamped(g.nx, g.hx))
           + sp.kron(clamped(g.ny, g.hy), sp.identity(g.nx)))
    ops = {"Dx": dx, "Dy": dy, "G": gm, "Gi": _restricted(gm, np.arange(3 * n), dof),
           "A_N": sp.kron(py, px @ lx) + sp.kron(py @ ly, px),
           "L_dir": _restricted(sp.block_diag([lap, lap]), dof, dof)}
    for i, b in enumerate(bs):
        stack = sp.kron(np.array([[b[0]], [b[1]], [2.0 * b[2]]]), w)
        ops[f"T_B{i}"] = _restricted(gm.T @ stack, dof)
    for i, comp in enumerate(comps):
        ops[f"A{i}"] = _restricted(full_form(g, comp), dof, dof)
    return ops


class TestBuiltFromFactors:
    """Each operator equals value for value what generic sparse algebra
    builds from the same 1-D factors; Gi and T_B, sliced and multiplied
    from G, equal it array for array."""

    bs = [(0.5, 0.3, 0.2), (0.7, 0.0, -0.4)]
    comps = [tn.component_matrix(tn.isotropic_tensor(1.0, 2.0)),
             np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 0.9]])]

    @pytest.mark.parametrize("nx, ny, lx", [(4, 4, 1.0), (5, 4, 1.0), (13, 9, 1.3),
                                            (12, 10, 1.3), (32, 32, 1.0)])
    def test_operators_equal_the_generic_builds(self, nx, ny, lx):
        g = Grid(nx, ny, Lx=lx)
        built = {"Dx": g.Dx(), "Dy": g.Dy(), "G": g.G(), "Gi": g._g_interior(),
                 "A_N": g.neumann_weighted(), "L_dir": g.dirichlet_laplacian_interior()}
        built.update({f"T_B{i}": g.coupling_force_matrix(b) for i, b in enumerate(self.bs)})
        built.update({f"A{i}": g.quadratic_form_matrix(c) for i, c in enumerate(self.comps)})
        oracle = generic_operators(g, self.bs, self.comps)
        for name, got in built.items():
            want = oracle[name]
            assert got.format == "csr" and got.shape == want.shape, name
            assert (got != want).nnz == 0, name
            assert np.all(got.data != 0.0), name  # no stored zeros
        # the stored order fixes the summation order of every product by Gi
        # and T_B, so these match the generic builds array for array
        for name in ["Gi"] + [f"T_B{i}" for i in range(len(self.bs))]:
            got, want = built[name], oracle[name]
            for arr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, arr), getattr(want, arr)), (name, arr)

    @pytest.mark.parametrize("nx, ny", [(5, 4), (13, 9), (12, 10)])
    def test_interior_submatrix_equals_the_slices(self, nx, ny):
        g = Grid(nx, ny, Lx=1.3)
        rng = np.random.default_rng(nx * ny)
        full = sp.random(2 * g.n_nodes, 2 * g.n_nodes, density=0.1, format="csr",
                         random_state=rng)
        for a in (full, full_form(g, self.comps[1]), full.tocoo()):
            got = g.interior_submatrix(a)
            want = _restricted(a, g.interior_dof, g.interior_dof)
            assert got.shape == want.shape and (got != want).nnz == 0


class TestSnapshots:
    def test_header_layout(self, tmp_path):
        g = Grid(5, 4)
        path = tmp_path / "snap.bin"
        write_snapshot(str(path), 2.5, [np.zeros((4, 5))])
        raw = path.read_bytes()
        assert raw[:4] == b"TVS1"
        assert int.from_bytes(raw[4:8], "little") == 5
        assert int.from_bytes(raw[8:12], "little") == 4
        assert int.from_bytes(raw[12:16], "little") == 1
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == 2.5
        assert len(raw) == 32 + 8 * 20

    def test_round_trip(self, tmp_path, rng):
        fields = [rng.standard_normal((7, 6)) for _ in range(3)]
        path = str(tmp_path / "s.bin")
        write_snapshot(path, 0.125, fields)
        t, back = read_snapshot(path)
        assert t == 0.125
        for a, b in zip(fields, back):
            assert np.array_equal(a, b)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read snapshot"):
            read_snapshot(str(tmp_path / "absent.bin"))

    def test_shape_mismatch_writes_nothing(self, tmp_path):
        path = tmp_path / "mixed.bin"
        with pytest.raises(ConfigError):
            write_snapshot(str(path), 0.0, [np.zeros((4, 5)), np.zeros((5, 4))])
        assert os.listdir(tmp_path) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(ConfigError):
            read_snapshot(str(path))

    def test_truncated_file_rejected(self, tmp_path, rng):
        path = tmp_path / "cut.bin"
        write_snapshot(str(path), 0.5, [rng.standard_normal((5, 5))])
        path.write_bytes(path.read_bytes()[:32 + 40])
        with pytest.raises(ConfigError) as err:
            read_snapshot(str(path))
        msg = str(err.value)
        assert str(path) in msg and "232" in msg and "72" in msg

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"TVS1" + b"\0" * 8)
        with pytest.raises(ConfigError, match="expected 32 bytes, got 12"):
            read_snapshot(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.bin"
        write_snapshot(str(path), 0.5, [np.zeros((4, 4))])
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigError, match="needs 160 bytes, file has 168"):
            read_snapshot(str(path))
