import numpy as np
import pytest
import scipy.sparse as sp

from tvsim.errors import ConfigError, SolverError, StepError
from tvsim.grid import Grid, _sbp_derivative_1d, _trapezoid_1d
from tvsim import integrator
from tvsim.integrator import (_CG_TOL, _CG_TOL_LOOSE, _DT_GROWTH,
                              _PICARD_TOL, CallableForcing, FieldState,
                              Forcing, Integrator, SolverConfig,
                              _anderson_update, _inner_tol)
from tvsim.materials import ConstantCapacity, DebyeLikeCapacity
from tvsim.scenarios import build_scenario, builtin_scenarios
from tvsim import tensors as tn

from conftest import mode_basis, mode_blocks, velocity_system


def make_integrator(n=13, dt=0.01, model=None, tensors=None, d_diff=1.0, **cfg):
    g = Grid(n, n)
    tens = tensors or tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                           C4=tn.isotropic_tensor(1, 1),
                                           B=0.5 * np.eye(2))
    model = model or ConstantCapacity(1.0)
    config = SolverConfig(dt_max=dt, **cfg)
    return Integrator(g, tens, model, config).set_diffusivity(d_diff), g


def rest_state(g, theta=1.0):
    shape = (g.ny, g.nx)
    return FieldState(np.zeros(shape + (2,)), np.zeros(shape + (2,)),
                      np.full(shape, theta), 0.0)


def sine_velocity_state(g, amp=0.5, theta_peak=2.0):
    st = rest_state(g)
    st.v[..., 0] = amp * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
    st.v[g.boundary_mask] = 0.0
    r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
    st.theta = 1.0 + (theta_peak - 1.0) * np.exp(-r2 / (2 * 0.12 ** 2))
    return st


class TestFieldState:
    def test_validation(self, grid):
        st = rest_state(grid)
        st.validate(grid)
        st.v[0, 0, 0] = 1.0
        with pytest.raises(ConfigError):
            st.validate(grid)

    def test_negative_theta_rejected(self, grid):
        st = rest_state(grid)
        st.theta[3, 3] = -0.1
        with pytest.raises(ConfigError):
            st.validate(grid)

    @pytest.mark.parametrize("name", ["u", "v", "theta"])
    def test_non_finite_field_rejected(self, grid, name):
        # theta < 0 is false for NaN, so the sign test alone lets it through
        st = rest_state(grid)
        getattr(st, name)[3, 3] = np.nan
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            st.validate(grid)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolverConfig(dt_min=1.0, dt_max=0.1).validate()
        with pytest.raises(ConfigError):
            SolverConfig(eps_reg=1e-4, m=5).validate()
        # m enters the velocity symbol for every eps_reg, 0 included
        with pytest.raises(ConfigError, match="order m"):
            SolverConfig(eps_reg=0.0, m=0).validate()
        SolverConfig(eps_reg=1e-4, m=3).validate()


class TestVelocityStep:
    def test_rest_with_uniform_temperature_is_equilibrium(self):
        itg, g = make_integrator()
        st = rest_state(g, theta=3.0)
        v_int, _, _ = itg.velocity_step(st, np.zeros((g.ny, g.nx, 2)), 0.01)
        assert np.abs(v_int).max() <= 1e-14

    def test_free_decay_contracts_kinetic_energy(self):
        itg, g = make_integrator()
        st = rest_state(g)
        st.v[..., 0] = np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
        st.v[g.boundary_mask] = 0.0
        v_int, _, _ = itg.velocity_step(st, np.zeros((g.ny, g.nx, 2)), 0.01)
        v_new = g.vec_from_interior(v_int)
        e_old = g.integrate(st.v[..., 0] ** 2 + st.v[..., 1] ** 2)
        e_new = g.integrate(v_new[..., 0] ** 2 + v_new[..., 1] ** 2)
        assert e_new < e_old

    def test_matches_dense_solve(self, rng):
        itg, g = make_integrator(n=8)
        st = rest_state(g)
        st.v[1:-1, 1:-1, :] = rng.standard_normal((g.ny - 2, g.nx - 2, 2))
        st.u[1:-1, 1:-1, :] = 0.1 * rng.standard_normal((g.ny - 2, g.nx - 2, 2))
        st.theta = 1.0 + 0.3 * rng.random((g.ny, g.nx))
        dt = 0.01
        v_int, _, _ = itg.velocity_step(st, np.zeros((g.ny, g.nx, 2)), dt)
        m = velocity_system(itg, dt)
        rhs = (itg.w_int * g.interior_vec(st.v)
               + dt * (-(itg.A_C @ g.interior_vec(st.u))
                       + itg.T_B @ st.theta.ravel()))
        dense = np.linalg.solve(m.toarray(), rhs)
        assert np.abs(v_int - dense).max() <= 1e-9

    def test_shared_sources_keep_the_right_hand_side_bitwise(self, rng):
        # the Picard loop forms -A_C u and W f once per attempt; the solve
        # must still see W v + dt ((-A_C u + T_B theta) + W f) to the bit
        itg, g = make_integrator(n=9)
        st = sine_velocity_state(g)
        st.u[1:-1, 1:-1, :] = 0.1 * rng.standard_normal((g.ny - 2, g.nx - 2, 2))
        f = rng.standard_normal((g.ny, g.nx, 2))
        theta = st.theta.ravel() * (1.0 + 0.1 * rng.random(g.n_nodes))
        dt = 0.01
        w2, v_int = itg.w_int, g.interior_vec(st.v)
        rhs = w2 * v_int + dt * (-(itg.A_C @ g.interior_vec(st.u))
                                 + itg.T_B @ theta + w2 * g.interior_vec(f))
        expected = itg._solve_velocity(dt, rhs, v_int, _CG_TOL)
        sources = itg._velocity_sources(st, f)
        for kwargs in ({}, {"sources": sources}):
            got = itg.velocity_step(st, f, dt, theta_force=theta, **kwargs)
            assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


ANISO = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, -0.4], [0.5, -0.4, 1.0]])


def _aniso_tensors():
    # coercive, with every normal/shear coupling present: the half inverses
    # must carry them in their 2 x 2 component symbols
    return tn.ElasticityTensors(D4=tn.onb_matrix_to_tensor(ANISO),
                                C4=tn.onb_matrix_to_tensor(ANISO[::-1, ::-1]),
                                B=0.5 * np.eye(2))


class TestElasticForm:
    """A_C is applied through Gi, never assembled; it and the elastic energy
    match the assembled form Grid.quadratic_form_matrix(comp_C)."""

    @staticmethod
    def setup_form(aniso, nx, ny, rng):
        g = Grid(nx, ny, Lx=1.3 if nx != ny else 1.0)
        tens = _aniso_tensors() if aniso else tn.ElasticityTensors(
            D4=tn.isotropic_tensor(1, 1), C4=tn.isotropic_tensor(2, 0.5), B=0.5 * np.eye(2))
        itg = Integrator(g, tens, ConstantCapacity(1.0), SolverConfig()).set_diffusivity(1.0)
        a_c = g.quadratic_form_matrix(itg.comp_C)
        # random interior unknowns, 0 in the pad slots
        x = rng.standard_normal(g.interior_dof.size) * (g.interior_dof < 2 * g.n_nodes)
        return itg, g, a_c, x

    @pytest.mark.parametrize("nx, ny", [(8, 8), (13, 9), (32, 32)])
    @pytest.mark.parametrize("aniso", [False, True])
    def test_product_matches_the_assembled_form(self, rng, aniso, nx, ny):
        itg, g, a_c, x = self.setup_form(aniso, nx, ny, rng)
        want = a_c @ x
        got = itg.A_C @ x
        assert not sp.issparse(itg.A_C)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("nx, ny", [(8, 8), (13, 9), (32, 32)])
    @pytest.mark.parametrize("aniso", [False, True])
    def test_energy_is_the_assembled_quadratic_form(self, rng, aniso, nx, ny):
        itg, g, a_c, x = self.setup_form(aniso, nx, ny, rng)
        want = 0.5 * float(x @ (a_c @ x))
        assert abs(itg.A_C.energy(x) - want) <= 1e-14 * abs(want)
        st = rest_state(g)
        st.u = g.vec_from_interior(x)
        assert itg._energies(st)[1] == itg.A_C.energy(x)

    def test_transpose_is_a_view_of_gi(self):
        itg, g = make_integrator(n=9)
        assert itg.A_C.gi is itg.Gi is g._g_interior()
        gi_t = itg.A_C.gi_t
        assert all(np.shares_memory(getattr(gi_t, k), getattr(itg.Gi, k))
                   for k in ("data", "indices", "indptr"))


def _interior_form_1d(n, h):
    d = _sbp_derivative_1d(n, h)
    return (d.T @ sp.diags(_trapezoid_1d(n, h)) @ d).toarray()[1:-1, 1:-1]


class TestSeparablePreconditioners:
    """Each preconditioner is the exact inverse of its separable operator."""

    @staticmethod
    def nonsquare_integrator(tensors=None, d_diff=0.7, nx=13, ny=9):
        g = Grid(nx, ny, Lx=1.3)
        tens = tensors or tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                               C4=tn.isotropic_tensor(2, 0.5),
                                               B=0.5 * np.eye(2))
        itg = Integrator(g, tens, ConstantCapacity(1.0), SolverConfig())
        return itg.set_diffusivity(d_diff), g

    @pytest.mark.parametrize("aniso", [False, True])
    def test_velocity_inverts_kronecker_operator(self, rng, aniso):
        # 11 x 7 interior nodes: both directions have a pad slot
        self.check_velocity_inverse(rng, aniso, 13, 9)

    @pytest.mark.parametrize("nx, ny", [(12, 10), (13, 10)])
    @pytest.mark.parametrize("aniso", [False, True])
    def test_velocity_inverts_kronecker_operator_even_and_mixed(
            self, rng, aniso, nx, ny):
        self.check_velocity_inverse(rng, aniso, nx, ny)

    def check_velocity_inverse(self, rng, aniso, nx, ny):
        itg, g = self.nonsquare_integrator(
            _aniso_tensors() if aniso else None, nx=nx, ny=ny)
        dt = 0.03
        c = dt * itg.comp_D + dt * dt * itg.comp_C
        # the component matrices of the Dx-Dx and the Dy-Dy terms
        a_x = np.array([[c[0, 0], 0.5 * c[0, 2]], [0.5 * c[2, 0], 0.25 * c[2, 2]]])
        a_y = np.array([[0.25 * c[2, 2], 0.5 * c[2, 1]], [0.5 * c[1, 2], c[1, 1]]])
        kx = _interior_form_1d(g.nx, g.hx)
        ky = _interior_form_1d(g.ny, g.hy)
        wx, wy = g.hx * np.eye(g.nx - 2), g.hy * np.eye(g.ny - 2)
        op = (np.kron(np.eye(2), np.kron(wy, wx)) + np.kron(a_x, np.kron(wy, kx))
              + np.kron(a_y, np.kron(ky, wx)))
        # the natural (component-major, row-major) order into the unknowns'
        # order; the pad slots get zero rows
        inner = np.flatnonzero(~g.boundary_mask.ravel())
        natural = np.concatenate([inner, inner + g.n_nodes])
        real = g.interior_dof < 2 * g.n_nodes
        pos = np.searchsorted(natural, g.interior_dof[real])
        assert np.array_equal(np.sort(pos), np.arange(natural.size))
        assert np.array_equal(natural[pos], g.interior_dof[real])
        perm = np.zeros((g.interior_dof.size, natural.size))
        perm[np.flatnonzero(real), pos] = 1.0
        op = perm @ op @ perm.T
        h = op.shape[0] // 2
        # the separable operator keeps each y-parity half, and on each half
        # it is exactly the velocity system's block
        assert not op[:h, h:].any()
        m = velocity_system(itg, dt).toarray()
        both_real = real[:, None] & real[None, :]
        system = itg._velocity_matrix(dt)
        for half, inv in enumerate((system.inv0, system.inv1)):
            # the solver's inverse of the half's block: V L^-1 V^T in the
            # half's modes, with its per-mode 2 x 2 inverse symbol L^-1
            v = mode_basis(g, half)
            pre = v @ mode_blocks(inv) @ v.T
            rows = slice(half * h, (half + 1) * h)
            block, keep = op[rows, rows], both_real[rows, rows]
            assert np.abs(np.where(keep, m[rows, rows] - block, 0.0)).max() \
                <= 1e-14 * np.abs(block).max()
            x = perm[rows] @ rng.standard_normal(natural.size)
            assert np.abs(pre @ (block @ x) - x).max() <= 1e-12 * np.abs(x).max()
            r = perm[rows] @ rng.standard_normal(natural.size)
            z = pre @ r
            assert np.abs(block @ z - r).max() <= 1e-12 * np.abs(r).max()
            assert not z[~real[rows]].any()  # the pad slots stay exactly zero

    def test_heat_inverts_shifted_neumann_operator(self, rng):
        itg, g = self.nonsquare_integrator()
        c_bar = 37.5
        op = (c_bar * sp.diags(itg.w_flat) - itg.D_diff * itg.A_N).toarray()
        pre = itg._heat_preconditioner(c_bar)
        x = rng.standard_normal(g.n_nodes)
        assert np.abs(pre(op @ x) - x).max() <= 1e-12 * np.abs(x).max()
        r = rng.standard_normal(g.n_nodes)
        assert np.abs(op @ pre(r) - r).max() <= 1e-12 * np.abs(r).max()

    @pytest.mark.parametrize("aniso, n, expected", [
        (False, 16, 10), (False, 32, 11), (True, 16, 11), (True, 32, 13)])
    def test_cold_velocity_solves_take_the_recorded_iterations(self, aniso, n,
                                                               expected):
        # the counts of the reduced solve in the unknowns' own coordinates;
        # the mode basis only changes coordinates, so the Krylov process and
        # its counts stay, and a changed count means a changed process
        itg, g = make_integrator(n=n, tensors=_aniso_tensors() if aniso else None)
        rhs = np.random.default_rng(n).standard_normal(g.interior_dof.size) \
            * (g.interior_dof < 2 * g.n_nodes)
        _, iters, _ = itg._solve_velocity(0.01, rhs, np.zeros(rhs.size), 1e-12)
        assert iters == expected

    @pytest.mark.parametrize("aniso", [False, True])
    def test_cold_velocity_solves_do_not_grow_with_refinement(self, aniso):
        # measured: 10-11 (isotropic) and 11-14 (ANISO) iterations at 16^2
        # to 64^2
        counts = []
        for n in (16, 32, 64):
            itg, g = make_integrator(n=n, tensors=_aniso_tensors() if aniso else None)
            m = velocity_system(itg, 0.01)
            # a velocity right-hand side is 0 in the pad slots
            rhs = np.random.default_rng(n).standard_normal(m.shape[0]) \
                * (g.interior_dof < 2 * g.n_nodes)
            x, iters, _ = itg._solve_velocity(0.01, rhs, np.zeros(rhs.size), 1e-12)
            assert np.linalg.norm(m @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
            counts.append(iters)
        assert max(counts) <= 16, counts


class TestDiagPositions:
    def test_points_at_diagonal_entries(self):
        itg, g = make_integrator(n=9)
        a = itg.A_N
        pos = Integrator._diag_positions(a)
        assert np.array_equal(pos, itg._heat_diag_pos)
        assert np.array_equal(a.data[pos], a.diagonal())
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        assert np.array_equal(rows[pos], np.arange(a.shape[0]))
        assert np.array_equal(a.indices[pos], np.arange(a.shape[0]))

    def test_missing_diagonal_entry_raises(self):
        a = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                    [0.0, 1.0, 2.0]]))
        with pytest.raises(RuntimeError, match="misses a diagonal entry"):
            Integrator._diag_positions(a)


class TestDisplacementStep:
    def test_two_half_steps_second_order(self):
        # one dt step vs two dt/2 steps differ at O(dt^2); smooth data keep
        # the excited modes inside the asymptotic regime dt * lambda << 1
        def smooth_state(g):
            st = rest_state(g)
            st.v[..., 0] = 0.3 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
            st.v[g.boundary_mask] = 0.0
            st.theta = 1.0 + 0.2 * np.cos(np.pi * g.X) * np.cos(np.pi * g.Y)
            return st

        gaps = []
        for dt in (0.008, 0.004, 0.002):
            itg, g = make_integrator(n=11, dt=dt)
            one, _ = itg.step(smooth_state(g), Forcing(), dt_request=dt)
            itg2, _ = make_integrator(n=11, dt=dt / 2)
            half = smooth_state(g)
            for _ in range(2):
                half, _ = itg2.step(half, Forcing(), dt_request=dt / 2)
            gaps.append(np.abs(one.u - half.u).max()
                        + np.abs(one.theta - half.theta).max())
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.4)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.4)


class TestTemperatureStep:
    def test_negligible_diffusion_leaves_the_nodal_scalar_formula(self):
        # without diffusion each node takes the scalar backward-Euler update
        # (theta + dt (q + g)) / (1 + dt b) for kappa = 1, with b and q the
        # contractions of the strain of the zero-extended velocity
        itg, g = make_integrator(d_diff=1e-300)
        st = rest_state(g, theta=2.0)
        a = 0.3
        v_int = g.interior_vec(np.stack([a * g.X, a * g.Y], axis=-1))
        g_const = 0.2
        g_field = np.full((g.ny, g.nx), g_const)
        dt = 0.01
        theta_new, _, b, q = itg.temperature_step(st, v_int, g_field, dt)
        strain = g.sym_grad(g.vec_from_interior(v_int)).reshape(-1, 3)
        assert np.allclose(b, itg.coupling_field(strain), rtol=1e-14, atol=0.0)
        assert np.allclose(q, itg.heating_field(strain), rtol=1e-14, atol=0.0)
        # away from the boundary sym_grad = a I: <B, aI> and <D: aI, aI>
        inner = (g.X > 2.5 * g.hx) & (g.X < g.Lx - 2.5 * g.hx) \
            & (g.Y > 2.5 * g.hy) & (g.Y < g.Ly - 2.5 * g.hy)
        assert np.allclose(b[inner.ravel()], a * (0.5 + 0.5))
        assert np.allclose(q[inner.ravel()], 8.0 * a * a)
        expected = (2.0 + dt * (q + g_const)) / (1.0 + dt * b)
        assert np.allclose(theta_new.ravel(), expected, rtol=1e-12)

    def test_pure_diffusion_conserves_weighted_content(self, rng):
        itg, g = make_integrator()
        st = rest_state(g)
        st.theta = 1.0 + rng.random((g.ny, g.nx))
        theta_new, _, _, _ = itg.temperature_step(
            st, g.interior_vec(np.zeros((g.ny, g.nx, 2))), np.zeros((g.ny, g.nx)), 0.01)
        w = g.weights
        kap = itg.model.kappa(st.theta)
        assert np.sum(w * kap * theta_new) == pytest.approx(
            np.sum(w * kap * st.theta), rel=1e-11)

    def test_heating_raises_temperature_pointwise(self):
        itg, g = make_integrator()
        st = rest_state(g, theta=1.5)
        v = np.zeros((g.ny, g.nx, 2))
        v[..., 0] = 0.2 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
        v[g.boundary_mask] = 0.0
        # B = 0 removes the exchange sink, q >= 0 heats
        tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                    C4=tn.isotropic_tensor(1, 1), B=np.zeros((2, 2)))
        itg0, _ = make_integrator(tensors=tens)
        theta_new, _, b, q = itg0.temperature_step(st, g.interior_vec(v),
                                                   np.zeros((g.ny, g.nx)), 0.01)
        assert np.all(b == 0.0)
        assert q.max() > 0
        assert np.all(theta_new >= st.theta - 1e-13)

    def test_guard_violation_raises(self):
        itg, g = make_integrator()
        st = rest_state(g)
        a = -200.0  # b = -200 << -kappa/dt = -100
        v = np.stack([a * g.X, a * g.Y], axis=-1)
        with pytest.raises(StepError):
            itg.temperature_step(st, g.interior_vec(v), np.zeros((g.ny, g.nx)), 0.01)

    def test_repeated_calls_are_bitwise_unchanged(self):
        # each solve refills one work matrix, which shares A_N's structure,
        # with -D A_N plus the diagonal, and leaves A_N as it was
        itg, g = make_integrator(d_diff=0.7)
        st = sine_velocity_state(g)
        v_int, _, _ = itg.velocity_step(st, np.zeros((g.ny, g.nx, 2)), 0.01)
        a_n = itg.A_N.data.copy()
        work = itg._heat_work
        assert np.shares_memory(work.indices, itg.A_N.indices)
        assert np.shares_memory(work.indptr, itg.A_N.indptr)
        kappa_bar = itg.model.kappa_chord(st.theta.ravel(), 1.01 * st.theta.ravel())
        first = itg.temperature_step(st, v_int, np.full((g.ny, g.nx), 0.05), 0.01,
                                     kappa_bar=kappa_bar)
        want = ((-0.7) * itg.A_N).data
        want[itg._heat_diag_pos] += itg.w_flat * (kappa_bar / 0.01 + first[2])
        assert np.array_equal(work.data, want)
        for _ in range(2):
            again = itg.temperature_step(st, v_int, np.full((g.ny, g.nx), 0.05), 0.01,
                                         kappa_bar=kappa_bar)
            assert all(np.array_equal(x, y) for x, y in zip(first, again))
            assert np.array_equal(work.data, want)
        assert np.array_equal(itg.A_N.data, a_n)

    @pytest.mark.parametrize("n", [13, 12])
    def test_interior_velocity_is_bitwise_the_zero_extended_field(self, n):
        # the strain temperature_step forms from the interior unknowns is
        # bitwise that of the zero-extended field, which adaptive_dt reads
        itg, g = make_integrator(n=n, model=DebyeLikeCapacity(1.0, 1.0).floor(1e-3))
        st = sine_velocity_state(g)
        v_int, _, _ = itg.velocity_step(st, np.zeros((g.ny, g.nx, 2)), 0.01)
        kappa_bar = itg.model.kappa_chord(st.theta.ravel(), 1.01 * st.theta.ravel())
        _, _, b, q = itg.temperature_step(st, v_int, np.full((g.ny, g.nx), 0.05),
                                          0.01, kappa_bar=kappa_bar)
        strain = g.sym_grad(g.vec_from_interior(v_int)).reshape(-1, 3)
        assert np.array_equal(b, itg.coupling_field(strain))
        assert np.array_equal(q, itg.heating_field(strain))

    def test_preconditioner_follows_a_new_diffusivity(self, rng):
        itg, g = make_integrator(n=9)
        r = rng.standard_normal(g.n_nodes)
        for d_diff in (1.0, 0.3):
            itg.set_diffusivity(d_diff)
            op = (2.0 * sp.diags(itg.w_flat) - d_diff * itg.A_N).toarray()
            assert np.abs(op @ itg._heat_preconditioner(2.0)(r) - r).max() \
                <= 1e-12 * np.abs(r).max()


def clamped(g, vx, vy):
    """The velocity (vx, vy) inside and 0 on the boundary, as every velocity
    of a run is."""
    v = np.zeros((g.ny, g.nx, 2))
    v[1:-1, 1:-1, 0] = vx[1:-1, 1:-1]
    v[1:-1, 1:-1, 1] = vy[1:-1, 1:-1]
    return v


class TestAdaptiveDt:
    def test_unconstrained_when_no_cooling(self, rng):
        # b = 0 everywhere: at rest, and at any velocity without coupling
        itg, g = make_integrator()
        st = rest_state(g)
        assert itg.adaptive_dt(st, np.zeros((g.ny, g.nx, 2))) == itg.config.dt_max
        uncoupled = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                         C4=tn.isotropic_tensor(1, 1),
                                         B=np.zeros((2, 2)))
        itg, g = make_integrator(tensors=uncoupled)
        v = clamped(g, *rng.standard_normal((2, g.ny, g.nx)))
        assert itg.adaptive_dt(st, v) == itg.config.dt_max

    def test_guard_formula(self):
        # kappa = 1 and safety 0.5, so dt = 0.5 / max(-b).  v = (-10 x, 0)
        # inside has sym_grad = diag(-10, 0) and b = -5 at every interior
        # node off the x = Lx edge; its jump to 0 there gives b > 0, which
        # the guard ignores
        itg, g = make_integrator(dt=10.0, dt_min=1e-9)
        st = rest_state(g)
        v = clamped(g, -10.0 * g.X, 0.0 * g.Y)
        b = itg.coupling_field(g.sym_grad(v))
        assert b[1:-1, :-2] == pytest.approx(np.full((g.ny - 2, g.nx - 2), -5.0))
        assert b.min() == pytest.approx(-5.0)
        assert itg.adaptive_dt(st, v) == pytest.approx(0.1)
        # v = (-10 x, -10 y): b = -10 off the x = Lx and y = Ly edges
        v2 = clamped(g, -10.0 * g.X, -10.0 * g.Y)
        b2 = itg.coupling_field(g.sym_grad(v2))
        assert b2[1:-2, 1:-2] == pytest.approx(np.full((g.ny - 3, g.nx - 3), -10.0))
        assert b2.min() == pytest.approx(-10.0)
        assert itg.adaptive_dt(st, v2) == pytest.approx(0.05)

    def test_below_dt_min_reports_node(self):
        # the guard needs dt = 0.05 < dt_min, at a node where b = -10
        itg, g = make_integrator(dt=1.0, dt_min=0.5)
        st = rest_state(g)
        v = clamped(g, -10.0 * g.X, -10.0 * g.Y)
        with pytest.raises(StepError) as err:
            itg.adaptive_dt(st, v)
        b = itg.coupling_field(g.sym_grad(v))
        assert b.ravel()[err.value.node] == pytest.approx(-10.0)

    def test_guard_implies_diagonal_positivity(self, rng):
        itg, g = make_integrator(dt=1e9 if False else 10.0, dt_min=1e-12)
        for _ in range(10):
            st = rest_state(g)
            st.theta = 0.1 + rng.random((g.ny, g.nx))
            v = np.zeros((g.ny, g.nx, 2))
            v[1:-1, 1:-1, :] = rng.standard_normal((g.ny - 2, g.nx - 2, 2))
            dt = itg.adaptive_dt(st, v)
            strain = g.sym_grad(v)
            b = itg.coupling_field(strain)
            kap = itg.model.kappa(st.theta)
            assert np.all(kap / dt + b > 0)


class CountingForcing(CallableForcing):
    """Records the times at which f and g are evaluated."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.f_times, self.g_times = [], []

    def f(self, t, grid):
        self.f_times.append(t)
        return super().f(t, grid)

    def g(self, t, grid):
        self.g_times.append(t)
        return super().g(t, grid)


def _rejecting_setup():
    # strong thermal forcing at a large trial dt violates the diagonal
    # guard mid-iteration; the step halves dt and leaves the input alone
    g = Grid(13, 13)
    tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                C4=tn.isotropic_tensor(1, 1),
                                B=3.0 * np.eye(2))
    cfg = SolverConfig(dt_max=0.5, dt_min=1e-9)
    itg = Integrator(g, tens, ConstantCapacity(0.05), cfg).set_diffusivity(1.0)
    theta = 1.0 + 30.0 * np.exp(-((g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2)
                                / (2 * 0.15 ** 2))
    st = FieldState(np.zeros((13, 13, 2)), np.zeros((13, 13, 2)), theta, 0.0)
    return itg, g, st


class TestFullStep:
    def test_stationary_point(self):
        itg, g = make_integrator()
        st = rest_state(g, theta=2.5)
        new, rep = itg.step(st, Forcing())
        assert np.abs(new.u).max() == 0.0
        assert np.abs(new.v).max() <= 1e-15
        assert np.abs(new.theta - 2.5).max() <= 1e-12
        assert new.t == pytest.approx(0.01)

    def test_energy_dissipation_over_200_steps(self):
        itg, g = make_integrator(n=13)
        st = sine_velocity_state(g)
        f0 = itg.total_energy(st)
        for _ in range(200):
            new, rep = itg.step(st, Forcing())
            assert np.array_equal(new.u, st.u + rep.dt * new.v)  # u+ = u + dt v+
            st = new
            assert rep.energy_residual <= 1e-9 * f0
            assert rep.S >= rep.S_old - 1e-8 * (1 + abs(rep.S_old))
            assert rep.entropy_residual >= -1e-8 * (1 + abs(rep.S))
            assert rep.min_theta > 0
            assert abs(rep.exchange_sum) <= 1e-12
        assert itg.total_energy(st) < f0

    def test_trajectory_first_order_in_dt(self):
        # state at T = 0.5 for dt vs dt/2: difference scales like dt
        diffs = []
        for dt in (0.02, 0.01, 0.005):
            itg, g = make_integrator(n=17, dt=dt)
            st = sine_velocity_state(g)
            while st.t < 0.5 - 1e-12:
                st, _ = itg.step(st, Forcing(), dt_request=0.5 - st.t)
            diffs.append(st)
        d1 = np.abs(diffs[0].theta - diffs[1].theta).max()
        d2 = np.abs(diffs[1].theta - diffs[2].theta).max()
        assert d1 / d2 == pytest.approx(2.0, rel=0.35)

    def test_positivity_with_degenerate_law_and_zero_cells(self):
        model = DebyeLikeCapacity(1.0, 1.0).floor(1e-3)
        itg, g = make_integrator(model=model)
        st = rest_state(g)
        r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
        bump = np.exp(-r2 / (2 * 0.18 ** 2))
        st.theta = 2.0 * (np.maximum(bump - 0.4, 0.0) / 0.6) ** 2
        st.u[..., 0] = 0.2 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
        st.u[g.boundary_mask] = 0.0
        assert st.theta.min() == 0.0
        for _ in range(50):
            st, rep = itg.step(st, Forcing())
            assert rep.min_theta > 0.0

    def test_high_order_regularization_dissipates(self):
        itg, g = make_integrator(eps_reg=1e-4, m=1)
        st = sine_velocity_state(g)
        total = 0.0
        f0 = itg.total_energy(st)
        for _ in range(20):
            st, rep = itg.step(st, Forcing())
            total += rep.eps_dissipation
            assert rep.energy_residual <= 1e-9 * f0
        assert total > 0.0

    def test_regularization_order_two_runs(self):
        itg, g = make_integrator(eps_reg=1e-6, m=2)
        st = sine_velocity_state(g)
        st, rep = itg.step(st, Forcing())
        assert rep.eps_dissipation > 0.0

    def test_order_three_regularization_takes_the_full_first_step(self):
        # the regularizer's largest mode is about 5e9 times W here; the
        # modes carry it exactly, so the first step keeps dt_max
        cfg = builtin_scenarios()["default-relaxation"]
        cfg["solver"].update(eps_reg=1e-8, m=3)
        sc = build_scenario(cfg)
        itg = Integrator(sc.grid, sc.tensors, sc.model,
                         sc.solver).set_diffusivity(sc.d_diff)
        _, rep = itg.step(sc.initial, sc.forcing)
        assert rep.dt == 0.01 and rep.rejections == 0
        assert rep.energy_residual <= 1e-9 * rep.F_old

    def test_structure_breaking_solver_keys_refused(self):
        # a single pass (thermal force != new temperature) or a frozen
        # kappa_bar would break the exact energy identity; neither is a key
        for key, value in (("single_pass", True), ("kappa_secant", False)):
            cfg = builtin_scenarios()["default-relaxation"]
            cfg["solver"][key] = value
            with pytest.raises(ConfigError, match="unknown solver keys"):
                build_scenario(cfg)

    def test_work_accounting_with_sources(self):
        itg, g = make_integrator()
        st = sine_velocity_state(g)
        forcing = CallableForcing(
            f_fn=lambda t, gr: np.stack([0.1 * np.sin(np.pi * gr.X) * np.sin(np.pi * gr.Y),
                                         np.zeros_like(gr.X)], axis=-1),
            g_fn=lambda t, gr: np.full((gr.ny, gr.nx), 0.05))
        f0 = itg.total_energy(st)
        for _ in range(50):
            st, rep = itg.step(st, forcing)
            assert rep.energy_residual <= 1e-9 * f0
            assert rep.work_g == pytest.approx(rep.dt * 0.05, rel=1e-12)

    def test_rejected_steps_halve_dt_without_mutating_state(self):
        itg, g, st = _rejecting_setup()
        theta_before = st.theta.copy()
        new, rep = itg.step(st, Forcing())
        assert rep.rejections >= 1
        assert rep.rejections == len(rep.rejection_reasons)
        assert all(r.startswith("temperature diagonal guard failed (")
                   for r in rep.rejection_reasons)
        assert rep.dt < 0.5
        assert rep.min_theta > 0
        assert np.array_equal(st.theta, theta_before) and st.t == 0.0

    def test_non_finite_temperature_is_rejected(self, monkeypatch):
        # a NaN theta+ is rejected, and named as not finite, not as a sign loss
        itg, g = make_integrator()
        picard = itg._picard
        node = 3 * g.nx + 4

        def nan_once(*args):
            theta, *rest = picard(*args)
            if not calls:  # the first attempt only
                calls.append(node)
                theta = theta.copy()
                theta.flat[node] = np.nan
            return (theta, *rest)
        calls = []
        monkeypatch.setattr(itg, "_picard", nan_once)
        new, rep = itg.step(sine_velocity_state(g), Forcing())
        assert rep.rejection_reasons == (f"temperature not finite at node {node}",)
        assert rep.dt == 0.005 and np.isfinite(new.theta).all()

    def test_wasted_iterations_are_those_of_the_rejected_attempts(self,
                                                                 monkeypatch):
        itg, g, st = _rejecting_setup()
        attempts = []
        attempt = itg._attempt

        def logged(state, forcing, dt, last, spent):
            try:
                return attempt(state, forcing, dt, last, spent)
            finally:
                attempts.append(list(spent))
        monkeypatch.setattr(itg, "_attempt", logged)
        _, rep = itg.step(st, Forcing())
        *rejected, accepted = attempts
        assert len(rejected) == rep.rejections >= 1
        assert accepted == [rep.picard_iters, rep.cg_iters_velocity,
                            rep.cg_iters_heat]
        assert [rep.wasted_picard, rep.wasted_cg_velocity,
                rep.wasted_cg_heat] == [sum(col) for col in zip(*rejected)]
        assert rep.wasted_picard >= rep.rejections
        assert rep.wasted_cg_velocity > 0

    def test_stalled_solve_counts_its_iterations(self):
        def stalls():
            raise SolverError("stalled", iterations=7)
        spent = [0, 0, 0]
        with pytest.raises(SolverError):
            Integrator._counted(spent, 2, stalls)
        assert spent == [0, 0, 7]

    def test_sources_evaluated_once_per_accepted_step(self):
        itg, g = make_integrator()
        st = sine_velocity_state(g)
        forcing = CountingForcing(g_fn=lambda t, gr: np.full((gr.ny, gr.nx), 0.05))
        for _ in range(5):
            t_old = st.t
            st, rep = itg.step(st, forcing)
            assert rep.rejections == 0 and rep.picard_iters > 1
            assert forcing.f_times[-1] == forcing.g_times[-1] == t_old + rep.dt
        assert len(forcing.f_times) == len(forcing.g_times) == 5

    def test_sources_evaluated_once_per_step_attempt(self):
        itg, g, st = _rejecting_setup()
        forcing = CountingForcing()
        _, rep = itg.step(st, forcing)
        assert rep.rejections >= 1
        assert len(forcing.f_times) == len(forcing.g_times) == 1 + rep.rejections
        # each retry halves dt, and the sources follow the attempt's end time
        assert forcing.g_times == [rep.dt * 2.0 ** k
                                   for k in range(rep.rejections, -1, -1)]

    def test_velocity_system_symmetric_positive_definite(self):
        # CG runs on the reduced system S of W + dt A_D + dt eps R + dt^2 A_C;
        # both must be SPD
        itg, g = make_integrator(n=8, eps_reg=1e-5, m=2)
        m = velocity_system(itg, 0.01)
        assert abs(m - m.T).max() <= 1e-14
        assert np.linalg.eigvalsh(m.toarray()).min() > 0
        system = itg._velocity_matrix(0.01)
        s = np.column_stack([system @ e for e in np.eye(system.shape[1])])
        assert np.abs(s - s.T).max() <= 1e-14 * np.abs(s).max()
        assert np.linalg.eigvalsh(s).min() > 0

    def test_energy_residual_equals_numerical_dissipation(self):
        # the balance residual is exactly the two quadratic defect terms
        itg, g = make_integrator(n=11)
        st = sine_velocity_state(g)
        for _ in range(5):
            v_old = st.v.copy()
            st, rep = itg.step(st, Forcing())
            dv = st.v - v_old
            dv_norm = g.integrate(dv[..., 0] ** 2 + dv[..., 1] ** 2)
            v_int = g.interior_vec(st.v)
            elastic_defect = rep.dt ** 2 * float(v_int @ (itg.A_C @ v_int))
            expected = -0.5 * dv_norm - 0.5 * elastic_defect
            assert rep.energy_residual == pytest.approx(expected, abs=1e-11)

    def test_non_square_grid_keeps_structure(self):
        # anisotropic grid and domain guard against index-order mistakes
        g = Grid(14, 10, Lx=2.0, Ly=1.0)
        tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                    C4=tn.isotropic_tensor(1, 1),
                                    B=0.5 * np.eye(2))
        itg = Integrator(g, tens, ConstantCapacity(1.0),
                         SolverConfig(dt_max=0.01)).set_diffusivity(1.0)
        st = rest_state(g)
        st.v[..., 0] = 0.4 * np.sin(np.pi * g.X / g.Lx) * np.sin(np.pi * g.Y / g.Ly)
        st.v[g.boundary_mask] = 0.0
        st.theta = 1.0 + 0.5 * np.cos(np.pi * g.X / g.Lx) * np.cos(np.pi * g.Y / g.Ly)
        f0 = itg.total_energy(st)
        for _ in range(30):
            st, rep = itg.step(st, Forcing())
            assert rep.energy_residual <= 1e-9 * f0
            assert rep.entropy_residual >= -1e-10 * (1 + abs(rep.S))
            assert abs(rep.exchange_sum) <= 1e-12
            assert rep.min_theta > 0

    def test_requires_diffusivity(self):
        g = Grid(8, 8)
        tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                    C4=tn.isotropic_tensor(1, 1), B=np.eye(2))
        itg = Integrator(g, tens, ConstantCapacity(1.0), SolverConfig())
        with pytest.raises(ConfigError):
            itg.step(rest_state(g), Forcing())


def _apply_fixed_point_map(itg, old, theta, dt):
    """G(theta): velocity solve forced by theta, then the heat solve with the
    chord of kappa over [theta_old, theta]."""
    g = itg.grid
    v_int, _, _ = itg.velocity_step(old, np.zeros((g.ny, g.nx, 2)), dt,
                                 theta_force=theta)
    kappa_bar = itg.model.kappa_chord(old.theta.ravel(), theta.ravel())
    theta_g, _, _, _ = itg.temperature_step(old, v_int, np.zeros((g.ny, g.nx)),
                                            dt, kappa_bar=kappa_bar)
    return theta_g


class TestPicardFixedPoint:
    def test_anderson_solves_linear_map_in_few_iterations(self, rng):
        # G(x) = A x + c with contraction 0.98: plain iteration needs ~1300
        # steps to 1e-12; depth-2 mixing is GMRES(2)-like on a 2-D system
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        a = q @ np.diag([0.98, -0.5]) @ q.T
        c = np.array([3.0, 2.0])
        fixed = np.linalg.solve(np.eye(2) - a, c)
        x = np.array([1.0, 1.0])
        g_hist, f_hist = [], []
        for it in range(1, 20):
            gx = a @ x + c
            if np.abs(gx - x).max() <= 1e-12 * (1 + np.abs(gx).max()):
                break
            x = _anderson_update(g_hist, f_hist, gx, gx - x)
            assert len(f_hist) <= 3
        assert it <= 6
        assert np.allclose(gx, fixed, rtol=0, atol=1e-10)

    def test_nonpositive_mix_falls_back_to_plain_update(self):
        g_hist = [np.array([1.0, 1.0])]
        f_hist = [np.array([1.0, 0.0])]
        g_new, f_new = np.array([0.1, 1.0]), np.array([0.5, 0.0])
        # the least-squares fit extrapolates g to -0.8 in the first entry
        x = _anderson_update(g_hist, f_hist, g_new, f_new)
        assert x is g_new

    @pytest.mark.parametrize("law", ["relaxation", "floored-debye"])
    def test_accepted_step_is_a_fixed_point(self, law):
        if law == "relaxation":
            itg, g = make_integrator(n=13)
            old = sine_velocity_state(g)
        else:
            itg, g = make_integrator(
                n=13, model=DebyeLikeCapacity(1.0, 1.0).floor(1e-3))
            old = rest_state(g)
            r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
            bump = np.exp(-r2 / (2 * 0.18 ** 2))
            old.theta = 2.0 * (np.maximum(bump - 0.4, 0.0) / 0.6) ** 2
            old.u[..., 0] = 0.2 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
            old.u[g.boundary_mask] = 0.0
        for _ in range(3):
            new, rep = itg.step(old, Forcing())
            assert rep.picard_iters > 1
            theta = new.theta
            gap = np.abs(_apply_fixed_point_map(itg, old, theta, rep.dt)
                         - theta).max()
            assert gap <= 10 * _PICARD_TOL * (1 + np.abs(theta).max())
            old = new

    def test_inner_tolerance_forecast(self):
        scale = 3.0
        stop = _PICARD_TOL * scale
        # two more iterations forecast: loose, in proportion to the change
        assert _inner_tol(0.01, 1e-4, scale) == _CG_TOL_LOOSE * 1e-4 / scale
        assert _inner_tol(0.01, 1e3, scale) == _CG_TOL_LOOSE
        # a slow contraction, or one that may stop within two, stays tight
        assert _inner_tol(0.1, 1.0, scale) == _CG_TOL
        assert _inner_tol(1e-5, 1e-2, scale) == _CG_TOL
        assert _inner_tol(0.01, 0.9e5 * stop, scale) == _CG_TOL
        assert _inner_tol(0.01, 1.1e5 * stop, scale) > _CG_TOL

    @pytest.mark.parametrize("name, steps", [("default-relaxation", 6),
                                             ("debye-hotspot", 4)])
    def test_accepted_attempts_end_on_tight_solves(self, monkeypatch, name,
                                                   steps):
        sc = build_scenario(builtin_scenarios()[name])
        itg = Integrator(sc.grid, sc.tensors, sc.model,
                         sc.solver).set_diffusivity(sc.d_diff)
        tols, accepted = [], []
        solve_spd = integrator.solve_spd

        def spy(a, rhs, tol, **kwargs):
            tols.append(tol)
            return solve_spd(a, rhs, tol=tol, **kwargs)
        attempt = itg._attempt

        def attempt_spy(*args):
            tols.clear()
            out = attempt(*args)  # a rejected attempt raises past the append
            accepted.append((list(tols), out[1].picard_iters))
            return out
        monkeypatch.setattr(integrator, "solve_spd", spy)
        monkeypatch.setattr(itg, "_attempt", attempt_spy)
        st = sc.initial
        for _ in range(steps):
            st, _ = itg.step(st, sc.forcing)
        assert len(accepted) == steps
        assert any(t > _CG_TOL for solves, _ in accepted for t in solves)
        for solves, picard in accepted:
            # one velocity and one heat solve per Picard iteration
            assert len(solves) == 2 * picard
            assert solves[-2:] == [_CG_TOL, _CG_TOL]

    def test_debye_hotspot_first_step_needs_one_rejection(self):
        # plain Picard iteration stalls at dt = 5e-3 ... 7.8e-5 here and needs
        # 8 rejections; with mixing only the diagonal guard at dt = 0.01 binds
        sc = build_scenario(builtin_scenarios()["debye-hotspot"])
        assert (sc.grid.nx, sc.grid.ny) == (32, 32)
        itg = Integrator(sc.grid, sc.tensors, sc.model,
                         sc.solver).set_diffusivity(sc.d_diff)
        _, rep = itg.step(sc.initial, sc.forcing)
        assert rep.rejections <= 1
        assert all(r.startswith("temperature diagonal guard failed")
                   for r in rep.rejection_reasons)
        assert rep.min_theta > 0.0

    def test_debye_hotspot_primitives_stay_closed_form(self):
        # the integrated (floored Debye) law has closed-form K and ell, so
        # no quadrature ladder may be built behind them
        sc = build_scenario(builtin_scenarios()["debye-hotspot"])
        itg = Integrator(sc.grid, sc.tensors, sc.model,
                         sc.solver).set_diffusivity(sc.d_diff)
        state = sc.initial
        for _ in range(10):
            state, _ = itg.step(state, sc.forcing)
        caches = itg.model._caches
        assert ("K", "joined") in caches and ("ell", "joined") in caches
        assert "K" not in caches and "ell" not in caches


def _predictor_spy(itg, monkeypatch):
    """Record what each attempt of itg gets from its predictor."""
    starts = []
    predictor = itg._predictor

    def spy(state, dt, last):
        out = predictor(state, dt, last)
        starts.append(out)
        return out
    monkeypatch.setattr(itg, "_predictor", spy)
    return starts


class TestCarriedStep:
    def test_equal_state_continues_the_step(self, monkeypatch):
        # equal values in other arrays continue the step as the same arrays do
        a, g = make_integrator()
        b, _ = make_integrator()
        st_a, rep0 = a.step(sine_velocity_state(g), Forcing())
        st_b, _ = b.step(sine_velocity_state(g), Forcing())
        starts = _predictor_spy(b, monkeypatch)
        new_a, rep_a = a.step(st_a, Forcing())
        new_b, rep_b = b.step(st_b.copy(), Forcing())
        assert starts and starts[0] is not None
        assert repr(vars(rep_a)) == repr(vars(rep_b))
        for name in ("u", "v", "theta"):
            assert np.array_equal(getattr(new_a, name), getattr(new_b, name))
        assert rep_a.F_old == rep0.F and rep_a.S_old == rep0.S

    def test_edited_state_is_evaluated_afresh(self, monkeypatch):
        itg, g = make_integrator()
        st, _ = itg.step(sine_velocity_state(g), Forcing())
        st.theta[5, 5] += 0.1  # in place, in the array the step returned
        fresh, _ = make_integrator()
        # the dt that itg grows to; fresh, with no last step, is handed it
        dt = min(itg.config.dt_max, itg.last_step.dt * _DT_GROWTH)
        starts = _predictor_spy(itg, monkeypatch)
        new, rep = itg.step(st, Forcing())
        assert starts == [None]
        assert rep.F_old == itg.total_energy(st)
        assert rep.S_old == itg.entropy(st)
        # exactly the step a fresh integrator takes from the edited state
        assert fresh.last_step is None
        new_f, rep_f = fresh.step(st, Forcing(), dt_request=dt)
        assert repr(vars(rep)) == repr(vars(rep_f))
        assert np.array_equal(new.theta, new_f.theta)

    def test_K_of_the_start_state_is_not_evaluated_again(self, monkeypatch):
        itg, g = make_integrator(model=DebyeLikeCapacity(1.0, 1.0).floor(1e-3))
        st, _ = itg.step(sine_velocity_state(g), Forcing())
        calls = []
        model_K = itg.model.K

        def counting_K(xi):
            calls.append(np.array_equal(np.ravel(xi), st.theta.ravel()))
            return model_K(xi)
        monkeypatch.setattr(itg.model, "K", counting_K)
        _, rep = itg.step(st, Forcing())
        assert rep.picard_iters > 1 and len(calls) >= rep.picard_iters
        assert not any(calls)
        # a fresh integrator: K(theta_old) once for every chord, once for F_old
        fresh, _ = make_integrator(model=itg.model)
        calls.clear()
        _, rep = fresh.step(st, Forcing())
        assert rep.rejections == 0 and rep.picard_iters > 2 and sum(calls) == 2

    def test_predictor_gated_near_equilibrium(self, monkeypatch):
        # a uniform state at rest does not move: no extrapolation of noise
        itg, g = make_integrator()
        st, _ = itg.step(rest_state(g, theta=1.5), Forcing())
        starts = _predictor_spy(itg, monkeypatch)
        itg.step(st, Forcing())
        assert starts == [None]

    def test_default_relaxation_prefix_needs_fewer_picard_iterations(self):
        # 3.95 Picard iterations per step when every step started at theta_old;
        # 3.7 Picard and 45.05 CG-velocity iterations per step at 32^2 with
        # the predictor, 36.3 CG-velocity iterations with loose solves where
        # the loop forecasts two more iterations, 18.95 with the solve
        # reduced to one y-parity half: a wrong preconditioner symbol, mode
        # block or tolerance forecast that still converges shows up as extra
        # iterations
        sc = build_scenario(builtin_scenarios()["default-relaxation"])
        assert (sc.grid.nx, sc.grid.ny) == (32, 32)
        itg = Integrator(sc.grid, sc.tensors, sc.model,
                         sc.solver).set_diffusivity(sc.d_diff)
        st, total, cg_velocity = sc.initial, 0, 0
        for _ in range(20):
            st, rep = itg.step(st, sc.forcing)
            total += rep.picard_iters
            cg_velocity += rep.cg_iters_velocity
        assert total / 20 < 3.95
        assert total <= 74 and cg_velocity <= 400
