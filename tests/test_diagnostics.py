import math

import numpy as np
import pytest
from scipy.integrate import quad

from tvsim import tensors as tn
from tvsim.diagnostics import (Diagnostics, WindowSample,
                               log_entropy_inequality, theta_infinity,
                               window_metrics)
from tvsim.errors import ConfigError
from tvsim.grid import Grid
from tvsim.integrator import (CallableForcing, FieldState, Forcing,
                              Integrator, SolverConfig)
from tvsim.materials import ConstantCapacity, M_MIN

E = math.e


def max_eigenvalue(t):
    """Largest eigenvalue of the induced map (operator norm on symmetric A)."""
    return float(np.linalg.eigvalsh(tn.tensor_to_onb_matrix(t)).max())


def make_setup(n=13, b_scale=0.5, dt=0.01, d_diff=1.0):
    g = Grid(n, n)
    tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                C4=tn.isotropic_tensor(1, 1),
                                B=b_scale * np.eye(2))
    model = ConstantCapacity(1.0)
    diag = Diagnostics(g, tens, model, d_diff)
    itg = Integrator(g, tens, model, SolverConfig(dt_max=dt)
                     ).set_diffusivity(d_diff)
    return g, tens, model, diag, itg


def record(diag, itg, st, forcing=None):
    """The record of a state no step produced, around the integrator's ledger."""
    forcing = Forcing() if forcing is None else forcing
    return diag.record(st, itg.ledger(st, forcing.g(st.t, itg.grid)))


def rest_state(g, theta=1.0):
    return FieldState(np.zeros((g.ny, g.nx, 2)), np.zeros((g.ny, g.nx, 2)),
                      np.full((g.ny, g.nx), theta), 0.0)


def relaxation_state(g):
    st = rest_state(g)
    st.v[..., 0] = 0.5 * np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
    st.v[g.boundary_mask] = 0.0
    r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
    st.theta = 1.0 + np.exp(-r2 / (2 * 0.12 ** 2))
    return st


class TestRecord:
    def test_uniform_unit_state(self):
        g, tens, model, diag, itg = make_setup()
        rec = record(diag, itg, rest_state(g, 1.0))
        assert rec.F == pytest.approx(1.0)
        assert rec.thermal == pytest.approx(1.0)
        assert rec.kinetic == 0.0 and rec.elastic == 0.0
        assert rec.S == pytest.approx(0.0, abs=1e-14)
        for name in ("P_diff", "P_visc", "P_src", "L1", "L2", "llogl",
                     "prod_diff_edge"):
            assert getattr(rec, name) == pytest.approx(0.0, abs=1e-13)

    def test_clamped_shear_rate(self):
        # v = (a y, 0) inside, 0 on the boundary as every velocity is: its
        # strain, from the assembled G, is the shear a/2 away from the edges
        g, tens, model, diag, itg = make_setup()
        a = 0.8
        st = rest_state(g, 1.0)
        st.v[1:-1, 1:-1, 0] = a * g.Y[1:-1, 1:-1]
        rec = record(diag, itg, st)
        e = (g.G() @ g._flat(st.v)).reshape(3, g.ny, g.nx)
        assert np.allclose(e[:, 2:-2, 2:-2], np.array([0.0, 0.0, 0.5 * a])[:, None, None],
                           rtol=0.0, atol=1e-14)
        strain_sq = e[0] ** 2 + e[1] ** 2 + 2.0 * e[2] ** 2
        sq = g.integrate(strain_sq)  # theta = 1
        assert rec.P_visc >= tens.kD * sq - 1e-12
        assert rec.P_visc <= max_eigenvalue(tens.D4) * sq + 1e-12
        mag = np.sqrt(strain_sq)
        assert rec.llogl == pytest.approx(g.integrate(mag * np.log(mag + E)), rel=1e-12)

    def test_diffusion_production_refinement(self):
        # theta = 1 + 0.1 cos(pi x): P_diff converges to the 1-d quadrature
        # of D |theta'|^2 / theta^2 at second order
        integrand = lambda x: (0.1 * math.pi * math.sin(math.pi * x)) ** 2 \
            / (1 + 0.1 * math.cos(math.pi * x)) ** 2
        exact, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13)
        errs = []
        for n in (9, 17, 33):
            g = Grid(n, n)
            tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                        C4=tn.isotropic_tensor(1, 1),
                                        B=0.5 * np.eye(2))
            diag = Diagnostics(g, tens, ConstantCapacity(1.0), 1.0)
            itg = Integrator(g, tens, ConstantCapacity(1.0),
                             SolverConfig()).set_diffusivity(1.0)
            st = rest_state(g)
            st.theta = 1.0 + 0.1 * np.cos(np.pi * g.X)
            rec = record(diag, itg, st)
            errs.append(abs(rec.P_diff - exact))
        assert errs[0] / errs[1] >= 3.5
        assert errs[1] / errs[2] >= 3.5

    def test_invariants_along_run(self):
        g, tens, model, diag, itg = make_setup()
        st = relaxation_state(g)
        for _ in range(30):
            st, rep = itg.step(st, Forcing())
            rec = diag.record(st, rep)
            assert rec.F == pytest.approx(rec.kinetic + rec.elastic + rec.thermal)
            for name in ("kinetic", "elastic", "thermal", "S_hat", "P_diff",
                         "P_visc", "P_src", "L1", "L2", "llogl", "lnsq",
                         "prod_diff_edge", "visc_lb"):
                assert getattr(rec, name) >= -1e-13
            assert rec.P_visc >= rec.visc_lb - 1e-12 * (1 + rec.P_visc)

    def test_log_entropy_weight_dominated_by_energy(self):
        # S_hat <= (4/e^2) thermal, from ln(s) <= (2/e) sqrt(s)
        g, tens, model, diag, itg = make_setup()
        st = relaxation_state(g)
        rec = record(diag, itg, st)
        assert rec.S_hat <= (4.0 / E ** 2) * rec.thermal


class TestEnergyBalance:
    def test_zero_state(self):
        g, tens, model, diag, itg = make_setup()
        st = rest_state(g)
        new, rep = itg.step(st, Forcing())
        assert rep.energy_residual == pytest.approx(0.0, abs=1e-14)

    def test_dissipative_along_run(self):
        g, tens, model, diag, itg = make_setup()
        st = relaxation_state(g)
        rec = record(diag, itg, st)
        f0 = rec.F
        for _ in range(200):
            st, rep = itg.step(st, Forcing())
            rec1 = diag.record(st, rep)
            assert rep.energy_residual <= 1e-9 * f0
            # the records carry the same energies the residual was built from
            res = rec1.F - rec.F + rep.eps_dissipation - rep.work_f - rep.work_g
            assert res == pytest.approx(rep.energy_residual, abs=1e-12)
            rec = rec1

    def test_residual_halves_with_dt(self):
        # net identity defect over a fixed horizon scales like dt
        totals = []
        for dt in (0.02, 0.01, 0.005):
            g, tens, model, diag, itg = make_setup(dt=dt)
            st = relaxation_state(g)
            total = 0.0
            while st.t < 0.5 - 1e-12:
                st, rep = itg.step(st, Forcing(), dt_request=0.5 - st.t)
                total += rep.energy_residual
            totals.append(abs(total))
        assert totals[0] / totals[1] == pytest.approx(2.0, rel=0.2)
        assert totals[1] / totals[2] == pytest.approx(2.0, rel=0.2)


class TestEntropyBalance:
    def test_stationary(self):
        g, tens, model, diag, itg = make_setup()
        st = rest_state(g, 2.0)
        new, rep = itg.step(st, Forcing())
        assert rep.entropy_residual == pytest.approx(0.0, abs=1e-13)

    def test_pure_heat_diffusion(self):
        g, tens, model, diag, itg = make_setup(b_scale=0.0)
        st = rest_state(g)
        r2 = (g.X - 0.5) ** 2 + (g.Y - 0.5) ** 2
        st.theta = 1.0 + np.exp(-r2 / (2 * 0.15 ** 2))
        rec = record(diag, itg, st)
        for _ in range(100):
            st, rep = itg.step(st, Forcing())
            rec1 = diag.record(st, rep)
            res = rep.entropy_residual
            assert res >= -1e-8 * (1 + abs(rec1.S))
            assert rec1.S >= rec.S - 1e-12
            rec = rec1

    def test_uniform_source_scalar_reduction(self):
        # uniform theta and uniform g: residual is the chord-vs-endpoint
        # quadrature defect of ell, positive and O(dt^2)
        residuals = []
        for dt in (0.02, 0.01, 0.005):
            g, tens, model, diag, itg = make_setup(dt=dt)
            st = rest_state(g, 1.0)
            forcing = CallableForcing(g_fn=lambda t, gr: np.full((gr.ny, gr.nx), 0.5))
            new, rep = itg.step(st, forcing)
            res = rep.entropy_residual
            # scalar oracle: d_ell = ln(1 + dt g), production = dt g / theta+
            theta_plus = 1.0 + rep.dt * 0.5
            oracle = math.log(theta_plus) - rep.dt * 0.5 / theta_plus
            assert res == pytest.approx(oracle, rel=1e-6)
            residuals.append(res)
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.1)


class TestLogEntropyInequality:
    def test_stationary_without_coupling(self):
        g, tens0, model, diag, itg = make_setup(b_scale=0.0)
        st = rest_state(g, 2.0)
        rec0 = record(diag, itg, st)
        new, rep = itg.step(st, Forcing())
        rec1 = diag.record(new, rep)
        tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                    C4=tn.isotropic_tensor(1, 1),
                                    B=np.zeros((2, 2)))
        rep_d = log_entropy_inequality(rec0, rec1, rep.dt, tens, 1.0, g.area)
        assert rep_d["holds"]
        assert rep_d["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep_d["c1"] == 0.0 and rep_d["c2"] == 0.0

    def test_exchange_free_reduction(self):
        # B = 0: inequality reduces to dS_hat >= dt [D/4 T1 + kD/2 T2] - tol
        g, _, model, _, _ = make_setup(b_scale=0.0)
        tens = tn.ElasticityTensors(D4=tn.isotropic_tensor(1, 1),
                                    C4=tn.isotropic_tensor(1, 1),
                                    B=np.zeros((2, 2)))
        diag = Diagnostics(g, tens, model, 1.0)
        itg = Integrator(g, tens, model, SolverConfig(dt_max=0.01)
                         ).set_diffusivity(1.0)
        st = relaxation_state(g)
        rec = record(diag, itg, st)
        for _ in range(50):
            st, rep = itg.step(st, Forcing())
            rec1 = diag.record(st, rep)
            out = log_entropy_inequality(rec, rec1, rep.dt, tens, 1.0, g.area)
            assert out["holds"]
            assert out["c1"] == 0.0 and out["c2"] == 0.0
            expected_rhs = rep.dt * (0.25 * 1.0 * out["t1"]
                                     + 0.5 * tens.kD * out["t2"])
            assert out["rhs"] == pytest.approx(expected_rhs, rel=1e-12)
            rec = rec1

    def test_default_constants(self):
        g, tens, model, diag, itg = make_setup()
        rec0 = record(diag, itg, relaxation_state(g))
        out = log_entropy_inequality(rec0, rec0, 0.01, tens, 1.0, g.area)
        assert out["c1"] == pytest.approx(4.0 * tens.b_norm ** 2 / 1.0)
        assert out["c2"] == pytest.approx(
            2.0 * M_MIN ** 2 * tens.b_norm ** 2 * g.area / (E ** 2 * tens.kD))

    def test_holds_along_default_run(self):
        g, tens, model, diag, itg = make_setup()
        st = relaxation_state(g)
        rec = record(diag, itg, st)
        for _ in range(100):
            st, rep = itg.step(st, Forcing())
            rec1 = diag.record(st, rep)
            out = log_entropy_inequality(rec, rec1, rep.dt, tens, 1.0, g.area)
            assert out["holds"]
            rec = rec1


class TestLimits:
    def test_constant_trajectory(self):
        g, tens, model, diag, itg = make_setup()
        recs = [record(diag, itg, rest_state(g, 2.0)) for _ in range(12)]
        rep = theta_infinity(recs, model, g.area)
        assert rep.L == pytest.approx(math.log(2.0), rel=1e-10)
        assert rep.theta_inf == pytest.approx(2.0, rel=1e-9)
        assert rep.converged

    def test_energy_budget_cross_check(self):
        g, tens, model, diag, itg = make_setup()
        recs = [record(diag, itg, rest_state(g, 2.0)) for _ in range(12)]
        rep = theta_infinity(recs, model, g.area, energy_budget=1.6)
        # kappa = 1: K(x) = x, so the budget inverse is the budget density
        assert rep.theta_inf_energy == pytest.approx(1.6, rel=1e-10)

    def test_needs_window(self):
        g, tens, model, diag, itg = make_setup()
        recs = [record(diag, itg, rest_state(g, 2.0))] * 5
        with pytest.raises(ConfigError):
            theta_infinity(recs, model, g.area)


class TestWindowMetrics:
    def samples(self, g, theta_value, n=25, v_l1=0.0):
        return [WindowSample(t=1.0 + k / (n - 1.0),
                             theta=np.full((g.ny, g.nx), theta_value),
                             v_l1=v_l1) for k in range(n)]

    def test_constant_at_limit(self):
        g = Grid(8, 8)
        wm = window_metrics(self.samples(g, 2.0), g, 1.0, theta_inf=2.0)
        assert wm.w_theta_half == 0.0 and wm.w_theta_1 == 0.0 and wm.w_ut == 0.0

    def test_constant_offset(self):
        g = Grid(8, 8)
        wm = window_metrics(self.samples(g, 3.0), g, 1.0, theta_inf=2.0)
        assert wm.w_theta_1 == pytest.approx(g.area)
        assert wm.w_theta_half == pytest.approx(g.area)

    def test_coverage_required(self):
        g = Grid(8, 8)
        with pytest.raises(ConfigError):
            window_metrics(self.samples(g, 2.0)[:10], g, 1.0, theta_inf=2.0)

    def test_cadence_required(self):
        g = Grid(8, 8)
        sparse = self.samples(g, 2.0)[::8]
        with pytest.raises(ConfigError):
            window_metrics(sparse, g, 1.0, theta_inf=2.0)


class TestGradientLogIntegrabilityChain:
    def test_chain_along_run(self):
        # the interpolation split bounds the L log L functional by the
        # log-weighted dissipation plus the temperature mass:
        #   llogl <= 8 L2 + 8 e^2 int(theta + e) + int(theta + e^2)
        g, tens, model, diag, itg = make_setup()
        st = relaxation_state(g)
        for k in range(20):
            st, rep = itg.step(st, Forcing())
            rec = diag.record(st, rep)
            bound = (8.0 * rec.L2 + 8.0 * E ** 2 * (rec.theta_l1 + E * g.area)
                     + rec.theta_l1 + E ** 2 * g.area)
            assert rec.llogl <= bound + 1e-10

    def test_pointwise_interpolation_pieces(self, rng):
        # each pointwise inequality in the chain, on random positive data
        for _ in range(200):
            s = float(rng.uniform(0, 50))
            th = float(rng.uniform(0, 50))
            lhs = (s + E) * math.log(s + E)
            mid = (s + E) ** 2 * math.log(th + E ** 2) ** 2 / (th + E ** 2) \
                + (th + E ** 2)
            assert lhs <= mid + 1e-10
            assert math.log(th + E ** 2) ** 2 <= 4.0 * math.log(th + E) ** 2 + 1e-12
            assert math.log(th + E) ** 2 / (th + E) <= th + E + 1e-12