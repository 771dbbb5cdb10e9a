"""Acceptance criteria, one test per criterion, desk scale (32x32, T <= 50).

Each test prints one PASS line with the measured quantities; a failing
criterion fails its test.  The long default-relaxation trajectory is shared
by the energy, entropy, positivity and stabilization criteria.
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from tvsim import runner
from tvsim import tensors as tn
from tvsim.grid import Grid
from tvsim.integrator import Forcing, Integrator
from tvsim.materials import ConstantCapacity, M_MIN, PowerGrowthCapacity, TabulatedCapacity
from tvsim.scenarios import build_scenario, builtin_scenarios
from conftest import boundary_vanishing_field, random_sym2, random_sym_tensor

E = math.e


def _report(num, message):
    print(f"\nACCEPTANCE criterion-{num:02d} PASS: {message}")


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    cfg = builtin_scenarios()["default-relaxation"]
    out = tmp_path_factory.mktemp("default_relaxation")
    t0 = time.time()
    manifest = runner.run(cfg, str(out))
    manifest["_runtime_s"] = time.time() - t0
    manifest["_outdir"] = str(out)
    return manifest


@pytest.fixture(scope="module")
def builtin_runs(tmp_path_factory, default_run):
    manifests = {"default-relaxation": default_run}
    for name in ("pure-heat", "debye-hotspot", "trivial-zero", "pulsed-forcing",
                 "slow-decay-relaxation"):
        out = tmp_path_factory.mktemp(name.replace("-", "_"))
        manifests[name] = runner.run(builtin_scenarios()[name], str(out))
    return manifests


class TestCriterion01EnergyLaw:
    def test_energy_monotone_and_dissipative(self, default_run):
        man = default_run
        assert man["violations"]["energy"] == 0
        drop = man["run"]["F0"] - man["run"]["F_final"]
        assert drop > 0.0
        assert man["_runtime_s"] <= 300.0
        _report(1, f"energy nonincreasing each of {man['run']['steps']} steps "
                   f"(tol 1e-9 F0); total drop {drop:.3e} > 0; "
                   f"runtime {man['_runtime_s']:.0f}s <= 300s")


class TestCriterion02EnergyRefinement:
    def test_identity_residual_halves_with_dt(self):
        totals = []
        for dt in (0.02, 0.01, 0.005):
            cfg = copy.deepcopy(builtin_scenarios()["default-relaxation"])
            cfg["grid"] = {"nx": 16, "ny": 16}
            cfg["t_final"] = 1.0
            cfg["solver"]["dt_max"] = dt
            scenario = build_scenario(cfg)
            integ = Integrator(scenario.grid, scenario.tensors, scenario.model,
                               scenario.solver).set_diffusivity(scenario.d_diff)
            state = scenario.initial
            total = 0.0
            while state.t < 1.0 - 1e-12:
                state, rep = integ.step(state, Forcing(),
                                        dt_request=1.0 - state.t)
                total += rep.energy_residual
            totals.append(abs(total))
        r1 = totals[0] / totals[1]
        r2 = totals[1] / totals[2]
        assert 1.6 <= r1 <= 2.4
        assert 1.6 <= r2 <= 2.4
        _report(2, f"energy-identity residual ratios under dt halving: "
                   f"{r1:.2f}, {r2:.2f} (required 2 +/- 0.4)")


class TestCriterion03EntropyLaw:
    def test_entropy_nondecreasing(self, builtin_runs):
        for name in ("default-relaxation", "pure-heat"):
            man = builtin_runs[name]
            assert man["violations"]["entropy_monotone"] == 0, name
            assert man["violations"]["entropy_balance"] == 0, name
        _report(3, "entropy sum nondecreasing at every step (slack 1e-8 "
                   "relative) on default-relaxation and pure-heat")


class TestCriterion04LogEntropyInequality:
    def test_holds_every_step(self, default_run):
        assert default_run["violations"]["log_entropy"] == 0
        _report(4, f"log-weighted entropy inequality with c1 = 4|B|^2/D, "
                   f"c2 = 2 M^2 |B|^2 |Omega| / (e^2 kD), M = e^4 held at all "
                   f"{default_run['run']['steps']} steps; violations 0")


class TestCriterion05Positivity:
    def test_all_builtin_scenarios(self, builtin_runs):
        mins = {}
        for name, man in builtin_runs.items():
            assert man["run"]["min_theta"] > 0.0, name
            mins[name] = man["run"]["min_theta"]
        assert "debye-hotspot" in mins
        _report(5, "min theta > 0 at every accepted step; per scenario: "
                + ", ".join(f"{k}={v:.3e}" for k, v in sorted(mins.items())))


class TestCriterion06Stabilization:
    def test_large_time_limits(self, default_run):
        man = default_run
        wins = {w["t0"]: w for w in man["windows"]}
        w1, w49 = wins[1.0], wins[49.0]
        assert w49["w_ut"] <= 0.01 * w1["w_ut"]
        stab = man["stabilization"]
        assert stab["u_norm_final"] <= 0.05 * stab["u_norm_max"]
        assert stab["theta_final_l1_dist"] <= 0.02 * stab["theta_initial_deviation"]
        lim = man["limits"]
        gap = abs(lim["theta_inf"] - lim["theta_inf_energy"])
        assert gap <= 0.01 * lim["theta_inf_energy"]
        assert lim["converged"]
        _report(6, f"W_ut(49)/W_ut(1) = {w49['w_ut'] / w1['w_ut']:.2e} <= 0.01; "
                   f"|u(50)|/max|u| = {stab['u_norm_final'] / stab['u_norm_max']:.2e} "
                   f"<= 0.05; theta L1 distance ratio = "
                   f"{stab['theta_final_l1_dist'] / stab['theta_initial_deviation']:.2e}"
                   f" <= 0.02; |theta_inf - theta_budget| / theta_budget = "
                   f"{gap / lim['theta_inf_energy']:.2e} <= 0.01")


class TestWindowDecayProfile:
    def test_velocity_window_monotone_after_transient(self, default_run):
        # past the transient the unit-window velocity mass decreases in t
        import csv
        with open(f"{default_run['_outdir']}/diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        times = np.array([float(r["t"]) for r in rows])
        v_l1 = np.array([float(r["v_l1"]) for r in rows])

        def w_ut(t0):
            mask = (times >= t0) & (times <= t0 + 1.0)
            return float(np.trapezoid(v_l1[mask], times[mask]))

        vals = [w_ut(t0) for t0 in np.arange(5.0, 48.0, 1.0)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


class TestCriterion07DiscreteStructure:
    def test_identities(self, rng):
        g = Grid(32, 32)
        worst_adj = 0.0
        worst_exch = 0.0
        b = np.array([0.5, 0.5, 0.3])
        for _ in range(50):
            a = rng.standard_normal((g.ny, g.nx, 3))
            w = boundary_vanishing_field(g, rng)
            e = g.sym_grad(w)
            pairing = g.integrate(a[..., 0] * e[..., 0] + a[..., 1] * e[..., 1]
                                  + 2.0 * a[..., 2] * e[..., 2])
            d = g.div_matrix(a)
            dual = g.integrate(d[..., 0] * w[..., 0] + d[..., 1] * w[..., 1])
            worst_adj = max(worst_adj, abs(pairing + dual) / max(1.0, abs(pairing)))
            worst_exch = max(worst_exch, abs(g.integrate(
                b[0] * e[..., 0] + b[1] * e[..., 1] + 2 * b[2] * e[..., 2])))
        assert worst_adj <= 1e-12
        assert worst_exch <= 1e-12

        comp = tn.component_matrix(tn.isotropic_tensor(1.0, 1.0))
        kc = 2.0
        for _ in range(100):
            w = boundary_vanishing_field(g, rng)
            e = g.sym_grad(w)
            lhs = g.integrate(np.einsum("ab,ija,ijb->ij", comp, e, e))
            rhs = kc * g.integrate(e[..., 0] ** 2 + e[..., 1] ** 2
                                   + 2.0 * e[..., 2] ** 2)
            assert lhs >= rhs - 1e-10 * abs(rhs)
        _report(7, f"sum-by-parts adjointness residual {worst_adj:.2e} <= 1e-12; "
                   f"exchange integral {worst_exch:.2e} <= 1e-12; Korn "
                   f"coercivity with kC held on 100 random clamped fields")


def _min_eig_brute(t, rng, n_samples=100_000, iters=800):
    """Independent spectral oracle: sampled Rayleigh quotients refined by
    power iteration on the reflected map, using only direct contractions."""
    trip = rng.standard_normal((n_samples, 3))
    mats = np.zeros((n_samples, 2, 2))
    mats[:, 0, 0] = trip[:, 0]
    mats[:, 1, 1] = trip[:, 1]
    mats[:, 0, 1] = mats[:, 1, 0] = trip[:, 2]
    t_mats = np.einsum("ijkl,nkl->nij", t, mats)
    num = np.einsum("nij,nij->n", t_mats, mats)
    den = np.einsum("nij,nij->n", mats, mats)
    rayleigh = num / den
    k = int(np.argmin(rayleigh))
    sampled_min = float(rayleigh[k])
    sigma = float(np.sum(np.abs(t))) + 1.0  # crude upper bound on the spectrum
    x = mats[k] / math.sqrt(den[k])
    for _ in range(iters):
        y = sigma * x - np.einsum("ijkl,kl->ij", t, x)
        x = y / np.linalg.norm(y)
    refined = float(np.einsum("ij,ij", np.einsum("ijkl,kl->ij", t, x), x)
                    / np.einsum("ij,ij", x, x))
    return sampled_min, refined


class TestCriterion08TensorOracles:
    def test_suite(self, rng):
        worst = 0.0
        for _ in range(30):
            t = random_sym_tensor(rng)
            a, b = random_sym2(rng), random_sym2(rng)
            lhs = tn.mat_inner(tn.contract4(t, a), b)
            rhs = tn.mat_inner(a, tn.contract4(t, b))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        assert worst <= 1e-12

        worst_sqrt = 0.0
        for _ in range(3):
            t = random_sym_tensor(rng, spd=True)
            s = tn.sqrt_tensor(t)
            for _ in range(100):
                a = random_sym2(rng)
                resid = np.linalg.norm(tn.contract4(s, tn.contract4(s, a))
                                       - tn.contract4(t, a))
                worst_sqrt = max(worst_sqrt, resid / np.linalg.norm(a))
        assert worst_sqrt <= 1e-10

        worst_eig = 0.0
        for t in (tn.isotropic_tensor(1.0, 1.0), random_sym_tensor(rng, spd=True)):
            k = tn.coercivity_constant(t)
            sampled, refined = _min_eig_brute(t, rng)
            assert sampled >= k - 1e-10  # sampling can only overshoot
            worst_eig = max(worst_eig, abs(refined - k) / abs(k))
        assert worst_eig <= 1e-6
        _report(8, f"adjoint pairing {worst:.1e} <= 1e-12; sqrt composition "
                   f"residual {worst_sqrt:.1e} <= 1e-10; coercivity vs 1e5 "
                   f"Rayleigh samples + power-iteration oracle within "
                   f"{worst_eig:.1e} <= 1e-6 relative")


class TestCriterion09ScalarFunctionals:
    def test_suite(self):
        # inverse round trip at 1e-9 relative across twelve decades
        worst_rt = 0.0
        for model in (ConstantCapacity(1.0), PowerGrowthCapacity(1.0, 1.0)):
            for xi in np.geomspace(1e-3, 1e6, 28):
                back = model.ell_inverse(float(model.ell(xi)))
                worst_rt = max(worst_rt, abs(back - xi) / xi)
        assert worst_rt <= 1e-9

        # cutoff-entropy sandwich
        model = PowerGrowthCapacity(1.0, 1.0)
        for m_cut in (2.0, 10.0, 100.0):
            for xi in np.geomspace(1e-2, 1e4, 50):
                cut = model.ell_cut(float(xi), m_cut)
                ell = float(model.ell(xi))
                k = float(model.K(xi))
                assert ell - k / m_cut - 1e-10 * (1 + abs(ell)) <= cut
                assert cut <= ell + 1e-10 * (1 + abs(ell))

        # elementary bounds on dense grids
        for s in np.geomspace(1.0, 1e12, 600):
            assert math.log(s) <= (2.0 / E) * math.sqrt(s) + 1e-13
        for x in np.geomspace(E, 1e6, 80):
            for y in np.geomspace(E ** 2, 1e6, 80):
                assert x * math.log(x) <= x * x * math.log(y) ** 2 / y + y + 1e-9

        # log-weighted entropy: closed form vs quadrature for kappa == 1
        closed = ConstantCapacity(1.0)
        quad = TabulatedCapacity(np.array([0.0, 1e7]), np.array([1.0, 1.0]))
        worst_lh = 0.0
        for xi in (1.0, 10.0, 100.0):
            a, b = closed.ell_hat(xi, M_MIN), quad.ell_hat(xi, M_MIN)
            worst_lh = max(worst_lh, abs(a - b) / abs(a))
        assert worst_lh <= 1e-9
        _report(9, f"inverse round trip {worst_rt:.1e} <= 1e-9; cutoff-entropy "
                   f"sandwich, log/sqrt and interpolation bounds on dense "
                   f"grids; log-entropy quadrature vs closed form "
                   f"{worst_lh:.1e} <= 1e-9")


class TestCriterion10Convergence:
    def test_manufactured_orders(self):
        table = runner.convergence_study(
            builtin_scenarios()["default-relaxation"], levels=3)
        assert table["spatial_monotone"]
        assert table["spatial_order"] >= 1.8
        assert table["spatial_order_theta"] >= 1.8
        assert table["temporal_order"] >= 0.8
        _report(10, f"manufactured-solution orders: spatial u "
                    f"{table['spatial_order']:.2f}, theta "
                    f"{table['spatial_order_theta']:.2f} (>= 1.8); temporal "
                    f"{table['temporal_order']:.2f} (>= 0.8)")


class TestCriterion11Determinism:
    def test_byte_identical_and_restartable(self, tmp_path):
        cfg = copy.deepcopy(builtin_scenarios()["default-relaxation"])
        cfg["t_final"] = 1.0
        cfg["output"]["window_starts"] = []
        cfg["output"]["checkpoint_time"] = 0.5
        runner.run(cfg, str(tmp_path / "a"))
        runner.run(cfg, str(tmp_path / "b"))
        assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == \
            (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()
        runner.run(cfg, str(tmp_path / "c"), restart_from=str(tmp_path / "a"))
        full = (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()
        resumed = (tmp_path / "c" / "diagnostics.csv").read_text().splitlines()
        assert full[-(len(resumed) - 1):] == resumed[1:]
        _report(11, "repeated runs byte-identical; checkpoint restart "
                    "reproduces the diagnostics rows exactly")
