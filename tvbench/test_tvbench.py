"""Tests of the benchmark's own arithmetic, generator and checks."""

import json
from collections import Counter
from pathlib import Path

import pytest

import tvsim
from tvsim.integrator import Integrator

import child
import counts
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = spans.Tracer(run_id=7, clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        w_leaf()
        clock.now += 0.5
        w_leaf()

    def top():
        clock.now += 3.0
        w_middle()

    w_leaf = tr.wrap(leaf, "leaf", "g.leaf")
    w_middle = tr.wrap(middle, "middle", "g.mid")
    w_top = tr.wrap(top, "top", "g.top")
    w_top()

    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s.name, []).append(s)
    (t,), (m,), leaves = by_name["top"], by_name["middle"], by_name["leaf"]
    assert t.duration == 8.5 and t.self_time == 3.0
    assert m.duration == 5.5 and m.self_time == 1.5
    assert [s.self_time for s in leaves] == [2.0, 2.0]
    assert m.parent == t.sid and all(s.parent == m.sid for s in leaves)
    assert t.parent == -1 and {s.run for s in tr.spans} == {7}
    # self times partition the root span
    assert sum(s.self_time for s in tr.spans) == t.duration
    assert spans.self_time_by_group(tr.spans) == {"g.top": 3.0, "g.mid": 1.5,
                                                  "g.leaf": 4.0}


def test_opaque_span_charges_its_callees_to_itself():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    w_inner = tr.wrap(inner, "inner", "g.inner")

    def outer():
        w_inner()
        clock.now += 1.0

    tr.wrap(outer, "outer", "g.outer", opaque=True)()
    assert [(s.name, s.self_time) for s in tr.spans] == [("outer", 2.0)]


def test_solves_are_attributed_by_parent():
    tr = spans.Tracer()
    solve = tr.wrap(lambda: None, "solve_spd", "grid.cg", opaque=True)
    tr.wrap(lambda: solve(), "Integrator.velocity_step", "integrator.velocity")()
    tr.wrap(lambda: solve(), "Integrator.temperature_step", "integrator.heat")()
    solve()
    assert [s.group for s in tr.spans if s.name == "solve_spd"] == [
        "grid.cg_velocity", "grid.cg_heat", "grid.cg_other"]


def test_tracer_restores_the_program():
    before = (Integrator.step, tvsim.integrator.solve_spd, tvsim.runner.run,
              tvsim.materials.ConstantCapacity.kappa_values)
    tr = spans.Tracer()
    with tr.installed(tvsim):
        assert tvsim.integrator.solve_spd is not before[1]
        assert tvsim.grid.solve_spd is tvsim.integrator.solve_spd
    after = (Integrator.step, tvsim.integrator.solve_spd, tvsim.runner.run,
             tvsim.materials.ConstantCapacity.kappa_values)
    assert after == before


def test_layer_metrics_cover_the_per_layer_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    got = spans.layer_metrics([], Counter(), workloads.StepLedger(), 1.0, 0)
    assert set(got) | {"trace.overhead_s"} == names


def test_seed_zero_is_the_builtin_initial_data_and_seeds_repeat():
    builtin = tvsim.scenarios.builtin_scenarios()
    for name in workloads.NAMES:
        base = builtin["debye-hotspot" if name == "debye-32"
                       else "default-relaxation"]
        cfg = workloads.config(tvsim, name, 0)
        assert cfg["initial"] == base["initial"]
        assert cfg["material"] == base["material"]
        assert workloads.config(tvsim, name, 5) == workloads.config(tvsim, name, 5)
        assert workloads.config(tvsim, name, 5) != cfg
        assert workloads.config(tvsim, name, 5 + workloads.VARIANTS) == \
            workloads.config(tvsim, name, 5)


@pytest.mark.parametrize("name", ["relax-32", "debye-32", "mms-convergence"])
def test_every_variant_is_admissible(name):
    for seed in range(workloads.VARIANTS):
        sc = tvsim.scenarios.build_scenario(workloads.config(tvsim, name, seed))
        assert tvsim.scenarios.admissibility(sc).passed


def _short_runner(tmp_path, monkeypatch):
    """A Runner of relax-32 cut to 10 steps, with that run's own reference."""
    monkeypatch.setattr(Integrator, "step", Integrator.step)
    r = child.Runner(tvsim, tmp_path, "relax-32", 0)
    r.cfg["t_final"] = 0.1
    r.cfg["output"]["window_starts"] = []
    manifest = workloads.call(tvsim, "relax-32", r.cfg, str(tmp_path / "ref"))
    r.reference = {
        "theta_inf": {"relax-32": [manifest["limits"]["theta_inf"]]
                      * workloads.VARIANTS},
        "theta_inf_rel_tol": {"relax-32": {"tol": 1e-7}}}
    return r


def test_a_wrong_reference_counts_the_run_as_failed(tmp_path, monkeypatch):
    r = _short_runner(tmp_path, monkeypatch)
    r.call()
    assert r.failures == {}
    r.reference["theta_inf"]["relax-32"][0] *= 1.0 + 1e-6
    r.call()
    assert r.attempted == 2 and list(r.failures) == [2]
    assert "theta_inf" in r.failures[2][0]


def test_a_raising_call_counts_as_failed(tmp_path, monkeypatch):
    r = _short_runner(tmp_path, monkeypatch)
    r.cfg["material"]["D"] = -1.0
    r.call()
    assert list(r.failures) == [1] and "ConfigError" in r.failures[1][0]


def test_prefix_counts_repeat(tmp_path, monkeypatch):
    # Only repetition is tested: a better solver moves the counts away from
    # the ROADMAP baseline on purpose; counts.py compares with the baseline.
    monkeypatch.setattr(Integrator, "step", Integrator.step)
    first = counts.prefix_counts(tvsim, 32, str(tmp_path / "a"))
    second = counts.prefix_counts(tvsim, 32, str(tmp_path / "b"))
    assert first == second
    assert first[0] == counts.STEPS


def test_every_span_target_is_wrapped():
    tr = spans.Tracer()
    with tr.installed(tvsim):
        for mod_name, path, _, _ in spans.SPANS:
            owner = getattr(tvsim, mod_name)
            for part in path.split("."):
                owner = owner.__dict__[part]
            assert hasattr(owner, "__wrapped__"), f"{mod_name}.{path}"
        for cls in (tvsim.materials.HeatCapacity, tvsim.materials.ConstantCapacity,
                    tvsim.materials.DebyeLikeCapacity):
            assert hasattr(cls.__dict__["kappa_values"], "__wrapped__")


@pytest.mark.parametrize("owner, attr", [
    (tvsim.materials.HeatCapacity, "kappa_chord"),
    (tvsim.materials.HeatCapacity, "kappa_values"),
    (tvsim.grid, "solve_spd")])
def test_a_missing_target_stops_the_traced_run(monkeypatch, owner, attr):
    monkeypatch.delattr(owner, attr)
    step = Integrator.step
    with pytest.raises(spans.MissingTarget, match=attr):
        spans.Tracer().install(tvsim)
    assert Integrator.step is step   # nothing left patched


def test_an_unaccounted_energy_loss_counts_the_run_as_failed(tmp_path,
                                                             monkeypatch):
    # a loss keeps the energy nonincreasing, so only the balance check sees it
    step = Integrator.step

    def lossy(integ, state, *args, **kwargs):
        new, rep = step(integ, state, *args, **kwargs)
        rep.energy_residual -= 1e-3 * rep.F_old
        return new, rep

    monkeypatch.setattr(Integrator, "step", lossy)
    r = _short_runner(tmp_path, monkeypatch)
    r.call()
    assert r.ledger.balance_max_rel == pytest.approx(1e-3, rel=1e-6)
    assert r.ledger.energy_max_rel < 0
    assert list(r.failures) == [1] and len(r.failures[1]) == 1
    assert "numerical dissipation" in r.failures[1][0]
