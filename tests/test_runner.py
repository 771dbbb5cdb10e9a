import copy
import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tvsim
import tvsim.mms
from tvsim import cli, integrator, runner, scenarios
from tvsim.diagnostics import Diagnostics
from tvsim.errors import AdmissibilityError, ConfigError
from tvsim.grid import read_snapshot, write_snapshot
from tvsim.integrator import _CG_TOL, Integrator, PulseForcing
from tvsim.mms import ManufacturedProblem
from tvsim.scenarios import build_scenario, builtin_scenarios
from tvsim.tensors import ElasticityTensors, isotropic_tensor


def short_default(t_final=1.0, **extra):
    cfg = copy.deepcopy(builtin_scenarios()["default-relaxation"])
    cfg["t_final"] = t_final
    cfg["output"]["window_starts"] = []
    for key, val in extra.items():
        cfg[key] = val
    return cfg


class TestScenarioBuild:
    def test_builtins_materialize(self):
        for name, cfg in builtin_scenarios().items():
            scenario = build_scenario(cfg)
            assert scenario.name == name

    def test_default_matches_pinned_values(self):
        s = build_scenario(builtin_scenarios()["default-relaxation"])
        assert (s.grid.nx, s.grid.ny) == (32, 32)
        assert s.tensors.kD == pytest.approx(2.0)
        assert np.allclose(s.tensors.B, 0.5 * np.eye(2))
        assert s.d_diff == 1.0
        assert s.m_shift == pytest.approx(math.exp(4.0))
        # the bump center sits between nodes on the 32-grid, so the nodal
        # peak is slightly below the analytic peak value 2
        assert 1.95 <= s.initial.theta.max() <= 2.0
        assert s.initial.v[..., 0].max() == pytest.approx(0.5, rel=1e-2)
        assert s.t_final == 50.0

    def test_editing_one_tensor_leaves_the_other(self):
        # sweeps set tensor entries by path; D and C must not share a dict
        for name, cfg in builtin_scenarios().items():
            runner._set_by_path(cfg, "tensors.C.isotropic.mu", 3.0)
            s = build_scenario(cfg)
            assert s.tensors.kD == pytest.approx(2.0), name
            assert s.tensors.kC == pytest.approx(6.0), name

    def test_unknown_solver_key_rejected(self):
        cfg = short_default()
        cfg["solver"]["bogus"] = 1
        with pytest.raises(ConfigError):
            build_scenario(cfg)

    def test_negative_source_rejected(self):
        cfg = short_default()
        cfg["forcing"] = {"type": "pulse", "amp_g": -1.0}
        with pytest.raises(ConfigError):
            build_scenario(cfg)

    @pytest.mark.parametrize("section, key, value", [
        ("material", "D", math.nan), (None, "t_final", math.nan),
        ("solver", "dt_max", math.inf), ("grid", "Lx", -math.inf)])
    def test_non_finite_value_rejected(self, section, key, value):
        cfg = short_default()
        (cfg[section] if section else cfg)[key] = value
        name = f"{section}.{key}" if section else key
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            build_scenario(cfg)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_regularizer_refused_where_the_velocity_solve_overflows(self, m):
        # the largest mode's regularizer dt_max eps (lam_x + lam_y)^2m must
        # have a finite square: just inside, a step runs without a numpy
        # warning; just outside, build_scenario refuses the config
        cfg = short_default(t_final=0.1)
        sc = build_scenario(cfg)
        (_, lam_x), (_, lam_y) = sc.grid.sbp_modes()
        limit = math.sqrt(np.finfo(float).max) / (
            sc.solver.dt_max * (lam_x.max() + lam_y.max()) ** (2 * m))
        cfg["solver"].update(m=m, eps_reg=1.01 * limit)
        with pytest.raises(ConfigError, match=r"\bsolver\.eps_reg\b"):
            build_scenario(cfg)
        cfg["solver"]["eps_reg"] = 0.99 * limit
        sc = build_scenario(cfg)
        itg = Integrator(sc.grid, sc.tensors, sc.model, sc.solver).set_diffusivity(sc.d_diff)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, rep = itg.step(sc.initial, sc.forcing)
        assert rep.rejections == 0

    def test_readme_example_config_builds(self):
        # the Configuration section of the README uses only accepted keys
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert build_scenario(json.loads(block)).name == "example"

    def test_non_finite_list_entry_rejected(self):
        cfg = short_default()
        cfg["output"]["window_starts"] = [0.5, math.nan]
        with pytest.raises(ConfigError, match=r"output\.window_starts\[1\]"):
            build_scenario(cfg)


class TestRun:
    def test_trivial_scenario(self, tmp_path):
        cfg = builtin_scenarios()["trivial-zero"]
        man = runner.run(cfg, str(tmp_path / "out"))
        assert man["violations"]["total"] == 0
        assert man["limits"]["theta_inf"] == pytest.approx(1.0, rel=1e-10)
        for w in man["windows"]:
            assert w["w_ut"] == 0.0 and w["w_theta_1"] == pytest.approx(0.0, abs=1e-12)

    def test_runs_without_an_assembled_quadratic_form(self, tmp_path, monkeypatch):
        # the integrator applies A_C through Gi; the assembled form is only
        # the tests' oracle
        def refuse(grid, comp_matrix):
            raise AssertionError("Grid.quadratic_form_matrix was called")
        monkeypatch.setattr(tvsim.grid.Grid, "quadratic_form_matrix", refuse)
        man = runner.run(short_default(t_final=0.2), str(tmp_path / "out"))
        assert man["run"]["steps"] == 20 and man["violations"]["total"] == 0

    def test_a_run_keeps_no_full_grid_strain_matrix(self, monkeypatch):
        # every velocity vanishes on the boundary, so the ledger, the
        # positivity guard and the record take its strain through Gi; the
        # full G is only the tests' oracle.  Nor does the grid keep Dx and
        # Dy: grad takes the 1-D derivatives
        def refuse(grid):
            raise AssertionError("Grid.G was called")
        monkeypatch.setattr(tvsim.grid.Grid, "G", refuse)
        cfg = short_default(t_final=0.05)
        cfg["grid"].update(nx=16, ny=16)
        sc = build_scenario(cfg)
        itg = Integrator(sc.grid, sc.tensors, sc.model, sc.solver).set_diffusivity(sc.d_diff)
        diag = Diagnostics(sc.grid, sc.tensors, sc.model, sc.d_diff, sc.m_shift)
        state = sc.initial
        diag.record(state, itg.ledger(state, sc.forcing.g(state.t, sc.grid)))
        for _ in range(3):
            state, rep = itg.step(state, sc.forcing)
            diag.record(state, rep)
        assert "Gi" in sc.grid._ops and not {"G", "Dx", "Dy"} & set(sc.grid._ops)

    def test_windows_a_run_cannot_cover_keep_no_samples(self, tmp_path, monkeypatch):
        stores = []

        class Store(runner._WindowStore):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)
        monkeypatch.setattr(runner, "_WindowStore", Store)
        cfg = short_default(t_final=0.1)
        cfg["output"]["window_starts"] = [0.05]
        man = runner.run(cfg, str(tmp_path / "out"))
        assert stores[0].samples == []
        assert man["windows"] == []
        assert man["windows_skipped"] == [
            {"t0": 0.0, "reason": "window [0.0, 1.0] is not covered by samples"},
            {"t0": 0.05, "reason": "window [0.05, 1.05] is not covered by samples"}]

    @pytest.mark.parametrize("name", ["default-relaxation", "debye-hotspot"])
    def test_limits_average_the_finite_entropies_of_the_final_unit(self, tmp_path, name):
        # t_final <= 1, so the final unit takes in the t = 0 record; under
        # debye-hotspot's floored law its zero-temperature cells make S(0)
        # = -inf, and only that record is left out
        cfg = copy.deepcopy(builtin_scenarios()[name])
        cfg["grid"].update(nx=16, ny=16)
        cfg["t_final"] = 0.5
        cfg["output"]["window_starts"] = []
        man = runner.run(cfg, str(tmp_path / "out"))
        with open(tmp_path / "out" / "diagnostics.csv") as fh:
            s_vals = np.array([float(row["S"]) for row in csv.DictReader(fh)])
        assert (s_vals[0] == -np.inf) == (name == "debye-hotspot")
        finite = s_vals[np.isfinite(s_vals)]
        assert finite.size == s_vals.size - (name == "debye-hotspot")
        assert man["limits"]["L"] == float(finite.mean())  # |Omega| = 1
        assert man["limits"]["converged"] is True
        assert 0.0 < man["run"]["min_theta"] <= man["limits"]["theta_inf"]

    def test_a_fresh_tally_counts_every_law_of_the_table(self):
        # the names and their order are those of the checkpoints written so far
        laws = ["energy", "entropy_monotone", "entropy_balance", "log_entropy"]
        assert list(runner._LAWS) == laws
        assert list(runner._new_tally(1.0, 0.0)["violations"]) == laws

    def test_inadmissible_rejected_before_stepping(self, tmp_path):
        cfg = builtin_scenarios()["inadmissible-zero-cell"]
        with pytest.raises(AdmissibilityError):
            runner.run(cfg, str(tmp_path / "out"))

    def test_determinism_byte_identical(self, tmp_path):
        cfg = short_default(t_final=0.5)
        runner.run(cfg, str(tmp_path / "a"))
        runner.run(cfg, str(tmp_path / "b"))
        for name in ("diagnostics.csv", "windows.csv", "manifest.json",
                     "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_restart_equivalence(self, tmp_path):
        cfg = short_default(t_final=1.0)
        cfg["output"]["checkpoint_time"] = 0.5
        runner.run(cfg, str(tmp_path / "full"))
        runner.run(cfg, str(tmp_path / "resumed"),
                   restart_from=str(tmp_path / "full"))
        full = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
        res = (tmp_path / "resumed" / "diagnostics.csv").read_text().splitlines()
        assert full[0] == res[0]
        assert full[-(len(res) - 1):] == res[1:]

    def test_restart_across_output_and_t_final_is_byte_identical(self, tmp_path):
        # a restart may change the output plan, t_final and the name
        full = short_default(t_final=1.0)
        runner.run(full, str(tmp_path / "full"))
        first = short_default(t_final=0.6, name="first-half")
        first["output"]["checkpoint_time"] = 0.5
        runner.run(first, str(tmp_path / "first"))
        runner.run(full, str(tmp_path / "resumed"),
                   restart_from=str(tmp_path / "first"))
        whole = (tmp_path / "full" / "diagnostics.csv").read_bytes()
        # a resumed run records the steps after the checkpoint at t = 0.5
        header, _, rows = (tmp_path / "resumed" / "diagnostics.csv").read_bytes() \
            .partition(b"\n")
        assert whole.startswith(header + b"\n")
        assert rows.count(b"\n") == 50 and whole.endswith(rows)

    def test_restart_where_the_solves_loosen_is_byte_identical(self, tmp_path,
                                                                monkeypatch):
        # the steps after t = 0.05 take 4 Picard iterations and loosen the
        # first ones from the last step's contraction ratio, which the
        # checkpoint carries
        cfg = short_default(t_final=0.15)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "full"))
        tols = []
        solve_spd = integrator.solve_spd

        def spy(a, rhs, tol, **kwargs):
            tols.append(tol)
            return solve_spd(a, rhs, tol=tol, **kwargs)
        monkeypatch.setattr(integrator, "solve_spd", spy)
        runner.run(cfg, str(tmp_path / "resumed"),
                   restart_from=str(tmp_path / "full"))
        assert tols[0] > _CG_TOL
        whole = (tmp_path / "full" / "diagnostics.csv").read_bytes()
        header, _, rows = (tmp_path / "resumed" / "diagnostics.csv").read_bytes() \
            .partition(b"\n")
        assert whole.startswith(header + b"\n")
        assert rows.count(b"\n") == 10 and whole.endswith(rows)

    def test_restart_reports_the_whole_run(self, tmp_path):
        # the checkpoint carries the run's tally, so the resumed manifest
        # reports the uninterrupted run: its iterations, its rejection at the
        # first step, its largest |u| and its initial theta deviation
        cfg = copy.deepcopy(builtin_scenarios()["debye-hotspot"])
        cfg["t_final"] = 2.0
        cfg["output"].update(window_starts=[1.0], checkpoint_time=0.5)
        full = runner.run(cfg, str(tmp_path / "full"))
        resumed = runner.run(cfg, str(tmp_path / "resumed"),
                             restart_from=str(tmp_path / "full"))
        assert full["run"]["rejections"] == 1 and full["windows"]
        for section in ("run", "violations", "limits", "windows",
                        "windows_skipped", "stabilization"):
            assert resumed[section] == full[section], section

    def test_checkpoint_and_snapshot_land_on_their_times(self, tmp_path):
        # debye-hotspot's adaptive dt divides neither time; the step that
        # would pass one ends on it, so the restart from t = 1 recomputes
        # the window [1, 2] that the uninterrupted run computes
        cfg = copy.deepcopy(builtin_scenarios()["debye-hotspot"])
        cfg["t_final"] = 2.0
        cfg["output"].update(window_starts=[1.0], checkpoint_time=1.0,
                             snapshot_times=[0.25])
        full = runner.run(cfg, str(tmp_path / "full"))
        doc = json.loads((tmp_path / "full" / "checkpoint.json").read_text())
        assert abs(doc["t"] - 1.0) <= 1e-12
        t_snap, _ = read_snapshot(str(tmp_path / "full" / "snapshot_t0.250000.bin"))
        assert abs(t_snap - 0.25) <= 1e-12
        resumed = runner.run(cfg, str(tmp_path / "resumed"),
                             restart_from=str(tmp_path / "full"))
        assert full["windows"] and not full["windows_skipped"]
        for section in ("run", "violations", "limits", "windows",
                        "windows_skipped", "stabilization"):
            assert resumed[section] == full[section], section

    def test_restart_keeps_the_violations_before_the_checkpoint(
            self, tmp_path, monkeypatch):
        # a negative slack counts an energy violation at every step
        monkeypatch.setattr(runner, "_ENERGY_TOL_REL", -1.0)
        cfg = short_default(t_final=1.0)
        cfg["output"]["checkpoint_time"] = 0.5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        full = runner.run(cfg, str(tmp_path / "full"))
        assert full["violations"]["energy"] == full["run"]["steps"] == 100
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "resumed"),
                       "--restart-from", str(tmp_path / "full")])
        assert rc == 1
        resumed = json.loads((tmp_path / "resumed" / "manifest.json").read_text())
        assert resumed["violations"] == full["violations"]

    def test_sympy_stays_off_the_run_path(self, tmp_path):
        # the manufactured solution is written in closed form: neither a run
        # nor a convergence study loads sympy
        code = ("import copy, sys\n"
                "import tvsim\n"
                "from tvsim import cli, runner\n"
                "cfg = copy.deepcopy(tvsim.builtin_scenarios()"
                "['default-relaxation'])\n"
                "cfg['t_final'] = 0.1\n"
                "cfg['output']['window_starts'] = []\n"
                f"runner.run(cfg, {str(tmp_path / 'out')!r})\n"
                "runner.convergence_study(tvsim.builtin_scenarios()"
                "['default-relaxation'], base_nx=4, temporal_nx=8, "
                "temporal_dts=(0.1, 0.05, 0.025), temporal_dt_ref=0.0125, "
                "t_final=0.5)\n"
                "assert tvsim.mms.ManufacturedProblem\n"
                "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
        src = str(Path(tvsim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("section, key, value, match", [
        ("material", "D", 5.0, "different config"),
        ("material", "kappa", {"variant": "constant", "k0": 2.0},
         "different config"),
        ("grid", "nx", 24, "grid is 32x32"),
    ])
    def test_restart_under_different_physics_refused(self, tmp_path, section,
                                                     key, value, match):
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        other = copy.deepcopy(cfg)
        other.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=match):
            runner.run(other, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))
        assert not (tmp_path / "b" / "manifest.json").exists()

    @staticmethod
    def _edit_checkpoint(path, edit):
        """Rewrite the checkpoint.json at path through edit(doc)."""
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("text, match", [
        ('{"t": 0.5}', "checkpoint misses config_hash"),
        ("config_hash=abc\nnx=oops\n", "unreadable checkpoint"),
        ("[1, 2]", "section checkpoint must be an object"),
    ])
    def test_corrupt_checkpoint_text_refused(self, tmp_path, text, match):
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        (tmp_path / "a" / "checkpoint.json").write_text(text)
        with pytest.raises(ConfigError, match=match):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))

    @pytest.mark.parametrize("key, value, match", [
        ("nx", 32.5, "key checkpoint.nx must be an integer"),
        ("t", "0.05", "key checkpoint.t must be a number"),
        ("steps", 5.5, "key checkpoint.tally.steps must be an integer"),
        ("min_theta", True, "key checkpoint.tally.min_theta must be a number"),
        ("violations", {"energy": 0}, "checkpoint.tally.violations misses "
                                      "entropy_monotone"),
        ("rejection_reasons", {"x": "1"},
         "key checkpoint.tally.rejection_reasons.x must be an integer"),
        ("bogus", 1, r"unknown checkpoint.tally keys: \['bogus'\]"),
        ("tally", [], "section checkpoint.tally must be an object"),
    ], ids=["nx-fraction", "t-string", "steps-fraction", "min_theta-bool",
            "violations-incomplete", "rejection-count-string", "unknown-key",
            "tally-list"])
    def test_mistyped_checkpoint_value_refused(self, tmp_path, key, value, match):
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))

        def edit(doc):
            (doc if key in doc else doc["tally"])[key] = value
        self._edit_checkpoint(tmp_path / "a" / "checkpoint.json", edit)
        with pytest.raises(ConfigError, match=match):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))
        assert not (tmp_path / "b" / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_checkpoint_value_refused(self, tmp_path, value):
        # a NaN F0 would switch the energy check off: residual > nan is
        # never true
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        self._edit_checkpoint(tmp_path / "a" / "checkpoint.json",
                              lambda doc: doc["tally"].update(F0=float(value)))
        with pytest.raises(ConfigError, match=r"checkpoint\.tally\.F0 must be a "
                                              f"finite number, got {value}"):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))
        assert not (tmp_path / "b" / "manifest.json").exists()

    @pytest.mark.parametrize("value, match", [
        (None, "checkpoint misses rho"),
        (math.nan, "checkpoint.rho must be a finite number, got nan"),
    ], ids=["missing", "nan"])
    def test_checkpoint_contraction_ratio_required(self, tmp_path, value, match):
        # without the last step's ratio a restart would solve its first
        # Picard iterations at other CG tolerances than the uninterrupted run
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))

        def edit(doc):
            del doc["rho"]
            if value is not None:
                doc["rho"] = value
        self._edit_checkpoint(tmp_path / "a" / "checkpoint.json", edit)
        with pytest.raises(ConfigError, match=match):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))

    def test_checkpoint_files_of_different_times_refused(self, tmp_path):
        # a run killed between the two writes, or a sidecar left by an
        # earlier run, would pair one checkpoint's state with another's tally
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        path = tmp_path / "a" / "checkpoint.json"
        t_bin = json.loads(path.read_text())["t"]
        self._edit_checkpoint(path, lambda doc: doc.update(t=0.04))
        with pytest.raises(ConfigError, match=rf"t = {t_bin!r}.*t = 0\.04"):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))
        assert not (tmp_path / "b" / "manifest.json").exists()

    def test_old_text_checkpoint_refused(self, tmp_path):
        # the older key=value sidecar is no checkpoint.json
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        (tmp_path / "a" / "checkpoint.json").unlink()
        (tmp_path / "a" / "checkpoint.txt").write_text("config_hash=abc\nt=0.05\n")
        with pytest.raises(ConfigError, match="checkpoint.json: unreadable checkpoint"):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))

    def test_non_finite_checkpoint_field_refused(self, tmp_path):
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        path = str(tmp_path / "a" / "checkpoint.bin")
        t, fields = read_snapshot(path)
        fields[4][5, 7] = np.nan
        write_snapshot(path, t, fields)
        with pytest.raises(ConfigError, match="field theta is not finite"):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))

    def test_five_field_checkpoint_refused(self, tmp_path):
        # the older layout lacks theta and v where the last step began
        cfg = short_default(t_final=0.1)
        cfg["output"]["checkpoint_time"] = 0.05
        runner.run(cfg, str(tmp_path / "a"))
        path = str(tmp_path / "a" / "checkpoint.bin")
        t, fields = read_snapshot(path)
        assert len(fields) == 8
        write_snapshot(path, t, fields[:5])
        with pytest.raises(ConfigError, match="holds 5 fields, expected 8"):
            runner.run(cfg, str(tmp_path / "b"), restart_from=str(tmp_path / "a"))

    def test_atomic_writes_leave_no_temporary_files(self, tmp_path):
        cfg = short_default(t_final=0.1)
        cfg["output"].update(checkpoint_time=0.05, snapshot_times=[0.03])
        runner.run(cfg, str(tmp_path / "w"))
        names = sorted(os.listdir(tmp_path / "w"))
        assert not [n for n in names if n.endswith(".tmp")]
        assert {"manifest.json", "checkpoint.bin", "checkpoint.json"} <= set(names)
        assert "config_hash" in json.loads(
            (tmp_path / "w" / "checkpoint.json").read_text())

    def test_killed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        cfg = short_default(t_final=0.1)
        runner.run(cfg, str(tmp_path / "k"))
        assert (tmp_path / "k" / "manifest.json").exists()

        # the rerun dies after the bytes are written, before the rename
        def killed(src, dst):
            raise RuntimeError("killed")
        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(RuntimeError, match="killed"):
            runner.run(cfg, str(tmp_path / "k"))
        assert not (tmp_path / "k" / "manifest.json").exists()

    def test_snapshots_written(self, tmp_path):
        cfg = short_default(t_final=0.2)
        cfg["output"]["snapshot_times"] = [0.1]
        scenario_dir = tmp_path / "snap"
        runner.run(cfg, str(scenario_dir))
        files = [f for f in os.listdir(scenario_dir) if f.startswith("snapshot")]
        assert len(files) == 1
        t, fields = read_snapshot(str(scenario_dir / files[0]))
        assert t == pytest.approx(0.1, abs=1e-9)
        assert len(fields) == 5

    def test_manifest_content(self, tmp_path):
        cfg = short_default(t_final=0.3)
        man = runner.run(cfg, str(tmp_path / "m"))
        assert man["config_hash"] == runner.config_hash(cfg)
        assert man["kappa_hypotheses"]["variant"] == "constant"
        assert man["admissibility"]["passed"] is True
        assert man["run"]["steps"] == 30
        assert man["run"]["min_theta"] > 0
        on_disk = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert on_disk == man

    def test_slow_decay_scenario(self, tmp_path):
        # the decaying-capacity hypothesis class: bounded-below fails but the
        # log-weighted divergence holds, and the run still satisfies every
        # per-step inequality
        cfg = copy.deepcopy(builtin_scenarios()["slow-decay-relaxation"])
        cfg["t_final"] = 0.5
        cfg["output"]["window_starts"] = []
        man = runner.run(cfg, str(tmp_path / "sd"))
        assert man["violations"]["total"] == 0
        flags = man["kappa_hypotheses"]
        assert flags["variant"] == "slow_decay"
        assert flags["bounded_below_at_infinity"] is False
        assert flags["log_weighted_divergent"] is True

    def test_explicit_tensor_entries_config(self, tmp_path):
        cfg = short_default(t_final=0.2)
        raw = isotropic_tensor(1.0, 1.0).reshape(-1).tolist()
        cfg["tensors"] = {"D": raw, "C": raw, "B": [0.5, 0.5, 0.0]}
        man = runner.run(cfg, str(tmp_path / "raw"))
        assert man["violations"]["total"] == 0

    def test_sparse_record_cadence(self, tmp_path):
        cfg = short_default(t_final=0.5)
        cfg["output"]["record_every"] = 5
        man = runner.run(cfg, str(tmp_path / "cad"))
        assert man["violations"]["total"] == 0
        rows = (tmp_path / "cad" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) - 1 == 1 + 50 // 5  # initial record plus every 5th step

    @pytest.mark.parametrize("reason, kind", [
        ("temperature diagonal guard failed (kappa/dt + b <= 0 at node 515)",
         "temperature diagonal guard failed"),
        ("fixed-point iteration did not converge (last change 1.04e+00)",
         "fixed-point iteration did not converge"),
        ("temperature positivity lost at node 7", "temperature positivity lost"),
        ("conjugate gradients stalled at relative residual 1.000e-03 after "
         "40 iterations", "conjugate gradients stalled")])
    def test_rejection_kind_drops_details(self, reason, kind):
        assert runner._rejection_kind(reason) == kind

    def test_debye_scenario_positive(self, tmp_path):
        cfg = copy.deepcopy(builtin_scenarios()["debye-hotspot"])
        cfg["t_final"] = 0.5
        cfg["output"]["window_starts"] = []
        man = runner.run(cfg, str(tmp_path / "d"))
        assert man["run"]["min_theta"] > 0.0
        assert man["violations"]["total"] == 0
        assert man["kappa_hypotheses"]["variant"] == "debye"
        # the first step trips the diagonal guard at dt = 0.01; rejections
        # are counted by reason, and the manifest still repeats byte for byte
        assert man["run"]["rejections"] == 1
        assert man["run"]["rejection_reasons"] == {
            "temperature diagonal guard failed": 1}
        runner.run(cfg, str(tmp_path / "d2"))
        assert ((tmp_path / "d" / "manifest.json").read_bytes()
                == (tmp_path / "d2" / "manifest.json").read_bytes())

    def test_manifest_totals_the_iterations(self, tmp_path, monkeypatch):
        reports = []
        step = Integrator.step

        def logged(integ, *args, **kwargs):
            new, rep = step(integ, *args, **kwargs)
            reports.append(rep)
            return new, rep
        monkeypatch.setattr(Integrator, "step", logged)
        cfg = copy.deepcopy(builtin_scenarios()["debye-hotspot"])
        cfg["t_final"] = 0.1
        cfg["output"]["window_starts"] = []
        man = runner.run(cfg, str(tmp_path / "d"))
        for key in ("picard_iters", "cg_iters_velocity", "cg_iters_heat",
                    "wasted_picard", "wasted_cg_velocity", "wasted_cg_heat"):
            assert man["run"][key] == sum(getattr(r, key) for r in reports), key
        # the first step's rejected attempt did work before the guard failed
        assert man["run"]["rejections"] == 1
        assert man["run"]["wasted_picard"] >= 1
        assert man["run"]["picard_iters"] > man["run"]["steps"]

    @pytest.mark.parametrize("name, t_final", [("default-relaxation", 0.2),
                                               ("debye-hotspot", 0.1)])
    def test_records_report_the_step_ledger(self, tmp_path, monkeypatch, name,
                                            t_final):
        # one ledger: each stepped row shows the accepted step's own values
        reports = []
        step = Integrator.step

        def observed(integ, *args, **kwargs):
            new, rep = step(integ, *args, **kwargs)
            reports.append(rep)
            return new, rep

        monkeypatch.setattr(Integrator, "step", observed)
        cfg = copy.deepcopy(builtin_scenarios()[name])
        cfg["t_final"] = t_final
        cfg["output"]["window_starts"] = []
        runner.run(cfg, str(tmp_path / "out"))
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
        assert len(rows) == len(reports) + 1 > 10
        pairs = [("F", "F"), ("S", "S"), ("P_src", "prod_source"),
                 ("visc_lb", "prod_viscous_lb"),
                 ("prod_diff_edge", "prod_diffusion")]
        for row, rep in zip(rows[1:], reports):
            assert row["t"] == rep.t_new
            for column, attr in pairs:
                assert row[column].hex() == float(getattr(rep, attr)).hex()
        # a with_zeros start keeps the infinite edge production at t = 0
        zero_start = name == "debye-hotspot"
        assert (rows[0]["prod_diff_edge"] == math.inf) == zero_start
        assert (rows[0]["min_theta"] == 0.0) == zero_start

    def test_heat_source_evaluations(self, tmp_path, monkeypatch):
        # 20 steps of one attempt, the t = 0 record and 17 validation calls;
        # stepped records take the source production from the step
        times = []
        source = PulseForcing.g

        def counted(forcing, t, grid):
            times.append(t)
            return source(forcing, t, grid)

        monkeypatch.setattr(PulseForcing, "g", counted)
        cfg = copy.deepcopy(builtin_scenarios()["pulsed-forcing"])
        cfg["t_final"] = 0.2
        man = runner.run(cfg, str(tmp_path / "out"))
        assert man["run"]["steps"] == 20 and man["run"]["rejections"] == 0
        assert len(times) == 38


class TestSweep:
    def test_regularization_axis_increases_dissipation(self, tmp_path):
        cfg = short_default(t_final=0.3)
        cfg["grid"] = {"nx": 16, "ny": 16}
        results = runner.sweep(cfg, "solver.eps_reg", [0.0, 1e-6, 1e-4],
                               str(tmp_path / "sw"))
        assert all(r["status"] == "ok" for r in results)
        diss = [r["manifest"]["run"]["eps_dissipation_total"] for r in results]
        assert diss[0] == 0.0
        assert diss[0] < diss[1] < diss[2]
        assert os.path.exists(tmp_path / "sw" / "comparison.csv")

    def test_kappa_axis_passes_invariants(self, tmp_path):
        cfg = short_default(t_final=0.3)
        cfg["grid"] = {"nx": 16, "ny": 16}
        cfg["material"]["eps_kappa"] = 1e-3
        results = runner.sweep(
            cfg, "material.kappa",
            [{"variant": "constant", "k0": 1.0},
             {"variant": "debye", "k0": 1.0, "xi_d": 1.0}],
            str(tmp_path / "k"))
        for r in results:
            assert r["status"] == "ok"
            assert r["manifest"]["violations"]["total"] == 0

    def test_empty_axis_single_run(self, tmp_path):
        cfg = short_default(t_final=0.2)
        results = runner.sweep(cfg, "solver.eps_reg", [], str(tmp_path / "e"))
        assert len(results) == 1 and results[0]["status"] == "ok"

    def test_failures_recorded_not_raised(self, tmp_path):
        cfg = short_default(t_final=0.2)
        results = runner.sweep(cfg, "material.D", [1.0, -1.0], str(tmp_path / "f"))
        statuses = [r["status"] for r in results]
        assert statuses[0] == "ok" and statuses[1] != "ok"


class TestManufactured:
    def unit_tensors(self, b=0.1):
        return ElasticityTensors(D4=isotropic_tensor(1, 1),
                                 C4=isotropic_tensor(1, 1), B=b * np.eye(2))

    def test_zero_solution_zero_error(self):
        from tvsim.grid import Grid
        from tvsim.integrator import CallableForcing, Integrator, SolverConfig
        mms = ManufacturedProblem(self.unit_tensors(), 1.0, 1.0, amp_u=0.0,
                                  amp_theta=0.0, margin=0.0)
        assert mms.slope == 0.0
        g = Grid(10, 10)
        itg = Integrator(g, self.unit_tensors(),
                         __import__("tvsim.materials", fromlist=["ConstantCapacity"]).ConstantCapacity(1.0),
                         SolverConfig(dt_max=0.05)).set_diffusivity(1.0)
        state = mms.initial_state(g)
        forcing = CallableForcing(mms.forcing_f, mms.forcing_g)
        for _ in range(4):
            state, _ = itg.step(state, forcing)
        e_u, e_th = mms.errors(state, g)
        assert e_u <= 1e-12 and e_th <= 1e-12

    def test_heat_source_nonnegative(self):
        from tvsim.grid import Grid
        mms = ManufacturedProblem(self.unit_tensors(), 1.0, 1.0)
        g = Grid(15, 15)
        for t in np.linspace(0, 1, 7):
            assert mms.forcing_g(float(t), g).min() >= 0.0

    def test_exact_fields_respect_boundary_conditions(self):
        from tvsim.grid import Grid
        mms = ManufacturedProblem(self.unit_tensors(), 1.0, 1.0)
        g = Grid(15, 15)
        for t in (0.0, 0.5):
            v = mms.exact_v(t, g)
            assert np.abs(v[g.boundary_mask]).max() == 0.0
            th = mms.exact_theta(t, g)
            # zero normal derivative: mirror symmetry of the cosine profile
            assert np.abs(th[:, 0] - th[:, 1]).max() <= \
                0.5 * np.abs(th[:, 1] - th[:, 2]).max() + 1e-12

    def test_factors_evaluated_once_per_grid_size(self, monkeypatch):
        # a study builds a new Grid for every run; the forcings of one size
        # share one evaluation of the spatial factors
        from tvsim.grid import Grid
        mms = ManufacturedProblem(self.unit_tensors(), 1.0, 1.0, lx=1.3)
        shape, sizes = mms._shape, []
        monkeypatch.setattr(mms, "_shape", lambda x, y: sizes.append(x.shape) or shape(x, y))
        def evaluate():  # each on a new grid of one size
            return [fn(0.3, Grid(12, 9, 1.3)) for fn in
                    (mms.forcing_f, mms.forcing_g, mms.exact_u, mms.exact_theta)]
        first, again = evaluate(), evaluate()
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert mms.forcing_g(0.3, Grid(16, 9, 1.3)).shape == (9, 16)
        assert sizes == [(9, 12), (9, 16)]

    def test_study_builds_one_problem(self, monkeypatch):
        built = []

        class CountingProblem(ManufacturedProblem):
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tvsim.mms, "ManufacturedProblem", CountingProblem)
        table = runner.convergence_study(
            builtin_scenarios()["default-relaxation"], base_nx=4, temporal_nx=8,
            temporal_dts=(0.1, 0.05, 0.025), temporal_dt_ref=0.0125, t_final=0.5)
        assert len(built) == 1
        assert built[0]["t_final"] == 0.5
        assert len(table["spatial"]) == 3 and len(table["temporal"]) == 3

    @pytest.mark.parametrize("case", ["unit", "lame-coupled"])
    def test_closed_form_matches_symbolic_oracle(self, case):
        # oracle: the fields and forcings derived by computer algebra from the
        # definitions of the system, with the full tensors, and the ramp slope
        # picked on the same 41^3 sample of the study window
        sp = pytest.importorskip("sympy")
        from tvsim.grid import Grid
        if case == "unit":
            tens, kappa0, d_diff, lx, ly = self.unit_tensors(), 1.0, 1.0, 1.0, 1.0
        else:
            tens = ElasticityTensors(D4=isotropic_tensor(0.3, 0.7),
                                     C4=isotropic_tensor(1.2, 0.4),
                                     B=np.array([[0.1, 0.05], [0.05, 0.2]]))
            kappa0, d_diff, lx, ly = 1.5, 0.8, 1.3, 0.8
        problem = ManufacturedProblem(tens, kappa0, d_diff, lx=lx, ly=ly)

        x, y, t, s = sp.symbols("x y t s", real=True)
        shape = sp.sin(sp.pi * x / lx) * sp.sin(sp.pi * y / ly)
        u = 0.25 * (1 - sp.exp(-2 * t)) * sp.Matrix([sp.cos(t) * shape,
                                                     sp.sin(t) * shape])
        theta = 1 + 0.25 * sp.cos(sp.pi * x / lx) * sp.cos(t) + s * t
        v = u.diff(t)
        bmat = sp.Matrix(tens.B.tolist())

        def sym_grad(w):
            j = w.jacobian([x, y])
            return (j + j.T) / 2

        def apply(t4, e):
            return sp.Matrix(2, 2, lambda i, j: sum(
                float(t4[i, j, k, m]) * e[k, m] for k in range(2) for m in range(2)))

        def div(m):
            return sp.Matrix([m[i, 0].diff(x) + m[i, 1].diff(y) for i in range(2)])

        e_v = sym_grad(v)
        stress_v = apply(tens.D4, e_v)
        f = (v.diff(t) - div(stress_v) - div(apply(tens.C4, sym_grad(u)))
             + bmat * sp.Matrix([theta.diff(x), theta.diff(y)]))
        g = (kappa0 * theta.diff(t) - d_diff * (theta.diff(x, 2) + theta.diff(y, 2))
             - sum(stress_v[i, j] * e_v[i, j] for i in range(2) for j in range(2))
             + theta * sum(bmat[i, j] * e_v[i, j] for i in range(2) for j in range(2)))

        def numeric(expr, *at):
            val = sp.lambdify((x, y, t), expr, "numpy")(*at)
            return np.broadcast_to(np.asarray(val, dtype=float), at[0].shape)

        sample = np.meshgrid(np.linspace(0, lx, 41), np.linspace(0, ly, 41),
                             np.linspace(0, 1.0, 41), indexing="ij")
        g0, gs = numeric(g.subs(s, 0), *sample), numeric(g.diff(s), *sample)
        slope = max(0.0, float(np.max((0.01 - g0) / gs)))
        assert problem.slope == pytest.approx(slope, rel=1e-12, abs=0)

        grid = Grid(24, 24, lx, ly)
        fields = {"exact_u": u, "exact_v": v, "exact_theta": theta,
                  "forcing_f": f, "forcing_g": g}
        for when in (0.0, 0.37, 1.0):
            for name, expr in fields.items():
                at = (grid.X, grid.Y, np.full(grid.X.shape, when))
                if isinstance(expr, sp.MatrixBase):
                    want = np.stack([numeric(expr[i].subs(s, slope), *at)
                                     for i in range(2)], axis=-1)
                else:
                    want = numeric(expr.subs(s, slope), *at)
                got = getattr(problem, name)(when, grid)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), \
                    (name, when)

    @pytest.mark.parametrize("case", ["unit", "lame-coupled"])
    def test_blocked_sample_gives_the_one_pass_slope(self, case):
        if case == "unit":
            tens, kappa0, d_diff, lx, ly = self.unit_tensors(), 1.0, 1.0, 1.0, 1.0
        else:
            tens = ElasticityTensors(D4=isotropic_tensor(0.3, 0.7),
                                     C4=isotropic_tensor(1.2, 0.4),
                                     B=np.array([[0.1, 0.05], [0.05, 0.2]]))
            kappa0, d_diff, lx, ly = 1.5, 0.8, 1.3, 0.8
        problem = ManufacturedProblem(tens, kappa0, d_diff, lx=lx, ly=ly)
        # the whole 41^3 sample in one pass
        xg, yg, tg = np.meshgrid(np.linspace(0, lx, 41), np.linspace(0, ly, 41),
                                 np.linspace(0, 1.0, 41), indexing="ij", sparse=True)
        g0, gs = problem._heat_parts(problem._shape(xg, yg)[1],
                                     np.cos(problem._kx * xg), tg)
        assert gs.min() > 0
        assert problem.slope == float(max(0.0, np.max((0.01 - g0) / gs)))
        assert problem.slope > 0

    def test_construction_stays_below_2_mb(self):
        # in one pass the sample's temporaries took about 4.5 MB
        tens = ElasticityTensors(D4=isotropic_tensor(0.3, 0.7),
                                 C4=isotropic_tensor(1.2, 0.4),
                                 B=np.array([[0.1, 0.05], [0.05, 0.2]]))
        ManufacturedProblem(tens, 1.5, 0.8)  # first-call allocations aside
        tracemalloc.start()
        try:
            ManufacturedProblem(tens, 1.5, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_anisotropic_tensor_rejected(self):
        bad = isotropic_tensor(1.0, 1.0).copy()
        bad[0, 0, 0, 0] += 0.3
        tens = ElasticityTensors(D4=bad, C4=isotropic_tensor(1, 1), B=np.eye(2))
        with pytest.raises(ConfigError):
            ManufacturedProblem(tens, 1.0, 1.0)

    def test_unoffsettable_coupling_rejected(self):
        # a strong coupling drives dg/ds = kappa0 + t <B, sym_grad v> to 0
        # and below; the problem is refused before any division by it
        tens = ElasticityTensors(D4=isotropic_tensor(1, 1), C4=isotropic_tensor(1, 1),
                                 B=50.0 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="cannot offset"):
                ManufacturedProblem(tens, 1.0, 1.0)


class TestCli:
    def test_run_trivial(self, tmp_path, capsys):
        rc = cli.main(["run", "trivial-zero", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "violations=0" in capsys.readouterr().out

    def test_check_admissible(self, capsys):
        assert cli.main(["check", "default-relaxation"]) == 0

    def test_check_inadmissible(self, capsys):
        assert cli.main(["check", "inadmissible-zero-cell"]) == 2
        assert "reject" in capsys.readouterr().out

    def test_run_list(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "default-relaxation" in out

    def test_material_table(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = cli.main(["material-table", "default-relaxation", "--out", str(out),
                       "--points", "11"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "xi,kappa,K,ell,ell_hat"
        assert len(lines) == 12

    def test_run_config_file(self, tmp_path, capsys):
        cfg = short_default(t_final=0.1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_broken_down_velocity_solve_exits_3(self, tmp_path, capsys,
                                                monkeypatch):
        # build_scenario refuses eps_reg = 1e300; past that check, the
        # overflowing regularizer breaks every attempt's CG down, and the
        # step is rejected down to dt_min
        monkeypatch.setattr(scenarios, "_check_regularizer", lambda grid, solver: None)
        cfg = short_default(t_final=0.1)
        cfg["solver"]["eps_reg"] = 1e300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "error: step rejected below dt_min (conjugate gradients")

    @pytest.mark.parametrize("m_shift", [0, False, 10.0])
    def test_check_refuses_a_weight_shift_below_e4(self, tmp_path, capsys, m_shift):
        cfg = short_default(t_final=0.1)
        cfg["material"]["M"] = m_shift
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "key material.M " in err

    def test_inadmissible_run_exit_code(self, tmp_path):
        rc = cli.main(["run", "inadmissible-zero-cell",
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["material-table", "--xi-min", "0"],
        ["material-table", "--points", "-3"],
        ["material-table", "--xi-min", "10", "--xi-max", "1"],
        ["material-table", "--xi-max", "inf"],
        ["material-table", "--out", "{tmp}/missing/x.csv"],
        ["run", "trivial-zero", "--out", "{tmp}/file/out"],
    ], ids=["xi-min-zero", "points-negative", "xi-reversed", "xi-max-inf",
            "table-out-missing-dir", "run-out-under-file"])
    def test_bad_command_line_input_exits_3(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        rc = cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("content, named", [
        (None, "cfg.json"),  # no such file
        ("{not json", "cfg.json"),
        ("[1, 2]", "cfg.json"),
        (("grid", 5), "section grid "),
        (("tensors", None), "section tensors "),
        (("material", []), "section material "),
        (("output", 7), "section output "),
        (("initial.theta", 3), "section initial.theta "),
        (("grid.nx", "a"), "key grid.nx "),
        (("t_final", "x"), "key t_final "),
        (("grid.nx", 40.7), "key grid.nx "),
        (("grid.ny", 40.7), "key grid.ny "),
        (("output.record_every", 2.5), "key output.record_every "),
        # settings that are module constants, so that no config loosens them
        (("solver.cg_tol", 1e-6), "solver keys: ['cg_tol']"),
        (("solver.cg_maxiter_factor", 10), "solver keys: ['cg_maxiter_factor']"),
        (("solver.picard_tol", 1e-2), "solver keys: ['picard_tol']"),
        (("solver.picard_max", 80), "solver keys: ['picard_max']"),
        (("solver.dt_growth", 1.2), "solver keys: ['dt_growth']"),
        (("solver.theta_safety", 0.5), "solver keys: ['theta_safety']"),
        (("solver.dt0", 0.01), "solver keys: ['dt0']"),
        (("output.energy_tol_rel", 1e-9), "output keys: ['energy_tol_rel']"),
        (("output.ineq_tol_rel", 1.0), "output keys: ['ineq_tol_rel']"),
        # misspelt keys of fixed-key sections
        (("grid.lx", 2.0), "grid keys: ['lx']"),
        (("t_finall", 50.0), "top-level keys: ['t_finall']"),
        (("material.eps_kapa", 0.0), "material keys: ['eps_kapa']"),
        (("output.record_evry", 1), "output keys: ['record_evry']"),
        # values below the top-level sections
        (("material.kappa.k0", "a"), "key material.kappa.k0 "),
        (("tensors.B", "a"), "key tensors.B "),
        (("tensors.D.isotropic.lambda", "a"), "key tensors.D.isotropic.lambda "),
        (("tensors.D.isotropic.mu", "a"), "key tensors.D.isotropic.mu "),
        (("output.snapshot_times", 5), "key output.snapshot_times "),
        (("output.window_starts", ["a"]), "key output.window_starts[0] "),
        (("output.checkpoint_time", "x"), "key output.checkpoint_time "),
        # pulse time scales that divide the envelopes by zero or grow them
        (("forcing", {"type": "pulse", "tau_f": 0}), "tau_f must be > 0"),
        (("forcing", {"type": "pulse", "tau_g": 0}), "tau_g must be > 0"),
        (("forcing", {"type": "pulse", "tau_g": -1.0}), "tau_g must be > 0"),
        # a spacing whose square underflows, a hot spot that vanishes or is
        # 0/0 at a node, and output times that would never be written
        (("grid.Lx", 1e-300), "grid.Lx"),
        (("initial.theta", {"type": "hotspot", "width": 0}), "initial.theta.width"),
        (("initial.theta", {"type": "with_zeros", "width": -0.18}),
         "initial.theta.width"),
        (("output.checkpoint_time", -1.0), "key output.checkpoint_time "),
        (("output.checkpoint_time", 0.0), "key output.checkpoint_time "),
        (("output.checkpoint_time", 0.2), "key output.checkpoint_time "),
        (("output.snapshot_times", [0.0]), "key output.snapshot_times[0] "),
        (("output.snapshot_times", [0.05, 0.2]), "key output.snapshot_times[1] "),
        # a regularizer that would overflow the velocity solve
        (("solver.eps_reg", 1e300), "key solver.eps_reg "),
        # keys that the chosen type, variant or form does not take
        (("forcing", {"type": "pulse", "amp_G": 0.2}), "forcing keys: ['amp_G']"),
        (("forcing.amp_f", 0.5), "forcing keys: ['amp_f']"),
        (("material.kappa.omega", 2.0), "material.kappa keys: ['omega']"),
        (("initial.theta", {"type": "hotspot", "peek": 3.0}),
         "initial.theta keys: ['peek']"),
        (("initial.velocity", {"type": "zero", "amplitude": 0.5}),
         "initial.velocity keys: ['amplitude']"),
        (("initial.displacement.amplitud", 0.2), "initial.displacement keys: ['amplitud']"),
        (("tensors.E", {"isotropic": {"lambda": 1.0, "mu": 1.0}}), "tensors keys: ['E']"),
        (("tensors.D.lambda", 2.0), "tensors.D keys: ['lambda']"),
        (("tensors.D.isotropic.nu", 0.3), "tensors.D.isotropic keys: ['nu']"),
        (("tensors.B.scale", 1.0), "tensors.B keys: ['scale']"),
        # a type or variant that names nothing, or none at all
        (("forcing.type", "pulsed"), "key forcing.type "),
        (("material.kappa", {"k0": 1.0}), "key: material.kappa.variant"),
        # a weight shift below e^4
        (("material.M", 0), "key material.M "),
        (("material.M", False), "key material.M "),
        (("material.M", 10.0), "key material.M "),
    ], ids=["missing", "not-json", "not-object", "grid", "tensors", "material",
            "output", "initial.theta", "nx-string", "t_final-string",
            "nx-fraction", "ny-fraction", "record_every-fraction",
            "cg_tol", "cg_maxiter_factor", "picard_tol", "picard_max",
            "dt_growth", "theta_safety", "dt0", "energy_tol_rel", "ineq_tol_rel",
            "grid-typo", "top-level-typo", "material-typo", "output-typo",
            "kappa-k0-string", "B-string", "lambda-string", "mu-string",
            "snapshot_times-scalar", "window_starts-string",
            "checkpoint_time-string", "tau_f-zero", "tau_g-zero",
            "tau_g-negative", "Lx-tiny", "hotspot-width-zero",
            "with_zeros-width-negative", "checkpoint-negative", "checkpoint-zero",
            "checkpoint-past-t_final", "snapshot-zero", "snapshot-past-t_final",
            "eps_reg-overflowing", "pulse-typo", "zero-forcing-key",
            "constant-kappa-omega", "hotspot-typo", "zero-velocity-key",
            "displacement-typo", "tensors-foreign", "isotropic-form-foreign",
            "isotropic-nu", "scale_identity-foreign", "forcing-type-unknown",
            "kappa-variant-missing", "M-zero", "M-false", "M-below-e4"])
    def test_bad_config_input_exits_3(self, tmp_path, capsys, content, named):
        path = tmp_path / "cfg.json"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            cfg = short_default(t_final=0.1)
            runner._set_by_path(cfg, *content)
            path.write_text(json.dumps(cfg))
        rc = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()
