"""Record the reference trajectories that test_reference_trajectories.py
compares every run against.

    PYTHONPATH=src python3 tests/make_reference_trajectories.py

writes tests/reference_trajectories.json.  Each run is a built-in scenario
at 16 x 16 to t_final 0.5 or 1, a restart of one of them, or a regularized
run (eps_reg > 0, m = 2).  Per record it keeps t, F, S, S_hat, the least
and largest theta and the two corner terms of the log-entropy check; per
accepted step its dt and its Picard, CG-velocity and CG-heat iterations;
and the manifest's limits and run sections.  Regenerate the file only for
a change that is meant to move a number or a count, and say so with it.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import os
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_trajectories.json")
# the record columns kept per record, diagnostics.csv's names
RECORD_KEYS = ("t", "F", "S", "S_hat", "min_theta", "max_theta",
               "corner_t1", "corner_t2")
# the StepReport attributes kept per accepted step
STEP_KEYS = ("dt", "picard_iters", "cg_iters_velocity", "cg_iters_heat")
# 13 significant digits keep the file small, far inside the test's 1e-10
_DIGITS = 13


def _config(name, t_final, **solver):
    from tvsim.scenarios import builtin_scenarios
    cfg = copy.deepcopy(builtin_scenarios()[name])
    cfg["grid"].update(nx=16, ny=16)
    cfg["t_final"] = t_final
    cfg["output"]["window_starts"] = []
    cfg["solver"].update(solver)
    return cfg


def runs():
    """name -> (config, the name of the run it restarts from, or None)."""
    out = {name: (_config(name, t_final), None) for name, t_final in (
        ("default-relaxation", 1.0), ("pure-heat", 0.5), ("debye-hotspot", 1.0),
        ("trivial-zero", 0.5), ("pulsed-forcing", 1.0),
        ("slow-decay-relaxation", 0.5))}
    # debye-hotspot's adaptive dt does not divide 0.5: the restart takes up
    # a step that was cut to land on the checkpoint
    out["debye-hotspot"][0]["output"]["checkpoint_time"] = 0.5
    out["debye-hotspot-restart"] = (copy.deepcopy(out["debye-hotspot"][0]),
                                    "debye-hotspot")
    out["regularized-m2"] = (_config("default-relaxation", 0.5, eps_reg=1e-4, m=2),
                             None)
    return out


@contextlib.contextmanager
def _step_log(steps):
    """Append the STEP_KEYS of every accepted step to steps while inside."""
    from tvsim.integrator import Integrator
    step = Integrator.step

    def logged(integ, *args, **kwargs):
        new, rep = step(integ, *args, **kwargs)
        steps.append([getattr(rep, key) for key in STEP_KEYS])
        return new, rep
    Integrator.step = logged
    try:
        yield
    finally:
        Integrator.step = step


def trajectories():
    """name -> {"records", "steps", "limits", "run"} of every run in runs()."""
    from tvsim import runner
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, restart) in runs().items():
            steps = []
            with _step_log(steps):
                man = runner.run(cfg, os.path.join(tmp, name), restart_from=None
                                 if restart is None else os.path.join(tmp, restart))
            with open(os.path.join(tmp, name, "diagnostics.csv")) as fh:
                records = [[float(row[key]) for key in RECORD_KEYS]
                           for row in csv.DictReader(fh)]
            out[name] = {"records": records, "steps": steps,
                         "limits": man["limits"], "run": man["run"]}
    return out


def _rounded(node):
    if isinstance(node, dict):
        return {key: _rounded(val) for key, val in node.items()}
    if isinstance(node, list):
        return [_rounded(val) for val in node]
    if isinstance(node, float):
        return float(f"{node:.{_DIGITS}g}")
    return node


def main():
    doc = {"record_keys": list(RECORD_KEYS), "step_keys": list(STEP_KEYS),
           "runs": _rounded(trajectories())}
    REFERENCE.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True)
                         + "\n")
    print(f"wrote {REFERENCE} ({REFERENCE.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
