"""Check that the traced counts repeat and match the ROADMAP baseline.

    python3 tvbench/counts.py

Runs the 20-step prefix of default-relaxation (seed 0) twice under the
tracer at each grid size and compares Picard iterations, CG-velocity and
CG-heat iterations per step with the baseline table of ROADMAP.md, which
gives them to three significant figures.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import os
import sys
import tempfile

import run
import spans
import workloads

# nx -> (Picard, CG velocity, CG heat) per step over the first 20 steps
BASELINE = {32: (4.2, 190, 156), 128: (4.2, 782, 662)}
STEPS = 20


def prefix_counts(tvsim, nx, outdir):
    """(Picard, CG velocity, CG heat) per step of one traced 20-step prefix."""
    cfg = workloads.config(tvsim, "relax-32", 0)
    cfg["grid"].update(nx=nx, ny=nx)
    cfg["t_final"] = STEPS * cfg["solver"]["dt_max"]
    cfg["output"]["window_starts"] = []
    ledger = workloads.StepLedger()
    step = tvsim.integrator.Integrator.step
    ledger.install(tvsim.integrator.Integrator)
    tracer = spans.Tracer()
    try:
        with tracer.installed(tvsim):
            workloads.call(tvsim, "relax-32", cfg, outdir)
    finally:
        tvsim.integrator.Integrator.step = step
    m = spans.layer_metrics(tracer.spans, tracer.counters, ledger, 1.0, 0)
    per_step = lambda kind: (m[f"grid.cg_{kind}_iters_per_solve"]
                             * m[f"grid.cg_{kind}_solves_per_step"])
    return ledger.steps, (m["integrator.picard_per_step"], per_step("velocity"),
                          per_step("heat"))


def _sig3(x):
    return float(f"{x:.3g}")


def main():
    os.environ.update(run.child_env())  # before numpy is imported
    sys.path.insert(0, str(run.ROOT / "src"))
    import tvsim
    bad = 0
    scratch = run.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for nx in BASELINE:
            runs = [prefix_counts(tvsim, nx, os.path.join(tmp, f"{nx}-{k}")) for k in range(2)]
            (steps, first), (_, second) = runs
            got = tuple(_sig3(x) for x in first)
            ok = steps == STEPS and first == second and got == BASELINE[nx]
            bad += not ok
            print(f"{nx}x{nx}: {steps} steps, per step Picard/CG-velocity/CG-heat "
                  f"{first} (repeat {second}); rounded {got}, ROADMAP "
                  f"{BASELINE[nx]} -> {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
