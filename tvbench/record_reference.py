"""Record the theta_inf reference of every input variant into reference.json.

    python3 tvbench/record_reference.py

Runs each workload on each of the VARIANTS inputs (about ten minutes on
two cores), requires every check other than the reference itself to pass,
and rewrites reference.json with the values and the environment they were
recorded in.  Rerun it only in a change that redefines the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import child
import run
import workloads

# Why each tolerance: relaxation runs take the fixed dt = dt_max, so only
# solver tolerances move theta_inf (1e-10 CG tolerance moves it by ~3e-10).
# debye-32 takes an adaptive dt; a different dt policy (dt growth 1.1 or a
# halved dt_max) moves theta_inf by 3e-4 to 8e-4, while the input variants
# differ by ~1e-2.
TOLERANCES = {
    "relax-32": {"tol": 1e-7, "why": "fixed dt; only solver tolerances move it"},
    "relax-128": {"tol": 1e-7, "why": "fixed dt; only solver tolerances move it"},
    "debye-32": {"tol": 2e-3, "why": "adaptive dt; a changed dt policy moves it "
                                     "by up to 8e-4, input variants by ~1e-2"},
}


def main():
    os.environ.update(run.child_env())  # before numpy is imported
    sys.path.insert(0, str(run.ROOT / "src"))
    import tvsim
    ledger = workloads.StepLedger()
    ledger.install(tvsim.integrator.Integrator)
    values = {}
    scratch = run.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.NAMES:
            values[name] = []
            for variant in range(workloads.VARIANTS):
                cfg = workloads.config(tvsim, name, variant)
                ledger.reset()
                outcome = workloads.call(tvsim, name, cfg,
                                         os.path.join(tmp, f"{name}-{variant}"))
                problems = workloads.check_solution(name, outcome, ledger)
                if problems:
                    raise SystemExit(f"{name} variant {variant}: {problems}")
                if name != "mms-convergence":
                    values[name].append(outcome["limits"]["theta_inf"])
                print(name, variant, values[name][-1:] or outcome["spatial_order"],
                      flush=True)
    del values["mms-convergence"]
    ref = {"variants": workloads.VARIANTS, "theta_inf_rel_tol": TOLERANCES,
           "theta_inf": values, "environment": child.environment()}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
