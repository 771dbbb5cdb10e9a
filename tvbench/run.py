"""tvsim's benchmark: time to a checked solution, set-up time and memory.

    python3 tvbench/run.py --workload relax-32 --seed 3 --seconds 25 --trace 0
    python3 tvbench/run.py                       # every workload, seed 0

Each run starts one child process (child.py) from the repository root,
with BLAS/OpenMP pinned to one thread (see child_env), and waits for it;
runs never overlap.  The child is a closed loop with a single
caller: it sets the workload up a few times, then repeats the workload's
public call until the next call would end after --seconds, checking every
call (see workloads.check).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: run_s and
steps_per_s (median over the calls), setup_s (median over the set-ups) and
peak_rss_mb.  --trace 1 reports the per-layer metrics, computed from spans
recorded around tvsim's public functions (spans.py) in at least two traced
calls whose counts must agree, with the tracing overhead (traced minus
untraced run_s) and the share of the traced run_s that the listed self
times cover.  The share of failed calls is printed as failed_share and
carried by the result's `failed` and `attempted`.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when the run completed, whatever it measured;
a run that could not complete (no tvsim sources, a crash, a time-out) exits
with another code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0   # a run must end within 180 s


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    # One BLAS/OpenMP thread.  tvsim's BLAS calls are dot products and norms
    # of CG vectors; at 128x128 OpenBLAS splits them over a second thread
    # whose hand-offs made relax-128 about 20% slower on two cores, and its
    # run-to-run spread about three times wider, than with one thread.
    env = dict(os.environ)
    threads = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_one(spec, workload, seed, seconds, trace, deadline):
    """Run one child; returns the result dict, or raises RuntimeError."""
    if not (ROOT / "src" / "tvsim" / "__init__.py").is_file():
        raise RuntimeError(f"no tvsim sources under {ROOT / 'src'}")
    cmd = [sys.executable, str(HERE / "child.py"), str(ROOT), workload,
           str(seed), repr(seconds), str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{workload}: child timed out") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise RuntimeError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} calls)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names,
                    help="one workload (default: each in turn, no result line)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload is not None:
            result = run_one(spec, args.workload, args.seed, args.seconds,
                             args.trace, time.monotonic() + DEADLINE_S)
            print(json.dumps(result))
            return 0
        ok = True
        for name in names:
            res = run_one(spec, name, args.seed, args.seconds, args.trace,
                          time.monotonic() + DEADLINE_S)
            ok = ok and res["correct"]
        return 0 if ok else 1
    except (RuntimeError, ValueError) as exc:  # ValueError: no JSON result
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
