"""One benchmark run of one workload, in a fresh interpreter started by run.py.

    python3 tvbench/child.py <root> <workload> <seed> <seconds> <trace>

Prints readable lines, then one JSON line with the raw figures; run.py
turns that into the benchmark's result.  tvsim is imported from
<root>/src and nowhere else.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

# setup_s is the median of set-ups spread over the whole run: before each
# call and after the last, set-ups repeat until they add up to SETUP_SLICE_S,
# and at least MIN_SETUPS are taken.  Taken all at once, the set-ups of a
# cheap workload fell within one second, and the machine's speed changes
# from second to second, so their median moved by up to 1.9x between runs.
MIN_SETUPS, SETUP_SLICE_S = 3, 0.25


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


class Runner:
    """Times and checks calls of one workload on one generated input."""

    def __init__(self, tvsim, root, name, seed):
        self.tvsim = tvsim
        self.name = name
        self.seed = seed
        self.cfg = workloads.config(tvsim, name, seed)
        self.reference = workloads.load_reference()
        self.ledger = workloads.StepLedger()
        self.ledger.install(tvsim.integrator.Integrator)
        self.scratch = root / ".bench_build" / "tvbench"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = {}   # call number -> reasons it failed

    def setup_seconds(self, out, budget=SETUP_SLICE_S):
        """Append the durations of set-ups to out, at least one, until they
        add up to budget."""
        spent = 0.0
        while True:
            t0 = time.perf_counter()
            workloads.setup(self.tvsim, self.name, self.cfg)
            out.append(time.perf_counter() - t0)
            spent += out[-1]
            if spent >= budget:
                return

    def call(self, tracer=None):
        """One timed call; returns (seconds, output bytes)."""
        outdir = self.scratch / f"out-{os.getpid()}"
        shutil.rmtree(outdir, ignore_errors=True)
        self.ledger.reset()
        self.attempted += 1
        gc.collect()
        if tracer is not None:
            tracer.install(self.tvsim)
        t0 = time.perf_counter()
        try:
            outcome = workloads.call(self.tvsim, self.name, self.cfg, str(outdir))
            seconds = time.perf_counter() - t0
        except Exception as exc:  # a raising call counts as failed
            seconds = time.perf_counter() - t0
            outcome, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.restore()
        if outcome is not None:
            problems = workloads.check(self.name, self.seed, outcome,
                                       self.ledger, self.reference)
        nbytes = workloads.output_bytes(outdir)
        shutil.rmtree(outdir, ignore_errors=True)
        if problems:
            self.fail(self.attempted, problems)
        return seconds, nbytes

    def fail(self, call_no, problems):
        self.failures.setdefault(call_no, []).extend(problems)


def _more(start, durations, seconds):
    """Whether another call of median length still ends within the budget."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(r, seconds):
    """End-to-end metrics from untraced calls."""
    setups, durations, steps = [], [], []
    r.setup_seconds(setups)
    print(f"# peak RSS after imports and set-up: {_peak_rss_mb():.1f} MB")
    start = time.perf_counter()
    while True:
        if durations:
            r.setup_seconds(setups)
        sec, _ = r.call()
        durations.append(sec)
        steps.append(r.ledger.steps)
        if not _more(start, durations, seconds):
            break
    r.setup_seconds(setups)
    while len(setups) < MIN_SETUPS:
        r.setup_seconds(setups, 0.0)
    run_s = statistics.median(durations)
    print(f"# {len(durations)} calls, run_s samples: "
          + " ".join(f"{d:.4f}" for d in durations))
    print(f"# {len(setups)} set-ups, setup_s samples: "
          + " ".join(f"{d:.4f}" for d in setups))
    return {"run_s": run_s,
            "steps_per_s": statistics.median(steps) / run_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _peak_rss_mb()}


def measure_traced(r, seconds):
    """Per-layer metrics from traced calls, with untraced calls to compare.

    The calls run untraced, traced, traced, then in (untraced, traced) pairs
    while another pair still ends within the budget.  The tracing overhead
    is the median difference between a traced call and the untraced call
    just before it, so that a slow drift of the machine cancels.
    """
    workloads.setup(r.tvsim, r.name, r.cfg)  # as before an untraced run
    plain, traced, overheads, per_call, tracers = [], [], [], [], []

    def traced_call():
        tracer = spans.Tracer(run_id=len(traced))
        sec, nbytes = r.call(tracer)
        traced.append(sec)
        per_call.append((r.attempted, spans.layer_metrics(
            tracer.spans, tracer.counters, r.ledger, sec, nbytes)))
        tracers.append(tracer)

    def pair():
        plain.append(r.call()[0])
        traced_call()
        overheads.append(traced[-1] - plain[-1])

    start = time.perf_counter()
    pair()
    traced_call()
    while _more(start, [plain[-1] + traced[-1]], seconds):
        pair()
    first = per_call[0][1]
    for call_no, m in per_call[1:]:
        differ = [f"{k} {m[k]!r} != {first[k]!r}" for k in spans.COUNTS
                  if m[k] != first[k]]
        if differ:
            r.fail(call_no, ["counts differ from the first traced call: "
                             + ", ".join(differ)])
    path = r.scratch / f"spans-{r.name}-seed{r.seed}.csv"
    recorded = [s for t in tracers for s in t.spans]
    spans.write_csv(path, recorded)
    print(f"# {len(traced)} traced and {len(plain)} untraced calls; "
          f"{len(recorded)} spans written to {path}")
    print("# traced run_s samples: " + " ".join(f"{d:.4f}" for d in traced))
    print("# untraced run_s samples: " + " ".join(f"{d:.4f}" for d in plain))
    out = {k: statistics.median(m[k] for _, m in per_call) for k in first}
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def main(argv):
    root, name, seed, seconds, trace = (Path(argv[0]), argv[1], int(argv[2]),
                                        float(argv[3]), int(argv[4]))
    import tvsim
    src = (root / "src").resolve()
    if src not in Path(tvsim.__file__).resolve().parents:
        raise SystemExit(f"tvsim was imported from {tvsim.__file__}, not {src}")
    env = environment()
    print("# environment: " + json.dumps(env, sort_keys=True))
    r = Runner(tvsim, root, name, seed)
    metrics = (measure_traced if trace else measure)(r, seconds)
    for call_no, problems in sorted(r.failures.items()):
        print(f"# FAILED call {call_no}: " + "; ".join(problems))
    print(json.dumps({"attempted": r.attempted, "failed": len(r.failures),
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
