"""Spans recorded around tvsim's public functions, from outside the program.

A Tracer replaces chosen functions and methods of the tvsim modules with
wrappers that record one span per call: its name, layer group, start, end,
parent span and run id.  Spans stay in memory until the benchmark writes
them out.  A span's self time is its duration minus the time its direct
child spans cover.  Inside an opaque span no further spans open, so an
opaque span is charged with everything it calls (kappa_chord with its
quadrature, the sympy set-up of a manufactured problem, a CG solve).

Nothing in the program is edited: the wrappers are installed on the
imported modules for one call and removed afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    parent: int          # -1 for a root span
    run: int
    name: str
    group: str
    opaque: bool
    start: float
    end: float = 0.0
    child: float = 0.0   # time covered by direct child spans
    iters: int = 0       # CG iterations, for solve spans
    flops: float = 0.0   # computed CG flops, for solve spans

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


def _solve_info(span, args, result):
    """CG work of one solve_spd(a, rhs, ...) call, computed from its sizes.

    Per iteration: one sparse matvec (2 nnz) and 13 n for the dots, axpys,
    norm and diagonal preconditioner; one more matvec for the first residual.
    """
    a, rhs = args[0], args[1]
    iters = int(result[1])
    span.iters = iters
    span.flops = 2.0 * a.nnz * (iters + 1) + 13.0 * rhs.size * iters


# Velocity solves and heat solves are told apart by their parent span.
_CG_GROUP = {"Integrator.velocity_step": "grid.cg_velocity",
             "Integrator.temperature_step": "grid.cg_heat"}

# (module, attribute path, layer group, opaque).  A missing attribute stops
# the run (Tracer.install raises), so that a renamed function cannot make
# its metrics read 0 and pass for a gain.
SPANS = [
    ("scenarios", "build_scenario", "scenarios.build", False),
    ("scenarios", "admissibility", "scenarios.admissibility", True),
    ("grid", "Grid.G", "grid.assembly", False),
    ("grid", "Grid.Dx", "grid.assembly", False),
    ("grid", "Grid.Dy", "grid.assembly", False),
    ("grid", "Grid.mat_weight_diag", "grid.assembly", False),
    ("grid", "Grid.quadratic_form_matrix", "grid.assembly", False),
    ("grid", "Grid.interior_submatrix", "grid.assembly", False),
    ("grid", "Grid.coupling_force_matrix", "grid.assembly", False),
    ("grid", "Grid.neumann_weighted", "grid.assembly", False),
    ("grid", "Grid.dirichlet_laplacian_interior", "grid.assembly", False),
    ("grid", "solve_spd", "grid.cg", True),
    ("integrator", "Integrator.__init__", "integrator.setup", False),
    ("integrator", "Integrator.set_diffusivity", "integrator.setup", False),
    ("integrator", "Integrator.step", "integrator.step", False),
    ("integrator", "Integrator.adaptive_dt", "integrator.adaptive_dt", False),
    ("integrator", "Integrator.velocity_step", "integrator.velocity", False),
    ("integrator", "Integrator.temperature_step", "integrator.heat", False),
    # the ledger; _bookkeeping is the one private method traced, because the
    # per-step energy/entropy evaluation lives there
    ("integrator", "Integrator._bookkeeping", "integrator.bookkeeping", False),
    ("integrator", "Integrator.total_energy", "integrator.bookkeeping", False),
    ("integrator", "Integrator.entropy", "integrator.bookkeeping", False),
    ("materials", "HeatCapacity.kappa", "materials.primitives", False),
    ("materials", "HeatCapacity.K", "materials.primitives", False),
    ("materials", "HeatCapacity.ell", "materials.primitives", False),
    ("materials", "HeatCapacity.ell_hat", "materials.primitives", False),
    ("materials", "HeatCapacity.kappa_chord", "materials.kappa_chord", True),
    ("materials", "HeatCapacity.ell_inverse", "materials.inverse", True),
    ("materials", "HeatCapacity.K_inverse", "materials.inverse", True),
    ("diagnostics", "Diagnostics.__init__", "diagnostics.setup", False),
    ("diagnostics", "Diagnostics.record", "diagnostics.record", False),
    ("diagnostics", "log_entropy_inequality", "diagnostics.log_entropy", False),
    ("diagnostics", "theta_infinity", "diagnostics.limits", False),
    ("diagnostics", "window_metrics", "diagnostics.limits", False),
    ("runner", "run", "runner", False),
    ("runner", "convergence_study", "runner", False),
    ("mms", "ManufacturedProblem.__init__", "mms.setup", True),
    ("mms", "ManufacturedProblem.forcing_f", "mms.forcing", True),
    ("mms", "ManufacturedProblem.forcing_g", "mms.forcing", True),
]

# Groups whose self time a per-layer metric reports; their sum over the
# traced run_s is the coverage.  Step glue, operator set-up and
# Diagnostics.__init__ are the uncovered remainder.
COVERED = ("grid.cg_velocity", "grid.cg_heat", "grid.assembly",
           "integrator.velocity", "integrator.heat", "integrator.bookkeeping",
           "integrator.adaptive_dt", "materials.kappa_chord",
           "materials.primitives", "materials.inverse", "diagnostics.record",
           "diagnostics.log_entropy", "diagnostics.limits", "runner",
           "scenarios.build", "scenarios.admissibility", "mms.setup",
           "mms.forcing")


class MissingTarget(RuntimeError):
    """A function the tracer must wrap is not in the program."""


class Tracer:
    """Records spans of one traced call; install() patches, restore() undoes."""

    def __init__(self, run_id=0, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patched = []
        self._depth = 0

    # -- span bookkeeping ---------------------------------------------------
    def wrap(self, fn, name, group, opaque=False, info=None):
        """Return fn wrapped so that each call outside an opaque span is a span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1].opaque:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            grp = _CG_GROUP.get(parent.name if parent else "", "grid.cg_other") \
                if group == "grid.cg" else group
            span = Span(len(spans), parent.sid if parent else -1, self.run_id,
                        name, grp, opaque, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if info is not None:
                info(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_points(self, fn):
        """Count the points kappa is evaluated at (outermost call only)."""
        def counted(model, xi):
            self._depth += 1
            try:
                if self._depth == 1:
                    self.counters["kappa_points"] += int(getattr(xi, "size", 1))
                return fn(model, xi)
            finally:
                self._depth -= 1
        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the SPANS targets of an imported tvsim package.

        Raises MissingTarget, with nothing left patched, when a target or
        HeatCapacity.kappa_values is not there.
        """
        modules = {name: getattr(package, name) for name in
                   ("scenarios", "grid", "integrator", "materials",
                    "diagnostics", "runner", "mms")}
        missing = []
        for mod_name, path, group, opaque in SPANS:
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in owner.__dict__:
                missing.append(f"{mod_name}.{path}")
                continue
            info = _solve_info if group == "grid.cg" else None
            orig = owner.__dict__[attr]
            new = self.wrap(orig, path, group, opaque, info)
            if cls_path:
                self._patch(owner, attr, new)
            else:
                # rebind the function wherever a tvsim module imported it
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith(package.__name__)
                            and mod.__dict__.get(attr) is orig):
                        self._patch(mod, attr, new)
        base = getattr(modules["materials"], "HeatCapacity", None)
        if base is None or "kappa_values" not in base.__dict__:
            missing.append("materials.HeatCapacity.kappa_values")
        else:
            for obj in list(vars(modules["materials"]).values()):
                if (isinstance(obj, type) and issubclass(obj, base)
                        and "kappa_values" in obj.__dict__):
                    self._patch(obj, "kappa_values",
                                self._count_points(obj.__dict__["kappa_values"]))
        if missing:
            self.restore()
            raise MissingTarget("tvsim has no " + ", ".join(missing))
        return self

    def restore(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self, package):
        self.install(package)
        try:
            yield self
        finally:
            self.restore()


def write_csv(path, spans):
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["run", "span", "parent", "name", "group", "start", "end",
                      "self", "cg_iters"])
        for s in spans:
            out.writerow([s.run, s.sid, s.parent, s.name, s.group, repr(s.start),
                          repr(s.end), repr(s.self_time), s.iters])


def self_time_by_group(spans):
    out = Counter()
    for s in spans:
        out[s.group] += s.self_time
    return out


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counters, ledger, run_s, output_bytes):
    """Per-layer metrics of one traced call (times in ms).

    `ledger` holds the accepted steps of the call as observed at
    Integrator.step; `run_s` is the call's traced wall time.
    """
    self_s = self_time_by_group(spans)
    n_steps = ledger.steps

    def ms(group):
        return 1e3 * self_s.get(group, 0.0)

    def calls(*names):
        return sum(1 for s in spans if s.name in names)

    solves = {g: [s for s in spans if s.group == g]
              for g in ("grid.cg_velocity", "grid.cg_heat", "grid.cg_other")}
    iters = {g: sum(s.iters for s in v) for g, v in solves.items()}
    flops = {g: sum(s.flops for s in v) for g, v in solves.items()}
    step_ms = [1e3 * s.duration for s in spans if s.name == "Integrator.step"]
    if len(step_ms) >= 2:
        pct = statistics.quantiles(step_ms, n=100, method="inclusive")
        p50, p99 = pct[49], pct[98]
    else:
        p50 = p99 = step_ms[0] if step_ms else 0.0
    n_records = calls("Diagnostics.record")
    n_builds = calls("build_scenario")
    n_adm = calls("admissibility")
    cg_ms = ms("grid.cg_velocity") + ms("grid.cg_heat") + ms("grid.cg_other")
    covered = sum(self_s.get(g, 0.0) for g in COVERED)
    return {
        "grid.cg_velocity_ms_per_step": _per(ms("grid.cg_velocity"), n_steps),
        "grid.cg_velocity_iters_per_solve": _per(iters["grid.cg_velocity"],
                                                 len(solves["grid.cg_velocity"])),
        "grid.cg_velocity_solves_per_step": _per(len(solves["grid.cg_velocity"]),
                                                 n_steps),
        "grid.cg_heat_ms_per_step": _per(ms("grid.cg_heat"), n_steps),
        "grid.cg_heat_iters_per_solve": _per(iters["grid.cg_heat"],
                                             len(solves["grid.cg_heat"])),
        "grid.cg_heat_solves_per_step": _per(len(solves["grid.cg_heat"]), n_steps),
        "grid.cg_ms_per_iter": _per(cg_ms, sum(iters.values())),
        "grid.cg_velocity_mflop_per_step": _per(1e-6 * flops["grid.cg_velocity"],
                                                n_steps),
        "grid.cg_heat_mflop_per_step": _per(1e-6 * flops["grid.cg_heat"], n_steps),
        "grid.assembly_ms": ms("grid.assembly"),
        "integrator.picard_per_step": _per(ledger.picard, n_steps),
        "integrator.rejected_share": _per(ledger.rejections,
                                          n_steps + ledger.rejections),
        "integrator.distinct_dt": len(ledger.dts),
        "integrator.step_ms_p50": p50,
        "integrator.step_ms_p99": p99,
        "integrator.velocity_self_ms_per_step": _per(ms("integrator.velocity"),
                                                     n_steps),
        "integrator.heat_self_ms_per_step": _per(ms("integrator.heat"), n_steps),
        "integrator.bookkeeping_ms_per_step": _per(ms("integrator.bookkeeping"),
                                                   n_steps),
        "integrator.adaptive_dt_ms_per_step": _per(ms("integrator.adaptive_dt"),
                                                   n_steps),
        "integrator.energy_balance_max_rel": ledger.balance_max_rel,
        "integrator.exchange_abs_max": ledger.exchange_max,
        "materials.kappa_chord_ms_per_step": _per(ms("materials.kappa_chord"),
                                                  n_steps),
        "materials.kappa_points_per_step": _per(counters["kappa_points"], n_steps),
        "materials.primitives_ms_per_step": _per(ms("materials.primitives"),
                                                 n_steps),
        "materials.inverse_ms": ms("materials.inverse"),
        "diagnostics.record_ms_per_record": _per(ms("diagnostics.record"),
                                                 n_records),
        "diagnostics.log_entropy_ms_per_record": _per(
            ms("diagnostics.log_entropy"), n_records),
        "diagnostics.limits_ms": ms("diagnostics.limits"),
        "runner.self_ms_per_step": _per(ms("runner"), n_steps),
        "runner.output_bytes": output_bytes,
        "scenarios.build_ms": _per(ms("scenarios.build"), n_builds),
        "scenarios.admissibility_ms": _per(ms("scenarios.admissibility"), n_adm),
        "mms.setup_ms": ms("mms.setup"),
        "mms.setups": calls("ManufacturedProblem.__init__"),
        "mms.forcing_ms_per_step": _per(ms("mms.forcing"), n_steps),
        "mms.forcing_calls_per_step": _per(
            calls("ManufacturedProblem.forcing_f", "ManufacturedProblem.forcing_g"),
            n_steps),
        "trace.coverage": _per(100.0 * covered, run_s),
    }


# Metrics that must repeat exactly across traced calls of one input.
COUNTS = ("grid.cg_velocity_iters_per_solve", "grid.cg_velocity_solves_per_step",
          "grid.cg_heat_iters_per_solve", "grid.cg_heat_solves_per_step",
          "grid.cg_velocity_mflop_per_step", "grid.cg_heat_mflop_per_step",
          "integrator.picard_per_step", "integrator.rejected_share",
          "integrator.distinct_dt", "materials.kappa_points_per_step",
          "runner.output_bytes", "mms.setups", "mms.forcing_calls_per_step")
