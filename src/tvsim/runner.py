"""Run orchestration: stepping loop, per-step checks, files and manifests.

A run produces, inside its output directory:

  config.json       the fully resolved scenario (canonical form)
  diagnostics.csv   one row per record, fixed header, 17-significant-digit
                    floats (byte-identical across repeated runs)
  windows.csv       unit-window stabilization metrics per window start
  manifest.json     summary: limits, violation counts, rejected step attempts
                    counted by reason, Picard/CG iteration totals of the
                    accepted and (wasted) rejected attempts, stabilization
  snapshot_*.bin    binary field snapshots (u, v, theta) at requested times
  checkpoint.bin    restartable state at the configured checkpoint time, and
                    the theta and v its last step began from
  checkpoint.json   that state's time, grid and physics-config hash, the dt
                    and last Picard contraction ratio of its last step (with
                    the step start, a restart takes its first step as the
                    uninterrupted run does) and the run's tally

The tally is the one mapping of the run's totals, keyed as the manifest
reports them.  The steps and records feed it, the manifest's run, violations
and stabilization sections print it, and a restart loads it back, so a
resumed run reports the whole run.  A window, or the final unit behind the
limits, that starts before the checkpoint state cannot be recomputed: the
window is skipped, and the limits use the records from that state on.

manifest.json, the checkpoint files and the snapshots are written through a
temporary file and os.replace, so a killed run never leaves a partial one,
and a run first removes the manifest an earlier run left in its directory.
A restart is refused unless the run's config matches the checkpoint's outside
the sections in _RESTART_FREE and its two files hold one valid checkpoint:
eight finite fields, every key of a fresh checkpoint.json, and one time.

Violations are counted per accepted step by one function, _broken_laws, fed
by the integrator's ledger: an energy residual above +_ENERGY_TOL_REL * F(0),
an entropy decrease or entropy-balance deficit beyond _INEQ_TOL_REL slack, or
a failed log-weighted entropy inequality between the records the step
closes.  The exit status of the CLI is nonzero unless the count is zero.
Both slacks are constants: the integrator keeps the laws to its fixed solver
tolerances, far inside them, so a wider slack could only hide a broken step.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os

import numpy as np

from . import __version__, mms
from .diagnostics import (Diagnostics, WindowSample, log_entropy_inequality,
                          theta_infinity, window_metrics)
from .errors import AdmissibilityError, ConfigError, _number, _section
from .grid import Grid, read_snapshot, write_atomic, write_snapshot
from .integrator import CallableForcing, FieldState, Integrator, SolverConfig
from .scenarios import (_reject_non_finite, admissibility, build_scenario,
                        builtin_scenarios, canonical_json)

_FMT = "{:.17g}"
_ENERGY_TOL_REL = 1e-9  # energy residual allowed above zero, times F(0)
_INEQ_TOL_REL = 1e-8    # entropy shortfall allowed, times (1 + |S|)
# config sections a restart may change: they name the run, steer its output
# and set where it ends, but leave the physics of the checkpoint alone
_RESTART_FREE = ("name", "output", "t_final")
# checkpoint.bin: u, v and theta, then theta and v where the last step began
_CHECKPOINT_FIELDS = 8
# the tally's sums over the accepted steps: its key -> the StepReport
# attribute; the *_total sums are floats, the others iteration counts
_STEP_SUMS = {**{key: key for key in ("picard_iters", "cg_iters_velocity",
                                      "cg_iters_heat", "wasted_picard",
                                      "wasted_cg_velocity", "wasted_cg_heat")},
              "work_f_total": "work_f", "work_g_total": "work_g",
              "eps_dissipation_total": "eps_dissipation"}


def _fmt_row(values):
    return ",".join(_FMT.format(float(v)) for v in values)


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _physics_hash(config):
    return config_hash({k: v for k, v in config.items() if k not in _RESTART_FREE})


def _new_tally(f0, theta_deviation):
    """The tally of a run before its first step; a checkpoint's tally must
    have its keys and the types of its values."""
    return {"steps": 0,
            **{key: 0.0 if key.endswith("_total") else 0 for key in _STEP_SUMS},
            "rejection_reasons": {},
            "violations": dict.fromkeys(("energy", "entropy_monotone",
                                         "entropy_balance", "log_entropy"), 0),
            "min_theta": math.inf, "u_norm_max": 0.0, "F0": f0,
            "theta_initial_deviation": theta_deviation}


def _tally_step(tally, rep):
    """Add the accepted step of rep to the tally (its violations aside)."""
    tally["steps"] += 1
    for key, attr in _STEP_SUMS.items():
        tally[key] += getattr(rep, attr)
    reasons = tally["rejection_reasons"]
    for kind in map(_rejection_kind, rep.rejection_reasons):
        reasons[kind] = reasons.get(kind, 0) + 1
    tally["min_theta"] = min(tally["min_theta"], rep.min_theta)


def _broken_laws(rep, corner, energy_tol):
    """Manifest names of the laws that the step of rep breaks; corner is the
    log-entropy check of the record the step closes, None if not recorded."""
    tol = _INEQ_TOL_REL
    broken = {
        "energy": rep.energy_residual > energy_tol,
        "entropy_monotone": rep.S - rep.S_old < -tol * (1.0 + abs(rep.S_old)),
        "entropy_balance": rep.entropy_residual < -tol * (1.0 + abs(rep.S)),
        "log_entropy": corner is not None and not corner["holds"],
    }
    return [law for law, failed in broken.items() if failed]


def _rejection_kind(reason):
    """A rejection message without its node, dt or number details."""
    return reason.split(" (", 1)[0].split(" at ", 1)[0]


class _WindowStore:
    """Keeps temperature snapshots near the requested unit windows."""

    def __init__(self, starts, t_final):
        starts = sorted(set(list(starts) + ([max(0.0, t_final - 1.0)])))
        self.ranges = [(s - 0.06, s + 1.06) for s in starts]
        self.starts = starts
        self.samples = []

    def offer(self, t, theta, v_l1):
        if any(lo <= t <= hi for lo, hi in self.ranges):
            self.samples.append(WindowSample(t=t, theta=theta.copy(), v_l1=v_l1))

    def for_start(self, s):
        return [w for w in self.samples if s - 0.06 <= w.t <= s + 1.06]


def run(config, outdir, restart_from=None):
    """Execute one scenario; returns the manifest dict (also written to disk).

    Aborts with AdmissibilityError before stepping when the initial data
    fail the admissibility check for the configured heat-capacity law.
    """
    scenario = build_scenario(config)
    os.makedirs(outdir, exist_ok=True)
    manifest_path = os.path.join(outdir, "manifest.json")
    # the manifest marks a finished run; one left by an earlier run goes
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    adm = admissibility(scenario)
    if not adm.passed:
        raise AdmissibilityError(
            "initial data rejected: " + "; ".join(adm.reasons()))

    g = scenario.grid
    integ = Integrator(g, scenario.tensors, scenario.model,
                       scenario.solver).set_diffusivity(scenario.d_diff)
    diag = Diagnostics(g, scenario.tensors, scenario.model, scenario.d_diff,
                       scenario.m_shift)
    plan = scenario.output
    t_final = scenario.t_final

    state = scenario.initial
    if restart_from is None:
        theta0 = state.theta
        tally = _new_tally(integ.total_energy(state), g.integrate(
            np.abs(theta0 - g.integrate(theta0) / g.area)))
    else:
        state, start, dt_prev, rho, tally = _load_checkpoint(
            restart_from, g, _physics_hash(scenario.config))
        integ.resume(state, *start, dt_prev, rho)
    state.validate(g)
    energy_tol = _ENERGY_TOL_REL * max(tally["F0"], 1e-300)

    windows = _WindowStore(plan.window_starts, t_final)
    records = []

    def keep(rec):
        records.append(rec)
        windows.offer(state.t, state.theta, rec.v_l1)
        tally["u_norm_max"] = max(tally["u_norm_max"], rec.u_norm)
        return rec

    pending_snapshots = sorted(t for t in plan.snapshot_times if t > state.t + 1e-12)
    wrote_checkpoint = restart_from is not None

    # the start state's record, kept when the uninterrupted run recorded that
    # state (a fresh run always does); its CSV row is the earlier run's
    last_rec = diag.record(state, integ.ledger(state, scenario.forcing.g(state.t, g)))
    if tally["steps"] % plan.record_every == 0:
        keep(last_rec)
    first_row = len(records) if restart_from is not None else 0

    while state.t < t_final - 1e-12:
        # land on the next snapshot or checkpoint time rather than step past it
        stops = pending_snapshots[:1]
        if (not wrote_checkpoint and plan.checkpoint_time is not None
                and plan.checkpoint_time > state.t + 1e-12):
            stops.append(plan.checkpoint_time)
        state, rep = integ.step(state, scenario.forcing, dt_request=t_final - state.t,
                                t_stop=min(stops, default=None))
        _tally_step(tally, rep)

        corner = None
        if tally["steps"] % plan.record_every == 0 or state.t >= t_final - 1e-12:
            rec = diag.record(state, rep)
            corner = log_entropy_inequality(last_rec, rec, state.t - last_rec.t,
                                            scenario.tensors, scenario.d_diff,
                                            g.area, scenario.m_shift,
                                            rel_tol=_INEQ_TOL_REL)
            last_rec = keep(rec)
        for law in _broken_laws(rep, corner, energy_tol):
            tally["violations"][law] += 1

        while pending_snapshots and state.t >= pending_snapshots[0] - 1e-12:
            t_snap = pending_snapshots.pop(0)
            write_snapshot(os.path.join(outdir, f"snapshot_t{t_snap:.6f}.bin"),
                           state.t, _state_fields(state))
        if (not wrote_checkpoint and plan.checkpoint_time is not None
                and state.t >= plan.checkpoint_time - 1e-12):
            _write_checkpoint(outdir, state, integ, _physics_hash(scenario.config),
                              tally)
            wrote_checkpoint = True

    # -- large-time limits and windows ----------------------------------
    tail = [r for r in records if r.t >= t_final - 1.0 - 1e-9]
    if len(tail) < 10:
        tail = records[-10:]
    limits = theta_infinity(tail, scenario.model, g.area,
                            energy_budget=tally["F0"] + tally["work_f_total"]
                            + tally["work_g_total"])
    window_rows = []
    windows_skipped = []
    for s in windows.starts:
        try:
            wm = window_metrics(windows.for_start(s), g, s, limits.theta_inf,
                                L=limits.L)
            window_rows.append(wm)
        except ConfigError as exc:
            windows_skipped.append({"t0": s, "reason": str(exc)})

    theta_final_dist = g.integrate(np.abs(state.theta - limits.theta_inf))
    rec_final = records[-1]

    _write_csv(os.path.join(outdir, "diagnostics.csv"),
               records[0].field_names(),
               [r.as_row() for r in records[first_row:]])
    _write_csv(os.path.join(outdir, "windows.csv"),
               ["t0", "w_theta_half", "w_theta_1", "w_ut", "theta_inf", "L"],
               [[w.t0, w.w_theta_half, w.w_theta_1, w.w_ut, w.theta_inf, w.L]
                for w in window_rows])
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        fh.write(canonical_json(scenario.config))

    violations = tally["violations"]
    manifest = {
        "name": scenario.name,
        "code_version": __version__,
        "config_hash": config_hash(scenario.config),
        "kappa_hypotheses": scenario.model_raw.classify().as_dict(),
        "admissibility": {"passed": adm.passed,
                          "K_integral": adm.K_integral,
                          "cells_below_floor": adm.cells_below_floor},
        "run": {
            **{k: v for k, v in tally.items() if k not in
               ("violations", "u_norm_max", "theta_initial_deviation")},
            "rejections": sum(tally["rejection_reasons"].values()),
            "t_final": state.t, "F_final": rec_final.F, "S_final": rec_final.S,
        },
        "violations": {**violations, "total": sum(violations.values())},
        "limits": {"L": limits.L, "theta_inf": limits.theta_inf,
                   "theta_inf_energy": limits.theta_inf_energy,
                   "converged": limits.converged},
        # the simulator works in the regularized regime, where the energy
        # balance holds with no singular temperature part
        "defect_measure": "assumed zero",
        "windows": [{"t0": w.t0, "w_theta_half": w.w_theta_half,
                     "w_theta_1": w.w_theta_1, "w_ut": w.w_ut}
                    for w in window_rows],
        "windows_skipped": windows_skipped,
        "stabilization": {
            "u_norm_final": rec_final.u_norm,
            "u_norm_max": tally["u_norm_max"],
            "theta_final_l1_dist": theta_final_dist,
            "theta_initial_deviation": tally["theta_initial_deviation"],
        },
    }
    write_atomic(manifest_path,
                 (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(_fmt_row(row) + "\n")


def _state_fields(state):
    return [state.u[..., 0], state.u[..., 1], state.v[..., 0], state.v[..., 1],
            state.theta]


def _sidecar(physics_hash, grid, t, dt_prev, rho, tally):
    """checkpoint.json: the physics, grid and time of the state, the dt and
    last contraction ratio of the step that ended at it, and the run's tally."""
    return {"config_hash": physics_hash, "nx": grid.nx, "ny": grid.ny, "t": t,
            "dt_prev": dt_prev, "rho": rho, "tally": tally}


def _write_checkpoint(outdir, state, integ, physics_hash, tally):
    """state and where its last step began, in checkpoint.bin, beside its
    checkpoint.json."""
    last = integ.last_step
    write_snapshot(os.path.join(outdir, "checkpoint.bin"), state.t,
                   _state_fields(state) + [last.theta_start, last.v_start[..., 0],
                                           last.v_start[..., 1]])
    doc = _sidecar(physics_hash, integ.grid, state.t, integ.dt_prev, last.rho, tally)
    write_atomic(os.path.join(outdir, "checkpoint.json"),
                 (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def _checked(val, like, path):
    """val, the checkpoint value at path, checked against like, the value of
    a fresh checkpoint: a mapping with its keys (any keys if it is empty), a
    number of its type, or any string."""
    if isinstance(like, str):
        return val
    if not isinstance(like, dict):
        return _number(val, path, integral=isinstance(like, int))
    missing = [key for key in like if key not in _section(val, path, like or None)]
    if missing:
        raise ConfigError(f"{path} misses {', '.join(missing)}")
    return {key: _checked(v, like.get(key, 0), f"{path}.{key}")
            for key, v in val.items()}


def _load_checkpoint(prefix, grid, physics_hash):
    """State, (theta, v) where the step that ended at it began, that step's
    dt and last contraction ratio, and the run's tally, of a checkpoint
    written under the same physics."""
    if os.path.isdir(prefix):
        prefix = os.path.join(prefix, "checkpoint")
    path = prefix + ".json"
    try:
        with open(path) as fh:
            doc = json.load(fh)
        _reject_non_finite(doc, "checkpoint")
        doc = _checked(doc, _sidecar("", grid, 0.0, 0.0, 0.0, _new_tally(0.0, 0.0)),
                       "checkpoint")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable checkpoint ({exc})") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if (doc["nx"], doc["ny"]) != (grid.nx, grid.ny):
        raise ConfigError(f"{path}: checkpoint grid is {doc['nx']}x{doc['ny']}, "
                          f"the run's is {grid.nx}x{grid.ny}")
    if doc["config_hash"] != physics_hash:
        raise ConfigError(f"{path}: checkpoint was written under a "
                          "different config (outside "
                          f"{'/'.join(_RESTART_FREE)}); refusing to restart")
    t, fields = read_snapshot(prefix + ".bin")
    if t != doc["t"]:
        raise ConfigError(f"{prefix}.bin holds the state at t = {t!r}, but "
                          f"{path} was written at t = {doc['t']!r}; the two "
                          "files come from different checkpoints")
    if len(fields) != _CHECKPOINT_FIELDS:
        raise ConfigError(f"{prefix}.bin: checkpoint holds {len(fields)} fields, "
                          f"expected {_CHECKPOINT_FIELDS} (u, v, theta, and "
                          "theta and v where the last step began)")
    names = ("u_x", "u_y", "v_x", "v_y", "theta", "theta_start", "v_start_x",
             "v_start_y")
    for name, f in zip(names, fields):
        if not np.isfinite(f).all():
            raise ConfigError(f"{prefix}.bin: checkpoint field {name} is not finite")
    ux, uy, vx, vy, theta, theta_start, sx, sy = fields
    state = FieldState(u=np.stack([ux, uy], axis=-1), v=np.stack([vx, vy], axis=-1),
                       theta=theta, t=t)
    return (state, (theta_start, np.stack([sx, sy], axis=-1)), doc["dt_prev"],
            doc["rho"], doc["tally"])


# -- sweeps ------------------------------------------------------------------

def _set_by_path(cfg, path, value):
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def sweep(config, axis, values, outdir):
    """Independent runs along one config axis, one after another; writes a
    comparison CSV.

    An empty axis value list degenerates to a single run of the base config.
    """
    os.makedirs(outdir, exist_ok=True)
    jobs = [] if values else [(copy.deepcopy(config), os.path.join(outdir, "base"))]
    for k, val in enumerate(values):
        cfg = copy.deepcopy(config)
        _set_by_path(cfg, axis, val)
        cfg["name"] = f"{cfg.get('name', 'run')}[{axis}={val}]"
        jobs.append((cfg, os.path.join(outdir, f"member_{k}")))

    results, rows = [], []
    for cfg, member_dir in jobs:
        try:
            man = run(cfg, member_dir)
        except Exception as exc:  # failures are recorded, the sweep continues
            error = f"{type(exc).__name__}: {exc}"
            results.append({"status": "error", "error": error, "outdir": member_dir})
            rows.append([member_dir, error, "", "", "", ""])
            continue
        results.append({"status": "ok", "manifest": man, "outdir": member_dir})
        rows.append([member_dir, "ok", man["violations"]["total"],
                     man["limits"]["theta_inf"],
                     man["run"]["F0"] - man["run"]["F_final"],
                     man["run"]["eps_dissipation_total"]])
    with open(os.path.join(outdir, "comparison.csv"), "w") as fh:
        fh.write("member,status,violations,theta_inf,F_drop,eps_dissipation\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return results


# -- convergence studies -------------------------------------------------

def convergence_study(config, levels=3, base_nx=8, dt_over_h2=8.0,
                      temporal_nx=24, temporal_dts=(0.04, 0.02, 0.01),
                      temporal_dt_ref=1e-3, t_final=1.0):
    """Manufactured-solution convergence orders of the full scheme.

    The study builds one manufactured problem, which no grid or dt changes.
    Spatial: grids double from base_nx with dt slaved to h^2, so the total
    error scales like h^2 when the scheme is second order in space and first
    order in time.  Temporal: one grid, errors measured against a small-dt
    reference trajectory on the same grid, isolating the O(dt) error.
    """
    if levels < 3:
        raise ConfigError("convergence study needs at least 3 levels")

    scenario = build_scenario(config)
    if scenario.model_raw.describe().get("variant") != "constant":
        raise ConfigError("convergence study needs a constant heat capacity")
    problem = mms.ManufacturedProblem(scenario.tensors, scenario.model_raw.k0,
                                      scenario.d_diff, lx=scenario.grid.Lx,
                                      ly=scenario.grid.Ly, t_final=t_final,
                                      amp_u=0.08, amp_theta=0.25)

    spatial_rows = []
    for lev in range(levels):
        nx = base_nx * 2 ** lev
        spatial_rows.append(_mms_run(scenario, problem, nx, None, dt_over_h2))
    for prev, cur in zip(spatial_rows[:-1], spatial_rows[1:]):
        cur["order_u"] = math.log2(prev["err_u"] / cur["err_u"]) \
            if cur["err_u"] > 0 and prev["err_u"] > 0 else math.inf
        cur["order_theta"] = math.log2(prev["err_theta"] / cur["err_theta"]) \
            if cur["err_theta"] > 0 and prev["err_theta"] > 0 else math.inf
    monotone = all(a["err_u"] >= b["err_u"] and a["err_theta"] >= b["err_theta"]
                   for a, b in zip(spatial_rows[:-1], spatial_rows[1:]))

    ref = _mms_run(scenario, problem, temporal_nx, temporal_dt_ref, keep_state=True)
    temporal_rows = []
    for dt in temporal_dts:
        sub = _mms_run(scenario, problem, temporal_nx, dt, keep_state=True)
        du = sub["state"].u - ref["state"].u
        dth = sub["state"].theta - ref["state"].theta
        gsub = sub["grid"]
        err = math.sqrt(gsub.integrate(du[..., 0] ** 2 + du[..., 1] ** 2)
                        + gsub.integrate(dth ** 2))
        temporal_rows.append({"dt": dt, "err": err})
    for prev, cur in zip(temporal_rows[:-1], temporal_rows[1:]):
        cur["order"] = math.log2(prev["err"] / cur["err"])

    spatial_out = [{k: v for k, v in row.items() if k not in ("state", "grid")}
                   for row in spatial_rows]
    return {
        "spatial": spatial_out,
        "temporal": [{k: v for k, v in row.items()} for row in temporal_rows],
        "spatial_monotone": monotone,
        "spatial_order": spatial_out[-1].get("order_u"),
        "spatial_order_theta": spatial_out[-1].get("order_theta"),
        "temporal_order": temporal_rows[-1].get("order"),
    }


def _mms_run(scenario, problem, nx, dt, dt_over_h2=None, keep_state=False):
    g = Grid(nx, nx, scenario.grid.Lx, scenario.grid.Ly)
    if dt is None:
        dt = dt_over_h2 * g.hx ** 2
    cfg = SolverConfig(dt_min=min(dt, 1e-7), dt_max=dt, eps_reg=0.0)
    integ = Integrator(g, scenario.tensors, scenario.model,
                       cfg).set_diffusivity(scenario.d_diff)
    forcing = CallableForcing(problem.forcing_f, problem.forcing_g)
    state = problem.initial_state(g)
    while state.t < problem.t_final - 1e-12:
        state, _ = integ.step(state, forcing, dt_request=problem.t_final - state.t)
    err_u, err_theta = problem.errors(state, g)
    row = {"nx": nx, "h": g.hx, "dt": dt, "err_u": err_u, "err_theta": err_theta}
    if keep_state:
        row["state"] = state
        row["grid"] = g
    return row


__all__ = ["run", "sweep", "convergence_study", "builtin_scenarios",
            "config_hash"]
