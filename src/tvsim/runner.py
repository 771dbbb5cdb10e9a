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
  checkpoint.bin/.txt  restartable state at the configured checkpoint time,
                    with the theta and v its last step began from and the
                    last contraction ratio of that step's Picard loop (the
                    restart predicts its first step and that step's first
                    CG tolerance from them, as the uninterrupted run does),
                    the grid dims and the hash of the physics config

manifest.json, the checkpoint and the snapshots are written through a
temporary file and os.replace, so a killed run never leaves a partial one,
and a run first removes the manifest an earlier run left in its directory.
A restart is refused unless the run's config matches the checkpoint's outside
the sections in _RESTART_FREE, and a checkpoint.bin without the step start
(the older five-field layout) is refused too.

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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, mms
from .diagnostics import (Diagnostics, WindowSample, log_entropy_inequality,
                          theta_infinity, window_metrics)
from .errors import AdmissibilityError, ConfigError
from .grid import read_snapshot, write_atomic, write_snapshot
from .integrator import CallableForcing, FieldState, Integrator
from .scenarios import (admissibility, build_scenario, builtin_scenarios,
                        canonical_json)

_FMT = "{:.17g}"
_ENERGY_TOL_REL = 1e-9  # energy residual allowed above zero, times F(0)
_INEQ_TOL_REL = 1e-8    # entropy shortfall allowed, times (1 + |S|)
# config sections a restart may change: they name the run, steer its output
# and set where it ends, but leave the physics of the checkpoint alone
_RESTART_FREE = ("name", "output", "t_final")
_CHECKPOINT_KEYS = ("config_hash", "nx", "ny", "t", "dt_prev", "rho",
                    "f0_ref", "work_f", "work_g", "eps_diss", "step_index")
# checkpoint.bin: u, v and theta, then theta and v where the last step began
_CHECKPOINT_FIELDS = 8
# StepReport iteration counts the manifest totals over a run's steps
_ITERATION_KEYS = ("picard_iters", "cg_iters_velocity", "cg_iters_heat",
                   "wasted_picard", "wasted_cg_velocity", "wasted_cg_heat")


def _fmt_row(values):
    return ",".join(_FMT.format(float(v)) for v in values)


def config_hash(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def _physics_hash(config):
    return config_hash({k: v for k, v in config.items() if k not in _RESTART_FREE})


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
    f0_ref = integ.total_energy(state)
    work_f = work_g = eps_diss = 0.0
    step_index = 0
    wrote_checkpoint = restart_from is not None
    if restart_from is not None:
        state, (theta_start, v_start), extra = _load_checkpoint(
            restart_from, g, _physics_hash(scenario.config))
        integ.resume(state, theta_start, v_start, extra["dt_prev"], extra["rho"])
        f0_ref = extra["f0_ref"]
        work_f, work_g = extra["work_f"], extra["work_g"]
        eps_diss = extra["eps_diss"]
        step_index = int(extra["step_index"])
    state.validate(g)

    energy_tol = _ENERGY_TOL_REL * max(f0_ref, 1e-300)

    theta0 = state.theta.copy()
    theta0_dev = g.integrate(np.abs(theta0 - g.integrate(theta0) / g.area))

    windows = _WindowStore(plan.window_starts, t_final)
    records = []
    csv_rows = []
    violations = Counter(energy=0, entropy_monotone=0, entropy_balance=0,
                         log_entropy=0)
    rejections = Counter()
    iterations = Counter(dict.fromkeys(_ITERATION_KEYS, 0))
    min_theta_run = float(state.theta.min()) if restart_from else math.inf
    u_norm_max = 0.0
    pending_snapshots = sorted(t for t in plan.snapshot_times if t > state.t + 1e-12)

    rec = diag.record(state, integ.ledger(state, scenario.forcing.g(state.t, g)))
    last_rec = rec
    if restart_from is None:
        records.append(rec)
        csv_rows.append(rec.as_row())
        windows.offer(state.t, state.theta, rec.v_l1)
        u_norm_max = rec.u_norm

    while state.t < t_final - 1e-12:
        dt_request = t_final - state.t
        state, rep = integ.step(state, scenario.forcing, dt_request=dt_request)
        step_index += 1
        rejections.update(_rejection_kind(r) for r in rep.rejection_reasons)
        iterations.update({key: getattr(rep, key) for key in _ITERATION_KEYS})
        work_f += rep.work_f
        work_g += rep.work_g
        eps_diss += rep.eps_dissipation
        min_theta_run = min(min_theta_run, rep.min_theta)

        corner = None
        if step_index % plan.record_every == 0 or state.t >= t_final - 1e-12:
            rec = diag.record(state, rep)
            corner = log_entropy_inequality(last_rec, rec, state.t - last_rec.t,
                                            scenario.tensors, scenario.d_diff,
                                            g.area, scenario.m_shift,
                                            rel_tol=_INEQ_TOL_REL)
            records.append(rec)
            csv_rows.append(rec.as_row())
            windows.offer(state.t, state.theta, rec.v_l1)
            u_norm_max = max(u_norm_max, rec.u_norm)
            last_rec = rec
        violations.update(_broken_laws(rep, corner, energy_tol))

        while pending_snapshots and state.t >= pending_snapshots[0] - 1e-12:
            t_snap = pending_snapshots.pop(0)
            _write_state(os.path.join(outdir, f"snapshot_t{t_snap:.6f}.bin"), state)
        if (not wrote_checkpoint and plan.checkpoint_time is not None
                and state.t >= plan.checkpoint_time - 1e-12):
            _write_checkpoint(outdir, state, integ.last_step, g,
                              _physics_hash(scenario.config),
                              [("dt_prev", integ.dt_prev),
                               ("rho", integ.last_step.rho), ("f0_ref", f0_ref),
                               ("work_f", work_f), ("work_g", work_g),
                               ("eps_diss", eps_diss),
                               ("step_index", step_index)])
            wrote_checkpoint = True

    # -- large-time limits and windows ----------------------------------
    tail = [r for r in records if r.t >= t_final - 1.0 - 1e-9]
    if len(tail) < 10:
        tail = records[-10:]
    limits = theta_infinity(tail, scenario.model, g.area,
                            energy_budget=f0_ref + work_f + work_g)
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
               records[0].field_names(), csv_rows)
    _write_csv(os.path.join(outdir, "windows.csv"),
               ["t0", "w_theta_half", "w_theta_1", "w_ut", "theta_inf", "L"],
               [[w.t0, w.w_theta_half, w.w_theta_1, w.w_ut, w.theta_inf, w.L]
                for w in window_rows])
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        fh.write(canonical_json(scenario.config))

    manifest = {
        "name": scenario.name,
        "code_version": __version__,
        "config_hash": config_hash(scenario.config),
        "kappa_hypotheses": scenario.model_raw.classify().as_dict(),
        "admissibility": {"passed": adm.passed,
                          "K_integral": adm.K_integral,
                          "cells_below_floor": adm.cells_below_floor},
        "run": {
            "steps": step_index, "rejections": rejections.total(),
            "rejection_reasons": dict(rejections), **iterations,
            "t_final": state.t, "F0": f0_ref, "F_final": rec_final.F,
            "S_final": rec_final.S, "work_f_total": work_f,
            "work_g_total": work_g, "eps_dissipation_total": eps_diss,
            "min_theta": min_theta_run,
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
            "u_norm_final": rec_final.u_norm, "u_norm_max": u_norm_max,
            "theta_final_l1_dist": theta_final_dist,
            "theta_initial_deviation": theta0_dev,
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


def _write_state(path, state):
    write_snapshot(path, state.t, _state_fields(state))


def _write_checkpoint(outdir, state, last, grid, physics_hash, values):
    """state, where last (the step that ended at it) began, and the run's
    totals; a restart needs the start to predict its first step."""
    write_snapshot(os.path.join(outdir, "checkpoint.bin"), state.t,
                   _state_fields(state) + [last.theta_start, last.v_start[..., 0],
                                           last.v_start[..., 1]])
    lines = [f"config_hash={physics_hash}", f"nx={grid.nx}", f"ny={grid.ny}"]
    lines += [f"{key}={_FMT.format(val)}" for key, val in [("t", state.t)] + values]
    write_atomic(os.path.join(outdir, "checkpoint.txt"),
                 "".join(line + "\n" for line in lines).encode())


def _load_checkpoint(prefix, grid, physics_hash):
    """State, (theta, v) where the step that ended at it began, and run
    totals of a checkpoint written under the same physics."""
    if os.path.isdir(prefix):
        prefix = os.path.join(prefix, "checkpoint")
    extra = {}
    try:
        with open(prefix + ".txt") as fh:
            for line in fh:
                key, val = line.strip().split("=")
                extra[key] = val if key == "config_hash" else float(val)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{prefix}.txt: unreadable checkpoint ({exc})") from exc
    missing = [key for key in _CHECKPOINT_KEYS if key not in extra]
    if missing:
        raise ConfigError(f"{prefix}.txt: checkpoint misses {', '.join(missing)}")
    for key, val in extra.items():
        if key != "config_hash" and not math.isfinite(val):
            raise ConfigError(f"{prefix}.txt: checkpoint value {key}={val} is not finite")
    if (extra["nx"], extra["ny"]) != (grid.nx, grid.ny):
        raise ConfigError(f"{prefix}.txt: checkpoint grid is "
                          f"{extra['nx']:g}x{extra['ny']:g}, the run's is "
                          f"{grid.nx}x{grid.ny}")
    if extra["config_hash"] != physics_hash:
        raise ConfigError(f"{prefix}.txt: checkpoint was written under a "
                          "different config (outside "
                          f"{'/'.join(_RESTART_FREE)}); refusing to restart")
    t, fields = read_snapshot(prefix + ".bin")
    if len(fields) != _CHECKPOINT_FIELDS:
        raise ConfigError(f"{prefix}.bin: checkpoint holds {len(fields)} fields, "
                          f"expected {_CHECKPOINT_FIELDS} (u, v, theta, and "
                          "theta and v where the last step began)")
    names = ("u_x", "u_y", "v_x", "v_y", "theta", "theta_start", "v_start_x",
             "v_start_y")
    for name, f in zip(names, fields):
        if not np.isfinite(f).all():
            raise ConfigError(f"{prefix}.bin: checkpoint field {name} is not finite")
    u = np.stack([fields[0], fields[1]], axis=-1)
    v = np.stack([fields[2], fields[3]], axis=-1)
    state = FieldState(u=u, v=v, theta=fields[4], t=t)
    return state, (fields[5], np.stack([fields[6], fields[7]], axis=-1)), extra


# -- sweeps ------------------------------------------------------------------

def _set_by_path(cfg, path, value):
    keys = path.split(".")
    node = cfg
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _sweep_worker(args):
    config, outdir = args
    try:
        manifest = run(config, outdir)
        return {"status": "ok", "manifest": manifest, "outdir": outdir}
    except Exception as exc:  # failures are recorded, the sweep continues
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}",
                "outdir": outdir}


def sweep(config, axis, values, outdir, workers=1):
    """Independent runs along one config axis; writes a comparison CSV.

    An empty axis value list degenerates to a single run of the base config.
    """
    os.makedirs(outdir, exist_ok=True)
    jobs = []
    if not values:
        jobs.append((copy.deepcopy(config), os.path.join(outdir, "base")))
    for k, val in enumerate(values):
        cfg = copy.deepcopy(config)
        _set_by_path(cfg, axis, val)
        cfg["name"] = f"{cfg.get('name', 'run')}[{axis}={val}]"
        jobs.append((cfg, os.path.join(outdir, f"member_{k}")))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(job) for job in jobs]

    rows = []
    for (cfg, member_dir), res in zip(jobs, results):
        if res["status"] == "ok":
            man = res["manifest"]
            rows.append([member_dir, "ok", man["violations"]["total"],
                         man["limits"]["theta_inf"],
                         man["run"]["F0"] - man["run"]["F_final"],
                         man["run"]["eps_dissipation_total"]])
        else:
            rows.append([member_dir, res["error"], "", "", "", ""])
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
    from .grid import Grid
    from .integrator import SolverConfig

    g = Grid(nx, nx, scenario.grid.Lx, scenario.grid.Ly)
    if dt is None:
        dt = dt_over_h2 * g.hx ** 2
    cfg = SolverConfig(dt0=dt, dt_min=min(dt, 1e-7), dt_max=dt, eps_reg=0.0)
    integ = Integrator(g, scenario.tensors, scenario.model,
                       cfg).set_diffusivity(scenario.d_diff)
    forcing = CallableForcing(problem.forcing_f, problem.forcing_g, "manufactured")
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
