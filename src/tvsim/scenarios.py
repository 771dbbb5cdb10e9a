"""Scenario configuration: parsing, validation and the built-in library.

A scenario is one self-contained mapping (stored as JSON) with sections
grid / tensors / material / forcing / initial / solver / output plus the
final time.  Everything a run needs is captured here so the manifest can
reproduce the experiment exactly.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import materials
from .errors import ConfigError
from .grid import Grid
from .integrator import (CallableForcing, FieldState, Forcing, PulseForcing,
                         SolverConfig, ZeroForcing)
from .tensors import ElasticityTensors, tensors_from_config

_SOLVER_KEYS = {f: None for f in SolverConfig.__dataclass_fields__}


@dataclass
class OutputPlan:
    record_every: int = 1
    snapshot_times: tuple = ()
    window_starts: tuple = ()
    checkpoint_time: float | None = None
    theta_floor: float = 0.0
    energy_tol_rel: float = 1e-9   # slack on the energy balance, times F(0)
    ineq_tol_rel: float = 1e-8     # slack on per-step entropy inequalities

    def validate(self):
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if self.energy_tol_rel <= 0 or self.ineq_tol_rel <= 0:
            raise ConfigError("tolerances must be positive")


@dataclass
class Scenario:
    """Fully materialized run setup."""

    name: str
    config: dict
    grid: Grid
    tensors: ElasticityTensors
    model_raw: materials.HeatCapacity
    model: materials.HeatCapacity
    d_diff: float
    m_shift: float
    eps_kappa: float
    forcing: Forcing
    initial: FieldState
    solver: SolverConfig
    output: OutputPlan
    t_final: float


def _section(val, path):
    """val, the config section at path, which must be a JSON object."""
    if not isinstance(val, dict):
        raise ConfigError(f"config section {path} must be an object, got {val!r}")
    return val


def _number(val, path, integral=False):
    """val, the config value at path, as a float (an int if integral)."""
    if (not isinstance(val, numbers.Real) or isinstance(val, bool)
            or (integral and val != int(val))):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"config key {path} must be {kind}, got {val!r}")
    return int(val) if integral else float(val)


def _theta_profile(grid, spec):
    kind = spec.get("type", "constant")
    def num(key, default):
        return _number(spec.get(key, default), f"initial.theta.{key}")
    if kind == "constant":
        return np.full((grid.ny, grid.nx), num("value", 1.0))
    cx = num("cx", 0.5 * grid.Lx)
    cy = num("cy", 0.5 * grid.Ly)
    r2 = (grid.X - cx) ** 2 + (grid.Y - cy) ** 2
    if kind == "hotspot":
        base = num("base", 1.0)
        peak = num("peak", 2.0)
        width = num("width", 0.12)
        return base + (peak - base) * np.exp(-r2 / (2.0 * width ** 2))
    if kind == "with_zeros":
        # smooth profile that touches zero with zero slope outside a disc
        peak = num("peak", 2.0)
        width = num("width", 0.18)
        clip = num("clip", 0.4)
        if not 0.0 < clip < 1.0:
            raise ConfigError("with_zeros profile needs clip in (0, 1)")
        bump = np.exp(-r2 / (2.0 * width ** 2))
        return peak * (np.maximum(bump - clip, 0.0) / (1.0 - clip)) ** 2
    raise ConfigError(f"unknown initial temperature type {kind!r}")


def _vector_profile(grid, spec, path):
    kind = spec.get("type", "zero")
    out = np.zeros((grid.ny, grid.nx, 2))
    if kind == "zero":
        return out
    if kind == "sine":
        amp = _number(spec.get("amplitude", 0.5), f"{path}.amplitude")
        out[..., 0] = amp * np.sin(np.pi * grid.X / grid.Lx) \
            * np.sin(np.pi * grid.Y / grid.Ly)
        out[grid.boundary_mask] = 0.0
        return out
    raise ConfigError(f"unknown vector profile type {kind!r}")


def _forcing_from_config(spec):
    kind = spec.get("type", "zero")
    if kind == "zero":
        return ZeroForcing()
    if kind == "pulse":
        defaults = {"amp_f": 0.0, "t0": 1.0, "tau_f": 0.25, "amp_g": 0.0,
                    "tau_g": 1.0}
        return PulseForcing(**{key: _number(spec.get(key, val), f"forcing.{key}")
                               for key, val in defaults.items()})
    raise ConfigError(f"unknown forcing type {kind!r}")


def _reject_non_finite(node, path):
    """Raise ConfigError naming the first key that holds a NaN or infinity."""
    if isinstance(node, dict):
        for key, val in node.items():
            _reject_non_finite(val, f"{path}.{key}" if path else str(key))
    elif isinstance(node, (list, tuple)):
        for i, val in enumerate(node):
            _reject_non_finite(val, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"config key {path} must be a finite number, got {node!r}")


def build_scenario(config):
    """Materialize a config mapping into a validated Scenario."""
    cfg = copy.deepcopy(config)
    _reject_non_finite(cfg, "")
    try:
        grid_cfg = _section(cfg["grid"], "grid")
        grid = Grid(nx=_number(grid_cfg["nx"], "grid.nx", integral=True),
                    ny=_number(grid_cfg["ny"], "grid.ny", integral=True),
                    Lx=_number(grid_cfg.get("Lx", 1.0), "grid.Lx"),
                    Ly=_number(grid_cfg.get("Ly", 1.0), "grid.Ly"))
        tensors = tensors_from_config(_section(cfg["tensors"], "tensors"))
        mat = _section(cfg["material"], "material")
        model_raw = materials.model_from_config(
            _section(mat["kappa"], "material.kappa"))
        d_diff = _number(mat["D"], "material.D")
        m_shift = _number(mat.get("M") or materials.M_DEFAULT, "material.M")
        eps_kappa = _number(mat.get("eps_kappa", 0.0), "material.eps_kappa")
        t_final = _number(cfg["t_final"], "t_final")
    except KeyError as exc:
        raise ConfigError(f"config misses required key: {exc}") from exc
    if d_diff <= 0:
        raise ConfigError("diffusivity D must be positive")
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if eps_kappa < 0 or eps_kappa >= 1:
        raise ConfigError("eps_kappa must lie in [0, 1)")
    model = model_raw.floor(eps_kappa) if eps_kappa > 0 else model_raw

    solver_cfg = _section(cfg.get("solver", {}), "solver")
    unknown = set(solver_cfg) - set(_SOLVER_KEYS)
    if unknown:
        raise ConfigError(f"unknown solver keys: {sorted(unknown)}")
    solver = SolverConfig(**{
        key: _number(val, f"solver.{key}",
                     integral=isinstance(getattr(SolverConfig, key), int))
        for key, val in solver_cfg.items()})
    solver.validate()

    out_cfg = _section(cfg.get("output", {}), "output")
    output = OutputPlan(
        record_every=_number(out_cfg.get("record_every", 1),
                             "output.record_every", integral=True),
        snapshot_times=tuple(out_cfg.get("snapshot_times", ())),
        window_starts=tuple(out_cfg.get("window_starts", ())),
        checkpoint_time=out_cfg.get("checkpoint_time"),
        theta_floor=_number(out_cfg.get("theta_floor", 0.0), "output.theta_floor"),
        energy_tol_rel=_number(out_cfg.get("energy_tol_rel", 1e-9),
                               "output.energy_tol_rel"),
        ineq_tol_rel=_number(out_cfg.get("ineq_tol_rel", 1e-8), "output.ineq_tol_rel"),
    )
    output.validate()

    init_cfg = _section(cfg.get("initial", {}), "initial")
    theta0 = _theta_profile(grid, _section(
        init_cfg.get("theta", {"type": "constant"}), "initial.theta"))
    v0, u0 = (_vector_profile(grid, _section(init_cfg.get(key, {"type": "zero"}),
                                             f"initial.{key}"), f"initial.{key}")
              for key in ("velocity", "displacement"))
    initial = FieldState(u=u0, v=v0, theta=theta0, t=0.0)
    initial.validate(grid)

    forcing = _forcing_from_config(_section(cfg.get("forcing", {"type": "zero"}),
                                            "forcing"))
    _validate_heat_source(forcing, grid, t_final)

    return Scenario(name=str(cfg.get("name", "unnamed")), config=cfg, grid=grid,
                    tensors=tensors, model_raw=model_raw, model=model,
                    d_diff=d_diff, m_shift=m_shift, eps_kappa=eps_kappa,
                    forcing=forcing, initial=initial, solver=solver,
                    output=output, t_final=t_final)


def _validate_heat_source(forcing, grid, t_final):
    for t in np.linspace(0.0, t_final, 17):
        if forcing.g(float(t), grid).min() < 0.0:
            raise ConfigError(f"heat source g is negative at t = {t:g}")


def admissibility(scenario):
    """Initial-data admissibility against the unregularized law."""
    return materials.admissibility_check(
        scenario.model_raw, scenario.initial.theta, scenario.grid.weights,
        theta_floor=scenario.output.theta_floor)


def canonical_json(config):
    return json.dumps(config, sort_keys=True, indent=2)


# -- built-in library -------------------------------------------------------

def builtin_scenarios():
    """Named scenario configs; 'default-relaxation' is the acceptance run."""
    iso_unit = {"isotropic": {"lambda": 1.0, "mu": 1.0}}
    default = {
        "name": "default-relaxation",
        "grid": {"nx": 32, "ny": 32, "Lx": 1.0, "Ly": 1.0},
        "tensors": {"D": iso_unit, "C": iso_unit, "B": {"scale_identity": 0.5}},
        "material": {"kappa": {"variant": "constant", "k0": 1.0},
                     "D": 1.0, "M": None, "eps_kappa": 0.0},
        "forcing": {"type": "zero"},
        "initial": {
            "theta": {"type": "hotspot", "base": 1.0, "peak": 2.0, "width": 0.12},
            "velocity": {"type": "sine", "amplitude": 0.5},
            "displacement": {"type": "zero"},
        },
        "solver": {"dt0": 0.01, "dt_max": 0.01, "dt_min": 1e-7},
        "output": {"record_every": 1, "window_starts": [1.0, 49.0]},
        "t_final": 50.0,
    }

    pure_heat = copy.deepcopy(default)
    pure_heat.update({"name": "pure-heat", "t_final": 5.0})
    pure_heat["tensors"]["B"] = {"scale_identity": 0.0}
    pure_heat["initial"]["velocity"] = {"type": "zero"}
    pure_heat["output"]["window_starts"] = [1.0, 4.0]

    debye = copy.deepcopy(default)
    debye.update({"name": "debye-hotspot", "t_final": 5.0})
    debye["material"]["kappa"] = {"variant": "debye", "k0": 1.0, "xi_d": 1.0}
    debye["material"]["eps_kappa"] = 1e-3
    debye["initial"]["theta"] = {"type": "with_zeros", "peak": 2.0,
                                 "width": 0.18, "clip": 0.4}
    debye["initial"]["velocity"] = {"type": "zero"}
    debye["initial"]["displacement"] = {"type": "sine", "amplitude": 0.2}
    debye["output"]["window_starts"] = [1.0, 4.0]

    trivial = copy.deepcopy(default)
    trivial.update({"name": "trivial-zero", "t_final": 1.0})
    trivial["initial"] = {"theta": {"type": "constant", "value": 1.0},
                          "velocity": {"type": "zero"},
                          "displacement": {"type": "zero"}}
    trivial["output"]["window_starts"] = [0.0]

    pulsed = copy.deepcopy(default)
    pulsed.update({"name": "pulsed-forcing", "t_final": 10.0})
    pulsed["forcing"] = {"type": "pulse", "amp_f": 0.5, "t0": 1.0,
                         "tau_f": 0.25, "amp_g": 0.2, "tau_g": 1.0}
    pulsed["initial"]["velocity"] = {"type": "zero"}
    pulsed["output"]["window_starts"] = [1.0, 9.0]

    slow_decay = copy.deepcopy(default)
    slow_decay.update({"name": "slow-decay-relaxation", "t_final": 5.0})
    slow_decay["material"]["kappa"] = {"variant": "slow_decay", "k0": 1.0,
                                       "alpha": 0.5}
    slow_decay["output"]["window_starts"] = [1.0, 4.0]

    inadmissible = copy.deepcopy(default)
    inadmissible.update({"name": "inadmissible-zero-cell", "t_final": 1.0})
    inadmissible["initial"]["theta"] = {"type": "with_zeros", "peak": 2.0,
                                        "width": 0.18, "clip": 0.4}

    return {
        "default-relaxation": default,
        "pure-heat": pure_heat,
        "debye-hotspot": debye,
        "trivial-zero": trivial,
        "pulsed-forcing": pulsed,
        "slow-decay-relaxation": slow_decay,
        "inadmissible-zero-cell": inadmissible,
    }


def mms_forcing_wrapper(f_fn, g_fn, label="manufactured"):
    return CallableForcing(f_fn=f_fn, g_fn=g_fn, label=label)
