"""Scenario configuration: parsing, validation and the built-in library.

A scenario is one self-contained mapping (stored as JSON) with sections
grid / tensors / material / forcing / initial / solver / output plus the
final time.  Everything a run needs is captured here so the manifest can
reproduce the experiment exactly.

Every section refuses a key it does not take.  The grid, solver, output and
forcing sections and material.kappa are read by errors._build from the
dataclass each configures, which states each key and default once.  The
solver tolerances and the slacks of the law checks are module constants, not
keys: the laws hold only to them.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

from . import materials
from .errors import ConfigError, _build, _number, _section, _typed
from .grid import Grid
from .integrator import FieldState, Forcing, PulseForcing, SolverConfig
from .tensors import ElasticityTensors, tensors_from_config

# the keys of the sections whose keys do not depend on a type
_TOP_KEYS = ("name", "grid", "tensors", "material", "forcing", "initial",
             "solver", "output", "t_final")
_MATERIAL_KEYS = ("kappa", "D", "M", "eps_kappa")
_INITIAL_KEYS = ("theta", "velocity", "displacement")


@dataclass
class OutputPlan:
    record_every: int = 1
    snapshot_times: tuple = ()
    window_starts: tuple = ()
    checkpoint_time: float | None = None
    theta_floor: float = 0.0

    def validate(self, t_final):
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        # a time outside (0, t_final] would never be written
        times = [(f"output.snapshot_times[{i}]", t)
                 for i, t in enumerate(self.snapshot_times)]
        if self.checkpoint_time is not None:
            times.append(("output.checkpoint_time", self.checkpoint_time))
        for key, t in times:
            if not 0.0 < t <= t_final:
                raise ConfigError(f"config key {key} must lie in (0, t_final = "
                                  f"{t_final!r}], got {t!r}")


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
    forcing: Forcing
    initial: FieldState
    solver: SolverConfig
    output: OutputPlan
    t_final: float


# the keys each initial profile type takes
_THETA_KEYS = {"constant": ("value",),
               "hotspot": ("cx", "cy", "base", "peak", "width"),
               "with_zeros": ("cx", "cy", "peak", "width", "clip")}
_VECTOR_KEYS = {"zero": (), "sine": ("amplitude",)}
# the forcings that forcing.type names
_FORCINGS = {"zero": Forcing, "pulse": PulseForcing}


def _theta_profile(grid, spec):
    kind, spec = _typed(spec, "initial.theta", "type", _THETA_KEYS, "constant")
    _section(spec, "initial.theta", _THETA_KEYS[kind])
    def num(key, default):
        return _number(spec.get(key, default), f"initial.theta.{key}")
    def width(default):
        w = num("width", default)
        if not w > 0.0:
            raise ConfigError(f"config key initial.theta.width must be > 0, got {w!r}")
        return w
    if kind == "constant":
        return np.full((grid.ny, grid.nx), num("value", 1.0))
    cx = num("cx", 0.5 * grid.Lx)
    cy = num("cy", 0.5 * grid.Ly)
    r2 = (grid.X - cx) ** 2 + (grid.Y - cy) ** 2
    if kind == "hotspot":
        base = num("base", 1.0)
        peak = num("peak", 2.0)
        return base + (peak - base) * np.exp(-r2 / (2.0 * width(0.12) ** 2))
    # with_zeros: smooth profile that touches zero with zero slope outside a disc
    peak = num("peak", 2.0)
    w = width(0.18)
    clip = num("clip", 0.4)
    if not 0.0 < clip < 1.0:
        raise ConfigError("with_zeros profile needs clip in (0, 1)")
    bump = np.exp(-r2 / (2.0 * w ** 2))
    return peak * (np.maximum(bump - clip, 0.0) / (1.0 - clip)) ** 2


def _vector_profile(grid, spec, path):
    kind, spec = _typed(spec, path, "type", _VECTOR_KEYS, "zero")
    _section(spec, path, _VECTOR_KEYS[kind])
    out = np.zeros((grid.ny, grid.nx, 2))
    if kind == "sine":
        amp = _number(spec.get("amplitude", 0.5), f"{path}.amplitude")
        out[..., 0] = amp * np.sin(np.pi * grid.X / grid.Lx) \
            * np.sin(np.pi * grid.Y / grid.Ly)
        out[grid.boundary_mask] = 0.0
    return out


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
    _section(cfg, "top-level", _TOP_KEYS)
    try:
        grid = _build(Grid, cfg["grid"], "grid")
        tensors = tensors_from_config(cfg["tensors"])
        mat = _section(cfg["material"], "material", _MATERIAL_KEYS)
        model_raw = materials.model_from_config(mat["kappa"])
        d_diff = _number(mat["D"], "material.D")
        m_shift = (materials.M_MIN if mat.get("M") is None
                   else _number(mat["M"], "material.M"))
        eps_kappa = _number(mat.get("eps_kappa", 0.0), "material.eps_kappa")
        t_final = _number(cfg["t_final"], "t_final")
    except KeyError as exc:
        raise ConfigError(f"config misses required key: {exc}") from exc
    if d_diff <= 0:
        raise ConfigError("diffusivity D must be positive")
    if m_shift < materials.M_MIN - 1e-9:
        raise ConfigError(f"config key material.M must be >= e^4, got {m_shift!r}")
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if eps_kappa < 0 or eps_kappa >= 1:
        raise ConfigError("eps_kappa must lie in [0, 1)")
    model = model_raw.floor(eps_kappa) if eps_kappa > 0 else model_raw

    solver = _build(SolverConfig, cfg.get("solver", {}), "solver")
    solver.validate()
    _check_regularizer(grid, solver)

    output = _build(OutputPlan, cfg.get("output", {}), "output")
    output.validate(t_final)

    init_cfg = _section(cfg.get("initial", {}), "initial", _INITIAL_KEYS)
    theta0 = _theta_profile(grid, init_cfg.get("theta", {}))
    v0, u0 = (_vector_profile(grid, init_cfg.get(key, {}), f"initial.{key}")
              for key in ("velocity", "displacement"))
    initial = FieldState(u=u0, v=v0, theta=theta0, t=0.0)
    initial.validate(grid)

    kind, rest = _typed(cfg.get("forcing", {}), "forcing", "type", _FORCINGS, "zero")
    forcing = _build(_FORCINGS[kind], rest, "forcing")
    _validate_heat_source(forcing, grid, t_final)

    return Scenario(name=str(cfg.get("name", "unnamed")), config=cfg, grid=grid,
                    tensors=tensors, model_raw=model_raw, model=model,
                    d_diff=d_diff, m_shift=m_shift, forcing=forcing, initial=initial, solver=solver,
                    output=output, t_final=t_final)


def _check_regularizer(grid, solver):
    """Refuse an eps_reg whose regularizer overflows the velocity solve.

    Every velocity mode's 2 x 2 block carries the regularizer on its
    diagonal, largest at dt_max and the grid's largest mode, and the
    closed-form inverse of the block multiplies two diagonal entries, so the
    square of that peak must be finite.
    """
    if solver.eps_reg == 0.0:
        return
    (_, lam_x), (_, lam_y) = grid.sbp_modes()
    with np.errstate(over="ignore"):
        peak = solver.regularizer(solver.dt_max, np.float64(lam_x.max() + lam_y.max()))
        if not np.isfinite(peak * peak):
            raise ConfigError(
                f"config key solver.eps_reg = {solver.eps_reg!r} is too large: the "
                f"regularizer dt_max * eps_reg * (lam_x + lam_y)^(2m) reaches "
                f"{peak:.3g} at the grid's largest mode, and the velocity solve "
                "squares it past the float range")


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
    def iso_unit():  # a fresh dict per tensor, so editing C leaves D alone
        return {"isotropic": {"lambda": 1.0, "mu": 1.0}}

    default = {
        "name": "default-relaxation",
        "grid": {"nx": 32, "ny": 32, "Lx": 1.0, "Ly": 1.0},
        "tensors": {"D": iso_unit(), "C": iso_unit(), "B": {"scale_identity": 0.5}},
        "material": {"kappa": {"variant": "constant", "k0": 1.0},
                     "D": 1.0, "M": None, "eps_kappa": 0.0},
        "forcing": {"type": "zero"},
        "initial": {
            "theta": {"type": "hotspot", "base": 1.0, "peak": 2.0, "width": 0.12},
            "velocity": {"type": "sine", "amplitude": 0.5},
            "displacement": {"type": "zero"},
        },
        "solver": {"dt_max": 0.01, "dt_min": 1e-7},
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

