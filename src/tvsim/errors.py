"""Exception types shared across the package, and the config readers that
raise ConfigError with the path of the offending key.  _build reads a
section into the dataclass it configures, whose fields state the keys, their
defaults and their kinds; _typed reads the type or variant of a section."""

import functools
import numbers
import typing
from dataclasses import MISSING, fields

import numpy as np


class TvsimError(Exception):
    """Base class for all package errors."""


class ConfigError(TvsimError):
    """Invalid or inconsistent configuration input."""


class SolverError(TvsimError):
    """Linear solver failed to converge.

    Carries the final relative residual and iteration count.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StepError(TvsimError):
    """A time step could not be completed (guard or positivity failure)."""

    def __init__(self, message, node=None, dt=None):
        super().__init__(message)
        self.node = node
        self.dt = dt


class AdmissibilityError(TvsimError):
    """Initial data rejected before any stepping."""


def _section(val, path, keys=None):
    """val, the config section at path, which must be a JSON object.

    With keys given, a key outside them is refused, so a misspelt or removed
    setting fails instead of being ignored.
    """
    if not isinstance(val, dict):
        raise ConfigError(f"config section {path} must be an object, got {val!r}")
    unknown = set(val) - set(val if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown {path} keys: {sorted(unknown)}")
    return val


def _number(val, path, integral=False):
    """val, the config value at path, as a float (an int if integral)."""
    if (not isinstance(val, numbers.Real) or isinstance(val, bool)
            or (integral and val != int(val))):
        kind = "an integer" if integral else "a number"
        raise ConfigError(f"config key {path} must be {kind}, got {val!r}")
    return int(val) if integral else float(val)


def _numbers(val, path):
    """val, the config list at path, as a flat list of floats; nested lists
    (the rows of a matrix) are flattened in row-major order."""
    if not isinstance(val, (list, tuple)):
        raise ConfigError(f"config key {path} must be a list of numbers, got {val!r}")
    out = []
    for i, item in enumerate(val):
        key = f"{path}[{i}]"
        out += (_numbers(item, key) if isinstance(item, (list, tuple))
                else [_number(item, key)])
    return out


def _typed(val, path, tag, table, default=None):
    """(kind, rest): the tag of the config section val at path, which must
    name an entry of table (default when the section omits it), and the
    section's other keys."""
    val = _section(val, path)
    if tag not in val and default is None:
        raise ConfigError(f"config misses required key: {path}.{tag}")
    kind = val.get(tag, default)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"config key {path}.{tag} must be one of "
                          f"{sorted(table)}, got {kind!r}")
    return kind, {key: v for key, v in val.items() if key != tag}


# a class's field annotations, evaluated from their strings once per class
_hints = functools.cache(typing.get_type_hints)


def _build(cls, val, path):
    """An instance of the dataclass cls from the config section val at path.

    The section's keys are cls's fields but the private ones; a field the
    section leaves out keeps its default, and one without a default must be
    given.  An int field is read as an integer, a tuple or np.ndarray field
    as a list of numbers (a tuple), a field whose annotation allows None
    takes null, and any other field is a number.
    """
    hints = _hints(cls)
    public = [f for f in fields(cls) if not f.name.startswith("_")]
    val = _section(val, path, [f.name for f in public])
    kwargs = {}
    for f in public:
        key, hint = f"{path}.{f.name}", hints[f.name]
        if f.name not in val:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"config misses required key: {key}")
        elif val[f.name] is None and type(None) in typing.get_args(hint):
            kwargs[f.name] = None
        elif hint in (tuple, np.ndarray):
            kwargs[f.name] = tuple(_numbers(val[f.name], key))
        else:
            kwargs[f.name] = _number(val[f.name], key, integral=hint is int)
    return cls(**kwargs)
