"""Exception types shared across the package, and the config-value checks
that raise ConfigError with the path of the offending key."""

import numbers


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
