"""2-D simulator and diagnostics for nonlinear Kelvin-Voigt thermoviscoelasticity."""

__version__ = "0.1.0"

from .diagnostics import (Diagnostics, DiagnosticsRecord, WindowMetrics,
                          log_entropy_inequality, theta_infinity,
                          window_metrics)
from .errors import (AdmissibilityError, ConfigError, SolverError, StepError,
                     TvsimError)
from .grid import Grid, read_snapshot, solve_spd, write_snapshot
from .integrator import (FieldState, Forcing, Integrator, PulseForcing,
                         SolverConfig, StepReport)
from .materials import (ConstantCapacity, DebyeLikeCapacity, HeatCapacity,
                        PowerGrowthCapacity, SlowDecayCapacity,
                        TabulatedCapacity, admissibility_check,
                        model_from_config)
from .runner import convergence_study, run, sweep
from .scenarios import build_scenario, builtin_scenarios
from .tensors import (ElasticityTensors, coercivity_constant, contract4,
                      isotropic_tensor, sqrt_tensor, tensors_from_config)

__all__ = [
    "__version__",
    "AdmissibilityError", "ConfigError", "SolverError", "StepError", "TvsimError",
    "Grid", "read_snapshot", "solve_spd", "write_snapshot",
    "FieldState", "Forcing", "Integrator", "PulseForcing", "SolverConfig",
    "StepReport",
    "ConstantCapacity", "DebyeLikeCapacity", "HeatCapacity",
    "PowerGrowthCapacity", "SlowDecayCapacity", "TabulatedCapacity",
    "admissibility_check", "model_from_config",
    "Diagnostics", "DiagnosticsRecord", "WindowMetrics",
    "log_entropy_inequality", "theta_infinity", "window_metrics",
    "run", "sweep", "convergence_study", "build_scenario", "builtin_scenarios",
    "ElasticityTensors", "coercivity_constant", "contract4",
    "isotropic_tensor", "sqrt_tensor", "tensors_from_config",
]

