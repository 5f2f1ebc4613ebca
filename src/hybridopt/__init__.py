"""hybridopt: composable PSO / DE / CMA-ES solvers with an interleaved local
search, driven by a flat validated parameter configuration.  ``__all__`` is the
library contract; every other name is imported from its own module."""

from .benchmarks import (ObjectiveInstance, load_rotation_file, load_shift_file,
                         make_instance)
from .cmaes import CmaParams
from .config import (ValidationReport, default_config, export_parameter_space,
                     parse_parameter_file, validate)
from .core import Bounds, RunResult, cap_reported_value
from .de import DeParams
from .executor import AlgorithmConfig, ExecutionConfig, run
from .localsearch import LsParams
from .pso import PsoParams
from .reporting import RunRecord

__all__ = [
    "AlgorithmConfig", "Bounds", "CmaParams", "DeParams", "ExecutionConfig",
    "LsParams", "ObjectiveInstance", "PsoParams",
    "RunRecord", "RunResult", "ValidationReport",
    "cap_reported_value", "default_config", "export_parameter_space",
    "load_rotation_file", "load_shift_file", "make_instance",
    "parse_parameter_file", "run", "validate",
]
__version__ = "0.1.0"
