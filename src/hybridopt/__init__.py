"""hybridopt: composable PSO / DE / CMA-ES solvers with an interleaved local
search, driven by a flat validated parameter configuration."""

from .benchmarks import (ObjectiveInstance, load_rotation_file, load_shift_file,
                         make_instance)
from .cmaes import CmaParams, CmaRunner, CmaState
from .config import (ParameterSpec, ValidationReport, default_config,
                     export_parameter_space, parse_parameter_file, validate)
from .core import (Bounds, BudgetExhausted, EvalBudget, Population, RunResult,
                   cap_reported_value, evaluate, repair_to_bounds, rng_stream)
from .de import DeParams
from .executor import (AlgorithmConfig, ExecutionConfig, dispatch_update, run,
                       update_execution_parameters)
from .localsearch import LsParams, mtsls_run, schedule_ls
from .pso import PsoParams, TopologyState
from .reporting import AggregateStats, RunRecord, aggregate

__all__ = [
    "AggregateStats", "AlgorithmConfig", "Bounds", "BudgetExhausted",
    "CmaParams", "CmaRunner", "CmaState", "DeParams", "EvalBudget",
    "ExecutionConfig", "LsParams",
    "ObjectiveInstance", "ParameterSpec", "Population", "PsoParams",
    "RunRecord", "RunResult", "TopologyState",
    "ValidationReport", "aggregate",
    "cap_reported_value", "default_config", "dispatch_update", "evaluate",
    "export_parameter_space", "load_rotation_file", "load_shift_file",
    "make_instance", "mtsls_run",
    "parse_parameter_file", "repair_to_bounds", "rng_stream", "run",
    "schedule_ls", "update_execution_parameters", "validate",
]
__version__ = "0.1.0"
