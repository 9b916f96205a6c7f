"""The CLADO algorithm, its baselines, and evaluation/QAT utilities."""

from .api import (
    ALGORITHM_KINDS,
    AllocationResult,
    InfeasibleBudgetError,
    SensitivityConfig,
    SolverConfig,
    algorithm_specs,
    build_algorithm,
)
from .baselines import HAWQ, MPQCO, upq_assignment
from .clado import CLADO, MPQAlgorithm, MPQAssignment
from .evaluate import (
    evaluate_assignment,
    evaluate_assignments,
    remove_activation_quant,
    setup_activation_quant,
)
from .psd import min_eigenvalue, psd_project, psd_violation
from .qat import QATConfig, qat_finetune
from .sensitivity import (
    SensitivityEngine,
    SensitivityResult,
    block_id_from_name,
)
from .sweep import (
    EvalPlan,
    EvalSpec,
    GroupPlan,
    PrefixCache,
    SweepCheckpoint,
    build_eval_plan,
)

__all__ = [
    "ALGORITHM_KINDS",
    "AllocationResult",
    "InfeasibleBudgetError",
    "SensitivityConfig",
    "SolverConfig",
    "algorithm_specs",
    "build_algorithm",
    "CLADO",
    "MPQAlgorithm",
    "MPQAssignment",
    "HAWQ",
    "MPQCO",
    "upq_assignment",
    "SensitivityEngine",
    "SensitivityResult",
    "block_id_from_name",
    "EvalPlan",
    "EvalSpec",
    "GroupPlan",
    "PrefixCache",
    "SweepCheckpoint",
    "build_eval_plan",
    "psd_project",
    "min_eigenvalue",
    "psd_violation",
    "evaluate_assignment",
    "evaluate_assignments",
    "setup_activation_quant",
    "remove_activation_quant",
    "QATConfig",
    "qat_finetune",
]
