"""Resilient synthesis: solver budgets, tiered degradation, chaos testing.

The production-facing entry point is :func:`synthesize`, which runs the
exact → greedy → trivial tier cascade with retry-with-perturbation and
releases only convolution-verified architectures.  :class:`SolverBudget`
makes every NP-hard search in the library interruptible;
:class:`ChaosHarness` injects deterministic faults to prove the cascade
catches and reroutes every failure mode.
"""

from ..errors import BudgetExceeded, CoverBudgetError, DegradationError
from .budget import SolverBudget
from .chaos import (
    FAULT_CLASSES,
    MUTATION_OPERATORS,
    PROCESS_FAULT_CLASSES,
    ChaosFault,
    ChaosHarness,
    Injection,
    NetlistMutator,
    ProcessFaultPlan,
    clone_netlist,
)
from .netchaos import (
    NET_FAULT_CLASSES,
    NetChaosProxy,
    NetFaultPlan,
    NetInjection,
)
from .degrade import (
    STAGES,
    TIERS,
    AttemptRecord,
    RobustConfig,
    RobustResult,
    synthesize,
)

__all__ = [
    "AttemptRecord",
    "BudgetExceeded",
    "ChaosFault",
    "ChaosHarness",
    "CoverBudgetError",
    "DegradationError",
    "FAULT_CLASSES",
    "Injection",
    "MUTATION_OPERATORS",
    "NET_FAULT_CLASSES",
    "NetChaosProxy",
    "NetFaultPlan",
    "NetInjection",
    "NetlistMutator",
    "PROCESS_FAULT_CLASSES",
    "ProcessFaultPlan",
    "RobustConfig",
    "RobustResult",
    "STAGES",
    "SolverBudget",
    "TIERS",
    "clone_netlist",
    "synthesize",
]
