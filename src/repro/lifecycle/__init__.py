"""Live model lifecycle: versioned registry, drift-triggered retraining
(or, without a registry, recalibration), canary gating, and crash-safe
atomic hot-swap.

The layer sits beside the serving path, never in it: observation hooks
are free (a run that never swaps is byte-identical to one without the
lifecycle layer), swaps happen atomically at horizon boundaries with the
conformal state recalibrated on the spot, and every failure mode — torn
checkpoint write, corrupt manifest, retrain blow-up, flaky canary —
falls back to the last good version with a flight-recorder postmortem.
"""

from .controller import (
    AuditBuffer,
    AuditedOutcome,
    CanaryVerdict,
    LifecycleController,
    audited_outcome,
)
from .faults import (
    LIFECYCLE_FAULT_KINDS,
    LifecycleError,
    LifecycleFaultInjector,
    LifecycleFaultPlan,
    LifecycleFaultStats,
    RetrainError,
)
from .registry import ModelRegistry, ModelVersion, RegistryError, VERSION_STATUSES

__all__ = [
    "AuditBuffer",
    "AuditedOutcome",
    "CanaryVerdict",
    "LifecycleController",
    "audited_outcome",
    "LIFECYCLE_FAULT_KINDS",
    "LifecycleError",
    "LifecycleFaultInjector",
    "LifecycleFaultPlan",
    "LifecycleFaultStats",
    "RetrainError",
    "ModelRegistry",
    "ModelVersion",
    "RegistryError",
    "VERSION_STATUSES",
]
