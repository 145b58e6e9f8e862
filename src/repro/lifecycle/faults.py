"""Deterministic fault injection for the model lifecycle path.

The lifecycle layer promises that *nothing it does can leave the fleet
serving a bad model*: a crash mid-checkpoint-write, a corrupted manifest,
a retrain that blows up, or a flaky canary must all end with the last
good version still in service and a flight-recorder postmortem on the
books.  This module makes those failures reproducible, mirroring
:mod:`repro.cloud.faults` / :mod:`repro.ingest.faults`: a declarative
:class:`LifecycleFaultPlan` plus a seeded :class:`LifecycleFaultInjector`
whose hooks the registry and controller consult at each hazard point.

Each hook performs one RNG draw, in call order, so the same seed + plan +
call sequence reproduces the same faults (pinned in ``tests/lifecycle``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..faults import FaultBooks, FaultPlanBase, even_rates
from ..obs import inc, log_debug

__all__ = [
    "LIFECYCLE_FAULT_KINDS",
    "LifecycleError",
    "RetrainError",
    "LifecycleFaultPlan",
    "LifecycleFaultStats",
    "LifecycleFaultInjector",
]

#: Fault kinds in hook order: torn checkpoint write, manifest corruption
#: after a manifest write, retrain blow-up, canary flake (a spuriously
#: failing canary verdict).
LIFECYCLE_FAULT_KINDS = (
    "torn_write",
    "manifest_corruption",
    "retrain_failure",
    "canary_flake",
)


class LifecycleError(RuntimeError):
    """Base class of every injected lifecycle failure."""


class RetrainError(LifecycleError):
    """Background retraining died (OOM, NaN loss, preempted worker...)."""


@dataclass(frozen=True)
class LifecycleFaultPlan(FaultPlanBase):
    """Declarative description of the lifecycle faults one injector fires.

    Unlike the CI plan, each rate guards its *own* hook (a publish either
    tears or it doesn't; a retrain either dies or it doesn't), so the
    rates are independent probabilities rather than shares of one draw.
    """

    KINDS = LIFECYCLE_FAULT_KINDS

    torn_write_rate: float = 0.0
    manifest_corruption_rate: float = 0.0
    retrain_failure_rate: float = 0.0
    canary_flake_rate: float = 0.0
    #: Fraction of the checkpoint file kept by a torn write (the crash
    #: point as a fraction of bytes flushed).
    torn_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_rates()
        if not 0.0 < self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in (0, 1)")

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return self.total_rate == 0.0

    @classmethod
    def uniform(
        cls, total_rate: float, seed: int = 0, **overrides
    ) -> "LifecycleFaultPlan":
        """A plan spreading ``total_rate`` evenly over the four hooks."""
        return cls(
            seed=seed,
            **even_rates(total_rate, LIFECYCLE_FAULT_KINDS, "total_rate", 4),
            **overrides,
        )

    def with_total_rate(self, total_rate: float) -> "LifecycleFaultPlan":
        """This plan rescaled so its hook rates sum to ``total_rate``."""
        return self._rescaled(total_rate, LIFECYCLE_FAULT_KINDS, "total_rate", 4)


@dataclass
class LifecycleFaultStats(FaultBooks):
    """Exact books of what one injector did."""

    TOTAL = "total"

    draws: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    torn_writes: int = 0
    manifests_corrupted: int = 0
    retrain_failures: int = 0
    canary_flakes: int = 0

    @property
    def total(self) -> int:
        return sum(self.faults.values())


class LifecycleFaultInjector:
    """Seeded hooks the registry and controller consult at hazard points.

    Each ``should_*`` / ``tear`` / ``corrupt`` method consumes exactly one
    RNG draw, so a fixed call sequence is exactly reproducible from the
    plan's seed; :meth:`reset` replays the sequence from the start.
    """

    def __init__(self, plan: LifecycleFaultPlan):
        self.plan = plan
        self.stats = LifecycleFaultStats()
        self._rng = np.random.default_rng(plan.seed)

    def reset(self) -> None:
        self.stats = LifecycleFaultStats()
        self._rng = np.random.default_rng(self.plan.seed)

    # ------------------------------------------------------------------
    def _fires(self, kind: str) -> bool:
        self.stats.draws += 1
        fired = bool(self._rng.random() < getattr(self.plan, f"{kind}_rate"))
        if fired:
            self.stats.record_fault(kind)
            inc("lifecycle.faults.injected")
            inc(f"lifecycle.faults.{kind}")
            log_debug("lifecycle.fault", kind=kind, draw=self.stats.draws)
        return fired

    def tear_write(self, path: str) -> bool:
        """Maybe truncate a just-written checkpoint — the torn file a
        crash mid-write (or a non-atomic legacy writer) leaves behind."""
        if not self._fires("torn_write"):
            return False
        size = os.path.getsize(path)
        keep = max(1, int(size * self.plan.torn_fraction))
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        self.stats.torn_writes += 1
        return True

    def corrupt_manifest(self, path: str) -> bool:
        """Maybe garble the manifest file after a write (bit rot, torn
        metadata update on a non-atomic filesystem)."""
        if not self._fires("manifest_corruption"):
            return False
        with open(path, "r+b") as fh:
            data = fh.read()
            fh.seek(0)
            fh.truncate(0)
            # Keep a prefix and flip its bytes: both the JSON parse and
            # the self-checksum must catch this.
            keep = max(1, len(data) // 2)
            fh.write(bytes(b ^ 0x5A for b in data[:keep]))
        self.stats.manifests_corrupted += 1
        return True

    def fail_retrain(self) -> None:
        """Maybe raise a :class:`RetrainError` before training starts."""
        if self._fires("retrain_failure"):
            self.stats.retrain_failures += 1
            raise RetrainError("injected retrain failure")

    def flake_canary(self) -> bool:
        """Maybe force the canary verdict to a spurious regression."""
        if self._fires("canary_flake"):
            self.stats.canary_flakes += 1
            return True
        return False
