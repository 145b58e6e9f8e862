"""Deterministic fault injection for the ingest path.

PR 2 made the *cloud* leg of the marshalling loop unreliable on purpose
(:mod:`repro.cloud.faults`); this module does the same for the *ingest*
leg — the ``repro.video`` → ``repro.features`` → EventHit feed that the
paper's loop assumes delivers a finite, well-formed covariate vector for
every frame, on time.  Real camera feeds do not: detectors flap, frames
drop, cameras freeze, encoders emit garbage.  An
:class:`IngestFaultInjector` applies a seeded, declarative
:class:`IngestFaultPlan` to a clean
:class:`~repro.features.extractors.FeatureMatrix` and returns the
corrupted copy the downstream pipeline would actually have seen, with
exact bookkeeping in :class:`IngestFaultStats`.

Fault taxonomy (what each does to frame ``i``'s feature vector):

* **drop** — the frame never arrives: the whole vector becomes NaN.
* **flap** — the detector returned nothing for the frame (whole-vector
  dropout): also all-NaN, booked separately from drops.
* **corrupt** — ``corrupt_dims`` randomly chosen dimensions become NaN or
  ``+inf`` (a flaky detector emitting non-finite values).
* **noise** — a burst of large-amplitude Gaussian noise is *added*; the
  vector stays finite, so value sanitization cannot catch it (it must be
  absorbed by the model / flagged statistically).
* **late** — out-of-order delivery: frames ``i`` and ``i+1`` swap places
  (``i+1`` arrived before ``i``).
* **stall** — declarative freeze windows ``[start, end)`` over the frame
  index: the camera repeats its last live frame for the whole window
  (what a frozen RTSP feed looks like — finite, plausible, and stale).

Determinism contract, mirroring the cloud injector: one RNG draw per
non-stalled frame, in frame order, resolved over cumulative rates in a
fixed kind order — so (plan, feature shape) fully determines the fault
sequence, and ``reset()`` replays it.  Plans round-trip through JSON for
the ``chaos --ingest-fault-plan`` CLI flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..faults import FaultBooks, FaultPlanBase, draw_kind, even_rates
from ..features.extractors import FeatureMatrix
from ..obs import inc, log_debug, span

__all__ = [
    "INGEST_FAULT_KINDS",
    "IngestFaultPlan",
    "IngestFaultStats",
    "IngestFaultInjector",
]

#: Fault kinds in the order the injector's single RNG draw resolves them.
INGEST_FAULT_KINDS = ("drop", "flap", "corrupt", "noise", "late")


# ----------------------------------------------------------------------
# Declarative plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestFaultPlan(FaultPlanBase):
    """Declarative description of the ingest faults one injector produces.

    Rates are per-frame probabilities resolved from a single uniform
    draw, so ``drop_rate + flap_rate + corrupt_rate + noise_rate +
    late_rate`` must not exceed 1.  ``stalls`` are half-open
    ``[start, end)`` freeze windows over the frame index — the frames
    inside repeat the last pre-window frame and consume no RNG draw.
    """

    KINDS = INGEST_FAULT_KINDS

    drop_rate: float = 0.0
    flap_rate: float = 0.0
    corrupt_rate: float = 0.0
    noise_rate: float = 0.0
    late_rate: float = 0.0
    corrupt_dims: int = 1
    noise_sigma: float = 5.0
    stalls: Tuple[Tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        self._check_rates(one_draw="ingest fault")
        if self.corrupt_dims < 1:
            raise ValueError("corrupt_dims must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self._normalize_windows("stalls", "stall")

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return self.total_rate == 0.0 and not self.stalls

    @classmethod
    def uniform(
        cls, fault_rate: float, seed: int = 0, **overrides
    ) -> "IngestFaultPlan":
        """A plan spreading ``fault_rate`` evenly over the random kinds."""
        rates = even_rates(fault_rate, INGEST_FAULT_KINDS, "fault_rate")
        rates.update(overrides)
        return cls(seed=seed, **rates)

    def with_fault_rate(self, fault_rate: float) -> "IngestFaultPlan":
        """This plan rescaled so its random kinds sum to ``fault_rate``."""
        return self._rescaled(fault_rate, INGEST_FAULT_KINDS, "fault_rate")


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class IngestFaultStats(FaultBooks):
    """Exact books of what one injector did to one feature matrix."""

    TOTAL = "frames_faulted"

    frames: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    frames_dropped: int = 0
    frames_flapped: int = 0
    frames_corrupted: int = 0
    values_corrupted: int = 0
    noise_bursts: int = 0
    frames_late: int = 0
    frames_stalled: int = 0

    @property
    def frames_faulted(self) -> int:
        """Frames touched by any fault (stalls included)."""
        return sum(self.faults.values())


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class IngestFaultInjector:
    """Apply a seeded :class:`IngestFaultPlan` to a feature matrix.

    ``inject`` is a pure function of (plan, input shape, input values):
    calling it twice with the same inputs yields bitwise-identical
    corrupted matrices.  ``frame_kinds`` records the fault kind applied
    to each frame of the last injection (``""`` for clean frames) — test
    and harness introspection only; the :class:`~repro.ingest.guard.StreamGuard`
    never sees it and must detect trouble from the data alone.
    """

    def __init__(self, plan: IngestFaultPlan):
        self.plan = plan
        self.stats = IngestFaultStats()
        self.frame_kinds: List[str] = []
        self._rng = np.random.default_rng(plan.seed)

    def reset(self) -> None:
        """Replay the fault sequence from the seed."""
        self.stats = IngestFaultStats()
        self.frame_kinds = []
        self._rng = np.random.default_rng(self.plan.seed)

    # ------------------------------------------------------------------
    def inject(self, features: FeatureMatrix) -> FeatureMatrix:
        """The corrupted copy of ``features`` this plan produces.

        The input is never mutated; with an empty plan the *same object*
        is returned, so the zero-fault path neither copies nor allocates.
        """
        plan = self.plan
        num_frames = features.num_frames
        self.stats = IngestFaultStats()
        self.stats.frames = num_frames
        self.frame_kinds = [""] * num_frames
        if plan.is_empty:
            return features

        with span("ingest.inject", frames=num_frames):
            values = features.values.copy()
            num_dims = features.num_channels

            # Freeze windows first: the camera repeats its last live frame
            # (frame start-1; a window opening at frame 0 repeats frame 0).
            for start, end in plan.stalls:
                if start >= num_frames:
                    continue
                stop = min(end, num_frames)
                source = max(start - 1, 0)
                values[start:stop] = values[source]
                for frame in range(start, stop):
                    self.frame_kinds[frame] = "stall"
                    self.stats.record_fault("stall")
                self.stats.frames_stalled += stop - start

            rng = self._rng
            rates = plan.rates()
            for frame in range(num_frames):
                if self.frame_kinds[frame] == "stall":
                    continue  # frozen frames consume no RNG draw
                kind = draw_kind(float(rng.random()), INGEST_FAULT_KINDS, rates)
                if kind is None:
                    continue

                if kind == "drop":
                    values[frame] = np.nan
                    self.stats.frames_dropped += 1
                elif kind == "flap":
                    values[frame] = np.nan
                    self.stats.frames_flapped += 1
                elif kind == "corrupt":
                    count = min(plan.corrupt_dims, num_dims)
                    dims = rng.choice(num_dims, size=count, replace=False)
                    poison = np.where(rng.random(count) < 0.5, np.nan, np.inf)
                    values[frame, dims] = poison
                    self.stats.frames_corrupted += 1
                    self.stats.values_corrupted += count
                elif kind == "noise":
                    values[frame] += rng.normal(0.0, plan.noise_sigma, num_dims)
                    self.stats.noise_bursts += 1
                else:  # late: out-of-order delivery swaps i and i+1
                    if frame + 1 < num_frames:
                        values[[frame, frame + 1]] = values[[frame + 1, frame]]
                    else:
                        # Nothing to swap with at the stream tail: the
                        # frame simply misses its deadline and is lost.
                        values[frame] = np.nan
                    self.stats.frames_late += 1
                self.frame_kinds[frame] = kind
                self.stats.record_fault(kind)
                inc("ingest.faults.injected")
                inc(f"ingest.faults.{kind}")
                log_debug("ingest.fault", kind=kind, frame=frame)

            inc("ingest.frames_stalled", self.stats.frames_stalled)
        return FeatureMatrix(values, list(features.channel_names))
