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

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, List, Tuple

import numpy as np

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
class IngestFaultPlan:
    """Declarative description of the ingest faults one injector produces.

    Rates are per-frame probabilities resolved from a single uniform
    draw, so ``drop_rate + flap_rate + corrupt_rate + noise_rate +
    late_rate`` must not exceed 1.  ``stalls`` are half-open
    ``[start, end)`` freeze windows over the frame index — the frames
    inside repeat the last pre-window frame and consume no RNG draw.
    """

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
        for kind in INGEST_FAULT_KINDS:
            rate = getattr(self, f"{kind}_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if self.total_rate > 1.0 + 1e-12:
            raise ValueError("ingest fault rates must sum to at most 1")
        if self.corrupt_dims < 1:
            raise ValueError("corrupt_dims must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        normalized = []
        for window in self.stalls:
            start, end = int(window[0]), int(window[1])
            if start < 0 or end <= start:
                raise ValueError(f"invalid stall window [{start}, {end})")
            normalized.append((start, end))
        object.__setattr__(self, "stalls", tuple(normalized))

    # ------------------------------------------------------------------
    @property
    def total_rate(self) -> float:
        """Probability a frame is faulted by the per-frame draw."""
        return sum(getattr(self, f"{kind}_rate") for kind in INGEST_FAULT_KINDS)

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return self.total_rate == 0.0 and not self.stalls

    @classmethod
    def uniform(
        cls, fault_rate: float, seed: int = 0, **overrides
    ) -> "IngestFaultPlan":
        """A plan spreading ``fault_rate`` evenly over the random kinds."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        share = fault_rate / len(INGEST_FAULT_KINDS)
        rates = {f"{kind}_rate": share for kind in INGEST_FAULT_KINDS}
        rates.update(overrides)
        return cls(seed=seed, **rates)

    def with_fault_rate(self, fault_rate: float) -> "IngestFaultPlan":
        """This plan rescaled so its random kinds sum to ``fault_rate``."""
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        current = self.total_rate
        if current <= 0.0:
            share = fault_rate / len(INGEST_FAULT_KINDS)
            return replace(
                self, **{f"{kind}_rate": share for kind in INGEST_FAULT_KINDS}
            )
        scale = fault_rate / current
        return replace(
            self,
            **{
                f"{kind}_rate": getattr(self, f"{kind}_rate") * scale
                for kind in INGEST_FAULT_KINDS
            },
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["stalls"] = [list(window) for window in self.stalls]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "IngestFaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown IngestFaultPlan fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "stalls" in kwargs:
            kwargs["stalls"] = tuple(tuple(window) for window in kwargs["stalls"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IngestFaultPlan":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class IngestFaultStats:
    """Exact books of what one injector did to one feature matrix."""

    frames: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    frames_dropped: int = 0
    frames_flapped: int = 0
    frames_corrupted: int = 0
    values_corrupted: int = 0
    noise_bursts: int = 0
    frames_late: int = 0
    frames_stalled: int = 0

    def record_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    @property
    def frames_faulted(self) -> int:
        """Frames touched by any fault (stalls included)."""
        return sum(self.faults.values())

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["frames_faulted"] = self.frames_faulted
        return out


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
    def _stalled(self, frame: int) -> bool:
        return any(start <= frame < end for start, end in self.plan.stalls)

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
            for frame in range(num_frames):
                if self.frame_kinds[frame] == "stall":
                    continue  # frozen frames consume no RNG draw
                draw = float(rng.random())
                threshold = 0.0
                kind = None
                for candidate in INGEST_FAULT_KINDS:
                    threshold += getattr(plan, f"{candidate}_rate")
                    if draw < threshold:
                        kind = candidate
                        break
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
