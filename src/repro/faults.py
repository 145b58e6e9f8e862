"""One base for the seeded fault plans of every chaos layer.

The cloud (:mod:`repro.cloud.faults`), ingest (:mod:`repro.ingest.faults`),
lifecycle (:mod:`repro.lifecycle.faults`) and shard-process
(:mod:`repro.fleet.shard_faults`) plans are frozen dataclasses that share
one JSON codec, one rate validator, one half-open window normalizer, one
rescaling rule and, for the one-draw plans, one kind draw.  Their
injectors' stats share one set of per-kind books.  Each of those pieces
lives here once; a plan module keeps only what is specific to its layer.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, replace
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["FaultBooks", "FaultPlanBase", "check_rate", "draw_kind", "even_rates"]


def check_rate(name: str, value: float, upper: float = 1) -> None:
    """Raise unless ``0 <= value <= upper``."""
    if not 0.0 <= value <= upper:
        raise ValueError(f"{name} must be in [0, {upper}]")


def even_rates(
    rate: float, kinds: Sequence[str], name: str, upper: float = 1
) -> Dict[str, float]:
    """``rate`` split evenly into ``<kind>_rate`` fields over ``kinds``."""
    check_rate(name, rate, upper)
    share = rate / len(kinds)
    return {f"{kind}_rate": share for kind in kinds}


def draw_kind(
    draw: float, kinds: Sequence[str], rates: Sequence[float]
) -> Optional[str]:
    """The kind one uniform ``draw`` lands on over cumulative ``rates``.

    The threshold accumulates with sequential ``+=`` in ``kinds`` order, so
    a seeded draw sequence resolves to the same kinds bit for bit; ``None``
    when the draw lands past every rate (no fault).
    """
    threshold = 0.0
    for kind, rate in zip(kinds, rates):
        threshold += rate
        if draw < threshold:
            return kind
    return None


class FaultPlanBase:
    """Codec, validation and rescaling shared by the frozen fault plans.

    ``KINDS`` names the plan's ``<kind>_rate`` fields in draw order.  In
    JSON, tuple fields serialize as lists: half-open windows as
    ``[start, end]`` pairs, nested plans through their own ``to_dict``.
    """

    KINDS: Tuple[str, ...] = ()

    def _check_rates(self, one_draw: Optional[str] = None) -> None:
        """Every rate in [0, 1].  A one-draw plan (all kinds share one
        uniform draw) names its rates in ``one_draw`` and must also keep
        their sum at most 1."""
        for kind, rate in zip(self.KINDS, self.rates()):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind}_rate must be in [0, 1], got {rate}")
        if one_draw is not None and self.total_rate > 1.0 + 1e-12:
            raise ValueError(f"{one_draw} rates must sum to at most 1")

    def _normalize_windows(self, name: str, label: str) -> None:
        """Field ``name`` as a tuple of validated half-open int windows."""
        normalized = []
        for window in getattr(self, name):
            start, end = int(window[0]), int(window[1])
            if start < 0 or end <= start:
                raise ValueError(f"invalid {label} window [{start}, {end})")
            normalized.append((start, end))
        object.__setattr__(self, name, tuple(normalized))

    def rates(self) -> Tuple[float, ...]:
        """The ``<kind>_rate`` values in ``KINDS`` order."""
        return tuple(getattr(self, f"{kind}_rate") for kind in self.KINDS)

    @property
    def total_rate(self) -> float:
        """Sum of the plan's rates, added in ``KINDS`` order."""
        return sum(self.rates())

    def _rescaled(
        self, rate: float, kinds: Sequence[str], name: str, upper: float = 1
    ):
        """This plan with ``kinds``' rates rescaled to sum to ``rate``:
        proportionally, or evenly when they are all zero.  Every other
        field is kept."""
        current = sum(getattr(self, f"{kind}_rate") for kind in kinds)
        if current <= 0.0:
            return replace(self, **even_rates(rate, kinds, name, upper))
        check_rate(name, rate, upper)
        scale = rate / current
        return replace(
            self,
            **{
                f"{kind}_rate": getattr(self, f"{kind}_rate") * scale
                for kind in kinds
            },
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [
                    item.to_dict() if isinstance(item, FaultPlanBase) else list(item)
                    for item in value
                ]
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]):
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


class FaultBooks:
    """Per-kind fault counts for an injector's stats dataclass.

    Subclasses declare ``faults: Dict[str, int]`` and name in ``TOTAL``
    the derived-total property that ``as_dict`` appends.
    """

    TOTAL = ""

    def record_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    def as_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out[self.TOTAL] = getattr(self, self.TOTAL)
        return out
