"""Pricing models for cloud inference services (paper §I / §VI.G).

The paper's case study uses Amazon Rekognition at US $0.001 per frame.
Tiered pricing (volume discounts, as real providers offer) is included so
the cost case study can be run against more realistic billing curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["PricingModel", "FlatPricing", "TieredPricing", "REKOGNITION"]


class PricingModel:
    """Interface: dollars charged for processing ``frames`` frames."""

    def cost(self, frames: int) -> float:
        raise NotImplementedError

    def marginal_price(self, frames_so_far: int) -> float:
        """Price of the next frame after ``frames_so_far`` already billed."""
        raise NotImplementedError


@dataclass(frozen=True)
class FlatPricing(PricingModel):
    """Constant per-frame price (the paper's Rekognition model)."""

    price_per_frame: float = 0.001

    def __post_init__(self) -> None:
        if self.price_per_frame < 0:
            raise ValueError("price_per_frame must be non-negative")

    def cost(self, frames: int) -> float:
        if frames < 0:
            raise ValueError("frames must be non-negative")
        return frames * self.price_per_frame

    def marginal_price(self, frames_so_far: int) -> float:
        return self.price_per_frame


@dataclass(frozen=True)
class TieredPricing(PricingModel):
    """Volume-tiered pricing: [(threshold_frames, price), ...].

    The k-th tier price applies to frames beyond its threshold; tiers must
    be sorted by threshold with the first threshold at 0.
    """

    tiers: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("at least one tier required")
        if self.tiers[0][0] != 0:
            raise ValueError("first tier must start at 0 frames")
        thresholds = [t for t, _ in self.tiers]
        if thresholds != sorted(thresholds) or len(set(thresholds)) != len(thresholds):
            raise ValueError("tier thresholds must be strictly increasing")
        if any(p < 0 for _, p in self.tiers):
            raise ValueError("tier prices must be non-negative")

    def cost(self, frames: int) -> float:
        if frames < 0:
            raise ValueError("frames must be non-negative")
        total = 0.0
        for index, (threshold, price) in enumerate(self.tiers):
            next_threshold = (
                self.tiers[index + 1][0] if index + 1 < len(self.tiers) else None
            )
            upper = frames if next_threshold is None else min(frames, next_threshold)
            if upper > threshold:
                total += (upper - threshold) * price
        return total

    def marginal_price(self, frames_so_far: int) -> float:
        if frames_so_far < 0:
            raise ValueError("frames_so_far must be non-negative")
        price = self.tiers[0][1]
        for threshold, tier_price in self.tiers:
            if frames_so_far >= threshold:
                price = tier_price
        return price


#: Amazon Rekognition image pricing as used in the paper's Fig. 8.
REKOGNITION = FlatPricing(price_per_frame=0.001)
