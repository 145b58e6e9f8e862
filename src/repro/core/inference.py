"""Threshold inference over EventHit outputs (paper Eqs. 4–6).

Given Θ_k = [b_k, θ_{k,1..H}]:

* existence (Eq. 4):  b_k ≥ τ1  ⇒  E_k ∈ L̂;
* occurrence interval (Eqs. 5–6): the frames with θ_{k,v} ≥ τ2, converted
  to one continuous range [min v, max v] (the paper notes the raw
  above-threshold set may be discontinuous).

Footnote 1's multi-instance variant keeps each run of above-τ2 offsets
instead, bridging gaps shorter than ``min_gap`` offsets.  Eq. 6's range is
that rule with every gap bridged, so :func:`kept_pair_runs` serves both:
``min_gap=None`` gives one run per pair.

If an event is predicted present but no offset clears τ2, we fall back to a
single-frame interval at the argmax offset, so a positive existence
prediction always yields a non-empty relay range (the paper leaves this
corner unspecified; an empty range would silently drop the event).

The §VI.B variants and the serving marshaller decide through one rule,
:func:`decide_runs`, which swaps in C-CLASSIFY and C-REGRESS when given;
:func:`decide_intervals` is its dense, one-run-per-pair form.

The Θ scores come from a serving engine
(:class:`~repro.core.batched.BatchedInference`: the fused kernels of
:mod:`repro.nn.fused` with every affine map through
:func:`~repro.core.batched.rowstable_matmul`), offline and served alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .model import EventHitOutput

if TYPE_CHECKING:  # conformal imports core: type the layers only
    from ..conformal.classify import ConformalClassifier
    from ..conformal.regress import ConformalRegressor

__all__ = [
    "PredictionBatch",
    "kept_pair_runs",
    "merge_runs",
    "decide_existence",
    "decide_runs",
    "decide_intervals",
    "threshold_predictions",
]

#: ``(rows, events, starts, ends)``: one entry per run, row-major, each
#: pair's runs in offset order; offsets are 1-based and inclusive.
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class PredictionBatch:
    """Batched predictions: existence set L̂ and intervals T̂.

    ``starts``/``ends`` are ``(B, K)`` horizon offsets in [1, H];
    rows/columns where ``exists`` is False carry zeros and represent "no
    frames relayed".
    """

    def __init__(
        self,
        exists: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        horizon: int,
    ):
        exists = np.asarray(exists, dtype=bool)
        starts = np.asarray(starts, dtype=int)
        ends = np.asarray(ends, dtype=int)
        if exists.shape != starts.shape or starts.shape != ends.shape:
            raise ValueError("exists/starts/ends shapes must match")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        kept_starts, kept_ends = starts[exists], ends[exists]
        if np.any(kept_starts < 1) or np.any(kept_ends > horizon):
            raise ValueError("predicted offsets must lie in [1, H]")
        if np.any(kept_starts > kept_ends):
            raise ValueError("start offsets must be <= end offsets")
        self.exists = exists
        self.horizon = horizon
        self.starts = np.where(exists, starts, 0)
        self.ends = np.where(exists, ends, 0)

    @property
    def batch_size(self) -> int:
        return self.exists.shape[0]

    @property
    def num_events(self) -> int:
        return self.exists.shape[1]

    def predicted_frames(self) -> np.ndarray:
        """(B, K) count of frames each prediction would relay to the CI."""
        return np.where(self.exists, self.ends - self.starts + 1, 0)


def merge_runs(
    pairs: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    min_gap: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge each pair's runs separated by fewer than ``min_gap`` offsets
    (every gap when ``None``); ``min_gap=1`` merges overlapping and
    adjacent runs only.

    ``pairs`` keys each run's pair.  A pair's runs must be consecutive and
    in offset order, with starts and ends each non-decreasing: disjoint
    runs are, and so are those runs widened by one pair's quantiles.
    Returns ``(first, last)``, the indices of each merged run's first and
    last input run: it spans ``starts[first]`` to ``ends[last]``.
    """
    count = len(pairs)
    new = np.ones(count, dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    if min_gap is not None:
        # The gap between runs is start - previous end - 1 offsets.
        new[1:] |= starts[1:] - ends[:-1] > min_gap
    first = np.flatnonzero(new)
    last = np.empty_like(first)
    last[:-1] = first[1:] - 1
    last[-1:] = count - 1
    return first, last


def kept_pair_runs(
    output: EventHitOutput,
    exists: np.ndarray,
    tau2: float = 0.5,
    min_gap: Optional[int] = None,
) -> Runs:
    """The runs of offsets with θ ≥ τ2 for the (row, event) pairs
    ``exists`` keeps, with gaps under ``min_gap`` offsets bridged
    (footnote 1); ``min_gap=None`` bridges every gap, which is Eq. 6's
    single [min v, max v] range.  A pair with no offset at τ2 gets the
    one-offset run at its argmax.

    Only the kept pairs' occurrence scores are read
    (:meth:`EventHitOutput.kept_frame_scores`), so a lazily activated
    output never activates the rest.
    """
    if not 0.0 <= tau2 <= 1.0:
        raise ValueError("tau2 must be in [0, 1]")
    if min_gap is not None and min_gap < 1:
        raise ValueError("min_gap must be >= 1")
    rows, cols, scores = output.kept_frame_scores(exists)
    count, horizon = scores.shape
    # One leading False, then each pair's H offsets and a False column:
    # one 1-D compare over the flat buffer finds every run's edges, and no
    # run spills into the next pair.
    width = horizon + 1
    flat = np.zeros(count * width + 1, dtype=bool)
    above = flat[1:].reshape(count, width)[:, :horizon]
    np.greater_equal(scores, tau2, out=above)
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    pairs = edges[0::2] // width
    starts = edges[0::2] - pairs * width + 1
    ends = edges[1::2] - pairs * width
    hit = np.zeros(count, dtype=bool)
    hit[pairs] = True
    if not hit.all():
        missed = np.flatnonzero(~hit)
        peaks = scores[missed].argmax(axis=1) + 1
        pairs = np.concatenate([pairs, missed])
        order = np.argsort(pairs, kind="stable")
        pairs = pairs[order]
        starts = np.concatenate([starts, peaks])[order]
        ends = np.concatenate([ends, peaks])[order]
    first, last = merge_runs(pairs, starts, ends, min_gap)
    pairs = pairs[first]
    return rows[pairs], cols[pairs], starts[first], ends[last]


def decide_existence(
    output: EventHitOutput,
    classifier: Optional["ConformalClassifier"] = None,
    confidence: float = 0.9,
    tau1: float = 0.5,
) -> np.ndarray:
    """(B, K) L̂: C-CLASSIFY at c (Eq. 9) if given, else Eq. 4 at τ1.

    τ1 is not range-checked: serving accepts a τ1 above 1 to keep nothing.
    """
    if classifier is not None:
        return classifier.predict(output, confidence)
    return output.scores >= tau1


def decide_runs(
    output: EventHitOutput,
    classifier: Optional["ConformalClassifier"] = None,
    regressor: Optional["ConformalRegressor"] = None,
    confidence: float = 0.9,
    alpha: float = 0.9,
    tau1: float = 0.5,
    tau2: float = 0.5,
    min_gap: Optional[int] = None,
) -> Tuple[np.ndarray, Runs]:
    """``(exists, runs)``: :func:`decide_existence`, then the kept pairs'
    runs (:func:`kept_pair_runs`): C-REGRESS at α (Eq. 11, from runs at
    the regressor's own τ2) if given, else at ``tau2``."""
    exists = decide_existence(output, classifier, confidence, tau1)
    if regressor is not None:
        return exists, regressor.predict(output, exists, alpha, min_gap)
    return exists, kept_pair_runs(output, exists, tau2, min_gap)


def decide_intervals(
    output: EventHitOutput,
    classifier: Optional["ConformalClassifier"] = None,
    regressor: Optional["ConformalRegressor"] = None,
    confidence: float = 0.9,
    alpha: float = 0.9,
    tau1: float = 0.5,
    tau2: float = 0.5,
) -> PredictionBatch:
    """:func:`decide_runs` in span mode, its one run per kept pair
    scattered into a dense :class:`PredictionBatch`."""
    exists, (rows, cols, starts, ends) = decide_runs(
        output, classifier, regressor, confidence, alpha, tau1, tau2
    )
    dense_starts = np.zeros(exists.shape, dtype=int)
    dense_ends = np.zeros(exists.shape, dtype=int)
    dense_starts[rows, cols] = starts
    dense_ends[rows, cols] = ends
    return PredictionBatch(exists, dense_starts, dense_ends, output.horizon)


def threshold_predictions(
    output: EventHitOutput, tau1: float = 0.5, tau2: float = 0.5
) -> PredictionBatch:
    """The EHO rule: :func:`decide_intervals` with neither conformal layer."""
    if not 0.0 <= tau1 <= 1.0:
        raise ValueError("tau1 must be in [0, 1]")
    return decide_intervals(output, tau1=tau1, tau2=tau2)
