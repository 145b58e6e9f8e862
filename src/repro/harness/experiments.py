"""Experiment runner: train → calibrate → predict → evaluate for one task.

An :class:`Experiment` owns everything one §VI evaluation point needs:

* the data bundle (train / calibration / test RecordSets + streams);
* a trained EventHit and calibrated C-CLASSIFY / C-REGRESS components;
* constructors for every compared algorithm (EHO/EHC/EHR/EHCR, OPT, BF,
  COX, VQS, APP-VAE surrogate);
* evaluation and REC–SPL-curve utilities.

Benchmarks run experiments at reduced ``scale`` so a full figure
regenerates in seconds; ``scale=1.0`` reproduces the paper-sized workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..baselines import (
    BruteForce,
    CoxPredictor,
    EventHitRule,
    Oracle,
    PointProcessPredictor,
    TrainedVQSPredictor,
    VQSPredictor,
)
from ..conformal import ConformalClassifier, ConformalRegressor
from ..core import EventHitConfig, train_eventhit
from ..data import ExperimentData, build_experiment_data
from ..metrics import EvaluationSummary, evaluate
from ..obs import inc, log_info, span
from .tasks import Task, get_task

__all__ = ["ExperimentSettings", "Experiment", "CurvePoint", "run_experiment"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs controlling experiment size and the model configuration.

    ``scale`` shrinks the synthetic dataset; ``max_records`` caps the
    record count per split; the remaining fields override EventHit
    hyper-parameters (chosen small enough for numpy training).
    """

    scale: float = 0.08
    seed: int = 0
    max_records: int = 250
    stride: Optional[int] = None
    lstm_hidden: int = 16
    shared_hidden: tuple = (16,)
    head_hidden: tuple = (32,)
    dropout: float = 0.0
    learning_rate: float = 5e-3
    epochs: int = 15
    batch_size: int = 32

    def model_config(self, window_size: int, horizon: int) -> EventHitConfig:
        return EventHitConfig(
            window_size=window_size,
            horizon=horizon,
            lstm_hidden=self.lstm_hidden,
            shared_hidden=self.shared_hidden,
            head_hidden=self.head_hidden,
            dropout=self.dropout,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            batch_size=self.batch_size,
            seed=self.seed,
        )


@dataclass(frozen=True)
class CurvePoint:
    """One point of a REC–SPL trade-off curve."""

    knobs: Dict[str, float]
    summary: EvaluationSummary

    @property
    def rec(self) -> float:
        return self.summary.rec

    @property
    def spl(self) -> float:
        return self.summary.spl


class Experiment:
    """A fully prepared evaluation context for one task."""

    def __init__(
        self,
        task: Task,
        data: ExperimentData,
        model,
        classifier: ConformalClassifier,
        regressor: ConformalRegressor,
        settings: ExperimentSettings,
        encoder: str = "lstm",
    ):
        self.task = task
        self.data = data
        self.model = model
        self.classifier = classifier
        self.regressor = regressor
        self.settings = settings
        self.encoder = encoder
        self._predictors: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Predictor factories (cached)
    # ------------------------------------------------------------------
    def predictor(self, name: str):
        """Build (and cache) a §VI.B algorithm by name."""
        key = name.upper()
        if key in self._predictors:
            return self._predictors[key]
        if key in ("EHO", "EHC", "EHR", "EHCR"):
            # The name spells the layers: EH + C(-CLASSIFY) + R(EGRESS).
            predictor = EventHitRule(
                self.model,
                classifier=self.classifier if "C" in key[2:] else None,
                regressor=self.regressor if "R" in key[2:] else None,
            )
        elif key == "OPT":
            predictor = Oracle()
        elif key == "BF":
            predictor = BruteForce()
        elif key == "COX":
            predictor = CoxPredictor().fit(self.data.train)
        elif key == "VQS":
            predictor = VQSPredictor(self.data.test_stream, self.data.event_types)
        elif key == "VQS-NN":
            from ..features import FeatureExtractor

            extractor = FeatureExtractor()
            train_features = extractor.extract(
                self.data.train_stream, self.data.event_types
            )
            predictor = TrainedVQSPredictor(seed=self.settings.seed)
            predictor.fit(
                self.data.train_stream, train_features, self.data.event_types
            )
            predictor.bind(self.data.test_stream, self.data.test_features)
        elif key == "APP-VAE":
            predictor = PointProcessPredictor(
                history_window=8 * self.data.spec.horizon
            ).fit(self.data.train_stream, self.data.event_types)
        else:
            raise ValueError(f"unknown predictor {name!r}")
        self._predictors[key] = predictor
        return predictor

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _predict(self, name: str, **knobs):
        predictor = self.predictor(name)
        if name.upper() == "APP-VAE":
            return predictor.predict(
                self.data.test, stream=self.data.test_stream, **knobs
            )
        return predictor.predict(self.data.test, **knobs)

    def evaluate(self, name: str, **knobs) -> EvaluationSummary:
        """Evaluate one algorithm at one knob setting on the test split.

        Instrumented as one marshalling pass over the test records: the
        predictor run is the ``marshal`` stage, the (simulated) cloud model
        over the relayed frames is the ``ci`` stage, and the ``stage.*``
        work counters feed the §VI.H time-share accounting that
        ``python -m repro.cli metrics`` renders.
        """
        records = self.data.test
        with span("marshal", algorithm=name.upper(), records=len(records)):
            prediction = self._predict(name, **knobs)
        frames_covered = len(records) * records.horizon
        frames_relayed = int(prediction.predicted_frames().sum())
        with span(
            "ci",
            algorithm=name.upper(),
            frames_relayed=frames_relayed,
        ):
            summary = evaluate(prediction, records)
        inc("stage.frames_covered", frames_covered)
        inc("stage.frames_featurized", frames_covered)
        inc("stage.predictions", len(records))
        inc("stage.frames_relayed", frames_relayed)
        log_info(
            "experiment.evaluate",
            task=self.task.task_id,
            algorithm=name.upper(),
            rec=summary.rec,
            spl=summary.spl,
            **knobs,
        )
        return summary

    def curve(
        self, name: str, knob: str, values: Sequence[float]
    ) -> List[CurvePoint]:
        """Sweep one knob and return the REC–SPL trade-off points."""
        points = []
        for value in values:
            summary = self.evaluate(name, **{knob: value})
            points.append(CurvePoint(knobs={knob: value}, summary=summary))
        return points

    def ehcr_grid(
        self,
        confidences: Sequence[float],
        alphas: Sequence[float],
    ) -> List[CurvePoint]:
        """Full (c, α) grid of EHCR — the Fig. 4 EHCR frontier."""
        points = []
        for c in confidences:
            for a in alphas:
                summary = self.evaluate("EHCR", confidence=c, alpha=a)
                points.append(
                    CurvePoint(knobs={"confidence": c, "alpha": a}, summary=summary)
                )
        return points


def run_experiment(
    task,
    settings: Optional[ExperimentSettings] = None,
    encoder: str = "lstm",
    spec_override=None,
) -> Experiment:
    """Prepare an :class:`Experiment` for ``task`` (id or Task object).

    ``spec_override`` substitutes a custom DatasetSpec (used by the M/H
    sensitivity sweeps of Fig. 7).
    """
    settings = settings or ExperimentSettings()
    if isinstance(task, str):
        task = get_task(task)
    with span("experiment", task=task.task_id, scale=settings.scale):
        spec = (
            spec_override if spec_override is not None else task.spec(settings.scale)
        )
        with span("experiment.data", task=task.task_id):
            data = build_experiment_data(
                spec,
                seed=settings.seed,
                stride=settings.stride,
                max_records=settings.max_records,
            )
        config = settings.model_config(spec.window_size, spec.horizon)
        # train_eventhit opens the "train" span; the conformal components
        # open "calibrate.classify" / "calibrate.regress".
        model, history = train_eventhit(data.train, config=config, encoder=encoder)
        classifier = ConformalClassifier(model).calibrate(data.calibration)
        regressor = ConformalRegressor(model).calibrate(data.calibration)
    log_info(
        "experiment.ready",
        task=task.task_id,
        train_records=len(data.train),
        epochs_run=history.epochs_run,
        train_seconds=round(history.seconds, 3),
        final_train_loss=history.final_train_loss,
    )
    return Experiment(
        task=task,
        data=data,
        model=model,
        classifier=classifier,
        regressor=regressor,
        settings=settings,
        encoder=encoder,
    )
