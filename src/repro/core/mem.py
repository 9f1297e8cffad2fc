"""Model Evaluation Module (MEM).

Systematically trains and evaluates the registered detectors with repeated
stratified k-fold cross-validation over a :class:`PhishingDataset`
(Fig. 1 step ➐), producing the data behind Table II, the scalability study
and the time-resistance study.

Timed cells run against the process-wide
:class:`~repro.features.batch.BatchFeatureService` by default, so a warm
cache removes extraction cost from ``train_time`` / ``inference_time``;
``Scale(fresh_service=True)`` makes every timed cell extract through a
fresh cold service instead, so the captured times include extracting the
cell's own contracts (within-cell dedup of identical bytecodes remains —
see :class:`~repro.core.config.Scale`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, List, Optional, Sequence

import numpy as np

from ..features.batch import BatchFeatureService, use_service
from ..ml.metrics import MetricReport
from ..ml.model_selection import CrossValidationResult, FoldResult, StratifiedKFold
from ..models.base import PhishingDetector
from ..models.registry import DeepModelScale, build_model, get_model_spec
from .config import Scale
from .dataset import PhishingDataset
from .results import EvaluationSuite, ModelEvaluation

ProgressCallback = Callable[[str, int, int], None]


@dataclass
class ModelEvaluationModule:
    """Runs the cross-validated evaluation of detectors on a dataset."""

    scale: Scale = field(default_factory=Scale.ci)
    progress: Optional[ProgressCallback] = None

    # ------------------------------------------------------------------

    def _notify(self, model_name: str, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(model_name, done, total)

    def _timing_scope(self, n_contracts: int) -> ContextManager:
        """The feature-service scope of one timed fit/score cell.

        With ``scale.fresh_service`` the cell extracts through its own cold
        :class:`BatchFeatureService`, so the captured times include feature
        extraction regardless of process-wide cache state (duplicates within
        the cell are still extracted only once).  The cell service is sized
        to hold every contract of the cell, so the within-cell dedup
        guarantee cannot be broken by LRU self-eviction on large splits; it
        extracts through the pool width the scale configures, so MEM timings
        measure the same extraction a production deployment would run.
        """
        if self.scale.fresh_service:
            return self._fresh_cell_service(n_contracts)
        return nullcontext()

    @contextmanager
    def _fresh_cell_service(self, n_contracts: int) -> Iterator[BatchFeatureService]:
        """A cold per-cell service whose worker pool dies with the cell.

        The pool is started eagerly, *before* the caller opens its timing
        window: the cell should measure extraction, not one-off pool
        construction, which a long-lived deployment pays once, not per batch.
        """
        service = BatchFeatureService(
            cache_size=max(4096, n_contracts),
            max_workers=self.scale.feature_workers,
        )
        service.warm_pool()
        try:
            with use_service(service):
                yield service
        finally:
            service.close()

    def evaluate_detector(
        self,
        build_detector: Callable[[int], PhishingDetector],
        dataset: PhishingDataset,
        model_name: str,
        n_folds: int,
        n_runs: int,
        seed: int = 0,
    ) -> CrossValidationResult:
        """Cross-validate one detector factory on raw bytecodes."""
        bytecodes = dataset.bytecodes
        labels = dataset.labels
        result = CrossValidationResult(model_name=model_name)
        total = n_folds * n_runs
        done = 0
        for run in range(n_runs):
            splitter = StratifiedKFold(n_splits=n_folds, shuffle=True, seed=seed + run)
            for fold_index, (train_idx, test_idx) in enumerate(splitter.split(labels)):
                detector = build_detector(seed + run * 100 + fold_index)
                train_codes = [bytecodes[i] for i in train_idx]
                test_codes = [bytecodes[i] for i in test_idx]
                with self._timing_scope(len(train_codes) + len(test_codes)):
                    start = time.perf_counter()
                    detector.fit(train_codes, labels[train_idx])
                    train_time = time.perf_counter() - start
                    start = time.perf_counter()
                    predictions = detector.predict(test_codes)
                    inference_time = time.perf_counter() - start
                report = MetricReport.from_predictions(labels[test_idx], predictions)
                result.folds.append(
                    FoldResult(
                        fold=fold_index,
                        run=run,
                        report=report,
                        train_time=train_time,
                        inference_time=inference_time,
                    )
                )
                done += 1
                self._notify(model_name, done, total)
        return result

    def evaluate_model(
        self,
        model_name: str,
        dataset: PhishingDataset,
        seed: Optional[int] = None,
        deep_scale: Optional[DeepModelScale] = None,
    ) -> ModelEvaluation:
        """Cross-validate one registered model by name."""
        spec = get_model_spec(model_name)
        n_folds, n_runs = self.scale.folds_for(spec.category.value)
        scale = deep_scale or self.scale.deep_scale
        cv_result = self.evaluate_detector(
            lambda fold_seed: build_model(model_name, scale=scale, seed=fold_seed),
            dataset,
            model_name=model_name,
            n_folds=n_folds,
            n_runs=n_runs,
            seed=self.scale.seed if seed is None else seed,
        )
        return ModelEvaluation(model_name=model_name, category=spec.category, cv_result=cv_result)

    def evaluate_suite(
        self,
        model_names: Sequence[str],
        dataset: PhishingDataset,
        seed: Optional[int] = None,
    ) -> EvaluationSuite:
        """Cross-validate several registered models (a full Table II run)."""
        suite = EvaluationSuite()
        for model_name in model_names:
            suite.evaluations.append(self.evaluate_model(model_name, dataset, seed=seed))
        return suite

    # ------------------------------------------------------------------
    # single-split evaluation (used by scalability / time-resistance)
    # ------------------------------------------------------------------

    def fit_and_score(
        self,
        model_name: str,
        train: PhishingDataset,
        test: PhishingDataset,
        seed: int = 0,
        deep_scale: Optional[DeepModelScale] = None,
    ) -> dict:
        """Train on one dataset, evaluate on another; returns metrics + times."""
        detector = build_model(model_name, scale=deep_scale or self.scale.deep_scale, seed=seed)
        with self._timing_scope(len(train) + len(test)):
            start = time.perf_counter()
            detector.fit(train.bytecodes, train.labels)
            train_time = time.perf_counter() - start
            start = time.perf_counter()
            predictions = detector.predict(test.bytecodes)
            inference_time = time.perf_counter() - start
        report = MetricReport.from_predictions(test.labels, predictions)
        return {
            "model": model_name,
            **report.as_dict(),
            "train_time": train_time,
            "inference_time": inference_time,
            "n_train": len(train),
            "n_test": len(test),
        }
