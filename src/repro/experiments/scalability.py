"""Figs. 5–7 — model scalability analysis (§IV-F).

Three data splits (1/3, 2/3, all samples) are evaluated with the best model
of each family (Random Forest, ECA+EfficientNet, SCSGuard):

* Fig. 5 — the four performance metrics per split and model;
* Fig. 6 — the critical difference diagram (Friedman + Wilcoxon + Cliff's δ);
* Fig. 7 — training and inference time per split and model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import Scale
from ..core.dataset import PhishingDataset
from ..core.mem import ModelEvaluationModule
from ..features.batch import BatchFeatureService, resolve_service, use_service
from ..features.store import feature_session
from ..ml.metrics import METRIC_NAMES
from ..ml.model_selection import train_test_split
from ..models.registry import SCALABILITY_MODEL_NAMES
from ..stats.cdd import CriticalDifferenceDiagram, compute_cdd
from ..stats.effect_size import cliffs_delta

#: The three data-split ratios of §IV-F.
SPLIT_RATIOS = (1 / 3, 2 / 3, 1.0)


@dataclass
class ScalabilityCell:
    """Metrics and times of one (model, split) cell."""

    model: str
    split_ratio: float
    metrics: Dict[str, float]
    train_time: float
    inference_time: float
    n_train: int
    n_test: int


@dataclass
class ScalabilityResult:
    """All cells of the scalability experiment plus derived analyses."""

    cells: List[ScalabilityCell] = field(default_factory=list)
    model_names: List[str] = field(default_factory=list)

    def cell(self, model: str, split_ratio: float) -> ScalabilityCell:
        """Look up one cell."""
        for item in self.cells:
            if item.model == model and abs(item.split_ratio - split_ratio) < 1e-9:
                return item
        raise KeyError(f"no cell for {model!r} at split {split_ratio}")

    def metric_series(self, model: str, metric: str) -> List[float]:
        """Fig. 5 series: one value per split ratio for ``model``."""
        return [
            self.cell(model, ratio).metrics[metric] for ratio in sorted({c.split_ratio for c in self.cells})
        ]

    def time_series(self, model: str, which: str = "train_time") -> List[float]:
        """Fig. 7 series: training or inference time per split ratio."""
        attribute = "train_time" if which == "train_time" else "inference_time"
        return [
            getattr(self.cell(model, ratio), attribute)
            for ratio in sorted({c.split_ratio for c in self.cells})
        ]

    def fig5_rows(self) -> List[Dict[str, object]]:
        """Flat rows of Fig. 5 (model, split, metrics)."""
        return [
            {"model": cell.model, "split": round(cell.split_ratio, 2), **cell.metrics}
            for cell in self.cells
        ]

    def fig7_rows(self) -> List[Dict[str, object]]:
        """Flat rows of Fig. 7 (model, split, times)."""
        return [
            {
                "model": cell.model,
                "split": round(cell.split_ratio, 2),
                "train_time": cell.train_time,
                "inference_time": cell.inference_time,
            }
            for cell in self.cells
        ]

    # ------------------------------------------------------------------
    # Fig. 6: critical difference diagram + Cliff's delta
    # ------------------------------------------------------------------

    def measurement_matrix(self, metric: str) -> np.ndarray:
        """(n_splits, n_models) matrix of ``metric`` values."""
        ratios = sorted({cell.split_ratio for cell in self.cells})
        return np.array(
            [[self.cell(model, ratio).metrics[metric] for model in self.model_names] for ratio in ratios]
        )

    def critical_difference(self, metric: str = "accuracy") -> CriticalDifferenceDiagram:
        """Fig. 6 data for one metric."""
        return compute_cdd(self.measurement_matrix(metric), self.model_names)

    def cliffs_deltas(self, metric: str = "accuracy") -> Dict[str, float]:
        """Cliff's delta between every model pair over the splits."""
        matrix = self.measurement_matrix(metric)
        deltas: Dict[str, float] = {}
        for i, first in enumerate(self.model_names):
            for j, second in enumerate(self.model_names):
                if i < j:
                    deltas[f"{first}|{second}"] = cliffs_delta(matrix[:, i], matrix[:, j]).delta
        return deltas

    def shape_checks(self) -> Dict[str, bool]:
        """Qualitative claims of §IV-F checked on this run."""
        checks: Dict[str, bool] = {}
        ratios = sorted({cell.split_ratio for cell in self.cells})
        if "Random Forest" in self.model_names:
            rf_accuracy = self.metric_series("Random Forest", "accuracy")
            others_best = max(
                self.cell(model, ratios[-1]).metrics["accuracy"]
                for model in self.model_names
                if model != "Random Forest"
            )
            checks["rf_best_at_full_split"] = rf_accuracy[-1] >= others_best
            checks["rf_stable"] = (max(rf_accuracy) - min(rf_accuracy)) < 0.15
        if "SCSGuard" in self.model_names:
            scs_accuracy = self.metric_series("SCSGuard", "accuracy")
            checks["scsguard_improves_with_data"] = scs_accuracy[-1] >= scs_accuracy[0] - 0.02
            scs_train = self.time_series("SCSGuard", "train_time")
            rf_train = self.time_series("Random Forest", "train_time")
            checks["scsguard_slower_than_rf"] = scs_train[-1] > rf_train[-1]
        return checks


def run_scalability(
    dataset: PhishingDataset,
    scale: Optional[Scale] = None,
    model_names: Optional[Sequence[str]] = None,
    split_ratios: Sequence[float] = SPLIT_RATIOS,
    test_size: float = 0.25,
    service: Optional[BatchFeatureService] = None,
) -> ScalabilityResult:
    """Run the scalability sweep over data splits and the three best models.

    Every (model, split) cell refits over overlapping subsets of the same
    contracts, so the sweep runs under one :class:`BatchFeatureService`
    warmed with the full dataset up front.  Warming extracts the *sequence*
    view (one disassembly pass per unique bytecode) and derives count
    vectors from it, so histogram, tokenizer and frequency-image extraction
    inside the cells all reduce to cache lookups.  With
    ``scale.fresh_service`` the warm-up is skipped and every timed cell runs
    against its own cold service instead (see
    :class:`~repro.core.mem.ModelEvaluationModule`).

    With ``scale.feature_cache_dir`` set (and no explicit ``service``, which
    takes precedence), the sweep runs inside a persistent
    :class:`~repro.features.store.FeatureStore` session instead: the warm-up
    happens against the store's right-sized service (loaded from disk on a
    repeat run, so zero kernel passes), and the populated cache is saved
    back for the next invocation.
    """
    scale = scale or Scale.ci()
    model_names = list(model_names or SCALABILITY_MODEL_NAMES)
    mem = ModelEvaluationModule(scale=scale)
    result = ScalabilityResult(model_names=model_names)

    with feature_session(
        scale if service is None else None, dataset.bytecodes
    ) as session:
        if session is not None:
            # The session already installed its service as the default,
            # sized it to the dataset, and performed (or loaded) the warm-up
            # — skipped under fresh_service, where the timed cells extract
            # through their own cold services and would never read it.
            _run_cells(
                result, mem, dataset, scale, model_names, split_ratios, test_size
            )
            return result
        service = resolve_service(service)
        with use_service(service):
            # Warm the cache with the whole dataset (skipped when caching is
            # disabled — the views would be recomputed and discarded — and when
            # fresh_service demands cold per-cell timings), growing capacity so
            # the warm-up cannot self-evict on large corpora.  The original
            # capacity is restored afterwards so a shared default service's
            # memory bound outlives the experiment.
            original_capacity = service.cache_size
            try:
                if original_capacity and not scale.fresh_service:
                    service.cache_size = max(original_capacity, len(dataset))
                    service.sequences(dataset.bytecodes)
                    service.count_matrix(dataset.bytecodes)
                _run_cells(
                    result, mem, dataset, scale, model_names, split_ratios, test_size
                )
            finally:
                # Setter evicts down, so the service's memory bound is actually
                # re-established, not just re-declared.
                service.cache_size = original_capacity
        return result


def _run_cells(
    result: ScalabilityResult,
    mem: ModelEvaluationModule,
    dataset: PhishingDataset,
    scale: Scale,
    model_names: Sequence[str],
    split_ratios: Sequence[float],
    test_size: float,
) -> None:
    """Fit and score every (split, model) cell into ``result``."""
    for ratio in split_ratios:
        subset = dataset.split_fraction(ratio, seed=scale.seed)
        indices = np.arange(len(subset))
        train_indices, test_indices, _, _ = train_test_split(
            indices, subset.labels, test_size=test_size, seed=scale.seed
        )
        train = subset.subset(list(train_indices))
        test = subset.subset(list(test_indices))
        for model in model_names:
            outcome = mem.fit_and_score(model, train, test, seed=scale.seed)
            result.cells.append(
                ScalabilityCell(
                    model=model,
                    split_ratio=float(ratio),
                    metrics={metric: outcome[metric] for metric in METRIC_NAMES},
                    train_time=outcome["train_time"],
                    inference_time=outcome["inference_time"],
                    n_train=outcome["n_train"],
                    n_test=outcome["n_test"],
                )
            )
