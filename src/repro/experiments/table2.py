"""Table II — averaged performance metrics for all supported models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.config import Scale
from ..core.dataset import PhishingDataset
from ..core.mem import ModelEvaluationModule
from ..core.results import EvaluationSuite, render_table2
from ..features.store import feature_session
from ..models.registry import TABLE2_MODEL_NAMES


@dataclass
class Table2Result:
    """The evaluation suite plus the paper's headline claims extracted."""

    suite: EvaluationSuite

    def rows(self) -> List[Dict[str, object]]:
        """Table II rows."""
        return self.suite.rows()

    def render(self) -> str:
        """Text rendering of Table II."""
        return render_table2(self.suite)

    def family_means(self, metric: str = "accuracy") -> Dict[str, float]:
        """Mean metric per family, as the paper reports in §IV-D."""
        return self.suite.category_means(metric)

    def shape_checks(self) -> Dict[str, bool]:
        """The qualitative claims of §IV-D, checked on this run.

        * the HSC family beats the vision family on accuracy;
        * ESCORT (the vulnerability detector) is the weakest model;
        * the overall best model is an HSC.
        """
        means = self.family_means("accuracy")
        checks: Dict[str, bool] = {}
        if "histogram" in means and "vision" in means:
            checks["hsc_beats_vision"] = means["histogram"] > means["vision"]
        evaluated = {e.model_name: e.mean("accuracy") for e in self.suite}
        if "ESCORT" in evaluated:
            checks["escort_is_weakest"] = evaluated["ESCORT"] == min(evaluated.values())
        best = self.suite.best_model("accuracy")
        checks["best_is_hsc"] = best.category.value == "histogram"
        return checks


def run_table2(
    dataset: PhishingDataset,
    scale: Optional[Scale] = None,
    model_names: Optional[Sequence[str]] = None,
) -> Table2Result:
    """Cross-validate the requested models and assemble Table II.

    With ``scale.feature_cache_dir`` set the whole suite runs inside a
    persistent :class:`~repro.features.store.FeatureStore` session: the
    session's service is installed as the process-wide default, so every
    detector's extraction is a cache lookup, and a repeated run loads all
    views from disk (zero kernel passes).  ``scale.fresh_service`` still
    wins inside timed cells — those deliberately extract cold.
    """
    scale = scale or Scale.ci()
    mem = ModelEvaluationModule(scale=scale)
    with feature_session(scale, dataset.bytecodes):
        suite = mem.evaluate_suite(list(model_names or TABLE2_MODEL_NAMES), dataset)
    return Table2Result(suite=suite)
