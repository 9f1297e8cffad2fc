"""Model registry: every detector of Table II behind one factory surface.

The model-evaluation module (MEM), the post-hoc analysis and the benchmarks
look models up by their Table II name.  A :class:`ModelSpec` binds the name,
the family and a factory; the ``scale`` argument lets experiments shrink the
deep models (fewer epochs, smaller dimensions) without touching the HSCs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..features.batch import BatchFeatureService
from ..nn.trainer import TrainerConfig
from .base import ModelCategory, PhishingDetector
from .escort import ESCORTDetector
from .gpt2 import GPT2Detector
from .hsc import (
    make_catboost_hsc,
    make_knn_hsc,
    make_lightgbm_hsc,
    make_logistic_regression_hsc,
    make_random_forest_hsc,
    make_svm_hsc,
    make_xgboost_hsc,
)
from .scsguard import SCSGuardDetector
from .t5 import T5Detector
from .vision import make_eca_efficientnet, make_vit_freq, make_vit_r2d2


@dataclass(frozen=True)
class DeepModelScale:
    """Size/effort knobs applied to the neural detectors.

    ``paper()`` mirrors the original setting (224×224 images, long token
    windows, many epochs); ``ci()`` is small enough for CPU-only runs and is
    what ``Scale.ci()`` and a bare ``Scale()`` use; ``smoke()`` is smaller
    still and is what ``Scale.smoke()`` (the unit tests) and the benchmark
    harness's ``bench_scale()`` use.  Vision models
    train from scratch (no ImageNet pretraining is available offline), so
    they get their own epoch/learning-rate budget.
    """

    image_size: int = 16
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    max_length: int = 96
    epochs: int = 4
    vision_epochs: int = 18
    batch_size: int = 16
    learning_rate: float = 2e-3
    vision_learning_rate: float = 4e-3
    weight_decay: float = 1e-4

    @classmethod
    def ci(cls) -> "DeepModelScale":
        """Small CPU-friendly configuration (default)."""
        return cls()

    @classmethod
    def smoke(cls) -> "DeepModelScale":
        """Tiny configuration for unit tests."""
        return cls(
            image_size=16,
            d_model=16,
            n_layers=1,
            n_heads=2,
            max_length=48,
            epochs=2,
            vision_epochs=3,
        )

    @classmethod
    def paper(cls) -> "DeepModelScale":
        """Paper-equivalent configuration (needs far more compute)."""
        return cls(
            image_size=224,
            d_model=256,
            n_layers=6,
            n_heads=8,
            max_length=512,
            epochs=20,
            vision_epochs=20,
            batch_size=32,
            learning_rate=1e-3,
            vision_learning_rate=1e-3,
        )

    def trainer_config(self, seed: int = 0) -> TrainerConfig:
        """Trainer configuration for the language-model detectors."""
        return TrainerConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
            seed=seed,
        )

    def vision_trainer_config(self, seed: int = 0) -> TrainerConfig:
        """Trainer configuration for the vision detectors."""
        return TrainerConfig(
            epochs=self.vision_epochs,
            batch_size=self.batch_size,
            learning_rate=self.vision_learning_rate,
            weight_decay=self.weight_decay,
            seed=seed,
        )


@dataclass(frozen=True)
class ModelSpec:
    """A named detector factory with its family."""

    name: str
    category: ModelCategory
    factory: Callable[..., PhishingDetector]

    def build(
        self,
        scale: Optional[DeepModelScale] = None,
        seed: int = 0,
        service: Optional["BatchFeatureService"] = None,
    ) -> PhishingDetector:
        """Instantiate the detector at the given scale.

        ``service`` injects a dedicated feature service into the fresh
        detector (propagated into its extractors through the
        :attr:`~repro.models.base.PhishingDetector.feature_service` setter);
        ``None`` keeps the process-wide shared default.
        """
        detector = self.factory(scale or DeepModelScale.ci(), seed)
        if service is not None:
            detector.feature_service = service
        return detector


def _hsc(name: str, factory: Callable[..., PhishingDetector]) -> ModelSpec:
    return ModelSpec(
        name=name,
        category=ModelCategory.HISTOGRAM,
        factory=lambda scale, seed: factory(seed=seed),
    )


def _vision(name: str, maker) -> ModelSpec:
    def factory(scale: DeepModelScale, seed: int) -> PhishingDetector:
        if maker is make_eca_efficientnet:
            return maker(
                image_size=scale.image_size,
                trainer_config=scale.vision_trainer_config(seed),
                seed=seed,
            )
        patch_size = max(2, scale.image_size // 4)
        return maker(
            image_size=scale.image_size,
            trainer_config=scale.vision_trainer_config(seed),
            seed=seed,
            d_model=scale.d_model,
            n_layers=scale.n_layers,
            n_heads=scale.n_heads,
            patch_size=patch_size,
        )

    return ModelSpec(name=name, category=ModelCategory.VISION, factory=factory)


def _language(name: str, factory: Callable[..., PhishingDetector]) -> ModelSpec:
    return ModelSpec(name=name, category=ModelCategory.LANGUAGE, factory=factory)


MODEL_SPECS: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in [
        _hsc("Random Forest", make_random_forest_hsc),
        _hsc("k-NN", make_knn_hsc),
        _hsc("SVM", make_svm_hsc),
        _hsc("Logistic Regression", make_logistic_regression_hsc),
        _hsc("XGBoost", make_xgboost_hsc),
        _hsc("LightGBM", make_lightgbm_hsc),
        _hsc("CatBoost", make_catboost_hsc),
        _vision("ECA+EfficientNet", make_eca_efficientnet),
        _vision("ViT+R2D2", make_vit_r2d2),
        _vision("ViT+Freq", make_vit_freq),
        _language(
            "SCSGuard",
            lambda scale, seed: SCSGuardDetector(
                max_length=scale.max_length,
                d_embed=scale.d_model,
                n_heads=scale.n_heads,
                d_hidden=scale.d_model,
                trainer_config=scale.trainer_config(seed),
                seed=seed,
            ),
        ),
        _language(
            "GPT-2a",
            lambda scale, seed: GPT2Detector(
                variant="alpha",
                max_length=scale.max_length,
                d_model=scale.d_model,
                n_layers=scale.n_layers,
                n_heads=scale.n_heads,
                trainer_config=scale.trainer_config(seed),
                seed=seed,
            ),
        ),
        _language(
            "T5a",
            lambda scale, seed: T5Detector(
                variant="alpha",
                max_length=scale.max_length,
                d_model=scale.d_model,
                n_layers=scale.n_layers,
                n_heads=scale.n_heads,
                trainer_config=scale.trainer_config(seed),
                seed=seed,
            ),
        ),
        _language(
            "GPT-2b",
            lambda scale, seed: GPT2Detector(
                variant="beta",
                max_length=scale.max_length,
                d_model=scale.d_model,
                n_layers=scale.n_layers,
                n_heads=scale.n_heads,
                trainer_config=scale.trainer_config(seed),
                seed=seed,
            ),
        ),
        _language(
            "T5b",
            lambda scale, seed: T5Detector(
                variant="beta",
                max_length=scale.max_length,
                d_model=scale.d_model,
                n_layers=scale.n_layers,
                n_heads=scale.n_heads,
                trainer_config=scale.trainer_config(seed),
                seed=seed,
            ),
        ),
        ModelSpec(
            name="ESCORT",
            category=ModelCategory.VULNERABILITY,
            factory=lambda scale, seed: ESCORTDetector(
                pretrain_epochs=scale.epochs,
                transfer_epochs=scale.epochs,
                batch_size=scale.batch_size,
                learning_rate=scale.learning_rate,
                seed=seed,
            ),
        ),
    ]
}

#: The 16 models of Table II, in the paper's row order.
TABLE2_MODEL_NAMES: List[str] = [
    "Random Forest",
    "k-NN",
    "SVM",
    "Logistic Regression",
    "XGBoost",
    "LightGBM",
    "CatBoost",
    "ECA+EfficientNet",
    "ViT+R2D2",
    "ViT+Freq",
    "SCSGuard",
    "GPT-2a",
    "T5a",
    "GPT-2b",
    "T5b",
    "ESCORT",
]

#: The 13 models kept for the post-hoc analysis (ESCORT, GPT-2β, T5β excluded).
POSTHOC_MODEL_NAMES: List[str] = [
    name for name in TABLE2_MODEL_NAMES if name not in {"ESCORT", "GPT-2b", "T5b"}
]

#: The best model of each family, used by the scalability and
#: time-resistance experiments (§IV-F, §IV-G).
SCALABILITY_MODEL_NAMES: List[str] = ["Random Forest", "ECA+EfficientNet", "SCSGuard"]


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model by its Table II name."""
    if name not in MODEL_SPECS:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_SPECS)}")
    return MODEL_SPECS[name]


def build_model(
    name: str,
    scale: Optional[DeepModelScale] = None,
    seed: int = 0,
    service: Optional["BatchFeatureService"] = None,
) -> PhishingDetector:
    """Instantiate the detector registered under ``name``.

    ``service`` optionally injects a dedicated
    :class:`~repro.features.batch.BatchFeatureService`; by default the
    detector extracts through the process-wide shared service.
    """
    return get_model_spec(name).build(scale=scale, seed=seed, service=service)
