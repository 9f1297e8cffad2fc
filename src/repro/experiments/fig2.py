"""Fig. 2 — phishing contracts per month (obtained vs unique)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..chain.contracts import ContractLabel, monthly_counts, unique_by_bytecode
from ..chain.corpus_cache import load_or_generate
from ..chain.generator import ContractCorpusGenerator, GeneratedCorpus
from ..core.config import Scale
from ..features.store import feature_session


@dataclass
class MonthlyPhishingSeries:
    """The two series plotted in Fig. 2."""

    months: List[str]
    obtained: Dict[str, int]
    unique: Dict[str, int]

    @property
    def total_obtained(self) -> int:
        """Total number of obtained phishing contracts."""
        return sum(self.obtained.values())

    @property
    def total_unique(self) -> int:
        """Total number of unique phishing bytecodes."""
        return sum(self.unique.values())

    @property
    def duplication_ratio(self) -> float:
        """Obtained / unique — the proxy-clone duplication factor."""
        return self.total_obtained / max(1, self.total_unique)

    def rows(self) -> List[Dict[str, object]]:
        """One row per month with both series."""
        return [
            {"month": month, "obtained": self.obtained.get(month, 0), "unique": self.unique.get(month, 0)}
            for month in self.months
        ]


def run_fig2(
    scale: Scale | None = None,
    corpus: GeneratedCorpus | None = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> MonthlyPhishingSeries:
    """Regenerate the Fig. 2 monthly series from the (synthetic) corpus.

    When no ``corpus`` is given and ``cache_dir`` is set, the corpus is
    served through the on-disk cache
    (:func:`~repro.chain.corpus_cache.load_or_generate`), so repeated runs
    skip generation entirely.  Passing both ``corpus`` and ``cache_dir`` is
    rejected with :class:`ValueError`: the cache can only serve a corpus it
    generates itself, so the ``cache_dir`` would be silently ignored — an
    explicit error beats a caller believing their corpus got cached.

    With ``scale.feature_cache_dir`` set, the run also pre-warms the
    persistent feature store (:class:`~repro.features.store.FeatureStore`)
    with every corpus bytecode — Fig. 2 is the corpus-construction figure,
    so it is the natural point to pay the one extraction sweep that makes
    later feature-consuming experiments over the same corpus warm.
    """
    scale = scale or Scale.ci()
    if corpus is not None and cache_dir is not None:
        raise ValueError(
            "run_fig2() accepts either a pre-built corpus or a cache_dir to "
            "generate into, not both — the cache cannot adopt an externally "
            "built corpus"
        )
    if corpus is None:
        if cache_dir is not None:
            corpus = load_or_generate(scale.corpus, cache_dir)[0]
        else:
            corpus = ContractCorpusGenerator(scale.corpus).generate()
    if scale.feature_cache_dir is not None:
        with feature_session(scale, [record.bytecode for record in corpus.records]):
            pass
    phishing = corpus.phishing
    unique = unique_by_bytecode(phishing)
    obtained_counts = monthly_counts(phishing, label=ContractLabel.PHISHING)
    unique_counts = monthly_counts(unique, label=ContractLabel.PHISHING)
    months = sorted(set(obtained_counts) | set(unique_counts))
    return MonthlyPhishingSeries(months=months, obtained=obtained_counts, unique=unique_counts)
