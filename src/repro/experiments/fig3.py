"""Fig. 3 — distribution of per-contract usage counts for 20 opcodes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import Scale
from ..core.dataset import PhishingDataset
from ..features.batch import BatchFeatureService, resolve_service
from ..features.histogram import opcode_usage_distribution
from ..features.store import feature_session

#: The 20 influential opcodes shown in Fig. 3 / Fig. 9 of the paper.
FIG3_OPCODES = (
    "RETURNDATASIZE",
    "RETURNDATACOPY",
    "GAS",
    "OR",
    "ADDRESS",
    "STATICCALL",
    "LT",
    "SHL",
    "LOG3",
    "RETURN",
    "PUSH1",
    "SWAP3",
    "REVERT",
    "MLOAD",
    "CALLDATALOAD",
    "POP",
    "ISZERO",
    "SELFBALANCE",
    "MSTORE",
    "AND",
)


@dataclass
class OpcodeUsageSummary:
    """Per-class usage statistics of one opcode."""

    opcode: str
    benign_mean: float
    phishing_mean: float
    benign_nonzero_fraction: float
    phishing_nonzero_fraction: float

    @property
    def overlap(self) -> float:
        """A crude overlap indicator: ratio of the smaller to the larger mean."""
        low, high = sorted([self.benign_mean, self.phishing_mean])
        return low / high if high > 0 else 1.0


@dataclass
class OpcodeUsageDistribution:
    """The full Fig. 3 data: per-contract counts for each opcode and class."""

    opcodes: List[str]
    benign_usage: Dict[str, np.ndarray]
    phishing_usage: Dict[str, np.ndarray]

    def summaries(self) -> List[OpcodeUsageSummary]:
        """One summary row per opcode."""
        rows = []
        for opcode in self.opcodes:
            benign = self.benign_usage[opcode]
            phishing = self.phishing_usage[opcode]
            rows.append(
                OpcodeUsageSummary(
                    opcode=opcode,
                    benign_mean=float(benign.mean()) if benign.size else 0.0,
                    phishing_mean=float(phishing.mean()) if phishing.size else 0.0,
                    benign_nonzero_fraction=float((benign > 0).mean()) if benign.size else 0.0,
                    phishing_nonzero_fraction=float((phishing > 0).mean()) if phishing.size else 0.0,
                )
            )
        return rows

    def no_single_opcode_separates(self, threshold: float = 0.95) -> bool:
        """The paper's observation: no single opcode reliably separates classes.

        True when no opcode's presence/absence classifies more than
        ``threshold`` of the contracts correctly.
        """
        best = 0.0
        for opcode in self.opcodes:
            benign = self.benign_usage[opcode] > 0
            phishing = self.phishing_usage[opcode] > 0
            n_total = len(benign) + len(phishing)
            if n_total == 0:
                continue
            # Classify "uses opcode => phishing" and the converse.
            forward = (phishing.sum() + (~benign).sum()) / n_total
            backward = ((~phishing).sum() + benign.sum()) / n_total
            best = max(best, forward, backward)
        return best < threshold


def run_fig3(
    dataset: PhishingDataset,
    opcodes: Optional[Sequence[str]] = None,
    service: Optional[BatchFeatureService] = None,
    scale: Optional[Scale] = None,
) -> OpcodeUsageDistribution:
    """Regenerate the Fig. 3 usage distributions from a dataset.

    Both class slices are counted through one batch service, so the
    duplicate-heavy corpus is swept once per distinct bytecode.  With
    ``scale.feature_cache_dir`` set (and no explicit ``service``, which
    always takes precedence), the counts flow through a persistent
    :class:`~repro.features.store.FeatureStore` session, so a repeated run
    over the same dataset performs zero kernel passes.
    """
    opcodes = list(opcodes or FIG3_OPCODES)
    labels = dataset.labels
    bytecodes = dataset.bytecodes
    with feature_session(scale if service is None else None, bytecodes) as session:
        service = session.service if session is not None else resolve_service(service)
        benign_codes = [code for code, label in zip(bytecodes, labels) if label == 0]
        phishing_codes = [code for code, label in zip(bytecodes, labels) if label == 1]
        return OpcodeUsageDistribution(
            opcodes=opcodes,
            benign_usage=opcode_usage_distribution(
                benign_codes, opcodes, service=service
            ),
            phishing_usage=opcode_usage_distribution(
                phishing_codes, opcodes, service=service
            ),
        )
