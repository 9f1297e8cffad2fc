"""Seeded inputs of every workload.

The benchmark's ``--seed`` selects the traffic; the program only ever sees
the generated inputs.  The served detector is the same on every seed (one
Random Forest HSC fitted on the fixed bench-scale training set), so run to
run differences come from the traffic, not from a different model.

Sizes mirror the bench tier (``benchmarks/conftest.py::bench_scale``):
a 520-contract corpus balanced down to a 260-contract dataset.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Sequence, Set

import numpy as np

from repro.chain.blocks import BlockStream, BlockStreamConfig
from repro.chain.generator import CorpusConfig, generate_corpus
from repro.core.dataset import PhishingDataset
from repro.features.batch import content_key
from repro.models.hsc import make_random_forest_hsc

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Seed of the fixed training corpus and of the served Random Forest.
TRAINING_SEED = 2025
DETECTOR_SEED = 3
#: The bench tier's training corpus and its balanced size.
TRAINING_CORPUS = CorpusConfig(n_phishing=320, n_benign=200, seed=TRAINING_SEED, hard_fraction=0.22)
DATASET_SIZE = 260

#: Blocks of the chain one ``monitor_replay`` pass follows: about 3,000
#: deployments at the stream's default three per block, in 125 poll windows.
#: Passes replay the same windows, so the chain's length, not the run's, sets
#: how many distinct windows the median latency is taken over; with 300
#: blocks it moved by a quarter from seed to seed.
MONITOR_BLOCKS = 1000


def temp_root() -> Path:
    """Where runs put their temporary files: inside the checkout, git-ignored."""
    root = REPO_ROOT / ".bench_tmp"
    root.mkdir(exist_ok=True)
    return root


def derive_seed(seed: int, purpose: str) -> int:
    """An independent 31-bit seed for one input of one workload."""
    tag = int.from_bytes(purpose.encode("utf-8"), "big") % (2**32)
    # SeedSequence takes non-negative entropy; a negative seed maps to its
    # 64-bit two's complement.
    entropy = [seed & (2**64 - 1), tag]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0] >> 1)


def build_dataset() -> PhishingDataset:
    """Generate the fixed bench-scale corpus and balance it (the training set)."""
    corpus = generate_corpus(TRAINING_CORPUS)
    return PhishingDataset.build(corpus.records, target_size=DATASET_SIZE, seed=TRAINING_SEED)


def make_detector():
    """The served detector, unfitted (every process builds it identically)."""
    return make_random_forest_hsc(seed=DETECTOR_SEED)


def _deployments(config: BlockStreamConfig) -> Iterator[bytes]:
    stream = BlockStream(config)
    number = 1
    while True:
        for tx in stream.block(number).transactions:
            yield tx.bytecode
        number += 1


def _distinct_codes(config: BlockStreamConfig, count: int, exclude: Set[bytes]) -> List[bytes]:
    """The first ``count`` deployments of a stream whose content keys are new.

    A bytecode is kept the first time its content hash appears, and never
    when the hash is in ``exclude``.
    """
    seen = set(exclude)
    codes: List[bytes] = []
    for code in _deployments(config):
        key = content_key(code)
        if key not in seen:
            seen.add(key)
            codes.append(code)
            if len(codes) == count:
                break
    return codes


def cold_codes(seed: int, count: int, exclude: Set[bytes]) -> List[bytes]:
    """``count`` distinct bytecodes of a clone-free stream, none in ``exclude``."""
    config = BlockStreamConfig(seed=derive_seed(seed, "screen_cold"), proxy_clone_share=0.0)
    return _distinct_codes(config, count, exclude)


def monitor_stream(seed: int) -> BlockStream:
    """The monitored chain: default deploy rate, proxy-clone share and schedule."""
    return BlockStream(BlockStreamConfig(seed=derive_seed(seed, "monitor_replay")))


def unique_share(codes: Sequence[bytes]) -> float:
    """Distinct content hashes per bytecode (1.0 means no repeats)."""
    if not codes:
        return 0.0
    return len(content_keys(codes)) / len(codes)


def content_keys(codes: Sequence[bytes]) -> Set[bytes]:
    """Content keys of ``codes`` (the key the program's caches use)."""
    return {content_key(code) for code in codes}
