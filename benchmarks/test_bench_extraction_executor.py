"""Bench: inline vs thread-pool extraction over the bench corpus.

Runs the cold multi-view extraction (sequences + counts) of every corpus
bytecode on a ``BatchFeatureService`` extracting inline and on one with a
two-thread pool, at bench scale and on a corpus inflated to at least 4x it.
Asserts bit-identical matrices and equal kernel-pass accounting and prints
both rates.  No relative speed is asserted: the number is what decides
whether the thread pool is worth keeping, and CI may be single-core.
"""

import numpy as np
import pytest

from conftest import best_time

from repro.features.batch import BatchFeatureService

#: How many suffix-tagged copies of each unique bytecode to add.  The bench
#: corpus has ~350 unique codes; 7 tiles push the inflated corpus past 4x
#: the bench corpus size.
TILE_FACTOR = 7

#: Codes per kernel call, shared by both arms so only the pool differs.
CHUNK_SIZE = 256


def inflate_corpus(bytecodes):
    """Tile unique codes with distinguishing suffixes to >=4x bench scale."""
    unique = list({code for code in bytecodes if code})
    inflated = list(bytecodes)
    for tile in range(1, TILE_FACTOR + 1):
        suffix = bytes([tile, 0x5B])  # distinct tail keeps content keys apart
        inflated.extend(code + suffix for code in unique)
    return inflated


def extract_all(service, bytecodes):
    service.cache_clear()
    service.sequences(bytecodes)
    return service.count_matrix(bytecodes)


@pytest.mark.parametrize("inflated", [False, True], ids=["1x", "inflated"])
def test_bench_extraction_inline_vs_thread_pool(benchmark, corpus, inflated):
    bytecodes = [record.bytecode for record in corpus.records]
    if inflated:
        bytecodes = inflate_corpus(bytecodes)
        assert len(bytecodes) >= 4 * len(corpus.records)

    inline = BatchFeatureService(cache_size=len(bytecodes), chunk_size=CHUNK_SIZE)
    pooled = BatchFeatureService(
        cache_size=len(bytecodes), max_workers=2, chunk_size=CHUNK_SIZE
    )
    pooled.warm_pool()
    try:
        inline_time, inline_matrix = best_time(lambda: extract_all(inline, bytecodes))
        pooled_time, pooled_matrix = benchmark.pedantic(
            lambda: best_time(lambda: extract_all(pooled, bytecodes)),
            rounds=1,
            iterations=1,
        )
    finally:
        pooled.close()

    assert np.array_equal(inline_matrix, pooled_matrix)
    assert inline.kernel_passes == pooled.kernel_passes

    total_bytes = sum(len(code) for code in bytecodes)
    print(
        f"\n[extraction] {len(bytecodes)} contracts ({total_bytes / 1e6:.1f} MB): "
        f"inline {inline_time:.4f}s ({len(bytecodes) / inline_time:,.0f}/s), "
        f"threads x2 {pooled_time:.4f}s ({len(bytecodes) / pooled_time:,.0f}/s)"
    )
