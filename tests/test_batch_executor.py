"""Equivalence tests for the thread-pool extraction path.

With ``max_workers > 1`` :class:`BatchFeatureService` hands chunks of
deduplicated cache misses to a thread pool instead of running them on the
calling thread.  These tests pin the pooled path bit-identical to inline
extraction across every feature view, including the caching-disabled pure
count-kernel route, so the pool width can never change a feature matrix.
"""

import numpy as np
import pytest

from repro.features.batch import BatchFeatureService, VocabularyProjection


def make_codes(n: int, seed: int = 0, max_len: int = 400):
    rng = np.random.default_rng(seed)
    codes = [
        rng.integers(0, 256, size=int(rng.integers(1, max_len)), dtype=np.uint8).tobytes()
        for _ in range(n)
    ]
    # Mix in duplicates (proxy clones) and an empty bytecode.
    codes += codes[: n // 4] + [b""]
    rng.shuffle(codes)
    return codes


def pool_pair(seed, **kwargs):
    inline = BatchFeatureService(**{**kwargs, "max_workers": None})
    pooled = BatchFeatureService(**kwargs)
    return make_codes(48, seed=seed), inline, pooled


class TestThreadPoolEquivalence:
    def test_count_matrix_bit_identical(self):
        codes, inline, pooled = pool_pair(1, max_workers=3, chunk_size=4)
        assert np.array_equal(inline.count_matrix(codes), pooled.count_matrix(codes))
        # Unique extraction work is accounted identically on both paths.
        assert inline.kernel_passes == pooled.kernel_passes
        assert pooled._pool is not None

    def test_sequences_bit_identical(self):
        codes, inline, pooled = pool_pair(2, max_workers=3, chunk_size=4)
        for ours, theirs in zip(inline.sequences(codes), pooled.sequences(codes)):
            assert np.array_equal(ours.opcodes, theirs.opcodes)
            assert np.array_equal(ours.widths, theirs.widths)

    def test_caching_disabled_count_kernel_route(self):
        # cache_size=0 takes the pure count-kernel path through the pool.
        codes, inline, pooled = pool_pair(3, cache_size=0, max_workers=2, chunk_size=4)
        assert np.array_equal(inline.count_matrix(codes), pooled.count_matrix(codes))
        assert inline.kernel_passes == pooled.kernel_passes > 0

    def test_transform_bit_identical(self):
        codes, inline, pooled = pool_pair(4, max_workers=2, chunk_size=8)
        projection = VocabularyProjection.for_mnemonics(["PUSH1", "ADD", "MSTORE", "INVALID"])
        assert np.array_equal(
            inline.transform(codes, projection), pooled.transform(codes, projection)
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_corpora(self, seed):
        # Fresh randomized corpora, all views.
        codes = make_codes(30, seed=100 + seed, max_len=600)
        inline = BatchFeatureService(chunk_size=3)
        pooled = BatchFeatureService(max_workers=4, chunk_size=3)
        assert np.array_equal(inline.count_matrix(codes), pooled.count_matrix(codes))
        for ours, theirs in zip(inline.sequences(codes), pooled.sequences(codes)):
            assert np.array_equal(ours.opcodes, theirs.opcodes)
            assert np.array_equal(ours.widths, theirs.widths)
        for code in codes[:5]:
            assert np.array_equal(inline.ngram_codes(code, 2), pooled.ngram_codes(code, 2))
        assert inline.kernel_passes == pooled.kernel_passes

    def test_pooled_results_populate_cache(self):
        codes, _, pooled = pool_pair(5, max_workers=3, chunk_size=4)
        pooled.count_matrix(codes)
        passes = pooled.kernel_passes
        # A second sweep is served entirely from the cache.
        pooled.count_matrix(codes)
        pooled.sequences(codes)
        assert pooled.kernel_passes == passes


class TestPoolLifecycle:
    def test_pool_reused_across_batches_and_recreated_after_close(self):
        with BatchFeatureService(max_workers=2, chunk_size=2) as service:
            first = service._get_pool()
            assert service._get_pool() is first  # persistent, not per-call
            service.close()
            assert service._pool is None
            codes = make_codes(10, seed=7)
            matrix = service.count_matrix(codes)  # transparently rebuilds
            assert service._pool is not None and service._pool is not first
            assert np.array_equal(matrix, BatchFeatureService().count_matrix(codes))
        assert service._pool is None  # context exit closed it again

    def test_serial_path_builds_no_pool(self):
        # max_workers=None never builds a pool.
        service = BatchFeatureService(chunk_size=2)
        codes = make_codes(6, seed=6)
        reference = BatchFeatureService(max_workers=2, chunk_size=2)
        assert np.array_equal(service.count_matrix(codes), reference.count_matrix(codes))
        assert service._pool is None

    def test_warm_pool_noop_without_workers(self):
        service = BatchFeatureService()
        service.warm_pool()
        assert service._pool is None
        with BatchFeatureService(max_workers=2) as pooled:
            pooled.warm_pool()
            assert pooled._pool is not None
