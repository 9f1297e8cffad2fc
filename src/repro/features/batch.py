"""Multi-view batch feature-extraction service around the vectorized kernels.

PhishingHook's model zoo consumes the *same* disassembled opcode stream four
ways — opcode histograms (HSC), token-id sequences (GPT-2/T5), hex n-grams
(SCSGuard) and frequency-image pixel streams (ViT+Freq) — over a corpus that
is duplicate-heavy (EIP-1167 minimal proxy clones share bytecode bit-for-bit)
and re-extracted many times (cross-validation folds, data splits, model
families).  :class:`BatchFeatureService` exploits all of it:

* **content-hash LRU caching** — every unique bytecode owns one cache entry
  keyed by a digest of its normalised bytes.  The entry holds up to six
  views: the 256-bin **count** vector, the **sequence**
  (:class:`~repro.evm.fastcount.OpcodeSequence` of opcode values + immediate
  widths), **n-gram codes** (integer codes of non-overlapping byte
  groups), the two raw-byte views — the **byte-count** histogram
  (ESCORT's embedding input) and **R2D2 images** (per image size; both
  memory-only, recomputed rather than persisted) — and the **analysis**
  vector (the :data:`~repro.evm.cfg.CFG_METRIC_NAMES` static-analysis
  metrics, derived from the cached sequence and persisted).  Counts are
  derived from a cached sequence for free, so one
  disassembly pass per unique bytecode feeds the histogram, tokenizer,
  frequency-image and static-analysis extractors; the n-gram view never
  needs a disassembly at all.  :attr:`BatchFeatureService.kernel_passes` counts the kernel results
  installed into the cache (every kernel run when caching is disabled) —
  the cost signal the one-disassembly-per-unique-bytecode property is
  asserted on.
* **chunked batches** — cache misses are deduplicated and handed in
  chunks to the packed batch kernels of :mod:`repro.evm.fastcount`
  (:func:`~repro.evm.fastcount.sequence_batch` /
  :func:`~repro.evm.fastcount.count_batch`), inline or across an optional
  thread pool: the kernels spend their time in NumPy, so threads overlap
  usefully with no serialization, and pooled results are bit-identical
  to inline ones (pinned by the equivalence tests);
* **spill-on-evict caching** — with a spill directory configured, the LRU
  writes an evicted entry's persistable views to a content-addressed
  spill file instead of dropping them, and every view getter falls back
  to a spill read before declaring a miss (``CacheStats.spills`` /
  ``spill_hits``) — eviction stops meaning recompute;
* **array-based vocabulary projection** — a precomputed 256 → column index
  map replaces the per-mnemonic dict loop of the legacy extractor;
* **on-disk persistence** — :meth:`BatchFeatureService.save` /
  :meth:`BatchFeatureService.load` round-trip the count/sequence/n-gram
  store (and the hit/miss statistics) through one ``.npz`` file, so repeated
  experiment runs skip extraction entirely.  Corrupt or
  incompatible-version files are rejected with :class:`CacheLoadError`;
  unwritable targets raise :class:`CacheWriteError`.
  :class:`~repro.features.store.FeatureStore` layers corpus-fingerprint
  file resolution and load-or-create sessions on top, which is how the
  experiment drivers get persistent warm starts.

A process-wide default service (:func:`get_default_service`) lets every
detector share one cache, which is what makes the scalability experiment's
nine fit/score cells extract each contract only once.  The flip side is a
measurement-semantics change: timing rows captured against a warm shared
cache no longer include extraction cost.  ``Scale(fresh_service=True)``
makes the Model Evaluation Module run every timed cell against a fresh
cold service when end-to-end timings are needed (see
:mod:`repro.core.mem`; within-cell dedup of identical bytecodes remains).
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..obs import trace as obs_trace
from ..persist import open_validated_npz, write_npz
from ..evm.cfg import CFG_METRIC_NAMES, cfg_metrics_vector
from ..evm.disassembler import BytecodeLike, normalize_bytecode
from ..evm.fastcount import (
    UNDEFINED_VALUES,
    OpcodeSequence,
    bins_for_mnemonics,
    count_batch,
    count_opcodes,
    sequence_batch,
)
from .rawbytes import byte_count_vector, r2d2_image_from_bytes

#: Opcode byte values a folded sequence may legally contain (undefined
#: values are collapsed into INVALID by the kernel, so a persisted sequence
#: carrying one is tampered or corrupt).
_DEFINED_OPCODES: np.ndarray = np.ones(256, dtype=bool)
_DEFINED_OPCODES[UNDEFINED_VALUES] = False

#: Format tag of the persistent cache file (see :meth:`BatchFeatureService.save`).
CACHE_FILE_MAGIC = "phishinghook-feature-cache"
#: Bump when the on-disk layout changes; older files are rejected as stale.
CACHE_FILE_VERSION = 1

#: Format tag of per-entry spill files written on LRU eviction.
SPILL_FILE_MAGIC = "phishinghook-feature-spill"
#: Bump when the spill layout changes; stale files read as misses.
SPILL_FILE_VERSION = 1

#: Largest byte group the integer n-gram view supports (256**7 < 2**63).
MAX_NGRAM_BYTES = 7


def content_key(code: bytes) -> bytes:
    """16-byte blake2b digest keying every bytecode-derived cache.

    One definition shared by the multi-view feature cache, the corpus
    fingerprint and the serving layer's verdict cache, so "same content
    hash" is a structural guarantee rather than a coincidence of copies.
    """
    return hashlib.blake2b(code, digest_size=16).digest()


class CacheLoadError(RuntimeError):
    """A persistent cache file is corrupt, stale, or otherwise unreadable."""


class CacheWriteError(RuntimeError):
    """A persistent cache file could not be written (bad path, full disk)."""


def _traced(name: str):
    """Record the wrapped call as a span of the active trace, if any.

    Untraced callers pay one ``ContextVar`` read (see
    :func:`repro.obs.trace.span`), which is what keeps the feature getters
    safe to instrument on the serving hot path.
    """

    def decorate(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            with obs_trace.span(name):
                return method(*args, **kwargs)

        return wrapper

    return decorate


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting of one :class:`BatchFeatureService` view.

    A lookup served from the cache counts as a hit even when it required a
    cheap derivation (a count vector binned out of a cached sequence); a miss
    means the bytecode had to go through a bytes-level kernel for this view.
    When a spill directory is configured, ``spills`` counts entries whose
    views were written to disk on eviction instead of dropped, and
    ``spill_hits`` counts lookups served by reloading a spilled entry —
    no kernel ran, so they count toward the hit rate, but they are kept
    distinct from in-memory ``hits`` because they paid a disk read.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    spills: int = 0
    spill_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups."""
        return self.hits + self.spill_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a kernel (0.0 when never queried)."""
        served = self.hits + self.spill_hits
        return served / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class VocabularyProjection:
    """Precomputed 256-bin → histogram-column index map for one vocabulary.

    ``columns[i]`` is the output column and ``bins[i]`` the opcode byte value
    of every vocabulary mnemonic that exists in the Shanghai registry;
    mnemonics outside the registry can never be counted and are dropped
    (the legacy dict-based loop behaved identically).
    """

    size: int
    columns: np.ndarray
    bins: np.ndarray

    @classmethod
    def for_mnemonics(cls, mnemonics: Sequence[str]) -> "VocabularyProjection":
        """Build the projection for an ordered mnemonic vocabulary."""
        bins = bins_for_mnemonics(mnemonics)
        known = np.flatnonzero(bins >= 0)
        return cls(size=len(mnemonics), columns=known, bins=bins[known])

    def apply(self, count_matrix: np.ndarray) -> np.ndarray:
        """Project an ``(n, 256)`` count matrix onto the vocabulary columns."""
        matrix = np.asarray(count_matrix)
        features = np.zeros((matrix.shape[0], self.size))
        features[:, self.columns] = matrix[:, self.bins]
        return features


@dataclass
class _CacheEntry:
    """All cached views of one unique bytecode.

    ``byte_counts`` and ``images`` are the raw-byte views (ESCORT embeddings
    and R2D2 pixel tensors); like the n-gram view they involve no
    disassembly, and unlike the other views they are memory-only — they are
    cheap to recompute, so :meth:`BatchFeatureService.save` does not persist
    them and eviction spilling skips them.  ``spilled`` records that the
    entry's persistable views already live in an up-to-date spill file, so
    re-evicting it after a spill reload writes nothing; installing a new
    persistable view clears the flag.
    """

    counts: Optional[np.ndarray] = None
    sequence: Optional[OpcodeSequence] = None
    ngrams: Dict[int, np.ndarray] = field(default_factory=dict)
    byte_counts: Optional[np.ndarray] = None
    images: Dict[int, np.ndarray] = field(default_factory=dict)
    analysis: Optional[np.ndarray] = None
    spilled: bool = False


def _freeze_sequence(sequence: OpcodeSequence) -> OpcodeSequence:
    sequence.opcodes.setflags(write=False)
    sequence.widths.setflags(write=False)
    return sequence


def _gram_codes(code: bytes, bytes_per_gram: int) -> np.ndarray:
    """Integer codes of the non-overlapping ``bytes_per_gram`` groups of ``code``.

    Each complete group of *k* bytes becomes its big-endian integer value, so
    the code is in bijection with the ``2k``-character lowercase hex gram the
    legacy string path produces; a trailing partial group is dropped, exactly
    like the string slicing.
    """
    if not 1 <= bytes_per_gram <= MAX_NGRAM_BYTES:
        raise ValueError(f"bytes_per_gram must be in [1, {MAX_NGRAM_BYTES}]")
    n_grams = len(code) // bytes_per_gram
    if n_grams == 0:
        return np.zeros(0, dtype=np.int64)
    grouped = np.frombuffer(code[: n_grams * bytes_per_gram], dtype=np.uint8)
    grouped = grouped.reshape(n_grams, bytes_per_gram).astype(np.int64)
    weights = 256 ** np.arange(bytes_per_gram - 1, -1, -1, dtype=np.int64)
    return grouped @ weights


class BatchFeatureService:
    """Cached, chunked, multi-threaded extraction of all bytecode feature views.

    Args:
        cache_size: Maximum number of cached bytecodes (entries) kept in the
            LRU cache; ``0`` disables caching entirely.
        max_workers: Thread-pool width for batch extraction; ``None`` or
            ``1`` keeps extraction on the calling thread.
        chunk_size: Number of distinct bytecodes handed to each kernel call.
        spill_dir: Optional directory for eviction spill files.  When set,
            evicting an entry writes its persistable views (counts,
            sequence, n-grams, analysis) to a content-addressed
            ``spill-<hash>.npz`` instead of dropping them, and view getters
            fall back to a spill read before declaring a miss — eviction
            stops meaning recompute.
    """

    def __init__(
        self,
        cache_size: int = 4096,
        max_workers: Optional[int] = None,
        chunk_size: int = 64,
        spill_dir: Optional[Union[str, Path]] = None,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self._pool: Optional[ThreadPoolExecutor] = None
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.stats = CacheStats()
        self.sequence_stats = CacheStats()
        self.ngram_stats = CacheStats()
        self.byte_stats = CacheStats()
        self.image_stats = CacheStats()
        self.analysis_stats = CacheStats()
        self.kernel_passes = 0
        self._cache: "OrderedDict[bytes, _CacheEntry]" = OrderedDict()
        self._lock = Lock()
        self.cache_size = cache_size

    @property
    def spill_dir(self) -> Optional[Path]:
        """Directory receiving eviction spill files (``None`` → disabled)."""
        return self._spill_dir

    @property
    def cache_size(self) -> int:
        """Maximum number of cached bytecodes (0 disables caching)."""
        return self._cache_size

    @cache_size.setter
    def cache_size(self, capacity: int) -> None:
        """Resize the cache; shrinking evicts LRU entries immediately."""
        if capacity < 0:
            raise ValueError("cache_size must be >= 0")
        with self._lock:
            self._cache_size = capacity
            while len(self._cache) > capacity:
                self._evict_lru()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _key(code: bytes) -> bytes:
        return content_key(code)

    def _evict_lru(self) -> None:
        """Evict the least recently used entry (caller holds the lock).

        ``stats.evictions`` counts evicted *entries*; the per-view counters
        record how many evicted entries actually held that view.  With a
        spill directory configured, the entry's persistable views are
        written to disk before the entry is dropped (skipped when an
        up-to-date spill file already exists from a prior spill reload).
        """
        key, entry = self._cache.popitem(last=False)
        self.stats.evictions += 1
        if entry.sequence is not None:
            self.sequence_stats.evictions += 1
        if entry.ngrams:
            self.ngram_stats.evictions += 1
        if entry.byte_counts is not None:
            self.byte_stats.evictions += 1
        if entry.images:
            self.image_stats.evictions += 1
        if entry.analysis is not None:
            self.analysis_stats.evictions += 1
        if (
            self._spill_dir is not None
            and not entry.spilled
            and (
                entry.counts is not None
                or entry.sequence is not None
                or entry.ngrams
                or entry.analysis is not None
            )
        ):
            self._spill_entry(key, entry)

    # ------------------------------------------------------------------
    # Eviction spilling
    # ------------------------------------------------------------------

    def _spill_path(self, key: bytes) -> Path:
        # Content-addressed: one file per unique bytecode, shareable across
        # services and corpora pointing at the same directory.
        return self._spill_dir / f"spill-{key.hex()}.npz"

    def _spill_entry(self, key: bytes, entry: _CacheEntry) -> None:
        """Write an evicted entry's persistable views (caller holds the lock).

        Spilling is best-effort — an unwritable directory degrades to the
        old drop-on-evict behavior rather than failing the batch call that
        happened to trigger the eviction.
        """
        sizes = sorted(entry.ngrams)
        arrays: Dict[str, np.ndarray] = {
            "flags": np.array(
                [
                    entry.counts is not None,
                    entry.sequence is not None,
                    entry.analysis is not None,
                ],
                dtype=np.int64,
            ),
            "counts": (
                entry.counts
                if entry.counts is not None
                else np.zeros(256, dtype=np.int64)
            ),
            "seq_opcodes": (
                entry.sequence.opcodes
                if entry.sequence is not None
                else np.zeros(0, dtype=np.uint8)
            ),
            "seq_widths": (
                entry.sequence.widths
                if entry.sequence is not None
                else np.zeros(0, dtype=np.uint8)
            ),
            "ngram_sizes": np.array(sizes, dtype=np.int64),
            "ngram_lengths": np.array(
                [entry.ngrams[size].shape[0] for size in sizes], dtype=np.int64
            ),
            "ngram_data": (
                np.concatenate([entry.ngrams[size] for size in sizes])
                if sizes
                else np.zeros(0, dtype=np.int64)
            ),
            "analysis": (
                entry.analysis
                if entry.analysis is not None
                else np.zeros(len(CFG_METRIC_NAMES), dtype=np.float64)
            ),
        }
        try:
            write_npz(
                self._spill_path(key),
                arrays,
                magic=SPILL_FILE_MAGIC,
                version=SPILL_FILE_VERSION,
                error=CacheWriteError,
            )
        except CacheWriteError:
            return
        self.stats.spills += 1
        if entry.sequence is not None:
            self.sequence_stats.spills += 1
        if entry.ngrams:
            self.ngram_stats.spills += 1
        if entry.analysis is not None:
            self.analysis_stats.spills += 1

    @staticmethod
    def _read_spill_file(path: Path) -> _CacheEntry:
        required = {
            "flags", "counts", "seq_opcodes", "seq_widths",
            "ngram_sizes", "ngram_lengths", "ngram_data", "analysis",
        }
        with open_validated_npz(
            path,
            magic=SPILL_FILE_MAGIC,
            version=SPILL_FILE_VERSION,
            required=required,
            error=CacheLoadError,
        ) as data:
            entry = _CacheEntry(spilled=True)
            flags = np.asarray(data["flags"], dtype=np.int64)
            if flags.shape != (3,):
                raise CacheLoadError(f"spill file {path} has malformed flags")
            if flags[0]:
                counts = data["counts"]
                if counts.shape != (256,) or (counts < 0).any():
                    raise CacheLoadError(f"spill file {path} has malformed counts")
                vector = counts.astype(np.int64)
                vector.setflags(write=False)
                entry.counts = vector
            if flags[1]:
                opcodes = data["seq_opcodes"]
                widths = data["seq_widths"]
                if opcodes.shape != widths.shape or (
                    opcodes.size
                    and not (
                        ((opcodes >= 0) & (opcodes <= 255)).all()
                        and _DEFINED_OPCODES[opcodes].all()
                        and ((widths >= 0) & (widths <= 32)).all()
                    )
                ):
                    raise CacheLoadError(
                        f"spill file {path} has malformed sequence arrays"
                    )
                entry.sequence = _freeze_sequence(
                    OpcodeSequence(
                        opcodes=opcodes.astype(np.uint8),
                        widths=widths.astype(np.uint8),
                    )
                )
            sizes = data["ngram_sizes"].tolist()
            lengths = data["ngram_lengths"]
            ngram_data = data["ngram_data"]
            total = int(lengths.sum()) if lengths.size else 0
            if (
                lengths.shape[0] != len(sizes)
                or ngram_data.shape[0] != total
                or any(not 1 <= size <= MAX_NGRAM_BYTES for size in sizes)
                or (lengths.size and (lengths < 0).any())
                or (ngram_data.size and (ngram_data < 0).any())
            ):
                raise CacheLoadError(f"spill file {path} has malformed n-grams")
            offset = 0
            for size, length in zip(sizes, lengths.tolist()):
                codes = ngram_data[offset : offset + length].astype(np.int64)
                codes.setflags(write=False)
                entry.ngrams[size] = codes
                offset += length
            if flags[2]:
                analysis = data["analysis"]
                if analysis.shape != (len(CFG_METRIC_NAMES),) or not np.isfinite(
                    analysis
                ).all():
                    raise CacheLoadError(
                        f"spill file {path} has malformed analysis metrics"
                    )
                vector = analysis.astype(np.float64)
                vector.setflags(write=False)
                entry.analysis = vector
            return entry

    def _spill_fill(
        self, key: bytes, entry: Optional[_CacheEntry]
    ) -> Optional[_CacheEntry]:
        """Merge ``key``'s spill file into the cache (caller holds the lock).

        Returns the (created or updated) entry when a readable spill file
        exists, ``None`` otherwise — a corrupt spill file reads as a plain
        miss and is deleted so it cannot shadow a future, healthy spill.
        Loaded views never overwrite ones the live entry already holds.
        """
        if self._spill_dir is None or self.cache_size == 0:
            return None
        path = self._spill_path(key)
        if not path.exists():
            return None
        try:
            loaded = self._read_spill_file(path)
        except CacheLoadError:
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if entry is None:
            entry = self._entry_for(key)
            entry.spilled = True
        if entry.counts is None:
            entry.counts = loaded.counts
        if entry.sequence is None:
            entry.sequence = loaded.sequence
        for size, codes in loaded.ngrams.items():
            entry.ngrams.setdefault(size, codes)
        if entry.analysis is None:
            entry.analysis = loaded.analysis
        return entry

    def _entry_for(self, key: bytes) -> _CacheEntry:
        """Get-or-create the entry of ``key`` (caller holds the lock)."""
        entry = self._cache.get(key)
        if entry is None:
            entry = _CacheEntry()
            self._cache[key] = entry
        else:
            self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._evict_lru()
        return entry

    def _counts_get(self, key: bytes) -> Optional[np.ndarray]:
        """Cached count vector, derived from a cached sequence if needed."""
        if self.cache_size == 0:
            with self._lock:
                self.stats.misses += 1
            return None
        with self._lock:
            entry = self._cache.get(key)
            from_spill = False
            if entry is not None:
                self._cache.move_to_end(key)
            if entry is None or (entry.counts is None and entry.sequence is None):
                entry = self._spill_fill(key, entry)
                from_spill = entry is not None
                if entry is None:
                    self.stats.misses += 1
                    return None
            if entry.counts is None:
                if entry.sequence is None:
                    self.stats.misses += 1
                    return None
                # Binning a cached sequence is a cache-served lookup: no
                # bytes-level kernel runs, so it counts as a hit.
                vector = entry.sequence.counts()
                vector.setflags(write=False)
                entry.counts = vector
            if from_spill:
                self.stats.spill_hits += 1
            else:
                self.stats.hits += 1
            return entry.counts

    def _counts_put(self, key: bytes, vector: np.ndarray) -> bool:
        """Install a count vector; true when the view was newly set."""
        if self.cache_size == 0:
            return False
        vector.setflags(write=False)
        with self._lock:
            entry = self._entry_for(key)
            fresh = entry.counts is None
            entry.counts = vector
            if fresh:
                entry.spilled = False
            return fresh

    def _sequence_get(self, key: bytes) -> Optional[OpcodeSequence]:
        if self.cache_size == 0:
            with self._lock:
                self.sequence_stats.misses += 1
            return None
        with self._lock:
            entry = self._cache.get(key)
            if entry is None or entry.sequence is None:
                entry = self._spill_fill(key, entry)
                if entry is None or entry.sequence is None:
                    self.sequence_stats.misses += 1
                    return None
                self._cache.move_to_end(key)
                self.sequence_stats.spill_hits += 1
                return entry.sequence
            self._cache.move_to_end(key)
            self.sequence_stats.hits += 1
            return entry.sequence

    def _sequence_put(self, key: bytes, sequence: OpcodeSequence) -> bool:
        """Install a sequence; true when the view was newly set."""
        if self.cache_size == 0:
            return False
        _freeze_sequence(sequence)
        with self._lock:
            entry = self._entry_for(key)
            fresh = entry.sequence is None
            entry.sequence = sequence
            if fresh:
                entry.spilled = False
            return fresh

    def _ngrams_get(self, key: bytes, bytes_per_gram: int) -> Optional[np.ndarray]:
        if self.cache_size == 0:
            with self._lock:
                self.ngram_stats.misses += 1
            return None
        with self._lock:
            entry = self._cache.get(key)
            codes = entry.ngrams.get(bytes_per_gram) if entry is not None else None
            if codes is None:
                entry = self._spill_fill(key, entry)
                codes = (
                    entry.ngrams.get(bytes_per_gram) if entry is not None else None
                )
                if codes is None:
                    self.ngram_stats.misses += 1
                    return None
                self._cache.move_to_end(key)
                self.ngram_stats.spill_hits += 1
                return codes
            self._cache.move_to_end(key)
            self.ngram_stats.hits += 1
            return codes

    def _ngrams_put(self, key: bytes, bytes_per_gram: int, codes: np.ndarray) -> None:
        if self.cache_size == 0:
            return
        codes.setflags(write=False)
        with self._lock:
            entry = self._entry_for(key)
            if bytes_per_gram not in entry.ngrams:
                entry.spilled = False
            entry.ngrams[bytes_per_gram] = codes

    def _record_pass(self, counted: bool) -> None:
        """Account one kernel pass when ``counted``.

        ``kernel_passes`` counts kernel results *installed* into the cache
        (plus every kernel run when caching is disabled), so two threads
        racing to compute the same uncached bytecode cost one pass, not two
        — the counter tracks unique extraction work, the telemetry signal
        the one-disassembly-per-unique-bytecode invariant is asserted on.
        """
        if counted:
            with self._lock:
                self.kernel_passes += 1

    def _install_sequence(self, key: bytes, sequence: OpcodeSequence) -> None:
        """Install one freshly *computed* sequence and account its kernel pass.

        The single accounting rule for every sequence-producing path (scalar
        and batch): a pass counts when the result was newly installed,
        or on every kernel run when caching is disabled (nothing can be
        installed, but the work was done).  Keeping all call sites on this
        helper is what makes ``kernel_passes`` comparable across
        ``sequence()``, ``sequences()`` and the no-cache batch path.
        """
        self._record_pass(self._sequence_put(key, sequence) or self.cache_size == 0)

    def cache_clear(self) -> None:
        """Drop every cached entry, reset all statistics, delete spill files."""
        with self._lock:
            self._cache.clear()
            if self._spill_dir is not None and self._spill_dir.is_dir():
                for path in self._spill_dir.glob("spill-*.npz"):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            self.stats = CacheStats()
            self.sequence_stats = CacheStats()
            self.ngram_stats = CacheStats()
            self.byte_stats = CacheStats()
            self.image_stats = CacheStats()
            self.analysis_stats = CacheStats()
            self.kernel_passes = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # Count extraction (histogram view)
    # ------------------------------------------------------------------

    def count_vector(self, bytecode: BytecodeLike) -> np.ndarray:
        """256-bin opcode counts of one bytecode (read-only when cached).

        When caching is enabled a miss extracts the *sequence* view and bins
        the counts out of it, so a later sequence lookup of the same bytecode
        is a hit instead of a second kernel pass; with caching disabled the
        cheaper pure count kernel runs (nothing could be reused anyway).
        """
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        vector = self._counts_get(key)
        if vector is None:
            if self.cache_size > 0:
                sequence = sequence_batch([code])[0]
                vector = sequence.counts()
                self._install_sequence(key, sequence)
                self._counts_put(key, vector)
            else:
                vector = count_opcodes(code)
                self._record_pass(True)
        return vector

    @_traced("features")
    def count_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, 256)`` opcode-count matrix for a batch of bytecodes.

        Cache misses are deduplicated (proxy clones are extracted once) and
        computed in chunks, optionally across a thread pool.  As in
        :meth:`count_vector`, cached misses extract sequences and derive the
        counts, keeping the one-disassembly-per-unique-bytecode property
        independent of which feature view asks first.
        """
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        matrix = np.zeros((len(codes), 256), dtype=np.int64)
        pending: "OrderedDict[bytes, List[int]]" = OrderedDict()
        pending_codes: Dict[bytes, bytes] = {}
        for row, code in enumerate(codes):
            key = self._key(code)
            vector = self._counts_get(key)
            if vector is None:
                pending.setdefault(key, []).append(row)
                pending_codes[key] = code
            else:
                matrix[row] = vector
        if pending:
            keys = list(pending)
            if self.cache_size > 0:
                vectors = []
                for key, sequence in zip(
                    keys, self._sequences_for_missing(keys, pending_codes)
                ):
                    self._install_sequence(key, sequence)
                    vector = sequence.counts()
                    self._counts_put(key, vector)
                    vectors.append(vector)
            else:
                vectors = self._compute(keys, pending_codes)
            for key, vector in zip(keys, vectors):
                for row in pending[key]:
                    matrix[row] = vector
        return matrix

    @staticmethod
    def _compute_chunk(chunk: Sequence[bytes]) -> List[np.ndarray]:
        # Copy rows out of the chunk matrix so a cached vector never pins the
        # whole batch allocation in memory.
        return [np.array(row) for row in count_batch(chunk)]

    def _compute(
        self, keys: Sequence[bytes], codes: Dict[bytes, bytes]
    ) -> List[np.ndarray]:
        # Only reached with caching disabled, where no dedup is possible:
        # every code is a real kernel pass.
        with self._lock:
            self.kernel_passes += len(keys)
        return self._map_chunks(self._compute_chunk, [codes[key] for key in keys])

    def _sequences_for_missing(
        self, keys: Sequence[bytes], codes: Dict[bytes, bytes]
    ) -> List[OpcodeSequence]:
        """Sequences of deduplicated cache misses, in ``keys`` order."""
        return self._map_chunks(sequence_batch, [codes[key] for key in keys])

    @_traced("kernel")
    def _map_chunks(self, compute_chunk, codes: Sequence[bytes]) -> list:
        # Always chunk — the batch kernels' working set is a multiple of the
        # concatenated input, so one giant call would spike peak memory.
        chunks = [
            codes[start : start + self.chunk_size]
            for start in range(0, len(codes), self.chunk_size)
        ]
        if self.max_workers is None or self.max_workers <= 1 or len(chunks) <= 1:
            return [result for chunk in chunks for result in compute_chunk(chunk)]
        # Workers only ever see immutable chunk byte strings and return fresh
        # arrays, so pooled results merge into the cache exactly like inline
        # ones.
        chunk_results = list(self._get_pool().map(compute_chunk, chunks))
        return [result for chunk in chunk_results for result in chunk]

    def _get_pool(self) -> ThreadPoolExecutor:
        """The service's lazily created, reused thread pool.

        One pool lives across batches, so experiment drivers issuing many
        small calls per run do not rebuild it each time.  Call :meth:`close`
        to release the threads (the next batch transparently builds a fresh
        pool).
        """
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def warm_pool(self) -> None:
        """Eagerly start the worker pool so later batches don't pay startup.

        A no-op when ``max_workers`` would never build a pool.  Callers that
        time extraction (the MEM ``fresh_service`` cells) use this to keep
        one-off pool construction outside their measured window.
        """
        if self.max_workers is not None and self.max_workers > 1:
            self._get_pool()

    def close(self) -> None:
        """Shut down the worker pool (if any); the cache stays intact.

        Safe to call repeatedly; further batch calls recreate the pool on
        demand.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchFeatureService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def transform(
        self,
        bytecodes: Sequence[BytecodeLike],
        projection: VocabularyProjection,
        normalize: bool = False,
    ) -> np.ndarray:
        """Histogram feature matrix for ``bytecodes`` under ``projection``."""
        features = projection.apply(self.count_matrix(bytecodes))
        if normalize:
            totals = features.sum(axis=1)
            populated = totals > 0
            features[populated] /= totals[populated, np.newaxis]
        return features

    # ------------------------------------------------------------------
    # Sequence extraction (tokenizer / frequency-image view)
    # ------------------------------------------------------------------

    def sequence(self, bytecode: BytecodeLike) -> OpcodeSequence:
        """The :class:`OpcodeSequence` of one bytecode (read-only when cached)."""
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        sequence = self._sequence_get(key)
        if sequence is None:
            sequence = self._sequences_for_missing([key], {key: code})[0]
            self._install_sequence(key, sequence)
        return sequence

    @_traced("features")
    def sequences(self, bytecodes: Sequence[BytecodeLike]) -> List[OpcodeSequence]:
        """Sequences for a batch of bytecodes (misses deduplicated + chunked)."""
        codes = [normalize_bytecode(bytecode) for bytecode in bytecodes]
        results: List[Optional[OpcodeSequence]] = [None] * len(codes)
        pending: "OrderedDict[bytes, List[int]]" = OrderedDict()
        pending_codes: Dict[bytes, bytes] = {}
        for row, code in enumerate(codes):
            key = self._key(code)
            sequence = self._sequence_get(key)
            if sequence is None:
                pending.setdefault(key, []).append(row)
                pending_codes[key] = code
            else:
                results[row] = sequence
        if pending:
            keys = list(pending)
            sequences = self._sequences_for_missing(keys, pending_codes)
            for key, sequence in zip(keys, sequences):
                self._install_sequence(key, sequence)
                for row in pending[key]:
                    results[row] = sequence
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # N-gram extraction (SCSGuard view)
    # ------------------------------------------------------------------

    def ngram_codes(self, bytecode: BytecodeLike, bytes_per_gram: int) -> np.ndarray:
        """Integer codes of the non-overlapping byte groups of one bytecode.

        The *k*-byte group starting at offset ``i*k`` becomes its big-endian
        integer value — in bijection with the ``2k``-character lowercase hex
        gram of :class:`~repro.features.ngram.HexNgramEncoder`'s legacy
        string path.  No disassembly is involved; the view is cached per
        ``(bytecode, bytes_per_gram)``.
        """
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        codes = self._ngrams_get(key, bytes_per_gram)
        if codes is None:
            codes = _gram_codes(code, bytes_per_gram)
            self._ngrams_put(key, bytes_per_gram, codes)
        return codes

    @_traced("features")
    def ngram_codes_batch(
        self, bytecodes: Sequence[BytecodeLike], bytes_per_gram: int
    ) -> List[np.ndarray]:
        """N-gram codes for a batch of bytecodes."""
        return [self.ngram_codes(bytecode, bytes_per_gram) for bytecode in bytecodes]

    # ------------------------------------------------------------------
    # Raw-byte extraction (ESCORT embedding / R2D2 image views)
    # ------------------------------------------------------------------

    def _raw_view_get(
        self, key: bytes, stats: CacheStats, read, spillable: bool = False
    ) -> Optional[np.ndarray]:
        """Shared lookup of a per-entry view via ``read(entry)``.

        ``spillable`` enables the spill-file fallback — used by the analysis
        view, which is persisted and spilled; the raw-byte views
        (byte counts, images) are memory-only and never consult spill files.
        """
        if self.cache_size == 0:
            with self._lock:
                stats.misses += 1
            return None
        with self._lock:
            entry = self._cache.get(key)
            value = read(entry) if entry is not None else None
            if value is None and spillable:
                entry = self._spill_fill(key, entry)
                value = read(entry) if entry is not None else None
                if value is not None:
                    self._cache.move_to_end(key)
                    stats.spill_hits += 1
                    return value
            if value is None:
                stats.misses += 1
                return None
            self._cache.move_to_end(key)
            stats.hits += 1
            return value

    def byte_counts(self, bytecode: BytecodeLike) -> np.ndarray:
        """256-bin raw byte-value histogram of one bytecode.

        This is the *byte* view (ESCORT's embedding input), distinct from
        :meth:`count_vector`'s *opcode* view: immediates count here and PUSH
        data never becomes an instruction.  No disassembly runs, so the view
        does not move ``kernel_passes``.
        """
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        vector = self._raw_view_get(key, self.byte_stats, lambda e: e.byte_counts)
        if vector is None:
            vector = byte_count_vector(code)
            if self.cache_size > 0:
                vector.setflags(write=False)
                with self._lock:
                    self._entry_for(key).byte_counts = vector
        return vector

    @_traced("features")
    def byte_count_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, 256)`` raw byte-count matrix (duplicates served from cache)."""
        matrix = np.zeros((len(bytecodes), 256), dtype=np.int64)
        for row, bytecode in enumerate(bytecodes):
            matrix[row] = self.byte_counts(bytecode)
        return matrix

    def r2d2_image(self, bytecode: BytecodeLike, image_size: int) -> np.ndarray:
        """R2D2-style RGB tensor of one bytecode, cached per image size."""
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        image = self._raw_view_get(
            key, self.image_stats, lambda e: e.images.get(image_size)
        )
        if image is None:
            image = r2d2_image_from_bytes(code, image_size)
            if self.cache_size > 0:
                image.setflags(write=False)
                with self._lock:
                    self._entry_for(key).images[image_size] = image
        return image

    @_traced("features")
    def r2d2_images(
        self, bytecodes: Sequence[BytecodeLike], image_size: int
    ) -> np.ndarray:
        """``(n, 3, image_size, image_size)`` batch of R2D2 images."""
        return np.stack(
            [self.r2d2_image(bytecode, image_size) for bytecode in bytecodes]
        )

    # ------------------------------------------------------------------
    # Static-analysis extraction (CFG metrics view)
    # ------------------------------------------------------------------

    def analysis_vector(self, bytecode: BytecodeLike) -> np.ndarray:
        """CFG-metrics feature vector of one bytecode (read-only when cached).

        The :data:`~repro.evm.cfg.CFG_METRIC_NAMES` block — block/edge/jump
        counts, resolved-jump and dead-code ratios, selector and call-family
        tallies — computed by :func:`~repro.evm.cfg.analyze_cfg` over the
        *cached* :class:`~repro.evm.fastcount.OpcodeSequence` view, so the
        structural features ride the same single disassembly pass as the
        histogram/token/image views.  Persisted by :meth:`save` alongside
        counts and sequences.
        """
        code = normalize_bytecode(bytecode)
        key = self._key(code)
        vector = self._raw_view_get(
            key, self.analysis_stats, lambda e: e.analysis, spillable=True
        )
        if vector is None:
            vector = cfg_metrics_vector(code, sequence=self.sequence(code))
            if self.cache_size > 0:
                vector.setflags(write=False)
                with self._lock:
                    entry = self._entry_for(key)
                    if entry.analysis is None:
                        entry.spilled = False
                    entry.analysis = vector
        return vector

    @_traced("features")
    def analysis_matrix(self, bytecodes: Sequence[BytecodeLike]) -> np.ndarray:
        """``(n, len(CFG_METRIC_NAMES))`` CFG-metrics matrix for a batch.

        Missing sequence views are computed first in one deduplicated,
        chunked batch (:meth:`sequences`), so a cold corpus pays one
        vectorized disassembly sweep rather than n scalar ones.  With
        caching disabled the pre-sweep is skipped — its results could not
        be installed, so it would only inflate ``kernel_passes`` with work
        each :meth:`analysis_vector` call must redo anyway.
        """
        if self.cache_size > 0:
            self.sequences(bytecodes)
        matrix = np.zeros((len(bytecodes), len(CFG_METRIC_NAMES)), dtype=np.float64)
        for row, bytecode in enumerate(bytecodes):
            matrix[row] = self.analysis_vector(bytecode)
        return matrix

    def view_stats(self) -> Dict[str, CacheStats]:
        """Per-view counter snapshots, keyed by view name.

        The observability bridge labels its ``repro_features_cache_*``
        series with these names; values are copies, so a scrape never
        holds a reference into the live counters.
        """
        with self._lock:
            live = {
                "counts": self.stats,
                "sequences": self.sequence_stats,
                "ngrams": self.ngram_stats,
                "bytes": self.byte_stats,
                "images": self.image_stats,
                "analysis": self.analysis_stats,
            }
            return {
                name: CacheStats(
                    hits=stats.hits,
                    misses=stats.misses,
                    evictions=stats.evictions,
                    spills=stats.spills,
                    spill_hits=stats.spill_hits,
                )
                for name, stats in live.items()
            }

    def aggregate_stats(self) -> CacheStats:
        """Hit/miss/eviction totals across every feature view.

        The serving telemetry surface reports one feature-cache hit rate;
        this sums the count, sequence, n-gram, byte and image view counters
        into a single :class:`CacheStats` snapshot.
        """
        total = CacheStats()
        with self._lock:
            for stats in (
                self.stats,
                self.sequence_stats,
                self.ngram_stats,
                self.byte_stats,
                self.image_stats,
                self.analysis_stats,
            ):
                total.hits += stats.hits
                total.misses += stats.misses
                total.evictions += stats.evictions
                total.spills += stats.spills
                total.spill_hits += stats.spill_hits
        return total

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the cached count/sequence/n-gram store to ``path`` (``.npz``).

        The file also carries the hit/miss statistics and the kernel-pass
        counter, so accounting survives a :meth:`load`.  Entries are written
        in LRU order (oldest first) so reloading preserves eviction order.
        Parent directories are created as needed; the write is atomic with a
        per-writer randomized staging name, so concurrent saves to the same
        path are safe (last rename wins, the file is never truncated).

        Raises:
            CacheWriteError: if the file cannot be written — e.g. the parent
                path is occupied by a regular file, or the directory is
                unwritable.
        """
        # Snapshot the mutable entry contents while holding the lock; the
        # arrays themselves are frozen read-only at put time, so referencing
        # them after release is safe — only the entry fields and the ngrams
        # dict can change concurrently.
        with self._lock:
            items = [
                (key, entry.counts, entry.sequence, dict(entry.ngrams), entry.analysis)
                for key, entry in self._cache.items()
            ]
            stats = np.array(
                [
                    self.stats.hits, self.stats.misses, self.stats.evictions,
                    self.sequence_stats.hits, self.sequence_stats.misses,
                    self.sequence_stats.evictions,
                    self.ngram_stats.hits, self.ngram_stats.misses,
                    self.ngram_stats.evictions,
                    self.kernel_passes,
                ],
                dtype=np.int64,
            )
        keys = [key for key, _, _, _, _ in items]
        arrays: Dict[str, np.ndarray] = {
            "stats": stats,
            "keys": (
                np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), 16)
                if keys
                else np.zeros((0, 16), dtype=np.uint8)
            ),
        }
        count_rows = [i for i, (_, counts, _, _, _) in enumerate(items) if counts is not None]
        arrays["count_rows"] = np.array(count_rows, dtype=np.int64)
        arrays["count_data"] = (
            np.stack([items[i][1] for i in count_rows])
            if count_rows
            else np.zeros((0, 256), dtype=np.int64)
        )
        seq_rows = [i for i, (_, _, sequence, _, _) in enumerate(items) if sequence is not None]
        seq_list = [items[i][2] for i in seq_rows]
        arrays["seq_rows"] = np.array(seq_rows, dtype=np.int64)
        arrays["seq_lengths"] = np.array([len(s) for s in seq_list], dtype=np.int64)
        # Sequences persist in their native uint8 (2 bytes per instruction);
        # load() is value-validated and casts, so dtype is not part of the
        # format contract.
        arrays["seq_opcodes"] = (
            np.concatenate([s.opcodes for s in seq_list])
            if seq_list
            else np.zeros(0, dtype=np.uint8)
        )
        arrays["seq_widths"] = (
            np.concatenate([s.widths for s in seq_list])
            if seq_list
            else np.zeros(0, dtype=np.uint8)
        )
        ngram_rows: List[int] = []
        ngram_sizes: List[int] = []
        ngram_lengths: List[int] = []
        ngram_chunks: List[np.ndarray] = []
        for i, (_, _, _, ngrams, _) in enumerate(items):
            for bytes_per_gram in sorted(ngrams):
                codes = ngrams[bytes_per_gram]
                ngram_rows.append(i)
                ngram_sizes.append(bytes_per_gram)
                ngram_lengths.append(codes.shape[0])
                ngram_chunks.append(codes)
        arrays["ngram_rows"] = np.array(ngram_rows, dtype=np.int64)
        arrays["ngram_sizes"] = np.array(ngram_sizes, dtype=np.int64)
        arrays["ngram_lengths"] = np.array(ngram_lengths, dtype=np.int64)
        arrays["ngram_data"] = (
            np.concatenate(ngram_chunks) if ngram_chunks else np.zeros(0, dtype=np.int64)
        )
        # Optional arrays (absent in files written before the analysis view
        # existed); the format version is unchanged, so old files still load.
        analysis_rows = [
            i for i, (_, _, _, _, analysis) in enumerate(items) if analysis is not None
        ]
        arrays["analysis_rows"] = np.array(analysis_rows, dtype=np.int64)
        arrays["analysis_data"] = (
            np.stack([items[i][4] for i in analysis_rows])
            if analysis_rows
            else np.zeros((0, len(CFG_METRIC_NAMES)), dtype=np.float64)
        )
        write_npz(
            path,
            arrays,
            magic=CACHE_FILE_MAGIC,
            version=CACHE_FILE_VERSION,
            error=CacheWriteError,
        )

    def load(self, path: Union[str, Path], grow: bool = False) -> int:
        """Replace the cache contents with a store written by :meth:`save`.

        Statistics are restored from the file; entries beyond the service's
        ``cache_size`` are evicted oldest-first (adding to the restored
        eviction count) — unless ``grow`` is set, in which case the cache
        capacity is raised to fit every stored entry, so an eviction-aware
        warm-up (e.g. :class:`~repro.serving.ScoringService` pre-populating
        its feature cache from a store file) can never silently drop part
        of what it just loaded.  Returns the number of entries retained.

        Raises:
            CacheLoadError: if the file is missing, corrupt, or was written
                by an incompatible format version.
            ValueError: if this service has caching disabled — loading into
                a ``cache_size=0`` service would silently drop every entry.
        """
        if self.cache_size == 0:
            raise ValueError(
                "cannot load a persistent cache into a caching-disabled "
                "service (cache_size=0)"
            )
        entries, stats = self._read_cache_file(path)
        with self._lock:
            self._cache = OrderedDict(entries)
            if grow and len(self._cache) > self._cache_size:
                self._cache_size = len(self._cache)
            (
                self.stats.hits, self.stats.misses, self.stats.evictions,
                self.sequence_stats.hits, self.sequence_stats.misses,
                self.sequence_stats.evictions,
                self.ngram_stats.hits, self.ngram_stats.misses,
                self.ngram_stats.evictions,
                self.kernel_passes,
            ) = (int(value) for value in stats)
            while len(self._cache) > self._cache_size:
                self._evict_lru()
            return len(self._cache)

    @staticmethod
    def _read_cache_file(
        path: Union[str, Path],
    ) -> Tuple[List[Tuple[bytes, _CacheEntry]], np.ndarray]:
        required = {
            "stats", "keys",
            "count_rows", "count_data",
            "seq_rows", "seq_lengths", "seq_opcodes", "seq_widths",
            "ngram_rows", "ngram_sizes", "ngram_lengths", "ngram_data",
        }
        with open_validated_npz(
            path,
            magic=CACHE_FILE_MAGIC,
            version=CACHE_FILE_VERSION,
            required=required,
            error=CacheLoadError,
        ) as data:
            stats = np.asarray(data["stats"], dtype=np.int64)
            if stats.shape != (10,):
                raise CacheLoadError(f"cache file {path} has malformed stats")
            keys_array = data["keys"]
            if keys_array.ndim != 2 or keys_array.shape[1] != 16:
                raise CacheLoadError(f"cache file {path} has malformed keys")
            n = keys_array.shape[0]
            entries: List[Tuple[bytes, _CacheEntry]] = [
                (keys_array[i].astype(np.uint8).tobytes(), _CacheEntry())
                for i in range(n)
            ]
            def valid_rows(rows: np.ndarray) -> bool:
                return bool(((rows >= 0) & (rows < n)).all())

            count_rows = data["count_rows"]
            count_data = data["count_data"]
            if (
                count_data.shape != (count_rows.shape[0], 256)
                or not valid_rows(count_rows)
                or (count_data.size and (count_data < 0).any())
            ):
                raise CacheLoadError(f"cache file {path} has malformed counts")
            for row, vector in zip(count_rows.tolist(), count_data):
                vector = np.array(vector, dtype=np.int64)
                vector.setflags(write=False)
                entries[row][1].counts = vector
            seq_rows = data["seq_rows"].tolist()
            seq_lengths = data["seq_lengths"]
            seq_opcodes = data["seq_opcodes"]
            seq_widths = data["seq_widths"]
            total = int(seq_lengths.sum()) if seq_lengths.size else 0
            if (
                seq_lengths.shape[0] != len(seq_rows)
                or seq_opcodes.shape[0] != total
                or seq_widths.shape[0] != total
                or not valid_rows(data["seq_rows"])
                or (seq_lengths.size and (seq_lengths < 0).any())
            ):
                raise CacheLoadError(f"cache file {path} has malformed sequences")
            if seq_opcodes.size and not (
                ((seq_opcodes >= 0) & (seq_opcodes <= 255)).all()
                and _DEFINED_OPCODES[seq_opcodes].all()
                and ((seq_widths >= 0) & (seq_widths <= 32)).all()
            ):
                raise CacheLoadError(
                    f"cache file {path} carries out-of-range sequence values"
                )
            offset = 0
            for row, length in zip(seq_rows, seq_lengths.tolist()):
                sequence = OpcodeSequence(
                    opcodes=seq_opcodes[offset : offset + length].astype(np.uint8),
                    widths=seq_widths[offset : offset + length].astype(np.uint8),
                )
                entries[row][1].sequence = _freeze_sequence(sequence)
                offset += length
            ngram_rows = data["ngram_rows"].tolist()
            ngram_sizes = data["ngram_sizes"].tolist()
            ngram_lengths = data["ngram_lengths"]
            ngram_data = data["ngram_data"]
            total = int(ngram_lengths.sum()) if ngram_lengths.size else 0
            if (
                ngram_lengths.shape[0] != len(ngram_rows)
                or len(ngram_sizes) != len(ngram_rows)
                or ngram_data.shape[0] != total
                or not valid_rows(data["ngram_rows"])
                or (ngram_lengths.size and (ngram_lengths < 0).any())
                or any(not 1 <= size <= MAX_NGRAM_BYTES for size in ngram_sizes)
                or (ngram_data.size and (ngram_data < 0).any())
            ):
                raise CacheLoadError(f"cache file {path} has malformed n-grams")
            offset = 0
            for row, size, length in zip(ngram_rows, ngram_sizes, ngram_lengths.tolist()):
                codes = ngram_data[offset : offset + length].astype(np.int64)
                codes.setflags(write=False)
                entries[row][1].ngrams[size] = codes
                offset += length
            # Optional analysis view: absent from files written before the
            # CFG-metrics block existed (same format version; see save()).
            if "analysis_rows" in data.files and "analysis_data" in data.files:
                analysis_rows = data["analysis_rows"]
                analysis_data = data["analysis_data"]
                if (
                    analysis_data.shape
                    != (analysis_rows.shape[0], len(CFG_METRIC_NAMES))
                    or not valid_rows(analysis_rows)
                    or (analysis_data.size and not np.isfinite(analysis_data).all())
                ):
                    raise CacheLoadError(
                        f"cache file {path} has malformed analysis metrics"
                    )
                for row, vector in zip(analysis_rows.tolist(), analysis_data):
                    vector = np.array(vector, dtype=np.float64)
                    vector.setflags(write=False)
                    entries[row][1].analysis = vector
            return entries, stats


# ----------------------------------------------------------------------------
# Process-wide default service
# ----------------------------------------------------------------------------

_default_service: Optional[BatchFeatureService] = None


def get_default_service() -> BatchFeatureService:
    """The process-wide shared service (created lazily)."""
    global _default_service
    if _default_service is None:
        _default_service = BatchFeatureService()
    return _default_service


def set_default_service(service: Optional[BatchFeatureService]) -> None:
    """Replace the process-wide shared service (``None`` resets to lazy)."""
    global _default_service
    _default_service = service


def resolve_service(service: Optional[BatchFeatureService]) -> BatchFeatureService:
    """``service`` itself, or the process-wide default when ``None``.

    Checks identity, not truthiness: an *empty* service is falsy
    (``len() == 0``) and must still be honoured when passed explicitly.
    """
    return service if service is not None else get_default_service()


@contextmanager
def use_service(service: BatchFeatureService) -> Iterator[BatchFeatureService]:
    """Temporarily install ``service`` as the process-wide default."""
    global _default_service
    previous = _default_service
    _default_service = service
    try:
        yield service
    finally:
        _default_service = previous
