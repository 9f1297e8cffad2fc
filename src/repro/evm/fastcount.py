"""Vectorized opcode counting and sequencing — the extraction hot path.

PhishingHook's entire detection signal flows through bytecode → opcode
streams, so disassembly dominates extraction time.  The
:class:`~repro.evm.disassembler.Disassembler` materialises one
:class:`~repro.evm.instruction.Instruction` object per opcode, which is the
right representation for listings, gas profiling and the interpreter — but
orders of magnitude too slow for chain-scale feature extraction.

This module provides single-pass bytes-level kernels that walk raw bytecode
exactly once, with no per-instruction allocation, and are provably
equivalent to the linear-sweep disassembler:

* every byte that starts an instruction is an instruction of its byte value;
* ``PUSH1``..``PUSH32`` immediates are skipped (truncated-PUSH-aware: an
  immediate running past the end of the code simply ends the sweep, matching
  the disassembler's no-zero-padding behaviour);
* byte values that do not map to a defined Shanghai opcode are folded into
  the ``INVALID`` bin (0xFE), exactly as the disassembler reports them.

Two output representations are supported:

* **counts** (:func:`count_opcodes` / :func:`count_batch`) — a 256-bin
  ``np.ndarray`` count vector, the histogram (HSC) view;
* **sequences** (:func:`opcode_sequence` / :func:`sequence_batch`) — an
  :class:`OpcodeSequence` of ``(opcode value, immediate width)`` arrays in
  instruction order, from which the tokenizer, n-gram and frequency-image
  views reconstruct the exact ``Disassembler`` token stream without
  re-disassembling.

The only Python-level loop visits PUSH *instructions* (not bytes); batches
resolve every instruction start with vectorized pointer doubling over the
PUSH-valued bytes of the concatenated codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .disassembler import BytecodeLike, normalize_bytecode
from .opcodes import SHANGHAI_OPCODES

#: Bin that collects both the designated INVALID opcode and every undefined
#: byte value (the disassembler reports both as ``INVALID``).
INVALID_BIN: int = 0xFE

#: Byte-value range of the immediate-carrying PUSH family (PUSH1..PUSH32).
_FIRST_PUSH: int = 0x60
_LAST_PUSH: int = 0x7F

#: Byte values with no Shanghai opcode assigned; folded into INVALID_BIN.
UNDEFINED_VALUES: np.ndarray = np.array(
    [value for value in range(256) if value not in SHANGHAI_OPCODES], dtype=np.intp
)

#: Byte value → byte value, with undefined values folded into INVALID_BIN.
_FOLD: np.ndarray = np.arange(256, dtype=np.intp)
_FOLD[UNDEFINED_VALUES] = INVALID_BIN

#: Byte value → mnemonic for every defined opcode.
BIN_MNEMONICS: Dict[int, str] = {
    value: info.mnemonic for value, info in SHANGHAI_OPCODES.items()
}

#: Mnemonic → byte value (the histogram bin that counts it).
MNEMONIC_BINS: Dict[str, int] = {
    info.mnemonic: value for value, info in SHANGHAI_OPCODES.items()
}


def _keep_mask(code: bytes, array: np.ndarray) -> "np.ndarray | None":
    """Boolean instruction-start mask of ``code``; ``None`` when every byte
    starts an instruction (no PUSH immediates to skip).

    This loop is the truncated-PUSH invariant of the whole module — both the
    count and the sequence kernel resolve instruction starts through it, so
    it lives in exactly one place.
    """
    push_positions = np.flatnonzero((array >= _FIRST_PUSH) & (array <= _LAST_PUSH))
    if push_positions.size == 0:
        return None
    keep = np.ones(array.shape[0], dtype=bool)
    cursor = 0
    for position in push_positions.tolist():
        if position < cursor:
            # This push-valued byte sits inside an earlier PUSH immediate.
            continue
        # Every byte in [cursor, position) is a non-push single-byte
        # instruction, so `position` is guaranteed to be an instruction start.
        width = code[position] - 0x5F
        keep[position + 1 : position + 1 + width] = False
        cursor = position + 1 + width
    return keep


def _count_raw(code: bytes) -> np.ndarray:
    """256-bin counts of instruction-start bytes (immediates skipped)."""
    if not code:
        return np.zeros(256, dtype=np.int64)
    array = np.frombuffer(code, dtype=np.uint8)
    keep = _keep_mask(code, array)
    starts = array if keep is None else array[keep]
    return np.bincount(starts, minlength=256).astype(np.int64, copy=False)


def count_opcodes(bytecode: BytecodeLike) -> np.ndarray:
    """Count opcode occurrences in ``bytecode`` as a 256-bin int64 vector.

    ``counts[value]`` equals the number of instructions whose opcode byte is
    ``value``; undefined byte values are folded into ``counts[INVALID_BIN]``.
    The result matches ``Counter(Disassembler().mnemonics(bytecode))``
    bin-for-bin under the :data:`BIN_MNEMONICS` mapping.

    Raises:
        BytecodeFormatError: on malformed hex input (same contract as the
            disassembler's :func:`normalize_bytecode`).
    """
    counts = _count_raw(normalize_bytecode(bytecode))
    undefined_total = int(counts[UNDEFINED_VALUES].sum())
    if undefined_total:
        counts[UNDEFINED_VALUES] = 0
        counts[INVALID_BIN] += undefined_total
    return counts


def _instruction_starts_sparse(
    buffer: np.ndarray, lengths: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Sorted global offsets of every instruction start in ``buffer``.

    ``buffer`` holds the codes back to back; ``lengths`` are their byte
    sizes and ``ends`` their cumulative end offsets.  Linear-sweep
    disassembly is a chain: the start of instruction *k+1* is ``start_k + 1
    + operand_size``.  A byte is *not* an instruction start iff it sits
    inside the immediate of a reachable PUSH, so it suffices to decide
    reachability for the PUSH *candidates* (every push-valued byte, real or
    immediate garbage) and subtract their covered immediate ranges.
    Candidate chains are resolved by pointer doubling over the candidate
    array — typically 4-8x smaller than the byte buffer: after round *r*
    the mask holds every candidate reachable within ``2^r - 1`` steps and
    the jump table holds ``next^(2^r)``, so ``ceil(log2(longest)) + 1``
    rounds of pure-NumPy gathers resolve every chain, ``longest`` being the
    largest per-code candidate count.
    """
    n_bytes = buffer.shape[0]
    code_starts = ends - lengths
    candidates = np.flatnonzero((buffer >= _FIRST_PUSH) & (buffer <= _LAST_PUSH))
    m = candidates.shape[0]
    if m == 0:
        return np.arange(n_bytes, dtype=np.int64)
    owner = np.searchsorted(ends, candidates, side="right")
    boundary = ends[owner]
    widths = buffer[candidates].astype(np.int64) - 0x5F
    # Byte position following each candidate's immediate, clamped to the
    # owning code's end (a truncated PUSH simply exhausts the chain; its
    # immediate never bleeds into the next code).
    after = np.minimum(candidates + 1 + widths, boundary)
    # Each candidate's successor: the first candidate at or past ``after``
    # (sentinel ``m`` when none is left).  A successor in a later code is
    # that code's first candidate, which the seeding below marks reachable
    # anyway, so chains may cross code boundaries without changing the
    # result.
    jump = np.append(np.searchsorted(candidates, after, side="left"), m)
    # Seed: every byte from a code's start to its first candidate is a
    # single-byte instruction, so the first candidate at or past each code
    # start is reachable (for a code without candidates, that is a later
    # code's first candidate, or the sentinel).
    reachable = np.zeros(m + 1, dtype=bool)
    reachable[np.searchsorted(candidates, code_starts, side="left")] = True
    longest = int(np.bincount(owner).max())
    rounds = max(1, int(np.ceil(np.log2(max(longest, 2)))) + 1)
    for _ in range(rounds):
        reachable[jump[np.flatnonzero(reachable)]] = True
        jump = jump[jump]
    reachable = reachable[:-1]
    # Immediate ranges of reachable candidates cover the non-start bytes:
    # position i is covered iff some reachable PUSH at p < i reaches past i.
    # Reachable immediates are disjoint, so a running maximum of their end
    # offsets (recorded at p + 1, the first covered byte) decides coverage.
    covered_until = np.zeros(n_bytes + 1, dtype=np.int64)
    covered_until[candidates[reachable] + 1] = after[reachable]
    covered = np.maximum.accumulate(covered_until)[:n_bytes] > np.arange(
        n_bytes, dtype=np.int64
    )
    return np.flatnonzero(~covered)


def _batch_starts(
    codes: Sequence[bytes],
) -> "Tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """Concatenate ``codes`` and resolve every instruction start at once.

    Returns ``(buffer, ends, starts)`` — the joined uint8 buffer, each
    code's end offset in it and the sorted global instruction starts — or
    ``None`` when the batch holds no bytes at all.  The one instruction-start
    resolver of both batch kernels.
    """
    lengths = np.fromiter(
        (len(code) for code in codes), dtype=np.int64, count=len(codes)
    )
    buffer = np.frombuffer(b"".join(codes), dtype=np.uint8)
    if buffer.shape[0] == 0:
        return None
    ends = np.cumsum(lengths)
    return buffer, ends, _instruction_starts_sparse(buffer, lengths, ends)


def count_batch(codes: Sequence[bytes]) -> np.ndarray:
    """Batched kernel: ``(n, 256)`` opcode counts for already-normalised codes.

    All codes are concatenated into one buffer so the whole batch reduces to
    a handful of NumPy passes: one vectorized instruction-start resolution
    (:func:`_batch_starts`) and one ``np.bincount`` over ``owner * 256 +
    byte``.  Per-call overhead amortises across the batch, which is what
    makes small real-world contracts fast to sweep.
    """
    n = len(codes)
    resolved = _batch_starts(codes)
    if resolved is None:
        return np.zeros((n, 256), dtype=np.int64)
    buffer, ends, starts = resolved
    owners = np.searchsorted(ends, starts, side="right")
    flat = np.bincount(
        owners * 256 + buffer[starts].astype(np.int64), minlength=n * 256
    )
    counts = flat.reshape(n, 256).astype(np.int64, copy=False)
    extra = counts[:, UNDEFINED_VALUES].sum(axis=1)
    counts[:, UNDEFINED_VALUES] = 0
    counts[:, INVALID_BIN] += extra
    return counts


def count_many(bytecodes: Iterable[BytecodeLike]) -> np.ndarray:
    """Stack opcode counts over ``bytecodes`` into an ``(n, 256)`` matrix."""
    return count_batch([normalize_bytecode(bytecode) for bytecode in bytecodes])


# ----------------------------------------------------------------------------
# Sequence kernel
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OpcodeSequence:
    """The disassembled instruction stream of one bytecode, as two arrays.

    ``opcodes[k]`` is the opcode byte value of the *k*-th instruction
    (undefined byte values folded into :data:`INVALID_BIN`, exactly as the
    disassembler reports them as ``INVALID``) and ``widths[k]`` is the number
    of immediate bytes it consumed (truncation-aware: a ``PUSHn`` whose
    immediate runs past the end of the code has ``width < n``).  Together
    they reconstruct the full ``Disassembler`` output against the original
    code bytes:

    * mnemonic of instruction *k* — ``BIN_MNEMONICS[opcodes[k]]``;
    * byte offset — ``starts()[k]``;
    * immediate operand — ``code[starts()[k] + 1 : starts()[k] + 1 +
      widths[k]]`` when ``0x60 <= opcodes[k] <= 0x7F``, else ``None``
      (matching ``operand_size > 0`` in the registry — ``PUSH0`` carries
      no immediate).

    Both arrays are ``uint8`` (opcodes are byte values, widths are at most
    32), so a cached sequence costs two bytes per instruction.
    """

    opcodes: np.ndarray
    widths: np.ndarray

    def __len__(self) -> int:
        return int(self.opcodes.shape[0])

    def starts(self) -> np.ndarray:
        """Byte offset of every instruction (``Instruction.offset``)."""
        sizes = self.widths.astype(np.int64) + 1
        starts = np.empty(sizes.shape[0], dtype=np.int64)
        if sizes.shape[0]:
            starts[0] = 0
            np.cumsum(sizes[:-1], out=starts[1:])
        return starts

    def counts(self) -> np.ndarray:
        """256-bin count vector (equals :func:`count_opcodes` on the code)."""
        return np.bincount(self.opcodes, minlength=256).astype(np.int64, copy=False)

    def mnemonics(self) -> List[str]:
        """Mnemonic list (equals ``Disassembler().mnemonics(code)``)."""
        return [BIN_MNEMONICS[int(value)] for value in self.opcodes.tolist()]


_EMPTY_SEQUENCE = OpcodeSequence(
    opcodes=np.zeros(0, dtype=np.uint8), widths=np.zeros(0, dtype=np.uint8)
)


def _sequence_raw(code: bytes) -> OpcodeSequence:
    """Sequence of already-normalised ``code`` (single-bytecode kernel)."""
    if not code:
        return _EMPTY_SEQUENCE
    array = np.frombuffer(code, dtype=np.uint8)
    keep = _keep_mask(code, array)
    starts = (
        np.arange(array.shape[0], dtype=np.int64)
        if keep is None
        else np.flatnonzero(keep)
    )
    widths = np.diff(np.append(starts, len(code))) - 1
    return OpcodeSequence(
        opcodes=_FOLD[array[starts]].astype(np.uint8),
        widths=widths.astype(np.uint8),
    )


def opcode_sequence(bytecode: BytecodeLike) -> OpcodeSequence:
    """Disassemble ``bytecode`` into an :class:`OpcodeSequence`.

    Bit-identical to the :class:`~repro.evm.disassembler.Disassembler` token
    stream (see the dataclass docstring for the reconstruction rules).

    Raises:
        BytecodeFormatError: on malformed hex input (same contract as the
            disassembler's :func:`normalize_bytecode`).
    """
    return _sequence_raw(normalize_bytecode(bytecode))


def sequence_batch(codes: Sequence[bytes]) -> List[OpcodeSequence]:
    """Batched sequence kernel for already-normalised codes.

    Instruction starts for the whole batch are resolved in one vectorized
    pass over the concatenated buffer (:func:`_batch_starts`); opcodes and
    widths are computed packed — one flat array each for the batch — and
    every code's :class:`OpcodeSequence` is a pair of slices of them (so a
    sequence kept alive keeps its whole batch's arrays alive; callers that
    cache sequences bound that by batching in chunks).
    """
    n = len(codes)
    resolved = _batch_starts(codes)
    if resolved is None:
        return [_EMPTY_SEQUENCE] * n
    buffer, ends, starts = resolved
    opcodes = _FOLD[buffer[starts]].astype(np.uint8)
    # A code's final instruction is followed by the next non-empty code's
    # first byte — its own code's end — so one diff yields every width.
    widths = (np.diff(np.append(starts, buffer.shape[0])) - 1).astype(np.uint8)
    bounds = np.searchsorted(starts, ends, side="left")
    sequences: List[OpcodeSequence] = []
    start = 0
    for stop in bounds.tolist():
        if stop == start:
            sequences.append(_EMPTY_SEQUENCE)
        else:
            sequences.append(
                OpcodeSequence(opcodes=opcodes[start:stop], widths=widths[start:stop])
            )
        start = stop
    return sequences


def sequence_many(bytecodes: Iterable[BytecodeLike]) -> List[OpcodeSequence]:
    """Sequences of ``bytecodes`` (normalising hex/bytes inputs first)."""
    return sequence_batch([normalize_bytecode(bytecode) for bytecode in bytecodes])


def mnemonic_sequence(bytecode: BytecodeLike) -> List[str]:
    """The mnemonic stream of ``bytecode``.

    Equals ``Disassembler().mnemonics(bytecode)``.
    """
    return opcode_sequence(bytecode).mnemonics()


def mnemonic_counts(bytecode: BytecodeLike) -> Dict[str, int]:
    """Opcode counts keyed by mnemonic (only non-zero entries).

    Equals ``dict(Counter(Disassembler().mnemonics(bytecode)))``.
    """
    counts = count_opcodes(bytecode)
    return {
        BIN_MNEMONICS[int(value)]: int(counts[value])
        for value in np.flatnonzero(counts)
    }


def instruction_count(bytecode: BytecodeLike) -> int:
    """Total number of instructions (equals ``len(Disassembler().mnemonics(...))``)."""
    return int(count_opcodes(bytecode).sum())


def bins_for_mnemonics(mnemonics: Sequence[str]) -> np.ndarray:
    """Byte-value bin of each mnemonic; ``-1`` for names outside the registry."""
    return np.array(
        [MNEMONIC_BINS.get(mnemonic, -1) for mnemonic in mnemonics], dtype=np.intp
    )


def observed_mnemonics(count_matrix: np.ndarray) -> List[str]:
    """Sorted mnemonics of every bin with a non-zero count anywhere in ``count_matrix``.

    Mirrors how :class:`~repro.features.histogram.OpcodeHistogramExtractor`
    learns its vocabulary from a training set.
    """
    matrix = np.asarray(count_matrix)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    observed = np.flatnonzero(matrix.any(axis=0))
    return sorted(BIN_MNEMONICS[int(value)] for value in observed)
