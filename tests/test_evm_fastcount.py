"""Equivalence tests: the vectorized opcode kernel vs. the disassembler.

The fast path must count exactly what ``Counter(Disassembler().mnemonics(bc))``
counts, for every bytecode — including truncated PUSH tails, undefined
opcodes, and empty inputs.  ~200 seeded random bytecodes exercise the
property; targeted cases pin the tricky edges.
"""

from collections import Counter

import numpy as np
import pytest

from repro.evm.disassembler import Disassembler
from repro.evm.errors import BytecodeFormatError
from repro.evm.fastcount import (
    BIN_MNEMONICS,
    INVALID_BIN,
    MNEMONIC_BINS,
    bins_for_mnemonics,
    count_batch,
    count_many,
    count_opcodes,
    instruction_count,
    mnemonic_counts,
    observed_mnemonics,
    sequence_batch,
)
from repro.evm.opcodes import SHANGHAI_OPCODES


def legacy_counts(bytecode) -> dict:
    return dict(Counter(Disassembler().mnemonics(bytecode)))


def assert_batch_matches_disassembler(codes):
    """Both batch kernels, code by code, against the ``Disassembler`` oracle."""
    matrix = count_batch(codes)
    sequences = sequence_batch(codes)
    assert matrix.shape == (len(codes), 256)
    assert len(sequences) == len(codes)
    for row, sequence, code in zip(matrix, sequences, codes):
        code = bytes(code)
        instructions = Disassembler().disassemble(code)
        counted = {BIN_MNEMONICS[int(v)]: int(row[v]) for v in np.flatnonzero(row)}
        assert counted == legacy_counts(code), code.hex()
        assert sequence.mnemonics() == [i.mnemonic for i in instructions], code.hex()
        starts = sequence.starts()
        assert starts.tolist() == [i.offset for i in instructions], code.hex()
        for index, instruction in enumerate(instructions):
            start, width = int(starts[index]), int(sequence.widths[index])
            if 0x60 <= int(sequence.opcodes[index]) <= 0x7F:
                operand = code[start + 1 : start + 1 + width]
            else:
                operand = None
                assert width == 0, code.hex()
            assert operand == instruction.operand, code.hex()
        assert sequence.opcodes.dtype == np.uint8
        assert sequence.widths.dtype == np.uint8


def random_bytecodes(n_cases: int = 200, seed: int = 20250726):
    """Seeded random bytecodes biased towards the awkward encodings."""
    rng = np.random.default_rng(seed)
    cases = []
    for index in range(n_cases):
        kind = index % 4
        length = int(rng.integers(0, 300))
        if kind == 0:
            # Uniform bytes: plenty of undefined opcodes and accidental PUSHes.
            body = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        elif kind == 1:
            # PUSH-heavy: immediates frequently contain push-valued bytes.
            body = rng.integers(0x60, 0x80, size=length, dtype=np.uint8).tobytes()
        elif kind == 2:
            # Undefined-heavy: gaps of the Shanghai registry.
            body = rng.integers(0x0C, 0x10, size=length, dtype=np.uint8).tobytes()
        else:
            # Valid-looking code with a truncated PUSH tail.
            body = rng.integers(0, 0x60, size=length, dtype=np.uint8).tobytes()
            width = int(rng.integers(1, 33))
            tail = int(rng.integers(0, width))
            body += bytes([0x5F + width]) + bytes(tail)
        cases.append(body)
    return cases


class TestKernelEquivalence:
    def test_matches_disassembler_on_random_bytecodes(self):
        for bytecode in random_bytecodes():
            assert mnemonic_counts(bytecode) == legacy_counts(bytecode)

    def test_batch_matches_single(self):
        codes = random_bytecodes(80, seed=7)
        matrix = count_batch(codes)
        assert matrix.shape == (len(codes), 256)
        for row, code in enumerate(codes):
            assert np.array_equal(matrix[row], count_opcodes(code))

    def test_empty_inputs(self):
        for empty in (b"", "", "0x", "0X"):
            counts = count_opcodes(empty)
            assert counts.shape == (256,)
            assert counts.sum() == 0
            assert mnemonic_counts(empty) == {}

    def test_hex_string_input(self):
        assert mnemonic_counts("0x6080604052") == legacy_counts("0x6080604052")

    def test_malformed_hex_raises(self):
        with pytest.raises(BytecodeFormatError):
            count_opcodes("0x123")

    def test_truncated_push_counts_once(self):
        # PUSH32 with only 3 immediate bytes: one PUSH32, nothing else.
        code = bytes([0x7F, 0x60, 0x60, 0x60])
        assert mnemonic_counts(code) == {"PUSH32": 1}
        assert mnemonic_counts(code) == legacy_counts(code)

    def test_push_immediates_are_skipped(self):
        # PUSH1 0x60: the immediate is push-valued but must not be counted.
        code = bytes([0x60, 0x60, 0x00])
        assert mnemonic_counts(code) == {"PUSH1": 1, "STOP": 1}

    def test_undefined_bytes_fold_into_invalid(self):
        code = bytes([0x0C, 0x0D, 0xFE, 0xEF])
        counts = count_opcodes(code)
        assert counts[INVALID_BIN] == 4
        assert counts.sum() == 4
        assert mnemonic_counts(code) == {"INVALID": 4}

    def test_every_single_byte_value(self):
        for value in range(256):
            code = bytes([value])
            assert mnemonic_counts(code) == legacy_counts(code), hex(value)

    def test_instruction_count_matches_mnemonic_length(self):
        for bytecode in random_bytecodes(40, seed=3):
            assert instruction_count(bytecode) == len(Disassembler().mnemonics(bytecode))

    @pytest.mark.parametrize(
        "codes",
        [
            [],
            [b""],
            [b"", b"", b""],
            [bytes([0x60, 0x01]), b"", b"", bytes([0x01, 0x7F, 0xAA])],
            [b"", bytes([0x5B]), b"", bytes([0x60, 0x61]), b""],
        ],
        ids=["no-codes", "one-empty", "all-empty", "empty-middle", "empty-around"],
    )
    def test_batch_with_empty_codes(self, codes):
        assert_batch_matches_disassembler(codes)

    @pytest.mark.parametrize(
        "codes",
        [
            [bytes([0x00, 0x60]), bytes([0x01, 0x02])],
            [bytes([0x7F]), bytes([0x5B, 0x60, 0x01])],
            [bytes([0x61, 0xAA]), bytes([0x60, 0x5B]), bytes([0x7F, 0x60, 0x60])],
            [bytes([0x60]), b"", bytes([0x60])],
        ],
        ids=["push1-tail", "push32-tail", "partial-immediates", "around-empty"],
    )
    def test_truncated_push_never_bleeds_into_next_code(self, codes):
        assert_batch_matches_disassembler(codes)

    def test_all_push32_codes(self):
        codes = [bytes([0x7F]) * length for length in (1, 32, 33, 34, 66, 100)]
        assert_batch_matches_disassembler(codes)
        assert_batch_matches_disassembler(codes[::-1])

    def test_every_single_byte_value_in_one_batch(self):
        assert_batch_matches_disassembler([bytes([value]) for value in range(256)])
        assert_batch_matches_disassembler([bytes(range(256)), bytes(range(255, -1, -1))])

    def test_batch_from_read_only_buffer(self):
        codes = random_bytecodes(30, seed=14)
        buffer = np.frombuffer(b"".join(codes), dtype=np.uint8)
        assert not buffer.flags.writeable
        views, offset = [], 0
        for code in codes:
            views.append(memoryview(buffer)[offset : offset + len(code)])
            offset += len(code)
        assert_batch_matches_disassembler(views)
        assert np.array_equal(count_batch(views), count_batch(codes))

    def test_random_batch_matches_disassembler(self):
        assert_batch_matches_disassembler(random_bytecodes(120, seed=11))

    def test_dtype_and_shape(self):
        counts = count_opcodes(bytes([0x60, 0x01, 0x00]))
        assert counts.dtype == np.int64
        assert counts.shape == (256,)


class TestHelpers:
    def test_count_many_accepts_hex_and_bytes(self):
        matrix = count_many(["0x6001", bytes([0x60, 0x01])])
        assert matrix.shape == (2, 256)
        assert np.array_equal(matrix[0], matrix[1])

    def test_count_many_empty(self):
        assert count_many([]).shape == (0, 256)

    def test_bin_maps_are_inverse(self):
        for value, info in SHANGHAI_OPCODES.items():
            assert BIN_MNEMONICS[value] == info.mnemonic
            assert MNEMONIC_BINS[info.mnemonic] == value

    def test_bins_for_mnemonics_unknown(self):
        bins = bins_for_mnemonics(["PUSH1", "NOT_AN_OPCODE", "STOP"])
        assert bins[0] == 0x60
        assert bins[1] == -1
        assert bins[2] == 0x00

    def test_observed_mnemonics_sorted_union(self):
        matrix = count_many([bytes([0x60, 0x01, 0x00]), bytes([0x01, 0x02])])
        assert observed_mnemonics(matrix) == ["ADD", "MUL", "PUSH1", "STOP"]
