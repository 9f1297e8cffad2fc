"""Table I — EVM opcodes for the Shanghai fork."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.config import Scale
from ..evm.opcodes import SHANGHAI_OPCODE_COUNT, opcode_table_rows
from ..features.store import feature_session


def run_table1(
    limit: int | None = None, scale: Optional[Scale] = None
) -> List[Dict[str, object]]:
    """Regenerate Table I rows (opcode, name, gas, description).

    Args:
        limit: If given, truncate to the first ``limit`` rows (the paper
            shows an excerpt; the full registry has 144 entries).
        scale: Accepted for driver-signature uniformity with the other four
            experiment drivers.  Table I is derived purely from the opcode
            registry — there are no bytecodes to extract — so its feature
            session (:func:`~repro.features.store.feature_session`) is a
            documented no-op even when ``scale.feature_cache_dir`` is set.
    """
    with feature_session(scale, None):
        rows = opcode_table_rows()
        return rows[:limit] if limit is not None else rows


def summarize_table1() -> Dict[str, object]:
    """Headline facts checked against the paper's §II."""
    rows = run_table1()
    by_name = {row["name"]: row for row in rows}
    return {
        "n_opcodes": SHANGHAI_OPCODE_COUNT,
        "first": rows[0],
        "last": rows[-1],
        "selfdestruct_gas": by_name["SELFDESTRUCT"]["gas"],
        "add_gas": by_name["ADD"]["gas"],
        "mul_gas": by_name["MUL"]["gas"],
        "has_push0": "PUSH0" in by_name,
        "has_invalid": "INVALID" in by_name,
    }
