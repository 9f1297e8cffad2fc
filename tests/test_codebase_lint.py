"""Codebase hygiene lints over ``src/``.

A small AST pass enforcing these rules across every production module:

* no bare ``except:`` clauses (they swallow ``KeyboardInterrupt`` and mask
  programming errors — catch a concrete exception type instead),
* no mutable default arguments (``def f(x=[])`` shares one list across all
  calls),
* no ``assert`` statements outside tests (``python -O`` strips them, so
  they must never guard runtime invariants — raise an exception instead),
* no explicit ``pickle`` use in ``repro.features`` (extraction runs in the
  parent process, so nothing there has a reason to serialize corpus bytes),
* no process pools in ``repro.features`` or ``repro.evm`` (the extraction
  kernels run inline or on threads; see
  :class:`~repro.features.batch.BatchFeatureService`),
* no bare ``print(`` calls (diagnostic output goes through
  :mod:`repro.obs.log`, where it can be silenced, redirected, or stamped
  with the active trace id — stray prints pollute library users' stdout),

plus a ``compileall`` sweep pinning that every module byte-compiles.
"""

from __future__ import annotations

import ast
import compileall
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MUTABLE_DEFAULT_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _python_sources():
    return sorted(SRC.rglob("*.py"))


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _location(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(SRC)}:{node.lineno}"


def test_source_tree_is_nonempty():
    assert len(_python_sources()) > 30


def test_no_bare_except_clauses():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                offenders.append(_location(path, node))
    assert offenders == [], f"bare except clauses found: {offenders}"


def test_no_mutable_default_arguments():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, MUTABLE_DEFAULT_NODES) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in {"list", "dict", "set", "bytearray"}
                ):
                    offenders.append(f"{_location(path, node)} ({node.name})")
    assert offenders == [], f"mutable default arguments found: {offenders}"


def test_no_assert_statements_in_production_code():
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assert):
                offenders.append(_location(path, node))
    assert offenders == [], f"assert statements found in src/: {offenders}"


def test_no_pickling_of_corpus_bytes_in_features():
    """Corpus bytes never get serialized in ``repro.features``.

    Every extraction runs in the process that already holds the bytes —
    inline or on a thread pool sharing its memory — and the on-disk
    caches use the validated ``.npz`` format of :mod:`repro.persist`.  An
    explicit ``pickle.dumps``/``loads`` (or a ``pickle`` import at all) in
    the features package would add a second, unvalidated serialization
    path for corpus bytes or feature arrays, so it is banned outright.
    """
    features = SRC / "repro" / "features"
    offenders = []
    for path in sorted(features.rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import) and any(
                alias.name == "pickle" or alias.name.startswith("pickle.")
                for alias in node.names
            ):
                offenders.append(_location(path, node))
            elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
                offenders.append(_location(path, node))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"dumps", "loads", "dump", "load"}
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pickle"
            ):
                offenders.append(_location(path, node))
    assert offenders == [], f"pickle use found in repro.features: {offenders}"


def test_no_process_pools_in_extraction_layers():
    """``repro.features`` and ``repro.evm`` import no process-pool machinery.

    A process backend for extraction never beat the thread pool on the
    reference machine, and a killed worker poisoned every later batch of
    the service that owned the pool.  Importing ``ProcessPoolExecutor`` or
    ``multiprocessing`` in either package would bring that path back.
    """
    offenders = []
    for package in ("features", "evm"):
        for path in sorted((SRC / "repro" / package).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        f"{node.module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                if any(
                    name.split(".")[0] == "multiprocessing"
                    or name.endswith("ProcessPoolExecutor")
                    for name in names
                ):
                    offenders.append(_location(path, node))
    assert offenders == [], f"process-pool imports found: {offenders}"


def test_no_bare_print_in_production_code():
    """Production modules must log through ``repro.obs.log``, not print."""
    offenders = []
    for path in _python_sources():
        for node in ast.walk(_parse(path)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                offenders.append(_location(path, node))
    assert offenders == [], f"bare print() calls found in src/: {offenders}"


def test_all_modules_byte_compile(tmp_path):
    ok = compileall.compile_dir(
        str(SRC),
        quiet=2,
        force=True,
        legacy=False,
        workers=1,
        invalidation_mode=__import__("py_compile").PycInvalidationMode.CHECKED_HASH,
    )
    assert ok, "compileall reported syntax errors under src/"


def test_sources_import_cleanly():
    # The package root must import without executing heavyweight side effects.
    import repro

    assert repro.__name__ == "repro"
    assert "repro" in sys.modules
