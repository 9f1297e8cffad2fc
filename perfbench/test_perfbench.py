"""Tests of the benchmark itself: arithmetic, inputs, failure accounting, contract.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import catalog
import inputs
from http_client import Exchange, closed_loop, post_request
from screen import answer_counts
from spans import (
    Span,
    percentile,
    self_time,
    self_times,
    union_length,
)

HERE = Path(__file__).resolve().parent


# -- span arithmetic ---------------------------------------------------------


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear_interpolation(q):
    rng = random.Random(q)
    values = [rng.expovariate(1.0) for _ in range(257)]
    assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_percentile_of_nothing_is_zero_and_q_is_checked():
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_nested_and_overlapping_children_once():
    parent = Span("model", 0.0, 10.0, thread=1)
    children = [
        Span("features", 1.0, 3.0, thread=1),
        Span("features", 2.0, 4.0, thread=1),  # overlaps the first
        Span("kernel", 2.5, 2.7, thread=1),  # nested in both
        Span("features", 9.0, 12.0, thread=1),  # clipped at the parent's end
        Span("features", 5.0, 8.0, thread=2),  # another thread: not a child
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0)


def test_self_times_agrees_with_pairwise_self_time():
    rng = random.Random(7)
    spans = []
    for _ in range(300):
        start = rng.uniform(0, 100)
        spans.append(Span("x", start, start + rng.expovariate(0.5), thread=rng.choice([1, 2])))
    parents, children = spans[:60], spans[60:]
    assert self_times(parents, children) == pytest.approx(
        [self_time(parent, children) for parent in parents]
    )


# -- inputs --------------------------------------------------------------------


def test_inputs_are_deterministic_for_a_seed():
    assert inputs.cold_codes(5, 20, set()) == inputs.cold_codes(5, 20, set())
    assert inputs.cold_codes(5, 20, set()) != inputs.cold_codes(6, 20, set())
    first, second = inputs.monitor_stream(5).take(20), inputs.monitor_stream(5).take(20)
    assert [block.block_hash for block in first] == [block.block_hash for block in second]


def test_cold_inputs_are_distinct_and_disjoint_from_the_training_set():
    training = inputs.content_keys(inputs.build_dataset().bytecodes)
    codes = inputs.cold_codes(1, 300, training)
    keys = inputs.content_keys(codes)
    assert len(keys) == len(codes) == 300
    assert not keys & training


def test_derived_seeds_differ_by_purpose():
    assert inputs.derive_seed(1, "screen_cold") != inputs.derive_seed(1, "monitor_replay")
    assert inputs.derive_seed(1, "screen_cold") == inputs.derive_seed(1, "screen_cold")
    assert 0 <= inputs.derive_seed(-3, "screen_cold") < 2**31


# -- failure accounting ----------------------------------------------------------


def test_forced_4xx_answers_count_as_failures():
    """Half the requests get a 400 from the real gateway; each one is a failure."""
    from repro.models.hsc import make_random_forest_hsc
    from repro.serving import BackgroundGateway, Gateway, ScoringService

    health = b"GET /healthz HTTP/1.1\r\nhost: bench\r\n\r\n"
    invalid = post_request("/score/bytecode", {"bytecode": "0xzz"})
    with ScoringService(make_random_forest_hsc(seed=0)) as service:
        with BackgroundGateway(Gateway(service)) as gateway:
            exchanges = closed_loop(
                ("127.0.0.1", gateway.port),
                lambda i: (i, health if i % 2 else invalid) if i < 40 else None,
                seconds=30.0,
            )
    assert len(exchanges) == 40
    assert sorted({exchange.status for exchange in exchanges}) == [200, 400]
    failed = [exchange for exchange in exchanges if not exchange.ok]
    assert len(failed) == 20 and all(exchange.status == 400 for exchange in failed)


def test_answer_counts_treat_errors_and_wrong_probabilities_as_not_correct():
    body = lambda p: json.dumps({"probability": p}).encode()  # noqa: E731
    exchanges = [
        Exchange(0, 0.0, 1.0, 200, body(0.25)),
        Exchange(1, 0.0, 1.0, 200, body(0.9)),  # wrong answer
        Exchange(0, 0.0, 1.0, 429, b"{}"),  # refused
        Exchange(1, 0.0, 1.0, 0, error="timeout"),
    ]
    assert answer_counts(exchanges, [0.25, 0.5]) == (1, 1)


# -- the contract ------------------------------------------------------------------


def test_catalog_matches_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == ["screen_cold", "monitor_replay"]
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_layer_metrics_fill_unmeasured_layers_with_zero():
    metrics = catalog.layer_metrics({"models.passes": 3})
    assert set(metrics) == set(catalog.PER_LAYER)
    assert metrics["models.passes"] == (3.0, "count")
    assert metrics["chain.rpc_calls"] == (0.0, "count")
    with pytest.raises(KeyError):
        catalog.layer_metrics({"no.such_metric": 1})


def test_run_fails_without_the_program(tmp_path):
    """Beside only BENCHMARK.json and this directory, a run exits non-zero, silently."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""
