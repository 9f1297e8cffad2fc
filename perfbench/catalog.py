"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` declares the same lists; ``test_perfbench.py`` keeps the
two in step.  An untraced run (``--trace 0``) reports every end-to-end
metric, a traced run (``--trace 1``) every per-layer metric.  A per-layer
metric of a layer a workload never enters reads 0 on that workload (the
table in ``README.md`` says which apply where).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "throughput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> unit
PER_LAYER: Dict[str, str] = {
    "gateway.self_ms_p50": "ms",
    "gateway.non2xx": "count",
    "gateway.client_errors": "count",
    "service.wait_ms_p50": "ms",
    "service.verdict_hit_rate": "ratio",
    "service.rows_per_pass": "rows",
    "models.passes": "count",
    "models.pass_ms_p50": "ms",
    "models.pass_ms_p99": "ms",
    "models.self_ms_p50": "ms",
    "features.ms_p50": "ms",
    "features.ms_total": "ms",
    "features.kernel_passes": "count",
    "chain.rpc_calls": "count",
    "chain.rpc_ms_total": "ms",
    "analysis.calls": "count",
    "analysis.ms_total": "ms",
    "monitor.checkpoint_ms_p50": "ms",
    "monitor.self_ms_p50": "ms",
    "monitor.alerts": "count",
    "monitor.contracts": "count",
    "input.unique_share": "ratio",
    "input.clone_share": "ratio",
    "setup.import_s": "s",
    "setup.corpus_s": "s",
    "setup.fit_s": "s",
    "setup.mine_s": "s",
    "setup.ready_s": "s",
    "process.cpu_s": "s",
    "process.wall_s": "s",
    "trace.overhead_throughput_pct": "%",
    "trace.overhead_latency_p50_pct": "%",
}


def layer_metrics(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric with its unit; layers not measured read 0."""
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}


def end_to_end_metrics(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end metric with its unit; all must be measured."""
    if set(values) != set(END_TO_END):
        raise KeyError(f"end-to-end metrics differ from the catalog: {sorted(values)}")
    return {name: (float(values[name]), END_TO_END[name][0]) for name in END_TO_END}


def overhead_pct(untraced: float, traced: float, higher_is_better: bool) -> float:
    """How much worse the traced window read, in percent of the untraced one."""
    if untraced == 0:
        return 0.0
    change = (untraced - traced) if higher_is_better else (traced - untraced)
    return 100.0 * change / untraced
