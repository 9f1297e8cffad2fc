"""``monitor_replay``: a deploy-time monitor turning blocks into alerts.

In-process.  Set-up mines a chain on a ``SimulatedEthereumNode`` from a
seeded ``BlockStream`` with its natural proxy-clone share.  The timed loop
calls ``MonitorPipeline.step()``; one operation is one poll window (up to
eight confirmed blocks scored in one ``score_batch`` pass).  The pipeline
runs with ``impersonation=True``, a ``StaticAnalyzer`` on every alert, and
a ``Checkpoint`` saved after every window.  Like a monitor following a
live chain between polls, the loop idles ``POLL_PAUSE_S`` after each
window; the pause is not part of any timing.  The loop moves from core to
core every ``CORE_SWITCH_S`` of wall time, so a run samples every usable
core.

When a pass reaches the end of the chain, a new pass replays it from block 0
with fresh state: a new scoring service and feature service (cold caches),
analyzer, and checkpoint directory.  Every pass therefore does the same
work, and a run measures as many passes as fit in its window.  Rebuilding a
pass is not timed.

Correctness, per pass and outside timing: ``contracts_scanned`` equals the
deployments in the confirmed blocks processed, a finished pass processed
every confirmed block, and the set of alerts equals the decision threshold
applied to ``predict_proba`` of every deployment.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from catalog import layer_metrics, overhead_pct
from machine import cpu_seconds, cpu_times, host_speed, peak_rss_mb, steal_share
from spans import SpanRecorder, percentile, self_times

#: Idle time after each poll window.  On the shared reference host a vCPU
#: kept 100% busy ran in slow and fast stretches of 10 to 30 s; with a pause
#: of 8 ms after each window (about a quarter of the time idle) the spread of
#: one-second throughputs fell from 0.19 to 0.11 of their mean, and their
#: correlation with a fixed pure-Python loop's speed from 0.73 to 0.31.
POLL_PAUSE_S = 0.008
#: Wall time on one core before the loop moves to the next.  On the
#: reference host the two cores' speeds were unrelated (correlation -0.02
#: over half-second slices of a fixed loop run on both at once), and their
#: mean over 5 s spread 0.09 of itself where each core alone spread 0.12
#: and 0.14.
CORE_SWITCH_S = 1.0


@dataclass
class PassResult:
    """What one replay pass processed, read back after it stopped."""

    next_block: int
    contracts_scanned: int
    alerts: set
    verdict_hits: int
    verdict_misses: int
    kernel_passes: int
    batches: int
    batched_rows: float
    finished: bool
    windows: int


@dataclass
class Window:
    """One measured window: a sequence of replay passes."""

    step_s: List[float] = field(default_factory=list)
    step_contracts: List[int] = field(default_factory=list)
    alerts: int = 0
    passes: List[PassResult] = field(default_factory=list)
    steal: Optional[float] = None
    speed: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def contracts(self) -> int:
        return sum(self.step_contracts)

    @property
    def throughput(self) -> float:
        """Contracts per second of stepping (pass rebuilds are not timed)."""
        return self.contracts / sum(self.step_s) if self.step_s else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile([value * 1000.0 for value in self.step_s], q)


class Replay:
    """One pass over the mined chain, with fresh monitor state."""

    def __init__(self, detector, node, directory: Path, recorder: Optional[SpanRecorder]):
        from repro.analysis import StaticAnalyzer
        from repro.features.batch import BatchFeatureService
        from repro.monitor import Checkpoint, MonitorPipeline
        from repro.serving import ScoringService

        from layers import (
            TimedAnalyzer,
            TimedCheckpoint,
            TimedDetector,
            TimedFeatureService,
            TimedNode,
            TimedScoringService,
        )

        checkpoint_path = directory / "monitor.json"
        if recorder is None:
            self.service = ScoringService(detector, feature_service=BatchFeatureService())
            analyzer = StaticAnalyzer(features=self.service.feature_service, code_resolver=node.get_code)
            checkpoint = Checkpoint(checkpoint_path)
        else:
            detector.feature_service = TimedFeatureService(recorder)
            self.service = TimedScoringService(TimedDetector(detector, recorder), recorder=recorder)
            node = TimedNode(node, recorder)
            analyzer = TimedAnalyzer(
                features=detector.feature_service, code_resolver=node.get_code, recorder=recorder
            )
            checkpoint = TimedCheckpoint(checkpoint_path, recorder)
        self.pipeline = MonitorPipeline(
            self.service, node, checkpoint=checkpoint, impersonation=True, analyzer=analyzer
        )

    def result(self, finished: bool, windows: int) -> PassResult:
        from repro.monitor import Alert

        stats = self.pipeline.stats()
        self.service.close()
        return PassResult(
            next_block=stats.next_block,
            contracts_scanned=stats.contracts_scanned,
            alerts={
                (alert.block_number, alert.contract_address)
                for alert in self.pipeline.sink.alerts
                if isinstance(alert, Alert)
            },
            verdict_hits=stats.service.verdict_hits,
            verdict_misses=stats.service.verdict_misses,
            kernel_passes=stats.service.kernel_passes,
            batches=stats.service.batches,
            batched_rows=stats.service.mean_batch_size * stats.service.batches,
            finished=finished,
            windows=windows,
        )


def run(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool, ready) -> Optional[dict]:
    start = time.perf_counter()
    from repro.chain.rpc import SimulatedEthereumNode

    import inputs

    phases = {"import_s": time.perf_counter() - start}
    mark = time.perf_counter()
    dataset = inputs.build_dataset()
    phases["corpus_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    detector = inputs.make_detector()
    detector.fit(dataset.bytecodes, dataset.labels)
    phases["fit_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    stream = inputs.monitor_stream(seed)
    node = SimulatedEthereumNode.from_stream(stream, blocks=inputs.MONITOR_BLOCKS)
    phases["mine_s"] = time.perf_counter() - mark
    workdir = Path(tempfile.mkdtemp(prefix="monitor-", dir=inputs.temp_root()))
    try:
        mark = time.perf_counter()
        first = Replay(detector, node, workdir / "pass-0", None)
        phases["ready_s"] = time.perf_counter() - mark
        ready()
        if setup_only:
            first.result(finished=False, windows=0)
            return None
        # A traced run splits its time between an untraced and a traced window.
        window_s = seconds / 2 if trace else seconds
        untraced = _measure(first, detector, node, workdir, window_s, None)
        traced = None
        if trace:
            recorder = SpanRecorder()
            opening = Replay(detector, node, workdir / "traced-0", recorder)
            traced = _measure(opening, detector, node, workdir, window_s, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    windows = [window for window in (untraced, traced) if window is not None]
    checks, failed = _check(detector, node, windows)
    chain_codes = [tx.bytecode for block in stream.take(inputs.MONITOR_BLOCKS) for tx in block.transactions]
    clone_share = 1.0 - inputs.unique_share(chain_codes)
    attempted = sum(len(window.step_s) for window in windows)
    facts = {
        "windows": len(untraced.step_s),
        "passes": len(untraced.passes),
        "samples_beyond_p90": int(len(untraced.step_s) * 0.1),
        "chain_blocks": inputs.MONITOR_BLOCKS,
        "chain_deployments": len(chain_codes),
        "clone_share": clone_share,
        "unique_share": 1.0 - clone_share,
        "verdict_hit_share": _hit_rate(untraced),
        "steal_share": untraced.steal,
        "host_speed": untraced.speed,
        "rows_per_pass": _rows_per_pass(untraced),
        "latency_p90_ms": untraced.latency_ms(90),
        "latency_p99_ms": untraced.latency_ms(99),
        **checks,
    }
    if trace:
        metrics = _layer_metrics(traced, untraced, recorder, phases, clone_share)
    else:
        metrics = {
            "throughput_per_s": untraced.throughput,
            "latency_p50_ms": untraced.latency_ms(50),
            "peak_rss_mb": peak_rss_mb(),
        }
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "facts": facts,
    }


def _measure(replay: Replay, detector, node, workdir: Path, seconds: float, recorder) -> Window:
    """Step replay passes until ``seconds`` of wall time have passed."""
    window = Window()
    if recorder is not None:
        recorder.reset()
    speed = host_speed()
    cpu = cpu_seconds()
    host = cpu_times()
    opened = time.perf_counter()
    deadline = opened + seconds
    pass_index = 0
    steps = 0
    cores = sorted(os.sched_getaffinity(0))
    core = 0
    os.sched_setaffinity(0, {cores[core]})
    switched = opened
    while time.perf_counter() < deadline:
        step_start = time.perf_counter()
        if step_start - switched >= CORE_SWITCH_S:
            core = (core + 1) % len(cores)
            os.sched_setaffinity(0, {cores[core]})
            switched = step_start = time.perf_counter()
        blocks = replay.pipeline.step()
        step_end = time.perf_counter()
        if not blocks:
            window.passes.append(replay.result(finished=True, windows=steps))
            pass_index += 1
            steps = 0
            label = "traced" if recorder is not None else "pass"
            replay = Replay(detector, node, workdir / f"{label}-{pass_index}", recorder)
            continue
        if recorder is not None:
            recorder.add("step", step_start, step_end)
        window.step_s.append(step_end - step_start)
        steps += 1
        window.step_contracts.append(sum(len(block.transactions) for block in blocks))
        time.sleep(POLL_PAUSE_S)
    os.sched_setaffinity(0, cores)
    window.passes.append(replay.result(finished=False, windows=steps))
    window.wall_s = time.perf_counter() - opened
    window.cpu_s = cpu_seconds() - cpu
    window.steal = steal_share(host, cpu_times())
    window.speed = (speed + host_speed()) / 2
    window.alerts = sum(len(result.alerts) for result in window.passes)
    return window


def _rows_per_pass(window: Window) -> float:
    batches = sum(result.batches for result in window.passes)
    return sum(result.batched_rows for result in window.passes) / batches if batches else 0.0


def _hit_rate(window: Window) -> float:
    hits = sum(result.verdict_hits for result in window.passes)
    lookups = hits + sum(result.verdict_misses for result in window.passes)
    return hits / lookups if lookups else 0.0


def _check(detector, node, windows: List[Window]):
    """Scan-count and alert-set checks of every pass, outside timing.

    Returns the check flags and the number of poll windows of the passes
    that failed one.
    """
    from repro.features.batch import BatchFeatureService
    from repro.monitor import MonitorConfig

    config = MonitorConfig()
    blocks = [node.get_block(number) for number in range(node.block_number() + 1)]
    confirmed = node.block_number() - config.confirmations + 1
    detector.feature_service = BatchFeatureService()
    deployments = [(block.number, tx) for block in blocks for tx in block.transactions]
    probabilities = detector.predict_proba([tx.bytecode for _, tx in deployments])[:, 1]
    threshold = detector.decision_threshold
    counts_ok = alerts_ok = complete_ok = True
    failed = 0
    for window in windows:
        for result in window.passes:
            processed = [
                (number, tx, probability)
                for (number, tx), probability in zip(deployments, probabilities)
                if number < result.next_block
            ]
            expected = {(number, tx.contract_address) for number, tx, p in processed if p >= threshold}
            counted = result.contracts_scanned == len(processed)
            alerted = result.alerts == expected
            complete = not result.finished or result.next_block == confirmed
            counts_ok &= counted
            alerts_ok &= alerted
            complete_ok &= complete
            if not (counted and alerted and complete):
                failed += result.windows
    checks = {
        "check_contracts_scanned": counts_ok,
        "check_alert_set": alerts_ok,
        "check_passes_complete": complete_ok,
    }
    return checks, failed


def _layer_metrics(traced: Window, untraced: Window, recorder: SpanRecorder, phases: dict, clone_share: float) -> dict:
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    steps = by_name.get("step", [])
    passes = by_name.get("model", [])
    features = by_name.get("features", [])
    rpc = by_name.get("rpc", [])
    analysis = by_name.get("analysis", [])
    checkpoints = by_name.get("checkpoint", [])
    children = rpc + by_name.get("score_batch", []) + analysis + checkpoints
    pass_ms = [span.duration * 1000.0 for span in passes]
    return layer_metrics(
        {
            "service.verdict_hit_rate": _hit_rate(traced),
            "service.rows_per_pass": sum(s.attrs["rows"] for s in passes) / len(passes) if passes else 0.0,
            "models.passes": len(passes),
            "models.pass_ms_p50": percentile(pass_ms, 50),
            "models.pass_ms_p99": percentile(pass_ms, 99),
            "models.self_ms_p50": percentile([t * 1000.0 for t in self_times(passes, features)], 50),
            "features.ms_p50": percentile([s.duration * 1000.0 for s in features], 50),
            "features.ms_total": sum(s.duration for s in features) * 1000.0,
            "features.kernel_passes": sum(result.kernel_passes for result in traced.passes),
            "chain.rpc_calls": len(rpc),
            "chain.rpc_ms_total": sum(s.duration for s in rpc) * 1000.0,
            "analysis.calls": len(analysis),
            "analysis.ms_total": sum(s.duration for s in analysis) * 1000.0,
            "monitor.checkpoint_ms_p50": percentile([s.duration * 1000.0 for s in checkpoints], 50),
            "monitor.self_ms_p50": percentile([t * 1000.0 for t in self_times(steps, children)], 50),
            "monitor.alerts": traced.alerts,
            "monitor.contracts": traced.contracts,
            "input.unique_share": 1.0 - clone_share,
            "input.clone_share": clone_share,
            **{f"setup.{name}": value for name, value in phases.items()},
            "process.cpu_s": traced.cpu_s,
            "process.wall_s": traced.wall_s,
            "trace.overhead_throughput_pct": overhead_pct(
                untraced.throughput, traced.throughput, higher_is_better=True
            ),
            "trace.overhead_latency_p50_pct": overhead_pct(
                untraced.latency_ms(50), traced.latency_ms(50), higher_is_better=False
            ),
        }
    )
