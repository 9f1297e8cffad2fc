"""``screen_cold``: a wallet's scanner over HTTP.

This process is the load generator.  It starts the scanner (:mod:`server`)
as a child pinned to another core, builds the request inputs while the child
sets up, and drives ``POST /score/bytecode`` through two closed-loop
keep-alive connections (:mod:`http_client`).

Every timed request carries a bytecode the scanner has never seen
(distinct, and disjoint from the training set), so feature extraction, the
micro-batch timer and a one-row model pass do the work, and no cache helps.

Correctness is checked after the window: every answer is 200 and its
probability equals ``predict_proba`` of an identically seeded detector, and
the workload's premise holds on ``GET /stats`` deltas (verdict hit rate 0
and one kernel pass per request).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from catalog import layer_metrics, overhead_pct
from http_client import Exchange, closed_loop, get_json, post_request
from machine import cpu_times, host_speed, steal_share
from spans import Span, percentile, self_times

HERE = Path(__file__).resolve().parent

#: Keep-alive connections of the closed loop.
CONNECTIONS = 2
#: Distinct cold bytecodes generated per measured second.  The reference
#: machine served 140 to 280 req/s depending on the host's load; when the
#: pool runs out the window ends early (``inputs_exhausted`` in the facts).
COLD_CODES_PER_SECOND = 400
#: Distinct bytecodes sent before a cold window (not timed).
COLD_WARMUP = 64
#: Largest difference accepted between a served and a reference probability.
PROBABILITY_TOLERANCE = 1e-9


class ServerProcess:
    """The scanner child process and its line-based command channel."""

    def __init__(self, trace: int, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--cpu", str(cpu), "--trace", str(trace)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.port = 0
        self.phases: Dict[str, float] = {}

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"scanner process exited (code {self.proc.wait()})")
        return json.loads(line)

    def wait_ready(self) -> None:
        ready = self.read()
        self.port = ready["port"]
        self.phases = ready["phases"]

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> dict:
        """Stop the scanner; returns its final report (peak RSS)."""
        final = self.command("quit")
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        return final

    def kill(self) -> None:
        """Make sure the child is gone (no-op after :meth:`close`)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class Window:
    """One measured window against one scanner process."""

    codes: Sequence[bytes]
    exchanges: List[Exchange]
    duration: float
    stats_before: dict
    stats_after: dict
    dump: dict
    steal: Optional[float] = None
    speed: float = 0.0
    final: dict = field(default_factory=dict)

    def service_delta(self, name: str) -> float:
        return self.stats_after["service"][name] - self.stats_before["service"][name]

    @property
    def hit_rate(self) -> float:
        hits = self.service_delta("verdict_hits")
        lookups = hits + self.service_delta("verdict_misses")
        return hits / lookups if lookups else 0.0

    @property
    def rows_per_pass(self) -> float:
        """Mean distinct rows per model pass, from the cumulative ``/stats``."""
        def rows(stats):
            return stats["service"]["mean_batch_size"] * stats["service"]["batches"]

        batches = self.service_delta("batches")
        return (rows(self.stats_after) - rows(self.stats_before)) / batches if batches else 0.0

    @property
    def completed(self) -> List[Exchange]:
        return [exchange for exchange in self.exchanges if exchange.ok]

    @property
    def throughput(self) -> float:
        """Answered requests per second of the window."""
        return len(self.completed) / self.duration

    @property
    def unique_share(self) -> float:
        if not self.exchanges:
            return 0.0
        return len({exchange.tag for exchange in self.exchanges}) / len(self.exchanges)

    def latencies_ms(self) -> List[float]:
        return [exchange.latency_ms for exchange in self.completed]


def _cores():
    """``(client core, server core)``; ``-1`` each when only one core is usable."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return -1, -1
    return cores[0], cores[-1]


def run(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool, ready) -> dict:
    """Set up, signal ``ready()``, measure; ``None`` when ``setup_only``."""
    client_cpu, server_cpu = _cores()
    if client_cpu >= 0:
        os.sched_setaffinity(0, {client_cpu})
    # The scanner starts first so that its set-up overlaps the client's.
    server = ServerProcess(trace=0, cpu=server_cpu)
    try:
        import inputs

        mark = time.perf_counter()
        windows = 2 if trace else 1
        # A traced run splits its time between an untraced and a traced window.
        window_s = seconds / windows
        training = inputs.build_dataset()
        training_keys = inputs.content_keys(training.bytecodes)
        per_window = COLD_WARMUP + int(math.ceil(COLD_CODES_PER_SECOND * window_s))
        codes = inputs.cold_codes(seed, per_window * windows, training_keys)
        batches = [codes[i * per_window : (i + 1) * per_window] for i in range(windows)]
        mine_s = time.perf_counter() - mark
        server.wait_ready()
        ready()
        if setup_only:
            server.close()
            return None
        setup_phases = dict(server.phases, mine_s=mine_s)
        untraced = _measure(server, batches[0], window_s)
    finally:
        server.kill()
    traced = None
    if trace:
        server = ServerProcess(trace=1, cpu=server_cpu)
        try:
            server.wait_ready()
            traced = _measure(server, batches[1], window_s)
        finally:
            server.kill()

    measured = [window for window in (untraced, traced) if window is not None]
    checks = _check(measured, training)
    attempted = sum(len(window.exchanges) for window in measured)
    latencies = untraced.latencies_ms()
    facts = {
        "connections": CONNECTIONS,
        "client_cpu": client_cpu,
        "server_cpu": server_cpu,
        "requests": len(untraced.exchanges),
        "samples_beyond_p99": int(len(latencies) * 0.01),
        "unique_share": untraced.unique_share,
        "verdict_hit_share": untraced.hit_rate,
        "rows_per_pass": untraced.rows_per_pass,
        "steal_share": untraced.steal,
        "host_speed": untraced.speed,
        "latency_p90_ms": percentile(latencies, 90),
        "latency_p99_ms": percentile(latencies, 99),
        "inputs_exhausted": len(untraced.exchanges) >= len(untraced.codes),
        **checks,
    }
    if trace:
        metrics = _layer_metrics(traced, untraced, setup_phases)
    else:
        metrics = {
            "throughput_per_s": untraced.throughput,
            "latency_p50_ms": percentile(latencies, 50),
            "peak_rss_mb": untraced.final["peak_rss_mb"],
        }
    return {
        "correct": checks["check_answers"] and checks["check_premise"],
        "attempted": attempted,
        "failed": attempted - checks["correct_answers"],
        "metrics": metrics,
        "facts": facts,
    }


def _measure(server: ServerProcess, batch, seconds: float) -> Window:
    """Warm up, then drive one closed-loop window against ``server``."""
    address = ("127.0.0.1", server.port)
    raw = [post_request("/score/bytecode", {"bytecode": "0x" + code.hex()}) for code in batch]
    warm, timed, timed_codes = raw[:COLD_WARMUP], raw[COLD_WARMUP:], batch[COLD_WARMUP:]

    def next_request(i):
        return (i, timed[i]) if i < len(timed) else None

    warm_up = closed_loop(address, lambda i: (i, warm[i]) if i < len(warm) else None, 120.0)
    if len(warm_up) != len(warm) or not all(exchange.ok for exchange in warm_up):
        raise RuntimeError("a warm-up request failed")
    before = get_json(address, "/stats")
    server.command("reset")
    speed = host_speed()
    host = cpu_times()
    opened = time.perf_counter()
    exchanges = closed_loop(address, next_request, seconds, connections=CONNECTIONS)
    duration = time.perf_counter() - opened
    steal = steal_share(host, cpu_times())
    speed = (speed + host_speed()) / 2
    dump = server.command("dump")
    after = get_json(address, "/stats")
    window = Window(timed_codes, exchanges, duration, before, after, dump, steal, speed)
    window.final = server.close()
    return window


def answer_counts(exchanges: Sequence[Exchange], expected: Sequence[float]):
    """``(correct, wrong)`` answers: a 200 whose probability matches ``expected[tag]``.

    Anything else (a non-200 status, a connection error, a timeout) is
    neither, so it counts as failed against the attempts.
    """
    correct = wrong = 0
    for exchange in exchanges:
        if not exchange.ok:
            continue
        probability = json.loads(exchange.body)["probability"]
        if abs(probability - float(expected[exchange.tag])) <= PROBABILITY_TOLERANCE:
            correct += 1
        else:
            wrong += 1
    return correct, wrong


def _check(windows: List[Window], training) -> dict:
    """Answer and premise checks, outside the timed region."""
    import inputs

    detector = inputs.make_detector()
    detector.fit(training.bytecodes, training.labels)
    training_keys = inputs.content_keys(training.bytecodes)
    correct_answers = wrong = 0
    premise = True
    for window in windows:
        # Request i carries codes[i]; only the codes sent need a reference.
        sent = list(window.codes[: len(window.exchanges)])
        correct, incorrect = answer_counts(window.exchanges, detector.predict_proba(sent)[:, 1])
        correct_answers += correct
        wrong += incorrect
        premise &= (
            window.hit_rate == 0.0
            and window.service_delta("kernel_passes") == len(window.exchanges)
            and not training_keys & inputs.content_keys(sent)
        )
    return {
        "correct_answers": correct_answers,
        "wrong_answers": wrong,
        "check_answers": wrong == 0,
        "check_premise": premise,
    }


def _layer_metrics(traced: Window, untraced: Window, setup_phases: dict) -> dict:
    from repro.features.batch import content_key

    spans = [Span(name, start, end, thread, attrs) for name, start, end, thread, attrs in traced.dump["spans"]]
    # Timed requests carry distinct bytecodes, so a content key names one request.
    submits = {s.attrs["key"]: s for s in spans if s.name == "submit"}
    passes = [s for s in spans if s.name == "model"]
    features = [s for s in spans if s.name == "features"]
    pass_start: Dict[str, float] = {}
    for span in passes:
        for key in span.attrs["keys"]:
            pass_start.setdefault(key, span.start)
    gateway_self, waits = [], []
    for exchange in traced.completed:
        key = content_key(traced.codes[exchange.tag]).hex()
        submit = submits.get(key)
        if submit is None:
            continue
        gateway_self.append(exchange.latency_ms - submit.duration * 1000.0)
        started = pass_start.get(key)
        waits.append(0.0 if started is None or started < submit.start else (started - submit.start) * 1000.0)
    pass_ms = [span.duration * 1000.0 for span in passes]
    statuses = [exchange.status for exchange in traced.exchanges]
    return layer_metrics(
        {
            "gateway.self_ms_p50": percentile(gateway_self, 50),
            "gateway.non2xx": sum(1 for status in statuses if status not in (0, 200)),
            "gateway.client_errors": statuses.count(0),
            "service.wait_ms_p50": percentile(waits, 50),
            "service.verdict_hit_rate": traced.hit_rate,
            "service.rows_per_pass": traced.rows_per_pass,
            "models.passes": len(passes),
            "models.pass_ms_p50": percentile(pass_ms, 50),
            "models.pass_ms_p99": percentile(pass_ms, 99),
            "models.self_ms_p50": percentile([t * 1000.0 for t in self_times(passes, features)], 50),
            "features.ms_p50": percentile([s.duration * 1000.0 for s in features], 50),
            "features.ms_total": sum(s.duration for s in features) * 1000.0,
            "features.kernel_passes": traced.service_delta("kernel_passes"),
            "input.unique_share": traced.unique_share,
            **{f"setup.{name}": value for name, value in setup_phases.items()},
            "process.cpu_s": traced.dump["cpu_s"],
            "process.wall_s": traced.duration,
            "trace.overhead_throughput_pct": overhead_pct(
                untraced.throughput, traced.throughput, higher_is_better=True
            ),
            "trace.overhead_latency_p50_pct": overhead_pct(
                percentile(untraced.latencies_ms(), 50),
                percentile(traced.latencies_ms(), 50),
                higher_is_better=False,
            ),
        }
    )
