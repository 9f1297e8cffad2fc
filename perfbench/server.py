"""The scanner under test: one ``Gateway`` in its own process.

Started by :mod:`screen` as a child process.  It pins itself to the core it
is given, builds the served detector, starts the gateway, and signals
readiness by writing one JSON line (the port and its set-up phases) to its
standard output.  It then obeys commands, one per line on its standard
input, answering each with one JSON line:

``reset``  start a measured window: drop recorded spans, snapshot CPU time.
``dump``   the window's spans (traced runs) and CPU time since ``reset``.
``quit``   drain the gateway and report peak RSS; end of input does the same.

Usage: ``python3 perfbench/server.py --cpu N --trace 0|1``
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from machine import cpu_seconds, peak_rss_mb

START = time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.cpu >= 0:
        os.sched_setaffinity(0, {args.cpu})

    from repro.serving import BackgroundGateway, Gateway, GatewayConfig, ScoringService

    import inputs
    from layers import TimedDetector, TimedFeatureService, TimedScoringService
    from spans import SpanRecorder

    phases = {"import_s": time.perf_counter() - START}
    mark = time.perf_counter()
    dataset = inputs.build_dataset()
    phases["corpus_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    recorder = SpanRecorder()
    detector = inputs.make_detector()
    if args.trace:
        detector.feature_service = TimedFeatureService(recorder)
    detector.fit(dataset.bytecodes, dataset.labels)
    phases["fit_s"] = time.perf_counter() - mark

    mark = time.perf_counter()
    if args.trace:
        service = TimedScoringService(TimedDetector(detector, recorder), recorder=recorder)
    else:
        service = ScoringService(detector)
    gateway = Gateway(service, config=GatewayConfig())
    with service, BackgroundGateway(gateway) as running:
        phases["ready_s"] = time.perf_counter() - mark
        reply({"port": running.port, "phases": phases})
        window_cpu = cpu_seconds()
        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                recorder.reset()
                window_cpu = cpu_seconds()
                reply({"ok": True})
            elif command == "dump":
                reply(
                    {
                        "cpu_s": cpu_seconds() - window_cpu,
                        "spans": [
                            [s.name, s.start, s.end, s.thread, _plain(s.attrs)]
                            for s in recorder.spans
                        ],
                    }
                )
            elif command == "quit":
                break
    reply({"peak_rss_mb": peak_rss_mb()})
    return 0


def _plain(attrs: dict) -> dict:
    """Span attributes as JSON (content keys as hex)."""
    plain = dict(attrs)
    if "key" in plain:
        plain["key"] = plain["key"].hex()
    if "keys" in plain:
        plain["keys"] = [key.hex() for key in plain["keys"]]
    return plain


def reply(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
