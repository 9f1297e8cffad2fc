"""PhishingHook benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload screen_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1`` (see
``perfbench/README.md``).  The line before it holds the run's facts: the
machine, the source revision and the measured input properties.

Each run starts fresh worker processes (``worker.py``).  ``setup_s`` is the
time from starting a worker until it reports ready, through a pipe, that the
first timed operation can be sent; an untraced run sets up three times and
reports the median, measuring only after the last set-up.  The program is
imported from ``src/``; without it the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from catalog import end_to_end_metrics
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock budget of one run; a worker still running then is killed.
RUN_BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start one worker; returns it with its set-up time (start to ``READY``)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.daemon = True
    watchdog.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - started
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise WorkerError(f"worker failed during set-up (exit code {proc.returncode})")
    return proc, watchdog, setup_s


def finish_worker(proc, watchdog) -> dict:
    """Wait for a worker and return its ``RESULT`` (``{}`` for a set-up-only one)."""
    result = {}
    for line in proc.stdout:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    code = proc.wait()
    watchdog.cancel()
    if code != 0:
        raise WorkerError(f"worker exited with code {code}")
    return result


def source_revision() -> dict:
    """The git commit when there is one, and a digest of the sources always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def machine_facts() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        for _ in range(SETUP_REPEATS - 1 if args.trace == 0 else 0):
            proc, watchdog, setup_s = start_worker(args, setup_only=True, deadline=deadline)
            finish_worker(proc, watchdog)
            setups.append(setup_s)
        proc, watchdog, setup_s = start_worker(args, setup_only=False, deadline=deadline)
        setups.append(setup_s)
        result = finish_worker(proc, watchdog)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not result:
        print("perfbench: the worker printed no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace == 0:
        metrics = end_to_end_metrics(dict(metrics, setup_s=statistics.median(setups)))
    facts = dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_runs_s=setups,
        **machine_facts(),
        **source_revision(),
        **result["facts"],
    )
    print(json.dumps({"facts": facts}))
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
