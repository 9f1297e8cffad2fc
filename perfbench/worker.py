"""One measured run of one workload (started by ``run.py``).

Prints ``READY`` on its standard output as soon as set-up is done (the
end of ``setup_s``), then, unless ``--setup-only``, measures and prints one
``RESULT {json}`` line.  Diagnostics go to standard error.

Usage: ``python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]``
"""

from __future__ import annotations

import argparse
import json
import sys

WORKLOADS = ("screen_cold", "monitor_replay")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "screen_cold":
        import screen as module
    else:
        import monitor_replay as module

    def ready() -> None:
        sys.stdout.write("READY\n")
        sys.stdout.flush()

    result = module.run(args.workload, args.seed, args.seconds, bool(args.trace), args.setup_only, ready)
    if result is not None:
        sys.stdout.write("RESULT " + json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
