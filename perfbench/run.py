#!/usr/bin/env python3
"""Synthesis speed-and-quality benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper-resynth --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``paper-resynth``, ``assay-batch``, ``service-mix``,
``fault-campaign`` (see README.md).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run plus
the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run
record, and with ``--trace 1`` the span files, go to ``perfbench/out/``.

The process re-executes itself once so that it, and the service worker
it forks, run under a ``PYTHONHASHSEED`` derived from ``--seed``; only
the F1 canary's two children use fixed hash seeds (see README.md).
"""

from __future__ import annotations

import time

# Taken before any other import: setup_s starts at process start.
_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("paper-resynth", "assay-batch", "service-mix", "fault-campaign")


def hash_seed(seed: int) -> int:
    """The ``PYTHONHASHSEED`` derived from a workload seed."""
    return (seed * 2654435761 + 12345) % 4294967296


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reexec_under_hash_seed(args) -> float:
    """Re-run this script under the derived hash seed; returns the
    monotonic time the first process started."""
    wanted = str(hash_seed(args.seed))
    if os.environ.get("PYTHONHASHSEED") == wanted and "PERFBENCH_T0" in os.environ:
        return float(os.environ["PERFBENCH_T0"])
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = wanted
    env["PERFBENCH_T0"] = repr(_STARTED)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                               *sys.argv[1:]], env)


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    started = reexec_under_hash_seed(args)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness  # noqa: E402  (imports repro)

    run = harness.Run(args, started, hash_seed(args.seed))
    if args.workload == "paper-resynth":
        from synthesis import paper_resynth as workload
    elif args.workload == "assay-batch":
        from synthesis import assay_batch as workload
    elif args.workload == "service-mix":
        from service_mix import service_mix as workload
    else:
        from fault_campaign import fault_campaign as workload
    workload(run)
    summary = run.finish()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
