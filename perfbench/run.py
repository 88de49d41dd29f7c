"""End-to-end and per-layer benchmark of the TaskPoint reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {simulate,grid,serve} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer
metric of a traced run instead.  The lines before it are the human-readable
report: environment, the workload's named figures with sample counts, and
any output that failed its check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import metrics, procs  # noqa: E402

WORKLOADS = ("simulate", "grid", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(line: str) -> None:
    print(line, flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated benchmark still unwinds, so every child process tree it
    # started is killed and reaped by the ``finally`` blocks on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (procs.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {procs.SRC.name}/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    dropped = procs.scrub_environment()
    sys.path.insert(0, str(procs.SRC))
    import numpy

    report(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
           f"trace={args.trace}")
    report(f"  python {platform.python_version()}, numpy {numpy.__version__}, "
           f"nproc {len(os.sched_getaffinity(0))}")
    if dropped:
        report(f"  dropped environment: {' '.join(dropped)}")

    if args.workload == "simulate":
        from benchlib import simulate as workload
    elif args.workload == "grid":
        from benchlib import grid as workload
    else:
        from benchlib import serve as workload
    attempted, failed, values = workload.run(
        args.seed, args.seconds, bool(args.trace), report)

    report(f"  failed_ops_frac {failed / attempted:.4f} ({failed} of {attempted} "
           "operations failed or gave wrong output)")
    rows = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    for name, unit, *_rest in rows:
        report(f"  {name:40s} {values.get(name, 0.0):14.6g} {unit}")
    line = metrics.result_line(failed == 0, attempted, failed, values, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
