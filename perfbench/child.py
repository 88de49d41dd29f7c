"""Helper process of the benchmark (not a user entry point).

Modes::

    python perfbench/child.py import-cli
        print the seconds a fresh interpreter takes to ``import repro.cli``
    python perfbench/child.py setup-simulate
        print the seconds of the ``simulate`` workload's set-up
        (import, trace generation, engine construction)
    python perfbench/child.py trace OUT.json ARGS...
        run ``repro ARGS...`` (for example ``grid ...`` or ``serve ...``)
        with the benchmark's span wrappers installed, then write the span
        aggregates and the trace-memo counters to OUT.json

The parent puts ``src/`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
import time


def main(argv) -> int:
    mode = argv[0]
    if mode == "import-cli":
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    if mode == "setup-simulate":
        start = time.perf_counter()
        from benchlib import simulate

        simulate.setup()
        print(time.perf_counter() - start)
        return 0
    if mode == "trace":
        return _traced_cli(argv[1], argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


def _traced_cli(out_path: str, cli_args) -> int:
    import json

    from benchlib.tracing import Tracer, install_child_hooks

    tracer = Tracer()
    with tracer.span("import.cli"):
        import repro.cli
    install_child_hooks(tracer)
    code = 1
    try:
        code = repro.cli.main(cli_args)
    finally:
        from repro.exp.runner import trace_memo_stats

        snapshot = tracer.snapshot()
        memo = trace_memo_stats()
        snapshot["counters"]["memo.hits"] = memo["hits"]
        snapshot["counters"]["memo.misses"] = memo["misses"]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
