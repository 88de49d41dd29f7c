"""Record the expected outputs the benchmark checks into ``expected.json``.

Run from the repository root, only when results are meant to change::

    python3 perfbench/record.py

It simulates every ``simulate`` run, every ``grid`` trace seed and every
``serve`` pool job serially and stores their digests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import expected, procs  # noqa: E402


def main() -> int:
    procs.scrub_environment()
    sys.path.insert(0, str(procs.SRC))
    from benchlib import grid, serve, simulate

    work = procs.make_workdir()
    try:
        data = {
            "simulate": simulate.record_expected(),
            "grid": grid.record_expected(work),
            "serve": serve.record_expected(work),
        }
    finally:
        procs.remove_workdir(work)
    with open(expected.PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {expected.PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
