"""Expected outputs, recorded once from a known-good commit.

``perfbench/expected.json`` holds, per workload, the digest of every
output the benchmark checks.  A change that alters any simulated number
makes the benchmark report failed operations; if the change is meant to
alter results, re-record with ``python perfbench/record.py`` and say so.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict

from benchlib.procs import BENCH_DIR

PATH = BENCH_DIR / "expected.json"


@lru_cache(maxsize=1)
def load() -> Dict[str, object]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)
