"""Paths, the scrubbed environment and child-process handling.

Every process the benchmark starts runs in its own session, so a timeout
or an error tears down the whole tree (a daemon and its workers) with one
``killpg``; every process is waited for before the benchmark exits.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
#: Scratch space for stores and traced-child output; removed after each run.
WORK_ROOT = ROOT / ".perfbench_work"

ENV_PREFIX = "REPRO_"


def scrub_environment() -> List[str]:
    """Drop every ``REPRO_*`` variable from this process (and so its children).

    ``REPRO_PROFILE`` turns on tag-store profiling inside the engine,
    ``REPRO_EXP_TRACE_MEMO=0`` disables the trace memo and
    ``REPRO_CACHE_DIR`` would warm a "cold" grid.
    """
    dropped = sorted(name for name in os.environ if name.startswith(ENV_PREFIX))
    for name in dropped:
        del os.environ[name]
    return dropped


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def make_workdir() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run still uses it, or it holds leftovers


def spawn(args: List[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(args, env=child_env(), cwd=str(ROOT),
                            start_new_session=True, **kwargs)


def kill_tree(proc: subprocess.Popen) -> None:
    """Terminate ``proc``'s whole session and wait for ``proc``."""
    if proc.poll() is None:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=5)
                break
            except subprocess.TimeoutExpired:
                continue
    proc.wait()
    # Workers left behind by a crashed parent share its process group.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(args: List[str], timeout: float) -> Tuple[int, str, float]:
    """Run to completion; returns ``(returncode, stdout, wall seconds)``."""
    start = time.perf_counter()
    proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        raise RuntimeError(f"timed out after {timeout}s: {' '.join(args)}")
    finally:
        kill_tree(proc)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
    return proc.returncode, out, wall


def python_child(*args: str) -> List[str]:
    """Argument vector of ``python perfbench/child.py ARGS``."""
    return [sys.executable, str(CHILD), *args]


def probe(mode: str, samples: int,
          timeout: float = 120.0) -> Tuple[List[float], List[float]]:
    """Seconds printed by ``child.py MODE`` in ``samples`` fresh interpreters,
    raw and scaled by calibrations taken just before and after each."""
    from benchlib import calibrate

    raw, scaled = [], []
    for _ in range(samples):
        before = calibrate.now()
        code, out, _wall = run_child(python_child(mode), timeout)
        kernel_s = (before + calibrate.now()) / 2
        if code != 0:
            raise RuntimeError(f"setup probe {mode!r} failed")
        raw.append(float(out.strip().splitlines()[-1]))
        scaled.append(calibrate.scaled(raw[-1], kernel_s))
    return raw, scaled


def pin_to_one_cpu() -> int:
    """Keep this process and its future children on one CPU.

    The calibration kernel only tracks the host's speed for work that runs
    on the CPU it ran on: the two vCPUs of a shared host are slowed by
    different neighbours.  Single-threaded workloads lose nothing by it.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def children_peak_rss_mb() -> float:
    """Largest resident set of any waited-for descendant, in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
