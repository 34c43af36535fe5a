"""Shared pieces of the benchmark: paths, environment, inputs, statistics.

Nothing here imports ``repro`` at module level: ``run.py`` must be able
to clean the environment (and time set-up from a fresh interpreter)
before the program is first imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

#: The checkout the benchmark runs in; the program is ``ROOT/src/repro``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch stores (caches, span files) live here and are removed per run.
WORK_ROOT = ROOT / ".perfbench-work"

#: Environment prefixes the program reads; none may leak into a run.
PROGRAM_ENV_PREFIXES = ("REPRO_ENGINE_", "REPRO_SERVICE_", "REPRO_WORKER_")

#: The backend every session and the service run on.
BACKEND = "batched"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def clean_environ(env: dict) -> dict:
    """``env`` without the program's configuration variables."""
    return {
        key: value
        for key, value in env.items()
        if not key.startswith(PROGRAM_ENV_PREFIXES)
    }


def program_env() -> dict:
    """Environment for program subprocesses: clean, source on the path."""
    env = clean_environ(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
#: Streams of the per-run seed sequence (one per input family).
STREAM_CALLS, STREAM_WRITER, STREAM_PREFILL = 1, 2, 3


def seed_stream(seed: int, stream: int, count: int) -> list[int]:
    """``count`` integer seeds drawn from ``(seed, stream)``, repeatably."""
    import numpy as np

    sequence = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream,))
    return [int(v) for v in sequence.generate_state(count, dtype=np.uint32)]


def build_config(start: str, n: int, k: int, beta: int = 0, trials: int = 0):
    """One paper cell's initial configuration (``trials`` is a label)."""
    from repro.workloads import additive_bias_configuration, uniform_configuration

    if start == "uniform":
        return uniform_configuration(n, k)
    return additive_bias_configuration(n, k, beta)


def digest(results) -> str:
    """Content digest of one result list (every field of every replicate)."""
    from repro.service import results_to_jsonable

    return digest_jsonable(results_to_jsonable(results))


def digest_jsonable(payload) -> str:
    """Content digest of an already JSON-able value."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Host and process diagnostics
# ----------------------------------------------------------------------
def calib_ms() -> float:
    """Wall time of a fixed pure-Python loop (host drift diagnostic).

    Never used to adjust a metric: it only lets a reader tell a slower
    host from a slower program.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return (time.perf_counter() - started) * 1e3


def stop_helpers() -> None:
    """Stop and reap the helper processes ``multiprocessing`` started.

    The process executor's shared-memory transport starts the resource
    tracker, a child that otherwise outlives this interpreter by a
    moment (it exits on the end-of-file of its pipe, after its parent
    is gone).  Stopping it here makes every exit leave no process
    behind.  A no-op when no helper was started.
    """
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    stop = getattr(forkserver._forkserver, "_stop", None)
    if stop is not None:
        stop()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than eleven
    samples no such percentile exists and the maximum is reported with
    percentile 100.
    """
    count = len(values)
    if count <= 10:
        return max(values), 100.0, count
    fraction = (count - 10) / count
    pct = math.floor(fraction * 1000) / 10.0
    return percentile(values, pct / 100.0), pct, count


def note(record: dict, kind: str, started: float) -> None:
    """Record one request of ``kind`` that began at ``started``."""
    ended = time.monotonic()
    record[kind].append(ended - started)
    record["intervals"].append((started, ended))


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Scratch directories
# ----------------------------------------------------------------------
class WorkDir:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, name: str) -> Path:
        """A new, empty subdirectory (never reused within the run)."""
        self._count += 1
        path = self.path / f"{self._count:02d}-{name}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def emit(payload: dict) -> None:
    """Print one JSON line to standard output."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
