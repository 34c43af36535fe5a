"""Shared plumbing for the experiment modules.

Every experiment module exposes ``run(scale="quick", seed=...) ->
ExperimentResult``.  Two scales are supported:

* ``"quick"`` — seconds; used by the test suite and the benchmark
  harness's smoke setting.
* ``"full"`` — minutes; the setting used to produce EXPERIMENTS.md.

Experiments check *shapes*, not constants: a scaling fit's exponent, a
success probability's level, an envelope's violation count.  Thresholds
are deliberately loose — the reproduction target is "who wins, by roughly
what factor, where crossovers fall".
"""

from __future__ import annotations

import zlib

import numpy as np

from ..core.config import Configuration
from ..core.simulator import Observer, RunResult
from ..engine import current_engine

__all__ = [
    "Scale",
    "validate_scale",
    "spawn_rng",
    "spawn_seed",
    "ratio_spread",
    "engine_simulate",
]

Scale = str

_VALID_SCALES = ("quick", "full")


def validate_scale(scale: Scale) -> Scale:
    """Reject unknown scale names early with a clear message."""
    if scale not in _VALID_SCALES:
        raise ValueError(f"scale must be one of {_VALID_SCALES}, got {scale!r}")
    return scale


def spawn_rng(seed: int, label: str) -> np.random.Generator:
    """Deterministic per-label generator derived from the experiment seed.

    Uses a stable label hash (crc32) so reports are reproducible across
    processes — Python's built-in ``hash`` is salted per interpreter.
    """
    label_hash = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, label_hash]))


def spawn_seed(seed: int, index: int) -> int:
    """Deterministic derived integer seed for sub-harnesses."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def engine_simulate(
    config: Configuration,
    *,
    rng: np.random.Generator,
    max_interactions: int | None = None,
    observer: Observer | None = None,
) -> RunResult:
    """Single-run hook: every e01–e19 module simulates through this.

    Dispatches to the **current engine session**
    (:meth:`repro.engine.Engine.simulate`): the scoped session when the
    CLI wraps a ``run``/``report`` invocation in one (``--backend``
    lands in its frozen options), the module-level default session
    (``REPRO_ENGINE_BACKEND``, ``"jump"`` otherwise) elsewhere — so an
    entire experiment suite can be re-run on a different backend without
    editing any experiment module.  Ensemble runs go through
    :func:`repro.analysis.run_trials` / :func:`repro.analysis.sweep`,
    which route through the same session and therefore share its
    persistent executor pool and cache handle.
    """
    return current_engine().simulate(
        config, rng=rng, max_interactions=max_interactions, observer=observer
    )


def ratio_spread(ratios) -> float:
    """Max/min of a positive series — a crude shape-stability measure.

    If measured values track a predicted bound up to a constant, the
    ratios measured/predicted should have small spread across the sweep.
    """
    arr = np.asarray(list(ratios), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one ratio")
    if (arr <= 0).any():
        raise ValueError("ratios must be positive")
    return float(arr.max() / arr.min())
