"""Sweeps as first-class engine workloads: cross-cell scheduling + caching.

A parameter sweep used to be a Python loop over grid cells, each cell an
independent :func:`~repro.engine.run_ensemble` call.  That shape has two
costs at scale: on the multiprocessing executor every cell is its own
barrier (a 50-cell sweep waits for the slowest replicate of every cell
50 times), and nothing above the single ensemble is cacheable, so a
re-run recomputes the whole grid the moment one parameter changes.

This module makes the sweep itself the schedulable unit:

* a :class:`SweepCell` freezes one grid cell — a
  :class:`~repro.engine.scenarios.ScenarioSpec` plus that cell's trial
  count and budget — and a :class:`SweepSpec` freezes the whole grid
  into a content-addressable value (``key()``, like ``ScenarioSpec``);
* :func:`run_sweep` flattens every cell's replicates into a **single
  work queue** scheduled across the serial and multiprocessing
  executors.  There is no per-cell barrier: chunks from different cells
  run concurrently, so one slow cell cannot idle the pool.  Replicate
  ``i`` of cell ``c`` still receives exactly the seed it would get from
  the cell-by-cell path, so results are bit-identical to the legacy
  loop at fixed seeds and invariant across executors and worker counts;
* caching happens at **sweep granularity** on top of
  :mod:`repro.engine.cache`: each cell is stored as its own ensemble
  entry and the sweep writes a sweep-level index over those entries.  A
  repeated sweep is served entirely from disk, and an interrupted or
  edited sweep resumes — only missing or changed cells are recomputed.

Seed derivation
---------------
Cell seeds are the children of ``SeedSequence(seed)``, one per cell, in
grid order.  The historical sweep harness collapsed each child into a
single 32-bit integer (``generate_state(1)[0]``) before spawning
replicate seeds from it — an entropy loss that makes distinct cells
collision-prone.  ``run_sweep`` therefore passes the spawned
``SeedSequence`` children through to the replicate level by default
(``seed_derivation="spawn"``); the legacy collapse stays available as
``seed_derivation="legacy"`` (via :func:`legacy_cell_seed`) so
fixed-seed tests can pin the historical streams where bit-identity with
pre-sweep results is asserted.  Explicit ``cell_seeds`` override both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .backends import Backend
from .cache import SWEEP_INDEX_FORMAT, EnsembleCache
from .executors import DEFAULT_BATCH_SIZE
from .scenarios import ScenarioSpec, _freeze, _jsonable, coerce_spec

__all__ = [
    "SweepCell",
    "SweepSpec",
    "SweepCellRun",
    "SweepRun",
    "run_sweep",
    "derive_cell_seeds",
    "legacy_cell_seed",
    "SEED_DERIVATIONS",
]

#: Accepted values for ``run_sweep``'s ``seed_derivation`` parameter.
SEED_DERIVATIONS = ("spawn", "legacy")


def legacy_cell_seed(child: np.random.SeedSequence) -> int:
    """Compat shim: the historical per-cell seed derivation.

    The pre-sweep harness collapsed each cell's spawned ``SeedSequence``
    child into one 32-bit integer before re-expanding it into replicate
    seeds.  Fixed-seed tests that assert bit-identity with results
    produced by that path pin it via ``seed_derivation="legacy"``, which
    routes through this function; new code should let the children flow
    through unharmed (``"spawn"``, the default).
    """
    return int(child.generate_state(1)[0])


@dataclass(frozen=True)
class SweepCell:
    """One frozen grid cell: workload spec + trial count + budget.

    ``label`` carries the grid point's parameter assignment (for series
    extraction and display); it is part of the cell's identity, so two
    sweeps over the same specs with different labels index differently
    while still sharing the underlying per-cell ensemble cache entries
    (those key on the spec, not the label).
    """

    spec: ScenarioSpec
    trials: int
    max_interactions: int | None = None
    label: tuple = field(default=())

    def __post_init__(self) -> None:
        if not isinstance(self.spec, ScenarioSpec):
            raise TypeError(
                f"cell spec must be a ScenarioSpec, got {type(self.spec).__name__}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        object.__setattr__(self, "trials", int(self.trials))
        if self.max_interactions is not None:
            object.__setattr__(self, "max_interactions", int(self.max_interactions))
        object.__setattr__(self, "label", _freeze(dict(self.label)))

    def label_dict(self) -> dict:
        """The grid point's parameters as a plain dictionary."""
        return dict(self.label)


@dataclass(frozen=True)
class SweepSpec:
    """A frozen, content-addressable grid of sweep cells.

    Like :class:`ScenarioSpec`, a ``SweepSpec`` is immutable, hashable
    and picklable, and ``key()`` content-hashes every field of every
    cell — the sweep-level cache index is keyed on it, so editing any
    cell (spec, trials, budget or label) re-indexes the sweep while
    untouched cells keep hitting their existing ensemble entries.
    """

    cells: tuple[SweepCell, ...]

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("sweep grid must be non-empty")
        for cell in cells:
            if not isinstance(cell, SweepCell):
                raise TypeError(
                    f"cells must be SweepCell instances, got {type(cell).__name__}"
                )
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_grid(
        cls,
        grid: Sequence[dict] | Iterable[dict],
        build_config: Callable[..., Any],
        *,
        trials: int | Callable[[dict], int],
        max_interactions: Callable[[dict], int] | int | None = None,
    ) -> "SweepSpec":
        """Build a spec from a parameter grid and a workload builder.

        ``build_config`` receives each grid point's parameters and
        returns either a plain :class:`~repro.core.config.Configuration`
        (the ``"usd"`` scenario) or a :class:`ScenarioSpec`.  ``trials``
        and ``max_interactions`` may be constants or callables mapping
        the grid point to a per-cell value.
        """
        if not callable(trials) and trials < 1:
            raise ValueError(f"trials must be positive, got {trials}")
        grid = list(grid)
        if not grid:
            raise ValueError("sweep grid must be non-empty")
        cells = []
        for params in grid:
            spec = coerce_spec(build_config(**params))
            budget = max_interactions(params) if callable(max_interactions) else max_interactions
            cell_trials = trials(params) if callable(trials) else trials
            cells.append(
                SweepCell(
                    spec=spec,
                    trials=cell_trials,
                    max_interactions=budget,
                    label=tuple(params.items()),
                )
            )
        return cls(cells=tuple(cells))

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def total_trials(self) -> int:
        """Total replicates across all cells."""
        return sum(cell.trials for cell in self.cells)

    def key(self) -> str:
        """Stable content hash over every field of every cell.

        Two sweep specs have equal keys exactly when they describe the
        same ordered grid of workloads, trial counts, budgets and
        labels; the sweep-level cache index combines this with the cell
        seeds and the resolved variants.
        """
        import hashlib
        import json

        payload = {
            "format": SWEEP_INDEX_FORMAT,
            "cells": [
                {
                    "spec": cell.spec.key(),
                    "trials": cell.trials,
                    "max_interactions": cell.max_interactions,
                    "label": _jsonable(cell.label),
                }
                for cell in self.cells
            ],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return f"SweepSpec({len(self.cells)} cells, {self.total_trials} trials)"


@dataclass
class SweepCellRun:
    """One executed cell: its definition, seed, results and cache status."""

    cell: SweepCell
    index: int
    seed: int | np.random.SeedSequence
    variant: str
    results: list
    cached: bool

    @property
    def params(self) -> dict:
        """The cell's grid-point parameters (label)."""
        return self.cell.label_dict()

    def __repr__(self) -> str:
        origin = "cache" if self.cached else "simulated"
        return (
            f"SweepCellRun(#{self.index}, {self.cell.spec.scenario!r}, "
            f"trials={self.cell.trials}, {origin})"
        )


@dataclass
class SweepRun:
    """Ordered outcome of :func:`run_sweep` over one :class:`SweepSpec`."""

    spec: SweepSpec
    cells: list[SweepCellRun]
    sweep_key: str | None = None

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def cached_cells(self) -> int:
        """Cells served from the ensemble cache without simulating."""
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def simulated_cells(self) -> int:
        """Cells whose replicates actually ran this invocation."""
        return len(self.cells) - self.cached_cells

    @property
    def simulated_trials(self) -> int:
        """Replicates simulated this invocation (0 on a full cache hit)."""
        return sum(c.cell.trials for c in self.cells if not c.cached)


def derive_cell_seeds(
    num_cells: int,
    seed: int | None,
    cell_seeds=None,
    seed_derivation: str = "spawn",
) -> list:
    """Per-cell seeds exactly as :func:`run_sweep` would derive them.

    Public so out-of-band consumers — the CLI's ``sweep --resume``
    preflight, external tooling recomputing a sweep's cache index — can
    reproduce the engine's seed derivation without running anything:
    explicit ``cell_seeds`` pass through (length-checked), otherwise the
    cells receive the children of ``SeedSequence(seed)`` in grid order,
    collapsed to 32-bit integers under ``seed_derivation="legacy"``.
    """
    if cell_seeds is not None:
        seeds = list(cell_seeds)
        if len(seeds) != num_cells:
            raise ValueError(
                f"cell_seeds must have one entry per cell: "
                f"got {len(seeds)} for {num_cells} cells"
            )
        return seeds
    if seed is None:
        raise ValueError("run_sweep needs seed= (or explicit cell_seeds=)")
    if seed_derivation not in SEED_DERIVATIONS:
        raise ValueError(
            f"seed_derivation must be one of {SEED_DERIVATIONS}, "
            f"got {seed_derivation!r}"
        )
    children = np.random.SeedSequence(seed).spawn(num_cells)
    if seed_derivation == "legacy":
        return [legacy_cell_seed(child) for child in children]
    return children


#: Backward-compatible alias (the derivation predates the public name).
_derive_cell_seeds = derive_cell_seeds


def run_sweep(
    spec: SweepSpec,
    *,
    seed: int | None = None,
    cell_seeds: Sequence[int | np.random.SeedSequence] | None = None,
    seed_derivation: str = "spawn",
    backend: str | Backend | None = None,
    executor: str | None = None,
    jobs: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cache: bool | EnsembleCache | None = None,
) -> SweepRun:
    """Run every cell of a sweep through one flattened work queue.

    This is the historical free-function entry point; it now delegates
    to the module-level default session
    (:meth:`repro.engine.Engine.sweep`), so repeated sweeps in one
    process reuse the session's persistent executor pool and cache
    handle.  Results are bit-identical to the pre-session scheduler at
    fixed seeds.

    Parameters
    ----------
    spec:
        The frozen grid (:meth:`SweepSpec.from_grid` or explicit cells).
    seed:
        Sweep seed; cell ``c`` derives its seed from the ``c``-th child
        of ``SeedSequence(seed)`` according to ``seed_derivation``.
    cell_seeds:
        Explicit per-cell seeds (ints or ``SeedSequence``), overriding
        ``seed``/``seed_derivation`` — the hook experiments use to keep
        historical per-cell streams while adopting sweep scheduling.
    seed_derivation:
        ``"spawn"`` (default) passes each cell's spawned ``SeedSequence``
        child through to the replicate level; ``"legacy"`` collapses it
        to one 32-bit integer first (the historical, collision-prone
        derivation — kept for bit-identity with pre-sweep results).
    backend, executor, jobs, batch_size, cache:
        As for :func:`~repro.engine.run_ensemble`.  The executor runs
        the *whole sweep* as one pool of replicate chunks — no per-cell
        barrier — and ``cache`` stores each cell as its own ensemble
        entry under a sweep-level index, so identical sweeps replay from
        disk and edited sweeps recompute only missing/changed cells.

    Returns
    -------
    SweepRun
        Per-cell results in grid order, each bit-identical to what a
        standalone ``run_ensemble(cell.spec, cell.trials, seed=...)``
        with the same cell seed would produce.
    """
    from .session import current_engine

    return current_engine().sweep(
        spec,
        seed=seed,
        cell_seeds=cell_seeds,
        seed_derivation=seed_derivation,
        backend=backend,
        executor=executor,
        jobs=jobs,
        batch_size=batch_size,
        cache=cache,
    )
