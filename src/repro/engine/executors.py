"""Executor layer: work units, the one unit runner, and result transports.

The orchestration — variant resolution, caching, executor dispatch —
lives on :class:`repro.engine.session.Engine`, which runs an ensemble
as a one-cell sweep through the same pipeline as every sweep; this
module keeps the pieces that pipeline composes:

* :func:`replicate_seeds` — the canonical per-replicate seed derivation
  of the whole repository;
* :func:`plan_units` and :class:`WorkUnit` — the one place pending
  cells (a sweep's, or an ensemble's single cell) are grouped and cut
  into kernel calls (packed lockstep units or per-cell chunks) for
  every executor, and a finished unit's seconds are split per cell;
* :func:`run_unit` — the one kernel call: the serial driver and the
  socket worker (local or remote) build a unit's generators and time
  :meth:`~repro.engine.scenarios.Scenario.run_chunk` here;
* :func:`encode_parts` — the socket worker's per-segment encoder: each
  cell segment as a fixed-width record block
  (:func:`~repro.engine.codec.encode_result_block` bytes), so only
  cells whose scenario has a record codec for the variant leave this
  process;
* :class:`UnitResult` — what every executor driver returns per unit,
  in unit order: per-segment results, kernel seconds, and the remote
  worker that ran it or served it from its store;
* :func:`run_ensemble` — the historical free-function entry point, now a
  thin wrapper over the module-level default session
  (:func:`repro.engine.session.current_engine`).  Results are
  bit-identical to the pre-session engine at fixed seeds.

Determinism
-----------
Replicate ``i`` always receives the ``i``-th child of
``SeedSequence(seed)`` (see :func:`replicate_seeds`).  Scenario
implementations are required to be batch-width invariant, so the
per-replicate results are bit-identical no matter the executor, the
worker count, the batch size or the result format — and any single
replicate can be reproduced in isolation by seeding a generator with its
child sequence.  That invariance is exactly what makes the ensemble
cache (and cross-session result reuse) sound.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.config import Configuration
from ..core.simulator import RunResult
from .backends import Backend
from .cache import EnsembleCache
from .codec import cell_codec, encode_result_block
from .options import EXECUTORS
from .scenarios import PackedChunk, Scenario, ScenarioSpec

__all__ = ["run_ensemble", "replicate_seeds", "DEFAULT_BATCH_SIZE", "EXECUTORS"]

#: Largest number of replicates a batch-capable variant advances per call.
DEFAULT_BATCH_SIZE = 1024


def replicate_seeds(
    seed: int | np.random.SeedSequence, trials: int
) -> list[np.random.SeedSequence]:
    """The canonical per-replicate seed derivation of the whole repo.

    Replicate ``i`` of an ensemble keyed by ``seed`` is always driven by
    ``np.random.default_rng(replicate_seeds(seed, trials)[i])``,
    regardless of scenario, variant, executor or batch width.

    ``seed`` may itself be a ``SeedSequence`` (e.g. a child spawned by
    the sweep scheduler): its entropy and spawn key are re-expanded from
    scratch, so the derivation is a pure function of the sequence's
    identity — never of how many children the caller's instance happens
    to have spawned already — and no entropy is collapsed into a single
    32-bit state on the way down.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if isinstance(seed, np.random.SeedSequence):
        base = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
        return base.spawn(trials)
    return np.random.SeedSequence(seed).spawn(trials)


def run_unit(scenario, runner, work, budget, seeds) -> tuple[list, float]:
    """The one kernel call of a unit: ``(flat results, kernel seconds)``.

    Every executor runs its units through here: the serial driver and
    the socket worker.  ``work`` is a spec or a :class:`PackedChunk`,
    ``runner`` what :meth:`Scenario.run_chunk` takes.  The timing wraps
    only ``run_chunk`` (not decoding, spec resolution or encoding), so
    the sweep scheduler's cost model learns kernel cost, not transport
    overhead; it never influences results.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    started = time.perf_counter()
    results = scenario.run_chunk(work, runner, rngs, budget)
    return results, time.perf_counter() - started


def encode_parts(scenario, variant: str, work, results: list) -> list[bytes]:
    """A unit's flat results as one record block per segment of ``work``.

    Each block is :func:`~repro.engine.codec.encode_result_block`
    bytes, widths from the cell by :func:`~repro.engine.codec.cell_codec`;
    the executor refuses a cell without a record codec before it sends
    anything.
    """
    segments = (
        work.segments
        if isinstance(work, PackedChunk)
        else ((work, len(results), None),)
    )
    sizes = [size for _, size, _ in segments]
    return [
        encode_result_block(
            scenario, spec, part, *cell_codec(spec, variant)[1]
        )
        for (spec, _, _), part in zip(segments, _cut(results, sizes))
    ]


def _chunked(seeds: list, batch_size: int) -> list[list]:
    return [seeds[i : i + batch_size] for i in range(0, len(seeds), batch_size)]


def _cut(flat, sizes) -> list:
    """Consecutive slices of ``flat`` (a list or bytes) of ``sizes``."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    return [flat[start:stop] for start, stop in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# Work units: the one plan every executor drains
# ----------------------------------------------------------------------
class Segment(NamedTuple):
    """Consecutive replicates of one cell inside a :class:`WorkUnit`."""

    cell: int
    spec: ScenarioSpec
    max_interactions: int | None
    seeds: list


@dataclass(frozen=True)
class WorkUnit:
    """One kernel call: a run of replicates from one or more cells.

    A packed unit's segments run as ONE :class:`PackedChunk` lockstep
    call; any other unit holds exactly one segment.  ``runner`` is what
    :meth:`Scenario.run_chunk` takes in this process, ``variant`` the
    name a socket worker re-resolves.
    """

    scenario: Scenario
    runner: object
    variant: str
    segments: tuple[Segment, ...]
    packed: bool

    @property
    def seeds(self) -> list:
        return [s for segment in self.segments for s in segment.seeds]

    def work(self) -> tuple[ScenarioSpec | PackedChunk, int | None]:
        """The ``(spec, max_interactions)`` pair :meth:`run_chunk` takes."""
        if self.packed:
            packed = PackedChunk(
                tuple(
                    (s.spec, len(s.seeds), s.max_interactions)
                    for s in self.segments
                )
            )
            return packed, None
        (segment,) = self.segments
        return segment.spec, segment.max_interactions

    def split(self, results: list) -> list[list]:
        """Cut a unit's flat result list back into per-segment parts."""
        return _cut(results, [len(segment.seeds) for segment in self.segments])

    def cell_stats(self, parts: list[list], seconds: float) -> list[dict]:
        """Per-segment timing records of a finished unit.

        A packed unit's wall time is split across its cells in
        proportion to their interactions, so the scheduler report and
        the cost model stay per cell.
        """
        weights = [1] * len(parts)
        if self.packed:
            weights = [sum(r.interactions for r in part) for part in parts]
            if not sum(weights):
                weights = [len(segment.seeds) for segment in self.segments]
        return [
            {
                "cell": segment.cell,
                "replicates": len(segment.seeds),
                "seconds": seconds * weight / sum(weights),
            }
            for segment, weight in zip(self.segments, weights)
        ]


class UnitResult(NamedTuple):
    """What every executor driver returns for one unit, in unit order.

    ``parts`` holds one result list per segment, ``seconds`` the unit's
    kernel time, ``worker`` the remote worker that ran it (``None`` in
    this process and on the local workers of the process executor) and
    ``served`` whether that worker answered it from its own store
    instead of simulating.
    """

    parts: list[list]
    seconds: float
    worker: str | None = None
    served: bool = False


def plan_units(
    cells, pending, scenarios, variants, seeds, backend, *,
    jobs: int, batch_size: int,
    chunk_caps: dict[int, int] | None = None,
    predicted: dict[int, float] | None = None,
) -> list[WorkUnit]:
    """Cut pending cells into the units their executor runs.

    Cells one lockstep kernel can run together (every ``usd``, or every
    ``zealots``, cell whose runner :meth:`Scenario.packs`) form one
    group of packed units, each at most ``batch_size`` wide
    (:func:`_lockstep_bins`):

    * at least ``jobs`` cells: no cell is split.  The cells are
      bin-packed into ``jobs`` units, longest ``predicted`` first, each
      onto the unit with the least predicted seconds so far
      (:func:`_whole_cells`) — unless that would make a unit wider than
      both the equal share below and :data:`_FREE_WIDTH` columns;
    * otherwise the queue is cut into ``jobs`` equal widths,
      ``ceil(len(queue) / jobs)`` columns each.

    Serial (``jobs == 1``) is the first case with one unit: the
    group's replicate queue, in ``pending`` order, in ``batch_size``
    chunks.

    Whole cells win because a lockstep call runs as many passes as its
    slowest column and, up to about :data:`_FREE_WIDTH` columns, costs
    about the same at any width; past it, width costs time, so a wide
    cell is split rather than left alone in a wide unit.  DESIGN.md
    item 5 has the measurements; the balancing of more cells than
    workers, by ``predicted`` seconds blind to k and to the start, is
    unverified there.

    Every other cell is a group of its own, cut into ``chunk_caps[i]``
    replicates per unit (``batch_size`` when no cap is given).  With
    ``predicted`` (seconds per cell) groups come longest-first, so a
    slow group does not start last; the sort is stable.

    Units only move wall time: each replicate still draws from its own
    seed, derived per cell before any cutting.
    """
    groups: dict[str | int, list[int]] = {}
    runners = {}
    for i in pending:
        runners[i] = scenarios[i].prepare_runner(variants[i], backend)
        packs = scenarios[i].packs(runners[i])
        groups.setdefault(scenarios[i].name if packs else i, []).append(i)
    # A packed group is keyed by its scenario's name, any other by its
    # cell index.
    ordered = list(groups.items())
    if predicted is not None:
        ordered.sort(key=lambda item: -sum(predicted[i] for i in item[1]))
    units: list[WorkUnit] = []
    for key, group in ordered:
        first = group[0]
        scenario, runner, variant = scenarios[first], runners[first], variants[first]
        if isinstance(key, str):
            bins, width = _lockstep_bins(group, cells, jobs, batch_size, predicted)
            for members in bins:
                queue = [
                    (i, s)
                    for i in members
                    for s in replicate_seeds(seeds[i], cells[i].trials)
                ]
                for chunk in _chunked(queue, width):
                    segments = tuple(
                        Segment(
                            i,
                            cells[i].spec,
                            cells[i].max_interactions,
                            [s for _, s in run],
                        )
                        for i, run in itertools.groupby(chunk, key=lambda item: item[0])
                    )
                    units.append(
                        WorkUnit(scenario, runner, variant, segments, packed=True)
                    )
            continue
        cell = cells[first]
        cap = batch_size if chunk_caps is None else chunk_caps[first]
        units.extend(
            WorkUnit(
                scenario,
                runner,
                variant,
                (Segment(first, cell.spec, cell.max_interactions, chunk),),
                packed=False,
            )
            for chunk in _chunked(replicate_seeds(seeds[first], cell.trials), cap)
        )
    return units


#: Columns up to which a lockstep call costs about the same at any
#: width: one cell's call took 0.47 s at 32 columns, 0.55 s at 64,
#: 0.82 s at 128 and 1.30 s at 256 (n = 10^4, k = 8 biased start, no
#: numba, 2-core host).  Past it, whole cells may not widen a unit
#: beyond the equal share.
_FREE_WIDTH = 64


def _lockstep_bins(group, cells, jobs, batch_size, predicted):
    """``(bins, width)``: a lockstep group's cells per unit, cut at ``width``.

    Whole cells (:func:`_whole_cells`) when there are at least ``jobs``
    of them and no bin is wider, ``batch_size`` aside, than both the
    equal share and :data:`_FREE_WIDTH`; else the whole queue in
    ``jobs`` equal widths.
    """
    share = min(batch_size, -(-sum(cells[i].trials for i in group) // jobs))
    if jobs <= len(group):
        bins = _whole_cells(group, cells, jobs, predicted)
        widest = max(sum(cells[i].trials for i in members) for members in bins)
        if min(widest, batch_size) <= max(share, _FREE_WIDTH):
            return bins, batch_size
    return [group], share


def _whole_cells(group, cells, jobs, predicted) -> list[list[int]]:
    """``group``'s cells bin-packed into ``jobs`` bins, heaviest bin first.

    Longest-processing-time first: cells in decreasing ``predicted``
    seconds (then replicates) each join the bin with the least predicted
    seconds (then replicates, then the lowest index) so far.  A bin
    keeps its cells in ``group`` order.
    """
    cost = predicted or {}
    bins: list[list[int]] = [[] for _ in range(jobs)]
    loads = [(0.0, 0)] * jobs
    for i in sorted(group, key=lambda i: (-cost.get(i, 0.0), -cells[i].trials)):
        b = min(range(jobs), key=loads.__getitem__)
        bins[b].append(i)
        loads[b] = (loads[b][0] + cost.get(i, 0.0), loads[b][1] + cells[i].trials)
    position = {i: p for p, i in enumerate(group)}
    heaviest = sorted(range(jobs), key=lambda b: loads[b], reverse=True)
    return [sorted(bins[b], key=position.__getitem__) for b in heaviest]


def run_ensemble(
    workload: Configuration | ScenarioSpec,
    trials: int,
    *,
    seed: int | np.random.SeedSequence,
    backend: str | Backend | None = None,
    executor: str | None = None,
    jobs: int | None = None,
    max_interactions: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    cache: bool | EnsembleCache | None = None,
) -> list[RunResult]:
    """Run ``trials`` independent replicates and return them in order.

    This is the historical free-function entry point; it now delegates
    to the module-level default session
    (:meth:`repro.engine.Engine.ensemble`), so repeated calls in one
    process share the session's local worker processes and cache
    handle.  Results are bit-identical to the pre-session engine at
    fixed seeds.

    Parameters
    ----------
    workload:
        Shared initial workload: a bare :class:`Configuration` (plain
        USD) or a :class:`ScenarioSpec` for any registered dynamics.
    trials:
        Number of replicates.
    seed:
        Ensemble seed — an integer or a spawned ``SeedSequence`` (the
        sweep scheduler passes cell children through directly);
        replicate ``i`` uses ``replicate_seeds(seed, trials)[i]``.
    backend:
        Backend name or instance; defaults to the session default
        (``"jump"`` unless overridden, see :mod:`repro.engine.options`).
        Non-USD scenarios map ``"batched"`` to their vectorized variant
        when they have one and fall back to the reference otherwise.
    executor:
        ``"serial"``, ``"process"`` (``jobs`` local worker processes
        the session forks and keeps) or ``"remote"`` (socket-connected
        ``repro worker`` processes); defaults to the session's executor
        (its explicit selection, else ``"process"`` when its worker
        count exceeds one, else ``"serial"``).
    jobs:
        Worker count for the process executor; defaults to the session
        default, floored at the machine's CPU count when unset there.
    max_interactions:
        Per-replicate budget in the scenario's native unit (interactions
        for population dynamics, rounds for gossip; ``None`` = scenario
        default).
    batch_size:
        Upper bound on the batch width for batch-capable variants.
    cache:
        ``True``/``False`` to force the ensemble cache on or off, an
        :class:`EnsembleCache` instance to use directly, or ``None`` for
        the session default (off unless ``--cache`` /
        ``REPRO_ENGINE_CACHE`` say otherwise).  A hit returns the stored
        results without simulating anything.
    """
    from .session import current_engine

    return current_engine().ensemble(
        workload,
        trials,
        seed=seed,
        backend=backend,
        executor=executor,
        jobs=jobs,
        max_interactions=max_interactions,
        batch_size=batch_size,
        cache=cache,
    )
