"""Engine sessions: one front door for ensembles, sweeps and experiments.

Four subsystems grew around :func:`~repro.engine.run_ensemble` — the
backend/scenario registries, batched kernels, the sweep scheduler and
the ensemble cache — and this module makes the session the unit that
owns their *resources* and configuration:

:class:`Engine`
    A session object constructed from fully-resolved, **frozen**
    :class:`~repro.engine.options.EngineOptions` (environment variables
    and CLI flags are resolved once, at construction).  It owns

    * the process executor's **local workers**: ``jobs`` forked socket
      workers on a private loopback pool
      (:class:`~repro.engine.remote.LocalFleet`), started on the first
      process-executor call and reused by every later
      :meth:`Engine.ensemble` / :meth:`Engine.sweep` in the session —
      started anew when the worker count or the backend/scenario
      registries change (forked workers snapshot the registries at fork
      time), when a worker has died, or after a failed call;
    * the remote executor's :class:`~repro.engine.remote.WorkerPool`;
    * an open :class:`~repro.engine.cache.EnsembleCache` handle shared
      by every ensemble and sweep of the session;
    * the resolution of names against the backend and scenario
      registries (while a session method runs,
      :func:`~repro.engine.options.active_options` answers from *its*
      options, so scenario variant resolution sees the session's
      configuration without any global mutation).

    Context-manager lifecycle: ``with Engine(jobs=4) as eng: ...`` joins
    the workers on exit; :meth:`Engine.stats` reports worker reuse
    counts, cache hits and replicates executed.

:func:`engine`
    Scoped configuration, replacing ad-hoc global mutation: ``with
    engine(backend="batched", jobs=4): ...`` derives a session from the
    current one, installs it for the duration of the block (every free
    function and experiment inside routes through it), and restores the
    previous configuration on exit — exceptions included.

:func:`current_engine`
    The session the free functions (:func:`run_ensemble`,
    :func:`run_sweep`, :func:`~repro.analysis.run_trials`, the
    experiment modules' single-run hook) route through: the innermost
    scoped session when one is active, else a module-level default
    session that mirrors the process-level defaults — rebuilt
    automatically whenever the environment changes them, while still
    profiting from worker reuse.

One cell pipeline serves both workloads: an ensemble is a one-cell
sweep.  :meth:`Engine.ensemble` and :meth:`Engine.sweep` each call
``Engine._run_cells``, which resolves every cell's variant and cache
key in one place, takes what the cache holds, plans the pending cells
with :func:`~repro.engine.executors.plan_units` (lockstep cells pack on
every executor; a cell a remote worker's store holds is one whole-cell
serve unit instead), and drains the units in this process
(``_run_serial``) or through :meth:`~repro.engine.remote.WorkerPool.run`
on the local or the remote workers, which speak one protocol and take
only cells with a record codec.  Every driver returns one
:class:`~repro.engine.executors.UnitResult` per unit, in unit order;
``_run_cells`` alone demuxes them into cells, builds the per-cell
timing records, pushes fresh cells to the fleet, stores the results and
counts the replicates.  Only two things stay per caller: how a cell
that does not pack is cut out of process (a sweep asks its
cost model, an ensemble takes four chunks per worker), and the sweep's
own report, cost-model refinement and sweep index.

Results are bit-identical to the pre-session engine at fixed seeds: the
session changes who *owns* the workers and the configuration, never how
replicates are seeded or executed.
"""

from __future__ import annotations

import atexit
import copy
import os
from contextlib import contextmanager
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from ..core.config import Configuration
from ..core.simulator import Observer, RunResult
from . import backends as _backends
from . import scenarios as _scenarios
from .backends import Backend, get_backend
from .cache import (
    SWEEP_INDEX_FORMAT,
    EnsembleCache,
    encode_entry,
    ensemble_key,
    seed_token,
)
from .codec import cell_codec
from .costmodel import CostModel, cost_signature
from .executors import (
    DEFAULT_BATCH_SIZE,
    Segment,
    UnitResult,
    WorkUnit,
    plan_units,
    replicate_seeds,
    run_unit,
)
from .options import EngineOptions, _executor
from .remote import LocalFleet, WorkerPool, cache_token, make_server_tls_context
from .scenarios import Scenario, ScenarioSpec, coerce_spec, get_scenario
from .sweep import SweepCell, SweepCellRun, SweepRun, SweepSpec, _derive_cell_seeds

__all__ = ["Engine", "engine", "current_engine"]


def _registry_epoch() -> int:
    """Combined backend+scenario registration counter (fleet-staleness key)."""
    return _backends.registry_epoch() + _scenarios.registry_epoch()


# ----------------------------------------------------------------------
# Session stack and module-level default session
# ----------------------------------------------------------------------
#: Innermost-last stack of active sessions.  Like the global defaults it
#: replaces, this is process-wide state for a single-threaded driver:
#: scopes must nest (enforced by the context managers), and concurrent
#: threads would observe each other's scoped sessions.
_SESSION_STACK: list["Engine"] = []
_DEFAULT_SESSION: "Engine | None" = None


def _close_default_session() -> None:
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is not None:
        _DEFAULT_SESSION.close()
        _DEFAULT_SESSION = None


atexit.register(_close_default_session)


def current_engine() -> "Engine":
    """The session the free functions route through.

    The innermost scoped session (``with engine(...):`` / an activated
    :class:`Engine` method) wins; otherwise a module-level default
    session mirroring the process-level defaults is returned.  The
    default session is rebuilt — its workers joined and started anew on
    next use — whenever those defaults (the ``REPRO_ENGINE_*``
    environment variables) have changed since it was built.
    """
    if _SESSION_STACK:
        return _SESSION_STACK[-1]
    global _DEFAULT_SESSION
    resolved = EngineOptions.resolve()
    if (
        _DEFAULT_SESSION is None
        or _DEFAULT_SESSION.closed
        or _DEFAULT_SESSION.options != resolved
    ):
        if _DEFAULT_SESSION is not None:
            _DEFAULT_SESSION.close()
        _DEFAULT_SESSION = Engine(resolved)
    return _DEFAULT_SESSION


@contextmanager
def engine(session: "Engine | None" = None, **overrides):
    """Scoped engine configuration — the replacement for global mutation.

    ``with engine(backend="batched", jobs=4) as eng:`` derives a session
    from the current one with the given option overrides, installs it as
    the session every engine entry point routes through for the duration
    of the block, and restores the previous configuration on exit —
    whether the block returns or raises.  ``None``-valued overrides are
    ignored, so CLI-style "flag or None" values pass through directly.

    An existing :class:`Engine` may be installed instead: ``with
    engine(eng): ...`` scopes all engine traffic through ``eng`` without
    adopting its lifetime (the caller still owns ``eng.close()``;
    sessions the context manager itself derives are closed on exit).
    """
    if session is None:
        session = Engine(current_engine().options.replace(**overrides))
        owned = True
    else:
        if overrides:
            raise TypeError(
                "engine() takes either an existing Engine or option "
                "overrides, not both"
            )
        owned = False
    _SESSION_STACK.append(session)
    try:
        yield session
    finally:
        _SESSION_STACK.pop()
        if owned:
            session.close()


#: Per-worker cache-fabric counters (the fold adds ``fallbacks``).
_FABRIC_COUNTERS = ("probed", "hits", "served", "pushed")


def _merge_cache_fabric(folded: dict | None, snapshot: dict | None) -> dict | None:
    """Accumulate one worker pool's cache-fabric counters into the fold.

    Aggregates sum; per-worker rows merge by name (counters sum, the
    newer snapshot's token/entry-count wins), so fleet totals survive
    pool teardown exactly like the socket byte counters do.
    """
    if snapshot is None:
        return folded
    if folded is None:
        folded = dict.fromkeys((*_FABRIC_COUNTERS, "fallbacks"), 0)
        folded["workers"] = {}
    for field in (*_FABRIC_COUNTERS, "fallbacks"):
        folded[field] += snapshot[field]
    for row in snapshot["workers"]:
        merged = folded["workers"].setdefault(
            row["name"], dict(row, **dict.fromkeys(_FABRIC_COUNTERS, 0))
        )
        for field in _FABRIC_COUNTERS:
            merged[field] += row[field]
        merged["cache_token"] = row["cache_token"]
        merged["cache_entries"] = row["cache_entries"]
    return folded


class _CellsRun(NamedTuple):
    """What :meth:`Engine._run_cells` hands back to its caller."""

    variants: list[str]
    keys: list[str]
    results: dict[int, list]
    pending: list[int]
    units: list[WorkUnit]
    outcomes: list[UnitResult]
    chunk_stats: list[dict]
    served: set[int]


# ----------------------------------------------------------------------
# The session object
# ----------------------------------------------------------------------
class Engine:
    """One engine session: frozen options + persistent workers + cache handle.

    Construct from an explicit :class:`EngineOptions` or from keyword
    overrides over the process-level defaults (resolved **once**, here):

    >>> from repro.engine import Engine
    >>> from repro.workloads import uniform_configuration
    >>> with Engine(backend="batched") as eng:
    ...     results = eng.ensemble(uniform_configuration(200, 3), 16, seed=7)
    >>> len(results)
    16

    Every :meth:`ensemble` / :meth:`sweep` call in the session reuses
    one lazily-forked set of local workers (worker start and teardown are
    paid once, not per call) and one open ensemble-cache handle.  The session
    is also a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, options: EngineOptions | None = None, **overrides) -> None:
        if options is None:
            options = EngineOptions.resolve(**overrides)
        elif not isinstance(options, EngineOptions):
            raise TypeError(
                f"options must be an EngineOptions, got {type(options).__name__}"
            )
        elif overrides:
            options = options.replace(**overrides)
        self._options = options
        self._cache: EnsembleCache | None = None
        if options.cache:
            self._cache = self._new_cache_handle(options)
        self._fleet: LocalFleet | None = None
        self._fleet_key: tuple | None = None
        self._worker_pool: WorkerPool | None = None
        self._closed = False
        self._cost_model: CostModel | None = None
        self._last_sweep_report: dict | None = None
        self._stats = {
            "ensembles": 0,
            "sweeps": 0,
            "replicates_simulated": 0,
            "replicates_from_cache": 0,
            "replicates_served_remote": 0,
            "pool_spawns": 0,
            "pool_reuses": 0,
            "pool_requeued": 0,
        }
        #: Cache-fabric counters folded in from closed worker pools.
        self._cache_fabric: dict | None = None
        #: Units and frame bytes moved per executor: "pickle" counts the
        #: local workers' (see :meth:`stats`), "socket" the remote
        #: worker pool's (closed pools' totals folded in).
        self._transport = {
            "pickle": {"chunks": 0, "bytes": 0},
            "socket": {"chunks": 0, "bytes": 0},
        }

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Join the local workers; the session refuses further work."""
        self._shutdown_fleet()
        self._shutdown_worker_pool()
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "this Engine session is closed; construct a new one "
                "(or use repro.engine.engine(...) for scoped sessions)"
            )

    # -- configuration -------------------------------------------------
    @property
    def options(self) -> EngineOptions:
        """The session's frozen, fully-resolved options."""
        return self._options

    def configure(self, **overrides) -> EngineOptions:
        """Replace the session's options in place (``None`` values ignored).

        Each changed option rebuilds what its declaration's ``rebind``
        names: "pool" joins the local workers (new ones start on the next
        process-executor call), "workers" unbinds the worker pool and
        "cache" re-opens the cache handle.  Returns the new options.
        """
        self._check_open()
        old, new = self._options, self._options.replace(**overrides)
        rebind = {
            option.metadata["rebind"]
            for option in fields(EngineOptions)
            if vars(old)[option.name] != vars(new)[option.name]
        }
        if "pool" in rebind:
            self._shutdown_fleet()
        if "workers" in rebind:
            self._shutdown_worker_pool()
        if "cache" in rebind:
            self._cache = self._new_cache_handle(new) if new.cache else None
        self._options = new
        return new

    @contextmanager
    def _activate(self):
        """Install this session as the innermost one for the duration.

        While active, :func:`~repro.engine.options.active_options` (and
        through it scenario variant resolution and the USD reference
        backend) answers from this session's options.
        """
        _SESSION_STACK.append(self)
        try:
            yield
        finally:
            _SESSION_STACK.pop()

    # -- cache handle --------------------------------------------------
    @staticmethod
    def _new_cache_handle(options: EngineOptions) -> EnsembleCache:
        return EnsembleCache(options.cache_dir, max_bytes=options.cache_max_bytes)

    @property
    def cache(self) -> EnsembleCache | None:
        """The session's open cache handle (``None`` while disabled)."""
        return self._cache

    def _resolve_cache(self, cache) -> EnsembleCache | None:
        if isinstance(cache, EnsembleCache):
            return cache
        enabled = self._options.cache if cache is None else bool(cache)
        if not enabled:
            return None
        if self._cache is None:
            # A per-call cache=True opens the session handle lazily; it
            # stays open so later calls share hit/miss accounting.
            self._cache = self._new_cache_handle(self._options)
        return self._cache

    # -- shared argument resolution ------------------------------------
    def _resolve_executor(self, executor: str | None) -> str:
        return _executor(
            "executor", self._options.executor if executor is None else executor
        )

    def _resolve_jobs(self, jobs: int | None) -> int:
        if jobs is None:
            opts_jobs = self._options.jobs
            jobs = opts_jobs if opts_jobs > 1 else (os.cpu_count() or 1)
        if jobs < 1:
            raise ValueError(f"jobs must be positive, got {jobs}")
        return jobs

    @staticmethod
    def _chunk_cap(trials: int, jobs: int, batch_size: int) -> int:
        # An ensemble's chunk size for a cell that does not pack: several
        # chunks per worker keep the workers busy when replicate durations
        # vary, without giving up batching within a chunk.
        return max(1, min(batch_size, -(-trials // (jobs * 4))))

    # -- scheduler cost model ------------------------------------------
    def _acquire_cost_model(self, store: EnsembleCache | None) -> CostModel:
        """The session's (lazily loaded) sweep-scheduler cost model.

        Loaded at most once per session: from the persisted table next
        to the ensemble cache when one is available, else cold (the
        calibrated seed table).  The model lives for the whole session
        so every sweep refines the next one's schedule, with or without
        a cache directory to persist into.
        """
        if self._cost_model is None:
            payload = store.load_cost_table() if store is not None else None
            self._cost_model = CostModel.from_payload(payload)
        return self._cost_model

    def _sweep_report(
        self, cells, variants, pending, plans, measured, *, executor,
        units=(), outcomes=(), served=frozenset(),
    ) -> dict:
        """Per-sweep scheduler report exposed through :meth:`stats`.

        Distinguishes *scheduled* from *cached* replicates per cell:
        cache hits never entered the work queue, so they contribute to
        ``replicates_from_cache`` but are excluded from the
        predicted-vs-measured totals (counting them as zero-cost work
        would make any prediction look wrong).  Cells in ``served``
        entered the queue but came back from a *worker's* store
        (serve-cached), so they too stay out of the prediction error.
        When units carry a worker name (remote executor), the report
        also breaks predicted-vs-measured seconds down per worker, one
        ``chunks`` count per unit however many cells it packed.
        ``units`` counts the kernel calls dispatched and ``packed_units``
        those that ran as one lockstep batch, whether of one cell's
        replicates or of several cells'.  ``plan`` lists the units in
        dispatch order: each one's ``(cell, replicates)`` segments, its
        predicted and measured seconds, and the socket ``worker`` that
        ran it (``None`` off the remote executor) and whether that
        worker ``served`` it from its store.
        """
        scheduled = set(pending)
        cell_reports = []
        predicted_total = 0.0
        measured_total = 0.0
        for i in range(len(cells)):
            cell = cells[i]
            cached = i not in scheduled
            served_remote = i in served
            entry = {
                "index": i,
                "scenario": cell.spec.scenario,
                "variant": variants[i],
                "n": int(cell.spec.config.n),
                "trials": cell.trials,
                "cached": cached,
                "served_remote": served_remote,
                "replicates_scheduled": 0 if cached else cell.trials,
                "replicates_from_cache": cell.trials if cached else 0,
                "replicates_served": cell.trials if served_remote else 0,
            }
            if not cached and not served_remote:
                plan = plans[i]
                predicted = plan["per_replicate_seconds"] * cell.trials
                cell_measured = measured.get(i)
                entry.update(
                    {
                        "signature": plan["signature"],
                        "prediction_source": plan["source"],
                        "predicted_seconds": predicted,
                        "measured_seconds": cell_measured,
                    }
                )
                predicted_total += predicted
                if cell_measured is not None:
                    measured_total += cell_measured
            cell_reports.append(entry)
        error = None
        if measured_total > 0:
            error = abs(predicted_total - measured_total) / measured_total
        workers: dict[str, dict] | None = None
        plan = []
        for unit, outcome in zip(units, outcomes):
            unit_predicted = sum(
                plans[segment.cell]["per_replicate_seconds"] * len(segment.seeds)
                for segment in unit.segments
            )
            plan.append(
                {
                    "segments": [
                        (segment.cell, len(segment.seeds)) for segment in unit.segments
                    ],
                    "predicted_seconds": unit_predicted,
                    "measured_seconds": outcome.seconds,
                    "worker": outcome.worker,
                    "served": outcome.served,
                }
            )
            if outcome.worker is None:
                continue
            if workers is None:
                workers = {}
            entry = workers.setdefault(
                outcome.worker,
                {
                    "chunks": 0,
                    "replicates": 0,
                    "served": 0,
                    "predicted_seconds": 0.0,
                    "measured_seconds": 0.0,
                },
            )
            entry["chunks"] += 1
            entry["replicates"] += len(unit.seeds)
            if outcome.served:
                # Serve-cached units: a store read — keep them out of
                # the predicted-vs-measured comparison.
                entry["served"] += 1
                continue
            entry["predicted_seconds"] += unit_predicted
            entry["measured_seconds"] += outcome.seconds
        return {
            "executor": executor,
            "units": len(units),
            "packed_units": sum(unit.packed for unit in units),
            "plan": plan,
            "cells": cell_reports,
            "replicates_scheduled": sum(cells[i].trials for i in scheduled),
            "replicates_from_cache": sum(
                cells[i].trials for i in range(len(cells)) if i not in scheduled
            ),
            "replicates_served": sum(cells[i].trials for i in served),
            "predicted_seconds": predicted_total,
            "measured_seconds": measured_total,
            "prediction_error": error,
            "workers": workers,
        }

    # -- local workers -------------------------------------------------
    def _acquire_fleet(self, jobs: int) -> LocalFleet:
        """The session's :class:`~repro.engine.remote.LocalFleet` of ``jobs``.

        Reused while its worker count and the registries are unchanged
        and every worker is alive; otherwise the old fleet is joined and
        a new one forked.
        """
        key = (jobs, _registry_epoch())
        fleet = self._fleet
        if fleet is not None and self._fleet_key == key and fleet.alive():
            self._stats["pool_reuses"] += 1
            return fleet
        self._shutdown_fleet()
        self._fleet = LocalFleet(jobs)
        self._fleet_key = key
        self._stats["pool_spawns"] += 1
        return self._fleet

    def _shutdown_fleet(self) -> None:
        if self._fleet is not None:
            fleet, self._fleet, self._fleet_key = self._fleet, None, None
            fleet.close()

    def _run_locally(self, jobs: int, units: list[WorkUnit]) -> list[UnitResult]:
        """Drain ``units``, in order, on ``jobs`` local socket workers.

        The same :meth:`WorkerPool.run` as the remote executor, on the
        session's :class:`~repro.engine.remote.LocalFleet`.  Its units
        and frame bytes count under the ``"pickle"`` transport row, a
        unit a dying worker left requeues bit-identically, and results
        carry no worker name.  A failed call joins the fleet, so the
        next one starts from fresh workers, not from one that is exiting
        after its error report or is still busy with a unit of the
        failed call.
        """
        fleet = self._acquire_fleet(jobs)
        pool = fleet.pool
        nbytes, requeued = pool.bytes_sent + pool.bytes_received, pool.chunks_requeued
        try:
            outcomes = fleet.run(units)
        except BaseException:
            self._shutdown_fleet()
            raise
        nbytes = pool.bytes_sent + pool.bytes_received - nbytes
        self._count_transport("pickle", len(units), nbytes)
        self._stats["pool_requeued"] += pool.chunks_requeued - requeued
        return [outcome._replace(worker=None) for outcome in outcomes]

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the local workers (empty before the first spawn)."""
        return () if self._fleet is None else self._fleet.pids()

    # -- remote worker pool --------------------------------------------
    def worker_pool(self) -> WorkerPool:
        """The session's remote :class:`~repro.engine.remote.WorkerPool`.

        Lazily bound on first use: to ``options.workers`` when set
        (``--workers host:port`` / ``REPRO_ENGINE_WORKERS``), else to
        loopback on an ephemeral port — read :attr:`WorkerPool.endpoint`
        for the address ``repro worker`` processes should connect to.
        The pool lives for the whole session, so workers stay attached
        across every ``ensemble()``/``sweep()`` call, exactly like the
        process executor's local workers.
        """
        self._check_open()
        if self._worker_pool is None:
            token = (
                cache_token(self._options.cache_dir)
                if self._options.cache
                else None
            )
            tls = None
            if self._options.worker_tls_cert:
                tls = make_server_tls_context(
                    self._options.worker_tls_cert,
                    self._options.worker_tls_key,
                    self._options.worker_tls_ca,
                )
            self._worker_pool = WorkerPool(
                self._options.workers,
                session_cache_token=token,
                secret=self._options.worker_secret,
                tls=tls,
            )
        return self._worker_pool

    def _shutdown_worker_pool(self) -> None:
        if self._worker_pool is not None:
            pool, self._worker_pool = self._worker_pool, None
            self._count_transport(
                "socket",
                pool.chunks_dispatched,
                pool.bytes_sent + pool.bytes_received,
            )
            self._cache_fabric = _merge_cache_fabric(
                self._cache_fabric, pool.cache_stats()
            )
            pool.close()

    def _count_transport(self, transport: str, chunks: int, nbytes: int) -> None:
        row = self._transport[transport]
        row["chunks"] += int(chunks)
        row["bytes"] += int(nbytes)

    def _transport_stats(self) -> dict:
        """Per-transport byte/chunk counters, live pool included."""
        snapshot = {name: dict(row) for name, row in self._transport.items()}
        if self._worker_pool is not None:
            snapshot["socket"]["chunks"] += self._worker_pool.chunks_dispatched
            snapshot["socket"]["bytes"] += (
                self._worker_pool.bytes_sent + self._worker_pool.bytes_received
            )
        return snapshot

    def cache_fabric_stats(self) -> dict | None:
        """Fleet cache counters: live worker pool plus folded totals.

        ``None`` until a worker pool has existed in the session.  The
        ``workers`` value is a list of per-worker rows (name, store
        token, entry count, probe/hit/served/pushed counters), the same
        shape ``Engine.stats()["cache"]["workers"]`` exposes.
        """
        folded = copy.deepcopy(self._cache_fabric)
        if self._worker_pool is not None:
            folded = _merge_cache_fabric(folded, self._worker_pool.cache_stats())
        if folded is None:
            return None
        folded["workers"] = sorted(
            folded["workers"].values(), key=lambda row: row["name"] or ""
        )
        return folded

    # -- diagnostics ---------------------------------------------------
    def stats(self) -> dict:
        """Session counters: local workers, cache traffic, replicates executed.

        ``pool`` describes the process executor's local workers (fleets
        forked, reused, alive, their PIDs and units requeued off a dead
        worker).  ``transport["pickle"]`` counts their units and frame
        bytes: the row kept the name of the pipe they once came back
        through because the declared benchmark reads it, and renaming
        it is a change to that benchmark.
        """
        snapshot = {
            key: value
            for key, value in self._stats.items()
            if not key.startswith("pool_")
        }
        snapshot["options"] = self._options.as_dict()
        snapshot["pool"] = {
            "spawns": self._stats["pool_spawns"],
            "reuses": self._stats["pool_reuses"],
            "alive": self._fleet is not None,
            "worker_pids": list(self.worker_pids()),
            "requeued": self._stats["pool_requeued"],
        }
        snapshot["remote"] = (
            {
                "listening": self._worker_pool.endpoint,
                "workers": self._worker_pool.workers(),
                "chunks_requeued": self._worker_pool.chunks_requeued,
            }
            if self._worker_pool is not None
            else None
        )
        snapshot["transport"] = self._transport_stats()
        cache_snapshot = self._cache.stats() if self._cache is not None else None
        fabric = self.cache_fabric_stats()
        if fabric is not None:
            cache_snapshot = dict(cache_snapshot or {})
            cache_snapshot["fabric"] = {
                field: fabric[field]
                for field in (*_FABRIC_COUNTERS, "fallbacks")
            }
            cache_snapshot["workers"] = fabric["workers"]
        snapshot["cache"] = cache_snapshot
        snapshot["scheduler"] = {
            "last_sweep": self._last_sweep_report,
            "cost_model": (
                self._cost_model.summary() if self._cost_model is not None else None
            ),
        }
        return snapshot

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "workers up" if self._fleet is not None else "idle"
        )
        return (
            f"Engine(backend={self._options.backend!r}, "
            f"jobs={self._options.jobs}, {state})"
        )

    # -- single-run hook -----------------------------------------------
    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        """One replicate on the session's backend (the experiments' hook)."""
        self._check_open()
        with self._activate():
            backend = get_backend(self._options.backend)
            return backend.simulate(
                config,
                rng=rng,
                max_interactions=max_interactions,
                observer=observer,
            )

    # -- the cell pipeline ---------------------------------------------
    def _scenario_variant(
        self, spec: ScenarioSpec, backend: str | Backend | None
    ) -> tuple[Scenario, str]:
        """The validated scenario of ``spec`` and the variant to run.

        ``backend=None`` selects the session's default backend, which —
        as in :meth:`Scenario.variant` — runs a scenario that has no
        variant for it on its reference variant; only an explicitly
        named unknown backend is an error.  Reads this session's options,
        never the active-session globals, so the service may call it off
        the engine thread.
        """
        scenario = get_scenario(spec.scenario)
        scenario.validate(spec)
        if backend is not None:
            return scenario, scenario.variant(backend)
        try:
            return scenario, scenario.variant(self._options.backend)
        except ValueError:
            if "reference" not in scenario.variants():
                raise
            return scenario, "reference"

    def _cell_key(
        self, cell: SweepCell, seed, backend: str | Backend | None
    ) -> tuple[Scenario, str, str]:
        """A cell's scenario, variant and content-addressed cache key.

        The key is a pure content hash, so it exists whether or not the
        session has a store: a cache-less coordinator still probes a
        warm fleet with it.
        """
        scenario, variant = self._scenario_variant(cell.spec, backend)
        key = ensemble_key(
            cell.spec,
            trials=cell.trials,
            seed=seed,
            variant=variant,
            max_interactions=cell.max_interactions,
        )
        return scenario, variant, key

    def _run_serial(self, units: list[WorkUnit]) -> list[UnitResult]:
        """Run units in this process, in order.

        Each unit is one :meth:`Scenario.run_chunk` call; a packed unit
        is ONE zero-padded lockstep kernel call across its cells (see
        :func:`~repro.engine.executors.plan_units`).
        """
        outcomes = []
        for unit in units:
            work, budget = unit.work()
            results, seconds = run_unit(
                unit.scenario, unit.runner, work, budget, unit.seeds
            )
            outcomes.append(UnitResult(unit.split(results), seconds))
        return outcomes

    def _run_cells(
        self,
        cells,
        seeds,
        *,
        backend: str | Backend | None,
        executor: str,
        jobs: int | None,
        batch_size: int,
        store: EnsembleCache | None,
        size,
    ) -> _CellsRun:
        """Run ``cells`` at ``seeds`` through the one cell pipeline.

        Both :meth:`ensemble` (one cell) and :meth:`sweep` call this
        inside :meth:`_activate`.  It resolves each cell's scenario,
        variant and key, takes what ``store`` holds, cuts the pending
        cells into work units with
        :func:`~repro.engine.executors.plan_units` (lockstep cells pack
        on every executor), and drains them on ``executor`` (a resolved
        name): :meth:`_run_serial`, :meth:`_run_locally` or the session's
        remote :class:`WorkerPool`.  Out of process, a cell without a
        record codec raises ``ValueError`` before anything starts.  Each
        driver returns one :class:`UnitResult` per unit; this method
        alone demuxes their parts into cells, builds the per-cell timing
        records (:meth:`WorkUnit.cell_stats`), stores the results and
        counts the replicates.  Every unit lands
        in ONE shared queue, so there is no per-cell barrier.

        The serial executor cuts cells that do not pack into
        ``batch_size`` chunks.  On the local and remote workers,
        ``size(i, variant, workers, pool)`` gives pending cell ``i``'s
        chunk cap and predicted seconds (groups run longest-first, and a
        lockstep group with at least ``workers`` cells is bin-packed by
        them into units of whole cells unless a unit would be too wide,
        see :func:`~repro.engine.executors.plan_units`): ``workers`` is
        the worker count to share the queue between (``jobs`` locally,
        the attached workers, at least one, remotely) and ``pool`` the
        :class:`WorkerPool` on the remote executor, else ``None``.  A
        cell some remote worker's store holds skips the planner: it is
        one whole-cell unit that an owner serves from its store (or,
        failing that, any worker runs cold).  Every simulated cell
        is then pushed to the workers whose store differs.  Units only
        move wall time: replicate seeds are derived per cell before any
        cutting and results are assembled by cell index.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        scenarios: list[Scenario] = []
        variants: list[str] = []
        keys: list[str] = []
        results: dict[int, list] = {}
        for index, (cell, seed) in enumerate(zip(cells, seeds)):
            scenario, variant, key = self._cell_key(cell, seed, backend)
            scenarios.append(scenario)
            variants.append(variant)
            keys.append(key)
            cached = store.load(key, cell.spec) if store is not None else None
            if cached is not None:
                results[index] = cached
        pending = [i for i in range(len(cells)) if i not in results]

        pool = None
        workers = 1
        owners: dict[int, list[str]] = {}
        if pending and executor != "serial":
            for i in pending:
                scenarios[i].check_process_safe(variants[i], backend)
                cell_codec(cells[i].spec, variants[i])  # records only
            if executor == "remote":
                # Cache-first dispatch: ask the fleet which pending cells
                # somebody's store can serve.
                pool = self.worker_pool()
                held_by = pool.probe_cache(
                    list(dict.fromkeys(keys[i] for i in pending))
                )
                for i in pending:
                    names = sorted(
                        name for name, held in held_by.items() if keys[i] in held
                    )
                    if names:
                        owners[i] = names
                workers = max(pool.worker_count(), 1)
            else:
                workers = self._resolve_jobs(jobs)
        planned = [i for i in pending if i not in owners]
        caps = predicted = None
        if executor != "serial":
            caps, predicted = {}, {}
            for i in planned:
                caps[i], predicted[i] = size(i, variants[i], workers, pool)
        units = plan_units(
            cells, planned, scenarios, variants, seeds, backend,
            jobs=workers, batch_size=batch_size,
            chunk_caps=caps, predicted=predicted,
        )
        # Cache entries are whole ensembles, so an owned cell is ONE
        # serve-cached unit at near-zero cost.
        serve = {}
        for i in owners:
            serve[len(units)] = (keys[i], owners[i])
            segment = Segment(
                i, cells[i].spec, cells[i].max_interactions,
                replicate_seeds(seeds[i], cells[i].trials),
            )
            unit = WorkUnit(
                scenarios[i], variants[i], variants[i], (segment,), packed=False
            )
            units.append(unit)
        if executor == "serial":
            outcomes = self._run_serial(units)
        elif pool is not None:
            outcomes = pool.run(units, serve=serve)
        else:
            outcomes = self._run_locally(workers, units) if units else []

        chunk_stats: list[dict] = []
        served: set[int] = set()
        for unit, outcome in zip(units, outcomes):
            for segment, part in zip(unit.segments, outcome.parts):
                results.setdefault(segment.cell, []).extend(part)
            if outcome.served:
                # A served unit is one whole cell from a worker's store.
                served.add(unit.segments[0].cell)
            chunk_stats.extend(
                {**stat, "worker": outcome.worker, "served": outcome.served}
                for stat in unit.cell_stats(outcome.parts, outcome.seconds)
            )
        # Each fresh cell's entry is encoded once: the session's store
        # writes it and the fleet's stores get the same bytes (each
        # worker's LRU cap bounds what it keeps).  A cell without a
        # record codec has no entry and is never stored.
        for i in pending:
            push = pool is not None and i not in served
            if store is None and not push:
                continue
            entry = encode_entry(
                keys[i], cells[i].spec, variants[i], seeds[i],
                cells[i].max_interactions, results[i],
            )
            if entry is None:
                continue
            if push:
                pool.push_cache(entry, exclude=set(owners.get(i, ())))
            if store is not None:
                store.store(keys[i], entry)

        # Fleet-served cells entered the queue but were answered from a
        # worker's store — cache traffic, not simulation.
        simulated = set(pending) - served
        for i, cell in enumerate(cells):
            if i in simulated:
                self._stats["replicates_simulated"] += cell.trials
            else:
                self._stats["replicates_from_cache"] += cell.trials
            if i in served:
                self._stats["replicates_served_remote"] += cell.trials
        return _CellsRun(
            variants, keys, results, pending, units, outcomes, chunk_stats, served
        )

    # -- ensembles -----------------------------------------------------
    def cached_ensemble(
        self,
        workload: Configuration | ScenarioSpec,
        trials: int,
        *,
        seed: int | np.random.SeedSequence,
        backend: str | None = None,
        max_interactions: int | None = None,
        key: str | None = None,
    ) -> list[RunResult] | None:
        """The ensemble's cached results, or ``None`` without simulating.

        A pure cache lookup under the same content-addressed key
        :meth:`ensemble` would compute — same spec coercion, same
        variant resolution — so a hit is bit-identical to what a full
        call returns, and a miss costs one ``stat``.  Unlike
        :meth:`ensemble` this never activates the session (no
        ``_SESSION_STACK`` push), which makes it safe to call from a
        thread other than the one running the engine — the service
        layer's cache-first fast path relies on exactly that.

        ``key``, when given, is that key already computed by the caller
        (the service hashes each submission once); it must be the key
        :meth:`_cell_key` yields for these arguments.
        """
        self._check_open()
        spec = coerce_spec(workload)
        if key is None:
            cell = SweepCell(spec, trials, max_interactions)
            _, _, key = self._cell_key(cell, seed, backend)
        store = self._resolve_cache(None)
        if store is None:
            return None
        results = store.load(key, spec)
        if results is not None:
            self._stats["ensembles"] += 1
            self._stats["replicates_from_cache"] += trials
        return results

    def ensemble(
        self,
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

        An ensemble is a one-cell sweep: ``SweepCell(spec, trials,
        max_interactions)`` with ``seed`` as its cell seed, through the
        pipeline :meth:`sweep` uses, on the ``"serial"``, ``"process"``
        (``jobs`` local worker processes the session forks and keeps) or
        ``"remote"`` (the session's socket
        :class:`~repro.engine.remote.WorkerPool`) executor.
        Results match the historical free function
        (:func:`repro.engine.run_ensemble`) bit for bit at fixed seeds,
        on every executor, because replicate seeds are derived before
        any chunking or dispatch; unspecified arguments fall back to the
        *session's* frozen options.  A lockstep cell's columns are split
        into one equal-width unit per worker, as in a sweep with fewer
        cells than workers.  Unlike a sweep, an ensemble
        cuts a cell that does not pack into a fixed number of chunks —
        four per process worker, four per attached socket worker (at
        least one worker) — and leaves the cost model, the sweep report
        and the sweep index alone.
        """
        self._check_open()
        with self._activate():
            cell = SweepCell(coerce_spec(workload), trials, max_interactions)
            run = self._run_cells(
                [cell],
                [seed],
                backend=backend,
                executor=self._resolve_executor(executor),
                jobs=jobs,
                batch_size=batch_size,
                store=self._resolve_cache(cache),
                size=lambda i, variant, workers, pool: (
                    self._chunk_cap(cell.trials, workers, batch_size),
                    0.0,
                ),
            )
            self._stats["ensembles"] += 1
            return run.results[0]

    # -- sweeps --------------------------------------------------------
    def sweep(
        self,
        spec,
        *,
        seed: int | None = None,
        cell_seeds=None,
        seed_derivation: str = "spawn",
        backend: str | Backend | None = None,
        executor: str | None = None,
        jobs: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache: bool | EnsembleCache | None = None,
    ):
        """Run every cell of a sweep through one flattened work queue.

        Semantics match the historical free function
        (:func:`repro.engine.run_sweep`) bit for bit at fixed seeds, with
        per-cell caching under a sweep-level index.  One planner
        (:func:`~repro.engine.executors.plan_units`) cuts the pending
        cells into work units: every pending ``usd`` cell on the
        built-in batched backend, and every ``zealots`` cell on its
        batched variant, joins one lockstep group per scenario, cut
        into units of at most ``batch_size`` replicates, each ONE
        zero-padded lockstep kernel call across cells.  A group with at
        least as many cells as workers is bin-packed into one unit per
        worker of whole cells, longest predicted first (serially: the
        group's queue in ``batch_size`` chunks); a smaller group, or one
        where a wide cell would leave a unit wider than both the equal
        share and 64 columns, is split into one equal-width unit per
        worker.  Every other cell keeps its own
        chunks: the session cost model cuts them into fixed wall-time
        slices out of process, longest-predicted cells first.  The
        process executor drains the units from one shared queue on the
        session's ``jobs`` local socket workers, and ``executor="remote"``
        drains the same plan through socket-connected ``repro worker``
        processes; both speak one protocol, whose workers return one
        fixed-width record block per cell segment, so both refuse a cell
        without a record codec before they start.
        Results are bit-identical across all of them: replicate seeds
        are derived per cell before any cutting or packing.
        """
        self._check_open()
        if not isinstance(spec, SweepSpec):
            raise TypeError(f"expected a SweepSpec, got {type(spec).__name__}")
        with self._activate():
            executor = self._resolve_executor(executor)
            cells = spec.cells
            seeds = _derive_cell_seeds(len(cells), seed, cell_seeds, seed_derivation)
            store = self._resolve_cache(cache)
            model = self._acquire_cost_model(store)

            def plan(i: int, variant: str) -> dict:
                cell = cells[i]
                n = int(cell.spec.config.n)
                per_rep, source = model.predict(cell.spec.scenario, variant, n)
                return {
                    "n": n,
                    "signature": cost_signature(cell.spec.scenario, variant, n),
                    "per_replicate_seconds": per_rep,
                    "source": source,
                }

            def size(i: int, variant: str, workers: int, pool) -> tuple[int, float]:
                # Each chunk targets a fixed wall-time slice: big-n cells
                # split finer, tiny cells coalesce.
                cell = cells[i]
                per_rep = plan(i, variant)["per_replicate_seconds"]
                predicted = per_rep * cell.trials
                if pool is not None:
                    # Size remote chunks against the slowest attached
                    # worker's measured coefficients (per-family
                    # prediction when a worker has no history yet), so a
                    # wall-time slice stays a bounded tail on
                    # heterogeneous hardware.
                    worker_est = model.predict_for_workers(
                        cell.spec.scenario,
                        variant,
                        int(cell.spec.config.n),
                        pool.worker_names(),
                    )
                    if worker_est is not None:
                        per_rep = max(per_rep, worker_est)
                return model.chunk_size(per_rep, cell.trials, batch_size), predicted

            run = self._run_cells(
                cells,
                seeds,
                backend=backend,
                executor=executor,
                jobs=jobs,
                batch_size=batch_size,
                store=store,
                size=size,
            )
            # Cached cells never entered the queue, so they get no
            # prediction — and therefore cannot dilute the
            # predicted-vs-measured report with zero-cost "work".
            plans = {i: plan(i, run.variants[i]) for i in run.pending}

            # Refine the cost model from the measured chunk wall-times
            # and persist the table next to the ensemble cache so later
            # sweeps (and sessions) start warm.
            measured: dict[int, float] = {}
            for stat in run.chunk_stats:
                if stat.get("served"):
                    # Cache-served chunks measure decode time, not
                    # simulation — folding them into the cost model
                    # would drag every coefficient toward zero.
                    continue
                i = stat["cell"]
                measured[i] = measured.get(i, 0.0) + stat["seconds"]
                signature = plans[i]["signature"]
                model.observe(signature, stat["replicates"], stat["seconds"])
                worker = stat.get("worker")
                if worker is not None:
                    model.observe_worker(
                        worker, signature, stat["replicates"], stat["seconds"]
                    )
            if store is not None and run.chunk_stats:
                store.store_cost_table(model.to_payload())
            self._last_sweep_report = self._sweep_report(
                cells, run.variants, run.pending, plans, measured,
                executor=executor, units=run.units,
                outcomes=run.outcomes, served=run.served,
            )

            sweep_key = None
            if store is not None:
                sweep_key = store.sweep_index_key(spec.key(), seeds, run.variants)
                store.store_sweep_index(
                    sweep_key,
                    {
                        "format": SWEEP_INDEX_FORMAT,
                        "sweep": spec.key(),
                        "seeds": [seed_token(s) for s in seeds],
                        "variants": list(run.variants),
                        "cells": run.keys,
                    },
                )

            self._stats["sweeps"] += 1
            simulated = set(run.pending) - run.served
            runs = [
                SweepCellRun(
                    cell=cells[i],
                    index=i,
                    seed=seeds[i],
                    variant=run.variants[i],
                    results=run.results[i],
                    cached=i not in simulated,
                )
                for i in range(len(cells))
            ]
            return SweepRun(spec=spec, cells=runs, sweep_key=sweep_key)
