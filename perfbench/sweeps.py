"""The two sweep workloads: serial and process pool.

Both run one grid of the paper's cells (uniform and additively biased
starts at n = 10^4, k from 3 to 8, one narrow and one wide replicate
count) through ``Engine.sweep`` on the batched backend, at the same
seeds: the process executor's calls are slower, so at one ``--seconds``
it makes fewer of them, and they are the first of the serial run's
(three serial and two process-pool calls at ``--seconds 20``).  A pass
is ``calls`` cold calls, each the first sweep of a fresh session with a
fresh store (the engine, and for the process executor its warm pool,
made before the call's clock starts), so every call simulates every
cell and writes it to the cache: the wide cell at the next seed of
the run's seed sequence, the narrow cell at a fixed seed (see
``UNIFORM_SEED``).

A session's cost model learns from every sweep, and on a 2-core host
the process executor's second sweep split the wide cell into about 40
chunks and took 77 s against 14 s for the first; a run could afford one
such call, so every call starts from the same, unlearned model.
"""

from __future__ import annotations

import os
import time

from common import (
    BACKEND,
    STREAM_CALLS,
    build_config,
    digest,
    note,
    seed_stream,
    vm_hwm_mb,
)

#: The shared grid.  The batched kernel runs a cell's replicates in
#: lockstep, so a cell costs about passes x (alpha + beta * R): the
#: narrow cell is nearly all alpha, the wide one adds the beta term the
#: planner's split decision turns on.
CELLS = (
    {"start": "uniform", "n": 10_000, "k": 3, "beta": 0, "trials": 8},
    {"start": "additive", "n": 10_000, "k": 8, "beta": 2_000, "trials": 32},
)
#: The narrow uniform cell always runs at this seed.  From a symmetric
#: start the time to consensus is heavy-tailed across seeds (n=10^4, k=3,
#: 8 replicates: 6.5 s to 11.7 s on a 2-core host), which would swamp
#: every throughput metric; the wide biased cell (about +-3% across
#: seeds) runs at the next seed of the run's sequence on every call.
UNIFORM_SEED = 20230224
TINY_CELLS = (
    {"start": "uniform", "n": 300, "k": 3, "beta": 0, "trials": 4},
    {"start": "additive", "n": 300, "k": 5, "beta": 30, "trials": 8},
)


def grid_spec(tiny: bool):
    from repro.engine import SweepSpec

    cells = TINY_CELLS if tiny else CELLS
    return SweepSpec.from_grid(
        [dict(cell) for cell in cells],
        build_config,
        trials=lambda params: params["trials"],
    )


def stats_delta(before: dict, after: dict) -> dict:
    """The engine counters one call moved (``Engine.stats()`` snapshots).

    ``pool_spawns`` is the session's total, its warm-up spawn included.
    """

    def transport(snap, field):
        return sum(
            snap["transport"].get(name, {}).get(field, 0)
            for name in ("shared", "pickle")
        )

    delta = {
        field: after[field] - before[field]
        for field in ("replicates_simulated", "replicates_from_cache")
    }
    delta["process_chunks"] = transport(after, "chunks") - transport(before, "chunks")
    delta["process_bytes"] = transport(after, "bytes") - transport(before, "bytes")
    delta["pool_spawns"] = after["pool"]["spawns"]
    return delta


class SweepWorkload:
    """Shared pass logic; subclasses choose the executor."""

    name = ""
    executor = "serial"
    jobs = 1
    #: Run time one cold call stands for on a 2-core host: ``--seconds``
    #: buys ``round(seconds / call_seconds)`` calls, so a given
    #: ``--seconds`` always means the same work.  The host's speed
    #: wanders in phases of seconds to tens of seconds: a fixed loop's
    #: mean over 10 s windows spread 0.125 (IQR/median over an eight
    #: minute trace), over 20 s windows 0.087 and no better beyond, so
    #: each workload times about 20 s.
    call_seconds = 6.5
    #: Whether cold results are checked against a serial recomputation.
    needs_reference = False
    #: In-process layers a traced pass wraps, and the per-layer metrics
    #: that must come out non-zero when it does (else the trace lost a
    #: layer and the run fails).
    layers = ("session", "kernel", "cache", "executors")
    nonzero_layers = (
        "kernel.busy_s",
        "kernel.calls",
        "kernel.replicates",
        "kernel.interactions",
        "costmodel.predicted_s",
        "costmodel.measured_s",
        "cache.loads",
        "cache.stores",
        "session.call_s",
    )

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.spec = grid_spec(ctx.tiny)
        self.calls = 2 if ctx.tiny else max(1, round(ctx.seconds / self.call_seconds))
        self.seeds = seed_stream(ctx.seed, STREAM_CALLS, self.calls)
        #: Serial digests per cold call, computed once per run.
        self.references: list[list[str]] | None = None

    def session(self):
        """A fresh engine session, ready to sweep."""
        from repro.engine import Engine

        return Engine(
            backend=BACKEND,
            executor=self.executor,
            jobs=self.jobs,
            cache=True,
            cache_dir=str(self.ctx.work.fresh(f"{self.name}-store")),
            workers=None,
        )

    def setup(self, traced: bool) -> dict:
        return {"engine": self.session(), "rss_mb": 0.0}

    def sweep(self, engine, index: int):
        return engine.sweep(self.spec, cell_seeds=[UNIFORM_SEED, self.seeds[index]])

    def close_session(self, state) -> None:
        """Close the session, keeping the program's peak RSS in MB."""
        engine = state.pop("engine")
        rss = vm_hwm_mb(os.getpid())
        rss += sum(vm_hwm_mb(pid) for pid in engine.worker_pids())
        engine.close()
        state["rss_mb"] = max(state["rss_mb"], rss)

    def teardown(self, state) -> float:
        if "engine" in state:
            self.close_session(state)
        return state["rss_mb"]

    # -- one pass ------------------------------------------------------
    def measure(self, state) -> dict:
        record = {
            "cold": [],
            "intervals": [],
            "digests": [],
            "interactions": 0,
            "replicates": 0,
            "cells_simulated": 0,
            "cells_served": 0,
            "reports": [],
            "stats": {},
            "attempted": 0,
            "failed": 0,
        }
        for index in range(self.calls):
            if "engine" not in state:
                state.update(self.setup(False), rss_mb=state["rss_mb"])
            engine = state["engine"]
            before = engine.stats()
            record["attempted"] += 1
            t0 = time.monotonic()
            try:
                run = self.sweep(engine, index)
            except Exception as exc:  # counted, and fails the checks
                record["failed"] += 1
                record.setdefault("errors", []).append(repr(exc))
                self.close_session(state)
                continue
            note(record, "cold", t0)
            record["reports"].append(engine.stats()["scheduler"]["last_sweep"])
            for field, value in stats_delta(before, engine.stats()).items():
                record["stats"][field] = record["stats"].get(field, 0) + value
            self.close_session(state)
            record["digests"].append([digest(c.results) for c in run])
            for cell_run in run:
                record["replicates"] += cell_run.cell.trials
                if cell_run.cached:
                    record["cells_served"] += 1
                else:
                    record["cells_simulated"] += 1
                    record["interactions"] += sum(
                        int(r.interactions) for r in cell_run.results
                    )
        record["requests"] = {"miss": len(record["cold"])}
        return record

    # -- checks --------------------------------------------------------
    def reference(self) -> list[list[str]]:
        """Serial digests of every cold call (recomputed, untimed).

        One store serves the whole recomputation, so the fixed-seed
        narrow cell is simulated once and read back for later calls.
        """
        from repro.engine import Engine

        with Engine(
            backend=BACKEND,
            executor="serial",
            jobs=1,
            cache=True,
            cache_dir=str(self.ctx.work.fresh("reference")),
            workers=None,
        ) as engine:
            return [
                [digest(c.results) for c in self.sweep(engine, index)]
                for index in range(self.calls)
            ]

    def verify(self, record, state) -> list[str]:
        failures = list(record.get("errors", [])[:3])
        digests = record["digests"]
        if self.needs_reference and digests:
            if self.references is None:
                self.references = self.reference()
            for index, (got, want) in enumerate(zip(digests, self.references)):
                if got != want:
                    failures.append(
                        f"cold call {index}: digests differ from the serial run"
                    )
        if any(d[0] != digests[0][0] for d in digests):
            failures.append("the fixed-seed cell changed between calls")
        if record["cells_served"]:
            failures.append(f"{record['cells_served']} cells were not cold")
        expected = self.calls * self.spec.total_trials
        simulated = record["stats"]["replicates_simulated"]
        if simulated != expected:
            failures.append(f"simulated {simulated} replicates, expected {expected}")
        return failures


class PaperSweep(SweepWorkload):
    """Serial executor: the single-threaded baseline."""

    name = "paper_sweep"


class ParallelSweep(SweepWorkload):
    """Process executor, two jobs: planning, chunking, pool, transport."""

    name = "parallel_sweep"
    executor = "process"
    jobs = 2
    call_seconds = 10.0
    needs_reference = True
    nonzero_layers = SweepWorkload.nonzero_layers + (
        "executors.chunks",
        "executors.replicates_per_chunk",
        "executors.transport_bytes",
        "executors.pool_spawns",
        "executors.busy_ratio",
    )

    def session(self):
        from repro.workloads import uniform_configuration

        engine = super().session()
        # Spawn the persistent pool now: it is set-up, not measured work.
        engine.ensemble(uniform_configuration(60, 2), 2, seed=0, cache=False)
        return engine
