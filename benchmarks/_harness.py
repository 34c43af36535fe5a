"""Shared harness for the benchmark suite.

Each ``bench_e##`` file regenerates one paper artifact through
pytest-benchmark.  Experiments run exactly once (``pedantic`` with one
round) because they are ensemble measurements, not micro-benchmarks; the
benchmark clock then reports the wall time of regenerating the artifact.

All ensembles inside the experiments run through the simulation engine
(:mod:`repro.engine`); set ``REPRO_ENGINE_BACKEND`` /
``REPRO_ENGINE_JOBS`` to re-benchmark the suite on a different backend
or a multiprocessing pool, and ``REPRO_BENCH_SCALE=full`` to regenerate
the full-scale numbers (minutes instead of seconds).

The rendered report (the same rows recorded in EXPERIMENTS.md) is printed
and archived under ``benchmarks/results/``.  :func:`run_engine_smoke`
measures serial jump-chain vs batched ensemble throughput,
:func:`run_scenario_smoke` times one ensemble per registered scenario,
:func:`run_kernel_ablation` compares the single-event vs multi-event
lockstep kernels and the batched graph/gossip kernels vs their serial
references, and :func:`run_sweep_smoke` times one heterogeneous
multi-cell sweep two ways — legacy per-cell ``run_ensemble`` barrier
vs the cost-model scheduler's flattened queue; all
write JSON artifacts (``BENCH_engine.json`` — engine smoke + ablation —
/ ``BENCH_scenarios.json`` / ``BENCH_sweeps.json``, used by
``engine_smoke.py`` / ``sweep_smoke.py`` and CI).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.lockstep import DEFAULT_EVENT_BLOCK
from repro.engine import (
    Engine,
    SweepSpec,
    active_options,
    get_backend,
    gossip_spec,
    graph_spec,
    noise_spec,
    replicate_seeds,
    run_ensemble,
    simulate_batch,
    simulate_batch_compiled,
    simulate_batch_single_event,
    usd_spec,
    zealot_spec,
)
from repro.workloads import uniform_configuration

RESULTS_DIR = Path(__file__).parent / "results"

# Interleaved repeats of each gossip arm; the ablation gates on their medians.
_GOSSIP_REPEATS = 5


def bench_scale() -> str:
    """Benchmark scale: ``quick`` by default, ``full`` via environment."""
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def execute(benchmark, experiment_id: str) -> None:
    """Run one experiment under the benchmark clock and archive its report."""
    # Imported here so the engine smoke (numpy-only) does not pull in the
    # experiment stack's scipy/networkx dependencies.
    from repro.experiments import run_experiment

    scale = bench_scale()
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"scale": scale},
        rounds=1,
        iterations=1,
    )
    report = result.render()
    print()
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{experiment_id.lower()}_{scale}.txt"
    out.write_text(report + "\n")
    (RESULTS_DIR / f"{experiment_id.lower()}_{scale}.json").write_text(result.to_json())
    assert result.passed, f"{experiment_id} failed its paper-vs-measured checks"


def run_engine_smoke(
    *,
    n: int = 10_000,
    k: int = 5,
    trials: int = 1000,
    serial_trials: int = 8,
    seed: int = 20230224,
    output: str | os.PathLike | None = None,
) -> dict:
    """Compare serial jump-chain vs batched ensemble throughput.

    The serial jump chain runs ``serial_trials`` replicates (its
    per-replicate cost is constant, so throughput extrapolates); the
    batched backend runs the full ``trials``-replicate ensemble.  Returns
    the measurement dictionary and, when ``output`` is given, writes it
    as JSON (the ``BENCH_engine.json`` CI artifact).
    """
    config = uniform_configuration(n, k)

    jump = get_backend("jump")
    start = time.perf_counter()
    serial_results = run_ensemble(
        config, serial_trials, seed=seed, backend=jump, executor="serial"
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_results = run_ensemble(
        config, trials, seed=seed, backend="batched", executor="serial"
    )
    batched_seconds = time.perf_counter() - start

    serial_throughput = serial_trials / serial_seconds
    batched_throughput = trials / batched_seconds
    record = {
        "workload": {"n": n, "k": k, "seed": seed},
        "engine_defaults": active_options().as_dict(),
        "serial": {
            "backend": "jump",
            "replicates": serial_trials,
            "seconds": serial_seconds,
            "replicates_per_second": serial_throughput,
            "converged": sum(r.converged for r in serial_results),
        },
        "batched": {
            "backend": "batched",
            "replicates": trials,
            "seconds": batched_seconds,
            "replicates_per_second": batched_throughput,
            "converged": sum(r.converged for r in batched_results),
        },
        "speedup": batched_throughput / serial_throughput,
    }
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record


def _ring_edges(n: int) -> np.ndarray:
    """Directed edge array of the bidirectional n-cycle (numpy-only)."""
    pairs = set()
    for i in range(n):
        for d in (-1, 1):
            pairs.add((i, (i + d) % n))
            pairs.add(((i + d) % n, i))
    return np.array(sorted(pairs), dtype=np.int64)


def _results_key(results) -> list:
    return [
        (
            tuple(r.final.counts.tolist()),
            getattr(r, "interactions", getattr(r, "rounds", None)),
            getattr(r, "winner", None),
        )
        for r in results
    ]


def run_scalar_tail_ablation(*, n: int = 10_000, seed: int = 20230224) -> dict:
    """Scalar-tail hand-off vs the plain numpy kernel, in one process.

    One packed two-cell :func:`~repro.core.lockstep.lockstep_batch` call
    shaped like ``paper_sweep``'s: 2 uniform-start k=3 columns beside 18
    k=8 columns of additive bias ``n // 5``, padded to k=8.  20 columns
    start above the kernel's knee, so the call has a wide phase and a
    tail.  Rounds alternate the plain kernel (knee 0: never hands off)
    and the built-in knee, best of 3 each, so both arms see the same
    host phases; the two arms must agree bit for bit.
    """
    from repro.core import lockstep
    from repro.workloads import additive_bias_configuration

    uniform, additive, rounds = 2, 18, 3
    cells = (
        (uniform_configuration(n, 3).counts, uniform),
        (additive_bias_configuration(n, 8, n // 5).counts, additive),
    )
    counts = np.array(
        [np.pad(c, (0, 9 - c.size)) for c, width in cells for _ in range(width)]
    )
    seeds = replicate_seeds(seed, len(counts))
    knee = lockstep._SCALAR_KNEE
    seconds: dict[str, list[float]] = {"plain": [], "hand_off": []}
    outputs = {}
    try:
        for _ in range(rounds):
            for arm, arm_knee in (("plain", 0), ("hand_off", knee)):
                lockstep._SCALAR_KNEE = arm_knee
                rngs = [np.random.default_rng(s) for s in seeds]
                start = time.perf_counter()
                outputs[arm] = lockstep.lockstep_batch(
                    counts, np.zeros(8, dtype=np.int64), n,
                    rngs=rngs, max_interactions=2**53 - 1,
                )
                seconds[arm].append(time.perf_counter() - start)
    finally:
        lockstep._SCALAR_KNEE = knee
    identical = all(
        np.array_equal(a, b) for a, b in zip(outputs["plain"], outputs["hand_off"])
    )
    assert identical, "scalar-tail hand-off diverged from the plain kernel"
    plain, hand_off = min(seconds["plain"]), min(seconds["hand_off"])
    return {
        "workload": {
            "n": n,
            "uniform_k3_columns": uniform,
            "additive_k8_columns": additive,
            "additive_beta": n // 5,
            "seed": seed,
            "rounds": rounds,
        },
        "knee": knee,
        "probe": lockstep._SCALAR_LOG1P_BITWISE,
        "plain_seconds": seconds["plain"],
        "hand_off_seconds": seconds["hand_off"],
        "speedup": plain / hand_off,
        "bit_identical": identical,
    }


def run_kernel_ablation(
    *,
    n: int = 10_000,
    k: int = 5,
    trials: int = 1000,
    event_blocks: tuple = (1,),
    graph_n: int = 256,
    graph_replicates: int = 256,
    graph_serial_replicates: int = 2,
    graph_budget: int = 100_000,
    gossip_n: int = 96,
    gossip_replicates: int = 512,
    seed: int = 20230224,
    output: str | os.PathLike | None = None,
) -> dict:
    """Kernel ablation: every batched-execution axis against its baseline.

    * **lockstep** — the pre-overhaul single-event kernel
      (:func:`simulate_batch_single_event`, one event per numpy pass)
      vs the multi-event kernel at several ``event_block`` sizes on the
      acceptance workload; the headline ``speedup`` is multi-event at
      the profiled default block against the single-event baseline.
    * **scalar_tail** — the lockstep kernel handing its narrow tail to
      the per-column Python loop vs the same packed call kept in numpy
      throughout (:func:`run_scalar_tail_ablation`), asserted
      bit-identical.
    * **graph** — the serial per-interaction Python kernel (throughput
      extrapolated from a small sample, its per-replicate cost is
      constant) vs the per-edge-array lockstep batch, asserted
      bit-identical.
    * **gossip** — per-replicate serial rounds vs the stacked-replicate
      round engine, asserted bit-identical on every repeat.  The batched
      arm takes only ~0.05 s, so both arms run ``_GOSSIP_REPEATS`` times,
      interleaved, and ``speedup`` is the ratio of their medians: one
      slow host phase moves one sample, not the gate.
    * **compiled** — the numba-jitted tier against its numpy baseline on
      every axis that has one (lockstep, graph, gossip).  With numba the
      jitted kernels are timed and validated — bit-identical where the
      contract promises it, else through the shared
      :mod:`repro.core.crossval` gate (the same implementation the test
      suite applies).  Without numba the section only records that the
      fallback reproduces the numpy kernels bit-for-bit, and CI skips
      the compiled speedup gate.

    Returns the measurement dictionary (the ``"ablation"`` section of
    ``BENCH_engine.json``); writes it standalone when ``output`` is
    given.
    """
    from repro.gossip.engine import run_gossip, run_gossip_batch
    from repro.gossip.usd import usd_gossip_round, usd_gossip_round_batch
    from repro.graphs.dynamics import run_on_edges, run_on_edges_batch

    record: dict = {}

    # ---- single-event vs multi-event lockstep -----------------------
    config = uniform_configuration(n, k)
    seeds = replicate_seeds(seed, trials)
    start = time.perf_counter()
    simulate_batch_single_event(
        config, rngs=[np.random.default_rng(s) for s in seeds]
    )
    single_seconds = time.perf_counter() - start
    default_block = DEFAULT_EVENT_BLOCK
    blocks = sorted(set(event_blocks) | {default_block})
    block_rows = {}
    multi_results = None
    for block in blocks:
        start = time.perf_counter()
        results = simulate_batch(
            config,
            rngs=[np.random.default_rng(s) for s in seeds],
            event_block=block,
        )
        block_rows[str(block)] = time.perf_counter() - start
        if block == default_block:
            multi_results = results
    multi_seconds = block_rows[str(default_block)]
    record["lockstep"] = {
        "workload": {"n": n, "k": k, "replicates": trials, "seed": seed},
        "single_event": {
            "kernel": "simulate_batch_single_event",
            "seconds": single_seconds,
            "replicates_per_second": trials / single_seconds,
        },
        "multi_event": {
            "event_block": default_block,
            "seconds": multi_seconds,
            "replicates_per_second": trials / multi_seconds,
        },
        "event_block_seconds": block_rows,
        "speedup": single_seconds / multi_seconds,
    }

    # ---- scalar tail vs plain numpy, one packed call ----------------
    # Capped at the paper's n = 10^4 so a large-n ablation stays cheap.
    record["scalar_tail"] = run_scalar_tail_ablation(n=min(n, 10_000), seed=seed)

    # ---- batched graph kernel vs serial reference -------------------
    edges = _ring_edges(graph_n)
    graph_config = uniform_configuration(graph_n, 2)
    states = graph_config.to_states(np.random.default_rng(seed))
    start = time.perf_counter()
    serial_graph = [
        run_on_edges(
            edges, states, rng=np.random.default_rng(seed + i), k=2,
            max_interactions=graph_budget,
        )
        for i in range(graph_serial_replicates)
    ]
    graph_serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched_graph = run_on_edges_batch(
        edges,
        states,
        rngs=[np.random.default_rng(seed + i) for i in range(graph_replicates)],
        k=2,
        max_interactions=graph_budget,
    )
    graph_batch_seconds = time.perf_counter() - start
    assert _results_key(serial_graph) == _results_key(
        batched_graph[:graph_serial_replicates]
    ), "batched graph kernel diverged from the serial reference"
    graph_serial_rps = graph_serial_replicates / graph_serial_seconds
    graph_batch_rps = graph_replicates / graph_batch_seconds
    record["graph"] = {
        "workload": {
            "n": graph_n,
            "k": 2,
            "edges": int(edges.shape[0]),
            "replicates": graph_replicates,
            "serial_replicates": graph_serial_replicates,
            "max_interactions": graph_budget,
        },
        "serial": {
            "seconds": graph_serial_seconds,
            "replicates_per_second": graph_serial_rps,
        },
        "batched": {
            "seconds": graph_batch_seconds,
            "replicates_per_second": graph_batch_rps,
        },
        "speedup": graph_batch_rps / graph_serial_rps,
        "bit_identical": True,
    }

    # ---- batched gossip rounds vs serial reference ------------------
    gossip_config = uniform_configuration(gossip_n, 3)
    gossip_seeds = [seed + i for i in range(gossip_replicates)]

    def gossip_serial():
        return [
            run_gossip(gossip_config, usd_gossip_round, rng=np.random.default_rng(s))
            for s in gossip_seeds
        ]

    def gossip_batched():
        return run_gossip_batch(
            gossip_config,
            usd_gossip_round_batch,
            rngs=[np.random.default_rng(s) for s in gossip_seeds],
        )

    gossip_times = {"serial": [], "batched": []}
    for repeat in range(_GOSSIP_REPEATS):
        arms = [("serial", gossip_serial), ("batched", gossip_batched)]
        outputs = {}
        for name, arm in arms if repeat % 2 == 0 else arms[::-1]:
            start = time.perf_counter()
            outputs[name] = arm()
            gossip_times[name].append(time.perf_counter() - start)
        assert _results_key(outputs["serial"]) == _results_key(
            outputs["batched"]
        ), "batched gossip engine diverged from the serial reference"
    batched_gossip = outputs["batched"]
    gossip_serial_seconds = float(np.median(gossip_times["serial"]))
    gossip_batch_seconds = float(np.median(gossip_times["batched"]))
    record["gossip"] = {
        "workload": {"n": gossip_n, "k": 3, "replicates": gossip_replicates},
        "repeats": _GOSSIP_REPEATS,
        "serial": {
            "seconds": gossip_serial_seconds,
            "seconds_per_repeat": gossip_times["serial"],
            "replicates_per_second": gossip_replicates / gossip_serial_seconds,
        },
        "batched": {
            "seconds": gossip_batch_seconds,
            "seconds_per_repeat": gossip_times["batched"],
            "replicates_per_second": gossip_replicates / gossip_batch_seconds,
        },
        "speedup": gossip_serial_seconds / gossip_batch_seconds,
        "bit_identical": True,
    }

    # ---- compiled (numba) tier vs the numpy kernels -----------------
    from repro.core.crossval import compare_ensembles
    from repro.kernels import HAVE_NUMBA, LOG1P_BITWISE
    from repro.kernels.gossip_jit import usd_gossip_round_batch_compiled
    from repro.kernels.graph_jit import run_on_edges_batch_compiled

    compiled: dict = {"available": HAVE_NUMBA, "log1p_bitwise": LOG1P_BITWISE}
    if HAVE_NUMBA:
        # Warm the JIT caches outside the clocks — compilation time is a
        # one-off per machine (njit cache=True), not kernel throughput.
        simulate_batch_compiled(config, rngs=[np.random.default_rng(seeds[0])])
        start = time.perf_counter()
        compiled_lockstep = simulate_batch_compiled(
            config, rngs=[np.random.default_rng(s) for s in seeds]
        )
        compiled_lockstep_seconds = time.perf_counter() - start
        lockstep_row = {
            "seconds": compiled_lockstep_seconds,
            "replicates_per_second": trials / compiled_lockstep_seconds,
            "speedup": multi_seconds / compiled_lockstep_seconds,
            "bit_identical": LOG1P_BITWISE,
        }
        # Event selection is exact arithmetic on the shared uniforms, so
        # final counts always match; the log1p waiting-time channel is
        # bit-identical only when the host's np.log1p agrees with libm,
        # and is otherwise gated distributionally (the shared gate).
        assert [tuple(r.final.counts.tolist()) for r in multi_results] == [
            tuple(r.final.counts.tolist()) for r in compiled_lockstep
        ], "compiled lockstep kernel diverged from the numpy tier"
        if LOG1P_BITWISE:
            assert _results_key(multi_results) == _results_key(
                compiled_lockstep
            ), "compiled lockstep kernel not bit-identical despite probe"
        else:
            report = compare_ensembles(multi_results, compiled_lockstep, k=k)
            assert report.ok, f"compiled lockstep failed crossval: {report}"
            lockstep_row["crossval"] = dict(report)
        compiled["lockstep"] = lockstep_row

        run_on_edges_batch_compiled(
            edges, states, rngs=[np.random.default_rng(seed)], k=2,
            max_interactions=graph_budget,
        )
        start = time.perf_counter()
        compiled_graph = run_on_edges_batch_compiled(
            edges,
            states,
            rngs=[
                np.random.default_rng(seed + i) for i in range(graph_replicates)
            ],
            k=2,
            max_interactions=graph_budget,
        )
        compiled_graph_seconds = time.perf_counter() - start
        assert _results_key(batched_graph) == _results_key(
            compiled_graph
        ), "compiled graph kernel diverged from the numpy batch kernel"
        compiled["graph"] = {
            "seconds": compiled_graph_seconds,
            "replicates_per_second": graph_replicates / compiled_graph_seconds,
            "speedup": graph_batch_seconds / compiled_graph_seconds,
            "bit_identical": True,
        }

        run_gossip_batch(
            gossip_config,
            usd_gossip_round_batch_compiled,
            rngs=[np.random.default_rng(seed)],
        )
        start = time.perf_counter()
        compiled_gossip = run_gossip_batch(
            gossip_config,
            usd_gossip_round_batch_compiled,
            rngs=[
                np.random.default_rng(seed + i)
                for i in range(gossip_replicates)
            ],
        )
        compiled_gossip_seconds = time.perf_counter() - start
        assert _results_key(batched_gossip) == _results_key(
            compiled_gossip
        ), "compiled gossip rule diverged from the numpy batch rule"
        compiled["gossip"] = {
            "seconds": compiled_gossip_seconds,
            "replicates_per_second": gossip_replicates / compiled_gossip_seconds,
            "speedup": gossip_batch_seconds / compiled_gossip_seconds,
            "bit_identical": True,
        }
    else:
        # Without numba the compiled entry points must BE the numpy
        # kernels; a small sample checks the delegation bit-for-bit.
        sample = 8
        fallback_lockstep = simulate_batch_compiled(
            config, rngs=[np.random.default_rng(s) for s in seeds[:sample]]
        )
        assert _results_key(multi_results[:sample]) == _results_key(
            fallback_lockstep
        ), "compiled lockstep fallback diverged from the numpy kernel"
        fallback_graph = run_on_edges_batch_compiled(
            edges, states, rngs=[np.random.default_rng(seed + i) for i in range(sample)],
            k=2, max_interactions=graph_budget,
        )
        assert _results_key(batched_graph[:sample]) == _results_key(
            fallback_graph
        ), "compiled graph fallback diverged from the numpy kernel"
        fallback_gossip = run_gossip_batch(
            gossip_config,
            usd_gossip_round_batch_compiled,
            rngs=[np.random.default_rng(seed + i) for i in range(sample)],
        )
        assert _results_key(batched_gossip[:sample]) == _results_key(
            fallback_gossip
        ), "compiled gossip fallback diverged from the numpy rule"
        compiled["fallback_identical"] = True
    record["compiled"] = compiled

    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record


def run_sweep_smoke(
    *,
    ns: list[int] | None = None,
    ks: list[int] | None = None,
    k: int | None = None,
    trials: int = 8,
    jobs: int = 2,
    seed: int = 20230224,
    rounds: int = 3,
    output: str | os.PathLike | None = None,
) -> dict:
    """Scheduling ablation on one heterogeneous sweep grid.

    Times the identical ``ns x ks`` grid (per-replicate cost spans two
    orders of magnitude across cells — the phase-diagram shape sweeps
    actually take) two ways on the multiprocessing executor with the
    same per-cell seeds:

    * **legacy_per_cell_barrier** — the pre-sweep, pre-session shape:
      one ``run_ensemble`` barrier per cell on a fresh one-cell
      ``Engine`` (fresh pool per cell, every cell stalls on its slowest
      replicate before the next may start);
    * **cost_scheduler** — one flattened work queue on a session pool:
      cells ordered longest-predicted-first and chunked into target
      wall-time slices, its cost model warmed by an untimed calibration
      sweep at different seeds (which also spawns the pool, so the
      timed window does not pay for it).

    Both result sets are asserted bit-identical — scheduling moves wall
    time, never bits — and the headline ``speedup`` is legacy/cost (CI
    gates it at >= 1.3x).  The arms are interleaved for ``rounds``
    rounds and each reports its fastest round, so drift on a shared or
    thermally-throttled runner hits both alike instead of whichever arm
    ran last.  Writes ``BENCH_sweeps.json`` when
    ``output`` is given (the CI artifact).
    """
    ns = ns if ns is not None else [20, 30, 45, 60, 90, 120, 180, 240]
    ks = ks if ks is not None else ([k] if k is not None else [2, 3, 4, 5])
    grid = [{"n": n, "k": k_} for n in ns for k_ in ks]
    spec = SweepSpec.from_grid(grid, uniform_configuration, trials=trials)
    cell_seeds = [seed + index for index in range(len(grid))]

    def outcome_key(outcome):
        return [
            (r.interactions, r.winner)
            for cell in outcome
            for r in cell.results
        ]

    # Untimed warm-up: spawns the session pool and seeds the online
    # model with measured chunk times, so the timed window isolates
    # scheduling, not spawn or cold-start.
    calibration = SweepSpec.from_grid(grid, uniform_configuration, trials=2)

    times: dict[str, list[float]] = {"legacy": [], "cost": []}
    report = None
    reference_key = None
    with Engine(jobs=jobs) as cost_eng:
        cost_eng.sweep(
            calibration, seed=seed - 1, executor="process", jobs=jobs
        )
        for _round in range(max(1, int(rounds))):
            start = time.perf_counter()
            legacy_results = []
            for params, cell_seed in zip(grid, cell_seeds):
                with Engine(jobs=jobs) as cell_engine:
                    legacy_results.append(
                        cell_engine.ensemble(
                            uniform_configuration(**params),
                            trials,
                            seed=cell_seed,
                            executor="process",
                            jobs=jobs,
                        )
                    )
            times["legacy"].append(time.perf_counter() - start)
            legacy_key = [
                (r.interactions, r.winner)
                for cell in legacy_results
                for r in cell
            ]
            if reference_key is None:
                reference_key = legacy_key
            assert legacy_key == reference_key

            start = time.perf_counter()
            outcome = cost_eng.sweep(
                spec, cell_seeds=cell_seeds, executor="process", jobs=jobs
            )
            times["cost"].append(time.perf_counter() - start)
            assert outcome_key(outcome) == reference_key, (
                "cost scheduler diverged from the per-cell loop"
            )
        report = cost_eng.stats()["scheduler"]["last_sweep"]

    legacy_seconds = min(times["legacy"])
    cost_seconds = min(times["cost"])
    replicates = spec.total_trials
    record = {
        "workload": {
            "ns": ns,
            "ks": ks,
            "trials_per_cell": trials,
            "seed": seed,
            "rounds": max(1, int(rounds)),
        },
        "jobs": jobs,
        "cells": len(grid),
        "replicates": replicates,
        "legacy_per_cell_barrier": {
            "seconds": legacy_seconds,
            "round_seconds": times["legacy"],
            "replicates_per_second": replicates / legacy_seconds,
        },
        "cost_scheduler": {
            "seconds": cost_seconds,
            "round_seconds": times["cost"],
            "replicates_per_second": replicates / cost_seconds,
            "predicted_seconds": report["predicted_seconds"],
            "measured_seconds": report["measured_seconds"],
            "prediction_error": report["prediction_error"],
        },
        "speedup": legacy_seconds / cost_seconds,
        "bit_identical": True,
    }
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record


def run_pool_reuse_smoke(
    *,
    ns: list[int] | None = None,
    k: int = 3,
    trials: int = 4,
    sweeps: int = 5,
    jobs: int = 2,
    seed: int = 20230224,
    rounds: int = 3,
    output: str | os.PathLike | None = None,
) -> dict:
    """Persistent-pool ablation: fresh pool per sweep vs one session pool.

    Runs the same sequence of ``sweeps`` small sweeps twice on the
    process executor: once the pre-session way — a fresh
    :class:`repro.engine.Engine` (and therefore a fresh worker pool) per
    sweep, spawn and teardown paid every time — and once through ONE
    session whose lazily-spawned pool serves every sweep.  Per-sweep
    seeds differ so nothing is cached; results are asserted identical
    between the two modes (pool lifetime cannot affect them), so the
    timing gap is pure worker spawn/teardown amortization — the win a
    whole ``repro report`` or repeated-sweep workload collects from the
    session redesign.  Merged into ``BENCH_sweeps.json`` by
    ``sweep_smoke.py`` (the CI artifact, gated at >= 1.2x).

    The default workload is deliberately tiny (pool spawn must dominate
    simulation time for the ablation to isolate it); real workloads see
    a smaller relative win per sweep but the same absolute saving per
    avoided spawn.  Like :func:`run_sweep_smoke`, the two arms are
    interleaved for ``rounds`` rounds and each reports its fastest
    round, so shared-runner drift cannot decide the comparison.
    """
    ns = ns if ns is not None else [40, 60]
    grid = [{"n": n, "k": k} for n in ns]
    spec = SweepSpec.from_grid(grid, uniform_configuration, trials=trials)
    sweep_seeds = [seed + index for index in range(sweeps)]

    def outcome_key(outcome):
        return [
            (r.interactions, r.winner)
            for cell in outcome
            for r in cell.results
        ]

    fresh_times, reused_times = [], []
    reference_keys = None
    for _round in range(max(1, int(rounds))):
        start = time.perf_counter()
        fresh_keys = []
        for sweep_seed in sweep_seeds:
            with Engine(jobs=jobs) as eng:
                fresh_keys.append(
                    outcome_key(
                        eng.sweep(
                            spec, seed=sweep_seed, executor="process", jobs=jobs
                        )
                    )
                )
        fresh_times.append(time.perf_counter() - start)

        start = time.perf_counter()
        reused_keys = []
        with Engine(jobs=jobs) as eng:
            for sweep_seed in sweep_seeds:
                reused_keys.append(
                    outcome_key(
                        eng.sweep(
                            spec, seed=sweep_seed, executor="process", jobs=jobs
                        )
                    )
                )
            session_stats = eng.stats()
        reused_times.append(time.perf_counter() - start)

        assert fresh_keys == reused_keys, "pool lifetime changed sweep results"
        if reference_keys is None:
            reference_keys = fresh_keys
        assert fresh_keys == reference_keys
        assert session_stats["pool"]["spawns"] == 1, "session pool was respawned"
        assert session_stats["pool"]["reuses"] == sweeps - 1

    fresh_seconds = min(fresh_times)
    reused_seconds = min(reused_times)
    replicates = spec.total_trials * sweeps
    record = {
        "workload": {
            "ns": ns,
            "k": k,
            "trials_per_cell": trials,
            "sweeps": sweeps,
            "seed": seed,
            "rounds": max(1, int(rounds)),
        },
        "jobs": jobs,
        "replicates": replicates,
        "fresh_pool_per_sweep": {
            "seconds": fresh_seconds,
            "round_seconds": fresh_times,
            "pool_spawns": sweeps,
            "replicates_per_second": replicates / fresh_seconds,
        },
        "session_reused_pool": {
            "seconds": reused_seconds,
            "round_seconds": reused_times,
            "pool_spawns": 1,
            "pool_reuses": sweeps - 1,
            "replicates_per_second": replicates / reused_seconds,
        },
        "speedup": fresh_seconds / reused_seconds,
        "bit_identical": True,
    }
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record


def run_remote_smoke(
    *,
    ns: list[int] | None = None,
    ks: list[int] | None = None,
    trials: int = 6,
    jobs: int = 2,
    seed: int = 20230224,
    rounds: int = 3,
    warm_ns: list[int] | None = None,
    warm_ks: list[int] | None = None,
    warm_trials: int = 12,
    output: str | os.PathLike | None = None,
) -> dict:
    """Remote-executor smoke: socket workers vs the process pool.

    Times one heterogeneous ``ns x ks`` sweep two ways with identical
    per-cell seeds: the process executor at ``jobs`` workers, and the
    remote executor with ``jobs`` localhost ``repro worker``
    subprocesses attached to the session's :class:`WorkerPool` — real
    ``python -m repro worker`` processes speaking the framed socket
    protocol, not in-process shortcuts.  Both result sets are asserted
    bit-identical (the executor moves bytes, never bits), the arms are
    interleaved min-of-rounds like every other smoke here, and the
    headline ``throughput_ratio`` (remote rep/s over process rep/s) is
    what CI gates — loopback framing overhead is real, so the gate is
    a floor (>= 0.7x at 2 jobs), not a speedup claim; the win arrives
    with workers on *other* machines.

    A second measurement, **kill_requeue**, reruns the sweep with one
    deliberately flaky worker (``abort_after=1``: it drops the
    connection mid-chunk, without replying, on its second dispatch) next
    to one healthy ``repro worker`` subprocess, and asserts the pool
    requeued at least one chunk AND the results still match — worker
    death costs wall time, never bits, because every chunk carries its
    replicates' ``SeedSequence`` children.

    A third measurement, **warm_cache**, times a heavier
    ``warm_ns x warm_ks`` sweep twice against two subprocess workers
    with separate ``--cache-dir`` stores: the cold pass simulates and
    write-back replication populates both stores; the warm pass (fresh
    fleet, cache-less coordinator) is served entirely out of the
    workers' caches.  Asserted bit-identical with **zero** replicates
    simulated; the headline ``warm_cache.speedup`` (cold seconds over
    warm seconds) is gated >= 3x in CI.
    """
    import subprocess
    import sys as _sys
    import threading

    from repro.engine.remote import serve_worker

    ns = ns if ns is not None else [20, 30, 60, 90, 120]
    ks = ks if ks is not None else [2, 3]
    warm_ns = warm_ns if warm_ns is not None else [200, 400, 800]
    warm_ks = warm_ks if warm_ks is not None else [2, 3]
    grid = [{"n": n, "k": k_} for n in ns for k_ in ks]
    spec = SweepSpec.from_grid(grid, uniform_configuration, trials=trials)
    cell_seeds = [seed + index for index in range(len(grid))]
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    def outcome_key(outcome):
        return [
            (r.interactions, r.winner)
            for cell in outcome
            for r in cell.results
        ]

    def spawn_worker(endpoint: str, name: str) -> subprocess.Popen:
        # Store-less on purpose: with a cache dir the fleet would serve
        # round 2+ straight out of round 1's write-back pushes, and the
        # cold-execution arms would measure the cache fabric instead.
        return subprocess.Popen(
            [
                _sys.executable,
                "-m",
                "repro",
                "worker",
                endpoint,
                "--name",
                name,
                "--no-cache",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )

    calibration = SweepSpec.from_grid(grid, uniform_configuration, trials=2)
    times: dict[str, list[float]] = {"process": [], "remote": []}
    procs: list[subprocess.Popen] = []
    reference_key = None
    with Engine(jobs=jobs) as process_eng, Engine(executor="remote") as remote_eng:
        pool = remote_eng.worker_pool()
        procs = [
            spawn_worker(pool.endpoint, f"bench-{i}") for i in range(jobs)
        ]
        try:
            pool.wait_for_workers(jobs, timeout=120)
            # Untimed warm-up on both arms: pool spawn, worker import
            # cost and cost-model cold start stay out of the windows.
            process_eng.sweep(
                calibration, seed=seed - 1, executor="process", jobs=jobs
            )
            remote_eng.sweep(calibration, seed=seed - 1, executor="remote")
            for _round in range(max(1, int(rounds))):
                start = time.perf_counter()
                process_outcome = process_eng.sweep(
                    spec, cell_seeds=cell_seeds, executor="process", jobs=jobs
                )
                times["process"].append(time.perf_counter() - start)
                if reference_key is None:
                    reference_key = outcome_key(process_outcome)
                assert outcome_key(process_outcome) == reference_key
                start = time.perf_counter()
                remote_outcome = remote_eng.sweep(
                    spec, cell_seeds=cell_seeds, executor="remote"
                )
                times["remote"].append(time.perf_counter() - start)
                assert outcome_key(remote_outcome) == reference_key, (
                    "remote executor diverged from the process pool"
                )
            transport = remote_eng.stats()["transport"]
            workers_report = remote_eng.stats()["scheduler"]["last_sweep"][
                "workers"
            ]
        finally:
            remote_eng.close()  # bye -> subprocess workers exit cleanly
            for proc in procs:
                if proc.wait(timeout=30) != 0:
                    raise RuntimeError("a bench worker exited non-zero")

    # Kill-and-requeue: a flaky in-process worker (deterministic
    # mid-chunk death on its second dispatch) beside one healthy
    # subprocess worker; batch_size=2 chunks guarantee the flaky worker
    # is dispatched that fatal second chunk.
    with Engine(executor="remote") as eng:
        pool = eng.worker_pool()
        flaky = threading.Thread(
            target=lambda: serve_worker(
                pool.endpoint, name="flaky", abort_after=1
            ),
            daemon=True,
        )
        flaky.start()
        proc = spawn_worker(pool.endpoint, "steady")
        try:
            pool.wait_for_workers(2, timeout=120)
            outcome = eng.sweep(
                spec, cell_seeds=cell_seeds, executor="remote", batch_size=2
            )
            requeued = pool.chunks_requeued
        finally:
            eng.close()
            if proc.wait(timeout=30) != 0:
                raise RuntimeError("the steady bench worker exited non-zero")
    assert requeued >= 1, "the flaky worker's chunk was never requeued"
    assert outcome_key(outcome) == reference_key, (
        "worker death changed sweep results"
    )

    # Warm-cache fabric: the same (heavier) sweep twice against two
    # subprocess workers, each with its own store.  The cold pass
    # simulates everything and the coordinator's write-back replication
    # pushes every cell to both workers; the warm pass then runs with a
    # cache-less coordinator and a *fresh* fleet over the same stores,
    # so every replicate must come back via serve-cached — zero
    # simulation, bit-identical, and far past the 3x throughput gate
    # because only probe/serve round-trips remain.
    import tempfile

    warm_grid = [{"n": n, "k": k_} for n in warm_ns for k_ in warm_ks]
    warm_spec = SweepSpec.from_grid(
        warm_grid, uniform_configuration, trials=warm_trials
    )
    warm_seeds = [seed + 1000 + index for index in range(len(warm_grid))]

    def fleet_pass(tmp_root: Path, *, cold: bool):
        options = (
            {"cache": True, "cache_dir": str(tmp_root / "coord")}
            if cold
            else {"cache": False}
        )
        with Engine(executor="remote", **options) as eng:
            pool = eng.worker_pool()
            fleet = [
                subprocess.Popen(
                    [
                        _sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        pool.endpoint,
                        "--name",
                        f"warm-{i}",
                        "--cache-dir",
                        str(tmp_root / f"store-{i}"),
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.STDOUT,
                )
                for i in range(2)
            ]
            try:
                pool.wait_for_workers(2, timeout=120)
                start = time.perf_counter()
                outcome = eng.sweep(
                    warm_spec, cell_seeds=warm_seeds, executor="remote"
                )
                elapsed = time.perf_counter() - start
                stats = eng.stats()
            finally:
                # bye follows the write-back pushes on each socket, so
                # waiting the workers out guarantees the stores are
                # written before the next pass reads them.
                eng.close()
                for proc in fleet:
                    if proc.wait(timeout=60) != 0:
                        raise RuntimeError("a warm-fleet worker exited non-zero")
        return outcome, elapsed, stats

    with tempfile.TemporaryDirectory(prefix="repro-warm-fleet-") as tmp:
        tmp_root = Path(tmp)
        cold_outcome, cold_seconds, _cold_stats = fleet_pass(
            tmp_root, cold=True
        )
        warm_outcome, warm_seconds, warm_stats = fleet_pass(
            tmp_root, cold=False
        )
    assert outcome_key(warm_outcome) == outcome_key(cold_outcome), (
        "warm fleet-served sweep diverged from its cold run"
    )
    assert warm_stats["replicates_simulated"] == 0, (
        f"warm pass simulated {warm_stats['replicates_simulated']} replicates"
    )
    warm_fabric = warm_stats["cache"]["fabric"]
    assert warm_fabric["served"] == len(warm_grid), (
        f"only {warm_fabric['served']}/{len(warm_grid)} cells fleet-served"
    )
    warm_speedup = cold_seconds / warm_seconds

    process_seconds = min(times["process"])
    remote_seconds = min(times["remote"])
    replicates = spec.total_trials
    record = {
        "workload": {
            "ns": ns,
            "ks": ks,
            "trials_per_cell": trials,
            "seed": seed,
            "rounds": max(1, int(rounds)),
        },
        "jobs": jobs,
        "cells": len(grid),
        "replicates": replicates,
        "process_executor": {
            "seconds": process_seconds,
            "round_seconds": times["process"],
            "replicates_per_second": replicates / process_seconds,
        },
        "remote_executor": {
            "seconds": remote_seconds,
            "round_seconds": times["remote"],
            "replicates_per_second": replicates / remote_seconds,
            "socket_chunks": transport["socket"]["chunks"],
            "socket_bytes": transport["socket"]["bytes"],
            "workers": workers_report,
        },
        "throughput_ratio": process_seconds / remote_seconds,
        "kill_requeue": {
            "chunks_requeued": requeued,
            "bit_identical": True,
        },
        "warm_cache": {
            "workload": {
                "ns": warm_ns,
                "ks": warm_ks,
                "trials_per_cell": warm_trials,
            },
            "cells": len(warm_grid),
            "replicates": warm_spec.total_trials,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": warm_speedup,
            "replicates_simulated": warm_stats["replicates_simulated"],
            "replicates_served": warm_stats["replicates_served_remote"],
            "fabric": warm_fabric,
            "bit_identical": True,
        },
        "bit_identical": True,
    }
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record


def _complete_graph_edges(n: int) -> np.ndarray:
    """All ordered pairs of ``0..n-1`` including self-loops (numpy-only).

    Matches ``build_edge_list(nx.complete_graph(n))`` up to row order —
    the kernel samples rows uniformly, so order is irrelevant — without
    pulling networkx into the smoke.
    """
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


def run_scenario_smoke(
    *,
    seed: int = 20230224,
    output: str | os.PathLike | None = None,
) -> dict:
    """Run one small ensemble per registered scenario and time it.

    Every workload goes through ``run_ensemble``, so this exercises the
    whole scenario layer (spec construction, variant resolution, the
    batched zealot/noise kernels) end to end.  Writes the per-scenario
    timing dictionary as JSON when ``output`` is given (the
    ``BENCH_scenarios.json`` CI artifact).
    """
    workloads = {
        "usd": {
            "spec": usd_spec(uniform_configuration(2000, 3)),
            "trials": 16,
            "backend": "batched",
        },
        "graph": {
            "spec": graph_spec(
                _complete_graph_edges(200), config=uniform_configuration(200, 2)
            ),
            "trials": 4,
            "backend": None,
        },
        "zealots": {
            "spec": zealot_spec(uniform_configuration(2000, 3), [0, 0, 50]),
            "trials": 16,
            "backend": "batched",
            "max_interactions": 2_000_000,
        },
        "noise": {
            "spec": noise_spec(uniform_configuration(500, 3), 0.01, 20_000),
            "trials": 8,
            "backend": "batched",
        },
        "gossip": {
            "spec": gossip_spec(uniform_configuration(2000, 3)),
            "trials": 16,
            "backend": None,
        },
    }
    record = {
        "seed": seed,
        "engine_defaults": active_options().as_dict(),
        "scenarios": {},
    }
    for name, workload in workloads.items():
        spec = workload["spec"]
        trials = workload["trials"]
        start = time.perf_counter()
        results = run_ensemble(
            spec,
            trials,
            seed=seed,
            backend=workload.get("backend"),
            executor="serial",
            max_interactions=workload.get("max_interactions"),
        )
        seconds = time.perf_counter() - start
        record["scenarios"][name] = {
            "n": spec.config.n,
            "k": spec.config.k,
            "replicates": trials,
            "seconds": seconds,
            "replicates_per_second": trials / seconds,
            "converged": sum(
                1 for r in results if getattr(r, "converged", False)
            ),
        }
    if output is not None:
        Path(output).write_text(json.dumps(record, indent=2) + "\n")
    return record
