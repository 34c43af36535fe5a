"""Sweep smokes: scheduling, local-worker reuse, and remote-executor ablations.

Three measurements, merged into one ``BENCH_sweeps.json`` artifact:

* **scheduling** — times one heterogeneous multi-cell sweep (an
  ``ns x ks`` phase-diagram grid whose per-replicate cost spans two
  orders of magnitude) two ways on the process executor with
  identical per-cell seeds: the legacy way (one ``run_ensemble``
  barrier + fresh local workers per grid cell) and the cost-model scheduler's
  flattened queue (longest-predicted-first ordering, target wall-time
  chunk slices).  Both result sets are asserted bit-identical; the
  headline speedup is legacy/cost.
* **pool_reuse** — runs the same sequence of small sweeps twice on the
  process executor: a fresh ``Engine`` (freshly forked local workers)
  per sweep vs ONE session whose local worker fleet serves every sweep.
  Results are asserted identical; the timing gap is the worker
  fork/teardown amortization the session redesign buys repeated sweeps (and a whole
  ``repro report``).
* **remote** — the same heterogeneous-grid shape on the remote
  executor: localhost ``repro worker`` subprocesses attached to the
  session's socket ``WorkerPool`` vs the process executor, asserted
  bit-identical, plus a worker-kill-and-requeue smoke (a flaky worker
  drops its connection mid-chunk; the requeued chunk must reproduce
  the exact bits).  The gate is a throughput *floor* — loopback
  framing overhead must stay bounded — not a speedup claim.  A
  warm-cache arm runs a heavier sweep twice against two workers with
  separate cache dirs: the cold pass populates the fleet's stores via
  write-back replication, and the warm pass (fresh fleet, cache-less
  coordinator) must be served entirely from worker caches —
  bit-identical, zero replicates simulated, gated >= 3x cold
  throughput.
* **packing** — an assertion-only arm, run first: a tiny batched
  ``usd`` grid, a tiny ``zealots`` grid and a tiny batched ``usd``
  ensemble, each run serially, on the process executor and on the
  remote executor with ``--jobs`` in-process worker threads.  Results
  must be identical, each process or remote call must send exactly
  ``--jobs`` packed units to the local or the remote workers, and when a
  grid has at least ``--jobs`` cells every unit must hold whole cells.
  It has no timing gate.

Usage::

    PYTHONPATH=src python benchmarks/sweep_smoke.py \
        [--ns 20,30,45,60,90,120,180,240] [--ks 2,3,4,5] \
        [--trials 8] [--jobs 2] [--rounds 3] \
        [--pool-ns 40,60] [--pool-trials 4] [--pool-sweeps 5] \
        [--remote-ns 20,30,60,90,120] [--remote-ks 2,3] [--remote-trials 6] \
        [--warm-ns 200,400,800] [--warm-ks 2,3] [--warm-trials 12] \
        [--seed 20230224] [--output BENCH_sweeps.json] \
        [--min-speedup 0] [--min-pool-reuse-speedup 0] \
        [--min-remote-speedup 0] [--min-warm-cache-speedup 0]

Exits non-zero when a measured speedup falls below its threshold.  CI
gates the cost scheduler at 1.3x the legacy per-cell barrier, the
local-worker reuse ablation at 1.2x, the remote executor at 0.7x process
throughput with two localhost workers, and the warm-cache fleet at 3x
its cold pass; all hold with margin on the default workloads (the
per-cell overhead the scheduler removes — worker forks, barriers,
fixed-grain dispatch — is deterministic, unlike replicate durations,
and the warm pass removes simulation entirely).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from _harness import (
    _results_key,
    run_pool_reuse_smoke,
    run_remote_smoke,
    run_sweep_smoke,
)


def check_process_packing(jobs: int, seed: int) -> list[str]:
    """Failures of the packing arm (empty when it holds)."""
    from repro.core.config import Configuration
    from repro.engine import Engine, SweepCell, SweepSpec, usd_spec, zealot_spec
    from repro.workloads import uniform_configuration

    grids = {
        "usd": SweepSpec(
            cells=(
                SweepCell(spec=usd_spec(uniform_configuration(60, 2)), trials=3),
                SweepCell(
                    spec=usd_spec(uniform_configuration(90, 4)),
                    trials=4,
                    max_interactions=2_000,
                ),
                SweepCell(spec=usd_spec(uniform_configuration(45, 3)), trials=2),
            )
        ),
        "zealots": SweepSpec(
            cells=(
                SweepCell(
                    spec=zealot_spec(Configuration.from_supports([30, 20]), [2, 0]),
                    trials=3,
                    max_interactions=20_000,
                ),
                SweepCell(
                    spec=zealot_spec(uniform_configuration(60, 3), [0, 1, 3]),
                    trials=4,
                    max_interactions=20_000,
                ),
            )
        ),
    }
    arms = {
        f"{name} grid": lambda eng, executor, grid=grid: [
            _results_key(cell.results)
            for cell in eng.sweep(grid, seed=seed, executor=executor, jobs=jobs)
        ]
        for name, grid in grids.items()
    }
    # An ensemble is a one-cell sweep: its lockstep cell packs the same way.
    ensemble_spec = usd_spec(uniform_configuration(90, 3))
    arms["usd ensemble"] = lambda eng, executor: _results_key(
        eng.ensemble(ensemble_spec, 7, seed=seed, executor=executor, jobs=jobs)
    )
    failures = []
    for name, arm in arms.items():
        runs = {}
        chunks = {}
        for executor in ("serial", "process", "remote"):
            with Engine(backend="batched", cache=False, jobs=jobs) as eng:
                if executor == "remote":
                    _attach_thread_workers(eng, jobs)
                runs[executor] = arm(eng, executor)
                transport = eng.stats()["transport"]
                chunks["process"] = transport["pickle"]["chunks"]
                chunks["remote"] = transport["socket"]["chunks"]
                report = eng.stats()["scheduler"]["last_sweep"]
            if executor == "serial":
                continue
            # An ensemble leaves no sweep report.  These grids are narrower
            # than the planner's free width, so a sweep with at least as
            # many cells as workers must split no cell.
            if report is not None and jobs <= len(report["cells"]):
                trials = [cell["trials"] for cell in report["cells"]]
                split = [
                    entry["segments"]
                    for entry in report["plan"]
                    if any(reps != trials[c] for c, reps in entry["segments"])
                ]
                if split:
                    failures.append(
                        f"{name}: {executor} units {split} split a cell "
                        f"with {len(trials)} cells for {jobs} workers"
                    )
            same = runs[executor] == runs["serial"]
            kind = "local" if executor == "process" else "socket"
            print(
                f"packing:        {name} on {executor}, {chunks[executor]} "
                f"{kind} units (expected {jobs}), results "
                f"{'identical to' if same else 'DIFFER from'} serial"
            )
            if not same:
                failures.append(f"{name}: {executor} results differ from serial")
            if chunks[executor] != jobs:
                failures.append(
                    f"{name}: {chunks[executor]} {kind} units on {executor}, "
                    f"expected {jobs}"
                )
    return failures


def _attach_thread_workers(eng, count: int) -> None:
    """Serve ``eng``'s worker pool from ``count`` in-process worker threads.

    Each thread returns once the session closes its pool (``bye``).
    """
    import threading

    from repro.engine.remote import serve_worker

    pool = eng.worker_pool()

    def serve(name: str) -> None:
        try:
            serve_worker(pool.endpoint, name=name)
        except OSError:
            pass  # the session closed the pool under the worker

    for i in range(count):
        threading.Thread(target=serve, args=(f"packing-{i}",), daemon=True).start()
    pool.wait_for_workers(count, timeout=30)


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {raw!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ns",
        type=_int_list,
        default=[20, 30, 45, 60, 90, 120, 180, 240],
        help="comma-separated population sizes (one sweep cell per (n, k))",
    )
    parser.add_argument(
        "--ks",
        type=_int_list,
        default=[2, 3, 4, 5],
        help="comma-separated opinion counts crossed with --ns",
    )
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=20230224)
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="interleaved measurement rounds per scheduling arm; each arm "
        "reports its fastest round",
    )
    parser.add_argument(
        "--pool-ns",
        type=_int_list,
        default=[40, 60],
        help="population sizes per cell for the persistent-pool ablation "
        "(deliberately tiny so pool spawn dominates)",
    )
    parser.add_argument("--pool-k", type=int, default=3)
    parser.add_argument("--pool-trials", type=int, default=4)
    parser.add_argument(
        "--pool-sweeps",
        type=int,
        default=5,
        help="sweeps run back to back in the persistent-pool ablation",
    )
    parser.add_argument(
        "--remote-ns",
        type=_int_list,
        default=[20, 30, 60, 90, 120],
        help="population sizes for the remote-executor smoke grid",
    )
    parser.add_argument(
        "--remote-ks",
        type=_int_list,
        default=[2, 3],
        help="opinion counts crossed with --remote-ns",
    )
    parser.add_argument("--remote-trials", type=int, default=6)
    parser.add_argument(
        "--warm-ns",
        type=_int_list,
        default=[200, 400, 800],
        help="population sizes for the warm-cache fleet grid (heavier "
        "than the remote grid so simulation dominates the cold pass)",
    )
    parser.add_argument(
        "--warm-ks",
        type=_int_list,
        default=[2, 3],
        help="opinion counts crossed with --warm-ns",
    )
    parser.add_argument("--warm-trials", type=int, default=12)
    parser.add_argument("--output", default="BENCH_sweeps.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail when the cost scheduler is below this multiple of the "
        "legacy per-cell barrier (CI gates at 1.3)",
    )
    parser.add_argument(
        "--min-pool-reuse-speedup",
        type=float,
        default=0.0,
        help="fail when session-reused pool is below this multiple of the "
        "fresh-pool-per-sweep baseline (CI gates at 1.2)",
    )
    parser.add_argument(
        "--min-remote-speedup",
        type=float,
        default=0.0,
        help="fail when remote-executor throughput (localhost workers) is "
        "below this multiple of the process executor (CI gates at 0.7 — "
        "loopback framing overhead is bounded, not zero)",
    )
    parser.add_argument(
        "--min-warm-cache-speedup",
        type=float,
        default=0.0,
        help="fail when the fleet-served warm pass is below this multiple "
        "of its cold pass (CI gates at 3 — the warm pass performs zero "
        "simulation, only probe/serve round-trips)",
    )
    args = parser.parse_args(argv)

    packing_failures = check_process_packing(args.jobs, args.seed)
    scheduling = run_sweep_smoke(
        ns=args.ns,
        ks=args.ks,
        trials=args.trials,
        jobs=args.jobs,
        seed=args.seed,
        rounds=args.rounds,
    )
    pool_reuse = run_pool_reuse_smoke(
        ns=args.pool_ns,
        k=args.pool_k,
        trials=args.pool_trials,
        sweeps=args.pool_sweeps,
        jobs=args.jobs,
        seed=args.seed,
        rounds=args.rounds,
    )
    remote = run_remote_smoke(
        ns=args.remote_ns,
        ks=args.remote_ks,
        trials=args.remote_trials,
        jobs=args.jobs,
        seed=args.seed,
        rounds=args.rounds,
        warm_ns=args.warm_ns,
        warm_ks=args.warm_ks,
        warm_trials=args.warm_trials,
    )
    record = {
        "scheduling": scheduling,
        "pool_reuse": pool_reuse,
        "remote": remote,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")

    legacy = scheduling["legacy_per_cell_barrier"]
    cost = scheduling["cost_scheduler"]
    print(
        f"legacy barrier: {scheduling['replicates']} replicates over "
        f"{scheduling['cells']} cells in {legacy['seconds']:.2f}s = "
        f"{legacy['replicates_per_second']:.2f} rep/s"
    )
    error = cost["prediction_error"]
    error_note = f", {error:.0%} prediction error" if error is not None else ""
    print(
        f"cost scheduler: same grid in {cost['seconds']:.2f}s = "
        f"{cost['replicates_per_second']:.2f} rep/s{error_note}"
    )
    print(f"speedup:        {scheduling['speedup']:.2f}x legacy")
    fresh = pool_reuse["fresh_pool_per_sweep"]
    reused = pool_reuse["session_reused_pool"]
    print(
        f"fresh workers:  {pool_reuse['workload']['sweeps']} sweeps, fresh "
        f"local workers each, in {fresh['seconds']:.2f}s"
    )
    print(
        f"session fleet:  same sweeps on one local worker fleet in "
        f"{reused['seconds']:.2f}s"
    )
    print(
        f"reuse speedup:  {pool_reuse['speedup']:.2f}x"
    )
    proc_arm = remote["process_executor"]
    remote_arm = remote["remote_executor"]
    print(
        f"local workers:  {remote['replicates']} replicates over "
        f"{remote['cells']} cells in {proc_arm['seconds']:.2f}s = "
        f"{proc_arm['replicates_per_second']:.2f} rep/s"
    )
    print(
        f"remote workers: same grid over {remote['jobs']} socket workers in "
        f"{remote_arm['seconds']:.2f}s = "
        f"{remote_arm['replicates_per_second']:.2f} rep/s "
        f"({remote_arm['socket_bytes']} bytes framed)"
    )
    print(
        f"remote ratio:   {remote['throughput_ratio']:.2f}x process; "
        f"kill smoke requeued {remote['kill_requeue']['chunks_requeued']} "
        f"chunk(s) bit-identically"
    )
    warm = remote["warm_cache"]
    print(
        f"warm fleet:     cold pass {warm['replicates']} replicates over "
        f"{warm['cells']} cells in {warm['cold_seconds']:.2f}s; warm pass "
        f"served {warm['replicates_served']} replicates from worker caches "
        f"in {warm['warm_seconds']:.2f}s "
        f"({warm['replicates_simulated']} simulated)"
    )
    print(
        f"warm speedup:   {warm['speedup']:.2f}x cold, bit-identical  "
        f"(wrote {args.output})"
    )
    code = 0
    for failure in packing_failures:
        print(f"FAIL: packing: {failure}", file=sys.stderr)
        code = 1
    if scheduling["speedup"] < args.min_speedup:
        print(
            f"FAIL: cost-scheduler speedup {scheduling['speedup']:.2f} below "
            f"threshold {args.min_speedup}",
            file=sys.stderr,
        )
        code = 1
    if pool_reuse["speedup"] < args.min_pool_reuse_speedup:
        print(
            f"FAIL: pool-reuse speedup {pool_reuse['speedup']:.2f} below "
            f"threshold {args.min_pool_reuse_speedup}",
            file=sys.stderr,
        )
        code = 1
    if remote["throughput_ratio"] < args.min_remote_speedup:
        print(
            f"FAIL: remote-executor throughput ratio "
            f"{remote['throughput_ratio']:.2f} below threshold "
            f"{args.min_remote_speedup}",
            file=sys.stderr,
        )
        code = 1
    if warm["speedup"] < args.min_warm_cache_speedup:
        print(
            f"FAIL: warm-cache fleet speedup {warm['speedup']:.2f} below "
            f"threshold {args.min_warm_cache_speedup}",
            file=sys.stderr,
        )
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
