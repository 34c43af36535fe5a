"""Engine throughput smoke: serial jump vs batched, plus kernel ablation.

Writes a ``BENCH_engine.json`` artifact comparing ensemble throughput
(replicates per second) of the serial ``"jump"`` backend against the
vectorized ``"batched"`` backend on the acceptance workload (n=10^4,
k=5, 1000 replicates by default), an ``"ablation"`` section covering
the kernel axes introduced with the multi-event overhaul — single-event
vs multi-event lockstep blocks, the lockstep kernel's scalar-tail
hand-off vs the same packed call kept in numpy, batched graph/gossip
kernels vs their serial references, and the numba-compiled tier vs the
numpy kernels (numpy-fallback identity is verified instead when numba
is absent) — plus a
``BENCH_scenarios.json`` artifact timing one ensemble per registered
scenario (usd, graph, zealots, noise, gossip) through ``run_ensemble``.
The serial sides run small samples — their per-replicate cost is
constant — and throughput is compared directly.

Usage::

    PYTHONPATH=src python benchmarks/engine_smoke.py \
        [--n 10000] [--k 5] [--trials 1000] [--serial-trials 8] \
        [--seed 20230224] [--output BENCH_engine.json] \
        [--scenarios-output BENCH_scenarios.json] [--min-speedup 3] \
        [--no-ablation] [--min-multi-event-speedup 1.5] \
        [--min-graph-speedup 3] [--min-gossip-speedup 3] \
        [--min-compiled-speedup 2] [--min-scalar-tail-speedup 1]

Exits non-zero when any measured figure falls outside its threshold
(pass ``0`` thresholds to record without gating); pass
``--scenarios-output ""`` to skip the scenario sweep and
``--no-ablation`` to skip the kernel ablation.
"""

from __future__ import annotations

import argparse
import sys

from _harness import run_engine_smoke, run_kernel_ablation, run_scenario_smoke


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--serial-trials", type=int, default=8)
    parser.add_argument("--seed", type=int, default=20230224)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--scenarios-output", default="BENCH_scenarios.json")
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument(
        "--ablation",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the kernel ablation (lockstep blocks, graph/gossip "
        "batch kernels, compiled tier) into the same artifact",
    )
    parser.add_argument(
        "--ablation-output",
        default="",
        help="also write the ablation section as its own JSON artifact",
    )
    parser.add_argument("--min-multi-event-speedup", type=float, default=1.5)
    parser.add_argument("--min-graph-speedup", type=float, default=3.0)
    parser.add_argument("--min-gossip-speedup", type=float, default=3.0)
    parser.add_argument(
        "--min-compiled-speedup",
        type=float,
        default=0.0,
        help="compiled lockstep tier must beat the numpy multi-event "
        "kernel by this factor; skipped (never failed) when numba is "
        "unavailable, 0 records without gating",
    )
    parser.add_argument(
        "--min-scalar-tail-speedup",
        type=float,
        default=0.0,
        help="the lockstep kernel handing its narrow tail to the scalar "
        "loop must be this many times faster than the same packed call "
        "kept in numpy (best of 3, interleaved); skipped (never failed) "
        "where the kernel's scalar-log1p probe keeps it from handing off, "
        "0 records without gating",
    )
    args = parser.parse_args(argv)

    record = run_engine_smoke(
        n=args.n,
        k=args.k,
        trials=args.trials,
        serial_trials=args.serial_trials,
        seed=args.seed,
        output=None,
    )
    serial = record["serial"]
    batched = record["batched"]
    print(
        f"serial jump:  {serial['replicates']} replicates in "
        f"{serial['seconds']:.2f}s = {serial['replicates_per_second']:.2f} rep/s"
    )
    print(
        f"batched:      {batched['replicates']} replicates in "
        f"{batched['seconds']:.2f}s = {batched['replicates_per_second']:.2f} rep/s"
    )
    print(f"speedup:      {record['speedup']:.1f}x")

    failures = []
    if record["speedup"] < args.min_speedup:
        failures.append(
            f"batched speedup {record['speedup']:.2f} below {args.min_speedup}"
        )

    if args.ablation:
        ablation = run_kernel_ablation(
            n=args.n,
            k=args.k,
            trials=args.trials,
            seed=args.seed,
            output=args.ablation_output or None,
        )
        record["ablation"] = ablation
        lockstep = ablation["lockstep"]
        print(
            f"lockstep:     multi-event (block={lockstep['multi_event']['event_block']}) "
            f"{lockstep['speedup']:.2f}x the single-event kernel"
        )
        tail = ablation["scalar_tail"]
        if tail["probe"]:
            print(
                f"scalar tail:  hand-off at {tail['knee']} live columns "
                f"{tail['speedup']:.2f}x the plain kernel (bit-identical)"
            )
        else:
            print(
                "scalar tail:  scalar np.log1p differs from the array path "
                "here - the kernel never hands off, speedup gate skipped"
            )
        print(
            f"graph:        batched {ablation['graph']['speedup']:.1f}x serial "
            f"(bit-identical)"
        )
        print(
            f"gossip:       batched {ablation['gossip']['speedup']:.1f}x serial "
            f"(median of {ablation['gossip']['repeats']} interleaved repeats, "
            f"bit-identical)"
        )
        compiled = ablation.get("compiled", {})
        if compiled.get("available"):
            validation = (
                "bit-identical"
                if compiled["lockstep"]["bit_identical"]
                else "crossval passed"
            )
            print(
                f"compiled:     lockstep "
                f"{compiled['lockstep']['speedup']:.2f}x / graph "
                f"{compiled['graph']['speedup']:.2f}x / gossip "
                f"{compiled['gossip']['speedup']:.2f}x the numpy kernels "
                f"({validation})"
            )
            if (
                args.min_compiled_speedup > 0
                and compiled["lockstep"]["speedup"] < args.min_compiled_speedup
            ):
                failures.append(
                    f"compiled lockstep speedup "
                    f"{compiled['lockstep']['speedup']:.2f} below "
                    f"{args.min_compiled_speedup}"
                )
        else:
            print(
                "compiled:     numba unavailable - numpy fallback verified "
                "bit-identical, speedup gate skipped"
            )
        if lockstep["speedup"] < args.min_multi_event_speedup:
            failures.append(
                f"multi-event speedup {lockstep['speedup']:.2f} below "
                f"{args.min_multi_event_speedup}"
            )
        if tail["probe"] and tail["speedup"] < args.min_scalar_tail_speedup:
            failures.append(
                f"scalar-tail speedup {tail['speedup']:.2f} below "
                f"{args.min_scalar_tail_speedup}"
            )
        if ablation["graph"]["speedup"] < args.min_graph_speedup:
            failures.append(
                f"graph speedup {ablation['graph']['speedup']:.2f} below "
                f"{args.min_graph_speedup}"
            )
        if ablation["gossip"]["speedup"] < args.min_gossip_speedup:
            failures.append(
                f"gossip speedup {ablation['gossip']['speedup']:.2f} below "
                f"{args.min_gossip_speedup}"
            )

    if args.output:
        import json
        from pathlib import Path

        Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
        print(f"engine:       wrote {args.output}")

    if args.scenarios_output:
        scenario_record = run_scenario_smoke(
            seed=args.seed, output=args.scenarios_output
        )
        for name, row in scenario_record["scenarios"].items():
            print(
                f"scenario {name:<10} {row['replicates']} replicates in "
                f"{row['seconds']:.2f}s = {row['replicates_per_second']:.2f} rep/s"
            )
        print(f"scenarios:    wrote {args.scenarios_output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
