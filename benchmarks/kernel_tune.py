"""Microbench: tune the lockstep kernel's event block and stream buffer.

Sweeps ``event_block`` x ``stream_buffer`` over the multi-event lockstep
kernel (:func:`repro.core.lockstep.lockstep_batch`) on a fixed workload
and reports wall time per combination, plus the single-event legacy
kernel as the baseline.  Neither knob changes results — every cell of
the sweep is the bit-identical trajectory set — so the fastest cell is
purely a machine-level choice.  The profiled defaults baked into
``repro.core.lockstep`` (``DEFAULT_EVENT_BLOCK``,
``DEFAULT_STREAM_BUFFER``) come from this bench: blocks 8-32 sit on a
plateau within a few percent of each other, buffers beyond 256 stop
mattering, so 16/256 are the shipped defaults.

When numba is installed the same grid is swept a second time over the
compiled lockstep tier
(:func:`repro.kernels.lockstep_jit.lockstep_batch_compiled`), so the
two tiers' knob responses can be compared on one machine; without
numba the compiled arm is skipped (it would just re-time the numpy
kernel through its fallback).

Usage::

    PYTHONPATH=src python benchmarks/kernel_tune.py \
        [--n 10000] [--k 5] [--trials 256] [--seed 20230224] \
        [--blocks 1,2,4,8,16,32,64] [--buffers 64,256,1024] \
        [--output BENCH_kernel_tune.json] [--emit-cost-table costmodel.json]

The JSON output is a diagnostic artifact (not tracked in CI) recording
the full timing grid for the machine it ran on.  ``--emit-cost-table``
re-emits the measurements in the sweep scheduler's ``costmodel.json``
format (see :mod:`repro.engine.costmodel`) so an offline tuning run can
warm-start the online scheduler's cost predictions — the best grid
point's time under the ``batched`` signature always, and additionally
under the ``compiled`` signature when the compiled arm ran.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.lockstep import (
    DEFAULT_EVENT_BLOCK,
    DEFAULT_STREAM_BUFFER,
    lockstep_batch,
)
from repro.engine import replicate_seeds, simulate_batch_single_event
from repro.kernels import HAVE_NUMBA
from repro.kernels.lockstep_jit import lockstep_batch_compiled
from repro.workloads import uniform_configuration


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {raw!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--trials", type=int, default=256)
    parser.add_argument("--seed", type=int, default=20230224)
    parser.add_argument("--blocks", type=_int_list, default=[1, 2, 4, 8, 16, 32, 64])
    parser.add_argument("--buffers", type=_int_list, default=[64, 256, 1024])
    parser.add_argument("--output", default="BENCH_kernel_tune.json")
    parser.add_argument(
        "--emit-cost-table",
        default=None,
        metavar="PATH",
        help="additionally write the best grid point as a cost table in the "
        "engine's costmodel.json format (drop it into a cache directory "
        "to warm-start the sweep scheduler's predictions for this "
        "workload's signature)",
    )
    args = parser.parse_args(argv)

    from repro.core.simulator import default_interaction_budget

    config = uniform_configuration(args.n, args.k)
    seeds = replicate_seeds(args.seed, args.trials)
    zeros = np.zeros(args.k, dtype=np.int64)
    budget = default_interaction_budget(args.n, args.k)

    start = time.perf_counter()
    simulate_batch_single_event(
        config, rngs=[np.random.default_rng(s) for s in seeds]
    )
    baseline = time.perf_counter() - start
    print(
        f"single-event baseline: {baseline:.2f}s "
        f"({args.trials / baseline:.1f} rep/s)"
    )

    def sweep_grid(kernel, label):
        grid: dict[str, dict[str, float]] = {}
        best = (None, None, float("inf"))
        for buffer in args.buffers:
            for block in args.blocks:
                start = time.perf_counter()
                kernel(
                    config.counts,
                    zeros,
                    args.n,
                    rngs=[np.random.default_rng(s) for s in seeds],
                    max_interactions=budget,
                    event_block=block,
                    stream_buffer=buffer,
                )
                seconds = time.perf_counter() - start
                grid.setdefault(str(buffer), {})[str(block)] = seconds
                marker = ""
                if seconds < best[2]:
                    best = (block, buffer, seconds)
                    marker = "  <- best so far"
                print(
                    f"{label} block={block:<4} buffer={buffer:<5} "
                    f"{seconds:6.2f}s "
                    f"({baseline / seconds:4.2f}x single-event){marker}"
                )
        return grid, best

    grid, best = sweep_grid(lockstep_batch, "numpy   ")
    compiled_grid = None
    compiled_best = None
    if HAVE_NUMBA:
        # One warm-up call keeps JIT compilation out of the first cell.
        lockstep_batch_compiled(
            config.counts, zeros, args.n,
            rngs=[np.random.default_rng(seeds[0])], max_interactions=budget,
        )
        compiled_grid, compiled_best = sweep_grid(
            lockstep_batch_compiled, "compiled"
        )
    else:
        print("compiled arm skipped: numba unavailable (fallback = numpy)")

    block, buffer, seconds = best
    print(
        f"\nbest: event_block={block} stream_buffer={buffer} "
        f"({baseline / seconds:.2f}x single-event); shipped defaults: "
        f"event_block={DEFAULT_EVENT_BLOCK} stream_buffer={DEFAULT_STREAM_BUFFER}"
    )
    if compiled_best is not None:
        c_block, c_buffer, c_seconds = compiled_best
        print(
            f"best compiled: event_block={c_block} stream_buffer={c_buffer} "
            f"({baseline / c_seconds:.2f}x single-event, "
            f"{seconds / c_seconds:.2f}x the numpy best)"
        )
    if args.output:
        payload = {
            "workload": {
                "n": args.n,
                "k": args.k,
                "replicates": args.trials,
                "seed": args.seed,
            },
            "single_event_seconds": baseline,
            "grid_seconds": grid,
            "best": {
                "event_block": block,
                "stream_buffer": buffer,
                "seconds": seconds,
            },
            "shipped_defaults": {
                "event_block": DEFAULT_EVENT_BLOCK,
                "stream_buffer": DEFAULT_STREAM_BUFFER,
            },
            "compiled": {"available": HAVE_NUMBA},
        }
        if compiled_best is not None:
            payload["compiled"].update(
                grid_seconds=compiled_grid,
                best={
                    "event_block": compiled_best[0],
                    "stream_buffer": compiled_best[1],
                    "seconds": compiled_best[2],
                },
            )
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.emit_cost_table:
        from repro.engine.costmodel import CostModel, cost_signature

        model = CostModel()
        arms = [("batched", best)]
        if compiled_best is not None:
            arms.append(("compiled", compiled_best))
        emitted = []
        for variant, (_, _, arm_seconds) in arms:
            signature = cost_signature("usd", variant, args.n)
            model.observe(signature, args.trials, arm_seconds)
            emitted.append(
                f"{signature}: {arm_seconds / args.trials:.4f}s/replicate"
            )
        emitted = "; ".join(emitted)
        Path(args.emit_cost_table).write_text(
            json.dumps(model.to_payload(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.emit_cost_table} ({emitted})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
