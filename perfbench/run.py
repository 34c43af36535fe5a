"""The repository's benchmark: one command, three workloads, two views.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one untraced pass and prints every end-to-end metric;
``--trace 1`` runs the same pass twice, untraced then with the layer
wrappers of ``spans.py`` installed (in this process and, through
``launch.py``, in the ``repro serve`` subprocess), and prints the
per-layer split.  Every run checks the program's outputs and exits
non-zero, printing no metric, when a check fails.  ``--tiny``
shrinks every input so a whole run takes seconds (``selftest.py``).

The last line of standard output is the result object; the line before
it carries the details a reader needs to trust the numbers (work counts,
service hit and fetch latencies, set-up samples, the host drift
diagnostic).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SRC,
    WorkDir,
    calib_ms,
    clean_environ,
    emit,
    median,
    program_present,
    stop_helpers,
    tail,
)
from service_mix import ServiceMix  # noqa: E402
from sweeps import PaperSweep, ParallelSweep  # noqa: E402

#: Set-up is timed this many times per run, each from a fresh
#: interpreter (the run's own pass plus probe processes), and the median
#: reported, so one slow start cannot move ``setup_s``.
SETUP_SAMPLES = 3


class Context:
    def __init__(self, args, label: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.tiny = args.tiny
        self.work = WorkDir(label)


WORKLOADS = {
    "paper_sweep": PaperSweep,
    "parallel_sweep": ParallelSweep,
    "service_mix": ServiceMix,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
def run_pass(workload, traced: bool, clock: float | None = None) -> tuple[dict, dict]:
    """Set up, measure, tear down; returns ``(record, state)``.

    With ``clock`` (a ``time.monotonic()`` taken before this process
    first imported the program) the record carries a set-up sample.
    """
    from spans import Tracer, install, load

    state = workload.setup(traced)
    setup_s = time.monotonic() - clock if clock is not None else None
    tracer = None
    try:
        if traced and workload.layers:
            tracer = Tracer()
            install(tracer, workload.layers)
        record = workload.measure(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
        rss = workload.teardown(state)
    record["rss_mb"] = rss
    record["setup_s"] = setup_s
    payloads = [tracer.payload()] if tracer is not None else []
    if state.get("spans") is not None:
        # Written by the launcher when the server drains; missing means
        # the server's spans were lost, which fails the traced run.
        if Path(state["spans"]).is_file():
            payloads.append(load(state["spans"]))
        else:
            record["failures"] = ["the server wrote no spans"]
    record["span_payloads"] = payloads
    return record, state


def subcommand(args, flag: str) -> list[str]:
    """This script re-invoked in a fresh interpreter with ``flag``."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        flag,
    ]
    if args.tiny:
        command.append("--tiny")
    return command


def run_subcommand(command) -> str:
    done = subprocess.run(
        command,
        env=clean_environ(os.environ),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{command[-1]} failed: {done.stderr[-2000:]}")
    return done.stdout


def probe_setups(args, count: int) -> list[float]:
    """Time set-up ``count`` times in fresh interpreters."""
    command = subcommand(args, "--setup-probe")
    return [
        json.loads(run_subcommand(command).strip().splitlines()[-1])["setup_s"]
        for _ in range(count)
    ]


def setup_probe(args) -> int:
    ctx = Context(args, f"{args.workload}-probe")
    try:
        # Nothing has imported the program yet in this interpreter.
        clock = time.monotonic()
        workload = WORKLOADS[args.workload](ctx)
        state = workload.setup(False)
        elapsed = time.monotonic() - clock
        workload.teardown(state)
    finally:
        ctx.work.close()
    emit({"setup_s": elapsed})
    return 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def phase_seconds(record) -> float:
    """Seconds of the timed phase.

    A sweep's is the time spent inside its calls; the service's is the
    whole closed loop, reads included.
    """
    if "window" in record:
        lo, hi = record["window"]
        return hi - lo
    return sum(record["cold"])


def end_to_end(record, setups) -> tuple[dict, dict]:
    seconds = phase_seconds(record)
    requests = sum(record["requests"].values())
    metrics = {
        "setup_s": (median(setups), "s"),
        "interactions_per_s": (record["interactions"] / seconds, "1/s"),
        "replicates_per_s": (record["replicates"] / seconds, "1/s"),
        "requests_per_s": (requests / seconds, "1/s"),
        # The median, not a nearest-rank p50: a sweep run times two
        # calls, and the nearest rank of two is the faster one alone.
        "miss_latency_p50_ms": (median(record["cold"]) * 1e3, "ms"),
        "peak_rss_mb": (record["rss_mb"], "MB"),
    }
    details = {"setup_samples_s": setups, "miss_samples": len(record["cold"])}
    if "window" not in record:
        details["call_s"] = record["cold"]
    if "hit" in record:
        # Sub-millisecond to a few milliseconds: on a shared 2-core host
        # their medians and tails moved 17-120% (IQR/median over ten
        # runs), so they are reported here rather than as bounded metrics.
        hit_tail, hit_pct, hit_n = tail(record["hit"])
        details["latency_ms"] = {
            "hit_p50": median(record["hit"]) * 1e3,
            "hit_tail": hit_tail * 1e3,
            "hit_tail_percentile": hit_pct,
            "hit_samples": hit_n,
            "fetch_p50": median(record["fetch"]) * 1e3,
            "fetch_samples": len(record["fetch"]),
        }
    return metrics, details


def per_layer(base, traced, calib) -> tuple[dict, dict]:
    from spans import SpanSet

    spans = SpanSet(traced["span_payloads"], traced["intervals"])
    stats = traced.get("stats") or {}
    reports = [r for r in traced.get("reports", ()) if r]
    chunk_s = sum(r["measured_seconds"] or 0.0 for r in reports)
    predicted = sum(r["predicted_seconds"] or 0.0 for r in reports)
    process_chunks = stats.get("process_chunks", 0)

    if process_chunks:
        kernel_source = (
            "engine chunk-seconds (Engine.stats scheduler report): the "
            "wrappers cannot reach process-pool children"
        )
        kernel = (
            chunk_s,
            process_chunks,
            stats["replicates_simulated"],
            traced["interactions"],
        )
    else:
        kernel_source = "spans around the scenario chunk runner"
        kernel = (
            spans.total("kernel"),
            spans.count("kernel"),
            spans.meta_sum("kernel", "replicates"),
            spans.meta_sum("kernel", "interactions"),
        )
    jobs = 2
    loads = spans.count("cache.load")
    service = service_counters(traced)
    service_spans = {
        name: spans.total(f"service.{name}") for name in ("parse", "lookup", "encode")
    }
    service_engine = spans.total("session") if service is not None else 0.0
    latencies = sum(hi - lo for lo, hi in traced["intervals"])
    metrics = {
        "kernel.busy_s": (kernel[0], "s"),
        "kernel.calls": (kernel[1], "count"),
        "kernel.replicates": (kernel[2], "count"),
        "kernel.interactions": (kernel[3], "count"),
        "kernel.interactions_per_busy_s": (
            kernel[3] / kernel[0] if kernel[0] else 0.0,
            "1/s",
        ),
        "costmodel.predicted_s": (predicted, "s"),
        "costmodel.measured_s": (chunk_s, "s"),
        "costmodel.error_ratio": (
            abs(predicted - chunk_s) / chunk_s if chunk_s else 0.0,
            "ratio",
        ),
        "executors.chunks": (process_chunks, "count"),
        "executors.replicates_per_chunk": (
            stats["replicates_simulated"] / process_chunks if process_chunks else 0.0,
            "count",
        ),
        "executors.transport_bytes": (stats.get("process_bytes", 0), "bytes"),
        "executors.pool_spawns": (
            stats["pool_spawns"] if process_chunks else 0,
            "count",
        ),
        "executors.busy_ratio": (
            chunk_s / (sum(traced["cold"]) * jobs) if process_chunks else 0.0,
            "ratio",
        ),
        "cache.loads": (loads, "count"),
        "cache.load_s": (spans.total("cache.load"), "s"),
        "cache.stores": (spans.count("cache.store"), "count"),
        "cache.store_s": (spans.total("cache.store"), "s"),
        "cache.hit_ratio": (
            spans.meta_sum("cache.load", "hit") / loads if loads else 0.0,
            "ratio",
        ),
        "session.call_s": (spans.total("session"), "s"),
        "session.self_s": (spans.self_time("session"), "s"),
        "service.parse_s": (service_spans["parse"], "s"),
        "service.lookup_s": (service_spans["lookup"], "s"),
        "service.engine_s": (service_engine, "s"),
        "service.encode_s": (service_spans["encode"], "s"),
        "service.unattributed_s": (
            latencies - service_engine - sum(service_spans.values())
            if service is not None
            else 0.0,
            "s",
        ),
    }
    for name in (
        "requests",
        "submitted",
        "coalesced",
        "served_from_cache",
        "rejected",
        "errors",
    ):
        metrics[f"service.{name}"] = ((service or {}).get(name, 0), "count")
    metrics["trace.overhead_ratio"] = (
        phase_seconds(traced) / phase_seconds(base),
        "ratio",
    )
    metrics["trace.unattributed_ratio"] = (
        spans.uncovered(traced["intervals"]) / latencies,
        "ratio",
    )
    metrics["host.calib_ms"] = (calib, "ms")
    details = {
        "kernel_source": kernel_source,
        "wrapped": [p.get("wrapped", []) for p in traced["span_payloads"]],
        "span_processes": len(traced["span_payloads"]),
        "spans": sum(len(p["spans"]) for p in traced["span_payloads"]),
    }
    return metrics, details


def missing_layers(workload, metrics) -> list[str]:
    """Layers the workload runs whose traced metrics came out zero."""
    return [
        f"traced layer metric {name} is zero"
        for name in workload.nonzero_layers
        if not metrics[name][0]
    ]


def service_counters(record) -> dict | None:
    """``/metrics`` service counters the timed phase moved (or ``None``)."""
    before, after = record.get("metrics_before"), record.get("metrics_after")
    if before is None:
        return None
    delta = {
        name: after["service"][name] - before["service"][name]
        for name in after["service"]
        if isinstance(after["service"][name], int)
        and not isinstance(after["service"][name], bool)
    }
    delta["requests"] -= 1  # the closing /metrics request itself
    return delta


def work_counts(record) -> dict:
    """The work a pass did; identical across runs at one seed."""
    counts = {
        "interactions_simulated": record["interactions"],
        "replicates_delivered": record["replicates"],
        "requests": record["requests"],
    }
    if "stats" in record:
        stats = record["stats"]
        counts["replicates_simulated"] = stats["replicates_simulated"]
        counts["replicates_from_store"] = stats["replicates_from_cache"]
        counts["cells_simulated"] = record["cells_simulated"]
        counts["cells_served"] = record["cells_served"]
    return counts


def plan_counts(record) -> dict:
    """How the executor split the work; may differ between runs."""
    stats = record.get("stats") or {}
    return {"process_chunks": stats.get("process_chunks", 0)}


def result(correct, attempted, failed, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    clean = clean_environ(dict(os.environ))
    os.environ.clear()
    os.environ.update(clean)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    ctx = Context(args, args.workload)
    calib_before = calib_ms()
    failures: list[str] = []
    attempted = failed = 0
    details: dict = {}
    metrics: dict = {}
    try:
        # Nothing has imported the program yet in this interpreter.
        clock = time.monotonic()
        workload = WORKLOADS[args.workload](ctx)
        base, base_state = run_pass(workload, traced=False, clock=clock)
        failures += workload.verify(base, base_state)
        attempted, failed = base["attempted"], base["failed"]
        details = {"work": work_counts(base), "plan": plan_counts(base)}
        if args.trace:
            traced, traced_state = run_pass(workload, traced=True)
            failures += traced.get("failures", [])
            failures += workload.verify(traced, traced_state)
            if traced["digests"] != base["digests"]:
                failures.append("the traced pass returned different results")
            if work_counts(traced) != work_counts(base):
                failures.append("the traced pass did different work")
            attempted += traced["attempted"]
            failed += traced["failed"]
        else:
            setups = [base["setup_s"]]
            setups += probe_setups(args, SETUP_SAMPLES - 1)
    except Exception as exc:  # a run that cannot finish reports no number
        failures.append(f"{type(exc).__name__}: {exc}")
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    finally:
        ctx.work.close()
    calib_after = calib_ms()
    calib = (calib_before + calib_after) / 2
    if not failures:
        if args.trace:
            metrics, extra = per_layer(base, traced, calib)
            failures += missing_layers(workload, metrics)
        else:
            metrics, extra = end_to_end(base, setups)
        details.update(extra)
    details.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "host": {"calib_ms_before": calib_before, "calib_ms_after": calib_after},
            "failed_share": failed / attempted if attempted else 0.0,
            "failures": failures,
        }
    )
    emit(details)
    if failures:
        emit(result(False, max(attempted, 1), failed, {}))
        return 1
    emit(result(True, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
