"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run E3 [--scale quick|full] [--seed N] [--backend B] [--jobs J]``
    Run one experiment and print its report.
``report [--scale quick|full] [--seed N] [--output EXPERIMENTS.md]``
    Run every experiment and write the markdown report.
``list``
    List the experiment registry.
``list-scenarios``
    List the scenario registry (dynamics the engine can execute).
``simulate [--n N] [--k K] [--bias-type none|additive|multiplicative]``
    Run a single USD simulation and print the outcome and phase times.
``simulate --scenario S [--trials T] [scenario params]``
    Run an ensemble of any registered scenario (``usd``, ``graph``,
    ``zealots``, ``noise``, ``gossip``) through the engine and print a
    summary.  Scenario parameters: ``--graph-topology``, ``--zealots``,
    ``--noise-rho``, ``--noise-horizon``, ``--gossip-rule``,
    ``--max-rounds``.
``sweep --param name=v1,v2,... [--param ...] [--workload W] [--trials T]``
    Run a whole parameter grid as ONE engine workload
    (:func:`repro.engine.run_sweep`): the cross product of every
    ``--param`` flag (or the grid of ``--spec-file sweep.json``, the
    service's ``/v1/sweep`` document, parsed by the same code) is
    frozen into a :class:`repro.engine.SweepSpec` and all cells'
    replicates are scheduled across one flattened executor pool — no
    per-cell barrier — with optional per-cell caching under a
    sweep-level index (``--cache``).
``worker HOST:PORT [--name W] [--max-chunks N] [--tls ...]``
    Connect to a remote-executor session's worker pool and serve
    simulation chunks over the socket wire protocol until the session
    disconnects.  Pair with ``--executor remote [--workers HOST:PORT]``
    on any simulating command; results are bit-identical to local
    execution at fixed seeds.  ``--tls`` (with ``--tls-ca`` pinning the
    session's certificate, ``--tls-cert``/``--tls-key`` presenting a
    client certificate for mutual TLS) encrypts the worker socket;
    SIGTERM/SIGINT drain gracefully — the in-flight chunk finishes, the
    worker says ``bye`` and exits 0.
``serve HOST:PORT [--inline-limit N] [--max-queue N] [--max-replicates N]``
    Run the simulation service: one persistent engine session behind an
    async HTTP/JSON front door.  Identical concurrent submissions
    coalesce onto one run, repeat submissions serve straight from the
    ensemble cache (zero simulations), and admission control bounds the
    queue (429 with a retry hint past it).  SIGTERM/SIGINT drain
    gracefully.  Takes every engine-selection flag.
``submit ENDPOINT [--spec-file F] [--no-wait]``
    Submit an ensemble or sweep spec (the ``sweep --spec-file`` JSON
    schema) to a running service and print the answer.
``poll ENDPOINT KEY [--wait]``
    Poll a submitted job by its key.
``cache stats|clear [--cache-dir D]``
    Inspect or empty the on-disk ensemble cache.  ``stats`` also
    reports per-sweep resume state: for every ``*.sweep.json`` index,
    how many of its cells' ensemble entries are complete vs missing
    (an interrupted or partially evicted sweep shows up as
    ``resumable`` — rerunning it recomputes only the missing cells).

Engine selection
----------------
Every simulating subcommand builds exactly **one engine session**
(:class:`repro.engine.Engine`) from its flags and runs everything inside
it, so the whole invocation — all experiments of a ``report``, every
cell of a ``sweep`` — shares one persistent worker pool and one open
cache handle.  ``--backend {agents,jump,batched}`` picks the simulation
backend (for non-USD scenarios, ``batched`` selects the scenario's
vectorized variant when it has one), ``--jobs J`` enables the
process executor with ``J`` local workers, and
``--cache``/``--no-cache`` turns the on-disk ensemble cache on or off
(``--cache-dir`` relocates it) for every ensemble the command runs (see
:mod:`repro.engine`).  Flags are frozen into the session's options at
startup; nothing mutates process-wide state.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from .analysis.report import build_markdown_report
from .core.phases import PhaseTracker
from .engine import (
    Engine,
    EngineOptions,
    EnsembleCache,
    available_scenarios,
    derive_cell_seeds,
    engine,
    get_backend,
    get_scenario,
    gossip_spec,
    graph_spec,
    noise_spec,
    serve_worker,
    usd_spec,
    zealot_spec,
)
from .experiments import EXPERIMENTS, run_all, run_experiment
from .service import jobs
from .workloads import (
    additive_bias_configuration,
    multiplicative_bias_configuration,
    theorem_beta,
    uniform_configuration,
)

__all__ = ["main", "build_parser"]


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {raw!r}"
        ) from None


def _option_type(name: str, check):
    """An ``argparse`` type that runs an engine option's value check."""

    def parse(raw: str):
        try:
            return check(name, raw)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    parse.__name__ = name
    return parse


def _add_engine_arguments(
    command: argparse.ArgumentParser, *, serve: bool = False
) -> None:
    """The engine flags declared in :class:`EngineOptions`' field metadata.

    Every simulating command takes the shared ones; ``serve`` adds the
    service admission bounds.  Each flag's destination is its option's
    name, so :func:`_build_engine` passes them through unchanged.  A flag
    with ``choices`` accepts exactly those names; any other value flag is
    parsed by its option's own check (a bad value is a usage error).  A
    callable ``choices`` (the backend registry, which can grow) is
    evaluated here.
    """
    for option in fields(EngineOptions):
        meta = option.metadata
        if meta["flag"] is None or (meta["serve"] and not serve):
            continue
        kwargs = dict(meta["argparse"])
        if callable(kwargs.get("choices")):
            kwargs["choices"] = kwargs["choices"]()
        if "action" not in kwargs and "choices" not in kwargs:
            kwargs["type"] = _option_type(option.name, meta["check"])
        help_text = meta["help"]
        if meta["env"] is not None:
            help_text = f"{help_text}; env {meta['env']}"
        command.add_argument(
            meta["flag"], dest=option.name, default=None, help=help_text, **kwargs
        )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="k-opinion Undecided State Dynamics reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="run one experiment and print its report")
    run_cmd.add_argument("experiment", help="experiment id, e.g. E3")
    run_cmd.add_argument("--scale", choices=("quick", "full"), default="quick")
    run_cmd.add_argument("--seed", type=int, default=20230224)
    _add_engine_arguments(run_cmd)

    report_cmd = sub.add_parser("report", help="run all experiments, write markdown")
    report_cmd.add_argument("--scale", choices=("quick", "full"), default="quick")
    report_cmd.add_argument("--seed", type=int, default=20230224)
    report_cmd.add_argument("--output", default="EXPERIMENTS.md")
    _add_engine_arguments(report_cmd)

    sub.add_parser("list", help="list the experiment registry")

    sub.add_parser(
        "list-scenarios", help="list the scenario registry (engine workloads)"
    )

    sim_cmd = sub.add_parser(
        "simulate", help="run a single USD simulation or a scenario ensemble"
    )
    sim_cmd.add_argument("--n", type=int, default=2000)
    sim_cmd.add_argument("--k", type=int, default=5)
    sim_cmd.add_argument(
        "--bias-type", choices=("none", "additive", "multiplicative"), default="none"
    )
    sim_cmd.add_argument("--seed", type=int, default=0)
    sim_cmd.add_argument(
        "--scenario",
        choices=available_scenarios(),
        default=None,
        help="run an ensemble of this registered scenario instead of a "
        "single plain-USD run",
    )
    sim_cmd.add_argument(
        "--trials",
        type=_positive_int,
        default=8,
        help="ensemble size for --scenario runs (default: 8)",
    )
    sim_cmd.add_argument(
        "--max-interactions",
        type=_positive_int,
        default=None,
        help="per-replicate budget (rounds for the gossip scenario)",
    )
    sim_cmd.add_argument(
        "--graph-topology",
        choices=("complete", "cycle", "erdos-renyi"),
        default="complete",
        help="interaction graph for --scenario graph",
    )
    sim_cmd.add_argument(
        "--zealots",
        type=_int_list,
        default=None,
        help="per-opinion zealot counts for --scenario zealots, e.g. 0,5",
    )
    sim_cmd.add_argument(
        "--noise-rho",
        type=float,
        default=0.01,
        help="corruption probability for --scenario noise",
    )
    sim_cmd.add_argument(
        "--noise-horizon",
        type=_positive_int,
        default=100_000,
        help="horizon (interactions) for --scenario noise",
    )
    sim_cmd.add_argument(
        "--gossip-rule",
        choices=("usd", "voter", "two-choices", "three-majority", "median"),
        default="usd",
        help="round rule for --scenario gossip",
    )
    sim_cmd.add_argument(
        "--max-rounds",
        type=_positive_int,
        default=None,
        help="round budget for --scenario gossip",
    )
    _add_engine_arguments(sim_cmd)

    sweep_cmd = sub.add_parser(
        "sweep",
        help="run a parameter grid as one flattened engine workload",
    )
    sweep_cmd.add_argument(
        "--param",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="one grid axis (repeat for more; the grid is their cross "
        "product); values parse as int, then float, then string",
    )
    sweep_cmd.add_argument(
        "--workload",
        choices=tuple(jobs.WORKLOADS),
        default=None,
        help="workload builder the grid parameters feed "
        "(default: uniform; uniform takes n,k; additive n,k,beta; "
        "multiplicative n,k,alpha)",
    )
    sweep_cmd.add_argument(
        "--spec-file",
        default=None,
        help="JSON submission, the schema of 'repro serve' /v1/sweep: "
        "{workload, params: {name: [values]} or grid: [{...}], scenario, "
        "trials, seed, max_interactions, seed_derivation}; a flag that is "
        "set overrides its field, --param axes replace params and grid, "
        "and unknown fields are rejected",
    )
    sweep_cmd.add_argument(
        "--trials",
        type=_positive_int,
        default=None,
        help="replicates per grid cell (default: 8)",
    )
    sweep_cmd.add_argument("--seed", type=int, default=None)
    sweep_cmd.add_argument(
        "--max-interactions",
        type=_positive_int,
        default=None,
        help="per-replicate budget for every cell",
    )
    sweep_cmd.add_argument(
        "--seed-derivation",
        choices=jobs.FIELDS["seed_derivation"].choices,
        default=None,
        help="per-cell seed derivation (default: the spec file's, else "
        "spawn): spawn = full-entropy SeedSequence children, legacy = "
        "historical 32-bit collapse",
    )
    sweep_cmd.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep: consult the cache's sweep "
        "index, print which cells are already on disk, and recompute "
        "only the missing/corrupt ones (implies --cache)",
    )
    _add_engine_arguments(sweep_cmd)

    worker_cmd = sub.add_parser(
        "worker",
        help="serve simulation chunks to a remote-executor session",
    )
    worker_cmd.add_argument(
        "address",
        metavar="HOST:PORT",
        help="the session's worker-pool listen address "
        "(its --workers flag / WorkerPool.endpoint)",
    )
    worker_cmd.add_argument(
        "--name",
        default=None,
        help="worker name in scheduler reports and per-worker cost "
        "tables (default: this host's name)",
    )
    worker_cmd.add_argument(
        "--max-chunks",
        type=_positive_int,
        default=None,
        help="exit cleanly after serving this many chunks "
        "(default: serve until the session says bye)",
    )
    worker_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="ensemble cache directory this worker serves from: probed "
        "cell keys are answered out of it, serve-cached dispatches are "
        "decoded from it, and write-back replication lands in it "
        "(default: .repro-cache, or REPRO_ENGINE_CACHE_DIR)",
    )
    worker_cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="run store-less: open no cache directory, answer every "
        "cache probe empty, and accept no replication pushes (used by "
        "benchmarks that must measure cold execution)",
    )
    worker_cmd.add_argument(
        "--secret",
        default=None,
        help="shared secret for the pool's HMAC challenge/response "
        "handshake (default: REPRO_WORKER_SECRET); only needed when "
        "the coordinator was started with a secret",
    )
    worker_cmd.add_argument(
        "--tls",
        action="store_true",
        help="wrap the worker socket in TLS (implied by any other --tls-* "
        "flag or a REPRO_WORKER_TLS_* variable); the session must be "
        "serving TLS too (its worker_tls_cert option)",
    )
    worker_cmd.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help="pin the session's certificate (or its CA): the connection "
        "fails unless the pool presents a certificate signed by this file "
        "(default: REPRO_WORKER_TLS_CA; without it, system trust roots)",
    )
    worker_cmd.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help="client certificate to present for mutual TLS "
        "(default: REPRO_WORKER_TLS_CERT); required when the session "
        "pins a CA with its worker_tls_ca option",
    )
    worker_cmd.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert (default: REPRO_WORKER_TLS_KEY; "
        "may be omitted when the cert file bundles its key)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the simulation service: an HTTP/JSON front door over "
        "one persistent engine session",
    )
    serve_cmd.add_argument(
        "address",
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port and prints it)",
    )
    serve_cmd.add_argument(
        "--inline-limit",
        type=_positive_int,
        default=None,
        help="ensembles up to this many total replicates inline full "
        "results in the response; larger ones return the summary plus "
        "cache-key handles (default: 64)",
    )
    serve_cmd.add_argument(
        "--debug",
        action="store_true",
        help="include server tracebacks in error responses (local "
        "debugging only; by default failures are logged server-side and "
        "clients get a generic message)",
    )
    _add_engine_arguments(serve_cmd, serve=True)

    submit_cmd = sub.add_parser(
        "submit",
        help="submit an ensemble/sweep spec to a running service",
    )
    submit_cmd.add_argument(
        "endpoint", metavar="HOST:PORT", help="a running 'repro serve'"
    )
    submit_cmd.add_argument(
        "--spec-file",
        default=None,
        help="JSON submission (the sweep --spec-file schema); "
        "default: read stdin",
    )
    submit_cmd.add_argument(
        "--kind",
        choices=("auto", "ensemble", "sweep"),
        default="auto",
        help="endpoint to submit to (default: auto — a 'grid' entry or "
        "any list-valued param means sweep)",
    )
    submit_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="return the 202 ticket immediately instead of blocking for "
        "the result (poll it with 'repro poll')",
    )
    submit_cmd.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="socket timeout in seconds (default: 600)",
    )

    poll_cmd = sub.add_parser(
        "poll", help="poll a submitted job by its key"
    )
    poll_cmd.add_argument(
        "endpoint", metavar="HOST:PORT", help="a running 'repro serve'"
    )
    poll_cmd.add_argument("key", help="job key from 'repro submit'")
    poll_cmd.add_argument(
        "--wait",
        action="store_true",
        help="block until the job reaches a terminal state",
    )
    poll_cmd.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="socket timeout in seconds (default: 600)",
    )

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the on-disk ensemble cache"
    )
    cache_cmd.add_argument("action", choices=("stats", "clear"))
    cache_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="cache directory (default: .repro-cache, "
        "or REPRO_ENGINE_CACHE_DIR)",
    )
    cache_cmd.add_argument(
        "--workers",
        default=None,
        metavar="HOST:PORT",
        help="with 'stats': also bind a worker pool at this address and "
        "report the fleet view — each connected worker's cache token, "
        "entry count, and served/pushed counters",
    )
    cache_cmd.add_argument(
        "--wait-workers",
        type=_positive_int,
        default=1,
        help="with --workers: how many workers to wait for before "
        "printing the fleet view (default: 1)",
    )
    cache_cmd.add_argument(
        "--wait-timeout",
        type=float,
        default=30.0,
        help="with --workers: seconds to wait for the fleet to register "
        "(default: 30)",
    )
    return parser


def _build_engine(args) -> Engine:
    """One session per CLI invocation, frozen from the parsed flags.

    Every subcommand that simulates builds exactly one
    :class:`repro.engine.Engine` here (unset flags fall back to the
    ``REPRO_*`` environment, then the built-ins) and scopes it with
    ``with engine(eng):`` so *everything* the command runs —
    experiments, the trial runner, sweeps, single simulations — shares
    that session's persistent executor pool and open cache handle.
    """
    return Engine(
        **{
            option.name: getattr(args, option.name, None)
            for option in fields(EngineOptions)
            if option.metadata["flag"] is not None
        }
    )


def _command_run(args) -> int:
    with _build_engine(args) as eng, engine(eng):
        result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
    print(result.render())
    return 0 if result.passed else 1


def _command_report(args) -> int:
    # One session for the whole suite: e01-e19 share a single executor
    # pool and a single cache handle instead of respawning per ensemble.
    with _build_engine(args) as eng, engine(eng):
        results = run_all(scale=args.scale, seed=args.seed)
        stats = eng.stats()
    text = build_markdown_report(results, scale=args.scale, seed=args.seed)
    with open(args.output, "w") as handle:
        handle.write(text)
    failed = [r.experiment_id for r in results if not r.passed]
    print(f"wrote {args.output} ({len(results)} experiments)")
    pool = stats["pool"]
    print(
        f"session: {stats['replicates_simulated']} replicates simulated, "
        f"{stats['replicates_from_cache']} from cache; pool spawned "
        f"{pool['spawns']}x, reused {pool['reuses']}x"
    )
    _print_transport_summary(stats)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all experiments PASS")
    return 0


def _parse_param_value(raw: str):
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            continue
    return raw


def _parse_param_axes(flags: list[str]) -> dict[str, list]:
    """``["n=100,200", "k=2"]`` -> ``{"n": [100, 200], "k": [2]}``."""
    axes: dict[str, list] = {}
    for flag in flags:
        name, sep, raw = flag.partition("=")
        name = name.strip()
        if not sep or not name or not raw.strip():
            raise jobs.RequestError(
                f"--param must look like NAME=V1,V2,..., got {flag!r}"
            )
        if name in axes:
            raise jobs.RequestError(
                f"--param axis {name!r} given twice; put every value "
                f"in one flag: --param {name}=V1,V2,..."
            )
        values = [
            _parse_param_value(part.strip())
            for part in raw.split(",")
            if part.strip() != ""
        ]
        if not values:
            raise jobs.RequestError(
                f"--param {name!r} needs at least one value, got {flag!r}"
            )
        axes[name] = values
    return axes


def _load_submission(path: str | None, command: str) -> dict:
    """The JSON object in ``path`` (stdin when ``None``)."""
    try:
        if path:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        else:
            payload = json.load(sys.stdin)
    except ValueError as exc:
        raise _usage_error(command, f"{path or 'stdin'} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise _usage_error(command, f"{path or 'stdin'} must hold a JSON object")
    return payload


def _usage_error(command: str, message: str) -> SystemExit:
    """Print a one-line usage error; the caller raises the exit."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _command_sweep(args) -> int:
    # One document from the file and the flags, parsed exactly as the
    # service parses a POST /v1/sweep body.
    doc = _load_submission(args.spec_file, "sweep") if args.spec_file else {}
    # A flag that is set overrides the field of the same name.
    doc.update(
        (name, getattr(args, name))
        for name in jobs.FIELDS
        if getattr(args, name, None) is not None
    )
    try:
        if args.param:
            doc.pop("grid", None)
            doc["params"] = _parse_param_axes(args.param)
        job = jobs.parse_sweep(doc)
    except jobs.RequestError as exc:
        raise _usage_error("sweep", str(exc)) from None
    spec, seed, derivation = job.spec, job.seed, job.seed_derivation
    workload = doc.get("workload", jobs.FIELDS["workload"].default)

    if args.resume and args.cache is None:
        args.cache = True  # the resume table lives in the cache's sweep index

    resume_lines: list[str] = []
    with _build_engine(args) as eng, engine(eng):
        store = eng.cache
        cache_dir = eng.options.cache_dir
        if eng.options.executor == "remote":
            # Bind the pool up front so the listen address is visible
            # before the sweep blocks waiting for workers to connect.
            print(
                f"workers:          listening on {eng.worker_pool().endpoint} "
                f"(connect with: repro worker {eng.worker_pool().endpoint})"
            )
        if args.resume:
            resume_lines = _sweep_resume_preflight(store, spec, seed, derivation)
        outcome = eng.sweep(spec, seed=seed, seed_derivation=derivation)
        session_stats = eng.stats()

    print(
        f"sweep:            {len(spec)} cells, {spec.total_trials} replicates "
        f"({workload} workload, seed {seed}, {derivation} seeds)"
    )
    print(f"sweep key:        {spec.key()}")
    for line in resume_lines:
        print(line)
    from .analysis.convergence import aggregate_results

    for cell in outcome:
        params = ", ".join(f"{k}={v}" for k, v in cell.params.items())
        ensemble = aggregate_results(cell.cell.spec.config, cell.results)
        origin = "cache" if cell.cached else "run"
        print(
            f"  [{origin:>5}] {params:<40} trials={cell.cell.trials:<5} "
            f"converged={ensemble.num_converged}/{ensemble.trials} "
            f"mean interactions={float(np.mean(ensemble.interactions)):.1f}"
        )
    print(
        f"cells:            {outcome.cached_cells} from cache, "
        f"{outcome.simulated_cells} simulated "
        f"({outcome.simulated_trials} replicates simulated)"
    )
    if store is not None:
        print(
            f"cache:            {store.hits} hits / {store.misses} misses "
            f"({cache_dir}, index {outcome.sweep_key[:16]}...)"
        )
    _print_scheduler_summary(session_stats)
    _print_transport_summary(session_stats)
    return 0


def _sweep_resume_preflight(store, spec, seed, seed_derivation) -> list[str]:
    """The ``sweep --resume`` table: which cells are already on disk.

    Recomputes the sweep's cache index key exactly as the engine will
    (same cell seeds, same resolved variants — must run inside the
    scoped session so variant resolution sees its backend) and checks
    each cell's ensemble entry, so the user sees what will replay versus
    recompute *before* any simulation starts.  The sweep itself then
    recomputes exactly the missing/corrupt cells — that is the cache's
    normal behavior; ``--resume`` adds the visibility (and turns the
    cache on).
    """
    cell_seeds = derive_cell_seeds(len(spec), seed, None, seed_derivation)
    variants = [
        get_scenario(cell.spec.scenario).variant(None) for cell in spec.cells
    ]
    index_key = store.sweep_index_key(spec.key(), cell_seeds, variants)
    index = store.load_sweep_index(index_key)
    cell_keys = index.get("cells") if isinstance(index, dict) else None
    if not isinstance(cell_keys, list) or len(cell_keys) != len(spec):
        return [
            f"resume:           no usable index for this sweep "
            f"({index_key[:16]}...); running all {len(spec)} cells"
        ]
    missing = [
        i
        for i, key in enumerate(cell_keys)
        if not (isinstance(key, str) and store.contains(key))
    ]
    lines = [
        f"resume:           {len(spec) - len(missing)}/{len(spec)} cells "
        f"already on disk, recomputing {len(missing)} "
        f"(index {index_key[:16]}...)"
    ]
    for i in missing:
        params = ", ".join(f"{k}={v}" for k, v in spec.cells[i].label_dict().items())
        lines.append(f"  [missing] cell {i}: {params or spec.cells[i].spec.scenario}")
    return lines


def _print_scheduler_summary(session_stats: dict) -> None:
    """One-line scheduler report for simulating commands (sweep)."""
    report = (session_stats.get("scheduler") or {}).get("last_sweep")
    if not report:
        return
    line = (
        f"scheduler:        {report['executor']} executor; "
        f"{report['replicates_scheduled']} replicates scheduled, "
        f"{report['replicates_from_cache']} from cache"
    )
    if report.get("replicates_served"):
        line += f" ({report['replicates_served']} served by worker caches)"
    if report["replicates_scheduled"]:
        line += (
            f"; {report['units']} kernel calls "
            f"({report['packed_units']} packed)"
            f"; predicted {report['predicted_seconds']:.2f}s, "
            f"measured {report['measured_seconds']:.2f}s"
        )
        if report["prediction_error"] is not None:
            line += f" ({report['prediction_error'] * 100:.0f}% error)"
    print(line)
    workers = report.get("workers")
    if workers:
        for name in sorted(workers):
            entry = workers[name]
            line = (
                f"  worker {name:<12} {entry['chunks']} chunks, "
                f"{entry['replicates']} replicates; predicted "
                f"{entry['predicted_seconds']:.2f}s, measured "
                f"{entry['measured_seconds']:.2f}s"
            )
            if entry.get("served"):
                line += f"; {entry['served']} chunks cache-served"
            print(line)
    fabric = (session_stats.get("cache") or {}).get("fabric")
    if fabric and (fabric["probed"] or fabric["pushed"]):
        print(
            f"cache fabric:     probed {fabric['probed']} keys, "
            f"{fabric['hits']} hits; {fabric['served']} cells served by "
            f"workers, {fabric['pushed']} pushed back, "
            f"{fabric['fallbacks']} cold fallbacks"
        )


def _print_transport_summary(session_stats: dict) -> None:
    """One-line result-transport traffic report (sweep, report)."""
    transport = session_stats.get("transport")
    if not transport:
        return
    parts = [
        f"{name} {row['chunks']} chunks / {row['bytes']} bytes"
        for name, row in transport.items()
        if row["chunks"]
    ]
    if parts:
        print(f"transport:        {'; '.join(parts)}")


def _command_worker(args) -> int:
    """Serve chunks to a remote-executor session until it says bye.

    The worker keeps nothing between runs: a chunk carries the exact
    ``SeedSequence`` children for its replicates and names its
    :class:`ScenarioSpec`, which the pool sends by value once per
    connection per run, so a worker can join, die, or be replaced at any
    point without changing any result.
    """
    import signal
    import threading

    from .engine.remote import make_client_tls_context

    # The same declaration (and the same blank-means-unset parsing) the
    # coordinator's session resolves its side of the handshake from.
    opts = EngineOptions.resolve(
        cache_dir=args.cache_dir,
        worker_secret=args.secret,
        worker_tls_ca=args.tls_ca,
        worker_tls_cert=args.tls_cert,
        worker_tls_key=args.tls_key,
    )
    tls = None
    if args.tls or opts.worker_tls_ca or opts.worker_tls_cert:
        tls = make_client_tls_context(
            cafile=opts.worker_tls_ca,
            certfile=opts.worker_tls_cert,
            keyfile=opts.worker_tls_key,
        )

    # Graceful drain: SIGTERM/SIGINT finish the in-flight chunk (the
    # pool requeues anything unanswered — bit-identical by construction,
    # since every chunk carries its own seeds), say bye, exit 0.
    drain = threading.Event()

    def _request_drain(signum, frame):
        if drain.is_set():  # second signal: give up politeness
            raise KeyboardInterrupt
        print("worker: drain requested, finishing current chunk", flush=True)
        drain.set()

    previous = [
        (signum, signal.signal(signum, _request_drain))
        for signum in (signal.SIGTERM, signal.SIGINT)
    ]
    address = args.address
    print(f"worker: connecting to {address}", flush=True)
    try:
        served = serve_worker(
            address,
            name=args.name,
            cache_dir=None if args.no_cache else opts.cache_dir,
            cache_max_bytes=opts.cache_max_bytes,
            secret=opts.worker_secret,
            tls=tls,
            drain=drain,
            max_chunks=args.max_chunks,
            on_connect=lambda welcome: print(
                "worker: connected, serving", flush=True
            ),
        )
    finally:
        for signum, handler in previous:
            signal.signal(signum, handler)
    print(f"worker: done ({served} chunks served)", flush=True)
    return 0


def _command_serve(args) -> int:
    """Run the simulation service until SIGTERM/SIGINT drains it.

    One engine session (built from the same flags every simulating
    subcommand takes) serves every submission, so the cache handle,
    executor pool and remote fleet persist across requests — that
    persistence is what makes coalescing and cache-first serving pay.
    """
    import asyncio

    from .engine.remote import parse_address
    from .service import DEFAULT_INLINE_LIMIT, SimulationService

    host, port = parse_address(args.address)
    with _build_engine(args) as eng, engine(eng):
        service = SimulationService(
            eng,
            inline_limit=args.inline_limit or DEFAULT_INLINE_LIMIT,
            debug=args.debug,
        )

        def _announce(endpoint):
            print(f"service: listening on {endpoint}", flush=True)
            print(
                f"service: submit with: repro submit {endpoint} "
                "--spec-file sweep.json",
                flush=True,
            )

        asyncio.run(service.run(host, port, on_start=_announce))
    print("service: drained, exiting", flush=True)
    return 0


def _command_submit(args) -> int:
    from .service import ServiceClient, ServiceConfig

    payload = _load_submission(args.spec_file, "submit")
    kind = args.kind
    if kind == "auto":
        kind = "sweep" if jobs.is_sweep(payload) else "ensemble"
    config = (
        ServiceConfig.builder(args.endpoint).timeout(args.timeout).build()
    )
    with ServiceClient(config) as client:
        submit = client.sweep if kind == "sweep" else client.ensemble
        answer = submit(payload, wait=not args.no_wait)
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0 if answer.get("status") != "failed" else 1


def _command_poll(args) -> int:
    from .service import ServiceClient, ServiceConfig

    config = (
        ServiceConfig.builder(args.endpoint).timeout(args.timeout).build()
    )
    with ServiceClient(config) as client:
        answer = client.poll(args.key, wait=args.wait)
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0 if answer.get("status") != "failed" else 1


def _command_cache(args) -> int:
    opts = EngineOptions.resolve(cache_dir=args.cache_dir)
    store = EnsembleCache(opts.cache_dir, max_bytes=opts.cache_max_bytes)
    if args.action == "stats":
        stats = store.stats()
        cap = stats["max_bytes"]
        print(f"cache dir:        {stats['root']}")
        print(f"ensemble entries: {stats['entries']}")
        print(f"sweep indexes:    {stats['sweep_indexes']}")
        print(f"total size:       {stats['total_bytes']} bytes")
        print(f"size cap:         {cap if cap is not None else 'unlimited'}")
        for entry in store.sweep_status():
            if entry["cells"] is None:
                print(f"  sweep {entry['key'][:16]}...  corrupt index")
                continue
            state = (
                "resumable"
                if entry["missing"]
                else "complete"
            )
            print(
                f"  sweep {entry['key'][:16]}...  "
                f"{entry['complete']}/{entry['cells']} cells complete, "
                f"{entry['missing']} missing ({state})"
            )
        if args.workers:
            _print_fleet_cache_view(args, store, opts.worker_secret)
        return 0
    removed = store.clear()
    print(f"removed {removed} entries from {store.root}")
    return 0


def _print_fleet_cache_view(args, store, secret: str | None) -> None:
    """The ``cache stats --workers`` fleet table.

    Binds a worker pool exactly like a remote-executor session would
    (same handshake, same optional ``REPRO_WORKER_SECRET`` challenge),
    waits for the requested fleet size, and prints one row per worker:
    its store token (matching rows share one physical store), entry
    count from the hello, and the served/pushed fabric counters — the
    same rows `Engine.stats()["cache"]["workers"]` reports mid-session.
    """
    from .engine.remote import WorkerPool, cache_token

    session_token = cache_token(str(store.root))
    pool = WorkerPool(
        args.workers, session_cache_token=session_token, secret=secret
    )
    try:
        print(
            f"fleet:            listening on {pool.endpoint} "
            f"(connect with: repro worker {pool.endpoint})",
            flush=True,
        )
        try:
            pool.wait_for_workers(args.wait_workers, timeout=args.wait_timeout)
        except TimeoutError:
            print(
                f"fleet:            timed out waiting for "
                f"{args.wait_workers} worker(s); showing "
                f"{pool.worker_count()} registered"
            )
        rows = pool.cache_stats()["workers"]
        if not rows:
            print("fleet:            no workers registered")
            return
        for row in sorted(rows, key=lambda r: r["name"] or ""):
            token = row["cache_token"]
            shared = " (= session store)" if token == session_token else ""
            print(
                f"  worker {row['name']:<12} "
                f"token {(token or 'none')[:16]:<16} "
                f"{row['cache_entries'] if row['cache_entries'] is not None else '?'} entries, "
                f"{row['served']} served / {row['pushed']} pushed"
                f"{shared}"
            )
    finally:
        pool.close()


def _command_list(_args) -> int:
    for experiment_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        module = EXPERIMENTS[experiment_id]
        first_line = (module.__doc__ or "").strip().splitlines()[0]
        print(f"{experiment_id:>4}  {first_line}")
    return 0


def _command_list_scenarios(_args) -> int:
    for name in available_scenarios():
        scenario = get_scenario(name)
        variants = ", ".join(scenario.variants())
        print(f"{name:>16}  {scenario.description}  [variants: {variants}]")
    return 0


def _build_config(args):
    if args.bias_type == "additive":
        return additive_bias_configuration(args.n, args.k, theorem_beta(args.n, 3.0))
    if args.bias_type == "multiplicative":
        return multiplicative_bias_configuration(args.n, args.k, 2.0)
    return uniform_configuration(args.n, args.k)


def _build_scenario_spec(args, config):
    if args.scenario == "usd":
        return usd_spec(config)
    if args.scenario == "graph":
        import networkx as nx  # deferred: only graph workloads need it

        if args.graph_topology == "complete":
            graph = nx.complete_graph(args.n)
        elif args.graph_topology == "cycle":
            graph = nx.cycle_graph(args.n)
        else:
            graph = nx.erdos_renyi_graph(
                args.n, min(1.0, 8 * np.log(args.n) / args.n), seed=7
            )
        return graph_spec(graph, config=config)
    if args.scenario == "zealots":
        zealots = args.zealots
        if zealots is None:
            zealots = [0] * (args.k - 1) + [max(1, args.n // 10)]
        return zealot_spec(config, zealots)
    if args.scenario == "noise":
        return noise_spec(config, args.noise_rho, args.noise_horizon)
    if args.scenario == "gossip":
        return gossip_spec(config, rule=args.gossip_rule, max_rounds=args.max_rounds)
    raise ValueError(f"unknown scenario {args.scenario!r}")


def _command_simulate(args) -> int:
    config = _build_config(args)

    with _build_engine(args) as eng, engine(eng):
        if args.scenario is None:
            tracker = PhaseTracker()
            result = eng.simulate(
                config,
                rng=np.random.default_rng(args.seed),
                max_interactions=args.max_interactions,
                observer=tracker.observe,
            )
            print(f"backend:          {get_backend(eng.options.backend).name}")
            print(f"initial supports: {config.supports.tolist()}")
            print(f"winner:           Opinion {result.winner}")
            print(f"interactions:     {result.interactions}")
            print(f"parallel time:    {result.parallel_time:.1f}")
            print(f"phase times:      {tracker.times}")
            return 0

        spec = _build_scenario_spec(args, config)
        store = eng.cache
        results = eng.ensemble(
            spec,
            args.trials,
            seed=args.seed,
            max_interactions=args.max_interactions,
        )
    print(f"scenario:         {spec.scenario}")
    print(f"initial supports: {config.supports.tolist()}")
    print(f"trials:           {len(results)}")
    if store is not None:
        status = "hit" if store.hits else "miss"
        print(f"cache:            {status} ({store.root})")
    costs = [
        getattr(r, "interactions", None) or getattr(r, "rounds", 0) for r in results
    ]
    print(f"mean cost:        {float(np.mean(costs)):.1f} "
          f"({'rounds' if spec.scenario == 'gossip' else 'interactions'})")
    converged = [r for r in results if getattr(r, "converged", False)]
    print(f"converged:        {len(converged)}/{len(results)}")
    winners = [w for w in (getattr(r, "winner", None) for r in results) if w]
    if winners:
        histogram = {w: winners.count(w) for w in sorted(set(winners))}
        print(f"winners:          {histogram}")
    plateaus = [
        r.tail_mean_plurality_fraction
        for r in results
        if hasattr(r, "tail_mean_plurality_fraction")
    ]
    if plateaus:
        print(f"plateau (tail mean plurality): {float(np.mean(plateaus)):.3f}")
    return 0


_COMMANDS = {
    "run": _command_run,
    "report": _command_report,
    "list": _command_list,
    "list-scenarios": _command_list_scenarios,
    "simulate": _command_simulate,
    "sweep": _command_sweep,
    "worker": _command_worker,
    "serve": _command_serve,
    "submit": _command_submit,
    "poll": _command_poll,
    "cache": _command_cache,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
