"""Unified simulation engine: scenarios, backends, batching, caching.

This package is the seam between *what* is simulated and *how* an
ensemble of replicates is executed.  The *what* is a scenario — plain
USD through the backend registry, or any registered parameterized
dynamics (graph-restricted USD, zealots, transient noise, synchronous
gossip) frozen into a :class:`ScenarioSpec`.  The *how* is serial or
multiprocessing execution with per-replicate ``SeedSequence`` seeding,
optional vectorized batching, and an on-disk ensemble cache keyed by
``(spec, trials, seed, variant, budget)``.  Everything that runs
ensembles — the trial
runner, the sweep harness, the experiment modules, the CLI and the
benchmarks — goes through :func:`run_ensemble`.

>>> from repro.engine import run_ensemble
>>> from repro.workloads import uniform_configuration
>>> results = run_ensemble(uniform_configuration(200, 3), 16, seed=7,
...                        backend="batched")
>>> len(results)
16

>>> from repro.engine import zealot_spec
>>> spec = zealot_spec(uniform_configuration(100, 2), [0, 5])
>>> runs = run_ensemble(spec, 4, seed=1, max_interactions=50_000)

The front door is the **session** (:mod:`repro.engine.session`): an
:class:`Engine` owns fully-resolved frozen :class:`EngineOptions`, a
persistent executor pool reused across every ``.ensemble()``/``.sweep()``
call, and an open ensemble-cache handle —

>>> from repro.engine import Engine
>>> with Engine(backend="batched") as eng:
...     results = eng.ensemble(uniform_configuration(200, 3), 16, seed=7)

while the free functions above remain thin wrappers over a module-level
default session (bit-identical results at fixed seeds).  Scoped
configuration uses ``with engine(jobs=4): ...``.

Backends are selected by name (``"agents"``, ``"jump"``, ``"batched"``,
``"compiled"`` — the numba-jitted tier, which transparently falls back
to the numpy kernels when numba is absent)
and new ones plug in via :func:`register_backend`; scenarios likewise
via :func:`register_scenario`.  Every engine option is declared once in
:class:`EngineOptions` (with its CLI flag and its ``REPRO_*``
environment variable) and resolved once, at session construction.

Beyond the in-host executors, ``executor="remote"``
(:mod:`repro.engine.remote`) shards the same chunk queue across
socket-connected ``repro worker`` processes with a length-prefixed
framed wire protocol and fixed-width record blocks on the return path —
bit-identical to serial/process execution at fixed seeds.
"""

from .backends import (
    AgentsBackend,
    Backend,
    JumpBackend,
    available_backends,
    get_backend,
    register_backend,
    supports_batch,
)
from .batched import (
    BatchedBackend,
    CompiledBackend,
    simulate_batch,
    simulate_batch_compiled,
    simulate_batch_single_event,
)
from .cache import EnsembleCache, ensemble_key, seed_token
from .codec import ProtocolError
from .costmodel import CostModel, cost_signature
from .executors import DEFAULT_BATCH_SIZE, EXECUTORS, replicate_seeds, run_ensemble
from .options import (
    DEFAULT_BACKEND,
    DEFAULT_CACHE_DIR,
    EngineOptions,
    active_options,
)
from .remote import (
    DEFAULT_WORKER_TIMEOUT,
    PROTOCOL_VERSION,
    WorkerPool,
    parse_address,
    serve_worker,
)
from .scenarios import (
    Scenario,
    ScenarioSpec,
    available_scenarios,
    coerce_spec,
    get_scenario,
    gossip_spec,
    graph_spec,
    noise_spec,
    register_scenario,
    usd_spec,
    zealot_spec,
)
from .session import Engine, current_engine, engine
from .sweep import (
    SEED_DERIVATIONS,
    SweepCell,
    SweepCellRun,
    SweepRun,
    SweepSpec,
    derive_cell_seeds,
    legacy_cell_seed,
    run_sweep,
)

__all__ = [
    "Engine",
    "EngineOptions",
    "engine",
    "current_engine",
    "Backend",
    "AgentsBackend",
    "JumpBackend",
    "BatchedBackend",
    "CompiledBackend",
    "available_backends",
    "get_backend",
    "register_backend",
    "supports_batch",
    "simulate_batch",
    "simulate_batch_compiled",
    "simulate_batch_single_event",
    "Scenario",
    "ScenarioSpec",
    "available_scenarios",
    "coerce_spec",
    "get_scenario",
    "register_scenario",
    "usd_spec",
    "graph_spec",
    "zealot_spec",
    "noise_spec",
    "gossip_spec",
    "EnsembleCache",
    "ensemble_key",
    "seed_token",
    "run_ensemble",
    "replicate_seeds",
    "SweepCell",
    "SweepCellRun",
    "SweepRun",
    "SweepSpec",
    "run_sweep",
    "derive_cell_seeds",
    "legacy_cell_seed",
    "CostModel",
    "cost_signature",
    "SEED_DERIVATIONS",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "EXECUTORS",
    "active_options",
    "WorkerPool",
    "serve_worker",
    "parse_address",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "DEFAULT_WORKER_TIMEOUT",
]

register_backend(BatchedBackend())
register_backend(CompiledBackend())
