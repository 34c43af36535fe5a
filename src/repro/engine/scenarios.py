"""Scenario layer: every dynamics variant as a parameterized engine workload.

PR 1 made :func:`repro.engine.run_ensemble` the single ensemble seam,
but it only spoke plain USD on a complete graph.  This module
generalizes the backend protocol to *any* parameterized dynamics:

* a :class:`ScenarioSpec` freezes one workload — a registered dynamics
  name, its parameters, and the initial :class:`Configuration` — into a
  hashable, picklable, content-addressable value (the ensemble cache
  keys on ``spec.key()``);
* a :class:`Scenario` knows how to execute a spec: a **reference**
  implementation (bit-identical to the legacy ``simulate_*`` entry
  point, which delegates to the same kernel), where the jump-chain or
  lockstep trick applies a vectorized **batched** variant, and where a
  jitted kernel exists (:mod:`repro.kernels`) a **compiled** variant
  that transparently falls back to the batched tier without numba;
* a registry maps stable names to scenario instances, exactly like the
  backend registry, so experiments, sweeps, the CLI and the local and
  remote workers select dynamics by name.

Built-in scenarios
------------------
``"usd"``
    Plain USD on the complete graph.  Delegates to the backend registry
    (``"agents"``/``"jump"``/``"batched"``), so the scenario layer is a
    strict superset of the PR 1 engine.
``"graph"``
    USD restricted to a directed edge array
    (:mod:`repro.graphs.dynamics`).  Params: ``edges``, ``k``, optional
    ``initial_states`` (omit to expand the configuration into a shuffled
    state array with the replicate's own generator).  Has a batched
    per-edge-array lockstep variant (bit-identical to the reference)
    and a compiled per-replicate kernel (also bit-identical).
``"zealots"``
    USD against a stubborn background (:mod:`repro.faults.zealots`).
    Params: ``zealots``.  Has batched and compiled multi-event
    jump-chain variants.
``"noise"``
    USD under transient state corruption (:mod:`repro.faults.noise`).
    Params: ``rho``, ``horizon``, ``tail_fraction``.  Has a batched
    lockstep variant (no compiled tier; ``--backend compiled`` falls
    back to it).
``"gossip"``
    Synchronous gossip round engine (:mod:`repro.gossip`).  Params:
    ``rule`` (``"usd"``, ``"voter"``, ``"two-choices"``,
    ``"three-majority"``, ``"median"``), optional ``max_rounds``.  Has
    batched and compiled stacked-replicate round variants, both
    bit-identical to the reference for every rule (``three-majority``
    draws through ``BatchedDraws.take_schedule``, which preserves the
    serial per-round call order).

Every registered scenario therefore has a vectorized ``batched``
variant; ``run_ensemble(..., backend="batched")`` reaches all of them.
``backend="compiled"`` selects the jitted kernels where a scenario has
them and degrades to ``batched`` otherwise, so it is equally universal.

Adding a scenario is a registry entry, not a new subsystem: subclass
:class:`Scenario`, implement ``reference`` (and optionally ``batched``),
and call :func:`register_scenario`.  ``run_ensemble`` then gives the new
dynamics the serial executor, deterministic per-replicate seeding, and
result caching for free.  Scenarios that additionally opt into the
fixed-width **result-record codec** (``record_transport``,
:meth:`Scenario.encode_record` / :meth:`Scenario.decode_record`) also
run on the process and remote executors, whose workers return results
only as compact record blocks; without it both refuse the cell.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.config import Configuration
from ..core.lockstep import lockstep_batch
from ..core.simulator import RunResult, default_interaction_budget
from ..faults.noise import NoisyRunResult, simulate_noise_batch, simulate_with_noise
from ..faults.zealots import (
    ZealotRunResult,
    default_zealot_budget,
    simulate_with_zealots,
    simulate_zealots_batch,
    validate_zealot_counts,
    zealot_results,
)
from ..gossip.engine import GossipResult, run_gossip, run_gossip_batch
from ..gossip.usd import usd_gossip_round, usd_gossip_round_batch
from .backends import Backend, get_backend, supports_batch
from .options import active_options

#: Bits of the ``flags`` slot in the fixed-width result record.
RECORD_FLAG_CONVERGED = 1
RECORD_FLAG_EXHAUSTED = 2
RECORD_FLAG_OBSERVER = 4

__all__ = [
    "ScenarioSpec",
    "PackedChunk",
    "Scenario",
    "available_scenarios",
    "coerce_spec",
    "get_scenario",
    "register_scenario",
    "usd_spec",
    "graph_spec",
    "zealot_spec",
    "noise_spec",
    "gossip_spec",
]


# ----------------------------------------------------------------------
# Frozen parameter values
# ----------------------------------------------------------------------
def _freeze(value: Any) -> Any:
    """Recursively convert a parameter value to a hashable canonical form.

    Arrays and sequences become tuples, mappings become sorted tuples of
    pairs; scalar leaves must be JSON-representable so the spec can be
    content-hashed for the ensemble cache.
    """
    if isinstance(value, np.ndarray):
        return tuple(_freeze(v) for v in value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"scenario parameters must be scalars, arrays or nested sequences "
        f"of them, got {type(value).__name__}"
    )


def _jsonable(value: Any) -> Any:
    """Frozen value -> plain JSON structure (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One frozen workload: dynamics name + parameters + initial state.

    Specs are immutable, hashable and picklable, so they can key caches
    and dictionaries; they travel to local and remote workers as JSON
    (:meth:`to_json`) unchanged.
    Build them with :meth:`create` (or the per-scenario helpers below),
    which canonicalizes the parameter values.
    """

    scenario: str
    config: Configuration
    params: tuple = field(default=())

    def __post_init__(self) -> None:
        if not self.scenario or not isinstance(self.scenario, str):
            raise ValueError(f"scenario must be a non-empty name, got {self.scenario!r}")
        if not isinstance(self.config, Configuration):
            raise TypeError(
                f"config must be a Configuration, got {type(self.config).__name__}"
            )
        object.__setattr__(self, "params", _freeze(dict(self.params)))

    @classmethod
    def create(
        cls, scenario: str, config: Configuration, **params: Any
    ) -> "ScenarioSpec":
        """Build a spec from keyword parameters."""
        return cls(scenario=scenario, config=config, params=tuple(params.items()))

    def params_dict(self) -> dict:
        """Parameters as a plain dictionary (values stay frozen)."""
        return dict(self.params)

    def param(self, name: str, default: Any = None) -> Any:
        """Look up one parameter with a default."""
        return self.params_dict().get(name, default)

    def with_params(self, **updates: Any) -> "ScenarioSpec":
        """A copy of this spec with some parameters replaced."""
        merged = self.params_dict()
        merged.update(updates)
        return ScenarioSpec.create(self.scenario, self.config, **merged)

    def __getstate__(self) -> dict:
        # Drop scenario-side memos (e.g. GraphScenario's ndarray cache):
        # the frozen params are the source of truth, and shipping both
        # forms would multiply the size of every pickled spec.
        state = dict(self.__dict__)
        state.pop("_array_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def to_json(self) -> dict:
        """The spec as a plain JSON object: scenario, counts and params.

        This one form is what :meth:`key` hashes and what carries a spec
        to socket workers; :meth:`from_json` is its inverse.
        """
        return {
            "scenario": self.scenario,
            "config": self.config.counts.tolist(),
            "params": _jsonable(self.params),
        }

    @classmethod
    def from_json(cls, payload: Any) -> "ScenarioSpec":
        """Inverse of :meth:`to_json`; ``ValueError`` on any other shape.

        The spec is not checked against its scenario (``validate``).
        """
        if not (
            isinstance(payload, dict)
            and set(payload) == {"scenario", "config", "params"}
            and isinstance(payload["config"], list)
            and all(type(count) is int for count in payload["config"])
            and isinstance(payload["params"], list)
            and all(
                isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str)
                for pair in payload["params"]
            )
            and len({pair[0] for pair in payload["params"]}) == len(payload["params"])
        ):
            raise ValueError(
                "a JSON spec is {'scenario': name, 'config': [int, ...], "
                "'params': [[name, value], ...]} with distinct names"
            )
        params = tuple(tuple(pair) for pair in payload["params"])
        return cls(payload["scenario"], Configuration(payload["config"]), params)

    def key(self) -> str:
        """Stable content hash of (scenario, params, config).

        Two specs have equal keys exactly when they describe the same
        workload; the ensemble cache combines this with the seed and the
        variant name.  Computed once per spec object (the spec is frozen),
        since a 10^5-edge graph spec takes a tenth of a second to hash.
        """
        key = self.__dict__.get("_key")
        if key is None:
            canonical = json.dumps(
                self.to_json(), sort_keys=True, separators=(",", ":")
            )
            key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            self.__dict__["_key"] = key
        return key

    def __repr__(self) -> str:
        keys = ", ".join(f"{k}=..." if isinstance(v, tuple) and len(v) > 6 else f"{k}={v!r}"
                         for k, v in self.params)
        return f"ScenarioSpec({self.scenario!r}, {self.config!r}, {keys})"


# ----------------------------------------------------------------------
# Scenario protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PackedChunk:
    """Replicates of several cells run as one lockstep kernel call.

    Passed to :meth:`Scenario.run_chunk` in place of a spec, with the
    flat generator list of every segment in order; the results come
    back flat in the same order.  Each segment is ``(spec, replicates,
    max_interactions)``: consecutive columns of one cell, with that
    cell's own budget (``None`` = the scenario's default for the cell).
    Only scenarios whose :meth:`Scenario.packs` says so accept one.
    """

    segments: tuple[tuple[ScenarioSpec, int, int | None], ...]


class Scenario:
    """One registered dynamics family the engine knows how to execute.

    Subclasses implement :meth:`reference` — one replicate with one
    generator, semantics matching the legacy ``simulate_*`` entry point
    bit-for-bit — and may override :meth:`batched` with a vectorized
    whole-chunk implementation.  The executor layer picks the variant
    via :meth:`variant` and runs chunks through :meth:`run_chunk`.
    """

    name: str = ""
    description: str = ""

    # -- validation ----------------------------------------------------
    def validate(self, spec: ScenarioSpec) -> None:
        """Reject malformed specs early with a clear message."""

    # -- implementations ----------------------------------------------
    def reference(
        self,
        spec: ScenarioSpec,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
    ):
        raise NotImplementedError

    batched: Callable | None = None

    #: Optional jitted whole-chunk variant (:mod:`repro.kernels`); the
    #: kernels themselves fall back to numpy when numba is absent, so a
    #: ``compiled`` attribute is safe to expose unconditionally.
    compiled: Callable | None = None

    @property
    def has_batched(self) -> bool:
        """Whether a vectorized whole-chunk variant is available."""
        return callable(self.batched)

    @property
    def has_compiled(self) -> bool:
        """Whether a jitted whole-chunk variant is available."""
        return callable(self.compiled)

    def variants(self) -> tuple[str, ...]:
        """Names accepted by ``run_ensemble``'s ``backend`` argument."""
        names = ["reference"]
        if self.has_batched:
            names.append("batched")
        if self.has_compiled:
            names.append("compiled")
        return tuple(names)

    # -- variant resolution -------------------------------------------
    def variant(self, backend: str | Backend | None) -> str:
        """Map an engine backend selection to a variant of this scenario.

        ``None`` falls back to the session default backend (so a
        session-wide ``--backend batched`` / ``REPRO_ENGINE_BACKEND``
        reaches scenario ensembles too).  The serial USD backends
        (``"agents"``, ``"jump"``) resolve to ``"reference"``;
        ``"batched"`` resolves to the scenario's batched variant when it
        has one and falls back to the reference otherwise, as does any
        *session-default* name this scenario does not know (a custom USD
        backend must not break every other scenario).  ``"compiled"``
        degrades along the same ladder — compiled where available, else
        batched, else reference — so selecting the compiled tier
        session-wide never breaks a scenario without jitted kernels.
        Only an explicitly requested unknown name is an error.
        """
        explicit = backend is not None
        if backend is None:
            backend = active_options().backend
        name = backend if isinstance(backend, str) else getattr(backend, "name", None)
        if name is None or name in ("agents", "jump", "reference"):
            return "reference"
        if name == "batched":
            return "batched" if self.has_batched else "reference"
        if name == "compiled":
            if self.has_compiled:
                return "compiled"
            return "batched" if self.has_batched else "reference"
        if not explicit:
            return "reference"
        raise ValueError(
            f"scenario {self.name!r} has no variant for backend {name!r}; "
            f"available: {self.variants()}"
        )

    def prepare_runner(self, variant: str, backend: str | Backend | None = None):
        """What :meth:`run_chunk` consumes for an in-process run.

        The base implementation is the variant name; the USD scenario
        overrides this to keep an explicitly passed backend *instance*
        (which may not be registered) instead of re-resolving the name.
        """
        return variant

    def check_process_safe(
        self, variant: str, backend: str | Backend | None = None
    ) -> None:
        """Raise if ``variant`` cannot be re-resolved inside a worker process."""

    def packs(self, runner) -> bool:
        """Whether :meth:`run_chunk` takes a :class:`PackedChunk` for ``runner``."""
        return False

    # -- fixed-width result records (out-of-process result format) ----
    #: Whether this scenario's results round-trip through the
    #: fixed-width record codec below.  Off by default: a scenario whose
    #: result type the base codec does not describe must not be silently
    #: mis-encoded, so custom scenarios run on the serial executor only
    #: until they opt in.
    record_transport: bool = False

    #: Extra ``float64`` slots per record beyond the integer layout
    #: (e.g. the noise scenario's plateau statistics).
    record_floats: int = 0

    def record_transport_for(self, variant: str) -> bool:
        """Whether the record codec is safe for this resolved variant.

        The executor consults this (not the bare attribute) so a
        scenario can veto the codec per variant — the USD scenario does,
        because custom registered backends may return ``RunResult``
        subclasses the fixed-width record would silently flatten.
        """
        return self.record_transport

    def record_ints(self, spec: ScenarioSpec) -> int:
        """``int64`` slots per record: counts, interactions, winner, flags."""
        return spec.config.k + 4

    def encode_record(self, spec: ScenarioSpec, result, ints, floats) -> None:
        """Pack one result into preallocated record rows.

        The base layout is ``[final counts (k+1) | interactions | winner
        (-1 = none) | flags]`` in the ``int64`` row plus
        ``record_floats`` extras in the ``float64`` row; it fits every
        result type whose payload is the final histogram, a budget
        counter and the outcome flags.
        """
        k = spec.config.k
        ints[: k + 1] = result.final.counts
        ints[k + 1] = result.interactions
        winner = result.winner
        ints[k + 2] = -1 if winner is None else winner
        ints[k + 3] = (
            (RECORD_FLAG_CONVERGED if result.converged else 0)
            | (RECORD_FLAG_EXHAUSTED if result.budget_exhausted else 0)
            | (
                RECORD_FLAG_OBSERVER
                if getattr(result, "stopped_by_observer", False)
                else 0
            )
        )

    def decode_record(self, spec: ScenarioSpec, ints, floats):
        """Rebuild one result from its record rows (inverse of encode)."""
        k = spec.config.k
        flags = int(ints[k + 3])
        winner = int(ints[k + 2])
        return RunResult(
            initial=spec.config,
            final=Configuration.from_trusted_counts(ints[: k + 1]),
            interactions=int(ints[k + 1]),
            converged=bool(flags & RECORD_FLAG_CONVERGED),
            winner=None if winner < 0 else winner,
            stopped_by_observer=bool(flags & RECORD_FLAG_OBSERVER),
            budget_exhausted=bool(flags & RECORD_FLAG_EXHAUSTED),
        )

    # -- execution -----------------------------------------------------
    def run_chunk(
        self,
        spec: ScenarioSpec,
        variant: str,
        rngs: list[np.random.Generator],
        max_interactions: int | None,
    ) -> list:
        """Run one contiguous chunk of replicates with the given variant."""
        if variant == "compiled" and self.has_compiled:
            return self.compiled(spec, rngs=rngs, max_interactions=max_interactions)
        if variant == "batched" and self.has_batched:
            return self.batched(spec, rngs=rngs, max_interactions=max_interactions)
        return [
            self.reference(spec, rng=rng, max_interactions=max_interactions)
            for rng in rngs
        ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}

#: Bumped on every registration.  Forked local workers snapshot the
#: registry at fork time, so a session's local workers key on this
#: epoch and are forked anew when a scenario is registered after.
_REGISTRY_EPOCH = 0


def registry_epoch() -> int:
    """Monotone counter of scenario registrations (pool-staleness key)."""
    return _REGISTRY_EPOCH


def register_scenario(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add a scenario to the registry under ``scenario.name``."""
    name = getattr(scenario, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"scenario must have a non-empty string name, got {name!r}")
    if not callable(getattr(scenario, "reference", None)):
        raise TypeError(f"scenario {name!r} has no callable reference implementation")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"scenario {name!r} is already registered; pass replace=True to override"
        )
    global _REGISTRY_EPOCH
    _REGISTRY_EPOCH += 1
    _REGISTRY[name] = scenario
    return scenario


def get_scenario(scenario: str | Scenario) -> Scenario:
    """Resolve a scenario by name (or pass an instance through unchanged)."""
    if not isinstance(scenario, str):
        if not callable(getattr(scenario, "reference", None)):
            raise TypeError(f"{scenario!r} does not implement the Scenario protocol")
        return scenario
    try:
        return _REGISTRY[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; available: {available_scenarios()}"
        ) from None


def available_scenarios() -> tuple[str, ...]:
    """Registered scenario names in registration order."""
    return tuple(_REGISTRY)


def coerce_spec(workload: Configuration | ScenarioSpec) -> ScenarioSpec:
    """Accept either a plain configuration (the ``"usd"`` scenario) or a spec."""
    if isinstance(workload, ScenarioSpec):
        return workload
    if isinstance(workload, Configuration):
        return ScenarioSpec.create("usd", workload)
    raise TypeError(
        f"expected a Configuration or ScenarioSpec, got {type(workload).__name__}"
    )


# ----------------------------------------------------------------------
# Packed chunks for the scenarios whose batched variant is lockstep_batch
# ----------------------------------------------------------------------
class LockstepScenario(Scenario):
    """A scenario whose batched variant is :func:`lockstep_batch`.

    Such cells run together: :meth:`run_packed` gives every column its
    own initial counts, zealots, ``n`` and budget, and zero-pads the
    narrower cells to the widest ``k`` — exact, per
    :mod:`repro.core.lockstep`, so each replicate's result is
    bit-identical to a per-cell run.
    """

    def packs(self, runner) -> bool:
        return runner == "batched"

    def lockstep_column(self, spec: ScenarioSpec, max_interactions: int | None):
        """``(counts, zealots, n, budget)`` of one column of ``spec``."""
        raise NotImplementedError

    def lockstep_results(self, spec: ScenarioSpec, final, interactions, exhausted):
        """Per-replicate results of ``spec`` from kernel output rows."""
        raise NotImplementedError

    def run_chunk(self, spec, variant, rngs, max_interactions):
        if isinstance(spec, PackedChunk):
            return self.run_packed(spec, rngs)
        return super().run_chunk(spec, variant, rngs, max_interactions)

    def run_packed(self, packed: PackedChunk, rngs) -> list:
        segments = packed.segments
        columns = [
            self.lockstep_column(spec, budget) for spec, _, budget in segments
        ]
        width = 1 + max(spec.config.k for spec, _, _ in segments)
        counts = np.zeros((len(segments), width), dtype=np.int64)
        zealots = np.zeros((len(segments), width - 1), dtype=np.int64)
        for row, (initial, stubborn, _, _) in enumerate(columns):
            counts[row, : initial.size] = initial
            zealots[row, : stubborn.size] = stubborn
        repeats = [replicates for _, replicates, _ in segments]
        final, interactions, exhausted = lockstep_batch(
            np.repeat(counts, repeats, axis=0),
            np.repeat(zealots, repeats, axis=0),
            np.repeat([column[2] for column in columns], repeats),
            rngs=rngs,
            max_interactions=np.repeat([column[3] for column in columns], repeats),
        )
        results: list = []
        stop = 0
        for spec, replicates, _ in segments:
            start, stop = stop, stop + replicates
            k = spec.config.k
            if final[start:stop, k + 1 :].any():
                raise RuntimeError(
                    f"a packed {self.name!r} column ended with a non-zero "
                    "padded opinion; packing must never change a result"
                )
            results.extend(
                self.lockstep_results(
                    spec,
                    final[start:stop, : k + 1],
                    interactions[start:stop],
                    exhausted[start:stop],
                )
            )
        return results


# ----------------------------------------------------------------------
# Built-in scenario: plain USD through the backend registry
# ----------------------------------------------------------------------
class UsdScenario(LockstepScenario):
    """Plain USD on the complete graph; delegates to the backend registry."""

    name = "usd"
    description = "k-opinion USD on the complete graph (backend registry)"
    record_transport = True

    def record_transport_for(self, variant: str) -> bool:
        # Only the built-in backends are known to return plain
        # RunResults; a custom registered backend may return a subclass
        # whose extra fields the fixed-width record would silently drop,
        # so those run on the serial executor only.
        from .backends import AgentsBackend, JumpBackend
        from .batched import BatchedBackend, CompiledBackend

        try:
            backend = get_backend(variant)
        except ValueError:
            return False
        return type(backend) in (
            AgentsBackend,
            JumpBackend,
            BatchedBackend,
            CompiledBackend,
        )

    def variants(self) -> tuple[str, ...]:
        from .backends import available_backends

        return available_backends()

    def variant(self, backend: str | Backend | None) -> str:
        resolved = get_backend(
            backend if backend is not None else active_options().backend
        )
        return resolved.name

    def prepare_runner(self, variant: str, backend: str | Backend | None = None):
        # Keep an explicitly passed instance: unregistered backends are
        # allowed on the serial executor (only the process executor
        # needs name-resolvability, enforced by check_process_safe).
        if backend is not None and not isinstance(backend, str):
            return backend
        return variant

    def check_process_safe(
        self, variant: str, backend: str | Backend | None = None
    ) -> None:
        # Workers resolve the backend by name from their (forked or
        # re-imported) registry, so the name must resolve to the very
        # instance selected here — an unregistered instance would only
        # fail inside the pool with a confusing per-worker error.
        resolved = get_backend(backend) if backend is not None else None
        try:
            registered = get_backend(variant)
        except ValueError:
            registered = None
        if registered is None or (resolved is not None and registered is not resolved):
            raise ValueError(
                f"backend {variant!r} must be registered (register_backend) "
                "before it can run on the process executor"
            )

    def reference(self, spec, *, rng, max_interactions=None):
        return get_backend(active_options().backend).simulate(
            spec.config, rng=rng, max_interactions=max_interactions
        )

    def packs(self, runner) -> bool:
        # Only the built-in batched backend is known to be lockstep_batch;
        # a passed instance or a replacement registered as "batched"
        # runs per cell through its own simulate_batch.
        from .batched import BatchedBackend

        return runner == "batched" and type(get_backend(runner)) is BatchedBackend

    def lockstep_column(self, spec, max_interactions):
        config = spec.config
        if max_interactions is None:
            max_interactions = default_interaction_budget(config.n, config.k)
        zealots = np.zeros(config.k, dtype=np.int64)
        return config.counts, zealots, config.n, max_interactions

    def lockstep_results(self, spec, final, interactions, exhausted):
        from .batched import _results_from_arrays

        return _results_from_arrays(spec.config, final, interactions, exhausted)

    def run_chunk(self, spec, variant, rngs, max_interactions):
        if isinstance(spec, PackedChunk):
            return self.run_packed(spec, rngs)
        backend = get_backend(variant)
        if supports_batch(backend):
            return backend.simulate_batch(
                spec.config, rngs=rngs, max_interactions=max_interactions
            )
        return [
            backend.simulate(spec.config, rng=rng, max_interactions=max_interactions)
            for rng in rngs
        ]


# ----------------------------------------------------------------------
# Built-in scenario: USD on a restricted interaction graph
# ----------------------------------------------------------------------
class GraphScenario(Scenario):
    """USD restricted to a directed edge array.

    When ``initial_states`` is omitted the configuration is expanded
    into a shuffled agent array with the replicate's own generator, so
    replicates differ in their (random) placement exactly as repeated
    calls to ``Configuration.to_states`` would.
    """

    name = "graph"
    description = "USD restricted to the edges of an interaction graph"
    record_transport = True

    @staticmethod
    def _param_array(spec: ScenarioSpec, name: str) -> np.ndarray:
        """Parameter as an int64 array, converted once per spec.

        Spec params are frozen to nested tuples for hashing; rebuilding
        the edge array element-by-element for every replicate would be
        O(m) interpreter work per run, so the ndarray is memoized on the
        (frozen) spec — dataclass equality and hashing look only at the
        declared fields, never at this cache.
        """
        memo = spec.__dict__.setdefault("_array_cache", {})
        if name not in memo:
            memo[name] = np.asarray(spec.params_dict()[name], dtype=np.int64)
        return memo[name]

    def validate(self, spec: ScenarioSpec) -> None:
        # Imported lazily: the kernel is numpy-only, but the graphs
        # package's public entry point pulls in networkx.
        from ..graphs.dynamics import validate_edge_array, validate_graph_states

        params = spec.params_dict()
        if "edges" not in params:
            raise ValueError("graph scenario needs an 'edges' parameter")
        edges = validate_edge_array(self._param_array(spec, "edges"))
        k = int(params.get("k", spec.config.k))
        if k != spec.config.k:
            raise ValueError(
                f"graph scenario k={k} disagrees with config k={spec.config.k}"
            )
        n = spec.config.n
        if edges.max() >= n:
            raise ValueError(
                f"edge endpoints must lie in [0, {n - 1}], got {int(edges.max())}"
            )
        states = params.get("initial_states")
        if states is not None:
            states = validate_graph_states(self._param_array(spec, "initial_states"), n, k)
            counts = np.bincount(states, minlength=k + 1)
            if not np.array_equal(counts, spec.config.counts):
                raise ValueError(
                    "initial_states histogram disagrees with the spec's config"
                )

    def reference(self, spec, *, rng, max_interactions=None):
        from ..graphs.dynamics import run_on_edges

        params = spec.params_dict()
        k = int(params.get("k", spec.config.k))
        if params.get("initial_states") is None:
            states = spec.config.to_states(rng)
        else:
            states = self._param_array(spec, "initial_states")
        edges = self._param_array(spec, "edges")
        return run_on_edges(
            edges,
            states,
            rng=rng,
            k=k,
            n=spec.config.n,
            max_interactions=max_interactions,
        )

    def batched(self, spec, *, rngs, max_interactions=None):
        # Bit-identical to `reference` per replicate: state expansion and
        # the buffered edge picks consume each generator's stream in the
        # exact order the serial kernel does (bounded int64 draws are
        # chunk-invariant).
        from ..graphs.dynamics import run_on_edges_batch

        if not rngs:
            return []
        params = spec.params_dict()
        k = int(params.get("k", spec.config.k))
        if params.get("initial_states") is None:
            states = np.stack([spec.config.to_states(rng) for rng in rngs])
        else:
            states = self._param_array(spec, "initial_states")
        edges = self._param_array(spec, "edges")
        return run_on_edges_batch(
            edges,
            states,
            rngs=rngs,
            k=k,
            n=spec.config.n,
            max_interactions=max_interactions,
        )

    def compiled(self, spec, *, rngs, max_interactions=None):
        # The jitted per-replicate kernel consumes only bounded int64
        # draws, which are chunk-invariant, so it is bit-identical to
        # `batched` and `reference` unconditionally; without numba it
        # delegates to run_on_edges_batch itself.
        from ..kernels.graph_jit import run_on_edges_batch_compiled

        if not rngs:
            return []
        params = spec.params_dict()
        k = int(params.get("k", spec.config.k))
        if params.get("initial_states") is None:
            states = np.stack([spec.config.to_states(rng) for rng in rngs])
        else:
            states = self._param_array(spec, "initial_states")
        edges = self._param_array(spec, "edges")
        return run_on_edges_batch_compiled(
            edges,
            states,
            rngs=rngs,
            k=k,
            n=spec.config.n,
            max_interactions=max_interactions,
        )

    def decode_record(self, spec, ints, floats):
        from ..graphs.dynamics import GraphRunResult

        k = spec.config.k
        final = Configuration.from_trusted_counts(ints[: k + 1])
        flags = int(ints[k + 3])
        winner = int(ints[k + 2])
        return GraphRunResult(
            final=final,
            interactions=int(ints[k + 1]),
            converged=bool(flags & RECORD_FLAG_CONVERGED),
            winner=None if winner < 0 else winner,
            budget_exhausted=bool(flags & RECORD_FLAG_EXHAUSTED),
        )


# ----------------------------------------------------------------------
# Built-in scenario: zealots
# ----------------------------------------------------------------------
class ZealotScenario(LockstepScenario):
    """USD with a fixed stubborn background (jump chain + batched variant)."""

    name = "zealots"
    description = "USD against stubborn zealot agents"
    record_transport = True

    def _zealots(self, spec: ScenarioSpec) -> np.ndarray:
        return np.asarray(spec.param("zealots", ()), dtype=np.int64)

    def decode_record(self, spec, ints, floats):
        k = spec.config.k
        flags = int(ints[k + 3])
        winner = int(ints[k + 2])
        return ZealotRunResult(
            final=Configuration.from_trusted_counts(ints[: k + 1]),
            zealots=self._zealots(spec),
            interactions=int(ints[k + 1]),
            converged=bool(flags & RECORD_FLAG_CONVERGED),
            winner=None if winner < 0 else winner,
            budget_exhausted=bool(flags & RECORD_FLAG_EXHAUSTED),
        )

    def validate(self, spec: ScenarioSpec) -> None:
        validate_zealot_counts(self._zealots(spec), spec.config.k)

    def reference(self, spec, *, rng, max_interactions=None):
        return simulate_with_zealots(
            spec.config, self._zealots(spec), rng=rng, max_interactions=max_interactions
        )

    def batched(self, spec, *, rngs, max_interactions=None):
        return simulate_zealots_batch(
            spec.config,
            self._zealots(spec),
            rngs=rngs,
            max_interactions=max_interactions,
        )

    def compiled(self, spec, *, rngs, max_interactions=None):
        from ..kernels.lockstep_jit import lockstep_batch_compiled

        return simulate_zealots_batch(
            spec.config,
            self._zealots(spec),
            rngs=rngs,
            max_interactions=max_interactions,
            kernel=lockstep_batch_compiled,
        )

    def lockstep_column(self, spec, max_interactions):
        config = spec.config
        zealots = validate_zealot_counts(self._zealots(spec), config.k)
        n = int(config.n + zealots.sum())
        if max_interactions is None:
            max_interactions = default_zealot_budget(n, config.k)
        return config.counts, zealots, n, max_interactions

    def lockstep_results(self, spec, final, interactions, exhausted):
        return zealot_results(
            spec.config, self._zealots(spec), final, interactions, exhausted
        )


# ----------------------------------------------------------------------
# Built-in scenario: transient noise
# ----------------------------------------------------------------------
class NoiseScenario(Scenario):
    """USD under per-interaction state corruption (fixed horizon).

    The horizon lives in the spec (``horizon`` parameter); an explicit
    ``max_interactions`` passed to ``run_ensemble`` overrides it, since
    the horizon *is* this scenario's interaction budget.
    """

    name = "noise"
    description = "USD with transient uniform state corruption"
    record_transport = True
    record_floats = 2  # max / tail-mean plurality fractions

    def encode_record(self, spec, result, ints, floats) -> None:
        k = spec.config.k
        ints[: k + 1] = result.final.counts
        ints[k + 1] = result.interactions
        ints[k + 2] = -1  # the noisy process has no winner
        ints[k + 3] = 0
        floats[0] = result.max_plurality_fraction
        floats[1] = result.tail_mean_plurality_fraction

    def decode_record(self, spec, ints, floats):
        k = spec.config.k
        return NoisyRunResult(
            final=Configuration.from_trusted_counts(ints[: k + 1]),
            interactions=int(ints[k + 1]),
            max_plurality_fraction=float(floats[0]),
            tail_mean_plurality_fraction=float(floats[1]),
        )

    def validate(self, spec: ScenarioSpec) -> None:
        params = spec.params_dict()
        if "rho" not in params or "horizon" not in params:
            raise ValueError("noise scenario needs 'rho' and 'horizon' parameters")

    def _args(self, spec: ScenarioSpec, max_interactions: int | None):
        params = spec.params_dict()
        horizon = int(max_interactions if max_interactions is not None
                      else params["horizon"])
        return float(params["rho"]), horizon, float(params.get("tail_fraction", 0.5))

    def reference(self, spec, *, rng, max_interactions=None):
        rho, horizon, tail = self._args(spec, max_interactions)
        return simulate_with_noise(
            spec.config, rho, horizon=horizon, rng=rng, tail_fraction=tail
        )

    def batched(self, spec, *, rngs, max_interactions=None):
        rho, horizon, tail = self._args(spec, max_interactions)
        return simulate_noise_batch(
            spec.config, rho, horizon, rngs=rngs, tail_fraction=tail
        )


# ----------------------------------------------------------------------
# Built-in scenario: synchronous gossip rounds
# ----------------------------------------------------------------------
_RULES_TABLE: dict[str, Callable] | None = None
_RULES_BATCH_TABLE: dict[str, Callable] | None = None
_RULES_COMPILED_TABLE: dict[str, Callable] | None = None


def _gossip_rules() -> dict[str, Callable]:
    global _RULES_TABLE
    if _RULES_TABLE is None:
        from ..gossip.jmajority import j_majority_round
        from ..gossip.median import median_rule_round

        _RULES_TABLE = {
            "usd": usd_gossip_round,
            "voter": lambda states, rng: j_majority_round(states, rng, 1),
            "two-choices": lambda states, rng: j_majority_round(states, rng, 2),
            "three-majority": lambda states, rng: j_majority_round(states, rng, 3),
            "median": median_rule_round,
        }
    return _RULES_TABLE


def _gossip_rules_batch() -> dict[str, Callable]:
    global _RULES_BATCH_TABLE
    if _RULES_BATCH_TABLE is None:
        from ..gossip.jmajority import j_majority_round_batch
        from ..gossip.median import median_rule_round_batch

        _RULES_BATCH_TABLE = {
            "usd": usd_gossip_round_batch,
            "voter": lambda states, streams: j_majority_round_batch(
                states, streams, 1
            ),
            "two-choices": lambda states, streams: j_majority_round_batch(
                states, streams, 2
            ),
            "three-majority": lambda states, streams: j_majority_round_batch(
                states, streams, 3
            ),
            "median": median_rule_round_batch,
        }
    return _RULES_BATCH_TABLE


def _gossip_rules_compiled() -> dict[str, Callable]:
    global _RULES_COMPILED_TABLE
    if _RULES_COMPILED_TABLE is None:
        from ..kernels.gossip_jit import (
            j_majority_round_batch_compiled,
            median_rule_round_batch_compiled,
            usd_gossip_round_batch_compiled,
        )

        _RULES_COMPILED_TABLE = {
            "usd": usd_gossip_round_batch_compiled,
            "voter": lambda states, streams: j_majority_round_batch_compiled(
                states, streams, 1
            ),
            "two-choices": lambda states, streams: j_majority_round_batch_compiled(
                states, streams, 2
            ),
            "three-majority": lambda states, streams: j_majority_round_batch_compiled(
                states, streams, 3
            ),
            "median": median_rule_round_batch_compiled,
        }
    return _RULES_COMPILED_TABLE


class GossipScenario(Scenario):
    """Synchronous round dynamics through the gossip round engine.

    ``max_interactions`` is interpreted in this scenario's native budget
    unit — *rounds* — and overrides the spec's ``max_rounds`` parameter.
    """

    name = "gossip"
    description = "synchronous gossip rounds (usd, j-majority, median)"
    record_transport = True

    RULES = ("usd", "voter", "two-choices", "three-majority", "median")

    def encode_record(self, spec, result, ints, floats) -> None:
        k = spec.config.k
        ints[: k + 1] = result.final.counts
        ints[k + 1] = result.rounds  # the gossip budget unit
        winner = result.winner
        ints[k + 2] = -1 if winner is None else winner
        ints[k + 3] = (RECORD_FLAG_CONVERGED if result.converged else 0) | (
            RECORD_FLAG_EXHAUSTED if result.budget_exhausted else 0
        )

    def decode_record(self, spec, ints, floats):
        k = spec.config.k
        flags = int(ints[k + 3])
        winner = int(ints[k + 2])
        return GossipResult(
            initial=spec.config,
            final=Configuration.from_trusted_counts(ints[: k + 1]),
            rounds=int(ints[k + 1]),
            converged=bool(flags & RECORD_FLAG_CONVERGED),
            winner=None if winner < 0 else winner,
            budget_exhausted=bool(flags & RECORD_FLAG_EXHAUSTED),
        )

    def validate(self, spec: ScenarioSpec) -> None:
        rule = spec.param("rule", "usd")
        if rule not in self.RULES:
            raise ValueError(
                f"unknown gossip rule {rule!r}; available: {self.RULES}"
            )
        if rule != "usd" and spec.config.undecided != 0:
            raise ValueError(
                f"gossip rule {rule!r} is defined on fully decided populations; "
                f"got {spec.config.undecided} undecided agents"
            )

    def reference(self, spec, *, rng, max_interactions=None):
        # Spec validation happens once per ensemble in run_ensemble (and
        # at spec construction in gossip_spec), not per replicate.
        rule = _gossip_rules()[spec.param("rule", "usd")]
        max_rounds = (
            max_interactions
            if max_interactions is not None
            else spec.param("max_rounds")
        )
        return run_gossip(spec.config, rule, rng=rng, max_rounds=max_rounds)

    def batched(self, spec, *, rngs, max_interactions=None):
        # Bit-identical to `reference` per replicate for every rule
        # (three-majority draws through BatchedDraws.take_schedule,
        # which preserves the serial per-round call order); see
        # repro.gossip.engine.run_gossip_batch.
        rule = _gossip_rules_batch()[spec.param("rule", "usd")]
        max_rounds = (
            max_interactions
            if max_interactions is not None
            else spec.param("max_rounds")
        )
        return run_gossip_batch(spec.config, rule, rngs=rngs, max_rounds=max_rounds)

    def compiled(self, spec, *, rngs, max_interactions=None):
        # Compiled rules draw from the same BatchedDraws streams and jit
        # only the integer state update, so they are bit-identical to
        # `batched` (and hence `reference`) with or without numba.
        rule = _gossip_rules_compiled()[spec.param("rule", "usd")]
        max_rounds = (
            max_interactions
            if max_interactions is not None
            else spec.param("max_rounds")
        )
        return run_gossip_batch(spec.config, rule, rngs=rngs, max_rounds=max_rounds)


# ----------------------------------------------------------------------
# Spec builder helpers
# ----------------------------------------------------------------------
def usd_spec(config: Configuration) -> ScenarioSpec:
    """Spec for the plain USD (equivalent to passing the bare config)."""
    return ScenarioSpec.create("usd", config)


def graph_spec(
    graph,
    *,
    k: int | None = None,
    config: Configuration | None = None,
    initial_states=None,
    allow_self_loops: bool = True,
) -> ScenarioSpec:
    """Spec for the graph scenario from a ``networkx`` graph or edge array.

    Exactly one of ``config`` / ``initial_states`` must describe the
    initial condition: explicit states pin each node's opinion (the
    histogram becomes the spec's config), while a bare config is
    expanded into a fresh shuffled state array per replicate.
    """
    if hasattr(graph, "number_of_nodes"):  # networkx graph, imported lazily
        from ..graphs.simulate import build_edge_list

        edges = build_edge_list(graph, allow_self_loops)
    else:
        from ..graphs.dynamics import validate_edge_array

        edges = validate_edge_array(np.asarray(graph, dtype=np.int64))
    if initial_states is not None:
        states = np.asarray(initial_states, dtype=np.int64)
        if k is None:
            k = config.k if config is not None else max(int(states.max()), 1)
        from ..graphs.dynamics import validate_graph_states

        n = config.n if config is not None else int(states.shape[0])
        states = validate_graph_states(states, n, k)
        histogram = Configuration(np.bincount(states, minlength=k + 1))
        if config is not None and histogram != config:
            raise ValueError("initial_states histogram disagrees with config")
        config = histogram
        return ScenarioSpec.create(
            "graph", config, edges=edges, k=k, initial_states=states
        )
    if config is None:
        raise ValueError("graph_spec needs a config or an initial_states array")
    if k is None:
        k = config.k
    return ScenarioSpec.create("graph", config, edges=edges, k=k)


def zealot_spec(config: Configuration, zealots) -> ScenarioSpec:
    """Spec for the zealot scenario."""
    counts = validate_zealot_counts(zealots, config.k)
    return ScenarioSpec.create("zealots", config, zealots=counts)


def noise_spec(
    config: Configuration,
    rho: float,
    horizon: int,
    *,
    tail_fraction: float = 0.5,
) -> ScenarioSpec:
    """Spec for the transient-noise scenario."""
    return ScenarioSpec.create(
        "noise", config, rho=float(rho), horizon=int(horizon),
        tail_fraction=float(tail_fraction),
    )


def gossip_spec(
    config: Configuration,
    *,
    rule: str = "usd",
    max_rounds: int | None = None,
) -> ScenarioSpec:
    """Spec for the synchronous gossip scenario."""
    spec = ScenarioSpec.create("gossip", config, rule=rule, max_rounds=max_rounds)
    get_scenario("gossip").validate(spec)
    return spec


register_scenario(UsdScenario())
register_scenario(GraphScenario())
register_scenario(ZealotScenario())
register_scenario(NoiseScenario())
register_scenario(GossipScenario())
