"""Backend protocol and registry for the simulation engine.

A *backend* is one way of sampling the USD process: the agent-level
reference (:mod:`repro.core.simulator`), the jump chain over productive
interactions (:mod:`repro.core.fastsim`), or the vectorized batched jump
chain (:mod:`repro.engine.batched`).  All backends sample the *same*
stochastic process; they differ only in cost.  The registry maps stable
names to backend instances so callers — experiments, sweeps, the CLI,
the benchmarks — select a backend by name instead of importing a
simulator function.

Adding a backend
----------------
Implement the :class:`Backend` protocol (a ``name`` attribute and a
``simulate`` method with the reference signature), optionally add a
``simulate_batch`` method for whole-ensemble execution, and call
:func:`register_backend`.  The executor layer automatically uses
``simulate_batch`` when present.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..core import fastsim, simulator
from ..core.config import Configuration
from ..core.simulator import Observer, RunResult

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "supports_batch",
    "AgentsBackend",
    "JumpBackend",
]


@runtime_checkable
class Backend(Protocol):
    """One way of running a single USD simulation to completion."""

    name: str

    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        """Run one replicate; semantics match ``simulator.simulate_agents``."""
        ...


def supports_batch(backend: Backend) -> bool:
    """Whether the backend can advance a whole batch of replicates at once.

    Batch-capable backends expose ``simulate_batch(config, *, rngs,
    max_interactions=None) -> list[RunResult]`` where ``rngs`` holds one
    independent generator per replicate.  Results must be identical to
    running each replicate alone (batch-width invariance).
    """
    return callable(getattr(backend, "simulate_batch", None))


class AgentsBackend:
    """Agent-array reference simulator: O(1) per interaction, incl. no-ops."""

    name = "agents"

    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        return simulator.simulate_agents(
            config, rng=rng, max_interactions=max_interactions, observer=observer
        )


class JumpBackend:
    """Exact jump chain over productive interactions: O(k) per event."""

    name = "jump"

    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        return fastsim.simulate(
            config, rng=rng, max_interactions=max_interactions, observer=observer
        )


_REGISTRY: dict[str, Backend] = {}

#: Bumped on every registration.  Forked local workers snapshot the
#: registry at fork time, so a session's local workers key on this
#: epoch and are forked anew when a backend is registered after.
_REGISTRY_EPOCH = 0


def registry_epoch() -> int:
    """Monotone counter of backend registrations (fleet-staleness key)."""
    return _REGISTRY_EPOCH


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Add a backend to the registry under ``backend.name``.

    Registering an already-taken name raises unless ``replace=True`` —
    silent shadowing of the built-in backends would make experiment
    results hard to interpret.
    """
    name = getattr(backend, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError(f"backend must have a non-empty string name, got {name!r}")
    if not callable(getattr(backend, "simulate", None)):
        raise TypeError(f"backend {name!r} has no callable simulate method")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; pass replace=True to override"
        )
    global _REGISTRY_EPOCH
    _REGISTRY_EPOCH += 1
    _REGISTRY[name] = backend
    return backend


def get_backend(backend: str | Backend) -> Backend:
    """Resolve a backend by name (or pass an instance through unchanged)."""
    if not isinstance(backend, str):
        if not callable(getattr(backend, "simulate", None)):
            raise TypeError(f"{backend!r} does not implement the Backend protocol")
        return backend
    try:
        return _REGISTRY[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names in registration order."""
    return tuple(_REGISTRY)


register_backend(AgentsBackend())
register_backend(JumpBackend())
