"""Engine configuration: frozen :class:`EngineOptions` + default getters.

Engine configuration is a value, not a pile of process-wide mutable
state: :class:`EngineOptions` is a frozen dataclass holding every knob
the engine exposes (backend, worker count, cache policy, lockstep event
block and stream buffer, worker-socket security, service admission).
The environment variables (``REPRO_ENGINE_*``, ``REPRO_WORKER_*``,
``REPRO_SERVICE_*``) and explicit keyword overrides are resolved
**once**, by :meth:`EngineOptions.resolve`, when a
:class:`~repro.engine.session.Engine` is constructed — never re-read in
the middle of a session.  A malformed variable raises ``ValueError``
naming it.

The layered getters (:func:`get_default_backend` & friends) answer from
the innermost *scoped* session (``with engine(backend="batched"):
...``) when one is active, and fall back to the environment, then the
built-ins, otherwise.  The module-level default session mirrors that
resolution.  Scoped configuration (``repro.engine.engine(**overrides)``)
or an explicit ``Engine(**overrides)`` session is the way to change
defaults in code.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace

from ..core.env import env_bool, env_int, env_str
from ..core.lockstep import (
    DEFAULT_EVENT_BLOCK,
    DEFAULT_STREAM_BUFFER,
    _global_default_event_block,
    _global_default_stream_buffer,
    get_default_event_block,
    get_default_stream_buffer,
)

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "EngineOptions",
    "EXECUTORS",
    "engine_defaults",
    "get_default_backend",
    "get_default_cache",
    "get_default_cache_dir",
    "get_default_cache_max_bytes",
    "get_default_event_block",
    "get_default_executor",
    "get_default_jobs",
    "get_default_stream_buffer",
    "get_default_workers",
]

#: Backend used when nothing else is specified.
DEFAULT_BACKEND = "jump"

#: Ensemble-cache directory used when nothing else is specified.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Names accepted by the ``executor`` parameter ("multiprocessing" is an
#: alias for "process").  ``"remote"`` dispatches chunks to
#: socket-connected ``repro worker`` processes through the session's
#: :class:`~repro.engine.remote.WorkerPool`.
EXECUTORS = ("serial", "process", "remote")


def _scoped_options() -> "EngineOptions | None":
    """Options of the innermost *scoped* session, if one is active.

    Looked up through ``sys.modules`` so this module never imports the
    session layer (which imports it back).  Only explicitly scoped
    sessions (``engine(**overrides)`` / an activated ``Engine``) are
    consulted — the module-level default session deliberately mirrors
    the process-level resolution below, so there is nothing to shadow.
    """
    session = sys.modules.get("repro.engine.session")
    if session is None:
        return None
    return session._active_options()


@dataclass(frozen=True)
class EngineOptions:
    """Every engine knob, fully resolved into one immutable value.

    Build with :meth:`resolve` (layered defaults + keyword overrides,
    resolved once) or directly with explicit field values; derive
    variations with :meth:`replace`.  A
    :class:`~repro.engine.session.Engine` is constructed from exactly
    one of these, so nothing about a session's behavior depends on
    later environment changes.
    """

    backend: str = DEFAULT_BACKEND
    jobs: int = 1
    cache: bool = False
    cache_dir: str = DEFAULT_CACHE_DIR
    cache_max_bytes: int | None = None
    event_block: int = DEFAULT_EVENT_BLOCK
    stream_buffer: int = DEFAULT_STREAM_BUFFER
    executor: str | None = None
    workers: str | None = None
    worker_secret: str | None = None
    worker_tls_cert: str | None = None
    worker_tls_key: str | None = None
    worker_tls_ca: str | None = None
    service_max_queue: int = 64
    service_max_replicates: int = 100_000

    def __post_init__(self) -> None:
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError(f"backend must be a non-empty name, got {self.backend!r}")
        object.__setattr__(self, "jobs", int(self.jobs))
        if self.jobs < 1:
            raise ValueError(f"jobs must be positive, got {self.jobs}")
        object.__setattr__(self, "cache", bool(self.cache))
        object.__setattr__(self, "cache_dir", str(self.cache_dir))
        if self.cache_max_bytes is not None:
            value = int(self.cache_max_bytes)
            if value < 0:
                raise ValueError(
                    f"cache_max_bytes must be non-negative, got {value}"
                )
            object.__setattr__(self, "cache_max_bytes", value or None)
        object.__setattr__(self, "event_block", int(self.event_block))
        if self.event_block < 1:
            raise ValueError(f"event_block must be positive, got {self.event_block}")
        object.__setattr__(self, "stream_buffer", int(self.stream_buffer))
        if self.stream_buffer < 1:
            raise ValueError(
                f"stream_buffer must be positive, got {self.stream_buffer}"
            )
        raw_executor = self.__dict__.get("executor")
        if raw_executor is not None:
            raw_executor = str(raw_executor)
            if raw_executor == "multiprocessing":
                raw_executor = "process"
            if raw_executor not in EXECUTORS:
                raise ValueError(
                    f"executor must be one of {EXECUTORS}, got {raw_executor!r}"
                )
            self.__dict__["executor"] = raw_executor
        if self.workers is not None:
            object.__setattr__(self, "workers", _validate_workers(self.workers))
        if self.worker_secret is not None:
            # An empty secret means "no auth", not an HMAC over b"".
            object.__setattr__(
                self, "worker_secret", str(self.worker_secret) or None
            )
        for name in ("worker_tls_cert", "worker_tls_key", "worker_tls_ca"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, str(value) or None)
        if self.worker_tls_key and not self.worker_tls_cert:
            raise ValueError(
                "worker_tls_key requires worker_tls_cert (the certificate "
                "the key belongs to)"
            )
        object.__setattr__(self, "service_max_queue", int(self.service_max_queue))
        if self.service_max_queue < 1:
            raise ValueError(
                f"service_max_queue must be positive, got {self.service_max_queue}"
            )
        object.__setattr__(
            self, "service_max_replicates", int(self.service_max_replicates)
        )
        if self.service_max_replicates < 1:
            raise ValueError(
                f"service_max_replicates must be positive, "
                f"got {self.service_max_replicates}"
            )

    @classmethod
    def resolve(cls, **overrides) -> "EngineOptions":
        """Resolve the layered defaults into a frozen options value, once.

        Unspecified (or ``None``) fields come from the environment
        variables, then the built-ins.  Scoped sessions are deliberately
        *not* consulted — a freshly constructed ``Engine`` starts from
        the process-level defaults, not from whatever session happens to
        be active.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown engine option(s) {sorted(unknown)}; "
                f"available: {sorted(known)}"
            )
        resolved = {
            "backend": _global_default_backend(),
            "jobs": _global_default_jobs(),
            "cache": _global_default_cache(),
            "cache_dir": _global_default_cache_dir(),
            "cache_max_bytes": _global_default_cache_max_bytes(),
            "event_block": _global_default_event_block(),
            "stream_buffer": _global_default_stream_buffer(),
            "workers": _global_default_workers(),
            "worker_secret": env_str("REPRO_WORKER_SECRET"),
            "worker_tls_cert": env_str("REPRO_WORKER_TLS_CERT"),
            "worker_tls_key": env_str("REPRO_WORKER_TLS_KEY"),
            "worker_tls_ca": env_str("REPRO_WORKER_TLS_CA"),
            "service_max_queue": env_int(
                "REPRO_SERVICE_MAX_QUEUE", 64, minimum=1
            ),
            "service_max_replicates": env_int(
                "REPRO_SERVICE_MAX_REPLICATES", 100_000, minimum=1
            ),
        }
        for name, value in overrides.items():
            if value is not None:
                resolved[name] = value
        return cls(**resolved)

    def replace(self, **overrides) -> "EngineOptions":
        """A copy with some fields replaced (``None`` values are ignored)."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise TypeError(
                f"unknown engine option(s) {sorted(unknown)}; "
                f"available: {sorted(known)}"
            )
        updates = {k: v for k, v in overrides.items() if v is not None}
        if not updates:
            return self
        if "executor" not in updates:
            # Forward the RAW stored executor (None = derive from jobs),
            # not the derived property value: otherwise replace(jobs=4)
            # on a derived-serial options would freeze "serial" in and
            # silently disable the process executor.
            updates["executor"] = self.__dict__.get("executor")
        return replace(self, **updates)

    def pool_key(self) -> tuple:
        """The fields whose change requires respawning the executor pool."""
        return (self.jobs,)

    def worker_pool_key(self) -> tuple:
        """The fields whose change requires rebinding the worker pool."""
        return (
            self.workers,
            self.worker_secret,
            self.worker_tls_cert,
            self.worker_tls_key,
            self.worker_tls_ca,
        )

    def as_dict(self) -> dict:
        """Plain-dictionary snapshot (for reports and diagnostics)."""
        return {
            "backend": self.backend,
            "executor": self.executor,
            "jobs": self.jobs,
            "cache": self.cache,
            "cache_dir": self.cache_dir,
            "cache_max_bytes": self.cache_max_bytes,
            "event_block": self.event_block,
            "stream_buffer": self.stream_buffer,
            "workers": self.workers,
            # Masked: the snapshot lands in stats()/reports, which get
            # printed and serialized — never leak the actual secret.
            "worker_secret": "***" if self.worker_secret else None,
            "worker_tls_cert": self.worker_tls_cert,
            "worker_tls_key": self.worker_tls_key,
            "worker_tls_ca": self.worker_tls_ca,
            "service_max_queue": self.service_max_queue,
            "service_max_replicates": self.service_max_replicates,
        }


def _executor_get(self: EngineOptions) -> str:
    raw = self.__dict__.get("executor")
    if raw is not None:
        return raw
    return "process" if self.jobs > 1 else "serial"


def _executor_set(self: EngineOptions, value) -> None:
    # Reached only through object.__setattr__ in the generated frozen
    # __init__; user code still hits the frozen-dataclass guard.
    self.__dict__["executor"] = value


# ``executor`` doubles as an init field (explicit selection, e.g.
# "remote") and a derived value ("process" when jobs > 1, else
# "serial") when left unset.  A dataclass field alone would freeze the
# derivation at construction time, so the field's storage is fronted by
# a property attached after class creation: the raw stored value (None =
# derive) lives in the instance dict and :meth:`EngineOptions.replace`
# forwards it untouched.
EngineOptions.executor = property(
    _executor_get,
    _executor_set,
    doc='Effective executor: the explicit selection, else "process" '
    'when jobs > 1, else "serial".',
)


def _validate_workers(value) -> str:
    """Normalize/validate a ``host:port`` worker-pool listen address."""
    text = str(value).strip()
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"workers must look like HOST:PORT (port 0 = ephemeral), "
            f"got {value!r}"
        )
    try:
        port_number = int(port)
    except ValueError:
        raise ValueError(
            f"workers port must be an integer, got {port!r}"
        ) from None
    if not 0 <= port_number <= 65535:
        raise ValueError(f"workers port out of range: {port_number}")
    return f"{host}:{port_number}"


# ----------------------------------------------------------------------
# Process-level resolution (environment, then built-ins)
# ----------------------------------------------------------------------
def _global_default_backend() -> str:
    return env_str("REPRO_ENGINE_BACKEND", DEFAULT_BACKEND)


def _global_default_jobs() -> int:
    return env_int("REPRO_ENGINE_JOBS", 1, minimum=1)


def _global_default_cache() -> bool:
    return env_bool("REPRO_ENGINE_CACHE", False)


def _global_default_cache_dir() -> str:
    return env_str("REPRO_ENGINE_CACHE_DIR", DEFAULT_CACHE_DIR)


def _global_default_cache_max_bytes() -> int | None:
    # Zero or a negative value means no cap.
    value = env_int("REPRO_ENGINE_CACHE_MAX_BYTES", None)
    return value if value is not None and value > 0 else None


def _global_default_workers() -> str | None:
    raw = env_str("REPRO_ENGINE_WORKERS")
    if raw is None:
        return None
    try:
        return _validate_workers(raw)
    except ValueError as error:
        raise ValueError(f"REPRO_ENGINE_WORKERS: {error}") from None


# ----------------------------------------------------------------------
# Session-aware getters
# ----------------------------------------------------------------------
def get_default_backend() -> str:
    """Backend name used when ``run_ensemble`` gets ``backend=None``."""
    opts = _scoped_options()
    if opts is not None:
        return opts.backend
    return _global_default_backend()


def get_default_jobs() -> int:
    """Worker count used when ``run_ensemble`` gets ``jobs=None``."""
    opts = _scoped_options()
    if opts is not None:
        return opts.jobs
    return _global_default_jobs()


def get_default_executor() -> str:
    """Effective executor of the active session (or the derived default).

    An explicitly selected executor (``executor="remote"`` on a scoped
    session) wins; otherwise ``"process"`` when more than one worker is
    configured, else ``"serial"``.
    """
    opts = _scoped_options()
    if opts is not None:
        return opts.executor
    return "process" if get_default_jobs() > 1 else "serial"


def get_default_workers() -> str | None:
    """Worker-pool listen address for the remote executor (``host:port``).

    Resolution order: the active scoped session, then the
    ``REPRO_ENGINE_WORKERS`` environment variable, then ``None`` (the
    pool binds ``127.0.0.1`` on an ephemeral port when first needed).
    """
    opts = _scoped_options()
    if opts is not None:
        return opts.workers
    return _global_default_workers()


def get_default_cache() -> bool:
    """Whether ensembles consult the on-disk cache when ``cache=None``."""
    opts = _scoped_options()
    if opts is not None:
        return opts.cache
    return _global_default_cache()


def get_default_cache_dir() -> str:
    """Directory backing the ensemble cache."""
    opts = _scoped_options()
    if opts is not None:
        return opts.cache_dir
    return _global_default_cache_dir()


def get_default_cache_max_bytes() -> int | None:
    """Ensemble-cache size cap in bytes (``None`` = unlimited).

    Resolution order: the active scoped session, then the
    ``REPRO_ENGINE_CACHE_MAX_BYTES`` environment variable; zero or a
    negative value means no cap.
    """
    opts = _scoped_options()
    if opts is not None:
        return opts.cache_max_bytes
    return _global_default_cache_max_bytes()


def engine_defaults() -> dict:
    """Snapshot of the resolved defaults (for reports and diagnostics)."""
    return {
        "backend": get_default_backend(),
        "executor": get_default_executor(),
        "jobs": get_default_jobs(),
        "cache": get_default_cache(),
        "cache_dir": get_default_cache_dir(),
        "cache_max_bytes": get_default_cache_max_bytes(),
        "event_block": get_default_event_block(),
        "stream_buffer": get_default_stream_buffer(),
        "workers": get_default_workers(),
    }
