"""Engine configuration: every option declared once, in :class:`EngineOptions`.

Each field's ``metadata`` names its environment variable, CLI flag, help
text, value check and what a change rebuilds, and marks the secret.
``resolve``, ``as_dict``, ``Engine.configure``'s rebuilds and the CLI's
flags and ``Engine(...)`` call are generated from it.  The
environment is read once, when a session is built; a malformed variable
raises ``ValueError`` naming it.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, fields, replace
from functools import partial

from ..core.env import env_bool, env_int, env_str
from .backends import available_backends

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "EXECUTORS",
    "EngineOptions",
    "active_options",
    "parse_address",
]

#: Backend and ensemble-cache directory used when nothing else is specified.
DEFAULT_BACKEND = "jump"
DEFAULT_CACHE_DIR = ".repro-cache"

#: Names accepted by ``executor`` ("multiprocessing" is an alias for
#: "process"); "remote" dispatches to socket-connected ``repro worker``s.
EXECUTORS = ("serial", "process", "remote")


def parse_address(address) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (port 0 = ephemeral)."""
    host, sep, port = str(address).strip().rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must look like HOST:PORT, got {address!r}")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"address port must be an integer, got {port!r}") from None
    if not 0 <= number <= 65535:
        raise ValueError(f"address port out of range: {number}")
    return host, number


# Value checks, ``(option name, value) -> normalized value``.
def _positive(name: str, value) -> int:
    if int(value) < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def _cap(name: str, value) -> int | None:
    if int(value) < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return int(value) or None  # zero means no cap


def _backend(name: str, value) -> str:
    if not value or not isinstance(value, str):
        raise ValueError(f"{name} must be a non-empty name, got {value!r}")
    return value


def _executor(name: str, value) -> str:
    value = "process" if value == "multiprocessing" else str(value)
    if value not in EXECUTORS:
        raise ValueError(f"{name} must be one of {EXECUTORS}, got {value!r}")
    return value


def _workers(name: str, value) -> str:
    return "%s:%d" % parse_address(value)


def _text(name: str, value) -> str | None:
    return str(value) or None  # an empty secret means "no auth", not b""


# Environment parsers, ``variable -> value`` (``None`` when unset).
_env_positive = partial(env_int, default=None, minimum=1)


def _env_cap(env: str) -> int | None:
    value = env_int(env, None)
    return value if value is not None and value > 0 else None  # <= 0: no cap


def _env_workers(env: str) -> str | None:
    value = env_str(env)
    try:
        return None if value is None else _workers("workers", value)
    except ValueError as error:  # name the variable, not the option
        raise ValueError(f"{env}: {error}") from None


def _option(
    default,
    check,
    env=None,
    parse=env_str,
    *,
    flag=None,
    help=None,
    secret=False,
    serve=False,
    rebind=None,
    **argparse_kwargs,
):
    """One declared option.

    ``serve``: the flag is ``repro serve``'s alone.  ``rebind``: what
    :meth:`Engine.configure` rebuilds when the value changes ("pool", the
    process executor's local workers; "workers", the remote worker pool;
    "cache", the cache handle).
    """
    metadata = {
        "check": check,
        "env": env,
        "parse": parse,
        "flag": flag,
        "help": help,
        "secret": secret,
        "serve": serve,
        "rebind": rebind,
        "argparse": argparse_kwargs,
    }
    return field(default=default, metadata=metadata)


@dataclass(frozen=True, kw_only=True)
class EngineOptions:
    """Every engine option, resolved into one immutable value (build with
    :meth:`resolve` or field values, derive with :meth:`replace`)."""

    backend: str = _option(
        DEFAULT_BACKEND,
        _backend,
        "REPRO_ENGINE_BACKEND",
        flag="--backend",
        choices=available_backends,
        help="simulation backend (default: jump)",
    )
    jobs: int = _option(
        1,
        _positive,
        "REPRO_ENGINE_JOBS",
        _env_positive,
        flag="--jobs",
        rebind="pool",
        help="worker processes for ensembles (default: 1 = serial)",
    )
    executor: str | None = _option(
        None,
        _executor,
        flag="--executor",
        choices=EXECUTORS,
        help="serial, process (--jobs local worker processes) or remote "
        "('repro worker' processes); never changes results (default: process "
        "if --jobs > 1)",
    )
    workers: str | None = _option(
        None,
        _workers,
        "REPRO_ENGINE_WORKERS",
        _env_workers,
        flag="--workers",
        rebind="workers",
        metavar="HOST:PORT",
        help="listen address of the remote executor's worker pool "
        "(default: 127.0.0.1, ephemeral port)",
    )
    cache: bool = _option(
        False,
        lambda name, value: bool(value),
        "REPRO_ENGINE_CACHE",
        env_bool,
        flag="--cache",
        rebind="cache",
        action=argparse.BooleanOptionalAction,
        help="serve identical ensembles from the on-disk cache (default: off)",
    )
    cache_dir: str = _option(
        DEFAULT_CACHE_DIR,
        lambda name, value: str(value),
        "REPRO_ENGINE_CACHE_DIR",
        flag="--cache-dir",
        rebind="cache",
        help="ensemble cache directory (default: .repro-cache)",
    )
    cache_max_bytes: int | None = _option(
        None, _cap, "REPRO_ENGINE_CACHE_MAX_BYTES", _env_cap, rebind="cache"
    )
    worker_secret: str | None = _option(
        None, _text, "REPRO_WORKER_SECRET", secret=True, rebind="workers"
    )
    worker_tls_cert: str | None = _option(
        None, _text, "REPRO_WORKER_TLS_CERT", rebind="workers"
    )
    worker_tls_key: str | None = _option(
        None, _text, "REPRO_WORKER_TLS_KEY", rebind="workers"
    )
    worker_tls_ca: str | None = _option(
        None, _text, "REPRO_WORKER_TLS_CA", rebind="workers"
    )
    service_max_queue: int = _option(
        64,
        _positive,
        "REPRO_SERVICE_MAX_QUEUE",
        _env_positive,
        flag="--max-queue",
        serve=True,
        help="admission control: reject (429) past this many queued+running "
        "submissions (default: 64)",
    )
    service_max_replicates: int = _option(
        100_000,
        _positive,
        "REPRO_SERVICE_MAX_REPLICATES",
        _env_positive,
        flag="--max-replicates",
        serve=True,
        help="admission control: reject (429) when in-flight replicates would "
        "exceed this (default: 100000)",
    )

    def __post_init__(self) -> None:
        # Checked values go to the instance dict (``executor``: the raw one).
        for option in fields(self):
            value = self.__dict__[option.name]
            if value is not None or option.default is not None:
                check = option.metadata["check"]
                self.__dict__[option.name] = check(option.name, value)
        if self.worker_tls_key and not self.worker_tls_cert:
            raise ValueError("worker_tls_key requires worker_tls_cert")

    @classmethod
    def _check_names(cls, overrides: dict) -> None:
        known = sorted(option.name for option in fields(cls))
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise TypeError(f"unknown engine option(s) {unknown}; available: {known}")

    @classmethod
    def resolve(cls, **overrides) -> "EngineOptions":
        """The environment, then the built-ins, under non-``None``
        ``overrides``; scoped sessions are deliberately not consulted."""
        cls._check_names(overrides)
        values = {}
        for option in fields(cls):
            env = option.metadata["env"]
            if env is None:
                continue
            value = option.metadata["parse"](env)
            if value is not None:
                values[option.name] = value
        values.update((k, v) for k, v in overrides.items() if v is not None)
        return cls(**values)

    def replace(self, **overrides) -> "EngineOptions":
        """A copy with some fields replaced (``None`` values are ignored)."""
        self._check_names(overrides)
        updates = {k: v for k, v in overrides.items() if v is not None}
        # The raw executor (None = derive from jobs), never the derived one.
        updates.setdefault("executor", self.__dict__["executor"])
        return replace(self, **updates)

    def as_dict(self) -> dict:
        """Plain-dictionary snapshot for reports; the secret is masked."""
        snapshot = {}
        for option in fields(self):
            value = getattr(self, option.name)
            masked = option.metadata["secret"] and value
            snapshot[option.name] = "***" if masked else value
        return snapshot


def _executor_get(self: EngineOptions) -> str:
    """The explicit selection, else "process" when ``jobs > 1``, else "serial"."""
    if self.__dict__["executor"] is not None:
        return self.__dict__["executor"]
    return "process" if self.jobs > 1 else "serial"


def _executor_set(self: EngineOptions, value) -> None:
    self.__dict__["executor"] = value  # the dataclass ``__init__`` stores the raw value


EngineOptions.executor = property(_executor_get, _executor_set)


def active_options() -> EngineOptions:
    """The options in force: the innermost scoped session's, else
    :meth:`EngineOptions.resolve` (environment, then built-ins)."""
    from .session import _SESSION_STACK  # the session layer imports this one

    return _SESSION_STACK[-1].options if _SESSION_STACK else EngineOptions.resolve()
