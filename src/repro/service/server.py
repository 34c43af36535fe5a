"""The simulation service: one persistent Engine behind an async front door.

``repro serve HOST:PORT`` turns a session into a long-lived server: one
:class:`~repro.engine.session.Engine` — with its persistent executor
pool, open cache handle, worker fleet and cost model — answering
HTTP/JSON submissions from any number of concurrent clients.  The
request lifecycle is::

    submission ── parse ──> content-addressed job key
        │
        ├─ dedup/coalesce:  a record for this key exists?  await its
        │                   future — N identical submitters, one run
        ├─ cache-first:     the ensemble cache already holds the key?
        │                   serve it — zero simulations
        ├─ admit:           queue depth or replicate budget exceeded?
        │                   429 with a retry hint (503 while draining)
        ├─ schedule:        run on the engine thread (the event loop
        │                   never blocks on a sweep)
        └─ serve:           resolve every awaiting future with one
                            payload; the record stays registered so
                            late duplicates coalesce onto the answer

Determinism contract: the service moves requests, never bits.  A served
payload's results are exactly ``Engine.ensemble()``/``.sweep()`` at the
submitted seeds, serialized by the pure function
:func:`repro.service.jobs.result_to_jsonable` — so two services, or a
service and a direct session, produce byte-identical JSON for one
request.  Coalescing, cache-first serving and admission control change
only who waits how long.

Threading model: the asyncio event loop owns all bookkeeping (the job
registry is only touched between awaits, so registration is race-free
by construction); engine calls run on a dedicated single worker thread
because a session is not thread-safe (``_SESSION_STACK`` is a plain
global); pure cache *reads* take a small IO pool via
:meth:`Engine.cached_ensemble`, which never activates the session.
"""

from __future__ import annotations

import asyncio
import logging
import re
import signal
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from ..engine import Engine, ensemble_key
from . import jobs as _jobs
from .http import HttpError, Request, json_response, read_request

__all__ = ["SimulationService", "BackgroundService", "DEFAULT_INLINE_LIMIT"]

#: Ensembles at or under this many total replicates inline their full
#: per-replicate results in the response; larger ones return the summary
#: plus content-addressed cache-key handles (``/v1/results/<key>``).
DEFAULT_INLINE_LIMIT = 64

#: Terminal job records kept for late duplicates to coalesce onto.
JOB_RETENTION = 1024

_TERMINAL = ("done", "failed", "rejected")

#: Every key the service mints — ensemble cache keys and sweep job keys
#: alike — is a sha256 hexdigest.  Key-shaped path segments are matched
#: against this before any lookup, so a crafted ``/v1/results/..%2F...``
#: can never reach the cache's filesystem layer.
_KEY_SHAPE = re.compile(r"[0-9a-f]{64}")

logger = logging.getLogger("repro.service")


class JobRecord:
    """One submission key's lifecycle: status, payload, awaiters' future."""

    __slots__ = (
        "key",
        "kind",
        "status",
        "replicates",
        "submitted",
        "future",
        "response",
    )

    def __init__(self, key: str, kind: str, replicates: int) -> None:
        self.key = key
        self.kind = kind
        self.status = "queued"
        self.replicates = int(replicates)
        self.submitted = time.time()
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.response: dict | None = None


class SimulationService:
    """Async HTTP/JSON front door over one persistent :class:`Engine`.

    Endpoints::

        POST /v1/ensemble    submit one ensemble (JSON; ``wait=false``
                             returns a 202 ticket instead of blocking)
        POST /v1/sweep       submit a parameter grid (same schema as
                             ``repro sweep --spec-file``)
        GET  /v1/jobs/KEY    poll a submission by its job key
        GET  /v1/results/KEY fetch full results for a cache-key handle
        GET  /metrics        Engine.stats() + service counters
                             (Prometheus text; ``?format=json`` for JSON)
        GET  /healthz        liveness + draining state

    Admission bounds are the engine's options ``service_max_queue`` and
    ``service_max_replicates`` (``Engine(service_max_queue=...)``,
    ``repro serve --max-queue/--max-replicates`` or
    ``REPRO_SERVICE_MAX_QUEUE``/``REPRO_SERVICE_MAX_REPLICATES``).
    """

    def __init__(
        self,
        engine: Engine,
        *,
        inline_limit: int = DEFAULT_INLINE_LIMIT,
        debug: bool = False,
    ) -> None:
        self._engine = engine
        self._inline_limit = int(inline_limit)
        #: With ``debug`` unset (the default) internal failures are
        #: logged server-side and clients get a generic message — an
        #: open endpoint must not leak tracebacks (paths, config, module
        #: layout).  ``repro serve --debug`` inlines them for local use.
        self._debug = bool(debug)
        self._max_queue = engine.options.service_max_queue
        self._max_replicates = engine.options.service_max_replicates
        self._jobs: OrderedDict[str, JobRecord] = OrderedDict()
        self._queue_depth = 0
        self._inflight_replicates = 0
        self._draining = False
        self._server: asyncio.Server | None = None
        self._tasks: set[asyncio.Task] = set()
        self._writers: set = set()
        self._busy = 0  # connections mid-request (parsed, not yet flushed)
        self._drain_requested = asyncio.Event()
        # One engine thread: a session is not thread-safe, and a single
        # consumer also means the engine's own executor pool (process
        # workers, remote fleet) is the real parallelism — the service
        # thread just feeds it.
        self._engine_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        # Cache reads bypass the engine thread entirely (they must not
        # queue behind a long sweep to answer a warm request).
        self._io_executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-io"
        )
        self._counters = {
            "requests": 0,
            "submitted": 0,
            "coalesced": 0,
            "served_from_cache": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "errors": 0,
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def endpoint(self) -> str:
        """The bound ``host:port`` (after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not listening")
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    def request_drain(self) -> None:
        """Flip to draining: stop admitting, let :meth:`run` finish up.

        Safe to call from a signal handler installed on the loop; from
        another thread use ``loop.call_soon_threadsafe(service.request_drain)``.
        """
        self._draining = True
        self._drain_requested.set()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish and flush in-flight.

        Closes the listener, waits for every scheduled job to resolve
        (their awaiting responses flush through still-open connections),
        then releases the worker threads.  The engine itself stays open
        — it belongs to the caller.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        # Every job future is resolved; let mid-request connections
        # flush their responses, then hang up on idle keep-alives so
        # their handlers exit before the loop tears down.
        deadline = asyncio.get_running_loop().time() + 10.0
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._writers):
            writer.close()
        while self._writers and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        self._engine_executor.shutdown(wait=True)
        self._io_executor.shutdown(wait=True)

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        install_signal_handlers: bool = True,
        on_start=None,
    ) -> None:
        """Serve until a drain is requested, then shut down gracefully.

        With ``install_signal_handlers`` (the ``repro serve`` path),
        SIGTERM/SIGINT trigger the drain: in-flight requests finish,
        pending responses flush, and this coroutine — and the process —
        exits cleanly.
        """
        await self.start(host, port)
        if on_start is not None:
            on_start(self.endpoint)
        loop = asyncio.get_running_loop()
        installed: list = []
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._drain_requested.wait()
            await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(
                        json_response(
                            exc.status,
                            {"error": exc.message},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self._busy += 1
                try:
                    response = await self._dispatch(request)
                    writer.write(response)
                    await writer.drain()
                finally:
                    self._busy -= 1
                if self._draining or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to flush
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        self._counters["requests"] += 1
        try:
            return await self._route(request)
        except HttpError as exc:
            headers = []
            retry_after = exc.payload.get("retry_after")
            if retry_after is not None:
                headers.append(("Retry-After", str(retry_after)))
            return json_response(
                exc.status,
                {"error": exc.message, **exc.payload},
                extra_headers=tuple(headers),
            )
        except Exception:
            self._counters["errors"] += 1
            logger.exception(
                "unhandled error on %s %s", request.method, request.path
            )
            detail = (
                traceback.format_exc()
                if self._debug
                else "see the service log"
            )
            return json_response(
                500, {"error": "internal error", "detail": detail}
            )

    async def _route(self, request: Request) -> bytes:
        method, path = request.method, request.path
        if path == "/healthz":
            self._require(method, "GET", path)
            return json_response(200, self._healthz_payload())
        if path == "/metrics":
            self._require(method, "GET", path)
            return self._metrics_response(request)
        if path == "/v1/ensemble":
            self._require(method, "POST", path)
            return await self._submit("ensemble", request)
        if path == "/v1/sweep":
            self._require(method, "POST", path)
            return await self._submit("sweep", request)
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET", path)
            return await self._job_status(request, path[len("/v1/jobs/") :])
        if path.startswith("/v1/results/"):
            self._require(method, "GET", path)
            return await self._cached_results(path[len("/v1/results/") :])
        raise HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, f"{path} only accepts {expected}")

    # -- submission lifecycle ------------------------------------------
    async def _submit(self, kind: str, request: Request) -> bytes:
        payload = request.json()
        wait = bool(payload.pop("wait", True))
        if "wait" in request.query:
            wait = request.query["wait"].lower() not in ("0", "false", "no")
        try:
            if kind == "ensemble":
                job = _jobs.parse_ensemble(payload)
                _, variant = self._engine._scenario_variant(job.spec, None)
                key = job.key(variant)
            else:
                # Refused before any grid point or key is built: a sweep
                # the budget can never hold is cheap to turn away.
                replicates = _jobs.sweep_replicates(payload)
                if replicates is not None and replicates > self._max_replicates:
                    self._refuse_replicates(replicates)
                job = _jobs.parse_sweep(payload)
                key = job.key()
        except ValueError as exc:
            # RequestError and anything the engine's key/seed machinery
            # rejects (e.g. SeedSequence on out-of-range input): all bad
            # input, all 400 — never a 500 for a malformed submission.
            raise HttpError(400, str(exc)) from None

        record = self._jobs.get(key)
        if record is not None and record.status not in ("failed", "rejected"):
            self._counters["coalesced"] += 1
            return await self._respond(record, wait)

        if kind == "ensemble":
            cached = await self._cache_lookup(job, key)
            # Re-check after the await: an identical submitter may have
            # registered this key while the cache read ran.  Between
            # here and _register there are no awaits, so the check is
            # race-free on the single-threaded loop.
            record = self._jobs.get(key)
            if record is not None and record.status not in (
                "failed",
                "rejected",
            ):
                self._counters["coalesced"] += 1
                return await self._respond(record, wait)
            if cached is not None:
                self._counters["served_from_cache"] += 1
                record = self._register(JobRecord(key, kind, job.replicates))
                self._finish(
                    record,
                    "done",
                    self._ensemble_payload(
                        key, job, cached, served_from_cache=True
                    ),
                )
                return await self._respond(record, wait)

        self._admit(job.replicates)
        record = self._register(JobRecord(key, kind, job.replicates))
        self._counters["submitted"] += 1
        self._queue_depth += 1
        self._inflight_replicates += record.replicates
        task = asyncio.get_running_loop().create_task(
            self._run_job(record, job)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return await self._respond(record, wait)

    async def _cache_lookup(self, job: _jobs.EnsembleJob, key: str):
        """Cache-first fast path, off the loop and off the engine thread.

        ``key`` is the job key :meth:`_submit` already computed, so the
        lookup does not hash the submission a second time.
        """
        return await asyncio.get_running_loop().run_in_executor(
            self._io_executor,
            partial(
                self._engine.cached_ensemble,
                job.spec,
                job.trials,
                seed=job.seed,
                max_interactions=job.max_interactions,
                key=key,
            ),
        )

    def _admit(self, replicates: int) -> None:
        if self._draining:
            raise HttpError(
                503,
                "service is draining; submit to another instance",
            )
        if self._queue_depth >= self._max_queue:
            self._counters["rejected"] += 1
            raise HttpError(
                429,
                f"queue full: {self._queue_depth}/{self._max_queue} "
                "submissions in flight",
                retry_after=self._retry_hint(),
            )
        if self._inflight_replicates + replicates > self._max_replicates:
            self._refuse_replicates(replicates)

    def _refuse_replicates(self, replicates: int) -> None:
        """Answer 429: ``replicates`` more would exceed the budget."""
        self._counters["rejected"] += 1
        raise HttpError(
            429,
            f"replicate budget exceeded: {self._inflight_replicates} in "
            f"flight + {replicates} requested > {self._max_replicates}",
            retry_after=self._retry_hint(),
        )

    def _retry_hint(self) -> int:
        """Seconds a rejected client should back off before resubmitting."""
        oldest = min(
            (
                record.submitted
                for record in self._jobs.values()
                if record.status in ("queued", "running")
            ),
            default=None,
        )
        if oldest is None:
            return 1
        # The front of the queue has been running this long; assume the
        # backlog clears at roughly that rate.
        return max(1, min(60, int(time.time() - oldest)))

    def _register(self, record: JobRecord) -> JobRecord:
        self._jobs[record.key] = record
        self._jobs.move_to_end(record.key)
        while len(self._jobs) > JOB_RETENTION:
            for key, old in self._jobs.items():
                if old.status in _TERMINAL:
                    del self._jobs[key]
                    break
            else:
                break  # nothing evictable: every record is in flight
        return record

    def _finish(self, record: JobRecord, status: str, payload: dict) -> None:
        record.status = status
        record.response = payload
        if not record.future.done():
            record.future.set_result(payload)

    async def _run_job(self, record: JobRecord, job) -> None:
        loop = asyncio.get_running_loop()
        record.status = "running"
        started = time.perf_counter()
        try:
            if record.kind == "ensemble":
                results = await loop.run_in_executor(
                    self._engine_executor,
                    partial(
                        self._engine.ensemble,
                        job.spec,
                        job.trials,
                        seed=job.seed,
                        max_interactions=job.max_interactions,
                    ),
                )
                payload = self._ensemble_payload(
                    record.key, job, results, served_from_cache=False
                )
            else:
                run = await loop.run_in_executor(
                    self._engine_executor,
                    partial(
                        self._engine.sweep,
                        job.spec,
                        seed=job.seed,
                        seed_derivation=job.seed_derivation,
                    ),
                )
                payload = self._sweep_payload(record.key, job, run)
            payload["seconds"] = round(time.perf_counter() - started, 6)
            self._counters["completed"] += 1
            self._finish(record, "done", payload)
        except Exception as exc:
            self._counters["failed"] += 1
            logger.exception("%s job %s failed", record.kind, record.key)
            error = (
                traceback.format_exc()
                if self._debug
                else f"{type(exc).__name__} (see the service log)"
            )
            self._finish(
                record,
                "failed",
                {
                    "status": "failed",
                    "kind": record.kind,
                    "key": record.key,
                    "error": error,
                },
            )
        finally:
            self._queue_depth -= 1
            self._inflight_replicates -= record.replicates

    async def _respond(self, record: JobRecord, wait: bool) -> bytes:
        if not wait and record.status not in _TERMINAL:
            return json_response(
                202,
                {
                    "status": record.status,
                    "kind": record.kind,
                    "key": record.key,
                    "poll": f"/v1/jobs/{record.key}",
                },
            )
        payload = await asyncio.shield(record.future)
        status = 500 if record.status == "failed" else 200
        return json_response(status, payload)

    # -- read-only endpoints -------------------------------------------
    @staticmethod
    def _check_key(key: str, what: str) -> None:
        if _KEY_SHAPE.fullmatch(key) is None:
            raise HttpError(
                404, f"{what} keys are 64-character sha256 hex digests"
            )

    async def _job_status(self, request: Request, key: str) -> bytes:
        self._check_key(key, "job")
        record = self._jobs.get(key)
        if record is None:
            raise HttpError(404, f"no job with key {key!r}")
        wait = request.query.get("wait", "").lower() in ("1", "true", "yes")
        return await self._respond(record, wait or record.status in _TERMINAL)

    async def _cached_results(self, key: str) -> bytes:
        # The key becomes a filename under the cache root, so the shape
        # check is load-bearing: without it '../'-style keys would name
        # (and read, or on corruption delete) files outside the cache
        # directory.  The request names only the key, so the store
        # decodes the entry header's spec to check it.
        self._check_key(key, "result")
        store = self._engine.cache
        if store is None:
            raise HttpError(404, "this service has no ensemble cache")
        results = await asyncio.get_running_loop().run_in_executor(
            self._io_executor, store.load, key
        )
        if results is None:
            raise HttpError(404, f"no cached ensemble under key {key!r}")
        return json_response(
            200,
            {
                "key": key,
                "trials": len(results),
                "results": _jobs.results_to_jsonable(results),
            },
        )

    def _healthz_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "engine": "closed" if self._engine.closed else "open",
            "queue_depth": self._queue_depth,
            "inflight_replicates": self._inflight_replicates,
        }

    # -- payload builders ----------------------------------------------
    def _inline(self, total_replicates: int) -> bool:
        # Without a cache there is no handle to serve results from
        # later, so everything inlines regardless of size.
        return (
            total_replicates <= self._inline_limit
            or self._engine.cache is None
        )

    def _ensemble_payload(
        self, key: str, job: _jobs.EnsembleJob, results, *, served_from_cache
    ) -> dict:
        inline = self._inline(job.trials)
        payload = {
            "status": "done",
            "kind": "ensemble",
            "key": key,
            "trials": job.trials,
            "seed": job.seed,
            "served_from_cache": bool(served_from_cache),
            "summary": _jobs.summarize_results(results),
            "results_inline": inline,
            "results": _jobs.results_to_jsonable(results) if inline else None,
        }
        if not inline:
            payload["results_url"] = f"/v1/results/{key}"
        return payload

    def _sweep_payload(self, key: str, job: _jobs.SweepJob, run) -> dict:
        inline = self._inline(job.spec.total_trials)
        cells = []
        for cell_run in run:
            cell_key = ensemble_key(
                cell_run.cell.spec,
                trials=cell_run.cell.trials,
                seed=cell_run.seed,
                variant=cell_run.variant,
                max_interactions=cell_run.cell.max_interactions,
            )
            entry = {
                "params": dict(cell_run.params),
                "trials": cell_run.cell.trials,
                "cached": bool(cell_run.cached),
                "cache_key": cell_key,
                "summary": _jobs.summarize_results(cell_run.results),
            }
            if inline:
                entry["results"] = _jobs.results_to_jsonable(cell_run.results)
            else:
                entry["results_url"] = f"/v1/results/{cell_key}"
            cells.append(entry)
        return {
            "status": "done",
            "kind": "sweep",
            "key": key,
            "sweep_key": run.sweep_key,
            "seed": job.seed,
            "total_trials": job.spec.total_trials,
            "cells_cached": run.cached_cells,
            "replicates_simulated": run.simulated_trials,
            "results_inline": inline,
            "cells": cells,
        }

    # -- metrics -------------------------------------------------------
    def service_stats(self) -> dict:
        """Service-level counters (the ``/metrics`` JSON ``service`` block)."""
        return {
            **self._counters,
            "queue_depth": self._queue_depth,
            "inflight_replicates": self._inflight_replicates,
            "jobs_tracked": len(self._jobs),
            "draining": self._draining,
            "max_queue": self._max_queue,
            "max_replicates": self._max_replicates,
            "inline_limit": self._inline_limit,
        }

    def _metrics_response(self, request: Request) -> bytes:
        payload = {
            "service": self.service_stats(),
            "engine": self._engine.stats(),
        }
        wants_json = request.query.get("format") == "json" or (
            "application/json" in request.headers.get("accept", "")
        )
        if wants_json:
            return json_response(200, _jobs._convert(payload))
        lines: list[str] = []
        _prometheus_lines("repro", payload, lines)
        body = ("\n".join(lines) + "\n").encode("utf-8")
        from .http import render_response

        return render_response(
            200, body, content_type="text/plain; version=0.0.4"
        )


_METRIC_NAME = re.compile(r"[^a-zA-Z0-9_]")


def _prometheus_lines(prefix: str, value, lines: list[str]) -> None:
    """Flatten numeric leaves into Prometheus text exposition lines.

    Strings, ``None`` and lists are skipped — Prometheus wants numbers;
    the JSON view (``/metrics?format=json``) keeps the full structure.
    """
    if isinstance(value, bool):
        lines.append(f"{prefix} {int(value)}")
    elif isinstance(value, (int, float)):
        lines.append(f"{prefix} {value}")
    elif isinstance(value, dict):
        for key in value:
            name = _METRIC_NAME.sub("_", str(key))
            _prometheus_lines(f"{prefix}_{name}", value[key], lines)
    else:
        try:
            import numpy as np

            if isinstance(value, (np.integer, np.floating)):
                lines.append(f"{prefix} {float(value)}")
        except ImportError:  # pragma: no cover - numpy is a hard dep
            pass


class BackgroundService:
    """A :class:`SimulationService` on its own thread (tests, benchmarks).

    Runs the service's asyncio loop on a daemon thread so synchronous
    code — pytest, a benchmark harness — can submit real HTTP requests
    against it.  The engine is the caller's: construct it outside, close
    it after.  Use as a context manager::

        with Engine(cache=True) as eng:
            with BackgroundService(eng) as endpoint:
                client = ServiceClient(endpoint=endpoint)
                ...
    """

    def __init__(
        self,
        engine: Engine,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ) -> None:
        import threading

        self._engine = engine
        self._host = host
        self._port = port
        self._service_kwargs = service_kwargs
        self._ready = threading.Event()
        self._endpoint: str | None = None
        self._error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.service: SimulationService | None = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-service", daemon=True
        )

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = SimulationService(self._engine, **self._service_kwargs)
        await self.service.start(self._host, self._port)
        self._endpoint = self.service.endpoint
        self._ready.set()
        await self.service._drain_requested.wait()
        await self.service.drain()

    def start(self, timeout: float = 10.0) -> str:
        """Start the thread; returns the bound ``host:port``."""
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("service failed to start in time")
        if self._error is not None:
            raise RuntimeError("service failed to start") from self._error
        return self._endpoint  # type: ignore[return-value]

    def drain(self) -> None:
        """Request a graceful drain from any thread."""
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.request_drain)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join the service thread."""
        self.drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("service thread did not stop in time")

    @property
    def endpoint(self) -> str:
        if self._endpoint is None:
            raise RuntimeError("service is not running")
        return self._endpoint

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
