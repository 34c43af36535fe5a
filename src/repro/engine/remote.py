"""Remote executor: shard ensembles and sweeps across socket workers.

The engine saturates one box — compiled kernels, a cost-model scheduler
and a persistent process pool — so the next order of magnitude has to
come from more machines.  This module generalizes the executor seam to
TCP: an :class:`~repro.engine.session.Engine` session owns a
:class:`WorkerPool` that listens on ``host:port``, any number of
``repro worker`` processes (:func:`serve_worker`) connect to it, and the
session feeds them from the **same** flattened longest-first
cost-scheduled chunk queue the process executor drains — one chunk in
flight per worker, so dispatch is work-stealing and no per-cell barrier
exists.

Wire format
-----------
Every message is one *frame*::

    +----------+----------------+----------------------+
    | magic(4) | length(4, BE)  | pickled message dict |
    +----------+----------------+----------------------+

Frames with a wrong magic, an oversized length or a truncated body are
rejected (:class:`ProtocolError`); a clean EOF is only legal on a frame
boundary.  The conversation is deliberately small:

``hello``  worker -> pool
    Name (the cost model's worker key), pid, host, protocol version and
    a content token of the worker's ensemble-cache directory, so the
    pool can report which workers share the session's store.
``challenge`` / ``auth``  pool <-> worker
    Optional shared-secret handshake: when the pool holds a secret it
    answers ``hello`` with a random nonce and only registers the worker
    after a constant-time check of ``HMAC-SHA256(secret, nonce)``.
``welcome``  pool -> worker
    Accepts the registration (protocol echo).
``reject``  pool -> worker
    Registration refused (protocol mismatch, bad secret) with a
    human-readable reason, so an old worker fails loudly instead of
    hanging on a silently dropped connection.
``cache-probe`` / ``cache-hit``  pool <-> worker
    Before enqueueing a sweep the pool asks each worker which cell keys
    its local ensemble store can serve; the worker answers with the
    subset it holds.
``serve-cached``  pool -> worker
    Cache-first dispatch: the owning worker loads the named cell from
    its own store and replies the usual ``result`` frame (flagged
    ``served``) — no simulation, no upload from the coordinator.  A
    worker that advertised a key it cannot actually serve replies
    ``cache-miss`` and the pool requeues the cell as a cold chunk.
``cache-push``  pool -> worker
    Write-back replication after a cold run: the coordinator pushes a
    newly computed cell entry to workers whose store token differs, so
    the next sweep is warm fleet-wide.  Fire-and-forget; the worker's
    own LRU byte cap bounds what it keeps.
``chunk``  pool -> worker
    One queue slice: scenario name, the **spec by value** (never a
    shared-memory ref — those only resolve on the parent's host),
    variant, pickled ``SeedSequence`` children, budget, kernel knobs and
    the fixed-width record widths (``None`` selects the pickle
    fallback for cells without a record codec).
``result``  worker -> pool
    The chunk's results: a fixed-width record block (``int64`` slots
    then ``float64`` extras per replicate — the same bytes a
    process-pool worker returns) or pickled
    results on the fallback path, plus the measured kernel seconds for
    the cost model.
``error``  worker -> pool
    A traceback; the pool aborts the run (a deterministic failure would
    requeue forever).
``bye``  either direction
    Clean shutdown.

Determinism
-----------
Replicate ``i`` of a cell always receives the ``i``-th child of the
cell's ``SeedSequence`` — the seeds are derived **before** chunking and
ship inside the chunk, so any replicate is reproducible in isolation on
any machine.  Worker death mid-chunk therefore costs nothing but time:
the pool requeues the chunk and whichever worker re-runs it regenerates
bit-identical results.  The executor moves only wall time, never bits —
the same invariant the ensemble cache and the process executor already
rely on.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import pickle
import selectors
import socket
import ssl
import time
import traceback
from collections import deque

import numpy as np

from .executors import _SPEC_REF_TAG
from .options import parse_address
from .scenarios import get_scenario

__all__ = [
    "FrameDecoder",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerPool",
    "auth_digest",
    "cache_token",
    "decode_result_block",
    "encode_result_block",
    "make_client_tls_context",
    "make_server_tls_context",
    "parse_address",
    "recv_frame",
    "send_frame",
    "serve_worker",
]

#: Protocol version carried by hello/welcome; a mismatch rejects the
#: registration instead of corrupting a run halfway through.  v2 added
#: the cache fabric (cache-probe/cache-hit, serve-cached, cache-push)
#: and the optional shared-secret challenge/auth handshake; v3 dropped
#: the per-chunk ``event_block``/``stream_buffer`` fields (kernel
#: constants now, not engine options).
PROTOCOL_VERSION = 3

#: Environment variable naming the optional shared worker secret (the
#: ``worker_secret`` engine option); both the coordinator and
#: ``repro worker`` resolve it through
#: :class:`~repro.engine.options.EngineOptions`.
WORKER_SECRET_ENV = "REPRO_WORKER_SECRET"

#: First four bytes of every frame.
FRAME_MAGIC = b"RPRW"

#: Upper bound on one frame's payload.  Big enough for a 10^6-edge graph
#: spec or a 10^5-replicate record block, small enough that a garbage
#: length field cannot make the pool try to buffer terabytes.
MAX_FRAME = 256 * 1024 * 1024

_HEADER_SIZE = 8

#: How long :meth:`WorkerPool.run` waits for at least one registered
#: worker before giving up on a non-empty queue.
DEFAULT_WORKER_TIMEOUT = 60.0


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message."""


def cache_token(cache_dir) -> str:
    """Content token of a cache directory (same store <=> same token).

    Hashes the *resolved* path, so two processes pointing at one
    directory through different relative paths or symlinks still
    compare equal — which is all the pool needs to report whether a
    worker shares the session's content-addressed ensemble store.
    """
    resolved = os.path.realpath(os.path.abspath(str(cache_dir)))
    return hashlib.sha256(resolved.encode()).hexdigest()[:16]


def _coerce_secret(secret) -> bytes | None:
    """Normalize a shared secret (str/bytes/None) to bytes."""
    if secret is None:
        return None
    if isinstance(secret, str):
        secret = secret.encode()
    return bytes(secret) or None


def auth_digest(secret, nonce: bytes) -> str:
    """Hex HMAC-SHA256 of the challenge nonce under the shared secret."""
    key = _coerce_secret(secret)
    if key is None:
        raise ValueError("auth_digest needs a non-empty secret")
    return hmac.new(key, bytes(nonce), hashlib.sha256).hexdigest()


# ----------------------------------------------------------------------
# TLS on the worker socket
# ----------------------------------------------------------------------
def make_server_tls_context(
    certfile: str, keyfile: str | None = None, cafile: str | None = None
) -> ssl.SSLContext:
    """Coordinator-side TLS context for the worker-pool listener.

    ``certfile``/``keyfile`` identify the coordinator to connecting
    workers.  ``cafile`` turns on mutual TLS: workers must present a
    client certificate signed by that CA (self-signed deployments pass
    the worker certificate itself).  The HMAC handshake keeps covering
    authentication-by-shared-secret; TLS adds channel encryption and,
    with ``cafile``, certificate-pinned peers.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile, keyfile)
    if cafile:
        context.load_verify_locations(cafile=cafile)
        context.verify_mode = ssl.CERT_REQUIRED
    return context


def make_client_tls_context(
    cafile: str | None = None,
    certfile: str | None = None,
    keyfile: str | None = None,
) -> ssl.SSLContext:
    """Worker-side TLS context for connecting to a TLS pool.

    ``cafile`` pins the coordinator: only a pool certificate signed by
    that CA is accepted (for a self-signed coordinator, pass its
    certificate).  Pinning replaces hostname checking — fleets connect
    by address, often a bare IP, so the pin *is* the identity.  Without
    ``cafile`` the system trust store applies, hostname check included.
    ``certfile``/``keyfile`` present a client certificate for pools that
    demand mutual TLS.
    """
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    if cafile:
        context.load_verify_locations(cafile=cafile)
        context.check_hostname = False
    else:
        context.load_default_certs(ssl.Purpose.SERVER_AUTH)
    if certfile:
        context.load_cert_chain(certfile, keyfile)
    return context


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: dict) -> bytes:
    """One wire frame: magic + big-endian length + pickled message."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME:
        raise ProtocolError(
            f"message of {len(blob)} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )
    return FRAME_MAGIC + len(blob).to_bytes(4, "big") + blob


def send_frame(sock: socket.socket, message: dict) -> int:
    """Send one framed message; returns the bytes put on the wire."""
    frame = encode_frame(message)
    sock.sendall(frame)
    return len(frame)


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """``size`` bytes, or ``None`` on EOF before the first byte."""
    chunks = []
    remaining = size
    while remaining:
        data = sock.recv(min(remaining, 1 << 20))
        if not data:
            if remaining == size:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({size - remaining}/{size} bytes)"
            )
        chunks.append(data)
        remaining -= len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict | None:
    """Blocking receive of one frame (``None`` on clean EOF)."""
    header = _recv_exact(sock, _HEADER_SIZE)
    if header is None:
        return None
    if header[:4] != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {header[:4]!r}")
    length = int.from_bytes(header[4:8], "big")
    if length > MAX_FRAME:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise ProtocolError("connection closed between header and body")
    message = pickle.loads(body)
    if not isinstance(message, dict):
        raise ProtocolError(f"frame payload must be a dict, got {type(message)}")
    return message


class FrameDecoder:
    """Incremental frame parser for the pool's non-blocking reads.

    Feed raw socket bytes, get complete messages back; partial frames
    wait in the buffer.  The same validation as :func:`recv_frame`
    applies — a wrong magic or an oversized length raises
    :class:`ProtocolError` immediately (the stream is unrecoverable
    after either, so the caller drops the connection).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _HEADER_SIZE:
                break
            if bytes(self._buffer[:4]) != FRAME_MAGIC:
                raise ProtocolError(
                    f"bad frame magic {bytes(self._buffer[:4])!r}"
                )
            length = int.from_bytes(self._buffer[4:8], "big")
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds MAX_FRAME"
                )
            if len(self._buffer) < _HEADER_SIZE + length:
                break
            body = bytes(self._buffer[_HEADER_SIZE : _HEADER_SIZE + length])
            del self._buffer[: _HEADER_SIZE + length]
            message = pickle.loads(body)
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame payload must be a dict, got {type(message)}"
                )
            messages.append(message)
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


#: Returned by :meth:`_FrameReader.next` when the drain event fired.
_DRAINED = object()


class _FrameReader:
    """Blocking frame reader with an optional drain watch.

    Without a drain event this is :func:`recv_frame` with a buffer.
    With one, the socket gets a short timeout and the event is checked
    between timeouts, so a SIGTERM-initiated drain wakes an *idle*
    worker within ``poll`` seconds instead of leaving it parked in
    ``recv`` until the next frame happens to arrive.  The drain is only
    honored between frames handed to the caller — a chunk the caller is
    already executing always finishes — and takes precedence over
    frames still sitting in the buffer: unanswered dispatches are the
    coordinator's to requeue (bit-identically, since seeds travel
    inside chunks).
    """

    def __init__(self, sock: socket.socket, *, drain=None, poll: float = 0.5):
        self._sock = sock
        self._drain = drain
        self._decoder = FrameDecoder()
        self._pending: deque = deque()
        if drain is not None:
            sock.settimeout(poll)

    def next(self) -> dict | None | object:
        """Next message, ``None`` on clean EOF, ``_DRAINED`` on drain."""
        while True:
            if self._drain is not None and self._drain.is_set():
                return _DRAINED
            if self._pending:
                return self._pending.popleft()
            try:
                data = self._sock.recv(1 << 20)
            except TimeoutError:
                continue  # just a drain-poll wakeup
            except ssl.SSLWantReadError:
                continue
            if not data:
                if self._decoder.pending_bytes:
                    raise ProtocolError(
                        "connection closed mid-frame "
                        f"({self._decoder.pending_bytes} bytes buffered)"
                    )
                return None
            self._pending.extend(self._decoder.feed(data))


# ----------------------------------------------------------------------
# Fixed-width record blocks (the out-of-process result format)
# ----------------------------------------------------------------------
def _record_views(buffer, trials: int, int_width: int, float_width: int):
    """(trials, int_width) int64 + (trials, float_width) float64 views."""
    int_bytes = trials * int_width * 8
    ints = np.ndarray((trials, int_width), dtype=np.int64, buffer=buffer)
    floats = np.ndarray(
        (trials, float_width), dtype=np.float64, buffer=buffer, offset=int_bytes
    )
    return ints, floats


def encode_result_block(
    scenario, spec, results: list, int_width: int, float_width: int
) -> bytes:
    """Results -> one contiguous record block (ints plane, floats plane).

    The record codec *is* the result format of every out-of-process
    executor: socket workers and process-pool workers both return these
    bytes whenever the scenario has a codec for the variant.
    """
    trials = len(results)
    buffer = bytearray(max(trials * 8 * (int_width + float_width), 1))
    ints, floats = _record_views(buffer, trials, int_width, float_width)
    for row, result in enumerate(results):
        scenario.encode_record(spec, result, ints[row], floats[row])
    return bytes(buffer)


def decode_result_block(
    scenario, spec, block: bytes, trials: int, int_width: int, float_width: int
) -> list:
    """Inverse of :func:`encode_result_block`."""
    expected = max(trials * 8 * (int_width + float_width), 1)
    if len(block) != expected:
        raise ProtocolError(
            f"record block of {len(block)} bytes, expected {expected} "
            f"({trials} trials x ({int_width} ints + {float_width} floats))"
        )
    ints, floats = _record_views(bytearray(block), trials, int_width, float_width)
    return [
        scenario.decode_record(spec, ints[row], floats[row])
        for row in range(trials)
    ]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_chunk(message: dict) -> dict:
    """Run one dispatched chunk and build its result message."""
    spec = message["spec"]
    if isinstance(spec, tuple) and spec and spec[0] == _SPEC_REF_TAG:
        # A shared-memory broadcast ref only resolves on the host that
        # created the block; shipping one over a socket is a session bug.
        raise ProtocolError(
            "chunk carried a shared-memory spec reference; specs must "
            "ship by value over the socket"
        )
    scenario = get_scenario(message["scenario"])
    rngs = [np.random.default_rng(s) for s in message["seeds"]]
    started = time.perf_counter()
    results = scenario.run_chunk(
        spec, message["variant"], rngs, message["max_interactions"]
    )
    seconds = time.perf_counter() - started
    reply = {"type": "result", "id": message["id"], "seconds": seconds}
    record = message.get("record")
    if record is not None:
        int_width, float_width = record
        reply["transport"] = "records"
        reply["block"] = encode_result_block(
            scenario, spec, results, int_width, float_width
        )
    else:
        reply["transport"] = "pickle"
        reply["results"] = results
    return reply


def _serve_cached_reply(store, message: dict) -> dict:
    """Answer one ``serve-cached`` dispatch from the worker's own store.

    Returns the ``result`` frame (flagged ``served``) on success, or a
    ``cache-miss`` frame when the entry is absent, corrupt, or the wrong
    shape — the pool falls back to a cold chunk, so a stale store can
    cost time but never bits.
    """
    index = message.get("id")
    key = message.get("key")
    miss = {"type": "cache-miss", "id": index, "key": key}
    if store is None:
        return miss
    started = time.perf_counter()
    try:
        results = store.load(key)
    except Exception:
        return miss
    if not isinstance(results, list) or len(results) != message.get("trials"):
        return miss
    reply = {
        "type": "result",
        "id": index,
        "served": True,
        "seconds": 0.0,
    }
    record = message.get("record")
    if record is not None:
        scenario = get_scenario(message["scenario"])
        int_width, float_width = record
        try:
            reply["transport"] = "records"
            reply["block"] = encode_result_block(
                scenario, message["spec"], results, int_width, float_width
            )
        except Exception:
            return miss
    else:
        reply["transport"] = "pickle"
        reply["results"] = results
    reply["seconds"] = time.perf_counter() - started
    return reply


def _send_bye(sock: socket.socket) -> None:
    """Best-effort ``bye`` on the way out of a drained worker."""
    try:
        send_frame(sock, {"type": "bye"})
    except OSError:
        pass


def serve_worker(
    address: str,
    *,
    name: str | None = None,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    secret: str | bytes | None = None,
    tls: ssl.SSLContext | None = None,
    drain=None,
    claim_all: bool = False,
    max_chunks: int | None = None,
    abort_after: int | None = None,
    connect_timeout: float = 30.0,
    on_connect=None,
) -> int:
    """Connect to a session's :class:`WorkerPool` and serve chunks.

    Blocks until the pool says ``bye``, closes the connection, or
    ``max_chunks`` results have been served; returns the number of
    chunks completed.  This is the body of the ``repro worker`` CLI
    subcommand, and is equally runnable on a thread for in-process
    workers (tests, single-box smoke runs) — the protocol is identical
    either way.

    ``name`` keys the session cost model's per-worker coefficients;
    it defaults to the machine's hostname so one host's history warms
    every later worker on that host.  ``cache_dir`` opens the worker's
    own content-addressed ensemble store: its token travels in the
    hello, ``cache-probe`` frames are answered from it, ``serve-cached``
    dispatches are decoded out of it, and ``cache-push`` replication
    lands in it (bounded by ``cache_max_bytes`` / the store's LRU cap).
    ``secret`` answers the pool's HMAC challenge; when the pool demands
    one and the worker has none, the connection fails with an error
    naming ``REPRO_WORKER_SECRET``.  ``tls`` wraps the connection in an
    :class:`ssl.SSLContext` built by :func:`make_client_tls_context`
    (plaintext remains the default — a TLS pool simply fails the
    handshake of a plaintext worker and vice versa).  ``drain`` is a
    :class:`threading.Event`-like object: once set, the worker finishes
    the chunk it is executing (dispatches not yet started are the
    pool's to requeue), says ``bye`` and returns normally — the
    graceful-shutdown path ``repro worker`` wires to SIGTERM/SIGINT.
    ``claim_all`` is a test hook: the
    probe reply advertises *every* probed key whether or not the store
    holds it — the lying-worker case the pool's cache-miss fallback
    must absorb.  ``abort_after`` is the fault-injection hook: after
    that many completed chunks the worker drops the connection *on
    receipt* of the next chunk or serve-cached dispatch, without
    replying — exactly the mid-chunk death the pool's requeue path must
    absorb.
    """
    secret_bytes = _coerce_secret(secret)
    store = None
    if cache_dir is not None:
        from .cache import EnsembleCache

        store = EnsembleCache(cache_dir, max_bytes=cache_max_bytes)
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    served = 0
    try:
        if tls is not None:
            # Handshake under the connect timeout, then hand the wrapped
            # socket to the reader (which sets its own drain-poll timeout).
            sock = tls.wrap_socket(sock, server_hostname=host)
        sock.settimeout(None)
        reader = _FrameReader(sock, drain=drain)
        send_frame(
            sock,
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "name": name or socket.gethostname(),
                "pid": os.getpid(),
                "host": socket.gethostname(),
                "cache_token": (
                    cache_token(cache_dir) if cache_dir is not None else None
                ),
                "cache_entries": (
                    store.stats()["entries"] if store is not None else None
                ),
            },
        )
        welcome = reader.next()
        if welcome is _DRAINED:
            _send_bye(sock)
            return served
        if welcome is not None and welcome.get("type") == "challenge":
            if secret_bytes is None:
                raise ProtocolError(
                    "pool requires a shared secret; set "
                    f"{WORKER_SECRET_ENV} or pass repro worker --secret"
                )
            send_frame(
                sock,
                {
                    "type": "auth",
                    "digest": auth_digest(secret_bytes, welcome["nonce"]),
                },
            )
            welcome = reader.next()
            if welcome is _DRAINED:
                _send_bye(sock)
                return served
        if welcome is not None and welcome.get("type") == "reject":
            raise ProtocolError(
                f"pool rejected registration: {welcome.get('error')}"
            )
        if welcome is None or welcome.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome!r}")
        if on_connect is not None:
            on_connect(welcome)
        while max_chunks is None or served < max_chunks:
            message = reader.next()
            if message is _DRAINED:
                # Graceful drain: nothing is mid-execution here (a chunk
                # in progress finishes before the reader is consulted
                # again), so say bye and let the pool requeue anything
                # it had already put on the wire.
                _send_bye(sock)
                break
            if message is None or message.get("type") == "bye":
                break
            kind = message.get("type")
            if kind == "cache-probe":
                keys = message.get("keys") or []
                if claim_all:
                    hits = list(keys)
                elif store is not None:
                    hits = [key for key in keys if store.contains(key)]
                else:
                    hits = []
                send_frame(
                    sock,
                    {
                        "type": "cache-hit",
                        "probe": message.get("probe"),
                        "keys": hits,
                    },
                )
                continue
            if kind == "cache-push":
                if store is not None:
                    try:
                        store.store(message["key"], message["results"])
                    except Exception:
                        pass  # replication is best-effort
                continue
            if kind not in ("chunk", "serve-cached"):
                raise ProtocolError(f"expected chunk, got {kind!r}")
            if abort_after is not None and served >= abort_after:
                # Simulated mid-chunk death: the chunk was received but
                # never answered, so the pool must requeue it.
                return served
            if kind == "serve-cached":
                send_frame(sock, _serve_cached_reply(store, message))
                served += 1
                continue
            try:
                reply = _execute_chunk(message)
            except Exception:
                send_frame(
                    sock,
                    {
                        "type": "error",
                        "id": message.get("id"),
                        "error": traceback.format_exc(),
                    },
                )
                raise
            send_frame(sock, reply)
            served += 1
    finally:
        sock.close()
    return served


# ----------------------------------------------------------------------
# Session side
# ----------------------------------------------------------------------
class _WorkerConn:
    """One connected worker: socket, decoder, and its in-flight chunk."""

    __slots__ = (
        "sock",
        "decoder",
        "registered",
        "handshake_deadline",
        "challenge",
        "name",
        "pid",
        "host",
        "cache_token",
        "cache_entries",
        "inflight",
        "chunks_done",
        "cache_probed",
        "cache_hits",
        "cache_served",
        "cache_pushed",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder()
        self.registered = False
        #: Monotonic deadline while a TLS handshake is still in
        #: progress; ``None`` once the channel is established (always
        #: ``None`` on plaintext sockets).
        self.handshake_deadline: float | None = None
        self.challenge: bytes | None = None
        self.name: str | None = None
        self.pid: int | None = None
        self.host: str | None = None
        self.cache_token: str | None = None
        self.cache_entries: int | None = None
        self.inflight: int | None = None
        self.chunks_done = 0
        self.cache_probed = 0
        self.cache_hits = 0
        self.cache_served = 0
        self.cache_pushed = 0


class WorkerPool:
    """The session's attachment point for socket-connected workers.

    Listens on ``host:port`` (``None`` = loopback on an ephemeral port),
    registers workers as they connect, and drains chunk queues with
    work-stealing dispatch: one chunk in flight per worker, the next
    chunk handed to whichever worker answers first.  Worker death —
    EOF, a reset, a garbage frame — requeues the dead worker's in-flight
    chunk at the front of the queue; results stay bit-identical because
    every chunk carries its replicates' ``SeedSequence`` children.

    Single-threaded by design: connections are accepted and handshaked
    inside :meth:`wait_for_workers` and the dispatch loop (pending
    workers sit in the listen backlog meanwhile), so the session never
    runs a background thread.
    """

    def __init__(
        self,
        address: str | None = None,
        *,
        session_cache_token: str | None = None,
        secret: str | bytes | None = None,
        tls: ssl.SSLContext | None = None,
        worker_timeout: float = DEFAULT_WORKER_TIMEOUT,
    ) -> None:
        host, port = parse_address(address) if address else ("127.0.0.1", 0)
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.setblocking(False)
        #: Server-side TLS context (:func:`make_server_tls_context`);
        #: ``None`` keeps the classic plaintext socket.
        self._tls = tls
        self._tls_handshake_timeout = 5.0
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._conns: list[_WorkerConn] = []
        self._session_cache_token = session_cache_token
        self._secret = _coerce_secret(secret)
        self._worker_timeout = float(worker_timeout)
        #: Starvation grace before an idle worker may cold-steal a chunk
        #: pinned to a live-but-busy cache owner.  Serves are near-
        #: instant, so in a healthy fleet this never fires; a wedged
        #: owner only costs this much idle time before work flows again.
        self._steal_grace = 0.5
        self._probe_seq = 0
        self._last_register = 0.0
        self._closed = False
        #: Cumulative transport counters (frame bytes, both directions).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.chunks_dispatched = 0
        self.chunks_requeued = 0
        #: Cache-fabric counters (survive worker disconnects).
        self.cache_probed = 0
        self.cache_hits = 0
        self.cache_served = 0
        self.cache_pushed = 0
        self.cache_fallbacks = 0
        self._cache_worker_stats: dict[str, dict] = {}

    # -- address ------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` workers should connect to."""
        return self._listener.getsockname()[:2]

    @property
    def endpoint(self) -> str:
        """The bound address as a ``host:port`` string."""
        host, port = self.address
        return f"{host}:{port}"

    # -- registration --------------------------------------------------
    def worker_count(self) -> int:
        """Registered (handshaked) workers currently connected."""
        return sum(1 for conn in self._conns if conn.registered)

    def worker_names(self) -> list[str]:
        """Names of the registered workers (cost-model keys)."""
        return [conn.name for conn in self._conns if conn.registered]

    def workers(self) -> list[dict]:
        """Registration snapshot for :meth:`Engine.stats`."""
        return [
            {
                "name": conn.name,
                "pid": conn.pid,
                "host": conn.host,
                "chunks_done": conn.chunks_done,
                "cache_shared": (
                    conn.cache_token is not None
                    and conn.cache_token == self._session_cache_token
                ),
                "cache_token": conn.cache_token,
                "cache_entries": conn.cache_entries,
                "cache_served": conn.cache_served,
                "cache_pushed": conn.cache_pushed,
            }
            for conn in self._conns
            if conn.registered
        ]

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` workers have registered (or raise)."""
        deadline = time.monotonic() + timeout
        while self.worker_count() < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"{self.worker_count()}/{count} workers registered "
                    f"within {timeout:.0f}s on {self.endpoint}"
                )
            self._poll(min(remaining, 0.2))

    # -- event loop internals ------------------------------------------
    def _poll(self, timeout: float) -> list[tuple[_WorkerConn, dict]]:
        """One selector pass: accepts, handshakes, and buffered reads.

        Returns the protocol messages read from registered workers;
        connection failures are absorbed here (dead workers' in-flight
        chunks are handed back through ``_requeue``).
        """
        messages: list[tuple[_WorkerConn, dict]] = []
        for key, _events in self._selector.select(timeout):
            if key.data is None:
                self._accept()
                continue
            conn: _WorkerConn = key.data
            if conn not in self._conns:
                continue  # dropped earlier in this same select batch
            if conn.handshake_deadline is not None:
                self._handshake_step(conn)
                continue
            # On a TLS socket one selector wakeup can decrypt more than
            # one recv's worth: keep reading while decrypted bytes sit
            # in the SSL layer's buffer (``pending()``), because the raw
            # socket won't become readable again for those.
            parts: list[bytes] = []
            eof = False
            try:
                while True:
                    data = conn.sock.recv(1 << 20)
                    if not data:
                        eof = True
                        break
                    parts.append(data)
                    if not (
                        isinstance(conn.sock, ssl.SSLSocket)
                        and conn.sock.pending()
                    ):
                        break
            except ssl.SSLWantReadError:
                # Mid-TLS-record (renegotiation or a partial record):
                # not a failure — the selector fires again when the rest
                # arrives.  Must precede OSError: SSLWantReadError is an
                # OSError subclass and the generic arm drops the conn.
                pass
            except (OSError, ValueError):
                self._drop(conn)
                continue
            if eof and not parts:
                self._drop(conn)
                continue
            if not parts:
                continue
            data = b"".join(parts)
            self.bytes_received += len(data)
            try:
                frames = conn.decoder.feed(data)
            except (ProtocolError, pickle.UnpicklingError, EOFError):
                self._drop(conn)
                continue
            for message in frames:
                if not conn.registered:
                    self._register(conn, message)
                else:
                    messages.append((conn, message))
        if self._tls is not None:
            # A stalled handshaker never becomes selector-ready, so the
            # deadline has to be checked on every pass, not only when
            # its socket fires.
            now = time.monotonic()
            for conn in [
                c
                for c in self._conns
                if c.handshake_deadline is not None
                and now > c.handshake_deadline
            ]:
                self._drop(conn)
        return messages

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except (BlockingIOError, OSError):
            return
        sock.setblocking(False)
        deadline = None
        if self._tls is not None:
            # Wrap without handshaking: the handshake advances step-wise
            # in _poll as the selector reports readiness, so one slow or
            # stalled connector never blocks frame processing and
            # dispatch for the established workers.  A peer that goes
            # quiet mid-handshake is dropped at the deadline; a
            # plaintext worker dialing a TLS pool fails on its first
            # handshake step.
            try:
                sock = self._tls.wrap_socket(
                    sock, server_side=True, do_handshake_on_connect=False
                )
            except (OSError, ssl.SSLError):
                try:
                    sock.close()
                except OSError:
                    pass
                return
            deadline = time.monotonic() + self._tls_handshake_timeout
        conn = _WorkerConn(sock)
        conn.handshake_deadline = deadline
        self._conns.append(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        if deadline is not None:
            self._handshake_step(conn)

    def _handshake_step(self, conn: _WorkerConn) -> None:
        """Advance one in-progress TLS handshake without blocking.

        Want-read parks the connection until the selector fires again;
        want-write additionally watches for writability (rare — the
        kernel buffer absorbs ServerHello-sized flights).  Completion
        clears the deadline and returns the socket to plain read
        interest; any real TLS error drops the connection.
        """
        try:
            conn.sock.do_handshake()
        except ssl.SSLWantReadError:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            return
        except ssl.SSLWantWriteError:
            self._selector.modify(
                conn.sock,
                selectors.EVENT_READ | selectors.EVENT_WRITE,
                conn,
            )
            return
        except (OSError, ValueError):
            self._drop(conn)
            return
        conn.handshake_deadline = None
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)

    def _reject(self, conn: _WorkerConn, error: str) -> None:
        """Refuse a registration with a reason, then drop the socket."""
        try:
            self._send(conn, {"type": "reject", "error": error})
        except OSError:
            pass
        self._drop(conn)

    def _register(self, conn: _WorkerConn, message: dict) -> None:
        kind = message.get("type")
        if kind == "auth" and conn.challenge is not None:
            expected = auth_digest(self._secret, conn.challenge)
            conn.challenge = None
            digest = message.get("digest")
            if not isinstance(digest, str) or not hmac.compare_digest(
                expected, digest
            ):
                self._reject(
                    conn,
                    "shared-secret mismatch; the worker's "
                    f"{WORKER_SECRET_ENV} (or --secret) does not match "
                    "the coordinator's",
                )
                return
            self._welcome(conn)
            return
        if kind != "hello" or conn.challenge is not None:
            self._drop(conn)
            return
        if message.get("protocol") != PROTOCOL_VERSION:
            self._reject(
                conn,
                f"protocol version {message.get('protocol')!r} != "
                f"{PROTOCOL_VERSION}; upgrade the worker to match the "
                "coordinator",
            )
            return
        conn.name = str(message.get("name") or "worker")
        conn.pid = message.get("pid")
        conn.host = message.get("host")
        conn.cache_token = message.get("cache_token")
        conn.cache_entries = message.get("cache_entries")
        if self._secret is not None:
            conn.challenge = os.urandom(32)
            try:
                self._send(
                    conn, {"type": "challenge", "nonce": conn.challenge}
                )
            except OSError:
                self._drop(conn)
            return
        self._welcome(conn)

    def _welcome(self, conn: _WorkerConn) -> None:
        try:
            self._send(conn, {"type": "welcome", "protocol": PROTOCOL_VERSION})
        except OSError:
            self._drop(conn)
            return
        conn.registered = True
        self._last_register = time.monotonic()
        self._worker_cache_row(conn)

    def _worker_cache_row(self, conn: _WorkerConn) -> dict:
        """Persistent per-worker cache counters (outlive the connection)."""
        row = self._cache_worker_stats.setdefault(
            conn.name or "worker",
            {
                "name": conn.name,
                "cache_token": conn.cache_token,
                "cache_entries": conn.cache_entries,
                "probed": 0,
                "hits": 0,
                "served": 0,
                "pushed": 0,
            },
        )
        row["cache_token"] = conn.cache_token
        row["cache_entries"] = conn.cache_entries
        return row

    def _send(self, conn: _WorkerConn, message: dict) -> None:
        frame = encode_frame(message)
        conn.sock.setblocking(True)
        try:
            conn.sock.sendall(frame)
        finally:
            conn.sock.setblocking(False)
        self.bytes_sent += len(frame)

    def _drop(self, conn: _WorkerConn) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self._conns:
            self._conns.remove(conn)

    # -- cache fabric --------------------------------------------------
    def probe_cache(
        self,
        keys: list[str],
        *,
        timeout: float = 5.0,
        register_timeout: float = 10.0,
        settle: float = 0.25,
    ) -> dict[str, set]:
        """Ask every registered worker which of ``keys`` its store holds.

        Returns ``{worker_name: {key, ...}}`` for workers that answered
        within ``timeout`` (workers that die or stall mid-probe simply
        contribute no hits — the cells run cold, which only costs time).
        Two workers sharing a name merge their advertised sets; names
        already alias stores for the cost model, so that is the right
        granularity for placement too.

        The probe fires at sweep start, typically moments after the pool
        begins listening, so it first waits up to ``register_timeout``
        for a worker to register (the dispatcher would block on that
        anyway), then gives the fleet a ``settle`` grace *measured from
        the most recent registration* — a fleet that connects together
        is probed together, while a long-registered fleet is probed
        immediately, keeping the grace out of steady-state sweep time.
        Workers that register after the probe still execute chunks
        normally; they just aren't affinity targets this sweep.
        """
        if self._closed or not keys:
            return {}
        deadline = time.monotonic() + register_timeout
        while self.worker_count() == 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return {}
            self._poll(min(remaining, 0.05))
        while settle:
            remaining = self._last_register + settle - time.monotonic()
            if remaining <= 0:
                break
            self._poll(min(remaining, 0.05))
        if not any(
            conn.registered and conn.cache_token is not None
            for conn in self._conns
        ):
            return {}  # a store-less fleet cannot serve anything
        self._probe_seq += 1
        probe_id = self._probe_seq
        pending: set[int] = set()
        for conn in list(self._conns):
            if not conn.registered:
                continue
            try:
                self._send(
                    conn,
                    {"type": "cache-probe", "probe": probe_id, "keys": keys},
                )
            except OSError:
                self._drop(conn)
                continue
            pending.add(id(conn))
            conn.cache_probed += len(keys)
            self.cache_probed += len(keys)
            self._worker_cache_row(conn)["probed"] += len(keys)
        owners: dict[str, set] = {}
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            for conn, message in self._poll(min(remaining, 0.05)):
                if message.get("type") != "cache-hit":
                    # Not probe traffic (e.g. a stale frame) — a probe
                    # runs outside any dispatch, so anything else is
                    # out-of-protocol for this conn.
                    self._drop(conn)
                    continue
                if message.get("probe") != probe_id:
                    continue  # stale answer from an earlier, timed-out probe
                pending.discard(id(conn))
                hits = {key for key in message.get("keys") or () if key in keys}
                if hits:
                    owners.setdefault(conn.name, set()).update(hits)
                    conn.cache_hits += len(hits)
                    self.cache_hits += len(hits)
                    self._worker_cache_row(conn)["hits"] += len(hits)
            pending &= {id(conn) for conn in self._conns}
        return owners

    def push_cache(
        self, key: str, results: list, *, exclude: set | frozenset = frozenset()
    ) -> int:
        """Replicate one cell entry to workers whose store differs.

        Fire-and-forget ``cache-push`` to every registered worker that
        has its own store (a non-``None`` token) not already holding the
        session's store (token equal to the session's), deduplicated by
        token so two workers over one directory get one copy.  Workers
        named in ``exclude`` (the cell's advertised owners) are skipped.
        Returns the number of pushes sent; each worker's own LRU byte
        cap bounds what it keeps.
        """
        if self._closed:
            return 0
        pushed = 0
        seen_tokens: set[str] = set()
        if self._session_cache_token is not None:
            seen_tokens.add(self._session_cache_token)
        for conn in list(self._conns):
            if not conn.registered or conn.cache_token is None:
                continue
            if conn.name in exclude or conn.cache_token in seen_tokens:
                continue
            try:
                self._send(
                    conn,
                    {"type": "cache-push", "key": key, "results": results},
                )
            except OSError:
                self._drop(conn)
                continue
            seen_tokens.add(conn.cache_token)
            conn.cache_pushed += 1
            self.cache_pushed += 1
            self._worker_cache_row(conn)["pushed"] += 1
            pushed += 1
        return pushed

    def cache_stats(self) -> dict:
        """Cache-fabric counters for ``Engine.stats()["cache"]``."""
        for conn in self._conns:
            if conn.registered:
                self._worker_cache_row(conn)
        return {
            "probed": self.cache_probed,
            "hits": self.cache_hits,
            "served": self.cache_served,
            "pushed": self.cache_pushed,
            "fallbacks": self.cache_fallbacks,
            "workers": [
                dict(row) for row in self._cache_worker_stats.values()
            ],
        }

    # -- dispatch ------------------------------------------------------
    def _pick_chunk(
        self,
        queue: deque,
        owners: list[set],
        conn: _WorkerConn,
        live: set,
        allow_steal: bool,
    ) -> tuple[int | None, bool]:
        """Affinity-aware chunk choice for one idle worker.

        Preference order: (1) the first queued chunk whose advertised
        cache owners include this worker — dispatched as ``serve-cached``
        (near-free, so taking it before cold work never hurts the
        schedule); (2) the first chunk with *no live owner* — cold
        simulation, preserving the cost scheduler's front-first order;
        (3) nothing — chunks pinned to live-but-busy owners are left
        alone, unless ``allow_steal`` (the starvation fallback) lets the
        idle worker simulate the front one cold.  Either path is
        bit-identical: seeds travel inside the chunk.
        """
        fallback = None
        for index in queue:
            own = owners[index]
            if own and conn.name in own:
                queue.remove(index)
                return index, True
            if fallback is None and not (own & live):
                fallback = index
        if fallback is not None:
            queue.remove(fallback)
            return fallback, False
        if allow_steal and queue:
            return queue.popleft(), False
        return None, False

    def run(self, chunks: list[dict], *, timeout: float | None = None) -> list[dict]:
        """Drain ``chunks`` across the connected workers; return in order.

        ``chunks`` are chunk-message payloads (everything but ``type``
        and ``id``), **already in schedule order** — the queue is handed
        out front-first, one chunk per idle worker, so the longest-first
        ordering the cost scheduler produced is preserved exactly like
        the process executor's ``chunksize=1`` maps.  Two optional keys
        drive cache-first dispatch: a chunk carrying ``cache_key`` plus
        ``cache_owners`` (worker names that advertised the key in a
        probe) is pinned to an owner and dispatched as ``serve-cached``;
        everything needed for a cold run still travels in the chunk, so
        owner death, a lying probe (``cache-miss`` reply) or starvation
        stealing all fall back to bit-identical simulation.  Workers
        that connect mid-run join the steal loop immediately; workers
        that die mid-chunk have their chunk requeued at the *front* (it
        was the oldest outstanding work).  Raises ``RuntimeError`` when
        a worker reports an execution error, or when the queue is
        non-empty but no worker registers within the pool's timeout.

        Returns one dict per chunk: ``{"worker", "seconds", "transport",
        "results" | "block"}`` plus ``"served": True`` on cache-served
        chunks (callers must keep those out of the cost model — their
        seconds measure decode time, not simulation).
        """
        if self._closed:
            raise RuntimeError("this WorkerPool is closed")
        outputs: list[dict | None] = [None] * len(chunks)
        queue = deque(range(len(chunks)))
        owners = [set(chunk.get("cache_owners") or ()) for chunk in chunks]
        inflight: dict[int, _WorkerConn] = {}
        done = 0
        worker_timeout = self._worker_timeout if timeout is None else timeout
        starving_since: float | None = None
        steal_since: float | None = None
        while done < len(chunks):
            # Hand a chunk to every idle registered worker: owned cells
            # as serve-cached, unowned cells cold front-first.
            live = {conn.name for conn in self._conns if conn.registered}
            allow_steal = (
                steal_since is not None
                and time.monotonic() - steal_since > self._steal_grace
            )
            dispatched = False
            for conn in list(self._conns):
                if not queue:
                    break
                if not conn.registered or conn.inflight is not None:
                    continue
                index, serve = self._pick_chunk(
                    queue, owners, conn, live, allow_steal
                )
                if index is None:
                    continue
                chunk = chunks[index]
                if serve:
                    message = {
                        "type": "serve-cached",
                        "id": index,
                        "key": chunk["cache_key"],
                        "scenario": chunk["scenario"],
                        "spec": chunk["spec"],
                        "variant": chunk["variant"],
                        "trials": len(chunk["seeds"]),
                        "record": chunk.get("record"),
                    }
                else:
                    message = {
                        key: value
                        for key, value in chunk.items()
                        if key not in ("cache_key", "cache_owners")
                    }
                    message["type"] = "chunk"
                    message["id"] = index
                try:
                    self._send(conn, message)
                except OSError:
                    queue.appendleft(index)
                    self._drop(conn)
                    continue
                conn.inflight = index
                inflight[index] = conn
                self.chunks_dispatched += 1
                dispatched = True
            has_idle = any(
                conn.registered and conn.inflight is None
                for conn in self._conns
            )
            if dispatched or not queue or not has_idle:
                steal_since = None
            elif steal_since is None:
                steal_since = time.monotonic()
            if not any(conn.registered for conn in self._conns):
                if starving_since is None:
                    starving_since = time.monotonic()
                elif time.monotonic() - starving_since > worker_timeout:
                    raise RuntimeError(
                        f"remote executor has {len(chunks) - done} chunks "
                        f"pending but no workers connected to "
                        f"{self.endpoint} within {worker_timeout:.0f}s; "
                        f"start some with: repro worker {self.endpoint}"
                    )
            else:
                starving_since = None
            for conn, message in self._poll(0.05):
                kind = message.get("type")
                if kind == "result":
                    index = message.get("id")
                    if index != conn.inflight:
                        self._drop(conn)
                        continue
                    conn.inflight = None
                    conn.chunks_done += 1
                    inflight.pop(index, None)
                    output = {
                        "worker": conn.name,
                        "seconds": message.get("seconds", 0.0),
                        "transport": message.get("transport", "pickle"),
                    }
                    if output["transport"] == "records":
                        output["block"] = message.get("block")
                    else:
                        output["results"] = message.get("results")
                    if message.get("served"):
                        output["served"] = True
                        conn.cache_served += 1
                        self.cache_served += 1
                        self._worker_cache_row(conn)["served"] += 1
                    outputs[index] = output
                    done += 1
                elif kind == "cache-miss":
                    # The worker advertised this key but could not serve
                    # it (evicted, torn, lying probe).  Strike it from
                    # the cell's owners and requeue at the front — the
                    # chunk still carries everything for a cold run.
                    index = message.get("id")
                    if index != conn.inflight:
                        self._drop(conn)
                        continue
                    conn.inflight = None
                    inflight.pop(index, None)
                    if conn.name:
                        owners[index].discard(conn.name)
                    queue.appendleft(index)
                    self.chunks_requeued += 1
                    self.cache_fallbacks += 1
                elif kind == "cache-hit":
                    continue  # stale answer from a timed-out probe
                elif kind == "error":
                    raise RuntimeError(
                        f"remote worker {conn.name!r} failed:\n"
                        f"{message.get('error')}"
                    )
                elif kind == "bye":
                    self._drop(conn)
                else:
                    self._drop(conn)
            # A worker that died (EOF, reset, garbage frame, stale
            # result id) left _poll as a dropped connection; its chunk
            # goes back to the FRONT of the queue — it was the oldest
            # outstanding work, and the replicates' SeedSequence
            # children make the re-run bit-identical by construction.
            for index, conn in list(inflight.items()):
                if conn not in self._conns:
                    del inflight[index]
                    queue.appendleft(index)
                    self.chunks_requeued += 1
        return outputs  # type: ignore[return-value]

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Say ``bye`` to every worker and stop listening (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns):
            if conn.registered:
                try:
                    self._send(conn, {"type": "bye"})
                except OSError:
                    pass
            self._drop(conn)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else self.endpoint
        return f"WorkerPool({state}, workers={self.worker_count()})"
