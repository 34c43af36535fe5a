"""Remote executor: shard ensembles and sweeps across socket workers.

Every out-of-process worker speaks one protocol, local or not.  An
:class:`~repro.engine.session.Engine` session owns a :class:`WorkerPool`
that listens on ``host:port``, any number of ``repro worker`` processes
(:func:`serve_worker`) connect to it, and the session feeds them from
the flattened longest-first cost-scheduled unit queue — packed lockstep
units included, one unit in flight per worker, so dispatch is
work-stealing and no per-cell barrier exists.  The process executor is
the same pool on loopback, fed by ``jobs`` forked local workers
(:class:`LocalFleet`).

Wire format
-----------
Every message is one *frame*::

    +----------+-------------+-------------+-------------+------------+
    | magic(4) | hlen(4, BE) | blen(4, BE) | JSON header | body bytes |
    +----------+-------------+-------------+-------------+------------+

The header is a UTF-8 JSON object with a string ``type``.  The body is
a fixed-width record block on ``result`` and ``cache-push`` frames and
empty on every other frame.  :class:`FrameDecoder` is the one parser
and reads nothing but JSON and raw bytes.  A wrong magic, an oversized
length, a header that is not a JSON object, a field of the wrong type,
a block of the wrong size or a spec its scenario's ``validate`` refuses
is a :class:`ProtocolError`, and the pool drops that connection.  Specs
travel as :meth:`ScenarioSpec.to_json` (the object ``key()`` hashes),
once per connection per run: a chunk segment names its spec by
``spec_key`` and carries the spec object only the first time that
connection sees the key in the run, so a graph cell cut into many
chunks costs one spec decode per worker.  Seeds travel as
:func:`~repro.engine.cache.seed_token` values and results as record
blocks whose widths both ends derive from the cell (:func:`cell_codec`),
so a cell without a record codec runs only in the session's process.
The conversation (``<-`` marks pool -> worker):

``hello``                 name, pid, host, protocol, cache-store token
``challenge`` <- ``auth`` optional HMAC-SHA256 of a hex nonce under the
                          shared secret, checked in constant time
``welcome`` / ``reject``  <- registration accepted, or refused with a
                          reason (protocol skew, bad secret)
``cache-probe`` <-        which of these cell keys does your store hold?
``cache-hit``             the subset it holds
``serve-cached`` <-       a one-cell ``chunk`` plus its key, answered from
                          the store: a ``result`` flagged ``served``, or
                          ``cache-miss`` and the pool requeues it cold
``cache-push`` <-         a cold cell's key, spec, variant and block;
                          fire-and-forget, kept under the store's LRU cap
``chunk`` <-              one work unit: ``run``, variant and ``segments``,
                          a list of ``{spec_key, seeds, max_interactions}``
                          plus ``spec`` on a key's first segment per run on
                          that connection (a new ``run`` clears the
                          worker's specs; an unknown or resent key is a
                          protocol error); several segments only for a
                          variant that packs, all of one scenario, run as
                          ONE lockstep kernel call
``result``                the chunk's ``id`` and ``run``, kernel seconds,
                          and the segments' record blocks back to back as
                          the body (exact total size); a result of an
                          earlier run is dropped
``error``                 a traceback; the pool aborts the run
``bye``                   clean shutdown, either direction

Determinism
-----------
Replicate ``i`` of a cell always receives the ``i``-th child of the
cell's ``SeedSequence`` — the seeds are derived **before** chunking and
ship inside the chunk, so any replicate is reproducible in isolation on
any machine.  Worker death mid-chunk therefore costs nothing but time:
the pool requeues the chunk and whichever worker re-runs it regenerates
bit-identical results.  The executor moves only wall time, never bits —
the same invariant the ensemble cache relies on.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import json
import math
import multiprocessing
import os
import re
import selectors
import socket
import ssl
import struct
import time
import traceback
from collections import deque

import numpy as np

from .cache import EnsembleCache, seed_from_token, seed_token
from .executors import (
    Segment,
    UnitResult,
    WorkUnit,
    _cut,
    _record_widths,
    encode_parts,
    run_unit,
)
from .options import parse_address
from .scenarios import ScenarioSpec, get_scenario

__all__ = [
    "FrameDecoder",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WorkerPool",
    "auth_digest",
    "cache_token",
    "cell_codec",
    "decode_result_block",
    "encode_result_block",
    "make_client_tls_context",
    "make_server_tls_context",
    "parse_address",
    "send_frame",
    "serve_worker",
]

#: Protocol version carried by hello/welcome; a mismatch rejects the
#: registration instead of corrupting a run halfway through.  v2 added
#: the cache fabric and the shared-secret handshake, v3 dropped the
#: per-chunk kernel knobs, v4 made every frame JSON plus a record block,
#: v5 made a chunk a list of segments (packed lockstep units), v6 sends
#: each spec once per connection per run.
PROTOCOL_VERSION = 6

#: Environment variable of the optional shared worker secret (the
#: ``worker_secret`` engine option, read by both ends).
WORKER_SECRET_ENV = "REPRO_WORKER_SECRET"

#: First four bytes of every frame.
FRAME_MAGIC = b"RPRW"

#: Upper bound on one frame's header plus body: room for a 10^6-edge
#: graph spec or a 10^5-replicate record block, not for terabytes.
MAX_FRAME = 256 * 1024 * 1024

#: Upper bound on a frame from a connection that has not registered
#: yet: a hello or an auth is a few hundred bytes.
HANDSHAKE_FRAME = 64 * 1024

#: Magic, header length and body length.
_PREFIX = struct.Struct(">4sII")

#: Shape of an ensemble key (a SHA-256 hex digest), the only names a
#: peer may make a worker's store look up or write.
_KEY_SHAPE = re.compile(r"[0-9a-f]{64}")

#: How long :meth:`WorkerPool.run` waits for at least one registered
#: worker before giving up on a non-empty queue.
DEFAULT_WORKER_TIMEOUT = 60.0

#: The same wait on a :class:`LocalFleet`'s pool: its workers are forked
#: before the run and connect within milliseconds, so a call whose local
#: workers have all died fails after this many seconds.
LOCAL_WORKER_TIMEOUT = 5.0


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message."""


def cache_token(cache_dir) -> str:
    """Content token of a cache directory (same store <=> same token).

    Hashes the *resolved* path, so relative paths and symlinks to one
    directory compare equal.
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

    ``certfile``/``keyfile`` identify the coordinator.  ``cafile`` turns
    on mutual TLS: workers must present a client certificate signed by
    that CA (self-signed deployments pass the worker certificate).  TLS
    adds encryption and pinned peers; the HMAC handshake still
    authenticates the worker.
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

    ``cafile`` pins the coordinator (for a self-signed one, pass its
    certificate) and replaces hostname checking: fleets connect by
    address, so the pin *is* the identity.  Without it the system trust
    store and hostname check apply.  ``certfile``/``keyfile`` present a
    client certificate for pools that demand mutual TLS.
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
    """One frame: ``message["block"]`` (bytes) is the body, the rest JSON."""
    fields = dict(message)
    body = bytes(fields.pop("block", b""))
    header = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    if len(header) + len(body) > MAX_FRAME:
        raise ProtocolError(
            f"message of {len(header) + len(body)} bytes exceeds MAX_FRAME"
        )
    return _PREFIX.pack(FRAME_MAGIC, len(header), len(body)) + header + body


def send_frame(sock: socket.socket, message: dict) -> None:
    """Send one framed message."""
    sock.sendall(encode_frame(message))


class FrameDecoder:
    """The one frame parser: incremental, for blocking and polled reads.

    Feed raw socket bytes, get complete messages back; partial frames
    wait in the buffer.  A wrong magic, a header plus body longer than
    ``max_frame`` or a header that is not a JSON object with a string
    ``type`` raises :class:`ProtocolError` (the stream is unrecoverable
    after any of them, so the caller drops the connection).
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self._buffer = bytearray()
        self.max_frame = max_frame

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while len(self._buffer) >= _PREFIX.size:
            magic, header_length, body_length = _PREFIX.unpack_from(self._buffer)
            if magic != FRAME_MAGIC:
                raise ProtocolError(f"bad frame magic {magic!r}")
            if header_length + body_length > self.max_frame:
                raise ProtocolError(
                    f"frame of {header_length + body_length} bytes "
                    f"exceeds {self.max_frame}"
                )
            split = _PREFIX.size + header_length
            end = split + body_length
            if len(self._buffer) < end:
                break
            header = bytes(self._buffer[_PREFIX.size : split])
            body = bytes(self._buffer[split:end])
            del self._buffer[:end]
            try:
                message = json.loads(header.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise ProtocolError(f"frame header is not JSON: {exc}") from None
            if not (
                isinstance(message, dict)
                and isinstance(message.get("type"), str)
                and "block" not in message
            ):
                raise ProtocolError(
                    "frame header must be a JSON object with a string "
                    "'type' and no 'block'"
                )
            if body:
                message["block"] = body
            messages.append(message)
        return messages

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)


#: Yielded by :func:`_read_frames` once the drain event is set.
_DRAINED = object()


def _read_frames(sock: socket.socket, drain=None, poll: float = 0.5):
    """Messages from ``sock``; ``None`` on clean EOF, ``_DRAINED`` on drain.

    With a drain event the socket polls every ``poll`` seconds, so a
    drain wakes an idle worker.  It is honored between messages (a chunk
    being run always finishes) and before buffered ones, which the
    coordinator requeues (bit-identically: seeds travel inside chunks).
    """
    decoder = FrameDecoder()
    pending: deque = deque()
    if drain is not None:
        sock.settimeout(poll)
    while True:
        if drain is not None and drain.is_set():
            yield _DRAINED
        elif pending:
            yield pending.popleft()
        else:
            try:
                data = sock.recv(1 << 20)
            except (TimeoutError, ssl.SSLWantReadError):
                continue  # a drain-poll wakeup
            if data:
                pending.extend(decoder.feed(data))
            elif decoder.pending_bytes:
                raise ProtocolError(
                    f"connection closed mid-frame ({decoder.pending_bytes} "
                    "bytes buffered)"
                )
            else:
                yield None


# ----------------------------------------------------------------------
# Message fields
# ----------------------------------------------------------------------
def cell_codec(spec: ScenarioSpec, variant: str) -> tuple:
    """``(scenario, (int_width, float_width))`` of a cell on the socket.

    Results cross the socket only as record blocks, and both ends derive
    the widths from the cell; a cell whose scenario has no record codec
    for ``variant`` raises ``ValueError`` naming both.  The process and
    remote executors check every pending cell here before they start or
    send anything.
    """
    scenario = get_scenario(spec.scenario)
    widths = _record_widths(scenario, spec, variant)
    if widths is None:
        raise ValueError(
            f"scenario {spec.scenario!r} has no record codec for variant "
            f"{variant!r}, and workers return results only as record "
            "blocks; run it on the serial executor"
        )
    return scenario, widths


def _field(message: dict, name: str, kind, *, optional: bool = False):
    """``message[name]``, which must be a ``kind`` (a bool is no number)."""
    value = message.get(name)
    if optional and value is None:
        return None
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ProtocolError(
            f"{message.get('type', 'segment')} field {name!r} has the wrong type "
            f"({type(value).__name__})"
        )
    return value


def _is_key(value) -> bool:
    """Whether ``value`` has the shape of an ensemble key (SHA-256 hex)."""
    return isinstance(value, str) and _KEY_SHAPE.fullmatch(value) is not None


def _keys(message: dict) -> list[str]:
    """``message["keys"]``, which must be a list of ensemble keys."""
    keys = _field(message, "keys", list)
    if not all(map(_is_key, keys)):
        raise ProtocolError(f"{message.get('type')} keys hold a non-key")
    return keys


@contextlib.contextmanager
def _decoding(what: str):
    """Re-raise any failure to decode the peer's ``what`` as a ProtocolError.

    Decoding is a pure function of the peer's bytes, so whatever it
    raises (an unknown scenario, a spec ``validate`` refuses, a bad seed
    token) means the peer sent garbage.
    """
    try:
        yield
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"undecodable {what}: {exc!r}") from None


def _decode_cell(message: dict, variant: str) -> tuple:
    """``(scenario, spec, widths)`` of the spec object in ``message``."""
    if not isinstance(message.get("spec"), dict):
        raise ProtocolError("spec must be a JSON spec object")
    with _decoding("spec"):
        spec = ScenarioSpec.from_json(message["spec"])
        scenario, widths = cell_codec(spec, variant)
        scenario.validate(spec)
    return scenario, spec, widths


def _segment_cell(item: dict, variant: str, specs: dict) -> tuple:
    """``(scenario, spec)`` of a chunk segment, by its ``spec_key``.

    ``specs`` holds the specs this connection received in the current
    run, by key.  A segment that carries ``spec`` adds it there; one
    that does not must name a key already there.  The key is the
    coordinator's name for the spec, not checked against its hash.
    """
    key = item.get("spec_key")
    if not _is_key(key):
        raise ProtocolError("chunk segment spec_key is not a spec key")
    if "spec" in item:
        if key in specs:
            raise ProtocolError(f"spec {key} sent twice in one run")
        scenario, specs[key], _ = _decode_cell(item, variant)
        return scenario, specs[key]
    if key not in specs:
        raise ProtocolError(f"chunk segment names unknown spec {key}")
    with _decoding("spec"):
        scenario, _ = cell_codec(specs[key], variant)
    return scenario, specs[key]


def _decode_chunk(message: dict, specs: dict) -> WorkUnit:
    """The :class:`WorkUnit` a ``chunk`` frame carries.

    A variant that packs runs its segments as one :class:`PackedChunk`,
    the rule the coordinator plans by; several segments for a variant
    that does not pack, or segments of different scenarios, are refused.
    ``specs`` is the connection's specs of this run (see
    :func:`_segment_cell`).
    """
    variant = _field(message, "variant", str)
    segments = []
    for index, item in enumerate(_field(message, "segments", list)):
        if not isinstance(item, dict):
            raise ProtocolError("chunk segments must be JSON objects")
        scenario, spec = _segment_cell(item, variant, specs)
        tokens = _field(item, "seeds", list)
        if not tokens:
            raise ProtocolError("chunk segment has no seeds")
        with _decoding("seed tokens"):
            seeds = [seed_from_token(token) for token in tokens]
        budget = _field(item, "max_interactions", int, optional=True)
        segments.append(Segment(index, spec, budget, seeds))
    if not segments:
        raise ProtocolError("chunk has no segments")
    if len({segment.spec.scenario for segment in segments}) > 1:
        raise ProtocolError("chunk segments mix scenarios")
    with _decoding("variant"):
        packs = scenario.packs(variant)
    if len(segments) > 1 and not packs:
        raise ProtocolError(
            f"{len(segments)} segments in one chunk, but variant {variant!r} "
            f"of {scenario.name!r} does not pack"
        )
    return WorkUnit(scenario, variant, variant, tuple(segments), packed=packs)


def _decode_result(message: dict, unit: WorkUnit) -> UnitResult:
    """The :class:`UnitResult` of ``unit``'s result frame (no worker yet)."""
    with _decoding("result seconds"):
        seconds = float(_field(message, "seconds", (int, float)))
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ProtocolError(f"result seconds {seconds} are not finite and >= 0")
    sizes = [
        _block_bytes(len(segment.seeds), *cell_codec(segment.spec, unit.variant)[1])
        for segment in unit.segments
    ]
    body = message.get("block", b"")
    if len(body) != sum(sizes):
        raise ProtocolError(
            f"result body of {len(body)} bytes, expected {sum(sizes)} "
            f"for {len(sizes)} record blocks"
        )
    parts = [
        decode_segment(segment, unit.variant, block)
        for segment, block in zip(unit.segments, _cut(body, sizes))
    ]
    served = bool(_field(message, "served", bool, optional=True))
    return UnitResult(parts, seconds, served=served)


def _decode_cache_push(message: dict) -> tuple[str, list]:
    """``(key, results)`` of a ``cache-push`` frame."""
    if not _is_key(message.get("key")):
        raise ProtocolError("cache-push key is not an ensemble key")
    scenario, spec, widths = _decode_cell(message, _field(message, "variant", str))
    trials = _field(message, "trials", int)
    block = message.get("block", b"")
    return message["key"], decode_result_block(scenario, spec, block, trials, *widths)


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


def _block_bytes(trials: int, int_width: int, float_width: int) -> int:
    """Size of one record block (never empty, so every block is a body)."""
    return max(trials * 8 * (int_width + float_width), 1)


def encode_result_block(
    scenario, spec, results: list, int_width: int, float_width: int
) -> bytes:
    """Results -> one contiguous record block (ints plane, floats plane).

    The record codec *is* the result format of every out-of-process
    executor: socket workers always, and process-pool workers whenever
    the scenario has a codec for the variant, return these bytes.
    """
    trials = len(results)
    buffer = bytearray(_block_bytes(trials, int_width, float_width))
    ints, floats = _record_views(buffer, trials, int_width, float_width)
    for row, result in enumerate(results):
        scenario.encode_record(spec, result, ints[row], floats[row])
    return bytes(buffer)


def decode_result_block(
    scenario, spec, block: bytes, trials: int, int_width: int, float_width: int
) -> list:
    """Inverse of :func:`encode_result_block`; raises only ProtocolError."""
    expected = _block_bytes(trials, int_width, float_width)
    if trials < 0 or len(block) != expected:
        raise ProtocolError(
            f"record block of {len(block)} bytes, expected {expected} "
            f"({trials} trials x ({int_width} ints + {float_width} floats))"
        )
    ints, floats = _record_views(bytearray(block), trials, int_width, float_width)
    with _decoding("record block"):
        return [
            scenario.decode_record(spec, ints[row], floats[row])
            for row in range(trials)
        ]


def decode_segment(segment: Segment, variant: str, block: bytes) -> list:
    """A unit segment's results from its record block (widths from the cell)."""
    scenario, widths = cell_codec(segment.spec, variant)
    return decode_result_block(
        scenario, segment.spec, block, len(segment.seeds), *widths
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _execute_chunk(message: dict, specs: dict) -> dict:
    """Run one dispatched chunk and build its result message."""
    unit = _decode_chunk(message, specs)
    work, budget = unit.work()
    results, seconds = run_unit(unit.scenario, unit.runner, work, budget, unit.seeds)
    return {
        "type": "result",
        "id": message["id"],
        "run": message["run"],
        "seconds": seconds,
        "block": b"".join(encode_parts(unit.scenario, unit.variant, work, results)),
    }


def _serve_cached_reply(store, message: dict, specs: dict) -> dict:
    """Answer one ``serve-cached`` dispatch from the worker's own store.

    The frame is a ``chunk`` of one whole cell plus its ensemble ``key``.
    Returns the ``result`` frame (flagged ``served``) on success, or a
    ``cache-miss`` frame when the entry is absent, corrupt, or the wrong
    shape — the pool falls back to a cold chunk, so a stale store can
    cost time but never bits.
    """
    key = message.get("key")
    if not _is_key(key):
        raise ProtocolError("serve-cached key is not an ensemble key")
    unit = _decode_chunk(message, specs)
    miss = {
        "type": "cache-miss", "id": message["id"], "run": message["run"], "key": key
    }
    if store is None:
        return miss
    started = time.perf_counter()
    try:
        results = store.load(key)
        if not isinstance(results, list) or len(results) != len(unit.seeds):
            return miss
        work, _ = unit.work()
        block = b"".join(encode_parts(unit.scenario, unit.variant, work, results))
    except Exception:
        return miss
    return {
        "type": "result",
        "id": message["id"],
        "run": message["run"],
        "served": True,
        "seconds": time.perf_counter() - started,
        "block": block,
    }


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
    chunks completed.  This is the body of ``repro worker`` and runs
    just as well on a thread (tests, single-box smoke runs).

    ``name`` keys the session cost model's per-worker coefficients
    (default: the hostname).  ``cache_dir`` opens the worker's own
    ensemble store: its token travels in the hello, and probes, serves
    and pushes use it (``cache_max_bytes`` caps it, LRU).  ``secret``
    answers the pool's HMAC challenge; a pool that demands one fails a
    secretless worker with an error naming ``REPRO_WORKER_SECRET``.
    ``tls`` wraps the connection (:func:`make_client_tls_context`).
    Once ``drain`` (a :class:`threading.Event`) is set the worker
    finishes its current chunk, says ``bye`` and returns — the path
    ``repro worker`` wires to SIGTERM/SIGINT.  Two test hooks:
    ``claim_all`` makes probe replies advertise every key (a lying
    worker), and ``abort_after`` drops the connection on receipt of
    the dispatch after that many chunks, without replying (a worker
    dying mid-chunk).
    """
    secret_bytes = _coerce_secret(secret)
    store = None
    if cache_dir is not None:
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
        reader = _read_frames(sock, drain)
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
        welcome = next(reader)
        if isinstance(welcome, dict) and welcome["type"] == "challenge":
            if secret_bytes is None:
                raise ProtocolError(
                    "pool requires a shared secret; set "
                    f"{WORKER_SECRET_ENV} or pass repro worker --secret"
                )
            try:
                nonce = bytes.fromhex(_field(welcome, "nonce", str))
            except ValueError:
                raise ProtocolError("challenge nonce is not hex") from None
            send_frame(
                sock, {"type": "auth", "digest": auth_digest(secret_bytes, nonce)}
            )
            welcome = next(reader)
        if welcome is _DRAINED:
            _send_bye(sock)
            return served
        if welcome is not None and welcome["type"] == "reject":
            raise ProtocolError(
                f"pool rejected registration: {welcome.get('error')}"
            )
        if welcome is None or welcome.get("type") != "welcome":
            raise ProtocolError(f"expected welcome, got {welcome!r}")
        if on_connect is not None:
            on_connect(welcome)
        # The specs received in the current run, by key.
        run, specs = None, {}
        while max_chunks is None or served < max_chunks:
            message = next(reader)
            if message is _DRAINED:
                # Nothing is mid-execution here: say bye, and the pool
                # requeues anything it had already put on the wire.
                _send_bye(sock)
                break
            if message is None or message.get("type") == "bye":
                break
            kind = message.get("type")
            if kind == "cache-probe":
                hits = _keys(message)
                if not claim_all:
                    hits = [k for k in hits if store is not None and store.contains(k)]
                send_frame(
                    sock,
                    {
                        "type": "cache-hit",
                        "probe": _field(message, "probe", int),
                        "keys": hits,
                    },
                )
                continue
            if kind == "cache-push":
                if store is not None:
                    key, results = _decode_cache_push(message)
                    try:
                        store.store(key, results)
                    except Exception:
                        pass  # replication is best-effort
                continue
            if kind not in ("chunk", "serve-cached"):
                raise ProtocolError(f"expected chunk, got {kind!r}")
            if abort_after is not None and served >= abort_after:
                # Simulated mid-chunk death: the chunk was received but
                # never answered, so the pool must requeue it.
                return served
            try:
                _field(message, "id", int)
                if _field(message, "run", int) != run:
                    run, specs = message["run"], {}
                if kind == "serve-cached":
                    reply = _serve_cached_reply(store, message, specs)
                else:
                    reply = _execute_chunk(message, specs)
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
def _chunk_frame(
    index: int, unit: WorkUnit, run: int, specs: dict, sent: set, key: str | None
) -> dict:
    """The frame that dispatches ``unit``: a ``chunk``, or with a cache
    ``key`` a ``serve-cached`` of the same shape (one whole cell).

    ``specs`` maps ``id(spec)`` to ``(spec.key(), spec.to_json())``,
    encoded once per run.  A segment carries the spec object only when
    its key is not in ``sent``, the keys the connection has received in
    run ``run``, and adds it there.
    """
    segments = []
    for segment in unit.segments:
        spec_key, spec_json = specs[id(segment.spec)]
        item = {
            "spec_key": spec_key,
            "seeds": [seed_token(seed) for seed in segment.seeds],
            "max_interactions": segment.max_interactions,
        }
        if spec_key not in sent:
            item["spec"] = spec_json
            sent.add(spec_key)
        segments.append(item)
    frame = {
        "type": "chunk" if key is None else "serve-cached",
        "id": index,
        "run": run,
        "variant": unit.variant,
        "segments": segments,
    }
    if key is not None:
        frame["key"] = key
    return frame


class _WorkerConn:
    """One connected worker: socket, decoder, and its in-flight unit."""

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
        "specs_sent",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.decoder = FrameDecoder(HANDSHAKE_FRAME)
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
        #: Spec keys this worker has received in the current run.
        self.specs_sent: set[str] = set()


class WorkerPool:
    """The session's attachment point for socket-connected workers.

    Listens on ``host:port`` (``None`` = loopback, ephemeral port),
    registers workers as they connect and drains chunk queues with
    work-stealing dispatch, one chunk in flight per worker.  Worker
    death — EOF, a reset, a garbage frame — requeues its chunk at the
    front; every chunk carries its seeds, so results stay bit-identical.
    Single-threaded: accepts and handshakes happen inside
    :meth:`wait_for_workers` and the dispatch loop.
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
        #: pinned to a live-but-busy cache owner (serves are near-instant).
        self._steal_grace = 0.5
        self._probe_seq = 0
        self._run_seq = 0
        self._last_register = 0.0
        self._closed = False
        #: Cumulative transport counters (frame bytes, both directions).
        self.bytes_sent = 0
        self.bytes_received = 0
        self.chunks_dispatched = 0
        self.chunks_requeued = 0
        #: Cache-fabric counters: fallbacks, and per worker name the
        #: probed/hits/served/pushed rows (they survive disconnects).
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
                "cache_served": self._worker_cache_row(conn)["served"],
                "cache_pushed": self._worker_cache_row(conn)["pushed"],
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

        Returns the messages read from registered workers.  A connection
        that fails or sends a bad frame is dropped here; :meth:`run`
        requeues its in-flight chunk.
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
            # On TLS, keep reading while decrypted bytes sit in the SSL
            # layer (``pending()``): the raw socket won't select for them.
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
                # Mid-TLS-record: the selector fires again when the rest
                # arrives.  Must precede OSError, its base class.
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
                for message in conn.decoder.feed(data):
                    if conn not in self._conns:
                        break  # rejected by an earlier frame of this read
                    if conn.registered:
                        messages.append((conn, message))
                    else:
                        self._register(conn, message)
            except ProtocolError:
                self._drop(conn)
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
            # in _poll, so a slow or stalled connector never blocks the
            # established workers; a quiet one is dropped at the
            # deadline, a plaintext one on its first handshake step.
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

        Want-read (and, rarely, want-write) waits for the selector;
        completion clears the deadline; a TLS error drops the conn.
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
        protocol = message.get("protocol")
        if protocol != PROTOCOL_VERSION:
            self._reject(
                conn,
                f"protocol version {protocol!r:.20} != "
                f"{PROTOCOL_VERSION}; upgrade the worker to match the "
                "coordinator",
            )
            return
        conn.name = _field(message, "name", str, optional=True) or "worker"
        conn.pid = _field(message, "pid", int, optional=True)
        conn.host = _field(message, "host", str, optional=True)
        conn.cache_token = _field(message, "cache_token", str, optional=True)
        conn.cache_entries = _field(message, "cache_entries", int, optional=True)
        if self._secret is not None:
            conn.challenge = os.urandom(32)
            try:
                self._send(
                    conn, {"type": "challenge", "nonce": conn.challenge.hex()}
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
        conn.decoder.max_frame = MAX_FRAME
        self._last_register = time.monotonic()
        self._worker_cache_row(conn)

    def _worker_cache_row(self, conn: _WorkerConn) -> dict:
        """Persistent per-worker cache counters (outlive the connection)."""
        row = self._cache_worker_stats.setdefault(
            conn.name or "worker",
            {"name": conn.name, "probed": 0, "hits": 0, "served": 0, "pushed": 0},
        )
        row.update(cache_token=conn.cache_token, cache_entries=conn.cache_entries)
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
        within ``timeout``; one that dies or stalls contributes no hits
        (its cells run cold), and two sharing a name merge their sets.
        The probe first waits up to ``register_timeout`` for a worker to
        register, then a ``settle`` grace measured from the latest
        registration, so a fleet that connects together is probed
        together and a long-registered one at once.  Later workers still
        run chunks; they are just not cache owners this sweep.
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
                try:
                    advertised = _keys(message)
                except ProtocolError:
                    self._drop(conn)
                    continue
                pending.discard(id(conn))
                hits = set(advertised).intersection(keys)
                if hits:
                    owners.setdefault(conn.name, set()).update(hits)
                    self._worker_cache_row(conn)["hits"] += len(hits)
            pending &= {id(conn) for conn in self._conns}
        return owners

    def push_cache(
        self,
        key: str,
        spec: ScenarioSpec,
        variant: str,
        results: list,
        *,
        exclude: set | frozenset = frozenset(),
    ) -> int:
        """Replicate one cell to workers whose store differs.

        ``results`` (stored under ``key``) travel as the record block of
        ``spec`` at ``variant``, fire-and-forget, to every registered
        worker with a store of its own (a token) other than the
        session's, one copy per token; workers named in ``exclude`` (the
        cell's advertised owners) are skipped.  Returns the number of
        pushes sent; each worker's LRU byte cap bounds what it keeps.
        """
        if self._closed:
            return 0
        scenario, widths = cell_codec(spec, variant)
        message = {
            "type": "cache-push",
            "key": key,
            "spec": spec.to_json(),
            "variant": variant,
            "trials": len(results),
            "block": encode_result_block(scenario, spec, results, *widths),
        }
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
                self._send(conn, message)
            except OSError:
                self._drop(conn)
                continue
            seen_tokens.add(conn.cache_token)
            self._worker_cache_row(conn)["pushed"] += 1
            pushed += 1
        return pushed

    def cache_stats(self) -> dict:
        """Cache-fabric counters for ``Engine.stats()["cache"]``."""
        for conn in self._conns:
            if conn.registered:
                self._worker_cache_row(conn)
        rows = [dict(row) for row in self._cache_worker_stats.values()]
        totals = {
            field: sum(row[field] for row in rows)
            for field in ("probed", "hits", "served", "pushed")
        }
        return {**totals, "fallbacks": self.cache_fallbacks, "workers": rows}

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

        In order: the first queued chunk this worker owns (served from
        its store, near-free); the first chunk with no live owner (cold,
        front-first); with ``allow_steal`` (the starvation fallback) the
        front chunk cold; else nothing.  Every path is bit-identical:
        seeds travel inside the chunk.
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

    def run(
        self,
        units: list[WorkUnit],
        *,
        serve: dict[int, tuple[str, list[str]]] | None = None,
        timeout: float | None = None,
    ) -> list[UnitResult]:
        """Drain ``units`` across the connected workers; return in order.

        Each unit goes out as one ``chunk`` (:func:`_chunk_frame`), in
        schedule order, and each distinct spec once per worker per run:
        idle workers take the queue front-first, one unit each, so the
        cost scheduler's longest-first order holds.
        ``serve[j] = (key, owners)`` marks unit ``j`` as one whole cell
        whose ensemble key the ``owners`` (workers whose probe advertised
        it) hold: it goes to an owner as ``serve-cached``, and owner
        death, a ``cache-miss`` or starvation stealing all fall back to
        a cold run of the same seeds.  Workers may join mid-run; the unit
        of a worker that dies, or whose result does not decode, requeues
        at the front.  A cell without a record codec raises
        ``ValueError`` before anything is sent; a worker's ``error``
        frame, or no worker within the pool's timeout, raises
        ``RuntimeError``.

        Returns one :class:`UnitResult` per unit (keep served units out
        of the cost model: their seconds measure a store read, not
        simulation).
        """
        if self._closed:
            raise RuntimeError("this WorkerPool is closed")
        serve = serve or {}
        specs = {}
        for unit in units:
            for segment in unit.segments:
                cell_codec(segment.spec, unit.variant)  # refuse before sending
                if id(segment.spec) not in specs:
                    specs[id(segment.spec)] = (
                        segment.spec.key(),
                        segment.spec.to_json(),
                    )
        self._run_seq += 1
        for conn in self._conns:
            conn.specs_sent = set()
        outputs: list[UnitResult | None] = [None] * len(units)
        queue = deque(range(len(units)))
        owners = [set(serve[j][1]) if j in serve else set() for j in range(len(units))]
        inflight: dict[int, _WorkerConn] = {}
        done = 0
        worker_timeout = self._worker_timeout if timeout is None else timeout
        starving_since: float | None = None
        steal_since: float | None = None
        while done < len(units):
            # Hand a unit to every idle registered worker: owned cells
            # as serve-cached, unowned units cold front-first.
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
                index, cached = self._pick_chunk(
                    queue, owners, conn, live, allow_steal
                )
                if index is None:
                    continue
                message = _chunk_frame(
                    index,
                    units[index],
                    self._run_seq,
                    specs,
                    conn.specs_sent,
                    serve[index][0] if cached else None,
                )
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
                        f"remote executor has {len(units) - done} chunks "
                        f"pending but no workers connected to "
                        f"{self.endpoint} within {worker_timeout:.0f}s; "
                        f"start some with: repro worker {self.endpoint}"
                    )
            else:
                starving_since = None
            for conn, message in self._poll(0.05):
                kind = message.get("type")
                if kind in ("result", "cache-miss") and (
                    message.get("run") != self._run_seq
                ):
                    if inflight.get(conn.inflight) is conn:
                        self._drop(conn)  # out of protocol; its unit requeues
                    else:
                        # The late answer to a unit of an earlier run that
                        # raised: the worker is free, the answer void.
                        conn.inflight = None
                    continue
                if kind == "result":
                    index = message.get("id")
                    if index != conn.inflight:
                        self._drop(conn)
                        continue
                    try:
                        output = _decode_result(message, units[index])
                    except ProtocolError:
                        self._drop(conn)
                        continue
                    conn.inflight = None
                    conn.chunks_done += 1
                    inflight.pop(index, None)
                    if output.served:
                        self._worker_cache_row(conn)["served"] += 1
                    outputs[index] = output._replace(worker=conn.name)
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
                else:  # bye, or out of protocol
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


class LocalFleet:
    """``jobs`` forked :func:`serve_worker` processes on a private pool.

    The process executor's workers: the :class:`WorkerPool` listens on
    loopback and challenges every connection with a random secret of
    its own, and the workers have no store and no TLS.  Forking (as
    ``multiprocessing`` does on Linux) hands each worker the parent's
    scenario and backend registries as they are at the fork, so the
    session respawns the fleet when they grow.  :meth:`close` says
    ``bye`` and joins every worker.
    """

    def __init__(self, jobs: int) -> None:
        secret = os.urandom(16).hex()
        self.pool = WorkerPool(secret=secret, worker_timeout=LOCAL_WORKER_TIMEOUT)
        fork = multiprocessing.get_context("fork")
        self.processes = [
            fork.Process(target=self._serve, args=(f"local-{i}", secret), daemon=True)
            for i in range(1, jobs + 1)
        ]
        try:
            for process in self.processes:
                process.start()
        except BaseException:
            self.close()
            raise

    def _serve(self, name: str, secret: str) -> None:
        """A worker's body: drop the parent's listener, then serve."""
        endpoint = self.pool.endpoint
        self.pool._listener.close()
        serve_worker(endpoint, name=name, secret=secret)

    def pids(self) -> tuple[int, ...]:
        """The worker processes' PIDs, sorted."""
        return tuple(sorted(process.pid for process in self.processes))

    def alive(self) -> bool:
        """Whether every worker process is still running."""
        return all(process.is_alive() for process in self.processes)

    def run(self, units: list[WorkUnit]) -> list[UnitResult]:
        """:meth:`WorkerPool.run`, naming the local workers when all died."""
        try:
            return self.pool.run(units)
        except RuntimeError as exc:
            if self.pool.worker_count():
                raise
            codes = [process.exitcode for process in self.processes]
            raise RuntimeError(
                f"every local worker died (exit codes {codes}) with "
                f"{len(units)} units queued; the next call starts new ones"
            ) from exc

    def close(self) -> None:
        """Say ``bye``, stop listening and join every worker."""
        self.pool.close()
        for process in self.processes:
            if process.pid is None:
                continue  # never started
            process.join(timeout=LOCAL_WORKER_TIMEOUT)
            if process.is_alive():
                process.kill()
                process.join()
