"""The one result format: frames and fixed-width record blocks.

A finished cell has one representation, on a socket or on a disk.  The
worker socket (:mod:`repro.engine.remote`) sends every message as a
*frame*, and the ensemble cache (:mod:`repro.engine.cache`) stores every
entry as one::

    +----------+-------------+-------------+-------------+------------+
    | magic(4) | hlen(4, BE) | blen(4, BE) | JSON header | body bytes |
    +----------+-------------+-------------+-------------+------------+

The header is a UTF-8 JSON object with a string ``type``; a body holding
results is a *record block*: per replicate, ``int_width`` ``int64`` slots
then ``float_width`` ``float64`` slots, laid out as an ints plane followed
by a floats plane.  Both widths come from the cell (:func:`cell_codec`),
never from the bytes, so a block's size is fixed by what it claims to
hold.  Only JSON and raw bytes are parsed here; anything malformed is a
:class:`ProtocolError`.
"""

from __future__ import annotations

import contextlib
import json
import struct

import numpy as np

from .scenarios import ScenarioSpec, get_scenario

__all__ = [
    "FRAME_MAGIC",
    "FrameDecoder",
    "MAX_FRAME",
    "ProtocolError",
    "cell_codec",
    "decode_cell_block",
    "decode_frame",
    "decode_result_block",
    "decode_spec",
    "encode_frame",
    "encode_result_block",
]

#: First four bytes of every frame.
FRAME_MAGIC = b"RPRW"

#: Upper bound on one frame's header plus body: room for a 10^6-edge
#: graph spec or a 10^5-replicate record block, not for terabytes.
MAX_FRAME = 256 * 1024 * 1024

#: Magic, header length and body length.
_PREFIX = struct.Struct(">4sII")


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message."""


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


class FrameDecoder:
    """The one frame parser: incremental, for blocking and polled reads.

    Feed raw bytes, get complete messages back; partial frames wait in
    the buffer.  A wrong magic, a header plus body longer than
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


def decode_frame(data: bytes) -> dict:
    """The one message ``data`` holds, exactly one whole frame."""
    decoder = FrameDecoder()
    messages = decoder.feed(data)
    if len(messages) != 1 or decoder.pending_bytes:
        raise ProtocolError(f"{len(data)} bytes are not exactly one frame")
    return messages[0]


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


def decode_spec(payload) -> ScenarioSpec:
    """A peer's JSON spec object, checked by its scenario's ``validate``."""
    if not isinstance(payload, dict):
        raise ProtocolError("spec must be a JSON spec object")
    with _decoding("spec"):
        spec = ScenarioSpec.from_json(payload)
        get_scenario(spec.scenario).validate(spec)
    return spec


# ----------------------------------------------------------------------
# Fixed-width record blocks
# ----------------------------------------------------------------------
def cell_codec(spec: ScenarioSpec, variant: str) -> tuple:
    """``(scenario, (int_width, float_width))`` of a cell's record blocks.

    Results leave the session's process and enter the cache only as
    record blocks, and every reader derives the widths from the cell; a
    cell whose scenario has no record codec for ``variant`` (its
    ``record_transport_for``, else its ``record_transport``, says no)
    raises ``ValueError`` naming both.  The process and remote executors
    check every pending cell here before they start or send anything.
    """
    scenario = get_scenario(spec.scenario)
    transport_ok = getattr(scenario, "record_transport_for", None)
    if not (
        transport_ok(variant)
        if transport_ok is not None
        else getattr(scenario, "record_transport", False)
    ):
        raise ValueError(
            f"scenario {spec.scenario!r} has no record codec for variant "
            f"{variant!r}, and workers return results only as record "
            "blocks; run it on the serial executor"
        )
    widths = int(scenario.record_ints(spec)), int(getattr(scenario, "record_floats", 0))
    return scenario, widths


def _record_views(buffer, trials: int, int_width: int, float_width: int):
    """(trials, int_width) int64 + (trials, float_width) float64 views."""
    int_bytes = trials * int_width * 8
    ints = np.ndarray((trials, int_width), dtype=np.int64, buffer=buffer)
    floats = np.ndarray(
        (trials, float_width), dtype=np.float64, buffer=buffer, offset=int_bytes
    )
    return ints, floats


def block_bytes(trials: int, int_width: int, float_width: int) -> int:
    """Size of one record block (never empty, so every block is a body)."""
    return max(trials * 8 * (int_width + float_width), 1)


def encode_result_block(
    scenario, spec, results: list, int_width: int, float_width: int
) -> bytes:
    """Results -> one contiguous record block (ints plane, floats plane)."""
    trials = len(results)
    buffer = bytearray(block_bytes(trials, int_width, float_width))
    ints, floats = _record_views(buffer, trials, int_width, float_width)
    for row, result in enumerate(results):
        scenario.encode_record(spec, result, ints[row], floats[row])
    return bytes(buffer)


def decode_result_block(
    scenario, spec, block: bytes, trials: int, int_width: int, float_width: int
) -> list:
    """Inverse of :func:`encode_result_block`; raises only ProtocolError."""
    expected = block_bytes(trials, int_width, float_width)
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


def decode_cell_block(spec, variant: str, block: bytes, trials: int) -> list:
    """A cell's ``trials`` results from its record block (widths from the cell)."""
    scenario, widths = cell_codec(spec, variant)
    return decode_result_block(scenario, spec, block, trials, *widths)
