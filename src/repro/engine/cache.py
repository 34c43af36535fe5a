"""Content-addressed on-disk cache for ensemble results.

An ensemble is a pure function of ``(spec, trials, seed, variant,
max_interactions)`` — the engine's determinism contract guarantees the
executor, worker count and batch size cannot change the results — so a
finished ensemble can be stored once and replayed from disk.  The cache
key is the SHA-256 of exactly those inputs (``spec.key()`` already
content-hashes the scenario name, its parameters and the initial
configuration), so across branches and backends a stale entry cannot be
*wrong*, only absent.

An entry is one frame of the worker socket's format
(:mod:`repro.engine.codec`), named by its key under a flat directory:
a JSON header naming the ensemble (the spec as
:meth:`~repro.engine.scenarios.ScenarioSpec.to_json`, variant, trials,
seed token, budget and the SHA-256 of the body) and the cell's record
block as the body.  The same bytes travel as a ``cache-push`` frame, so
a worker that receives one checks it exactly as :meth:`EnsembleCache.load`
checks a file (:func:`read_entry`) and writes it unchanged.  A cell
whose scenario has no record codec for its variant is never stored.
An entry that is not exactly one frame, whose header does not derive
its file name, or whose body has the wrong size or digest is a miss
(and is removed on a best-effort basis), so a torn write or a foreign
file degrades to a recompute, never to an error.  Enable caching per
call (``run_ensemble(..., cache=True)``), per session
(``Engine(cache=True)`` / the CLI's ``--cache`` flag) or per
environment (``REPRO_ENGINE_CACHE=1``); the directory defaults to
``.repro-cache`` and follows ``Engine(cache_dir=...)`` /
``REPRO_ENGINE_CACHE_DIR``.  A session holds ONE open ``EnsembleCache``
handle shared by all its ensembles and sweeps, so hit/miss counters
aggregate per session (``Engine.stats()``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import (
    ProtocolError,
    _decoding,
    block_bytes,
    cell_codec,
    decode_cell_block,
    decode_frame,
    decode_spec,
    encode_frame,
    encode_result_block,
)
from .scenarios import ScenarioSpec

__all__ = [
    "Entry",
    "EnsembleCache",
    "encode_entry",
    "ensemble_key",
    "read_entry",
    "seed_from_token",
    "seed_token",
]

#: Bumped whenever the on-disk format or the engine's sampling changes
#: incompatibly; old entries then simply miss.  Format 2: the multi-event
#: lockstep kernel resampled the batched USD/zealot event choice (same
#: distribution, different float path), so format-1 "batched" entries no
#: longer match freshly computed ensembles.  Format 3: batched
#: three-majority gossip switched to schedule-ordered draws (now
#: bit-identical to the serial rule; same distribution, different
#: trajectories), so format-2 "batched" gossip entries no longer match.
CACHE_FORMAT = 3

#: Format tag for sweep-level index entries (``*.sweep.json``); bumped
#: independently of the ensemble entry format.
SWEEP_INDEX_FORMAT = 1

#: Suffix of an entry file.  Entries of the pickle era (``*.pkl``) are
#: never read; :meth:`EnsembleCache.clear` and eviction still remove them.
ENTRY_SUFFIX = ".entry"

#: File patterns eviction and :meth:`EnsembleCache.clear` remove.
_STORED = ("*" + ENTRY_SUFFIX, "*.sweep.json", "*.pkl")

#: An entry key is one plain file-name component, so no key can name a
#: file outside the store (``../x``, ``a/b``, an absolute path).
_KEY_SHAPE = re.compile(r"[A-Za-z0-9_-]+")


def _entry_name(key, suffix: str) -> str:
    if not isinstance(key, str) or _KEY_SHAPE.fullmatch(key) is None:
        raise ValueError(f"cache key must match [A-Za-z0-9_-]+, got {key!r}")
    return key + suffix


def seed_token(seed):
    """Canonical JSON-able identity of an ensemble seed.

    Plain integers stay integers (so keys minted before ``SeedSequence``
    seeds existed are unchanged); a ``SeedSequence`` is identified by its
    entropy and spawn key — the exact values that determine every child
    it will ever spawn — never by its mutable spawn counter.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if isinstance(entropy, (list, tuple)):
            entropy = [int(e) for e in entropy]
        elif entropy is not None:
            entropy = int(entropy)
        return {"entropy": entropy, "spawn_key": [int(k) for k in seed.spawn_key]}
    return int(seed)


def seed_from_token(token) -> np.random.SeedSequence:
    """The ``SeedSequence`` whose :func:`seed_token` is ``token``.

    Its children, and so every generator built from it, are the
    original's.  Raises ``ValueError`` unless ``token`` is the
    ``{"entropy", "spawn_key"}`` object with integer values.
    """

    def integers(values) -> bool:
        return isinstance(values, list) and all(type(v) is int for v in values)

    if not (
        isinstance(token, dict)
        and set(token) == {"entropy", "spawn_key"}
        and (type(token["entropy"]) is int or integers(token["entropy"]))
        and integers(token["spawn_key"])
    ):
        raise ValueError("a seed token is {'entropy': ints, 'spawn_key': ints}")
    return np.random.SeedSequence(token["entropy"], spawn_key=token["spawn_key"])


def ensemble_key(
    spec,
    *,
    trials: int,
    seed,
    variant: str,
    max_interactions: int | None,
) -> str:
    """Stable hex digest identifying one ensemble computation."""
    payload = {
        "format": CACHE_FORMAT,
        "spec": spec.key(),
        "trials": int(trials),
        "seed": seed_token(seed),
        "variant": str(variant),
        "max_interactions": max_interactions,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Entry(NamedTuple):
    """One checked cache entry: the ensemble it names and its record block."""

    spec: ScenarioSpec
    variant: str
    trials: int
    block: bytes

    def results(self) -> list:
        """The entry's result list, decoded from its record block."""
        return decode_cell_block(self.spec, self.variant, self.block, self.trials)


#: Every field of an entry frame and its declared JSON type (``block``
#: is the body; a bool is no integer).
_ENTRY = {
    "type": str,
    "key": str,
    "spec": dict,
    "variant": str,
    "trials": int,
    "seed": (int, dict),
    "max_interactions": (int, type(None)),
    "sha256": str,
    "block": bytes,
}


def encode_entry(
    key: str, spec, variant: str, seed, max_interactions, results: list
) -> bytes | None:
    """The entry frame of the ensemble ``key`` names, holding ``results``.

    ``None`` when the cell has no record codec for ``variant`` or its
    frame would exceed the frame cap: such cells are not stored.
    """
    try:
        scenario, widths = cell_codec(spec, variant)
    except ValueError:
        return None
    block = encode_result_block(scenario, spec, results, *widths)
    try:
        return encode_frame(
            {
                "type": "cache-push",
                "key": key,
                "spec": spec.to_json(),
                "variant": variant,
                "trials": len(results),
                "seed": seed_token(seed),
                "max_interactions": max_interactions,
                "sha256": hashlib.sha256(block).hexdigest(),
                "block": block,
            }
        )
    except ProtocolError:
        return None


def read_entry(message: dict, key: str, spec=None) -> Entry:
    """The :class:`Entry` an entry frame's ``message`` holds under ``key``.

    The frame must hold exactly the fields :func:`encode_entry` writes,
    each of its declared type, and its header must re-derive ``key``
    through :func:`ensemble_key`; the body must be exactly the record
    block its size and digest name.  Anything else raises
    :class:`~repro.engine.codec.ProtocolError`.  A caller that holds the
    cell's ``spec`` has the key derived from it, and the header's spec
    is not decoded.
    """
    if not (
        set(message) == set(_ENTRY)
        and all(
            isinstance(message[name], kind) and not isinstance(message[name], bool)
            for name, kind in _ENTRY.items()
        )
        and (message["type"], message["key"]) == ("cache-push", key)
        and message["trials"] >= 1
    ):
        raise ProtocolError(f"not a cache entry named {key!r}")
    variant, trials, token = message["variant"], message["trials"], message["seed"]
    with _decoding("entry header"):
        seed = token if isinstance(token, int) else seed_from_token(token)
        spec = decode_spec(message["spec"]) if spec is None else spec
        _, widths = cell_codec(spec, variant)
    derived = ensemble_key(
        spec,
        trials=trials,
        seed=seed,
        variant=variant,
        max_interactions=message["max_interactions"],
    )
    if derived != key:
        raise ProtocolError(f"entry header derives key {derived}, not {key}")
    block = message["block"]
    if (
        len(block) != block_bytes(trials, *widths)
        or hashlib.sha256(block).hexdigest() != message["sha256"]
    ):
        raise ProtocolError("entry body does not match its size and digest")
    return Entry(spec, variant, trials, block)


def _load_json(path: Path) -> dict | None:
    """The JSON object in ``path``, or ``None`` when absent or not one."""
    try:
        payload = json.loads(path.read_bytes())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all (temp file, rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class EnsembleCache:
    """Flat-directory store of ensemble entry frames.

    Tracks ``hits`` and ``misses`` so callers (the CLI, tests) can
    report whether an invocation was served from disk.  When
    ``max_bytes`` is positive (a session passes its ``cache_max_bytes``
    option, which ``REPRO_ENGINE_CACHE_MAX_BYTES`` sets) the store
    enforces a size cap with LRU eviction: every hit refreshes the
    entry's mtime, and a store that pushes the directory over the cap
    deletes the stalest entries first.  ``None`` (the default) means no
    cap.
    """

    def __init__(
        self, root: str | os.PathLike, *, max_bytes: int | None = None
    ) -> None:
        self.root = Path(root)
        self.max_bytes = int(max_bytes) if max_bytes and max_bytes > 0 else None
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _path(self, key: str) -> Path:
        return self.root / _entry_name(key, ENTRY_SUFFIX)

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk (does not validate it).

        A key that is not one plain file-name component never exists.
        """
        try:
            return self._path(key).exists()
        except ValueError:
            return False

    def load(self, key: str, spec=None):
        """Return the cached result list, or ``None`` on miss/corruption.

        ``spec``, when the caller holds the cell's spec, is what the
        entry is checked against (see :func:`read_entry`); without it
        the header's spec is decoded.  A key that is not one plain
        file-name component is a miss.  Nothing raises.
        """
        return self._read(key, spec, Entry.results)

    def entry(self, key: str, spec) -> Entry | None:
        """The checked :class:`Entry` under ``key`` (block undecoded), or ``None``."""
        return self._read(key, spec, lambda entry: entry)

    def _read(self, key: str, spec, finish):
        path = None
        try:
            path = self._path(key)
            value = finish(read_entry(decode_frame(path.read_bytes()), key, spec))
        except Exception:
            self.misses += 1
            if path is not None:
                # A torn write or foreign file: drop it so the
                # recomputed ensemble can take its place.
                with contextlib.suppress(OSError):
                    path.unlink()
            return None
        self.hits += 1
        with contextlib.suppress(OSError):
            os.utime(path, None)  # recency: LRU eviction spares live entries
        return value

    def store(self, key: str, entry: bytes) -> None:
        """Persist an entry frame atomically (write-to-temp, then rename).

        ``entry`` is :func:`encode_entry` bytes, or a pushed frame that
        :func:`read_entry` accepted under ``key``.  Raises
        ``ValueError``, writing nothing, when the key is not one plain
        file-name component (``[A-Za-z0-9_-]+``).
        """
        path = self._path(key)
        _write_atomic(path, entry)
        self._evict(keep=path.name)

    def _files(self, patterns=_STORED):
        """``(path, stat)`` of every file of the store matching ``patterns``."""
        for pattern in patterns:
            for path in self.root.glob(pattern):
                try:
                    yield path, path.stat()
                except OSError:
                    continue

    def _evict(self, keep: str) -> None:
        """Enforce ``max_bytes`` by deleting least-recently-used entries.

        The file named by ``keep`` (the one just written) is never
        evicted, so a single oversized ensemble degrades to "cache holds
        one entry" rather than "cache thrashes on itself".
        """
        if self.max_bytes is None:
            return
        files = sorted(self._files(), key=lambda item: item[1].st_mtime)
        total = sum(stat.st_size for _, stat in files)
        for path, stat in files:
            if total <= self.max_bytes:
                break
            if path.name == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            self.evictions += 1

    # -- sweep-level index --------------------------------------------
    def sweep_index_key(self, sweep_key: str, seeds, variants) -> str:
        """Key for one sweep invocation's index entry.

        Combines the sweep spec's content hash with the per-cell seeds
        and resolved variants — the same inputs whose change would remap
        the underlying ensemble entries.
        """
        payload = {
            "format": SWEEP_INDEX_FORMAT,
            "sweep": str(sweep_key),
            "seeds": [seed_token(s) for s in seeds],
            "variants": [str(v) for v in variants],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _sweep_path(self, key: str) -> Path:
        return self.root / _entry_name(key, ".sweep.json")

    def store_sweep_index(self, key: str, payload: dict) -> None:
        """Persist a sweep's cell-key index atomically (JSON).

        Raises ``ValueError`` on a key :meth:`store` would refuse.
        """
        path = self._sweep_path(key)
        _write_atomic(path, json.dumps(payload, sort_keys=True).encode("utf-8"))
        # Indexes count toward the size cap like any other entry (they
        # are regenerated by the next run_sweep, so evicting one only
        # costs metadata, never results).
        self._evict(keep=path.name)

    def load_sweep_index(self, key: str) -> dict | None:
        """Return a sweep's index payload, or ``None`` on miss/corruption."""
        try:
            return _load_json(self._sweep_path(key))
        except ValueError:  # not a key
            return None

    def sweep_status(self) -> list[dict]:
        """Per-sweep resume state: cells complete vs missing, per index.

        Walks every ``*.sweep.json`` index in the store and checks which
        of its per-cell ensemble entries still exist on disk, so an
        interrupted sweep (or one whose cells were LRU-evicted) is
        visible *before* re-running it: ``missing == 0`` means the next
        identical ``run_sweep`` replays entirely from disk, anything
        else recomputes exactly the missing cells.  Corrupt indexes are
        reported with ``cells=None`` rather than skipped silently.
        """
        status = []
        for path in sorted(self.root.glob("*.sweep.json")):
            key = path.name[: -len(".sweep.json")]
            payload = _load_json(path)
            if payload is None or not isinstance(payload.get("cells"), list):
                status.append(
                    {"key": key, "cells": None, "complete": 0, "missing": 0}
                )
                continue
            cells = payload["cells"]
            # A cell key that is not a string is no entry (see contains).
            complete = sum(1 for cell_key in cells if self.contains(cell_key))
            status.append(
                {
                    "key": key,
                    "cells": len(cells),
                    "complete": complete,
                    "missing": len(cells) - complete,
                }
            )
        return status

    # -- scheduler cost table -----------------------------------------
    @property
    def cost_table_path(self) -> Path:
        """Where the sweep scheduler's cost model persists its table.

        A single well-known file (not content-addressed): the table is a
        performance hint shared by *every* sweep against this store, and
        its name is outside the entry and ``*.sweep.json`` globs so
        LRU eviction never discards it.
        """
        return self.root / "costmodel.json"

    def store_cost_table(self, payload: dict) -> None:
        """Persist the scheduler cost table atomically (JSON)."""
        _write_atomic(
            self.cost_table_path, json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    def load_cost_table(self) -> dict | None:
        """Return the persisted cost table, or ``None`` on miss/corruption."""
        return _load_json(self.cost_table_path)

    # -- maintenance ---------------------------------------------------
    def stats(self) -> dict:
        """Directory snapshot for ``repro cache stats`` and diagnostics."""
        entries = [stat.st_size for _, stat in self._files(_STORED[:1])]
        indexes = [stat.st_size for _, stat in self._files(_STORED[1:2])]
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(entries) + sum(indexes),
            "sweep_indexes": len(indexes),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Delete every entry and sweep index; returns the number removed.

        Entries of the pickle era (``*.pkl``) go too.
        """
        removed = 0
        for path, _ in self._files():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed
