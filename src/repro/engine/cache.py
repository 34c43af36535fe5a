"""Content-addressed on-disk cache for ensemble results.

An ensemble is a pure function of ``(spec, trials, seed, variant,
max_interactions)`` — the engine's determinism contract guarantees the
executor, worker count and batch size cannot change the results — so a
finished ensemble can be stored once and replayed from disk.  The cache
key is the SHA-256 of exactly those inputs (``spec.key()`` already
content-hashes the scenario name, its parameters and the initial
configuration), so across branches and backends a stale entry cannot be
*wrong*, only absent.

Entries are pickle files named by their key under a flat directory.
Because loading a pickle executes code, the cache directory must be
**trusted** — point it only at locations written by your own runs, and
do not consume cache directories from untrusted sources (a crafted
entry runs arbitrary code at load time).  Corrupt or unreadable entries
are treated as misses (and removed on a best-effort basis) so a torn
write degrades to a recompute, never to an error.  Enable caching per
call (``run_ensemble(..., cache=True)``), per session
(``Engine(cache=True)`` / the CLI's ``--cache`` flag) or per
environment (``REPRO_ENGINE_CACHE=1``); the directory defaults to
``.repro-cache`` and follows ``Engine(cache_dir=...)`` /
``REPRO_ENGINE_CACHE_DIR``.  A session holds ONE open ``EnsembleCache``
handle shared by all its ensembles and sweeps, so hit/miss counters
aggregate per session (``Engine.stats()``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
from pathlib import Path

import numpy as np


__all__ = ["EnsembleCache", "ensemble_key", "seed_from_token", "seed_token"]

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


class EnsembleCache:
    """Flat-directory pickle store for ensemble result lists.

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

    def key_for(
        self,
        spec,
        *,
        trials: int,
        seed: int,
        variant: str,
        max_interactions: int | None = None,
    ) -> str:
        """Key for one ensemble; see :func:`ensemble_key`."""
        return ensemble_key(
            spec,
            trials=trials,
            seed=seed,
            variant=variant,
            max_interactions=max_interactions,
        )

    def _path(self, key: str) -> Path:
        return self.root / _entry_name(key, ".pkl")

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk (does not validate it).

        A key that is not one plain file-name component never exists.
        """
        try:
            return self._path(key).exists()
        except ValueError:
            return False

    def load(self, key: str):
        """Return the cached result list, or ``None`` on miss/corruption.

        A key that is not one plain file-name component is a miss.
        """
        try:
            path = self._path(key)
        except ValueError:
            self.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                results = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # A torn write or foreign file is a miss, not an error; drop
            # it so the recomputed ensemble can take its place.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(results, list):
            self.misses += 1
            return None
        self.hits += 1
        try:
            # Refresh recency so LRU eviction spares live entries.
            os.utime(path, None)
        except OSError:
            pass
        return results

    def store(self, key: str, results: list) -> None:
        """Persist a result list atomically (write-to-temp, then rename).

        Raises ``ValueError``, writing nothing, when the key is not one
        plain file-name component (``[A-Za-z0-9_-]+``).
        """
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(results, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._evict(keep=f"{key}.pkl")

    def _evict(self, keep: str | None = None) -> int:
        """Enforce ``max_bytes`` by deleting least-recently-used entries.

        The file named by ``keep`` (the one just written) is never
        evicted, so a single oversized ensemble degrades to "cache holds
        one entry" rather than "cache thrashes on itself".
        """
        if self.max_bytes is None:
            return 0
        entries = []
        total = 0
        for pattern in ("*.pkl", "*.sweep.json"):
            for path in self.root.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        removed = 0
        entries.sort(key=lambda item: item[0])
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and path.name == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            self.evictions += 1
        return removed

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
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        # Indexes count toward the size cap like any other entry (they
        # are regenerated by the next run_sweep, so evicting one only
        # costs metadata, never results).
        self._evict(keep=f"{key}.sweep.json")

    def load_sweep_index(self, key: str) -> dict | None:
        """Return a sweep's index payload, or ``None`` on miss/corruption."""
        try:
            with open(self._sweep_path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

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
        if not self.root.is_dir():
            return status
        for path in sorted(self.root.glob("*.sweep.json")):
            key = path.name[: -len(".sweep.json")]
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = None
            if not isinstance(payload, dict) or not isinstance(
                payload.get("cells"), list
            ):
                status.append(
                    {"key": key, "cells": None, "complete": 0, "missing": 0}
                )
                continue
            cells = payload["cells"]
            complete = sum(
                1
                for cell_key in cells
                if isinstance(cell_key, str) and self.contains(cell_key)
            )
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
        its name is outside the ``*.pkl`` / ``*.sweep.json`` globs so
        LRU eviction never discards it.
        """
        return self.root / "costmodel.json"

    def store_cost_table(self, payload: dict) -> None:
        """Persist the scheduler cost table atomically (JSON)."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(tmp, self.cost_table_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_cost_table(self) -> dict | None:
        """Return the persisted cost table, or ``None`` on miss/corruption."""
        try:
            with open(self.cost_table_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    # -- maintenance ---------------------------------------------------
    def stats(self) -> dict:
        """Directory snapshot for ``repro cache stats`` and diagnostics."""
        entries = 0
        total_bytes = 0
        sweep_indexes = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            for path in self.root.glob("*.sweep.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                sweep_indexes += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "sweep_indexes": sweep_indexes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def clear(self) -> int:
        """Delete every entry and sweep index; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.pkl", "*.sweep.json"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
