"""Per-cell cost model driving the sweep scheduler.

Heterogeneous sweeps mix cells whose per-replicate cost spans orders of
magnitude (n from a few hundred to 10^6, serial reference kernels next
to vectorized lockstep ones).  The flattened work queue (PR 3) removed
the per-cell barrier, but its chunk granularity was still a *static*
per-cell split — every cell was cut into ``jobs * 4`` chunks no matter
whether one of its replicates takes microseconds or seconds — so mixed
grids left tail time on the table.  This module supplies the missing
piece: a small, calibrated, **online-refined** model of per-replicate
cost that lets the session

* order the flattened queue **longest-predicted-first** (big cells
  start immediately instead of queuing behind confetti), and
* size every chunk as a target **wall-time slice** rather than a fixed
  replicate count — big-n cells split finer, tiny cells coalesce into
  one chunk — bounding the tail a straggling chunk can add.

None of this can change results: replicate seeds are derived per cell
*before* chunking and scenario kernels are batch-width invariant.  The
scheduler therefore moves only wall time, never bits — the same
invariant the ensemble cache already relies on.

Model shape
-----------
Cost is tracked per **signature** — a coarse ``scenario:variant:n2^B``
key where ``B`` is the log2 bucket of the population size — as an EWMA
of measured seconds per replicate.  Coarse on purpose: scheduling only
needs cost *ordering* and slice sizes to within a factor of two, and a
coarse key lets one sweep's measurements warm every later cell of the
same family.  Cold signatures fall back to a calibrated seed table
(``coeff(scenario, variant) * n * log2(n)``, coefficients fitted from
the ``BENCH_engine.json`` / ``benchmarks/kernel_tune.py`` numbers — the
same offline knob tables that motivated making this adaptive).

The table round-trips through JSON (:meth:`CostModel.to_payload` /
:meth:`CostModel.from_payload`) and the session persists it next to the
ensemble cache (``costmodel.json``), so later sweeps — even in fresh
processes — start warm.  ``benchmarks/kernel_tune.py
--emit-cost-table`` writes the same format from its offline grid.
Older tables may also carry ``event_blocks`` / ``stream_buffers``
sections (per-signature kernel-knob timings); those sections are
ignored, and the tables' ``cells`` and ``workers`` entries still load.
"""

from __future__ import annotations

import math

__all__ = [
    "CostModel",
    "cost_signature",
    "COST_TABLE_FORMAT",
    "DEFAULT_TARGET_CHUNK_SECONDS",
]

#: Format tag of the persisted cost table; bumped on incompatible layout
#: changes, after which old tables are simply ignored (cold start).
COST_TABLE_FORMAT = 1

#: Wall-time slice each adaptive chunk aims for.  Small enough that a
#: straggling final chunk cannot idle the pool for long, large enough
#: that per-chunk dispatch overhead stays negligible next to the work.
DEFAULT_TARGET_CHUNK_SECONDS = 0.2

#: EWMA weight of a new observation (per replicate-weighted sample).
EWMA_ALPHA = 0.3

#: Chunks whose measured duration is below this are dominated by
#: dispatch noise; they still update the EWMA but with reduced weight.
_NOISE_FLOOR_SECONDS = 1e-4

#: Calibrated per-replicate cost coefficients, seconds per
#: ``n * log2(n)`` unit, keyed by ``(scenario, variant)``.  Fitted from
#: the checked-in ``BENCH_engine.json`` ablation (jump: 8 replicates of
#: n=10^4 k=5 in 15.3s; batched: 1000 in 26.5s; graph/gossip rows
#: likewise) — rough on purpose: the seed table only has to get the
#: cost *ordering* right on a cold start, after which measured chunk
#: times take over.
_SEED_COEFFS = {
    ("usd", "agents"): 1.0e-4,
    ("usd", "jump"): 1.4e-5,
    ("usd", "batched"): 2.0e-7,
    ("zealots", "reference"): 1.4e-5,
    ("zealots", "batched"): 3.0e-7,
    ("noise", "reference"): 1.4e-5,
    ("noise", "batched"): 2.0e-7,
    ("graph", "reference"): 6.0e-5,
    ("graph", "batched"): 9.0e-6,
    ("gossip", "reference"): 5.0e-7,
    ("gossip", "batched"): 1.5e-7,
    # Compiled (numba) tier: jitted lockstep/graph kernels clear the
    # numpy batch by a small factor on large n; gossip's compiled rules
    # only swap the round update, so they seed at the batched rate.
    # Without numba the compiled variant IS the batched kernel, and the
    # first measured chunks re-anchor the EWMA either way.
    ("usd", "compiled"): 1.0e-7,
    ("zealots", "compiled"): 1.5e-7,
    ("graph", "compiled"): 3.0e-6,
    ("gossip", "compiled"): 1.5e-7,
}

#: Fallback coefficient for unknown (scenario, variant) pairs; any
#: positive value preserves the big-cells-first ordering, which is what
#: a cold start actually needs.
_DEFAULT_COEFF = 1.4e-5


def _bucket(n: int) -> int:
    """log2 bucket of a population size (coarse signature component)."""
    return int(round(math.log2(max(int(n), 2))))


def cost_signature(scenario: str, variant: str, n: int) -> str:
    """Coarse scenario-family key the cost table is indexed by.

    ``(dynamics, variant, log-n bucket)`` — deliberately ignores k,
    bias and budget: those move per-replicate cost by small factors the
    EWMA absorbs, while dynamics/variant/n move it by orders of
    magnitude, which is what scheduling decisions hinge on.
    """
    return f"{scenario}:{variant}:n2^{_bucket(n)}"


def _seed_per_replicate(scenario: str, variant: str, n: int) -> float:
    coeff = _SEED_COEFFS.get((scenario, variant), _DEFAULT_COEFF)
    n = max(int(n), 2)
    return coeff * n * math.log2(n)


def _clean_table(table) -> dict[str, dict]:
    """The well-formed ``signature -> EWMA entry`` rows of a payload table."""
    clean: dict[str, dict] = {}
    if not isinstance(table, dict):
        return clean
    for signature, entry in table.items():
        try:
            seconds = float(entry["per_replicate_seconds"])
            samples = int(entry.get("samples", 1))
        except (KeyError, TypeError, ValueError):
            continue
        if seconds > 0 and samples > 0:
            clean[str(signature)] = {
                "per_replicate_seconds": seconds,
                "samples": samples,
            }
    return clean


class CostModel:
    """EWMA cost table behind the sweep scheduler.

    One instance lives on an :class:`~repro.engine.session.Engine` and
    is shared by every sweep of the session; when the session has an
    ensemble cache, the table is loaded from / saved to
    ``costmodel.json`` in the cache directory around each sweep.
    """

    def __init__(self) -> None:
        #: signature -> {"per_replicate_seconds": float, "samples": int}
        self._cells: dict[str, dict] = {}
        #: worker name -> {signature -> {"per_replicate_seconds": float,
        #:                               "samples": int}} — the remote
        #: executor's heterogeneity model (see :meth:`observe_worker`).
        self._workers: dict[str, dict[str, dict]] = {}

    # -- persistence ---------------------------------------------------
    @classmethod
    def from_payload(cls, payload: dict | None) -> "CostModel":
        """Rebuild a model from :meth:`to_payload` output.

        Anything malformed — wrong format tag, wrong types, negative
        numbers — degrades to a cold start for that entry rather than an
        error: the table is a performance hint, never a correctness
        input.
        """
        model = cls()
        if not isinstance(payload, dict):
            return model
        if payload.get("format") != COST_TABLE_FORMAT:
            return model
        model._cells = _clean_table(payload.get("cells"))
        workers = payload.get("workers")
        if isinstance(workers, dict):
            for worker, table in workers.items():
                clean_table = _clean_table(table)
                if clean_table:
                    model._workers[str(worker)] = clean_table
        return model

    def to_payload(self) -> dict:
        """JSON-able snapshot (the ``costmodel.json`` on-disk format)."""
        return {
            "format": COST_TABLE_FORMAT,
            "cells": {k: dict(v) for k, v in self._cells.items()},
            # Optional section: absent tables simply read as "no worker
            # history", so the format tag stays compatible.
            "workers": {
                worker: {sig: dict(e) for sig, e in table.items()}
                for worker, table in self._workers.items()
            },
        }

    # -- prediction ----------------------------------------------------
    def predict(self, scenario: str, variant: str, n: int) -> tuple[float, str]:
        """Predicted seconds per replicate and where the number came from.

        Returns ``(seconds, source)`` with ``source`` ``"observed"``
        when the signature has measured history and ``"seeded"`` on the
        calibrated cold-start fallback.
        """
        entry = self._cells.get(cost_signature(scenario, variant, n))
        if entry is not None:
            return entry["per_replicate_seconds"], "observed"
        return _seed_per_replicate(scenario, variant, n), "seeded"

    def predict_worker(
        self, worker: str, scenario: str, variant: str, n: int
    ) -> tuple[float, str]:
        """Predicted seconds per replicate on one named worker.

        Returns ``(seconds, source)`` with ``source`` ``"worker"`` when
        this worker has measured history for the signature; otherwise
        the per-family prediction (the cold-start prior) is returned
        unchanged — a fresh worker is assumed family-typical until its
        own chunks say otherwise.
        """
        entry = self._workers.get(str(worker), {}).get(
            cost_signature(scenario, variant, n)
        )
        if entry is not None:
            return entry["per_replicate_seconds"], "worker"
        return self.predict(scenario, variant, n)

    def predict_for_workers(
        self, scenario: str, variant: str, n: int, workers
    ) -> float | None:
        """Slowest per-replicate prediction across ``workers`` (or ``None``).

        The remote scheduler sizes chunks against the *slowest* attached
        worker so a wall-time-targeted slice stays a bounded tail even
        when a chunk is stolen by heterogeneous hardware.
        """
        estimates = [
            self.predict_worker(worker, scenario, variant, n)[0]
            for worker in workers
        ]
        return max(estimates) if estimates else None

    def chunk_size(
        self,
        per_replicate_seconds: float,
        trials: int,
        batch_size: int,
        *,
        target_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS,
    ) -> int:
        """Replicates per chunk so one chunk ≈ ``target_seconds`` of wall time.

        Expensive cells split down to single-replicate chunks (the tail
        a straggler can add is then one replicate, the irreducible
        floor); cheap cells coalesce up to ``batch_size`` replicates so
        vectorized kernels keep their batch width and per-chunk dispatch
        overhead stays amortized.
        """
        per_replicate_seconds = max(float(per_replicate_seconds), 1e-9)
        slice_size = int(target_seconds / per_replicate_seconds)
        return max(1, min(int(batch_size), int(trials), slice_size))

    # -- online refinement ---------------------------------------------
    def observe(self, signature: str, replicates: int, seconds: float) -> None:
        """Fold one measured chunk into the signature's EWMA."""
        replicates = int(replicates)
        if replicates < 1 or seconds < 0:
            return
        per_replicate = seconds / replicates
        entry = self._cells.get(signature)
        if entry is None:
            self._cells[signature] = {
                "per_replicate_seconds": max(per_replicate, 1e-9),
                "samples": 1,
            }
            return
        # Sub-noise-floor chunks still count, but lightly: their
        # duration is mostly dispatch jitter, not kernel time.
        alpha = EWMA_ALPHA if seconds >= _NOISE_FLOOR_SECONDS else EWMA_ALPHA / 4
        entry["per_replicate_seconds"] = max(
            (1 - alpha) * entry["per_replicate_seconds"] + alpha * per_replicate,
            1e-9,
        )
        entry["samples"] += 1

    def observe_worker(
        self, worker: str, signature: str, replicates: int, seconds: float
    ) -> None:
        """Fold one measured chunk into the ``(worker, signature)`` EWMA.

        A worker's first observation for a signature starts from the
        per-family EWMA when one exists (the cold-start prior the
        satellite heterogeneity model is anchored to), so a single noisy
        chunk cannot swing a fresh worker's estimate by orders of
        magnitude.
        """
        replicates = int(replicates)
        if replicates < 1 or seconds < 0:
            return
        per_replicate = seconds / replicates
        table = self._workers.setdefault(str(worker), {})
        entry = table.get(signature)
        if entry is None:
            prior = self._cells.get(signature)
            if prior is None:
                table[signature] = {
                    "per_replicate_seconds": max(per_replicate, 1e-9),
                    "samples": 1,
                }
                return
            entry = {
                "per_replicate_seconds": prior["per_replicate_seconds"],
                "samples": 0,
            }
            table[signature] = entry
        alpha = EWMA_ALPHA if seconds >= _NOISE_FLOOR_SECONDS else EWMA_ALPHA / 4
        entry["per_replicate_seconds"] = max(
            (1 - alpha) * entry["per_replicate_seconds"] + alpha * per_replicate,
            1e-9,
        )
        entry["samples"] += 1

    # -- diagnostics ---------------------------------------------------
    def summary(self) -> dict:
        """Small snapshot for ``Engine.stats()``."""
        return {
            "signatures": len(self._cells),
            "workers": {
                worker: len(table) for worker, table in self._workers.items()
            },
        }
