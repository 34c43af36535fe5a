"""Compiled multi-event lockstep kernel (the ``"compiled"`` USD/zealot tier).

Scalar re-expression of :func:`repro.core.lockstep.lockstep_batch`: one
jitted pass advances every active replicate by up to ``event_block``
productive events, replicate-parallel via ``prange``.  The numpy tier's
vectorized block body masks dead replicates and compacts the batch; the
scalar kernel instead carries a per-replicate ``status`` flag and simply
skips retired rows — no masking, no compaction, no scratch reallocation.

Bit-identity with the numpy tier
--------------------------------
The driver reproduces the numpy tier's randomness handling *exactly*:
the same per-replicate comb buffers (two uniforms per event, even slots
pre-transformed to ``log1p(-U)`` by the same ``np.log1p`` array call),
the same leftover-shifting refill schedule (refill when
``cursor + 2 * block > buffer``, redrawing exactly the consumed prefix),
the same buffer sizing.  Inside the kernel every weight, cumulative sum
and comparison is arithmetic on integer-valued float64 with magnitudes
below ``n^2 <= 2^53``, hence exact in any evaluation order — so the
scalar cumulative loop reproduces the numpy tier's BLAS matmul
bit-for-bit.  The single remaining channel is the per-event
``log1p(W / -n^2)``: libm (``math.log1p``, what numba compiles) versus
numpy's array ``log1p``.  :data:`repro.kernels.LOG1P_BITWISE` probes
whether they agree on this host; when they do, trajectories are
bit-identical, otherwise they may diverge by one geometric skip and are
validated distributionally (same gate as three-majority gossip).

Without numba, :func:`lockstep_batch_compiled` transparently falls back
to the numpy kernel; the scalar kernel itself remains callable as plain
Python (``_force_kernel=True``) so the no-numba test leg still executes
it line-for-line on tiny workloads.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.lockstep import DEFAULT_EVENT_BLOCK, DEFAULT_STREAM_BUFFER, lockstep_batch
from . import HAVE_NUMBA, njit, prange

__all__ = ["lockstep_batch_compiled"]


def _lockstep_block(
    counts, interactions, comb, cursor, status, zf, nf, neg_n_sq, budget, block
):
    """Advance every active replicate by up to ``block`` productive events.

    ``counts`` is ``(R, k + 1)`` float64 (integer-valued), ``comb`` the
    ``(R, buffer)`` pre-drawn uniform buffers (even slots already
    ``log1p(-U)``), ``status`` 0 = active, 1 = absorbed, 2 = budget
    exhausted.  A retiring replicate freezes mid-block exactly like the
    numpy tier's masked columns: the failing event consumes no uniforms
    and leaves ``interactions`` at the last applied value.
    """
    R, kp1 = counts.shape
    k = kp1 - 1
    for r in prange(R):
        if status[r] != 0:
            continue
        pos = cursor[r]
        ac = 0
        inter = interactions[r]
        cum = np.empty(2 * k)
        for _ in range(block):
            u = counts[r, 0]
            total = 0.0
            for i in range(k):
                vis = counts[r, 1 + i] + zf[i]
                total += u * vis
                cum[i] = total
            dt = nf - u
            for i in range(k):
                x = counts[r, 1 + i]
                total += x * (dt - (x + zf[i]))
                cum[k + i] = total
            if total == 0.0:
                status[r] = 1
                break
            skip_l = comb[r, pos + 2 * ac]
            event_u = comb[r, pos + 2 * ac + 1]
            p = math.log1p(total / neg_n_sq)
            wt = math.floor(skip_l / p) + 1.0
            tn = inter + wt
            if not (tn <= budget):
                status[r] = 2
                break
            inter = tn
            ac += 1
            v = event_u * total
            idx = 0
            for i in range(2 * k):
                if cum[i] <= v:
                    idx += 1
            if idx > 2 * k - 1:
                idx = 2 * k - 1
            if idx < k:
                counts[r, 0] = u - 1.0
                counts[r, 1 + idx] += 1.0
            else:
                counts[r, 0] = u + 1.0
                counts[r, 1 + idx - k] -= 1.0
        interactions[r] = inter
        cursor[r] = pos + 2 * ac


if HAVE_NUMBA:  # pragma: no cover - exercised on the numba CI leg
    _lockstep_block = njit(cache=True, parallel=True)(_lockstep_block)


def lockstep_batch_compiled(
    initial_counts,
    zealots,
    n: int,
    *,
    rngs: list,
    max_interactions: int,
    event_block: int = DEFAULT_EVENT_BLOCK,
    stream_buffer: int = DEFAULT_STREAM_BUFFER,
    _force_kernel: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compiled-tier :func:`~repro.core.lockstep.lockstep_batch`.

    Same signature, same return contract, same per-replicate randomness.
    Without numba this delegates to the numpy kernel unless
    ``_force_kernel`` is set (the test suite forces the pure-Python
    kernel body on tiny workloads to check bit-identity everywhere).
    """
    if not HAVE_NUMBA and not _force_kernel:
        return lockstep_batch(
            initial_counts,
            zealots,
            n,
            rngs=rngs,
            max_interactions=max_interactions,
            event_block=event_block,
            stream_buffer=stream_buffer,
        )
    counts0 = np.asarray(initial_counts, dtype=np.int64)
    k = counts0.shape[0] - 1
    z = np.asarray(zealots, dtype=np.int64)
    replicates = len(rngs)
    if replicates == 0:
        empty = np.empty((0, k + 1), dtype=np.int64)
        return empty, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    block = int(event_block)
    if block < 1:
        raise ValueError(f"event_block must be positive, got {block}")
    buffer = max(int(stream_buffer), 2 * block)
    if buffer % 2:
        buffer += 1
    if max_interactions >= 2**53:
        raise ValueError(
            f"max_interactions must stay below 2^53 (exact float64 range), "
            f"got {max_interactions}"
        )
    neg_n_sq = -float(n) * float(n)
    budget = float(max_interactions)
    zf = z.astype(np.float64)

    counts = np.repeat(counts0.astype(np.float64)[None, :], replicates, axis=0)
    interactions = np.zeros(replicates, dtype=np.float64)
    comb = np.empty((replicates, buffer), dtype=np.float64)
    cursor = np.full(replicates, buffer, dtype=np.int64)
    status = np.zeros(replicates, dtype=np.int64)

    active = np.arange(replicates)
    while active.size:
        # Refill exactly like the numpy tier: leftover uniforms shift to
        # the front, only the consumed prefix is redrawn (from the
        # replicate's own generator), even slots pre-transformed by the
        # same np.log1p array call — so the consumed sequence per
        # replicate is identical to lockstep_batch's.
        need = active[cursor[active] + 2 * block > buffer]
        for row in need:
            consumed = int(cursor[row])
            remaining = buffer - consumed
            if remaining:
                comb[row, :remaining] = comb[row, consumed:]
            fresh = rngs[row].random(consumed)
            fresh[0::2] = np.log1p(-fresh[0::2])
            comb[row, remaining:] = fresh
            cursor[row] = 0
        _lockstep_block(
            counts,
            interactions,
            comb,
            cursor,
            status,
            zf,
            float(n),
            neg_n_sq,
            budget,
            block,
        )
        active = np.flatnonzero(status == 0)

    final_counts = counts.astype(np.int64)
    exhausted = status == 2
    final_interactions = np.where(
        exhausted, max_interactions, interactions
    ).astype(np.int64)
    return final_counts, final_interactions, exhausted
