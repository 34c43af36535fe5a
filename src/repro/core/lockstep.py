"""Multi-event lockstep kernel shared by the batched USD and zealot chains.

One lockstep *round* of the batched jump chain used to advance every
live replicate by exactly one productive event per numpy pass; at small
per-opinion widths the pass is dominated by fixed per-call overhead, so
round cost barely depends on how much work each call does.  This kernel
restructures the batched jump chain around three ideas:

**Multi-event blocks.**  Each numpy pass over the replicate axis now
applies a *block* of ``event_block`` productive events, hoisting the
per-round bookkeeping — stream refills, replicate compaction, scratch
(re)allocation — out of the per-event path.  Replicates that absorb or
exhaust their budget mid-block are masked out (their state freezes and
they stop consuming randomness) and retired when the block ends, so
trajectories are **bit-identical for every block size**.

**Replicate-major layout.**  State lives transposed — ``counts`` is
``(k + 1, R)``, weights are ``(2k, R)`` — so every elementwise pass
runs along the long contiguous replicate axis instead of the length-k
opinion axis.  Cumulative weights come from one BLAS matmul with a
lower-triangular ones matrix (several times faster than ``np.cumsum``
on short rows), and all gathers/scatters use precomputed flat indices.

**Two uniforms per event, drawn per replicate.**  Replicate ``r``
consumes exactly two uniforms per productive event — one for the
geometric no-op skip (by inversion), one for the event choice — from a
buffer pre-drawn from ``rngs[r]`` alone.  ``Generator.random`` is
chunk-invariant, so the leftover-preserving refills never change the
consumed sequence: a replicate's trajectory depends only on its own
generator, never on the batch composition, the block size or the buffer
size — which is exactly what makes results invariant across executors
and batch widths, and lets any replicate be reproduced in isolation.

The kernel serves both the plain USD (``zealots = 0``) and the
zealot-background chain: with ``v_i = x_i + z_i`` visible supporters
the adoption weight is ``u · v_i``, the clash weight
``x_i · (D − v_i)`` with ``D = n − u`` decided agents — for zero
zealots exactly the plain USD weights.  Event choice samples the
combined ``2k``-bin cumulative weight vector like the serial jump
chain; the geometric skip uses inversion
(``1 + floor(log1p(−U) / log1p(−p))``), so batched trajectories agree
with the serial samplers in distribution but not bitwise (the test
suite cross-validates statistically).

**Per-column inputs and padding.**  Initial counts, zealots, ``n`` and
the interaction budget may differ per column, so the replicates of
several cells run as one batch (``Engine.sweep`` packs a serial sweep's
``usd`` or ``zealots`` cells this way, paying the per-pass overhead once
instead of once per cell).  The batch's ``k`` is the largest of its
cells; a narrower cell's columns carry zero-count padding opinions.
Padding is exact, not approximate: every weight is an integer product
of counts and every cumulative sum is at most ``n^2``, and while
``n^2 < 2^53`` (enforced per column) all of them are exact float64
integers whatever the summation order.  A zero bin therefore adds
nothing to any cumulative sum, and since the event uniform times the
total weight stays strictly below the total, the ``cum <= v`` count
only shifts past the padded adoption bins — every event lands on the
same real opinion as in an unpadded run, and a padded opinion stays at
zero.  Each column still draws only from its own generator, so packed
results are bit-identical to per-cell runs.

Budget and absorption detection share one comparison: an absorbed
replicate has total weight ``W = 0``, which drives the skip inversion
to ``±inf``/``NaN`` and therefore fails the ``t + wait <= budget``
check just like a budget overrun; the block epilogue tells the two
apart by the sign of ``W`` (``W > 0`` at retirement means the budget
ran out).
"""

from __future__ import annotations

import numpy as np

from .env import env_int

__all__ = [
    "DEFAULT_EVENT_BLOCK",
    "DEFAULT_STREAM_BUFFER",
    "get_default_event_block",
    "set_default_event_block",
    "get_default_stream_buffer",
    "set_default_stream_buffer",
    "lockstep_batch",
]

#: Productive events applied per numpy pass when nothing else is
#: configured.  Profiled with ``benchmarks/kernel_tune.py``: block sizes
#: 8-64 land within ~10% of each other (buffers >= 256 likewise), and 16
#: wins outright at the acceptance width (n=10^4, k=5, 1000-replicate
#: batches) while keeping the masked work dead replicates cost inside a
#: block small.
DEFAULT_EVENT_BLOCK = 16

#: Uniforms pre-drawn per replicate per refill; two are consumed per
#: productive event.  Grown automatically to cover one full event block.
DEFAULT_STREAM_BUFFER = 256

_EVENT_BLOCK_OVERRIDE: int | None = None


def set_default_event_block(block: int | None) -> None:
    """Install a process-wide default event block (``None`` leaves as-is)."""
    global _EVENT_BLOCK_OVERRIDE
    if block is None:
        return
    block = int(block)
    if block < 1:
        raise ValueError(f"event_block must be positive, got {block}")
    _EVENT_BLOCK_OVERRIDE = block


def _global_default_event_block() -> int:
    """Legacy layered resolution: override, environment, built-in."""
    if _EVENT_BLOCK_OVERRIDE is not None:
        return _EVENT_BLOCK_OVERRIDE
    return env_int("REPRO_ENGINE_EVENT_BLOCK", DEFAULT_EVENT_BLOCK, minimum=1)


def get_default_event_block() -> int:
    """Resolved default: scoped engine session, override, environment, built-in.

    The session lookup goes through ``sys.modules`` so this low-level
    kernel module never imports the engine package (which imports it);
    when no scoped session is active the legacy layered resolution
    applies unchanged.
    """
    import sys

    session = sys.modules.get("repro.engine.session")
    if session is not None:
        opts = session._active_options()
        if opts is not None:
            return opts.event_block
    return _global_default_event_block()


_STREAM_BUFFER_OVERRIDE: int | None = None


def set_default_stream_buffer(buffer: int | None) -> None:
    """Install a process-wide default stream buffer (``None`` leaves as-is)."""
    global _STREAM_BUFFER_OVERRIDE
    if buffer is None:
        return
    buffer = int(buffer)
    if buffer < 1:
        raise ValueError(f"stream_buffer must be positive, got {buffer}")
    _STREAM_BUFFER_OVERRIDE = buffer


def _global_default_stream_buffer() -> int:
    """Legacy layered resolution: override, environment, built-in."""
    if _STREAM_BUFFER_OVERRIDE is not None:
        return _STREAM_BUFFER_OVERRIDE
    return env_int("REPRO_ENGINE_STREAM_BUFFER", DEFAULT_STREAM_BUFFER, minimum=1)


def get_default_stream_buffer() -> int:
    """Resolved default: scoped engine session, override, environment, built-in.

    Same layering (and same ``sys.modules`` indirection) as
    :func:`get_default_event_block` — the buffer size never changes
    trajectories, so this is purely a performance knob.
    """
    import sys

    session = sys.modules.get("repro.engine.session")
    if session is not None:
        opts = session._active_options()
        if opts is not None:
            return opts.stream_buffer
    return _global_default_stream_buffer()


def lockstep_batch(
    initial_counts,
    zealots,
    n,
    *,
    rngs: list,
    max_interactions,
    event_block: int | None = None,
    stream_buffer: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance ``len(rngs)`` independent jump chains in lockstep.

    Every input is per column (one column = one replicate), and a shared
    value broadcasts: a length ``k + 1`` histogram, a length ``k``
    zealot vector and scalar ``n`` / ``max_interactions`` apply to every
    replicate, exactly as before columns could differ.  Columns of
    different cells run in one call by padding the narrower ones with
    zero-count opinions up to the batch's largest ``k`` (see the module
    docstring for why that is exact).

    Parameters
    ----------
    initial_counts:
        ``(k + 1,)`` or ``(R, k + 1)`` initial histograms (index 0 =
        undecided); for the zealot chain these are the *flexible* agents.
    zealots:
        ``(k,)`` or ``(R, k)`` per-opinion stubborn counts (all zero =
        plain USD).
    n:
        Total population including zealots, scalar or ``(R,)``.  Every
        column must satisfy ``n * n < 2**53``: weights and their
        cumulative sums (at most ``n^2``) are float64 and exact only in
        that range.
    rngs:
        One generator per replicate; each replicate's trajectory is a
        function of its generator alone.
    max_interactions:
        Interaction budget per replicate (no-op skips included), scalar
        or ``(R,)``; each must lie in ``[0, 2**53)``.
    event_block:
        Productive events applied per numpy pass; defaults to
        :func:`get_default_event_block`.
    stream_buffer:
        Uniforms pre-drawn per replicate per refill; defaults to
        :func:`get_default_stream_buffer`, grown to cover one block.
        Has no effect on trajectories.

    Returns
    -------
    (final_counts, final_interactions, exhausted):
        ``(R, k + 1)`` int64 final histograms, ``(R,)`` int64 interaction
        counts (budget-capped), and an ``(R,)`` boolean budget-exhaustion
        mask, in replicate order.

    Raises
    ------
    ValueError
        When a column's ``n * n`` or budget reaches ``2**53``, a budget
        is negative, or the inputs do not broadcast to ``R`` columns.
    """
    counts0 = np.asarray(initial_counts, dtype=np.int64)
    k = counts0.shape[-1] - 1
    replicates = len(rngs)
    if replicates == 0:
        empty = np.empty((0, k + 1), dtype=np.int64)
        return empty, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    block = int(event_block) if event_block is not None else get_default_event_block()
    if block < 1:
        raise ValueError(f"event_block must be positive, got {block}")
    buffer = (
        get_default_stream_buffer() if stream_buffer is None else int(stream_buffer)
    )
    buffer = max(buffer, 2 * block)
    if buffer % 2:
        buffer += 1
    # Per-column inputs (shared values broadcast).  Integers below 2^53
    # convert to float64 exactly, so the float comparisons are exact too.
    counts0 = np.broadcast_to(counts0, (replicates, k + 1))
    z = np.broadcast_to(np.asarray(zealots, dtype=np.int64), (replicates, k))
    nf = np.broadcast_to(np.asarray(n, dtype=np.float64), (replicates,)).copy()
    budget = np.broadcast_to(
        np.asarray(max_interactions, dtype=np.float64), (replicates,)
    ).copy()
    # Written so that NaN (a budget of None) fails the checks too.
    if not (budget < 2.0**53).all():
        raise ValueError(
            f"max_interactions must stay below 2^53 (exact float64 range), "
            f"got {max_interactions!r}"
        )
    if not (budget >= 0).all():
        raise ValueError(
            f"max_interactions must be non-negative, got {max_interactions!r}"
        )
    if not (nf * nf < 2.0**53).all():
        raise ValueError(
            f"n * n must stay below 2^53 (exact float64 weights), got n = {n!r}"
        )
    budgets = budget.astype(np.int64)
    neg_n_sq = -nf * nf
    has_z = bool(z.any())
    zf = np.ascontiguousarray(z.T, dtype=np.float64)

    # Replicate-major live state; column j of every array belongs to the
    # same replicate, `origin` maps it home and `gen_index` selects its
    # generator (an index array — the generator list itself is never
    # rebuilt on compaction).
    counts = np.ascontiguousarray(counts0.T, dtype=np.float64)
    interactions = np.zeros(replicates, dtype=np.float64)
    origin = np.arange(replicates)
    gen_index = np.arange(replicates)
    comb = np.empty((replicates, buffer), dtype=np.float64)
    cursor = np.full(replicates, buffer, dtype=np.int64)

    final_counts = np.empty((replicates, k + 1), dtype=np.int64)
    final_interactions = np.empty(replicates, dtype=np.int64)
    exhausted = np.zeros(replicates, dtype=bool)

    tri = np.tri(2 * k)
    ones = np.ones(2 * k)

    live = replicates
    scratch_for = -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live > 0:
            L = live
            # ---- refill: leftover-shifting top-up, one fancy-indexed
            # pass per refill batch (the per-generator draw is the only
            # per-row Python step).  Leftover uniforms move to the front
            # and only the consumed prefix is redrawn, so the consumed
            # sequence is independent of the buffer geometry.
            need = np.flatnonzero(cursor[:L] + 2 * block > buffer)
            if need.size:
                staging = np.empty((need.size, buffer), dtype=np.float64)
                for j, row in enumerate(need):
                    consumed = int(cursor[row])
                    remaining = buffer - consumed
                    if remaining:
                        staging[j, :remaining] = comb[row, consumed:]
                    fresh = rngs[gen_index[row]].random(consumed)
                    # Skip slots (even offsets) store log1p(-U) so the
                    # inversion's log never runs per event.
                    fresh[0::2] = np.log1p(-fresh[0::2])
                    staging[j, remaining:] = fresh
                comb[need] = staging
                cursor[need] = 0

            if scratch_for != L:
                # (Re)allocate contiguous scratch whenever compaction
                # changed the live width — keeps every pass and the BLAS
                # calls on exactly-sized contiguous arrays.
                scratch_for = L
                w = np.empty((2 * k, L))
                cum = np.empty((2 * k, L))
                tmp = np.empty((k, L))
                dt = np.empty(L)
                p = np.empty(L)
                wt = np.empty(L)
                tn = np.empty(L)
                v = np.empty(L)
                pickf = np.empty((2 * k, L))
                idxf = np.empty(L)
                coli = np.empty(L, dtype=np.int64)
                bap = np.empty(L, dtype=bool)
                bneg = np.empty(L, dtype=bool)
                bpos = np.empty(L, dtype=bool)
                acount = np.empty(L, dtype=np.int64)
                rows = np.arange(L)
                flat_base = rows * buffer
            cflat = counts.reshape(-1)
            comb_flat = comb.reshape(-1)
            u = counts[0, :L]
            supports = counts[1:, :L]
            inter = interactions[:L]
            pos = cursor[:L]
            acount[:] = 0
            alive = None
            all_alive = True
            n_alive = L
            total = None

            for _ in range(block):
                if has_z:
                    np.add(supports, zf, out=tmp)
                    visible = tmp
                else:
                    visible = supports
                np.multiply(u[None, :], visible, out=w[:k])
                np.subtract(nf, u, out=dt)
                np.subtract(dt[None, :], visible, out=w[k:])
                np.multiply(supports, w[k:], out=w[k:])
                np.matmul(tri, w, out=cum)
                total = cum[-1]
                # Two uniforms per event: log1p(-skip) at the even slot,
                # the raw event uniform at the odd slot right after it.
                np.multiply(acount, 2, out=coli)
                coli += pos
                coli += flat_base
                skip_l = comb_flat[coli]
                np.add(coli, 1, out=coli)
                event_u = comb_flat[coli]
                # Geometric skip by inversion; W == 0 (absorption) drives
                # wait to inf/NaN, failing the budget check below exactly
                # like an overrun — dead columns freeze either way.
                np.divide(total, neg_n_sq, out=p)
                np.log1p(p, out=p)
                np.divide(skip_l, p, out=wt)
                np.floor(wt, out=wt)
                wt += 1.0
                np.add(inter, wt, out=tn)
                np.less_equal(tn, budget, out=bap)
                if not all_alive:
                    bap &= alive
                np.copyto(inter, tn, where=bap)
                acount += bap
                # Event choice over the combined 2k cumulative bins.
                np.multiply(event_u, total, out=v)
                np.less_equal(cum, v[None, :], out=pickf)
                np.matmul(ones, pickf, out=idxf)
                np.minimum(idxf, 2 * k - 1, out=idxf)
                np.less(idxf, k, out=bneg)
                np.logical_not(bneg, out=bpos)
                delta = np.where(bneg, -1.0, 1.0)
                # Column of the affected opinion: 1 + (idx mod k).
                idx = idxf.astype(np.int64)
                np.add(idx, 1, out=coli)
                np.subtract(coli, k, out=coli, where=bpos)
                coli *= L
                coli += rows
                if bap.all():
                    u += delta
                    cflat[coli] -= delta
                else:
                    if all_alive:
                        all_alive = False
                        alive = bap.copy()
                    else:
                        np.copyto(alive, bap)
                    applied = np.flatnonzero(bap)
                    n_alive = applied.size
                    if n_alive == 0:
                        break
                    u[applied] += delta[applied]
                    cflat[coli[applied]] -= delta[applied]

            cursor[:L] += 2 * acount
            if not all_alive:
                dead = np.flatnonzero(~alive) if n_alive else rows
                # W > 0 at retirement = the budget ran out; W == 0 = the
                # chain absorbed.  `total` still holds the dead columns'
                # (frozen) weights from the last pass.
                ran_out = total[dead] > 0.0
                targets = origin[dead]
                final_counts[targets] = counts[:, dead].T
                final_interactions[targets] = np.where(
                    ran_out, budgets[targets], inter[dead]
                ).astype(np.int64)
                exhausted[targets] = ran_out
                keep = np.flatnonzero(alive) if n_alive else np.empty(0, np.int64)
                live = keep.size
                if live:
                    counts = np.ascontiguousarray(counts[:, keep])
                    interactions = interactions[keep]
                    comb = comb[keep]
                    cursor = cursor[keep]
                    nf = nf[keep]
                    neg_n_sq = neg_n_sq[keep]
                    budget = budget[keep]
                    zf = np.ascontiguousarray(zf[:, keep])
                    origin = origin[keep]
                    gen_index = gen_index[keep]
    return final_counts, final_interactions, exhausted
