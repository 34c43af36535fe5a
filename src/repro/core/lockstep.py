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
on short rows).

**Two uniforms per event, drawn per replicate.**  Replicate ``r``
consumes exactly two uniforms per productive event — one for the
geometric no-op skip (by inversion), one for the event choice — from a
buffer pre-drawn from ``rngs[r]`` alone.  ``Generator.random`` is
chunk-invariant, so the leftover-preserving refills never change the
consumed sequence: a replicate's trajectory depends only on its own
generator, never on the batch composition, the block size or the buffer
size — which is exactly what makes results invariant across executors
and batch widths, and lets any replicate be reproduced in isolation.
A column that fails once stays dead until the block ends, so a live
column at step ``s`` reads slots ``cursor + 2s`` and ``cursor + 2s + 1``:
each block gathers its ``(2 * block, L)`` uniforms once after the refill
and every cursor advances by ``2 * block`` (dead columns retire).

**Event matmul.**  The event lands on bin ``c``, the count of bins with
``cum <= point``, clamped to ``2k - 1``.  Only the first ``2k - 1`` bins
are compared, into rows ``q_j`` of ``pickf`` whose last row is a
constant 1.  As ``cum`` never decreases, bin ``j``'s indicator is
``q_{j-1} - q_j`` with ``q_{-1} = 1`` (the constant row) and
``q_{2k-1} = 0``, which is the clamp.  The clamp decides only absorbed,
masked columns: a live column's point stays below ``cum[2k - 1] = W``,
padding included (see below).  So the count change is one constant
matrix away, ``counts += effect @ pickf``, where ``effect`` is the
``(k + 1, 2k)`` per-bin move times that difference map; its entries
are small integers, exact in float64.  An all-alive, zealot-free event
costs 17 numpy calls: 4 for the weights, the cumulative matmul, 6 for
the skip, the budget compare and its ``all()``, and 4 for the choice.

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

**Scalar tail.**  A numpy pass costs about the same at any width (0.3 to
0.4 ms per 16-event block at 1 to 40 columns, n = 10^4, on a 2-core
host without numba), and a call runs as many
passes as its slowest column, so a batch whose columns have mostly
retired keeps paying full price for a few survivors.  Once the live
columns drop to ``_SCALAR_KNEE`` at the top of the block loop, the
kernel finishes each survivor in its own pure-Python loop
(``_finish_column``) and returns.  The loop is exact, not approximate:

* It consumes the column's own comb buffer from its cursor and refills
  by the block loop's rule (refill when ``cursor + 2 * block > buffer``,
  redraw the consumed prefix, store ``np.log1p(-U)`` in the even
  slots), so it reads the same uniforms in the same slots.
* It keeps the counts as Python integers.  Every weight and partial sum
  is an integer of at most ``n^2 < 2^53``, exact in float64 too, so the
  total ``W = u * sum(v) + d * sum(x) - sum(x * v)`` (kept up to date
  per event) and the running sums of the bin scan equal the block
  body's BLAS cumulative weights.  The scan stops at the first bin whose
  running sum exceeds the event point, which is the block body's count
  of bins with ``cum <= point``; it skips the trailing opinions with no
  agents or zealots, whose bins stay zero.
* It takes ``np.log1p`` of a Python float for the skip, never
  ``math.log1p`` (libm, which matched numpy's array ``log1p`` on only
  92% of samples on the host above).  Scalar ``np.log1p`` matching the
  array path is a property of the numpy build, so an import-time probe
  checks it (``_SCALAR_LOG1P_BITWISE``); where it fails the kernel never
  hands off.  The floor and the ``+ 1`` round exactly as float64 does.
* It retires a column as the block epilogue does: ``W == 0`` means
  absorbed, ``W > 0`` when the next skip overruns the budget means the
  budget ran out.

The knee is measured, not tuned per call.  On the host above a scalar
event costs 1.6 (k = 3) to 2.1 (k = 8) microseconds against 20 to 25
for a numpy event.  Run alone, 8 columns of the low-variance additive
start (n = 10^4, k = 8) finished 1.44x faster in the scalar loop than
in numpy, 16 columns 0.86x, 24 columns 0.61x; heavy-tailed uniform
starts (k = 3) favour the loop more: 2.13x at 8, 1.37x at 16, 0.82x at
24.  So the loop breaks even near 12 columns for biased starts and near
20 for uniform ones.  The knee stays at 16: on ``paper_sweep``'s packed
calls every knee from 8 to 32 hands off at the same point (the 32
biased columns retire together, the uniform ones trail), and the
16-replicate misses ``service_mix`` sends (n = 3000, k = 4) ran at
parity both ways (0.99x), so they stay scalar from the start.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DEFAULT_EVENT_BLOCK", "DEFAULT_STREAM_BUFFER", "lockstep_batch"]

#: Productive events applied per numpy pass unless a caller passes
#: ``event_block=``.  Never changes results.  Profiled with ``benchmarks/kernel_tune.py``: block sizes
#: 8-64 land within ~10% of each other (buffers >= 256 likewise), and 16
#: wins outright at the acceptance width (n=10^4, k=5, 1000-replicate
#: batches) while keeping the masked work dead replicates cost inside a
#: block small.
DEFAULT_EVENT_BLOCK = 16

#: Uniforms pre-drawn per replicate per refill; two are consumed per
#: productive event.  Grown automatically to cover one full event block.
#: Never changes results either; ``benchmarks/kernel_tune.py`` sweeps
#: both constants.
DEFAULT_STREAM_BUFFER = 256

#: Live-column count at which a batch leaves numpy for the scalar tail
#: (see "Scalar tail" above for the measurement that chose it).
_SCALAR_KNEE = 16


def _probe_scalar_log1p(samples: int = 4096) -> bool:
    """Does ``np.log1p`` on a Python float match the array path bitwise?

    The scalar tail evaluates the per-event skip through ``np.log1p`` on
    one float, the wide phase through ``np.log1p`` over a whole column
    vector.  A numpy build may route the two through different code
    (SIMD body vs scalar remainder), so the probe compares them on the
    argument range the kernel uses, ``W / -n^2`` in ``(-1, 0]``: uniform
    draws plus values down to ``-2^-53``.
    """
    xs = np.concatenate(
        (
            -np.random.default_rng(0).random(samples),
            -np.logspace(-16, 0, 257, endpoint=False),
            [-0.0, 0.0, -(2.0**-53)],
        )
    )
    scalar = np.array([np.log1p(x) for x in xs.tolist()])
    return np.array_equal(np.log1p(xs).view(np.int64), scalar.view(np.int64))


#: True when scalar ``np.log1p`` reproduces the array path on this host;
#: when False the kernel never hands a column to the scalar tail.
_SCALAR_LOG1P_BITWISE = _probe_scalar_log1p()

def _finish_column(
    counts, zealots, n, neg_n_sq, inter, budget, comb, pos, rng, block, buffer
):
    """Run one column of the lockstep chain to retirement in pure Python.

    Takes the column where the block loop left it — integer counts
    ``[u, x_1..x_k]`` and zealots, ``n``, its float interactions and
    budget, its comb buffer as a list and its cursor — and reproduces
    the block body one event at a time (see "Scalar tail" in the module
    docstring).  Returns ``(counts, interactions, exhausted)``; the
    interactions of an exhausted column are the caller's to cap.
    """
    u, *x = counts
    v = [xi + zi for xi, zi in zip(x, zealots)]
    k = len(x)
    # Opinions past the last one with agents or zealots (padding, or
    # extinct) have zero weight forever; the bin scan stops before them.
    bins = range(max((i + 1 for i in range(k) if v[i]), default=0))
    sx, sv = sum(x), sum(v)
    sq = sum(xi * vi for xi, vi in zip(x, v))
    log1p = np.log1p
    while True:
        # The block loop's refill rule, on the same buffer geometry.
        if pos + 2 * block > buffer:
            fresh = rng.random(pos)
            fresh[0::2] = np.log1p(-fresh[0::2])
            comb = comb[pos:] + fresh.tolist()
            pos = 0
        for _ in range(block):
            d = n - u
            # W = sum u v_i + sum x_i (d - v_i), exact in integers.
            adopt = u * sv
            total = adopt + d * sx - sq
            if total == 0:
                return [u, *x], inter, False
            # floor(q) + 1 of the non-negative q, rounded like float64.
            tn = inter + (int(comb[pos] / float(log1p(total / neg_n_sq))) + 1)
            if not tn <= budget:
                return [u, *x], inter, True
            inter = tn
            # The first bin whose running sum exceeds the event point is
            # the block body's count of bins with cum <= point, as cum
            # never decreases.  The adoption bins sum to u * sv.
            point = comb[pos + 1] * total
            pos += 2
            if adopt > point:
                acc = 0
                for i in bins:
                    acc += v[i]
                    if u * acc > point:
                        break
                u -= 1
                sq += x[i] + v[i] + 1
                x[i] += 1
                v[i] += 1
                sx += 1
                sv += 1
            else:
                # Past every bin the block body clamps to the last one.
                acc = adopt
                i = k - 1
                for j in bins:
                    acc += x[j] * (d - v[j])
                    if acc > point:
                        i = j
                        break
                u += 1
                sq -= x[i] + v[i] - 1
                x[i] -= 1
                v[i] -= 1
                sx -= 1
                sv -= 1


def lockstep_batch(
    initial_counts,
    zealots,
    n,
    *,
    rngs: list,
    max_interactions,
    event_block: int = DEFAULT_EVENT_BLOCK,
    stream_buffer: int = DEFAULT_STREAM_BUFFER,
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
        Productive events applied per numpy pass.
    stream_buffer:
        Uniforms pre-drawn per replicate per refill, grown to cover one
        block.  Neither changes trajectories.

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
    block = int(event_block)
    if block < 1:
        raise ValueError(f"event_block must be positive, got {block}")
    buffer = max(int(stream_buffer), 2 * block)
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
    # Adoption bin i moves an undecided agent to opinion i + 1, clash
    # bin k + i the reverse; `effect` is that move after the bin
    # indicator's difference map (see "Event matmul").
    eye = np.eye(k)
    move = np.vstack((np.repeat([-1.0, 1.0], k), np.hstack((eye, -eye))))
    effect = np.hstack((np.diff(move, axis=1), move[:, :1]))
    offsets = np.arange(2 * block)[:, None]

    live = replicates
    scratch_for = -1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live > 0:
            L = live
            if L <= _SCALAR_KNEE and _SCALAR_LOG1P_BITWISE:
                # ---- scalar tail: too few columns left to fill a pass.
                for j in range(L):
                    column, inter_j, ran_out = _finish_column(
                        counts[:, j].astype(np.int64).tolist(),
                        zf[:, j].astype(np.int64).tolist(),
                        int(nf[j]),
                        float(neg_n_sq[j]),
                        float(interactions[j]),
                        float(budget[j]),
                        comb[j].tolist(),
                        int(cursor[j]),
                        rngs[gen_index[j]],
                        block,
                        buffer,
                    )
                    target = origin[j]
                    final_counts[target] = column
                    final_interactions[target] = (
                        budgets[target] if ran_out else int(inter_j)
                    )
                    exhausted[target] = ran_out
                break
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
                adopt, clash = w[:k], w[k:]
                cum = np.empty((2 * k, L))
                head, total = cum[:-1], cum[-1]
                tmp = np.empty((k, L))
                dt = np.empty(L)
                p = np.empty(L)
                wt = np.empty(L)
                tn = np.empty(L)
                v = np.empty(L)
                # The last row stays 1: the clamp (see "Event matmul").
                pickf = np.ones((2 * k, L))
                below = pickf[:-1]
                dm = np.empty((k + 1, L))
                bap = np.empty(L, dtype=bool)
                alive = np.empty(L, dtype=bool)
                flat_base = np.arange(L) * buffer
            # Step s reads log1p(-skip) at cursor + 2s and the event
            # uniform after it (see "Two uniforms per event").
            uniforms = comb.reshape(-1)[(flat_base + cursor) + offsets]
            u, supports = counts[0], counts[1:]
            inter = interactions
            all_alive = True

            for skip_l, event_u in uniforms.reshape(block, 2, L):
                if has_z:
                    np.add(supports, zf, out=tmp)
                    visible = tmp
                else:
                    visible = supports
                np.multiply(u, visible, out=adopt)
                np.subtract(nf, u, out=dt)
                np.subtract(dt, visible, out=clash)
                np.multiply(supports, clash, out=clash)
                np.matmul(tri, w, out=cum)
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
                if all_alive and bap.all():
                    # Every column advances: swap buffers, copy nothing.
                    inter, tn = tn, inter
                else:
                    if not all_alive:
                        bap &= alive
                    all_alive = False
                    np.copyto(alive, bap)
                    if not bap.any():
                        break
                    np.copyto(inter, tn, where=bap)
                # Event choice over the combined 2k cumulative bins.
                np.multiply(event_u, total, out=v)
                np.less_equal(head, v, out=below)
                np.matmul(effect, pickf, out=dm)
                if not all_alive:
                    dm *= bap
                counts += dm

            interactions = inter
            cursor += 2 * block
            if not all_alive:
                dead = np.flatnonzero(~alive)
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
                keep = np.flatnonzero(alive)
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
