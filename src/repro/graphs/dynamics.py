"""Numpy-only kernel for the graph-restricted USD.

The interaction loop is independent of how the edge set was produced:
it consumes an ``(m, 2)`` array of directed ``(responder, initiator)``
pairs.  :func:`repro.graphs.simulate.simulate_on_graph` builds that
array from a ``networkx`` graph and delegates here; the engine's
``"graph"`` scenario stores the edge array in its spec and calls the
same kernel, so the two paths are bit-identical by construction.

Keeping this module free of ``networkx`` lets :mod:`repro.engine`
execute graph workloads without pulling the graph-construction
dependency into numpy-only entry points (the engine smoke, local
workers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import UNDECIDED, Configuration
from ..core.lockstep import DEFAULT_EVENT_BLOCK
from ..core.simulator import default_interaction_budget

__all__ = [
    "GraphRunResult",
    "run_on_edges",
    "run_on_edges_batch",
    "validate_edge_array",
    "validate_graph_states",
]

#: Edge picks pre-drawn per replicate per refill in the batched kernel.
#: Bounded int64 draws are chunk-invariant (the same generator yields the
#: same sequence no matter how calls are sized), so the buffer size never
#: changes trajectories — it only trades memory against refill frequency.
_EDGE_STREAM = 2048


@dataclass(frozen=True)
class GraphRunResult:
    """Outcome of a graph-restricted USD run."""

    final: Configuration
    interactions: int
    converged: bool
    winner: int | None
    budget_exhausted: bool = False


def validate_graph_states(initial_states, n: int, k: int) -> np.ndarray:
    """Validate a per-node state array and return an int64 copy.

    The array must be one-dimensional with exactly one state per graph
    node — a multi-dimensional array whose total size happens to equal
    ``n`` would silently index rows instead of states, so the shape is
    checked explicitly — and every label must lie in ``[0, k]``.
    """
    states = np.asarray(initial_states, dtype=np.int64)
    if states.ndim != 1 or states.shape[0] != n:
        raise ValueError(
            f"initial_states must be a 1-D array with one state per node "
            f"(expected length {n}), got shape {states.shape}"
        )
    if states.size and (states.min() < 0 or states.max() > k):
        raise ValueError(f"states must lie in [0, {k}]")
    return states.copy()


def validate_edge_array(edges) -> np.ndarray:
    """Validate an ``(m, 2)`` directed interaction-pair array."""
    arr = np.asarray(edges, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError(
            f"edges must be a non-empty (m, 2) array of directed "
            f"(responder, initiator) pairs, got shape {arr.shape}"
        )
    if arr.min() < 0:
        raise ValueError("edge endpoints must be non-negative node indices")
    return arr


def run_on_edges(
    edges: np.ndarray,
    initial_states: np.ndarray,
    *,
    rng: np.random.Generator,
    k: int,
    n: int | None = None,
    max_interactions: int | None = None,
) -> GraphRunResult:
    """Run the USD over a fixed directed edge array.

    Each step samples a uniform row ``(responder, initiator)`` of
    ``edges`` and applies the USD rule to the responder.  ``n`` defaults
    to the length of ``initial_states``.
    """
    if n is None:
        n = int(np.asarray(initial_states).shape[0])
    states = validate_graph_states(initial_states, n, k)
    edges = validate_edge_array(edges)
    if edges.max() >= n:
        raise ValueError(
            f"edge endpoints must lie in [0, {n - 1}], got {int(edges.max())}"
        )
    if max_interactions is None:
        max_interactions = default_interaction_budget(n, max(k, 1))
    counts = np.bincount(states, minlength=k + 1)

    t = 0
    chunk = 8192
    converged = counts[1:].max() == n
    while not converged and t < max_interactions:
        batch = min(chunk, max_interactions - t)
        picks = rng.integers(0, edges.shape[0], size=batch)
        for pick in picks:
            t += 1
            responder, initiator = edges[pick]
            r_state = states[responder]
            i_state = states[initiator]
            if r_state == UNDECIDED:
                if i_state != UNDECIDED:
                    states[responder] = i_state
                    counts[UNDECIDED] -= 1
                    counts[i_state] += 1
                else:
                    continue
            elif i_state != UNDECIDED and i_state != r_state:
                states[responder] = UNDECIDED
                counts[r_state] -= 1
                counts[UNDECIDED] += 1
            else:
                continue
            if counts[1:].max() == n:
                converged = True
                break

    final = Configuration(counts)
    return GraphRunResult(
        final=final,
        interactions=t,
        converged=converged,
        winner=final.winner,
        budget_exhausted=not converged,
    )


def run_on_edges_batch(
    edges: np.ndarray,
    initial_states: np.ndarray,
    *,
    rngs: list,
    k: int,
    n: int | None = None,
    max_interactions: int | None = None,
    event_block: int = DEFAULT_EVENT_BLOCK,
) -> list[GraphRunResult]:
    """Advance ``len(rngs)`` replicates of the edge-restricted USD in lockstep.

    The vectorized analogue of :func:`run_on_edges`: replicate state
    arrays are stacked into one ``(R, n)`` matrix and every numpy pass
    samples one edge per live replicate, applying all responder updates
    at once — the serial kernel's per-interaction Python cost is shared
    by the whole batch.  Passes are grouped into *blocks* of
    ``event_block`` interactions (the lockstep kernel's
    :data:`~repro.core.lockstep.DEFAULT_EVENT_BLOCK` by default): stream refills, the consensus/retirement
    bookkeeping and batch compaction run once per block instead of once
    per interaction, while convergence is still detected *per event* —
    an adoption converges its replicate exactly when the adopted
    opinion's count reaches ``n``, so recorded interaction counts are
    independent of the block size.

    ``initial_states`` is either one shared ``(n,)`` array (every
    replicate starts from the same per-node assignment) or an ``(R, n)``
    array with one row per replicate.  Replicate ``r`` consumes the
    sequential bounded-integer stream of ``rngs[r]`` — exactly the draws
    :func:`run_on_edges` makes (bounded int64 generation is
    chunk-invariant) — so results are **bit-identical** to the serial
    kernel at the same generator state, and therefore invariant to the
    batch width, the block size, and the executor.  Finished replicates
    retire from the batch and stop consuming randomness.
    """
    edges = validate_edge_array(edges)
    replicates = len(rngs)
    if replicates == 0:
        return []
    states_in = np.asarray(initial_states, dtype=np.int64)
    if states_in.ndim == 2:
        if states_in.shape[0] != replicates:
            raise ValueError(
                f"need one state row per replicate ({replicates}), "
                f"got shape {states_in.shape}"
            )
        if n is None:
            n = int(states_in.shape[1])
        states = np.stack(
            [validate_graph_states(row, n, k) for row in states_in]
        )
    else:
        if n is None:
            n = int(states_in.shape[0])
        states = np.tile(validate_graph_states(states_in, n, k), (replicates, 1))
    if edges.max() >= n:
        raise ValueError(
            f"edge endpoints must lie in [0, {n - 1}], got {int(edges.max())}"
        )
    if max_interactions is None:
        max_interactions = default_interaction_budget(n, max(k, 1))
    block = int(event_block)
    if block < 1:
        raise ValueError(f"event_block must be positive, got {block}")
    stream = max(_EDGE_STREAM, block)
    m = edges.shape[0]

    counts = np.stack(
        [np.bincount(row, minlength=k + 1) for row in states]
    ).astype(np.int64)
    origin = np.arange(replicates)
    gen_index = np.arange(replicates)
    picks = np.empty((replicates, stream), dtype=np.int64)
    cursor = np.full(replicates, stream, dtype=np.int64)

    final_counts = np.empty((replicates, k + 1), dtype=np.int64)
    done_interactions = np.full(replicates, -1, dtype=np.int64)

    # Flat views + per-row base offsets: every gather and scatter in the
    # event body is 1-D fancy indexing, which is several times cheaper
    # than the equivalent 2-D indexing on this access pattern.
    responders_of = np.ascontiguousarray(edges[:, 0])
    initiators_of = np.ascontiguousarray(edges[:, 1])
    states_flat = states.reshape(-1)
    counts_flat = counts.reshape(-1)
    picks_flat = picks.reshape(-1)
    state_base = np.arange(replicates) * n
    count_base = np.arange(replicates) * (k + 1)
    pick_base = np.arange(replicates) * stream

    # Every live replicate advances one interaction per numpy pass, so
    # the whole batch shares one interaction clock and the budget runs
    # out for everyone at once.  A consensus state is a fixed point of
    # the edge rule, so a converged replicate records its time and rides
    # along unchanged until **half** the batch has finished at a block
    # boundary, at which point the batch compacts — a logarithmic
    # number of compactions, so neither copying nor unbounded straggler
    # riding ever dominates.  Convergence can only happen through an
    # adoption (a clash moves an agent to undecided, which never
    # completes a consensus), so the per-event check only inspects the
    # adopted opinions' incremented counts.
    done_here = np.zeros(replicates, dtype=bool)
    remaining = replicates
    initially = np.flatnonzero(counts[:, 1:].max(axis=1) == n)
    if initially.size:
        done_interactions[origin[initially]] = 0
        done_here[initially] = True
        remaining -= initially.size
    t = 0
    while remaining > 0 and t < max_interactions:
        width = states.shape[0]
        if width > 1 and 2 * int(done_here.sum()) >= width:
            finished = np.flatnonzero(done_here)
            final_counts[origin[finished]] = counts[finished]
            keep = np.flatnonzero(~done_here)
            states = np.ascontiguousarray(states[keep])
            counts = np.ascontiguousarray(counts[keep])
            picks = np.ascontiguousarray(picks[keep])
            cursor = cursor[keep]
            origin = origin[keep]
            gen_index = gen_index[keep]
            done_here = np.zeros(keep.size, dtype=bool)
            states_flat = states.reshape(-1)
            counts_flat = counts.reshape(-1)
            picks_flat = picks.reshape(-1)
            width = keep.size

        # Top up pick buffers for the whole block: leftover draws shift
        # to the front and only the consumed prefix is redrawn, so the
        # consumed sequence per replicate never depends on the buffer
        # geometry (bounded int64 generation is chunk-invariant).
        need = np.flatnonzero(cursor + block > stream)
        if need.size:
            staging = np.empty((need.size, stream), dtype=np.int64)
            for j, row in enumerate(need):
                consumed = int(cursor[row])
                leftover = stream - consumed
                if leftover:
                    staging[j, :leftover] = picks[row, consumed:]
                staging[j, leftover:] = rngs[gen_index[row]].integers(
                    0, m, size=consumed
                )
            picks[need] = staging
            cursor[need] = 0

        steps = min(block, max_interactions - t)
        for j in range(steps):
            pick = picks_flat[pick_base[:width] + cursor]
            cursor += 1
            responders = responders_of[pick]
            initiators = initiators_of[pick]
            responder_at = state_base[:width] + responders
            r_state = states_flat[responder_at]
            i_state = states_flat[state_base[:width] + initiators]
            adopt = (r_state == UNDECIDED) & (i_state != UNDECIDED)
            clash = (
                (r_state != UNDECIDED)
                & (i_state != UNDECIDED)
                & (i_state != r_state)
            )
            new_state = np.where(
                adopt, i_state, np.where(clash, UNDECIDED, r_state)
            )
            states_flat[responder_at] = new_state
            productive = np.flatnonzero(adopt | clash)
            if productive.size:
                base = count_base[productive]
                counts_flat[base + r_state[productive]] -= 1
                counts_flat[base + new_state[productive]] += 1
                adopted = productive[adopt[productive]]
                if adopted.size:
                    hit = adopted[
                        counts_flat[count_base[adopted] + new_state[adopted]]
                        == n
                    ]
                    fresh = hit[~done_here[hit]]
                    if fresh.size:
                        done_interactions[origin[fresh]] = t + j + 1
                        done_here[fresh] = True
                        remaining -= fresh.size
                        if remaining == 0:
                            break
        t += steps

    final_counts[origin] = counts

    results: list[GraphRunResult] = []
    for r in range(replicates):
        final = Configuration.from_trusted_counts(final_counts[r])
        converged = bool(done_interactions[r] >= 0)
        results.append(
            GraphRunResult(
                final=final,
                interactions=(
                    int(done_interactions[r]) if converged else max_interactions
                ),
                converged=converged,
                winner=final.winner,
                budget_exhausted=not converged,
            )
        )
    return results
