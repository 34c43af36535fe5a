"""Compiled batched graph edge kernel (the ``"compiled"`` graph tier).

Scalar re-expression of :func:`repro.graphs.dynamics.run_on_edges_batch`.
Because every operation on the pre-drawn edge picks is exact integer
arithmetic, the compiled tier is unconditionally **bit-identical** to
both the numpy batch kernel and the serial :func:`run_on_edges` at the
same generator states — there is no transcendental channel to probe.

Unlike the numpy batch kernel (which advances the whole batch one
shared-clock interaction per pass), the scalar kernel advances each
replicate *independently* through its own buffered pick stream until
the buffer runs dry, the replicate converges, or its budget expires —
replicate-parallel via ``prange`` with zero per-event Python or numpy
overhead.  The driver only refills buffers (leftover-shifting, exactly
the consumed prefix redrawn from the replicate's own generator, so the
consumed sequence matches the serial kernel's chunk-invariant stream)
and re-enters the kernel while any replicate is still active.
"""

from __future__ import annotations

import numpy as np

from ..core.config import UNDECIDED, Configuration
from ..core.lockstep import DEFAULT_EVENT_BLOCK
from ..core.simulator import default_interaction_budget
from ..graphs.dynamics import (
    GraphRunResult,
    run_on_edges_batch,
    validate_edge_array,
    validate_graph_states,
)
from . import HAVE_NUMBA, njit, prange

__all__ = ["run_on_edges_batch_compiled"]

#: Edge picks buffered per replicate per kernel entry; purely a
#: performance knob (chunk-invariant draws), sized so one refill feeds
#: thousands of events per Python round trip.
_COMPILED_EDGE_STREAM = 8192


def _graph_blocks(
    states,
    counts,
    picks,
    cursor,
    clock,
    status,
    done_at,
    responders_of,
    initiators_of,
    n,
    undecided,
    max_interactions,
    stream,
):
    """Drain each active replicate's pick buffer.

    ``status``: 0 = active, 1 = converged, 2 = budget exhausted;
    ``clock`` counts interactions per replicate (the compiled tier has
    no shared batch clock), ``done_at`` records the converging
    interaction.  Only an adoption can complete a consensus, so the
    convergence check is one counter comparison on the adopted opinion.
    """
    R = states.shape[0]
    for r in prange(R):
        if status[r] != 0:
            continue
        pos = cursor[r]
        t = clock[r]
        while pos < stream and t < max_interactions:
            edge = picks[r, pos]
            pos += 1
            t += 1
            responder = responders_of[edge]
            r_state = states[r, responder]
            i_state = states[r, initiators_of[edge]]
            if r_state == undecided:
                if i_state != undecided:
                    states[r, responder] = i_state
                    counts[r, undecided] -= 1
                    counts[r, i_state] += 1
                    if counts[r, i_state] == n:
                        status[r] = 1
                        done_at[r] = t
                        break
            elif i_state != undecided and i_state != r_state:
                states[r, responder] = undecided
                counts[r, r_state] -= 1
                counts[r, undecided] += 1
        cursor[r] = pos
        clock[r] = t
        if status[r] == 0 and t >= max_interactions:
            status[r] = 2


if HAVE_NUMBA:  # pragma: no cover - exercised on the numba CI leg
    _graph_blocks = njit(cache=True, parallel=True)(_graph_blocks)


def run_on_edges_batch_compiled(
    edges: np.ndarray,
    initial_states: np.ndarray,
    *,
    rngs: list,
    k: int,
    n: int | None = None,
    max_interactions: int | None = None,
    event_block: int = DEFAULT_EVENT_BLOCK,
    _force_kernel: bool = False,
) -> list[GraphRunResult]:
    """Compiled-tier :func:`~repro.graphs.dynamics.run_on_edges_batch`.

    Same signature and result contract, bit-identical results.  Without
    numba this delegates to the numpy batch kernel unless
    ``_force_kernel`` is set (tests force the pure-Python kernel body on
    tiny workloads).  ``event_block`` is accepted for interface parity
    but the scalar kernel needs no event blocking — each replicate
    drains its whole pick buffer per pass.
    """
    if not HAVE_NUMBA and not _force_kernel:
        return run_on_edges_batch(
            edges,
            initial_states,
            rngs=rngs,
            k=k,
            n=n,
            max_interactions=max_interactions,
            event_block=event_block,
        )
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
    m = edges.shape[0]
    stream = _COMPILED_EDGE_STREAM

    counts = np.stack(
        [np.bincount(row, minlength=k + 1) for row in states]
    ).astype(np.int64)
    responders_of = np.ascontiguousarray(edges[:, 0])
    initiators_of = np.ascontiguousarray(edges[:, 1])
    picks = np.empty((replicates, stream), dtype=np.int64)
    cursor = np.full(replicates, stream, dtype=np.int64)
    clock = np.zeros(replicates, dtype=np.int64)
    status = np.zeros(replicates, dtype=np.int64)
    done_at = np.zeros(replicates, dtype=np.int64)

    initially = np.flatnonzero(counts[:, 1:].max(axis=1) == n)
    status[initially] = 1
    if max_interactions == 0:
        status[status == 0] = 2

    active = np.flatnonzero(status == 0)
    while active.size:
        for row in active:
            consumed = int(cursor[row])
            leftover = stream - consumed
            if leftover:
                picks[row, :leftover] = picks[row, consumed:]
            picks[row, leftover:] = rngs[row].integers(0, m, size=consumed)
            cursor[row] = 0
        _graph_blocks(
            states,
            counts,
            picks,
            cursor,
            clock,
            status,
            done_at,
            responders_of,
            initiators_of,
            n,
            UNDECIDED,
            max_interactions,
            stream,
        )
        active = np.flatnonzero(status == 0)

    results: list[GraphRunResult] = []
    for r in range(replicates):
        final = Configuration.from_trusted_counts(counts[r])
        converged = bool(status[r] == 1)
        results.append(
            GraphRunResult(
                final=final,
                interactions=int(done_at[r]) if converged else max_interactions,
                converged=converged,
                winner=final.winner,
                budget_exhausted=not converged,
            )
        )
    return results
