"""Vectorized batched jump chain: R replicates advanced in lockstep.

The serial jump chain (:mod:`repro.core.fastsim`) pays Python-level
overhead for every productive interaction of every replicate.  An
ensemble of R independent replicates of the *same* initial configuration
can instead be advanced as one replicate-major histogram array: per
numpy pass, the geometric no-op skip, the weighted event choice and the
absorption check are computed across the whole replicate axis, so the
per-event interpreter cost is shared by every live replicate.

Since the multi-event overhaul, :func:`simulate_batch` delegates to the
shared :func:`repro.core.lockstep.lockstep_batch` kernel, which applies
a whole *block* of events per pass on transposed ``(k + 1, R)`` state with BLAS cumulative weights.  The
pre-overhaul kernel — one event per pass on ``(R, k + 1)`` state — is
preserved verbatim as :func:`simulate_batch_single_event`: it is the
baseline of the kernel ablation benchmark and the regression oracle for
the legacy stream semantics.  The block size and the per-replicate
uniform buffer are kernel constants (``DEFAULT_EVENT_BLOCK``,
``DEFAULT_STREAM_BUFFER`` in :mod:`repro.core.lockstep`), tuned by
``benchmarks/kernel_tune.py``; neither changes results.

Replicate independence and reproducibility
------------------------------------------
Each replicate owns a private ``numpy`` generator and consumes exactly
two uniforms per productive step from a buffer pre-drawn from *its own*
generator (one for the geometric skip, one for the event choice).
Finished replicates stop consuming.  A replicate's trajectory therefore
depends only on its own seed — never on which other replicates share the
batch, the event-block size or the executor — so results are
bit-identical across batch widths, block sizes and executors.

The geometric skip is sampled by inversion (``1 + floor(log(1-U) /
log(1-p))``) rather than ``Generator.geometric``, so batched
trajectories are not bitwise-equal to the serial jump chain for the same
seed; both sample the exact same distribution, which the test suite
cross-validates statistically.  The multi-event kernel's event choice
likewise matches the single-event kernel in distribution but not
bitwise (its cumulative weights are summed by BLAS in a different
order), which is why the ensemble cache format was bumped when it
landed.
"""

from __future__ import annotations

import numpy as np

from ..core.config import Configuration
from ..core.fastsim import cumulative_weights, pick_event
from ..core.fastsim import simulate as _jump_simulate
from ..core.lockstep import DEFAULT_EVENT_BLOCK, DEFAULT_STREAM_BUFFER, lockstep_batch
from ..core.simulator import Observer, RunResult, default_interaction_budget
from ..kernels.lockstep_jit import lockstep_batch_compiled

__all__ = [
    "BatchedBackend",
    "CompiledBackend",
    "simulate_batch",
    "simulate_batch_compiled",
    "simulate_batch_single_event",
]

#: Uniforms pre-drawn per replicate per refill in the single-event
#: kernel; two are consumed per productive step.  Must be even.
_STREAM_BUFFER = 256


def _results_from_arrays(
    config: Configuration,
    final_counts: np.ndarray,
    final_interactions: np.ndarray,
    exhausted: np.ndarray,
) -> list[RunResult]:
    results: list[RunResult] = []
    for r in range(final_counts.shape[0]):
        final = Configuration(final_counts[r])
        results.append(
            RunResult(
                initial=config,
                final=final,
                interactions=int(final_interactions[r]),
                converged=final.is_consensus,
                winner=final.winner,
                stopped_by_observer=False,
                budget_exhausted=bool(exhausted[r]),
            )
        )
    return results


def simulate_batch(
    config: Configuration,
    *,
    rngs: list[np.random.Generator],
    max_interactions: int | None = None,
    event_block: int = DEFAULT_EVENT_BLOCK,
) -> list[RunResult]:
    """Run ``len(rngs)`` independent replicates of the jump chain at once.

    Parameters
    ----------
    config:
        Shared initial configuration.
    rngs:
        One independent generator per replicate; each replicate's
        trajectory is a deterministic function of its generator alone.
    max_interactions:
        Interaction budget per replicate (the count includes skipped
        no-ops, exactly as in the serial simulators); defaults to
        :func:`repro.core.simulator.default_interaction_budget`.
    event_block:
        Productive events applied per numpy pass.  Never changes
        results — only how much per-pass overhead is amortized.
    """
    n = config.n
    k = config.k
    if len(rngs) == 0:
        return []
    if max_interactions is None:
        max_interactions = default_interaction_budget(n, k)
    if max_interactions < 0:
        raise ValueError(f"max_interactions must be non-negative, got {max_interactions}")
    final_counts, final_interactions, exhausted = lockstep_batch(
        config.counts,
        np.zeros(k, dtype=np.int64),
        n,
        rngs=rngs,
        max_interactions=max_interactions,
        event_block=event_block,
    )
    return _results_from_arrays(config, final_counts, final_interactions, exhausted)


def simulate_batch_compiled(
    config: Configuration,
    *,
    rngs: list[np.random.Generator],
    max_interactions: int | None = None,
    event_block: int = DEFAULT_EVENT_BLOCK,
    stream_buffer: int = DEFAULT_STREAM_BUFFER,
) -> list[RunResult]:
    """Run ``len(rngs)`` replicates on the compiled lockstep kernel.

    The compiled tier (:mod:`repro.kernels.lockstep_jit`) consumes the
    same per-replicate uniform streams as :func:`simulate_batch` in the
    same order, so where ``log1p`` agrees bitwise between numpy and the
    scalar libm (probed at import as
    ``repro.kernels.LOG1P_BITWISE``) trajectories are bit-identical to
    the numpy tier; otherwise they agree in distribution.  Without
    numba this transparently falls back to the numpy kernel.
    """
    n = config.n
    k = config.k
    if len(rngs) == 0:
        return []
    if max_interactions is None:
        max_interactions = default_interaction_budget(n, k)
    if max_interactions < 0:
        raise ValueError(f"max_interactions must be non-negative, got {max_interactions}")
    final_counts, final_interactions, exhausted = lockstep_batch_compiled(
        config.counts,
        np.zeros(k, dtype=np.int64),
        n,
        rngs=rngs,
        max_interactions=max_interactions,
        event_block=event_block,
        stream_buffer=stream_buffer,
    )
    return _results_from_arrays(config, final_counts, final_interactions, exhausted)


def simulate_batch_single_event(
    config: Configuration,
    *,
    rngs: list[np.random.Generator],
    max_interactions: int | None = None,
) -> list[RunResult]:
    """The pre-overhaul batched kernel: one event per numpy pass.

    Kept verbatim as the single-event baseline of the kernel ablation
    (``benchmarks/kernel_tune.py`` / ``engine_smoke.py --ablation``) and
    as the oracle for the legacy stream semantics.  Samples the same
    process as :func:`simulate_batch`; trajectories differ bitwise (the
    multi-event kernel sums its cumulative weights in a different
    order).
    """
    n = config.n
    k = config.k
    replicates = len(rngs)
    if replicates == 0:
        return []
    if max_interactions is None:
        max_interactions = default_interaction_budget(n, k)
    if max_interactions < 0:
        raise ValueError(f"max_interactions must be non-negative, got {max_interactions}")
    n_sq = float(n) * float(n)

    # Live state, kept compacted: rows [0, live) are the replicates still
    # running; `origin` maps a live row back to its replicate index.
    counts = np.tile(np.asarray(config.counts, dtype=np.int64), (replicates, 1))
    interactions = np.zeros(replicates, dtype=np.int64)
    origin = np.arange(replicates)
    generators = list(rngs)
    stream = np.empty((replicates, _STREAM_BUFFER), dtype=np.float64)
    cursor = np.full(replicates, _STREAM_BUFFER, dtype=np.int64)

    final_counts = np.empty((replicates, k + 1), dtype=np.int64)
    final_interactions = np.empty(replicates, dtype=np.int64)
    exhausted = np.zeros(replicates, dtype=bool)

    live = replicates
    row_ids = np.arange(replicates)
    while live > 0:
        rows = row_ids[:live]
        supports = counts[:live, 1:]
        undecided = counts[:live, 0]
        decided = n - undecided

        # Adoption weights u*x_i and clash weights x_i*(decided - x_i) in
        # one (live, 2k) array: a single cumulative sum yields the total
        # productive weight *and* the event-choice bins.
        weights = np.empty((live, 2 * k), dtype=np.float64)
        np.multiply(undecided[:, None], supports, out=weights[:, :k])
        np.multiply(supports, decided[:, None] - supports, out=weights[:, k:])
        cumulative = cumulative_weights(weights)
        total = cumulative[:, -1]

        # W == 0 exactly characterizes the absorbing configurations:
        # consensus, and the all-undecided state.
        absorbed = total <= 0.0

        # Top up streams running low, two uniforms per live replicate.
        low = np.flatnonzero(cursor[:live] + 2 > _STREAM_BUFFER)
        for row in low:
            stream[row] = generators[row].random(_STREAM_BUFFER)
            cursor[row] = 0
        offset = cursor[:live]
        skip_u = stream[rows, offset]
        event_u = stream[rows, offset + 1]
        cursor[:live] += np.where(absorbed, 0, 2)  # absorbed rows consume nothing

        # Geometric number of interactions until the next productive one,
        # by inversion; p >= 1 collapses to a certain hit.
        p = total / n_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            wait = 1.0 + np.floor(np.log1p(-skip_u) / np.log1p(-p))
        wait = np.where((p >= 1.0) | absorbed, 1.0, np.maximum(wait, 1.0))
        t_next = interactions[:live] + wait.astype(np.int64)
        over_budget = (t_next > max_interactions) & ~absorbed

        alive = ~(absorbed | over_budget)
        interactions[:live] = np.where(alive, t_next, interactions[:live])
        interactions[:live][over_budget] = max_interactions

        if alive.any():
            event = pick_event(cumulative, event_u * total)
            opinion = 1 + (event % k)
            # Events < k are adoptions (undecided -> opinion), events >= k
            # are clashes (opinion -> undecided).
            delta = np.where(event < k, -1, 1)
            alive_rows = rows[alive]
            counts[alive_rows, 0] += delta[alive]
            counts[alive_rows, opinion[alive]] -= delta[alive]

        if not alive.all():
            finished = np.flatnonzero(~alive)
            targets = origin[finished]
            final_counts[targets] = counts[finished]
            final_interactions[targets] = interactions[:live][finished]
            exhausted[targets] = over_budget[finished]
            keep = np.flatnonzero(alive)
            live = keep.size
            counts[:live] = counts[keep]
            interactions[:live] = interactions[keep]
            stream[:live] = stream[keep]
            cursor[:live] = cursor[keep]
            origin[:live] = origin[keep]
            generators = [generators[i] for i in keep]

    return _results_from_arrays(config, final_counts, final_interactions, exhausted)


class BatchedBackend:
    """Ensemble backend: vectorized lockstep advance of R jump chains.

    ``simulate_batch`` is the native entry point.  ``simulate`` satisfies
    the single-run :class:`~repro.engine.backends.Backend` protocol by
    running a batch of width one; because observers need a callback after
    every productive event — the one thing the lockstep kernel cannot
    offer cheaply — observer runs delegate to the serial jump chain,
    which samples the identical process.
    """

    name = "batched"

    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        if observer is not None:
            return _jump_simulate(
                config, rng=rng, max_interactions=max_interactions, observer=observer
            )
        return simulate_batch(config, rngs=[rng], max_interactions=max_interactions)[0]

    def simulate_batch(
        self,
        config: Configuration,
        *,
        rngs: list[np.random.Generator],
        max_interactions: int | None = None,
    ) -> list[RunResult]:
        return simulate_batch(config, rngs=rngs, max_interactions=max_interactions)


class CompiledBackend:
    """Ensemble backend: numba-jitted lockstep advance of R jump chains.

    Identical protocol to :class:`BatchedBackend`, backed by the
    compiled multi-event kernel of :mod:`repro.kernels.lockstep_jit`.
    Selecting it never requires numba: without the optional dependency
    every call transparently runs the numpy lockstep kernel instead,
    so ``--backend compiled`` is always safe.  Observer runs delegate
    to the serial jump chain exactly as in the batched backend.
    """

    name = "compiled"

    def simulate(
        self,
        config: Configuration,
        *,
        rng: np.random.Generator,
        max_interactions: int | None = None,
        observer: Observer | None = None,
    ) -> RunResult:
        if observer is not None:
            return _jump_simulate(
                config, rng=rng, max_interactions=max_interactions, observer=observer
            )
        return simulate_batch_compiled(
            config, rngs=[rng], max_interactions=max_interactions
        )[0]

    def simulate_batch(
        self,
        config: Configuration,
        *,
        rngs: list[np.random.Generator],
        max_interactions: int | None = None,
    ) -> list[RunResult]:
        return simulate_batch_compiled(
            config, rngs=rngs, max_interactions=max_interactions
        )
