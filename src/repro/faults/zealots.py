"""USD with zealot (stubborn) agents.

A zealot permanently supports one opinion: as an initiator it behaves
like any decided agent, but as a responder it never changes state.  The
flexible agents run the standard USD against this fixed background.

Implementation: an exact jump chain like :mod:`repro.core.fastsim`, with
the productive-event weights adjusted for the zealot background.  With
``x_i`` flexible supporters, ``z_i`` zealots of opinion ``i`` and ``u``
undecided (flexible) agents:

* an undecided responder adopts opinion ``i`` with weight
  ``u · (x_i + z_i)`` — zealots proselytize too;
* a flexible responder of opinion ``i`` clashes with weight
  ``x_i · (n − u − x_i − z_i)`` — every differently decided initiator,
  zealous or not.

The process absorbs only when all flexible agents share one opinion and
no zealot of another opinion exists.  The measured behavior mirrors the
*robust approximate majority* property of Angluin et al. [4]: a **small**
zealot camp cannot overturn a clear flexible majority — the majority is
metastable, held up by the undecided pool re-adopting it faster than the
zealots erode it — while a zealot camp **larger than the flexible
plurality** wins outright.  The test suite pins down both regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.config import Configuration
from ..core.lockstep import DEFAULT_EVENT_BLOCK, lockstep_batch

__all__ = [
    "ZealotRunResult",
    "simulate_with_zealots",
    "simulate_zealots_batch",
    "validate_zealot_counts",
    "default_zealot_budget",
    "zealot_results",
]


def validate_zealot_counts(zealots, k: int) -> np.ndarray:
    """Validate a per-opinion zealot count array and return an int64 copy.

    The array must be one-dimensional with exactly one entry per opinion
    — a multi-dimensional array whose total size happens to equal ``k``
    would silently misalign opinions — and every count non-negative.
    """
    arr = np.asarray(zealots, dtype=np.int64)
    if arr.ndim != 1 or arr.shape[0] != k:
        raise ValueError(
            f"need one zealot count per opinion ({k}) in a 1-D array, "
            f"got shape {arr.shape}"
        )
    if (arr < 0).any():
        raise ValueError("zealot counts must be non-negative")
    return arr.copy()


def default_zealot_budget(n: int, k: int) -> int:
    """Default interaction budget on the total population ``n``."""
    return int(500 * (k + 1) * n * (math.log(max(n, 2)) + 1))


@dataclass(frozen=True)
class ZealotRunResult:
    """Outcome of a zealot-USD run.

    ``final`` holds the *flexible* agents' configuration (zealots are
    reported separately since they never move).
    """

    final: Configuration
    zealots: np.ndarray
    interactions: int
    converged: bool
    winner: int | None
    budget_exhausted: bool = False


def simulate_with_zealots(
    config: Configuration,
    zealots,
    *,
    rng: np.random.Generator,
    max_interactions: int | None = None,
) -> ZealotRunResult:
    """Run the USD with a fixed zealot background.

    Parameters
    ----------
    config:
        Initial configuration of the *flexible* agents.
    zealots:
        Length-k integer array; ``zealots[i-1]`` stubborn supporters of
        opinion ``i``.  The total population is ``config.n + sum(zealots)``.
    max_interactions:
        Budget; defaults to a multiple of ``k · n log n`` on the total
        population (zealot hijack is slower than plain convergence when
        the zealot camp is small).
    """
    zealots = validate_zealot_counts(zealots, config.k)

    flexible = np.asarray(config.counts, dtype=np.int64).copy()
    n = int(config.n + zealots.sum())
    k = config.k
    if max_interactions is None:
        max_interactions = default_zealot_budget(n, k)

    zealot_opinions = np.flatnonzero(zealots) + 1
    n_sq = float(n) * float(n)
    supports = flexible[1:]

    def absorbed() -> bool:
        # All flexible mass on one opinion (or none flexible decided at
        # all) and no opposing zealots.
        u = int(flexible[0])
        alive = np.flatnonzero(supports) + 1
        camps = set(alive.tolist()) | set(zealot_opinions.tolist())
        return u == 0 and len(camps) <= 1

    t = 0
    budget_exhausted = False
    while not absorbed():
        u = int(flexible[0])
        visible = supports + zealots  # what initiators advertise
        decided_total = int(visible.sum())
        adopt_total = float(u) * float(decided_total)
        clash_weights = supports * (decided_total - visible)
        clash_total = float(clash_weights.sum())
        total = adopt_total + clash_total
        if total <= 0:
            break
        p = total / n_sq
        wait = 1 if p >= 1.0 else int(rng.geometric(p))
        if t + wait > max_interactions:
            t = max_interactions
            budget_exhausted = True
            break
        t += wait
        v = rng.random() * total
        if v < adopt_total:
            cumulative = np.cumsum(visible.astype(np.float64))
            i = int(np.searchsorted(cumulative, v / u, side="right"))
            flexible[0] -= 1
            flexible[1 + i] += 1
        else:
            cumulative = np.cumsum(clash_weights.astype(np.float64))
            i = int(np.searchsorted(cumulative, v - adopt_total, side="right"))
            flexible[1 + i] -= 1
            flexible[0] += 1

    final = Configuration(flexible)
    converged = absorbed()
    winner: int | None = None
    if converged:
        camps = set((np.flatnonzero(supports) + 1).tolist()) | set(
            zealot_opinions.tolist()
        )
        if len(camps) == 1:
            winner = camps.pop()
    return ZealotRunResult(
        final=final,
        zealots=zealots.copy(),
        interactions=t,
        converged=converged,
        winner=winner,
        budget_exhausted=budget_exhausted,
    )


def simulate_zealots_batch(
    config: Configuration,
    zealots,
    *,
    rngs: list[np.random.Generator],
    max_interactions: int | None = None,
    event_block: int = DEFAULT_EVENT_BLOCK,
    kernel=None,
) -> list[ZealotRunResult]:
    """Advance ``len(rngs)`` independent zealot-USD jump chains in lockstep.

    The vectorized analogue of :func:`simulate_with_zealots`, running on
    the engine's shared multi-event kernel
    (:func:`repro.core.lockstep.lockstep_batch`) with the zealot counts
    as the stubborn background: per numpy pass a whole block of
    geometric no-op skips, weighted adopt/clash event choices and
    absorption checks is computed across the replicate axis.  Each
    replicate consumes exactly two uniforms per productive step from a
    buffer pre-drawn from *its own* generator, so trajectories are
    invariant to the batch width, the event-block size and the executor.

    The geometric skip is sampled by inversion rather than
    ``Generator.geometric``, so batched runs are not bitwise-equal to
    :func:`simulate_with_zealots` for the same seed; both sample the
    identical distribution (cross-validated statistically in the test
    suite).

    ``kernel`` swaps the lockstep implementation (the ``"compiled"``
    variant passes
    :func:`repro.kernels.lockstep_jit.lockstep_batch_compiled`); any
    replacement must honor :func:`lockstep_batch`'s signature and return
    contract.
    """
    zealots = validate_zealot_counts(zealots, config.k)
    replicates = len(rngs)
    if replicates == 0:
        return []
    k = config.k
    n = int(config.n + zealots.sum())
    if max_interactions is None:
        max_interactions = default_zealot_budget(n, k)
    if max_interactions < 0:
        raise ValueError(
            f"max_interactions must be non-negative, got {max_interactions}"
        )

    if kernel is None:
        kernel = lockstep_batch
    flexible, interactions, exhausted = kernel(
        config.counts,
        zealots,
        n,
        rngs=rngs,
        max_interactions=max_interactions,
        event_block=event_block,
    )

    return zealot_results(config, zealots, flexible, interactions, exhausted)


def zealot_results(
    config: Configuration,
    zealots: np.ndarray,
    flexible: np.ndarray,
    interactions: np.ndarray,
    exhausted: np.ndarray,
) -> list[ZealotRunResult]:
    """Per-replicate results from the lockstep kernel's output arrays."""
    zealot_opinions = set((np.flatnonzero(zealots) + 1).tolist())
    results: list[ZealotRunResult] = []
    for r in range(flexible.shape[0]):
        final = Configuration(flexible[r])
        camps = set((np.flatnonzero(flexible[r, 1:]) + 1).tolist()) | zealot_opinions
        converged = flexible[r, 0] == 0 and len(camps) <= 1
        winner = camps.pop() if converged and len(camps) == 1 else None
        results.append(
            ZealotRunResult(
                final=final,
                zealots=zealots.copy(),
                interactions=int(interactions[r]),
                converged=bool(converged),
                winner=winner,
                budget_exhausted=bool(exhausted[r]),
            )
        )
    return results
