"""Multi-event lockstep kernels, batched graph/gossip, result transport.

Covers the three invariants the batched execution layer promises:

* **Event-block invariance** — the multi-event USD/zealot kernel yields
  bit-identical results for every ``event_block`` and stream-buffer
  size (a replicate consumes the same uniform stream no matter how
  events are grouped into numpy passes).
* **Reference fidelity** — the batched graph kernel and the batched
  gossip rounds replay the serial references bit-for-bit at the same
  seeds (statistically for 3-Majority, whose draws reorder), and the
  multi-event kernel matches the single-event kernel in distribution.
* **Transport equality** — the process executor returns the serial
  results whether workers ship fixed-width record blocks or, for a
  scenario or backend without a record codec, pickled result lists.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lockstep as lockstep_module
from repro.core.config import Configuration
from repro.core.fastsim import simulate as fast_simulate
from repro.core.simulator import RunResult
from repro.core.lockstep import DEFAULT_EVENT_BLOCK, lockstep_batch
from repro.engine import (
    Engine,
    get_scenario,
    gossip_spec,
    graph_spec,
    noise_spec,
    replicate_seeds,
    run_ensemble,
    simulate_batch,
    simulate_batch_single_event,
    usd_spec,
    zealot_spec,
)
from repro.engine.scenarios import ScenarioSpec
from repro.faults.zealots import simulate_zealots_batch
from repro.gossip.engine import IndexStream, run_gossip, run_gossip_batch
from repro.gossip.jmajority import j_majority_round, j_majority_round_batch
from repro.gossip.median import median_rule_round, median_rule_round_batch
from repro.gossip.usd import usd_gossip_round, usd_gossip_round_batch
from repro.graphs.dynamics import run_on_edges, run_on_edges_batch
from repro.workloads import additive_bias_configuration, uniform_configuration


def rngs_for(seed, count):
    return [np.random.default_rng(s) for s in replicate_seeds(seed, count)]


def results_equal(a, b):
    for x, y in zip(a, b):
        if not np.array_equal(x.final.counts, y.final.counts):
            return False
        for field in ("interactions", "rounds", "converged", "winner",
                      "budget_exhausted"):
            if getattr(x, field, None) != getattr(y, field, None):
                return False
    return len(a) == len(b)


def ring_edges(n):
    pairs = set()
    for i in range(n):
        for d in (-1, 1):
            pairs.add((i, (i + d) % n))
            pairs.add(((i + d) % n, i))
    return np.array(sorted(pairs), dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class TracedRunResult(RunResult):
    """RunResult subclass a fixed-width record would flatten."""

    trace_marker: str = "kept"


class TracingBackend:
    """Custom backend returning RunResult subclasses (pickle-safe)."""

    name = "tracing-test-backend"

    def simulate(self, config, *, rng, max_interactions=None, observer=None):
        base = fast_simulate(
            config, rng=rng, max_interactions=max_interactions, observer=observer
        )
        fields = {f.name: getattr(base, f.name) for f in dataclasses.fields(base)}
        return TracedRunResult(**fields)


class TestEventBlockInvariance:
    CONFIG = Configuration.from_supports([60, 40, 25], undecided=15)

    def _run(self, block, **kwargs):
        return simulate_batch(
            self.CONFIG, rngs=rngs_for(7, 24), event_block=block, **kwargs
        )

    def test_usd_bit_identical_across_blocks(self):
        reference = self._run(1)
        for block in (2, 5, 16, 64):
            assert results_equal(reference, self._run(block)), block

    def test_stream_buffer_never_changes_results(self):
        reference = simulate_batch(self.CONFIG, rngs=rngs_for(7, 8))
        for buffer in (8, 34, 1024):
            got = lockstep_batch(
                self.CONFIG.counts,
                np.zeros(self.CONFIG.k, dtype=np.int64),
                self.CONFIG.n,
                rngs=rngs_for(7, 8),
                max_interactions=10**9,
                stream_buffer=buffer,
            )
            for i, r in enumerate(reference):
                assert np.array_equal(got[0][i], r.final.counts)
                assert got[1][i] == r.interactions

    def test_zealot_bit_identical_across_blocks(self):
        config = Configuration.from_supports([40, 20])
        reference = simulate_zealots_batch(
            config, [0, 4], rngs=rngs_for(3, 12),
            max_interactions=40_000, event_block=1,
        )
        for block in (3, 32):
            got = simulate_zealots_batch(
                config, [0, 4], rngs=rngs_for(3, 12),
                max_interactions=40_000, event_block=block,
            )
            assert results_equal(reference, got), block

    def test_batch_width_invariance_with_blocks(self):
        wide = self._run(16)
        narrow = []
        for i in range(0, 24, 5):
            narrow.extend(
                simulate_batch(
                    self.CONFIG,
                    rngs=[
                        np.random.default_rng(s)
                        for s in replicate_seeds(7, 24)[i : i + 5]
                    ],
                    event_block=16,
                )
            )
        assert results_equal(wide, narrow)

    def test_matches_single_event_kernel_distribution(self):
        config = uniform_configuration(400, 3)
        multi = simulate_batch(config, rngs=rngs_for(11, 60))
        single = simulate_batch_single_event(config, rngs=rngs_for(11, 60))
        m = np.mean([r.interactions for r in multi])
        s = np.mean([r.interactions for r in single])
        assert 0.8 < m / s < 1.25
        assert abs(
            np.mean([r.winner == 1 for r in multi])
            - np.mean([r.winner == 1 for r in single])
        ) < 0.3

    def test_budget_and_absorbing_edges(self):
        capped = simulate_batch(
            self.CONFIG, rngs=rngs_for(1, 4), max_interactions=500, event_block=8
        )
        assert all(r.interactions == 500 and r.budget_exhausted for r in capped)
        consensus = simulate_batch(
            Configuration.from_supports([30, 0]), rngs=rngs_for(1, 2)
        )
        assert all(
            r.converged and r.winner == 1 and r.interactions == 0
            for r in consensus
        )
        undecided = simulate_batch(
            Configuration.from_supports([0, 0], undecided=20), rngs=rngs_for(1, 2)
        )
        assert all(
            not r.converged and not r.budget_exhausted and r.interactions == 0
            for r in undecided
        )

    def test_event_block_option_plumbing(self, monkeypatch):
        # event_block is a kernel parameter defaulting to the constant,
        # not an engine option: the environment does not reach it, and a
        # session refuses it with the error listing its real options.
        want = simulate_batch(
            self.CONFIG, rngs=rngs_for(3, 4), event_block=DEFAULT_EVENT_BLOCK
        )
        monkeypatch.setenv("REPRO_ENGINE_EVENT_BLOCK", "0")
        assert results_equal(simulate_batch(self.CONFIG, rngs=rngs_for(3, 4)), want)
        with pytest.raises(TypeError, match="available: .*'backend'"):
            Engine(event_block=32)

    def test_invalid_event_block_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(self.CONFIG, rngs=rngs_for(1, 2), event_block=0)


class TestPackedColumns:
    """Per-column inputs: several cells in one call, zero-padded to max k."""

    # (flexible counts, zealots, budget, seed, replicates); n includes
    # the zealots.  The 1_500 budget runs out mid-run (and mid-block)
    # while the other columns keep going.
    CELLS = (
        (Configuration.from_supports([70, 50]).counts, [0, 0], 10**7, 1, 3),
        (uniform_configuration(300, 3).counts, [0, 0, 0], 10**7, 2, 4),
        (uniform_configuration(120, 8).counts, [0] * 8, 10**7, 3, 3),
        (uniform_configuration(200, 3).counts, [0, 0, 0], 1_500, 4, 2),
        (Configuration.from_supports([40, 30, 20]).counts, [0, 4, 1], 60_000, 5, 3),
        (Configuration.from_supports([50, 30]).counts, [3, 0], 40_000, 6, 2),
    )

    def per_cell(self, block=None):
        return [
            lockstep_batch(
                counts, zealots, int(counts.sum() + sum(zealots)),
                rngs=rngs_for(seed, width), max_interactions=budget,
                event_block=block,
            )
            for counts, zealots, budget, seed, width in self.CELLS
        ]

    def packed(self, block=None):
        K = max(len(zealots) for _, zealots, *_ in self.CELLS)
        counts, zealots, ns, budgets, rngs = [], [], [], [], []
        for cell_counts, cell_zealots, budget, seed, width in self.CELLS:
            k = len(cell_zealots)
            for _ in range(width):
                counts.append(np.pad(cell_counts, (0, K - k)))
                zealots.append(np.pad(cell_zealots, (0, K - k)))
                ns.append(int(cell_counts.sum() + sum(cell_zealots)))
                budgets.append(budget)
            rngs.extend(rngs_for(seed, width))
        return lockstep_batch(
            np.array(counts), np.array(zealots), np.array(ns),
            rngs=rngs, max_interactions=np.array(budgets), event_block=block,
        )

    @pytest.mark.parametrize("block", [1, 16])
    def test_packed_bit_identical_to_per_cell(self, block):
        final, interactions, exhausted = self.packed(block)
        start = 0
        for (counts, *_), (want_final, want_inter, want_exh) in zip(
            self.CELLS, self.per_cell(block)
        ):
            stop = start + len(want_inter)
            k = counts.size - 1
            assert np.array_equal(final[start:stop, : k + 1], want_final)
            assert not final[start:stop, k + 1 :].any()
            assert np.array_equal(interactions[start:stop], want_inter)
            assert np.array_equal(exhausted[start:stop], want_exh)
            start = stop
        # The mix really exercises both retirements side by side.
        assert exhausted.any() and not exhausted.all()
        assert exhausted[10:12].all() and (interactions[10:12] == 1_500).all()

    def test_n_squared_bound_rejected(self):
        # 94_906_265^2 < 2^53 <= 94_906_266^2.  A zero budget retires
        # every column at once, so the in-range call returns immediately.
        edge = 94_906_265
        counts = np.array([0, edge - 1, 1])
        final, interactions, exhausted = lockstep_batch(
            counts, [0, 0], edge, rngs=rngs_for(1, 1), max_interactions=0
        )
        assert interactions[0] == 0 and exhausted[0]
        with pytest.raises(ValueError, match="2\\^53"):
            lockstep_batch(
                counts + [0, 1, 0], [0, 0], edge + 1,
                rngs=rngs_for(1, 1), max_interactions=0,
            )
        # One offending column is enough.
        with pytest.raises(ValueError, match="2\\^53"):
            lockstep_batch(
                np.array([[0, 5, 5], [0, edge, 1]]), [0, 0], [10, edge + 1],
                rngs=rngs_for(1, 2), max_interactions=0,
            )

    def test_budget_bounds_rejected_per_column(self):
        counts = uniform_configuration(40, 2).counts
        for budget in ([10, -1], [10, 2**53]):
            with pytest.raises(ValueError, match="max_interactions"):
                lockstep_batch(
                    counts, [0, 0], 40, rngs=rngs_for(1, 2),
                    max_interactions=np.array(budget),
                )

    def test_packed_chunk_demux_rejects_nonzero_padding(self, monkeypatch):
        from repro.engine import scenarios
        from repro.engine.scenarios import PackedChunk

        def corrupted(*args, **kwargs):
            final, interactions, exhausted = lockstep_batch(*args, **kwargs)
            final[:, -1] = 1
            return final, interactions, exhausted

        packed = PackedChunk(
            (
                (usd_spec(uniform_configuration(60, 2)), 2, None),
                (usd_spec(uniform_configuration(60, 3)), 1, None),
            )
        )
        usd = get_scenario("usd")
        assert len(usd.run_chunk(packed, "batched", rngs_for(1, 3), None)) == 3
        monkeypatch.setattr(scenarios, "lockstep_batch", corrupted)
        with pytest.raises(RuntimeError, match="padded opinion"):
            usd.run_chunk(packed, "batched", rngs_for(1, 3), None)


@st.composite
def packed_batches(draw):
    """A packed lockstep call: mixed k with padding, n, zealots, budgets."""
    width = draw(st.integers(1, 10))
    K = draw(st.integers(1, 5))
    counts, zealots, ns, budgets = [], [], [], []
    for _ in range(width):
        k = draw(st.integers(1, K))
        supports = draw(st.lists(st.integers(0, 80), min_size=k, max_size=k))
        undecided = draw(st.integers(0, 80))
        stubborn = draw(
            st.one_of(
                st.just([0] * k),
                st.lists(st.integers(0, 3), min_size=k, max_size=k),
            )
        )
        n = sum(supports) + undecided + sum(stubborn)
        # Zealots of two opinions never absorb: keep their budgets small.
        cap = 4_000 if any(stubborn) else 10**9
        budget = draw(st.one_of(st.just(0), st.integers(0, 3_000), st.just(cap)))
        counts.append([undecided, *supports] + [0] * (K - k))
        zealots.append(stubborn + [0] * (K - k))
        ns.append(n)
        budgets.append(budget)
    return {
        "counts": np.array(counts),
        "zealots": np.array(zealots),
        "n": np.array(ns),
        "max_interactions": np.array(budgets),
        "seed": draw(st.integers(0, 2**31)),
        "event_block": draw(st.sampled_from([1, 16])),
        "stream_buffer": draw(st.sampled_from([2, 6, 40, 256])),
    }


def run_packed_batch(batch, knee):
    kwargs = dict(batch)
    seed = kwargs.pop("seed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lockstep_module, "_SCALAR_KNEE", knee)
        return lockstep_batch(
            kwargs.pop("counts"), kwargs.pop("zealots"), kwargs.pop("n"),
            rngs=rngs_for(seed, len(batch["n"])), **kwargs,
        )


class TestScalarTail:
    """The narrow tail finished per column in Python equals the numpy kernel."""

    @pytest.mark.skipif(
        not lockstep_module._SCALAR_LOG1P_BITWISE,
        reason="scalar np.log1p differs from the array path: no hand-off here",
    )
    @settings(max_examples=30, deadline=None)
    @given(packed_batches(), st.sampled_from(["1", "8", "R"]))
    def test_hand_off_bit_identical_to_plain_kernel(self, batch, knee):
        plain = run_packed_batch(batch, knee=0)
        width = len(batch["n"])
        got = run_packed_batch(batch, knee=width if knee == "R" else int(knee))
        for want, have in zip(plain, got):
            assert want.dtype == have.dtype
            assert np.array_equal(want, have)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(packed_batches())
    def test_masked_reads_block_invariant(self, batch):
        # Plain numpy kernel: columns die mid-block while their
        # neighbours keep reading the block's gathered uniform rows.
        runs = [
            run_packed_batch({**batch, "event_block": block}, knee=0)
            for block in (1, 16, 40)
        ]
        for other in runs[1:]:
            for want, have in zip(runs[0], other):
                assert want.dtype == have.dtype
                assert np.array_equal(want, have)

    def test_whole_packed_mix_runs_scalar(self, monkeypatch):
        # Knee R on the packed mix: both retirements, zealots, padding.
        packed = TestPackedColumns()
        monkeypatch.setattr(lockstep_module, "_SCALAR_KNEE", 0)
        plain = packed.packed(16)
        monkeypatch.setattr(lockstep_module, "_SCALAR_KNEE", len(plain[1]))
        spy = self.spy(monkeypatch)
        scalar = packed.packed(16)
        if lockstep_module._SCALAR_LOG1P_BITWISE:
            assert spy.calls == len(plain[1])
        for want, have in zip(plain, scalar):
            assert np.array_equal(want, have)

    @staticmethod
    def spy(monkeypatch):
        original = lockstep_module._finish_column

        def counted(*args, **kwargs):
            counted.calls += 1
            return original(*args, **kwargs)

        counted.calls = 0
        monkeypatch.setattr(lockstep_module, "_finish_column", counted)
        return counted

    def test_probe_off_never_hands_off(self, monkeypatch):
        batch = {
            "counts": np.array([uniform_configuration(200, 3).counts] * 5),
            "zealots": np.zeros((5, 3), dtype=np.int64),
            "n": np.full(5, 200),
            "max_interactions": np.array([10**9, 10**9, 2_000, 0, 10**9]),
            "seed": 17,
            "event_block": 16,
            "stream_buffer": 40,
        }
        plain = run_packed_batch(batch, knee=0)
        monkeypatch.setattr(lockstep_module, "_SCALAR_LOG1P_BITWISE", False)
        spy = self.spy(monkeypatch)
        off = run_packed_batch(batch, knee=5)
        assert spy.calls == 0
        for want, have in zip(plain, off):
            assert np.array_equal(want, have)
        # With the probe passing, the same call does hand off.
        monkeypatch.undo()
        if lockstep_module._SCALAR_LOG1P_BITWISE:
            spy = self.spy(monkeypatch)
            on = run_packed_batch(batch, knee=5)
            assert spy.calls == 5
            for want, have in zip(plain, on):
                assert np.array_equal(want, have)


class TestPinnedTrajectories:
    """The kernel's outputs on one fixed packed batch, pinned by digest.

    Ensemble cache entries are keyed on inputs, not on the code, so a
    kernel edit that silently changed a trajectory would leave every
    stored entry stale without a ``CACHE_FORMAT`` bump.  The batch packs
    uniform k=3 columns (zero-padded to k=8) beside additive k=8 ones,
    one zealot column and one budget that runs out mid-block; more than
    ``_SCALAR_KNEE`` columns, so the default knee runs both phases.  A
    numpy build whose ``Generator.random`` or ``log1p`` rounds otherwise
    fails here too, and rightly: its cache entries would differ as well.
    """

    DIGESTS = (
        "abd536fcae44aa14559ffc78e72303795a49049c092d38500bb6e8938faa9222",
        "7940cfd369c81d5f3da48854e66d249a0425b69e102cd3577d2cac16d037679e",
        "f72461a8216763d00583147c20f4a66d76da59a822f5f8b226e805fa078a777e",
    )

    @staticmethod
    def batch():
        uniform = np.pad(uniform_configuration(240, 3).counts, (0, 5))
        additive = additive_bias_configuration(240, 8, 24).counts
        zealot = np.pad(uniform_configuration(200, 3).counts, (0, 5))
        counts = np.array([uniform] * 10 + [additive] * 9 + [zealot, uniform])
        zealots = np.zeros_like(counts[:, 1:])
        zealots[19, :3] = [0, 3, 1]
        budgets = np.array([10**9] * 19 + [30_000, 1_500])
        return counts, zealots, counts.sum(1) + zealots.sum(1), budgets

    @pytest.mark.parametrize("block", [1, 16])
    @pytest.mark.parametrize("knee", [0, lockstep_module._SCALAR_KNEE])
    def test_outputs_match_pinned_digests(self, monkeypatch, block, knee):
        counts, zealots, n, budgets = self.batch()
        monkeypatch.setattr(lockstep_module, "_SCALAR_KNEE", knee)
        outputs = lockstep_batch(
            counts, zealots, n, rngs=rngs_for(2024, len(n)),
            max_interactions=budgets, event_block=block,
        )
        final, interactions, exhausted = outputs
        assert exhausted.tolist() == [False] * 19 + [True, True]
        assert interactions[-1] == 1_500
        digests = tuple(
            hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for a in outputs
        )
        assert digests == self.DIGESTS


class TestGraphBatched:
    N = 48
    K = 3

    def setup_method(self):
        self.edges = ring_edges(self.N)
        rng = np.random.default_rng(0)
        self.states = rng.integers(0, self.K + 1, size=self.N)

    def test_bit_identical_to_serial_kernel(self):
        seeds = list(range(8))
        serial = [
            run_on_edges(
                self.edges, self.states, rng=np.random.default_rng(s), k=self.K
            )
            for s in seeds
        ]
        batch = run_on_edges_batch(
            self.edges,
            self.states,
            rngs=[np.random.default_rng(s) for s in seeds],
            k=self.K,
        )
        assert results_equal(serial, batch)

    def test_per_replicate_rows_and_budget(self):
        rows = np.stack(
            [np.random.default_rng(50 + s).permutation(self.states) for s in range(6)]
        )
        serial = [
            run_on_edges(
                self.edges, rows[i], rng=np.random.default_rng(i), k=self.K,
                max_interactions=300,
            )
            for i in range(6)
        ]
        batch = run_on_edges_batch(
            self.edges, rows, rngs=[np.random.default_rng(i) for i in range(6)],
            k=self.K, max_interactions=300,
        )
        assert results_equal(serial, batch)

    def test_scenario_batched_matches_reference(self):
        spec = graph_spec(self.edges, config=uniform_configuration(self.N, 2))
        reference = run_ensemble(spec, 6, seed=9, max_interactions=150_000)
        batched = run_ensemble(
            spec, 6, seed=9, backend="batched", max_interactions=150_000
        )
        assert results_equal(reference, batched)
        process = run_ensemble(
            spec, 6, seed=9, backend="batched", executor="process", jobs=2,
            max_interactions=150_000,
        )
        assert results_equal(reference, process)

    def test_row_count_must_match_replicates(self):
        rows = np.stack([self.states, self.states])
        with pytest.raises(ValueError):
            run_on_edges_batch(
                self.edges, rows,
                rngs=[np.random.default_rng(s) for s in range(3)], k=self.K,
            )


class TestGossipBatched:
    DECIDED = Configuration.from_supports([70, 60, 40])

    @pytest.mark.parametrize(
        "serial_rule,batch_rule,config",
        [
            (usd_gossip_round, usd_gossip_round_batch,
             uniform_configuration(150, 3)),
            (lambda s, r: j_majority_round(s, r, 1),
             lambda s, st: j_majority_round_batch(s, st, 1), DECIDED),
            (lambda s, r: j_majority_round(s, r, 2),
             lambda s, st: j_majority_round_batch(s, st, 2), DECIDED),
            (median_rule_round, median_rule_round_batch, DECIDED),
        ],
        ids=["usd", "voter", "two-choices", "median"],
    )
    def test_bit_identical_to_serial_engine(self, serial_rule, batch_rule, config):
        seeds = list(range(8))
        serial = [
            run_gossip(config, serial_rule, rng=np.random.default_rng(s))
            for s in seeds
        ]
        batch = run_gossip_batch(
            config, batch_rule, rngs=[np.random.default_rng(s) for s in seeds]
        )
        assert results_equal(serial, batch)

    def test_three_majority_matches_statistically(self):
        serial = [
            run_gossip(
                self.DECIDED,
                lambda s, r: j_majority_round(s, r, 3),
                rng=np.random.default_rng(s),
            )
            for s in range(24)
        ]
        batch = run_gossip_batch(
            self.DECIDED,
            lambda s, st: j_majority_round_batch(s, st, 3),
            rngs=[np.random.default_rng(s) for s in range(24)],
        )
        s_rounds = np.mean([r.rounds for r in serial])
        b_rounds = np.mean([r.rounds for r in batch])
        assert 0.5 < b_rounds / max(s_rounds, 1e-9) < 2.0
        assert all(r.converged for r in batch)

    def test_round_budget(self):
        config = uniform_configuration(200, 3)
        batch = run_gossip_batch(
            config, usd_gossip_round_batch,
            rngs=[np.random.default_rng(s) for s in range(4)], max_rounds=2,
        )
        serial = [
            run_gossip(
                config, usd_gossip_round,
                rng=np.random.default_rng(s), max_rounds=2,
            )
            for s in range(4)
        ]
        assert results_equal(serial, batch)
        assert all(r.rounds == 2 and r.budget_exhausted for r in batch)

    def test_scenario_batched_through_engine(self):
        spec = gossip_spec(uniform_configuration(150, 3))
        reference = run_ensemble(spec, 6, seed=2)
        batched = run_ensemble(spec, 6, seed=2, backend="batched")
        assert results_equal(reference, batched)
        narrow = run_ensemble(spec, 6, seed=2, backend="batched", batch_size=2)
        assert results_equal(reference, narrow)

    def test_index_stream_is_chunk_invariant(self):
        direct = np.random.default_rng(5).integers(0, 37, size=120)
        stream = IndexStream(np.random.default_rng(5), rounds=2)
        served = np.concatenate([stream.take(37, 15) for _ in range(8)])
        assert np.array_equal(direct, served)


class TestResultTransport:
    @pytest.fixture()
    def workloads(self):
        edges = ring_edges(40)
        return [
            (usd_spec(uniform_configuration(200, 3)), {}),
            (graph_spec(edges, config=uniform_configuration(40, 2)),
             {"max_interactions": 50_000}),
            (zealot_spec(uniform_configuration(120, 2), [0, 4]),
             {"max_interactions": 30_000, "backend": "batched"}),
            (noise_spec(uniform_configuration(100, 2), 0.02, 3_000),
             {"backend": "batched"}),
            (gossip_spec(uniform_configuration(150, 3)), {}),
        ]

    def test_process_records_equal_serial(self, workloads):
        # Process workers return record blocks for every built-in
        # scenario; decoding them must be invisible in the results.
        for spec, kwargs in workloads:
            serial = run_ensemble(spec, 5, seed=13, executor="serial", **kwargs)
            process = run_ensemble(
                spec, 5, seed=13, executor="process", jobs=2, **kwargs,
            )
            assert results_equal(serial, process), spec.scenario

    def test_record_codecs_roundtrip(self, workloads):
        for spec, kwargs in workloads:
            scenario = get_scenario(spec.scenario)
            assert scenario.record_transport
            results = run_ensemble(spec, 3, seed=1, executor="serial", **kwargs)
            ints = np.zeros(scenario.record_ints(spec), dtype=np.int64)
            floats = np.zeros(max(scenario.record_floats, 1), dtype=np.float64)
            for result in results:
                scenario.encode_record(spec, result, ints, floats)
                decoded = scenario.decode_record(spec, ints, floats)
                assert type(decoded) is type(result)
                assert np.array_equal(decoded.final.counts, result.final.counts)
                for field in ("interactions", "rounds", "converged", "winner",
                              "budget_exhausted", "max_plurality_fraction",
                              "tail_mean_plurality_fraction"):
                    assert getattr(decoded, field, None) == getattr(
                        result, field, None
                    ), (spec.scenario, field)

    def test_fallback_without_record_codec(self):
        # Workers, local or remote, return record blocks only, so a
        # scenario without a record codec runs on the serial executor,
        # also next to a record-codec cell in one sweep; the process and
        # remote executors refuse such a cell before they fork a worker,
        # probe the fleet or dispatch anything.
        import threading

        from repro.engine import (
            Engine,
            Scenario,
            SweepCell,
            SweepSpec,
            register_scenario,
            serve_worker,
        )
        from repro.engine.scenarios import _REGISTRY

        class NoCodec(Scenario):
            name = "no-codec"
            description = "scenario without a record codec"

            def reference(self, spec, *, rng, max_interactions=None):
                from repro.core.fastsim import simulate

                return simulate(
                    spec.config, rng=rng, max_interactions=max_interactions
                )

        register_scenario(NoCodec())
        try:
            spec = ScenarioSpec.create(
                "no-codec", Configuration.from_supports([30, 20])
            )
            sweep = SweepSpec(
                cells=(
                    SweepCell(spec=spec, trials=3),
                    SweepCell(spec=usd_spec(uniform_configuration(40, 2)), trials=3),
                )
            )
            with Engine(cache=False) as eng:
                serial = eng.sweep(sweep, seed=7, executor="serial")
                with pytest.raises(ValueError, match="'no-codec'.*'reference'"):
                    eng.ensemble(spec, 3, seed=5, executor="process", jobs=2)
                with pytest.raises(ValueError, match="on the serial executor$"):
                    eng.sweep(sweep, seed=7, executor="process", jobs=2)
                assert eng.worker_pids() == ()
                assert eng.stats()["transport"]["pickle"]["chunks"] == 0
                pool = eng.worker_pool()
                threading.Thread(
                    target=serve_worker,
                    args=(pool.endpoint,),
                    kwargs={"name": "no-codec-worker"},
                    daemon=True,
                ).start()
                pool.wait_for_workers(1, timeout=15)
                with pytest.raises(ValueError, match="'no-codec'.*'reference'"):
                    eng.ensemble(spec, 3, seed=5, executor="remote")
                with pytest.raises(ValueError, match="no record codec"):
                    eng.sweep(sweep, seed=7, executor="remote")
                assert pool.chunks_dispatched == 0
                assert pool.cache_stats()["probed"] == 0
            assert [len(cell.results) for cell in serial.cells] == [3, 3]
        finally:
            _REGISTRY.pop("no-codec", None)

    def test_custom_backend_subclass_results_survive_process_runs(self):
        # A custom registered backend may return a RunResult subclass;
        # the record codec would flatten it, so the USD scenario vetoes
        # record blocks for that variant: it runs whole on the serial
        # executor, and the process executor refuses it.
        from repro.engine import get_scenario, register_backend
        from repro.engine.backends import _REGISTRY as _BACKENDS

        register_backend(TracingBackend())
        try:
            assert not get_scenario("usd").record_transport_for(
                "tracing-test-backend"
            )
            assert get_scenario("usd").record_transport_for("batched")
            results = run_ensemble(
                uniform_configuration(60, 2), 3, seed=2,
                backend="tracing-test-backend", executor="serial",
            )
            assert all(r.trace_marker == "kept" for r in results)
            with pytest.raises(ValueError, match="no record codec"):
                run_ensemble(
                    uniform_configuration(60, 2), 3, seed=2,
                    backend="tracing-test-backend", executor="process", jobs=2,
                )
        finally:
            _BACKENDS.pop("tracing-test-backend", None)

    def test_sweep_cli_rejects_event_block(self):
        # The kernel block size is no CLI flag on any simulating command.
        from repro.cli import build_parser

        for command in (["simulate"], ["sweep", "--param", "n=40"]):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([*command, "--event-block", "7"])
            assert info.value.code == 2
