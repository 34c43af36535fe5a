"""Compiled kernel tier: bit-identity, fallback, crossval, stream buffers.

Covers the four promises the ``"compiled"`` tier makes:

* **Kernel fidelity** — every jitted kernel body (lockstep, graph
  edges, all five gossip round rules) reproduces its numpy counterpart
  on the same pre-drawn randomness.  These tests force the plain-Python
  kernel bodies (``_force_kernel=True`` / direct calls), so the
  no-numba CI leg still executes every kernel line.
* **Transparent fallback** — without numba the public compiled entry
  points delegate to the numpy kernels bit-for-bit, so ``"compiled"``
  is always safe to request.
* **Cross-validation gates** — the shared :mod:`repro.core.crossval`
  helper (used by both this suite and the ablation benchmark) passes
  same-process ensembles and fails distinguishable ones.
* **Stream-buffer plumbing** — ``stream_buffer`` is a kernel parameter
  with a constant default that never changes results; no engine option,
  environment variable or CLI flag reaches it.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import UNDECIDED, Configuration
from repro.core.crossval import (
    DEFAULT_ALPHA,
    chi2_winners,
    compare_ensembles,
    ks_times,
)
from repro.core.lockstep import lockstep_batch
from repro.engine import (
    EngineOptions,
    active_options,
    engine,
    get_scenario,
    gossip_spec,
    noise_spec,
    replicate_seeds,
    run_ensemble,
    usd_spec,
    zealot_spec,
)
from repro.gossip.engine import BatchedDraws, IndexStream
from repro.gossip.jmajority import j_majority_round_batch
from repro.gossip.median import median_rule_round_batch
from repro.gossip.usd import usd_gossip_round_batch
from repro.graphs.dynamics import run_on_edges, run_on_edges_batch
from repro.kernels import HAVE_NUMBA, LOG1P_BITWISE
from repro.kernels.gossip_jit import (
    _median_round,
    _three_majority_round,
    _two_choices_round,
    _usd_round,
    _voter_round,
    j_majority_round_batch_compiled,
    median_rule_round_batch_compiled,
    usd_gossip_round_batch_compiled,
)
from repro.kernels.graph_jit import run_on_edges_batch_compiled
from repro.kernels.lockstep_jit import lockstep_batch_compiled
from repro.workloads import uniform_configuration


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


#: The lockstep tiers are bit-identical unless numba routes ``log1p``
#: through libm while numpy's build disagrees bitwise (without numba the
#: compiled entry point *is* the numpy kernel, so identity is trivial).
LOCKSTEP_BITWISE = (not HAVE_NUMBA) or LOG1P_BITWISE


class QueueDraws:
    """A BatchedDraws stand-in serving pre-built draw arrays.

    Lets a numpy round rule and the matching compiled kernel body
    consume the *same* arrays, so their outputs can be compared exactly
    without touching generator state.
    """

    def __init__(self, takes=(), schedules=()):
        self._takes = list(takes)
        self._schedules = list(schedules)

    def take(self, high, count):
        return self._takes.pop(0)

    def take_schedule(self, schedule):
        return self._schedules.pop(0)


class TestLockstepCompiled:
    N = 40
    K = 2

    def _run(self, fn, seed, replicates=8, budget=10**7, **kw):
        counts = uniform_configuration(self.N, self.K).counts
        zeal = np.zeros(self.K, dtype=np.int64)
        return fn(
            counts, zeal, self.N,
            rngs=rngs_for(seed, replicates), max_interactions=budget, **kw,
        )

    def test_forced_kernel_counts_bit_identical(self):
        # Event *selection* consumes only exact arithmetic on the shared
        # uniforms, so final counts match bitwise even when the log1p
        # waiting-time channel diverges; interactions match bitwise only
        # when the host's np.log1p agrees with libm.
        ref_c, ref_i, ref_x = self._run(lockstep_batch, seed=7)
        cmp_c, cmp_i, cmp_x = self._run(
            lockstep_batch_compiled, seed=7, _force_kernel=True
        )
        assert np.array_equal(ref_c, cmp_c)
        assert np.array_equal(ref_x, cmp_x)
        if LOG1P_BITWISE:
            assert np.array_equal(ref_i, cmp_i)

    def test_forced_kernel_times_crossvalidate(self):
        # The one channel allowed to diverge (geometric skips) must
        # still agree in distribution — the gate the ablation harness
        # applies when LOG1P_BITWISE is false.
        _, ref_i, _ = self._run(lockstep_batch, seed=11, replicates=120)
        _, cmp_i, _ = self._run(
            lockstep_batch_compiled, seed=11, replicates=120, _force_kernel=True
        )
        _, pvalue = ks_times(ref_i, cmp_i)
        assert pvalue >= DEFAULT_ALPHA

    def test_forced_kernel_buffer_and_block_invariance(self):
        base_c, base_i, base_x = self._run(
            lockstep_batch_compiled, seed=3, _force_kernel=True
        )
        for kw in (
            {"stream_buffer": 8},
            {"stream_buffer": 1024},
            {"event_block": 1},
            {"event_block": 7, "stream_buffer": 32},
        ):
            c, i, x = self._run(
                lockstep_batch_compiled, seed=3, _force_kernel=True, **kw
            )
            assert np.array_equal(base_c, c)
            assert np.array_equal(base_i, i)
            assert np.array_equal(base_x, x)

    def test_forced_kernel_budget_exhaustion(self):
        c, i, x = self._run(
            lockstep_batch_compiled, seed=5, budget=50, _force_kernel=True
        )
        assert x.any()
        assert np.all(i[x] == 50)
        assert np.all(i <= 50)
        assert np.all(c.sum(axis=1) == self.N)

    @pytest.mark.skipif(HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_fallback_is_the_numpy_kernel(self):
        ref = self._run(lockstep_batch, seed=13)
        fall = self._run(lockstep_batch_compiled, seed=13)
        for a, b in zip(ref, fall):
            assert np.array_equal(a, b)

    def test_empty_batch(self):
        counts = uniform_configuration(self.N, self.K).counts
        c, i, x = lockstep_batch_compiled(
            counts, np.zeros(self.K, dtype=np.int64), self.N,
            rngs=[], max_interactions=10**6, _force_kernel=True,
        )
        assert c.shape == (0, self.K + 1) and i.size == 0 and x.size == 0

    def test_bad_event_block_rejected(self):
        with pytest.raises(ValueError):
            self._run(lockstep_batch_compiled, seed=0, event_block=0,
                      _force_kernel=True)


class TestGraphCompiled:
    N = 36
    K = 3

    def setup_method(self):
        self.edges = ring_edges(self.N)
        rng = np.random.default_rng(2)
        self.states = rng.integers(0, self.K + 1, size=self.N)

    def test_forced_kernel_bit_identical_to_numpy_batch(self):
        batch = run_on_edges_batch(
            self.edges, self.states,
            rngs=[np.random.default_rng(s) for s in range(6)], k=self.K,
        )
        compiled = run_on_edges_batch_compiled(
            self.edges, self.states,
            rngs=[np.random.default_rng(s) for s in range(6)], k=self.K,
            _force_kernel=True,
        )
        assert results_equal(batch, compiled)

    def test_forced_kernel_bit_identical_to_serial(self):
        serial = [
            run_on_edges(self.edges, self.states,
                         rng=np.random.default_rng(s), k=self.K)
            for s in range(4)
        ]
        compiled = run_on_edges_batch_compiled(
            self.edges, self.states,
            rngs=[np.random.default_rng(s) for s in range(4)], k=self.K,
            _force_kernel=True,
        )
        assert results_equal(serial, compiled)

    def test_forced_kernel_budget_and_per_row_states(self):
        rows = np.stack(
            [np.random.default_rng(40 + s).permutation(self.states)
             for s in range(5)]
        )
        batch = run_on_edges_batch(
            self.edges, rows, rngs=[np.random.default_rng(s) for s in range(5)],
            k=self.K, max_interactions=200,
        )
        compiled = run_on_edges_batch_compiled(
            self.edges, rows, rngs=[np.random.default_rng(s) for s in range(5)],
            k=self.K, max_interactions=200, _force_kernel=True,
        )
        assert results_equal(batch, compiled)

    def test_forced_kernel_zero_budget_and_preconverged(self):
        done = np.full(self.N, 1, dtype=np.int64)
        out = run_on_edges_batch_compiled(
            self.edges, done, rngs=[np.random.default_rng(0)], k=self.K,
            _force_kernel=True,
        )
        assert out[0].converged and out[0].interactions == 0
        capped = run_on_edges_batch_compiled(
            self.edges, self.states, rngs=[np.random.default_rng(0)], k=self.K,
            max_interactions=0, _force_kernel=True,
        )
        assert capped[0].budget_exhausted

    @pytest.mark.skipif(HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_fallback_is_the_numpy_kernel(self):
        batch = run_on_edges_batch(
            self.edges, self.states,
            rngs=[np.random.default_rng(s) for s in range(3)], k=self.K,
        )
        fall = run_on_edges_batch_compiled(
            self.edges, self.states,
            rngs=[np.random.default_rng(s) for s in range(3)], k=self.K,
        )
        assert results_equal(batch, fall)


class TestGossipKernelBodies:
    """Each jitted round body vs its numpy rule on identical draws."""

    R, N, K = 5, 30, 3

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.rng = rng
        self.states = rng.integers(0, self.K + 1, size=(self.R, self.N))

    def _partners(self):
        return self.rng.integers(0, self.N, size=(self.R, self.N))

    def test_usd_round(self):
        partners = self._partners()
        expected = usd_gossip_round_batch(self.states, QueueDraws([partners]))
        out = np.empty_like(self.states)
        _usd_round(self.states, partners, out, UNDECIDED)
        assert np.array_equal(expected, out)

    def test_voter_round(self):
        picks = self._partners()
        expected = j_majority_round_batch(self.states, QueueDraws([picks]), 1)
        out = np.empty_like(self.states)
        _voter_round(self.states, picks, out)
        assert np.array_equal(expected, out)

    def test_two_choices_round(self):
        first, second = self._partners(), self._partners()
        expected = j_majority_round_batch(
            self.states, QueueDraws([first, second]), 2
        )
        out = np.empty_like(self.states)
        _two_choices_round(self.states, first, second, out)
        assert np.array_equal(expected, out)

    def test_three_majority_round(self):
        idx = self.rng.integers(0, self.N, size=(self.R, 3 * self.N))
        tie = self.rng.integers(0, 3, size=(self.R, self.N))
        expected = j_majority_round_batch(
            self.states, QueueDraws(schedules=[(idx, tie)]), 3
        )
        out = np.empty_like(self.states)
        _three_majority_round(self.states, idx, tie, out)
        assert np.array_equal(expected, out)

    def test_median_round(self):
        first, second = self._partners(), self._partners()
        expected = median_rule_round_batch(
            self.states, QueueDraws([first, second])
        )
        out = np.empty_like(self.states)
        _median_round(self.states, first, second, out)
        assert np.array_equal(expected, out)

    @pytest.mark.skipif(HAVE_NUMBA, reason="fallback path needs numba absent")
    def test_public_rules_delegate_without_numba(self):
        def draws():
            return BatchedDraws(
                [IndexStream(np.random.default_rng(100 + r), rounds=4)
                 for r in range(self.R)]
            )

        pairs = [
            (usd_gossip_round_batch_compiled, usd_gossip_round_batch),
            (lambda s, d: j_majority_round_batch_compiled(s, d, 3),
             lambda s, d: j_majority_round_batch(s, d, 3)),
            (median_rule_round_batch_compiled, median_rule_round_batch),
        ]
        for compiled, reference in pairs:
            assert np.array_equal(
                compiled(self.states, draws()),
                reference(self.states, draws()),
            )


class TestTakeSchedule:
    def test_matches_serial_call_order_across_prefetch(self):
        # take_schedule must consume each generator exactly as the
        # serial rule would: per round, 3n sample draws then n
        # tie-breaks — including across prefetch-block boundaries.
        n, rounds = 12, 5
        draws = BatchedDraws(
            [IndexStream(np.random.default_rng(s), rounds=2) for s in range(3)],
            prefetch=2,
        )
        serial = [np.random.default_rng(s) for s in range(3)]
        for _ in range(rounds):
            idx, tie = draws.take_schedule(((n, 3 * n), (3, n)))
            for r, rng in enumerate(serial):
                assert np.array_equal(idx[r], rng.integers(0, n, size=3 * n))
                assert np.array_equal(tie[r], rng.integers(0, 3, size=n))


class TestGossipScenarioCompiled:
    CONFIG = Configuration.from_supports([40, 30, 20])

    @pytest.mark.parametrize(
        "rule", ["usd", "voter", "two-choices", "three-majority", "median"]
    )
    def test_compiled_matches_batched_and_serial(self, rule):
        spec = gossip_spec(self.CONFIG, rule=rule, max_rounds=400)
        reference = run_ensemble(spec, 6, seed=21, executor="serial")
        batched = run_ensemble(
            spec, 6, seed=21, backend="batched", executor="serial"
        )
        compiled = run_ensemble(
            spec, 6, seed=21, backend="compiled", executor="serial"
        )
        # All rules — including three-majority, whose draws now flow
        # through take_schedule — are bit-identical across all tiers.
        assert results_equal(reference, batched)
        assert results_equal(batched, compiled)


class TestCompiledVariantResolution:
    def test_scenarios_advertise_compiled(self):
        # usd resolves variants through the backend registry (where
        # CompiledBackend is registered); the others carry their own
        # compiled chunk runner.
        for name in ("usd", "zealots", "graph", "gossip"):
            scenario = get_scenario(name)
            assert "compiled" in scenario.variants()
            assert scenario.variant("compiled") == "compiled"
        for name in ("zealots", "graph", "gossip"):
            assert get_scenario(name).has_compiled

    def test_noise_degrades_to_batched(self):
        noise = get_scenario("noise")
        assert not noise.has_compiled
        assert noise.variant("compiled") == "batched"
        assert "compiled" not in noise.variants()

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(ValueError):
            get_scenario("usd").variant("turbo")

    def test_record_transport_covers_compiled(self):
        assert get_scenario("usd").record_transport_for("compiled")

    def test_usd_compiled_ensemble_matches_batched(self):
        config = uniform_configuration(60, 2)
        batched = run_ensemble(
            config, 8, seed=4, backend="batched", executor="serial"
        )
        compiled = run_ensemble(
            config, 8, seed=4, backend="compiled", executor="serial"
        )
        if LOCKSTEP_BITWISE:
            assert results_equal(batched, compiled)
        else:  # pragma: no cover - host-dependent log1p divergence
            assert np.array_equal(
                [r.final.counts for r in batched],
                [r.final.counts for r in compiled],
            )
            report = compare_ensembles(batched, compiled, k=2)
            assert report.ok

    def test_zealot_compiled_ensemble_matches_batched(self):
        spec = zealot_spec(uniform_configuration(50, 2), [0, 5])
        batched = run_ensemble(
            spec, 6, seed=17, backend="batched", executor="serial"
        )
        compiled = run_ensemble(
            spec, 6, seed=17, backend="compiled", executor="serial"
        )
        if LOCKSTEP_BITWISE:
            assert results_equal(batched, compiled)
        else:  # pragma: no cover - host-dependent log1p divergence
            assert np.array_equal(
                [r.final.counts for r in batched],
                [r.final.counts for r in compiled],
            )

    def test_noise_compiled_ensemble_equals_batched_exactly(self):
        spec = noise_spec(uniform_configuration(40, 2), 0.01, 5_000)
        batched = run_ensemble(
            spec, 4, seed=9, backend="batched", executor="serial"
        )
        compiled = run_ensemble(
            spec, 4, seed=9, backend="compiled", executor="serial"
        )
        assert results_equal(batched, compiled)


@dataclasses.dataclass(frozen=True)
class FakeResult:
    interactions: int
    winner: int | None


def _fake_ensemble(rng, size, scale, k=2, winner_bias=None):
    times = rng.geometric(1.0 / scale, size=size)
    if winner_bias is None:
        winners = rng.integers(1, k + 1, size=size)
    else:
        winners = rng.choice(
            np.arange(1, k + 1), p=winner_bias, size=size
        )
    return [FakeResult(int(t), int(w)) for t, w in zip(times, winners)]


class TestCrossval:
    def test_same_distribution_passes(self):
        rng = np.random.default_rng(42)
        a = _fake_ensemble(rng, 300, 500.0)
        b = _fake_ensemble(rng, 300, 500.0)
        report = compare_ensembles(a, b, k=2)
        assert report.ok and report["passed"]
        assert report["chi2_pvalue"] is not None

    def test_shifted_times_fail(self):
        rng = np.random.default_rng(43)
        a = _fake_ensemble(rng, 400, 500.0)
        b = _fake_ensemble(rng, 400, 1500.0)
        assert not compare_ensembles(a, b, k=2).ok

    def test_skewed_winners_fail(self):
        rng = np.random.default_rng(44)
        a = _fake_ensemble(rng, 400, 500.0, winner_bias=[0.5, 0.5])
        b = _fake_ensemble(rng, 400, 500.0, winner_bias=[0.95, 0.05])
        report = compare_ensembles(a, b, k=2)
        assert not report.ok
        # ... but skipping the winner gate passes on the (shared) times.
        assert compare_ensembles(a, b, k=2, compare_winners=False).ok

    def test_report_is_json_friendly(self):
        import json

        rng = np.random.default_rng(45)
        a = _fake_ensemble(rng, 100, 200.0)
        report = compare_ensembles(a, a, k=2)
        assert json.loads(json.dumps(report)) == dict(report)

    def test_ks_times_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_times([], [1.0])

    def test_chi2_no_winner_bucket_and_vacuous_pass(self):
        # None / -1 / 0 all land in the no-winner bucket.
        stat, p = chi2_winners([None, -1, 0], [0, None, -1], k=3)
        assert (stat, p) == (0.0, 1.0)
        stat, p = chi2_winners([1, 1, None], [1, None, None], k=3)
        assert p > 0


class TestStreamBufferPlumbing:
    def test_options_default_and_validation(self):
        # A kernel parameter, not an engine option: the session refuses
        # it with the error that lists the options it does have.
        assert "stream_buffer" not in EngineOptions.resolve().as_dict()
        with pytest.raises(TypeError, match="available: .*'backend'"):
            with engine(stream_buffer=8):
                pass
        with pytest.raises(TypeError, match="unknown engine option"):
            EngineOptions.resolve(stream_buffer=8)

    def test_env_override(self, monkeypatch):
        # The kernel constant is not overridable from the environment: a
        # stale variable neither fails resolution nor moves a result.
        counts = uniform_configuration(30, 2).counts
        zeal = np.zeros(2, dtype=np.int64)

        def run():
            return lockstep_batch(
                counts, zeal, 30, rngs=rngs_for(4, 3), max_interactions=10**6
            )

        want = run()
        monkeypatch.setenv("REPRO_ENGINE_STREAM_BUFFER", "-4")
        EngineOptions.resolve()
        for a, b in zip(want, run()):
            assert np.array_equal(a, b)

    def test_engine_defaults_round_trip(self):
        # The diagnostics snapshot (what benchmark records store as
        # "engine_defaults") rebuilds the options it was taken from.
        with engine(backend="batched", jobs=2, cache_max_bytes=4096):
            snapshot = active_options().as_dict()
        assert snapshot["backend"] == "batched"
        assert snapshot["executor"] == "process"
        assert EngineOptions(**snapshot) == EngineOptions(
            backend="batched", jobs=2, cache_max_bytes=4096
        )

    def test_cli_flag(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["simulate", "--stream-buffer", "64"])
        assert info.value.code == 2

    def test_numpy_kernel_buffer_invariance(self):
        counts = uniform_configuration(30, 2).counts
        zeal = np.zeros(2, dtype=np.int64)
        runs = [
            lockstep_batch(
                counts, zeal, 30, rngs=rngs_for(6, 5),
                max_interactions=10**6, stream_buffer=buf,
            )
            for buf in (16, 256, 2048)
        ]
        for other in runs[1:]:
            for a, b in zip(runs[0], other):
                assert np.array_equal(a, b)
