"""Tests for the simulation engine: registry, batched backend, executors."""

import numpy as np
import pytest

from repro.analysis.convergence import run_trials
from repro.core.config import Configuration
from repro.core.fastsim import cumulative_weights, pick_event
from repro.engine import (
    EngineOptions,
    active_options,
    available_backends,
    get_backend,
    register_backend,
    replicate_seeds,
    run_ensemble,
    supports_batch,
)
from repro.engine.batched import simulate_batch


def results_key(results):
    return [
        (r.interactions, r.winner, r.converged, tuple(r.final.counts.tolist()))
        for r in results
    ]


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in ("agents", "jump", "batched"):
            assert name in names

    def test_get_by_name(self):
        assert get_backend("jump").name == "jump"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("nope")

    def test_instance_passthrough(self):
        backend = get_backend("agents")
        assert get_backend(backend) is backend

    def test_register_custom_backend(self):
        class EchoBackend:
            name = "echo-test"

            def simulate(self, config, *, rng, max_interactions=None, observer=None):
                return get_backend("jump").simulate(
                    config,
                    rng=rng,
                    max_interactions=max_interactions,
                    observer=observer,
                )

        register_backend(EchoBackend())
        try:
            assert "echo-test" in available_backends()
            config = Configuration.from_supports([20, 10])
            result = run_ensemble(config, 2, seed=1, backend="echo-test")
            assert len(result) == 2
        finally:
            from repro.engine import backends as backends_module

            backends_module._REGISTRY.pop("echo-test", None)

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("jump"))

    def test_batch_capability(self):
        assert supports_batch(get_backend("batched"))
        assert not supports_batch(get_backend("jump"))
        assert not supports_batch(get_backend("agents"))

    def test_default_backend_is_jump(self):
        assert active_options().backend == "jump"


class TestSeedDerivation:
    def test_matches_legacy_spawn(self):
        # The engine's per-replicate seeds must equal the historical
        # SeedSequence(seed).spawn(trials) derivation so that pre-engine
        # ensembles reproduce bit-for-bit.
        ours = replicate_seeds(99, 5)
        legacy = np.random.SeedSequence(99).spawn(5)
        for a, b in zip(ours, legacy):
            assert a.entropy == b.entropy
            assert a.spawn_key == b.spawn_key

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            replicate_seeds(1, 0)


class TestWeightHelpers:
    def test_pick_event_scalar_matches_searchsorted(self):
        weights = np.array([3.0, 0.0, 5.0, 2.0])
        cumulative = cumulative_weights(weights)
        for target in (0.0, 2.9, 3.0, 7.9, 8.0, 9.9):
            assert pick_event(cumulative, target) == int(
                np.searchsorted(cumulative, target, side="right")
            )

    def test_pick_event_rows(self):
        weights = np.array([[1.0, 1.0, 2.0], [4.0, 0.0, 1.0]])
        cumulative = cumulative_weights(weights)
        picked = pick_event(cumulative, np.array([1.5, 3.9]))
        assert picked.tolist() == [1, 0]

    def test_pick_event_clips_to_last_index(self):
        cumulative = cumulative_weights(np.array([2.0, 2.0]))
        assert pick_event(cumulative, 4.0) == 1


class TestBatchedBackend:
    def test_single_replicate_matches_batch(self):
        config = Configuration.from_supports([25, 15, 10])
        seeds = replicate_seeds(7, 6)
        batch = simulate_batch(
            config, rngs=[np.random.default_rng(s) for s in seeds]
        )
        solos = [
            simulate_batch(config, rngs=[np.random.default_rng(s)])[0]
            for s in seeds
        ]
        assert results_key(batch) == results_key(solos)

    def test_batch_width_invariance(self):
        config = Configuration.from_supports([30, 20], undecided=10)
        runs = {
            width: run_ensemble(
                config, 9, seed=13, backend="batched", batch_size=width
            )
            for width in (1, 4, 9)
        }
        keys = {width: results_key(r) for width, r in runs.items()}
        assert keys[1] == keys[4] == keys[9]

    def test_budget_exhaustion(self):
        config = Configuration.from_supports([200, 200])
        results = run_ensemble(
            config, 3, seed=2, backend="batched", max_interactions=25
        )
        assert all(r.interactions == 25 for r in results)
        assert all(r.budget_exhausted and not r.converged for r in results)

    def test_absorbing_initial_states(self):
        consensus = Configuration.from_supports([40, 0])
        absorbed = Configuration.from_supports([0, 0], undecided=12)
        for config, converged in ((consensus, True), (absorbed, False)):
            (result,) = run_ensemble(config, 1, seed=0, backend="batched")
            assert result.interactions == 0
            assert result.converged is converged

    def test_population_conserved(self):
        config = Configuration.from_supports([12, 11, 10, 9], undecided=8)
        for result in run_ensemble(config, 5, seed=3, backend="batched"):
            assert result.final.n == config.n

    def test_observer_delegates_to_jump(self):
        config = Configuration.from_supports([30, 30])
        times = []
        backend = get_backend("batched")
        result = backend.simulate(
            config,
            rng=np.random.default_rng(5),
            observer=lambda t, c: times.append(t),
        )
        assert times[0] == 0
        assert result.converged

    def test_empty_batch(self):
        config = Configuration.from_supports([5, 5])
        assert simulate_batch(config, rngs=[]) == []

    def test_negative_budget_rejected(self):
        config = Configuration.from_supports([5, 5])
        with pytest.raises(ValueError):
            simulate_batch(
                config,
                rngs=[np.random.default_rng(0)],
                max_interactions=-1,
            )


class TestCrossValidation:
    """All three backends sample the same stochastic process."""

    TRIALS = 80

    def _stats(self, backend, config, seed):
        results = run_ensemble(config, self.TRIALS, seed=seed, backend=backend)
        rate = sum(1 for r in results if r.winner == 1) / self.TRIALS
        mean = float(np.mean([r.interactions for r in results]))
        return rate, mean

    @pytest.mark.parametrize(
        "supports,undecided",
        [([30, 20], 10), ([25, 15, 10], 0), ([18, 14, 10, 6], 2)],
    )
    def test_batched_matches_jump(self, supports, undecided):
        config = Configuration.from_supports(supports, undecided=undecided)
        jump_rate, jump_mean = self._stats("jump", config, 101)
        batched_rate, batched_mean = self._stats("batched", config, 202)
        assert abs(jump_rate - batched_rate) < 0.25
        assert 0.7 < batched_mean / jump_mean < 1.4

    def test_batched_matches_agents(self):
        config = Configuration.from_supports([30, 20], undecided=10)
        agents_rate, agents_mean = self._stats("agents", config, 303)
        batched_rate, batched_mean = self._stats("batched", config, 404)
        assert abs(agents_rate - batched_rate) < 0.25
        assert 0.7 < batched_mean / agents_mean < 1.4


class TestExecutors:
    @pytest.mark.parametrize("backend", ["jump", "batched", "agents"])
    def test_process_matches_serial(self, backend):
        config = Configuration.from_supports([25, 20], undecided=5)
        serial = run_ensemble(config, 6, seed=21, backend=backend, executor="serial")
        process = run_ensemble(
            config, 6, seed=21, backend=backend, executor="process", jobs=2
        )
        assert results_key(serial) == results_key(process)

    def test_multiprocessing_alias(self):
        config = Configuration.from_supports([15, 10])
        serial = run_ensemble(config, 3, seed=5, backend="jump")
        aliased = run_ensemble(
            config, 3, seed=5, backend="jump", executor="multiprocessing", jobs=2
        )
        assert results_key(serial) == results_key(aliased)

    def test_unknown_executor_rejected(self):
        config = Configuration.from_supports([5, 5])
        with pytest.raises(ValueError, match="executor"):
            run_ensemble(config, 1, seed=1, executor="gpu")

    def test_invalid_batch_size_rejected(self):
        config = Configuration.from_supports([5, 5])
        with pytest.raises(ValueError, match="batch_size"):
            run_ensemble(config, 1, seed=1, batch_size=0)

    def test_results_in_replicate_order(self):
        config = Configuration.from_supports([40, 20])
        results = run_ensemble(config, 5, seed=77, backend="jump")
        singles = [
            get_backend("jump").simulate(config, rng=np.random.default_rng(s))
            for s in replicate_seeds(77, 5)
        ]
        assert results_key(results) == results_key(singles)


class TestEngineDefaults:
    def test_env_backend_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "batched")
        assert active_options().backend == "batched"

    def test_invalid_jobs_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            EngineOptions(jobs=0)
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "0")
        with pytest.raises(ValueError, match="REPRO_ENGINE_JOBS"):
            active_options()


class TestRunTrialsIntegration:
    def test_backends_agree_statistically(self):
        config = Configuration.from_supports([60, 20])
        jump = run_trials(config, 20, seed=9, backend="jump")
        batched = run_trials(config, 20, seed=9, backend="batched")
        assert jump.convergence_rate == batched.convergence_rate == 1.0
        assert abs(jump.plurality_success_rate - batched.plurality_success_rate) <= 0.2

    def test_legacy_simulator_kwarg(self):
        from repro.core.fastsim import simulate

        config = Configuration.from_supports([30, 10])
        via_engine = run_trials(config, 4, seed=8, backend="jump")
        via_legacy = run_trials(config, 4, seed=8, simulator=simulate)
        assert via_engine.interactions == via_legacy.interactions
        assert via_engine.winners == via_legacy.winners

    def test_batched_budget_through_trials(self):
        config = Configuration.from_supports([100, 100])
        ensemble = run_trials(
            config, 3, seed=4, backend="batched", max_interactions=12
        )
        assert ensemble.convergence_rate == 0.0
        assert all(i == 12 for i in ensemble.interactions)


class TestCliFlags:
    def test_backend_and_jobs_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "E4", "--backend", "batched", "--jobs", "2"]
        )
        assert args.backend == "batched"
        assert args.jobs == 2

    def test_simulate_accepts_backend(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["simulate", "--backend", "agents"])
        assert args.backend == "agents"

    def test_rejects_unknown_backend(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E1", "--backend", "warp"])
