"""Tests for the scenario layer: specs, registry, migrated dynamics.

The load-bearing guarantees:

* every registered reference implementation is bit-identical to the
  pre-refactor ``simulate_*`` entry point at fixed seeds (they share one
  kernel, and the rng consumption is unchanged);
* batched variants agree with the reference distributionally
  (zealots, noise);
* every scenario runs on both executors with identical results.
"""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.convergence import run_trials
from repro.analysis.sweep import sweep
from repro.core.config import Configuration
from repro.engine import (
    ScenarioSpec,
    available_scenarios,
    coerce_spec,
    get_scenario,
    gossip_spec,
    graph_spec,
    noise_spec,
    register_scenario,
    replicate_seeds,
    run_ensemble,
    usd_spec,
    zealot_spec,
)
from repro.faults import simulate_with_noise, simulate_with_zealots
from repro.gossip import run_median_rule, run_usd_gossip, run_voter
from repro.graphs import simulate_on_graph
from repro.workloads import uniform_configuration


def results_key(results):
    return [
        (
            getattr(r, "interactions", None) or getattr(r, "rounds", 0),
            getattr(r, "winner", None),
            getattr(r, "converged", None),
            tuple(r.final.counts.tolist()),
        )
        for r in results
    ]


class TestRegistry:
    def test_builtins_registered(self):
        names = available_scenarios()
        for name in ("usd", "graph", "zealots", "noise", "gossip"):
            assert name in names

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("usd"))

    def test_register_custom_scenario(self):
        from repro.engine import scenarios as scenarios_module

        class EchoScenario(scenarios_module.Scenario):
            name = "echo-test"

            def reference(self, spec, *, rng, max_interactions=None):
                return get_scenario("usd").reference(
                    spec, rng=rng, max_interactions=max_interactions
                )

        register_scenario(EchoScenario())
        try:
            spec = ScenarioSpec.create("echo-test", uniform_configuration(60, 2))
            results = run_ensemble(spec, 2, seed=1)
            assert len(results) == 2
        finally:
            scenarios_module._REGISTRY.pop("echo-test", None)


class TestScenarioSpec:
    def test_params_frozen_and_hashable(self):
        config = uniform_configuration(30, 2)
        spec = ScenarioSpec.create("zealots", config, zealots=np.array([1, 2]))
        assert spec.param("zealots") == (1, 2)
        hash(spec)  # must not raise

    def test_key_is_stable_and_content_addressed(self):
        config = uniform_configuration(30, 2)
        a = zealot_spec(config, [0, 3])
        b = zealot_spec(config, np.array([0, 3]))
        assert a.key() == b.key()

    def test_key_changes_with_scenario_params_config(self):
        config = uniform_configuration(30, 2)
        base = zealot_spec(config, [0, 3])
        assert base.key() != zealot_spec(config, [0, 4]).key()
        assert base.key() != zealot_spec(uniform_configuration(32, 2), [0, 3]).key()
        assert base.key() != noise_spec(config, 0.1, 100).key()

    def test_with_params(self):
        spec = noise_spec(uniform_configuration(20, 2), 0.1, 100)
        changed = spec.with_params(rho=0.2)
        assert changed.param("rho") == 0.2
        assert changed.param("horizon") == 100
        assert changed.key() != spec.key()

    def test_coerce_spec(self):
        config = uniform_configuration(20, 2)
        spec = coerce_spec(config)
        assert spec.scenario == "usd"
        assert coerce_spec(spec) is spec
        with pytest.raises(TypeError):
            coerce_spec("usd")

    def test_rejects_unfreezable_params(self):
        with pytest.raises(TypeError, match="scenario parameters"):
            ScenarioSpec.create("usd", uniform_configuration(10, 2), rule=object())


def pinned_specs():
    """One spec of each built-in scenario, as the pinned digests saw them."""
    config = uniform_configuration(120, 3)
    ring = [[i, (i + 1) % 30] for i in range(30)]
    return {
        "usd": usd_spec(config),
        "graph": graph_spec(ring, config=Configuration.from_supports([10, 12, 8])),
        "zealots": zealot_spec(config, [2, 0, 1]),
        "noise": noise_spec(config, 0.05, 4000, tail_fraction=0.25),
        "gossip": gossip_spec(config, rule="three-majority", max_rounds=200),
    }


#: ``(spec.key(), ensemble_key(...))`` per scenario, computed before the
#: spec's JSON codec existed; cached entries and fleet probes rely on
#: these staying put (a change must bump ``CACHE_FORMAT`` instead).
PINNED_KEYS = {
    "usd": (
        "75ffcbfd7786e07c425c2b5c29031d937cddc6822572e5dac349d9d152587b59",
        "6b14babdbb2a51081a20b7b4a230ce3289a3559cf4de90f9d949eadc22f5ba98",
    ),
    "graph": (
        "bbc568b509ba12e83411fa674e7966b164787215d9a4e2a79942284cfc9d35a9",
        "47330afe5fe3f13e4d37222abcea7ca8f4fc531a7b64e9b445893a7d44273446",
    ),
    "zealots": (
        "8d57d055c0a18d4a6baee98384c5edcd20f89d830a264a57ef3ace912e6e3c6f",
        "676fb813639e1252e87a72156e2fd669e1162565098592a4ad6f0d9e2bb1f1d5",
    ),
    "noise": (
        "499e7623fce27d181efefa2ecabd1d854fea1b2f34f0b8a9e00cdb675319eca0",
        "eeb0c42b49f22c1600638c7bc7ddb86ca1eae69fad9ce3c61f201d3ebb994b9e",
    ),
    "gossip": (
        "920a0529d6629988b2c43936a26bcf6fd63433907a04a962b19a5da9a023adfe",
        "fee41cc3c7b06d287a7325809e60cb39fda6a71b95f34271fe0561ae67c7bbbe",
    ),
}


class TestSpecJsonCodec:
    """``to_json`` is both the hashed form and the socket form of a spec."""

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_keys_are_pinned(self, name):
        from repro.engine.cache import CACHE_FORMAT, ensemble_key

        spec = pinned_specs()[name]
        seed = np.random.SeedSequence(20230224).spawn(3)[2]
        key = ensemble_key(
            spec, trials=8, seed=seed, variant="batched", max_interactions=None
        )
        assert (spec.key(), key) == PINNED_KEYS[name]
        assert CACHE_FORMAT == 3

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_round_trip_through_json_text(self, name):
        import json

        spec = pinned_specs()[name]
        again = ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert again == spec
        assert again.key() == spec.key()
        get_scenario(name).validate(again)

    def test_seed_token_round_trip_gives_the_same_stream(self):
        from repro.engine.cache import seed_from_token, seed_token

        for seed in replicate_seeds(np.random.SeedSequence(20230224), 4):
            again = seed_from_token(seed_token(seed))
            expected = np.random.default_rng(seed).random(8)
            assert np.array_equal(np.random.default_rng(again).random(8), expected)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"scenario": "usd", "config": [0, 5, 5]},
            {"scenario": "usd", "config": [0, 5.0, 5], "params": []},
            {"scenario": "usd", "config": [0, True, 5], "params": []},
            {"scenario": "usd", "config": [0, 5, 5], "params": [["a", 1], ["a", 2]]},
            {"scenario": "usd", "config": [0, 5, 5], "params": [[1, 2]]},
            {"scenario": "usd", "config": [0, 5, 5], "params": [], "extra": 1},
        ],
    )
    def test_other_shapes_are_refused(self, payload):
        with pytest.raises((ValueError, TypeError)):
            ScenarioSpec.from_json(payload)


class TestStateValidationBugfix:
    """The shape checks the pre-refactor code silently skipped."""

    def test_graph_rejects_wrong_length(self):
        graph = nx.complete_graph(5)
        with pytest.raises(ValueError, match="one state per node"):
            simulate_on_graph(
                graph, np.array([1, 2]), rng=np.random.default_rng(), k=2
            )

    def test_graph_rejects_multidimensional_states_of_matching_size(self):
        # A (2, 3) array has size 6 == node count and used to slip
        # through the old ``size`` check.
        graph = nx.complete_graph(6)
        bad = np.ones((2, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="one state per node"):
            simulate_on_graph(graph, bad, rng=np.random.default_rng(), k=2)

    def test_zealots_reject_multidimensional_counts(self):
        config = Configuration.from_supports([10, 10])
        with pytest.raises(ValueError, match="one zealot count per opinion"):
            simulate_with_zealots(
                config, np.array([[1, 2]]), rng=np.random.default_rng()
            )

    def test_graph_spec_rejects_mismatched_histogram(self):
        graph = nx.complete_graph(4)
        with pytest.raises(ValueError, match="histogram"):
            graph_spec(
                graph,
                config=Configuration.from_supports([4, 0]),
                initial_states=[1, 1, 2, 2],
            )


class TestReferenceBitIdentity:
    """Registered references == legacy entry points at fixed seeds."""

    def test_graph_scenario_matches_simulate_on_graph(self):
        n = 40
        graph = nx.erdos_renyi_graph(n, 0.3, seed=3)
        config = Configuration.from_supports([25, 15])
        states = config.to_states(np.random.default_rng(11))
        spec = graph_spec(graph, config=config, initial_states=states)
        for seed in (0, 7):
            legacy = simulate_on_graph(
                graph, states, rng=np.random.default_rng(seed), k=2
            )
            scenario = get_scenario("graph").reference(
                spec, rng=np.random.default_rng(seed)
            )
            assert results_key([legacy]) == results_key([scenario])

    def test_zealot_scenario_matches_simulate_with_zealots(self):
        config = Configuration.from_supports([50, 20])
        spec = zealot_spec(config, [0, 5])
        for seed in (1, 2):
            legacy = simulate_with_zealots(
                config, [0, 5], rng=np.random.default_rng(seed),
                max_interactions=200_000,
            )
            scenario = get_scenario("zealots").reference(
                spec, rng=np.random.default_rng(seed), max_interactions=200_000
            )
            assert results_key([legacy]) == results_key([scenario])

    def test_noise_scenario_matches_simulate_with_noise(self):
        config = Configuration.from_supports([60, 20])
        spec = noise_spec(config, 0.05, 5_000)
        for seed in (3, 4):
            legacy = simulate_with_noise(
                config, 0.05, horizon=5_000, rng=np.random.default_rng(seed)
            )
            scenario = get_scenario("noise").reference(
                spec, rng=np.random.default_rng(seed)
            )
            assert legacy.final == scenario.final
            assert (
                legacy.tail_mean_plurality_fraction
                == scenario.tail_mean_plurality_fraction
            )

    def test_gossip_scenario_matches_run_usd_gossip(self):
        config = Configuration.from_supports([120, 60], undecided=20)
        spec = gossip_spec(config)
        for seed in (5, 6):
            legacy = run_usd_gossip(config, rng=np.random.default_rng(seed))
            scenario = get_scenario("gossip").reference(
                spec, rng=np.random.default_rng(seed)
            )
            assert (legacy.rounds, legacy.winner) == (scenario.rounds, scenario.winner)
            assert legacy.final == scenario.final

    def test_gossip_rules_match_their_runners(self):
        config = Configuration.from_supports([80, 40])
        for rule, runner in (("voter", run_voter), ("median", run_median_rule)):
            spec = gossip_spec(config, rule=rule)
            legacy = runner(config, rng=np.random.default_rng(9))
            scenario = get_scenario("gossip").reference(
                spec, rng=np.random.default_rng(9)
            )
            assert (legacy.rounds, legacy.winner) == (scenario.rounds, scenario.winner)

    def test_run_ensemble_serial_matches_direct_loop(self):
        # run_ensemble's per-replicate generators are exactly
        # replicate_seeds children, for every scenario.
        config = Configuration.from_supports([40, 20])
        spec = zealot_spec(config, [0, 3])
        ensemble = run_ensemble(spec, 4, seed=17, max_interactions=100_000)
        direct = [
            simulate_with_zealots(
                config, [0, 3], rng=np.random.default_rng(s),
                max_interactions=100_000,
            )
            for s in replicate_seeds(17, 4)
        ]
        assert results_key(ensemble) == results_key(direct)


class TestBatchedVariants:
    def test_zealot_batched_matches_reference_distribution(self):
        config = Configuration.from_supports([45, 15])
        spec = zealot_spec(config, [0, 4])
        reference = run_ensemble(
            spec, 40, seed=21, max_interactions=30_000, backend="jump"
        )
        batched = run_ensemble(
            spec, 40, seed=22, max_interactions=30_000, backend="batched"
        )
        ref_mean = np.mean([r.final.supports[0] for r in reference])
        bat_mean = np.mean([r.final.supports[0] for r in batched])
        assert abs(ref_mean - bat_mean) / config.n < 0.15

    def test_zealot_batched_width_and_executor_invariant(self):
        config = Configuration.from_supports([30, 15])
        spec = zealot_spec(config, [0, 3])
        runs = {
            width: run_ensemble(
                spec, 7, seed=13, max_interactions=15_000,
                backend="batched", batch_size=width,
            )
            for width in (1, 3, 7)
        }
        keys = {w: results_key(r) for w, r in runs.items()}
        assert keys[1] == keys[3] == keys[7]
        process = run_ensemble(
            spec, 7, seed=13, max_interactions=15_000,
            backend="batched", executor="process", jobs=2,
        )
        assert results_key(process) == keys[1]

    def test_zealot_batched_takeover_and_budget(self):
        config = Configuration.from_supports([40, 0])
        spec = zealot_spec(config, [0, 60])
        for r in run_ensemble(spec, 3, seed=1, backend="batched"):
            assert r.converged and r.winner == 2
        stuck = zealot_spec(uniform_configuration(50, 2), [3, 3])
        for r in run_ensemble(
            stuck, 3, seed=2, backend="batched", max_interactions=5_000
        ):
            assert not r.converged and r.budget_exhausted
            assert r.interactions == 5_000

    def test_noise_batched_matches_reference_distribution(self):
        config = Configuration.from_supports([150, 50])
        spec = noise_spec(config, 0.05, 10_000)
        reference = run_ensemble(spec, 12, seed=31, backend="jump")
        batched = run_ensemble(spec, 12, seed=32, backend="batched")
        ref = np.mean([r.tail_mean_plurality_fraction for r in reference])
        bat = np.mean([r.tail_mean_plurality_fraction for r in batched])
        assert abs(ref - bat) < 0.05

    def test_noise_batched_width_invariant(self):
        spec = noise_spec(Configuration.from_supports([60, 40]), 0.1, 2_000)
        wide = run_ensemble(spec, 5, seed=3, backend="batched", batch_size=5)
        narrow = run_ensemble(spec, 5, seed=3, backend="batched", batch_size=2)
        assert [r.final.counts.tolist() for r in wide] == [
            r.final.counts.tolist() for r in narrow
        ]

    def test_every_builtin_scenario_has_a_batched_variant(self):
        for name in ("usd", "graph", "zealots", "noise", "gossip"):
            assert "batched" in get_scenario(name).variants(), name
            assert get_scenario(name).variant("batched") == "batched", name

    def test_batched_falls_back_to_reference_without_kernel(self):
        # A scenario without a batched kernel must not break under a
        # session-wide --backend batched.
        from repro.engine import Scenario, register_scenario
        from repro.engine.scenarios import _REGISTRY

        class PlainScenario(Scenario):
            name = "plain-reference-only"
            description = "reference-only custom scenario"

            def reference(self, spec, *, rng, max_interactions=None):
                from repro.core.fastsim import simulate

                return simulate(
                    spec.config, rng=rng, max_interactions=max_interactions
                )

        register_scenario(PlainScenario())
        try:
            scenario = get_scenario("plain-reference-only")
            assert scenario.variant("batched") == "reference"
            spec = ScenarioSpec.create("plain-reference-only",
                                       Configuration.from_supports([30, 20]))
            batched = run_ensemble(spec, 3, seed=4, backend="batched")
            reference = run_ensemble(spec, 3, seed=4)
            assert results_key(batched) == results_key(reference)
        finally:
            _REGISTRY.pop("plain-reference-only", None)


class TestExecutors:
    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda c: usd_spec(c),
            lambda c: graph_spec(nx.complete_graph(c.n), config=c),
            lambda c: zealot_spec(c, [0, 2]),
            lambda c: noise_spec(c, 0.05, 2_000),
            lambda c: gossip_spec(c),
        ],
        ids=["usd", "graph", "zealots", "noise", "gossip"],
    )
    def test_process_matches_serial(self, make_spec):
        config = Configuration.from_supports([30, 15], undecided=5)
        spec = make_spec(config)
        serial = run_ensemble(
            spec, 4, seed=21, executor="serial", max_interactions=50_000
        )
        process = run_ensemble(
            spec, 4, seed=21, executor="process", jobs=2, max_interactions=50_000
        )
        assert results_key(serial) == results_key(process)

    def test_usd_spec_equals_bare_config(self):
        config = Configuration.from_supports([40, 20])
        via_spec = run_ensemble(usd_spec(config), 5, seed=8)
        via_config = run_ensemble(config, 5, seed=8)
        assert results_key(via_spec) == results_key(via_config)


class TestVariantResolution:
    def test_usd_variants_are_backends(self):
        usd = get_scenario("usd")
        assert usd.variant(None) == "jump"
        assert usd.variant("batched") == "batched"

    def test_reference_aliases(self):
        zealots = get_scenario("zealots")
        assert zealots.variant(None) == "reference"
        assert zealots.variant("jump") == "reference"
        assert zealots.variant("agents") == "reference"
        assert zealots.variant("batched") == "batched"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="no variant"):
            get_scenario("zealots").variant("warp")

    def test_session_default_backend_reaches_scenarios(self, monkeypatch):
        # --backend batched / REPRO_ENGINE_BACKEND=batched must select
        # the vectorized variant for scenarios that have one.
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "batched")
        assert get_scenario("zealots").variant(None) == "batched"
        assert get_scenario("noise").variant(None) == "batched"
        assert get_scenario("graph").variant(None) == "batched"
        assert get_scenario("gossip").variant(None) == "batched"

    def test_unknown_session_default_falls_back_to_reference(self, monkeypatch):
        # A custom USD backend as the session default must not break
        # every other scenario; only explicit requests are strict.
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "my-custom-usd")
        assert get_scenario("zealots").variant(None) == "reference"

    def test_unregistered_backend_instance_runs_serially(self):
        # The legacy escape hatch: a Backend instance that was never
        # registered still works on the serial executor.
        from repro.engine import get_backend

        class Unregistered:
            name = "unregistered-test"

            def simulate(self, config, *, rng, max_interactions=None, observer=None):
                return get_backend("jump").simulate(
                    config, rng=rng, max_interactions=max_interactions,
                    observer=observer,
                )

        config = Configuration.from_supports([30, 10])
        results = run_ensemble(
            config, 3, seed=5, backend=Unregistered(), executor="serial"
        )
        expected = run_ensemble(config, 3, seed=5, backend="jump")
        assert results_key(results) == results_key(expected)
        with pytest.raises(ValueError, match="must be registered"):
            run_ensemble(
                config, 3, seed=5, backend=Unregistered(),
                executor="process", jobs=2,
            )


class TestGossipValidation:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown gossip rule"):
            gossip_spec(uniform_configuration(20, 2), rule="warp")

    def test_decided_population_required_for_jmajority(self):
        config = Configuration.from_supports([10, 6], undecided=4)
        with pytest.raises(ValueError, match="fully decided"):
            gossip_spec(config, rule="voter")

    def test_max_interactions_is_round_budget(self):
        config = Configuration.from_supports([500, 500])
        (result,) = run_ensemble(gossip_spec(config), 1, seed=5, max_interactions=1)
        assert result.rounds <= 1
        assert result.budget_exhausted or result.converged


class TestNoiseBudgetOverride:
    def test_max_interactions_overrides_horizon(self):
        spec = noise_spec(Configuration.from_supports([20, 10]), 0.1, 10_000)
        (result,) = run_ensemble(spec, 1, seed=2, max_interactions=500)
        assert result.interactions == 500


class TestAnalysisIntegration:
    def test_run_trials_with_zealot_spec(self):
        config = Configuration.from_supports([40, 0])
        ensemble = run_trials(zealot_spec(config, [0, 60]), 4, seed=6)
        assert ensemble.trials == 4
        assert ensemble.convergence_rate == 1.0
        assert set(ensemble.winners) == {2}

    def test_run_trials_with_gossip_spec_uses_rounds(self):
        config = Configuration.from_supports([200, 50])
        ensemble = run_trials(gossip_spec(config), 3, seed=7)
        assert all(cost > 0 for cost in ensemble.interactions)
        assert ensemble.convergence_rate == 1.0

    def test_run_trials_with_noise_spec_counts_nonconverged(self):
        spec = noise_spec(Configuration.from_supports([30, 10]), 0.5, 1_000)
        ensemble = run_trials(spec, 2, seed=8)
        assert ensemble.convergence_rate == 0.0
        assert ensemble.winners == [None, None]

    def test_run_trials_simulator_hatch_rejects_non_usd_specs(self):
        # The legacy callable can only simulate plain USD; silently
        # dropping the scenario's parameters would corrupt aggregates.
        from repro.core.fastsim import simulate

        spec = zealot_spec(Configuration.from_supports([30, 10]), [0, 5])
        with pytest.raises(ValueError, match="escape hatch"):
            run_trials(spec, 2, seed=1, simulator=simulate)

    def test_sweep_over_scenario_specs(self):
        def build(camp):
            return zealot_spec(Configuration.from_supports([40, 0]), [0, camp])

        result = sweep(
            [{"camp": 50}, {"camp": 80}], build, trials=2, seed=9,
            max_interactions=200_000,
        )
        assert len(result) == 2
        for point in result:
            assert point.ensemble.convergence_rate == 1.0


class TestCliIntegration:
    def test_parser_accepts_scenario_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--scenario", "zealots", "--zealots", "0,5",
             "--trials", "3", "--no-cache"]
        )
        assert args.scenario == "zealots"
        assert args.zealots == [0, 5]
        assert args.cache is False

    def test_parser_rejects_unknown_scenario(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "warp"])

    def test_list_scenarios_command(self, capsys):
        from repro.cli import main

        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in available_scenarios():
            assert name in out

    def test_simulate_scenario_ensemble(self, capsys):
        from repro.cli import main

        code = main(
            ["simulate", "--scenario", "gossip", "--n", "200", "--k", "2",
             "--trials", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario:" in out and "gossip" in out
        assert "rounds" in out
