"""Tests for the on-disk ensemble cache."""

import pickle

import pytest

from repro.analysis.convergence import run_trials
from repro.core.config import Configuration
from repro.engine import (
    Engine,
    EnsembleCache,
    ScenarioSpec,
    Scenario,
    ensemble_key,
    noise_spec,
    register_scenario,
    run_ensemble,
    usd_spec,
    zealot_spec,
)
from repro.engine import scenarios as scenarios_module
from repro.workloads import uniform_configuration


def results_key(results):
    return [
        (r.interactions, r.winner, r.converged, tuple(r.final.counts.tolist()))
        for r in results
    ]


class CountingScenario(Scenario):
    """Delegates to the jump backend and counts invocations."""

    name = "counting-test"

    def __init__(self):
        self.calls = 0

    def reference(self, spec, *, rng, max_interactions=None):
        self.calls += 1
        from repro.engine import get_backend

        return get_backend("jump").simulate(
            spec.config, rng=rng, max_interactions=max_interactions
        )


@pytest.fixture
def counting_scenario():
    scenario = CountingScenario()
    register_scenario(scenario)
    try:
        yield scenario
    finally:
        scenarios_module._REGISTRY.pop("counting-test", None)


def counting_spec():
    return ScenarioSpec.create("counting-test", uniform_configuration(60, 2))


class TestKeying:
    def test_key_components(self):
        spec = zealot_spec(uniform_configuration(40, 2), [0, 3])
        base = ensemble_key(
            spec, trials=4, seed=1, variant="reference", max_interactions=None
        )
        changed_spec = ensemble_key(
            spec.with_params(zealots=(0, 4)), trials=4, seed=1,
            variant="reference", max_interactions=None,
        )
        changed_seed = ensemble_key(
            spec, trials=4, seed=2, variant="reference", max_interactions=None
        )
        changed_variant = ensemble_key(
            spec, trials=4, seed=1, variant="batched", max_interactions=None
        )
        changed_trials = ensemble_key(
            spec, trials=5, seed=1, variant="reference", max_interactions=None
        )
        changed_budget = ensemble_key(
            spec, trials=4, seed=1, variant="reference", max_interactions=10
        )
        keys = {base, changed_spec, changed_seed, changed_variant,
                changed_trials, changed_budget}
        assert len(keys) == 6

    def test_key_stable_across_processes(self):
        # Pure content hash: no interpreter salt, no object identity.
        spec = usd_spec(Configuration.from_supports([10, 5]))
        a = ensemble_key(spec, trials=2, seed=3, variant="jump", max_interactions=None)
        b = ensemble_key(
            usd_spec(Configuration.from_supports([10, 5])),
            trials=2, seed=3, variant="jump", max_interactions=None,
        )
        assert a == b


class TestCacheHits:
    def test_hit_skips_simulation_and_returns_identical_results(
        self, tmp_path, counting_scenario
    ):
        store = EnsembleCache(tmp_path)
        spec = counting_spec()
        first = run_ensemble(spec, 3, seed=11, cache=store)
        assert counting_scenario.calls == 3
        assert store.misses == 1 and store.hits == 0

        second = run_ensemble(spec, 3, seed=11, cache=store)
        assert counting_scenario.calls == 3  # nothing re-simulated
        assert store.hits == 1
        assert results_key(first) == results_key(second)

    def test_different_seed_or_spec_misses(self, tmp_path, counting_scenario):
        store = EnsembleCache(tmp_path)
        spec = counting_spec()
        run_ensemble(spec, 2, seed=1, cache=store)
        run_ensemble(spec, 2, seed=2, cache=store)
        assert counting_scenario.calls == 4
        assert store.hits == 0

    def test_cache_disabled_by_default(self, tmp_path, counting_scenario):
        spec = counting_spec()
        run_ensemble(spec, 2, seed=1)
        run_ensemble(spec, 2, seed=1)
        assert counting_scenario.calls == 4

    def test_cache_true_uses_session_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CACHE_DIR", str(tmp_path))
        config = Configuration.from_supports([30, 10])
        first = run_ensemble(config, 2, seed=5, cache=True)
        second = run_ensemble(config, 2, seed=5, cache=True)
        assert results_key(first) == results_key(second)
        assert list(tmp_path.glob("*.pkl"))

    def test_env_var_enables_cache(self, tmp_path, monkeypatch, counting_scenario):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "1")
        monkeypatch.setenv("REPRO_ENGINE_CACHE_DIR", str(tmp_path))
        spec = counting_spec()
        run_ensemble(spec, 2, seed=9)
        run_ensemble(spec, 2, seed=9)
        assert counting_scenario.calls == 2

    def test_process_executor_populates_cache(self, tmp_path):
        store = EnsembleCache(tmp_path)
        config = Configuration.from_supports([25, 15])
        first = run_ensemble(
            config, 4, seed=3, executor="process", jobs=2, cache=store
        )
        second = run_ensemble(config, 4, seed=3, executor="serial", cache=store)
        assert store.hits == 1
        assert results_key(first) == results_key(second)


class TestCorruption:
    def test_corrupted_entry_recomputes(self, tmp_path, counting_scenario):
        store = EnsembleCache(tmp_path)
        spec = counting_spec()
        run_ensemble(spec, 2, seed=7, cache=store)
        key = store.key_for(
            spec, trials=2, seed=7,
            variant="reference", max_interactions=None,
        )
        path = tmp_path / f"{key}.pkl"
        assert path.exists()
        path.write_bytes(b"not a pickle")

        results = run_ensemble(spec, 2, seed=7, cache=store)
        assert counting_scenario.calls == 4  # recomputed
        assert len(results) == 2
        # The corrupt file was replaced by the fresh entry.
        assert pickle.loads(path.read_bytes())

    def test_non_list_payload_is_a_miss(self, tmp_path):
        store = EnsembleCache(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        (tmp_path / "abc.pkl").write_bytes(pickle.dumps({"not": "a list"}))
        assert store.load("abc") is None
        assert store.misses == 1

    def test_contains_and_clear(self, tmp_path):
        store = EnsembleCache(tmp_path)
        store.store("k1", [1, 2])
        assert store.contains("k1")
        assert store.load("k1") == [1, 2]
        assert store.clear() == 1
        assert not store.contains("k1")

    @pytest.mark.parametrize(
        "key", ["../escaped", "a/b", "/abs", "..", ".", "", "k1.pkl", "k1\n", 7]
    )
    def test_key_outside_one_file_name_never_leaves_the_store(
        self, tmp_path, key
    ):
        root = tmp_path / "store"
        store = EnsembleCache(root)
        with pytest.raises(ValueError, match="cache key"):
            store.store(key, [1])
        with pytest.raises(ValueError, match="cache key"):
            store.store_sweep_index(key, {"cells": []})
        assert not store.contains(key)
        assert store.load(key) is None and store.misses == 1
        assert store.load_sweep_index(key) is None
        assert not any(tmp_path.iterdir())
        store.store("escaped", [2])
        assert store.load("escaped") == [2]
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == ["store", "store/escaped.pkl"]


class TestConsumerPlumbing:
    def test_run_trials_forwards_cache(self, tmp_path, counting_scenario):
        store = EnsembleCache(tmp_path)
        spec = counting_spec()
        a = run_trials(spec, 3, seed=13, cache=store)
        b = run_trials(spec, 3, seed=13, cache=store)
        assert counting_scenario.calls == 3
        assert store.hits == 1
        assert a.interactions == b.interactions

    def test_noise_results_roundtrip(self, tmp_path):
        # Results without winner/converged survive pickling unchanged.
        store = EnsembleCache(tmp_path)
        spec = noise_spec(Configuration.from_supports([20, 10]), 0.2, 500)
        first = run_ensemble(spec, 2, seed=1, cache=store)
        second = run_ensemble(spec, 2, seed=1, cache=store)
        assert store.hits == 1
        assert [r.tail_mean_plurality_fraction for r in first] == [
            r.tail_mean_plurality_fraction for r in second
        ]

    def test_cli_second_invocation_is_served_from_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "simulate", "--scenario", "zealots", "--n", "60", "--k", "2",
            "--zealots", "0,3", "--trials", "2",
            "--max-interactions", "20000",
            "--cache", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "cache:            miss" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache:            hit" in second

class TestEvictionAndStats:
    def test_lru_eviction_enforces_size_cap(self, tmp_path):
        store = EnsembleCache(tmp_path, max_bytes=1)
        store.store("old", [1] * 100)
        store.store("new", [2] * 100)
        # The cap is far below one entry; the older entry is evicted and
        # the just-written one survives (never evict what was stored).
        assert not store.contains("old")
        assert store.contains("new")
        assert store.evictions >= 1

    def test_hit_refreshes_recency(self, tmp_path):
        import os
        import time

        store = EnsembleCache(tmp_path, max_bytes=None)
        store.store("a", [1] * 50)
        store.store("b", [2] * 50)
        # Backdate both, then touch "a" via a hit: "b" becomes stalest.
        stale = time.time() - 1000
        os.utime(tmp_path / "a.pkl", (stale, stale))
        os.utime(tmp_path / "b.pkl", (stale, stale))
        assert store.load("a") == [1] * 50
        size = (tmp_path / "a.pkl").stat().st_size
        store.max_bytes = 2 * size
        store.store("c", [3] * 50)
        assert store.contains("a") and store.contains("c")
        assert not store.contains("b")

    def test_unlimited_by_default(self, tmp_path):
        store = EnsembleCache(tmp_path)
        for index in range(5):
            store.store(f"k{index}", [index] * 200)
        assert store.stats()["entries"] == 5
        assert store.evictions == 0

    def test_max_bytes_from_environment(self, tmp_path, monkeypatch):
        # The variable sets the session's cache_max_bytes option, which
        # the session hands to its store; a bare store is uncapped.
        def session_cap():
            with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
                return eng.cache.max_bytes

        monkeypatch.setenv("REPRO_ENGINE_CACHE_MAX_BYTES", "12345")
        assert session_cap() == 12345
        assert EnsembleCache(tmp_path).max_bytes is None
        monkeypatch.setenv("REPRO_ENGINE_CACHE_MAX_BYTES", "0")
        assert session_cap() is None
        monkeypatch.setenv("REPRO_ENGINE_CACHE_MAX_BYTES", "junk")
        with pytest.raises(ValueError, match="REPRO_ENGINE_CACHE_MAX_BYTES"):
            session_cap()

    def test_stats_counts_entries_and_sweep_indexes(self, tmp_path):
        store = EnsembleCache(tmp_path)
        store.store("k1", [1, 2])
        store.store_sweep_index("s1", {"cells": ["k1"]})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["sweep_indexes"] == 1
        assert stats["total_bytes"] > 0
        assert stats["root"] == str(tmp_path)

    def test_clear_removes_sweep_indexes_too(self, tmp_path):
        store = EnsembleCache(tmp_path)
        store.store("k1", [1, 2])
        store.store_sweep_index("s1", {"cells": ["k1"]})
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.load_sweep_index("s1") is None

    def test_sweep_indexes_count_toward_cap_and_evict(self, tmp_path):
        store = EnsembleCache(tmp_path, max_bytes=1)
        store.store_sweep_index("s1", {"cells": ["k1"] * 100})
        store.store_sweep_index("s2", {"cells": ["k2"] * 100})
        # The cap is below a single index; stale indexes are evicted
        # like any other entry instead of accumulating forever.
        remaining = list(tmp_path.glob("*.sweep.json"))
        assert len(remaining) <= 1

    def test_corrupt_sweep_index_is_a_miss(self, tmp_path):
        store = EnsembleCache(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        (tmp_path / "bad.sweep.json").write_text("{not json")
        assert store.load_sweep_index("bad") is None


class TestSeedTokens:
    def test_int_seed_keys_unchanged_by_token_layer(self):
        # Integer seeds hash exactly as before the SeedSequence support.
        from repro.engine.cache import seed_token

        assert seed_token(7) == 7

    def test_seedsequence_token_ignores_spawn_counter(self):
        import numpy as np

        from repro.engine.cache import seed_token

        child = np.random.SeedSequence(3).spawn(2)[1]
        before = seed_token(child)
        child.spawn(4)  # mutates n_children_spawned only
        assert seed_token(child) == before

    def test_seedsequence_and_int_keys_differ(self):
        import numpy as np

        spec = usd_spec(Configuration.from_supports([10, 5]))
        child = np.random.SeedSequence(3).spawn(1)[0]
        a = ensemble_key(spec, trials=2, seed=child, variant="jump",
                         max_interactions=None)
        b = ensemble_key(spec, trials=2,
                         seed=int(child.generate_state(1)[0]),
                         variant="jump", max_interactions=None)
        assert a != b
