"""Tests for the on-disk ensemble cache."""

import functools
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import run_trials
from repro.core.config import Configuration
from repro.engine import (
    Engine,
    EnsembleCache,
    ScenarioSpec,
    Scenario,
    ensemble_key,
    gossip_spec,
    graph_spec,
    noise_spec,
    register_scenario,
    run_ensemble,
    usd_spec,
    zealot_spec,
)
from repro.engine import scenarios as scenarios_module
from repro.engine.cache import encode_entry, read_entry
from repro.engine.codec import FRAME_MAGIC, decode_frame, encode_frame
from repro.service.jobs import results_to_jsonable
from repro.workloads import uniform_configuration


def results_key(results):
    return [
        (r.interactions, r.winner, r.converged, tuple(r.final.counts.tolist()))
        for r in results
    ]


class CountingScenario(Scenario):
    """Delegates to the jump backend and counts invocations.

    Its results are plain jump ``RunResult``s, so it opts into the
    record codec: only cells with one are stored.
    """

    name = "counting-test"
    record_transport = True

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


#: The cell behind :func:`real_entry`.
SMALL = usd_spec(Configuration.from_supports([30, 10]))


def real_entry(seed, trials=2):
    """``(key, entry bytes, results)`` of a small jump ensemble of SMALL."""
    results = run_ensemble(SMALL, trials, seed=seed, backend="jump", executor="serial")
    key = ensemble_key(
        SMALL, trials=trials, seed=seed, variant="jump", max_interactions=None
    )
    return key, encode_entry(key, SMALL, "jump", seed, None, results), results


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
        assert list(tmp_path.glob("*.entry"))

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
        key = ensemble_key(
            spec, trials=2, seed=7,
            variant="reference", max_interactions=None,
        )
        path = tmp_path / f"{key}.entry"
        assert path.exists()
        path.write_bytes(b"not an entry")

        results = run_ensemble(spec, 2, seed=7, cache=store)
        assert counting_scenario.calls == 4  # recomputed
        assert len(results) == 2
        # The corrupt file was replaced by the fresh entry.
        assert read_entry(decode_frame(path.read_bytes()), key).trials == 2

    def test_non_list_payload_is_a_miss(self, tmp_path):
        # A well-formed frame that is not a cache entry.
        key, _, _ = real_entry(1)
        store = EnsembleCache(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        path = tmp_path / f"{key}.entry"
        path.write_bytes(encode_frame({"type": "result", "not": "a list"}))
        assert store.load(key) is None
        assert store.misses == 1
        assert not path.exists()

    def test_contains_and_clear(self, tmp_path):
        key, entry, results = real_entry(1)
        store = EnsembleCache(tmp_path)
        store.store(key, entry)
        assert store.contains(key)
        assert results_key(store.load(key)) == results_key(results)
        # Entries of the pickle era are never read, but clear() removes them.
        (tmp_path / "legacy.pkl").write_bytes(b"old")
        assert store.clear() == 2
        assert not store.contains(key)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "key", ["../escaped", "a/b", "/abs", "..", ".", "", "k1.pkl", "k1\n", 7]
    )
    def test_key_outside_one_file_name_never_leaves_the_store(
        self, tmp_path, key
    ):
        root = tmp_path / "store"
        store = EnsembleCache(root)
        real_key, entry, results = real_entry(2)
        with pytest.raises(ValueError, match="cache key"):
            store.store(key, entry)
        with pytest.raises(ValueError, match="cache key"):
            store.store_sweep_index(key, {"cells": []})
        assert not store.contains(key)
        assert store.load(key) is None and store.misses == 1
        assert store.load_sweep_index(key) is None
        assert not any(tmp_path.iterdir())
        store.store(real_key, entry)
        assert results_key(store.load(real_key)) == results_key(results)
        written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
        assert written == ["store", f"store/{real_key}.entry"]


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
        # Results without winner/converged survive the record block unchanged.
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
        old, new = real_entry(1), real_entry(2)
        store.store(*old[:2])
        store.store(*new[:2])
        # The cap is far below one entry; the older entry is evicted and
        # the just-written one survives (never evict what was stored).
        assert not store.contains(old[0])
        assert store.contains(new[0])
        assert store.evictions >= 1

    def test_hit_refreshes_recency(self, tmp_path):
        import os
        import time

        store = EnsembleCache(tmp_path, max_bytes=None)
        (a, entry_a, _), (b, entry_b, _), (c, entry_c, _) = map(real_entry, (1, 2, 3))
        store.store(a, entry_a)
        store.store(b, entry_b)
        # Backdate both, then touch "a" via a hit: "b" becomes stalest.
        stale = time.time() - 1000
        os.utime(tmp_path / f"{a}.entry", (stale, stale))
        os.utime(tmp_path / f"{b}.entry", (stale, stale))
        assert store.load(a) is not None
        size = (tmp_path / f"{a}.entry").stat().st_size
        store.max_bytes = 2 * size
        store.store(c, entry_c)
        assert store.contains(a) and store.contains(c)
        assert not store.contains(b)

    def test_unlimited_by_default(self, tmp_path):
        store = EnsembleCache(tmp_path)
        for index in range(5):
            store.store(*real_entry(index)[:2])
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
        key, entry, _ = real_entry(1)
        store.store(key, entry)
        store.store_sweep_index("s1", {"cells": [key]})
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["sweep_indexes"] == 1
        assert stats["total_bytes"] > 0
        assert stats["root"] == str(tmp_path)

    def test_clear_removes_sweep_indexes_too(self, tmp_path):
        store = EnsembleCache(tmp_path)
        key, entry, _ = real_entry(1)
        store.store(key, entry)
        store.store_sweep_index("s1", {"cells": [key]})
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


# ----------------------------------------------------------------------
# One result format: entries are checked frames, never pickles
# ----------------------------------------------------------------------
#: Every built-in scenario, small enough to run in a test.
BUILT_IN = {
    "usd": usd_spec(Configuration.from_supports([30, 12, 8])),
    "graph": graph_spec(
        [[i, (i + 1) % 30] for i in range(30)],
        config=Configuration.from_supports([10, 12, 8]),
    ),
    "zealots": zealot_spec(uniform_configuration(60, 2), [0, 3]),
    "noise": noise_spec(Configuration.from_supports([20, 10]), 0.2, 500),
    "gossip": gossip_spec(uniform_configuration(40, 3)),
}


class TestOneFormat:
    @pytest.mark.parametrize("name", sorted(BUILT_IN))
    def test_warm_hit_equals_cold_run(self, tmp_path, name):
        spec = BUILT_IN[name]
        with Engine(cache=True, cache_dir=str(tmp_path), backend="batched") as eng:
            cold = eng.ensemble(spec, 3, seed=4, max_interactions=50_000)
            warm = eng.ensemble(spec, 3, seed=4, max_interactions=50_000)
            assert eng.cache.hits == 1
        assert results_to_jsonable(warm) == results_to_jsonable(cold)
        assert [type(r) for r in warm] == [type(r) for r in cold]

    def test_cell_without_record_codec_is_never_stored(self, tmp_path):
        scenario = CountingScenario()
        scenario.name = "uncoded-test"
        scenario.record_transport = False
        register_scenario(scenario)
        try:
            spec = ScenarioSpec.create("uncoded-test", uniform_configuration(60, 2))
            store = EnsembleCache(tmp_path)
            run_ensemble(spec, 2, seed=1, cache=store)
            run_ensemble(spec, 2, seed=1, cache=store)
        finally:
            scenarios_module._REGISTRY.pop("uncoded-test", None)
        assert scenario.calls == 4
        assert store.hits == 0 and not any(tmp_path.iterdir())

    def test_held_spec_does_not_decode_the_header_spec(self, tmp_path, monkeypatch):
        key, entry, results = real_entry(5)
        store = EnsembleCache(tmp_path)
        store.store(key, entry)

        def refuse(payload):
            raise AssertionError("the header's spec was decoded")

        monkeypatch.setattr(ScenarioSpec, "from_json", staticmethod(refuse))
        assert results_key(store.load(key, SMALL)) == results_key(results)

    def test_held_spec_of_another_cell_misses(self, tmp_path):
        key, entry, _ = real_entry(5)
        store = EnsembleCache(tmp_path)
        store.store(key, entry)
        other = usd_spec(Configuration.from_supports([31, 9]))
        assert store.load(key, other) is None
        assert store.misses == 1 and not store.contains(key)


#: Fields of an entry header and the JSON types each may hold.
HEADER_TYPES = {
    "type": str,
    "key": str,
    "spec": dict,
    "variant": str,
    "trials": int,
    "seed": (int, dict),
    "max_interactions": (int, type(None)),
    "sha256": str,
}


def wrong_type(kind):
    """JSON values that are not ``kind`` (a bool is no integer)."""
    values = (
        st.none()
        | st.booleans()
        | st.integers(-3, 10**6)
        | st.floats(allow_nan=False)
        | st.text(max_size=6)
        | st.lists(st.integers(0, 9), max_size=3)
        | st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2)
    )
    return values.filter(
        lambda value: isinstance(value, bool) or not isinstance(value, kind)
    )


@functools.lru_cache(maxsize=None)
def fuzz_entries():
    """Two real entries, ``(key, bytes)``, of SMALL at seeds 1 and 2."""
    return tuple(real_entry(seed)[:2] for seed in (1, 2))


def mutated_entries():
    """Real entries truncated, padded, bit-flipped in the body, renamed,
    or with one header field of the wrong type (or missing), under the
    name the loader is asked for."""
    entry = st.sampled_from(range(2)).map(lambda i: fuzz_entries()[i])
    truncated = st.tuples(entry, st.integers(0, 10**6)).map(
        lambda pair: (pair[0][0], pair[0][1][: pair[1] % len(pair[0][1])])
    )
    padded = st.tuples(entry, st.binary(min_size=1, max_size=16)).map(
        lambda pair: (pair[0][0], pair[0][1] + pair[1])
    )

    def flip(pair):
        (key, data), bit = pair
        message = decode_frame(data)
        block = bytearray(message["block"])
        block[bit // 8 % len(block)] ^= 1 << bit % 8
        return key, data[: -len(block)] + bytes(block)

    flipped = st.tuples(entry, st.integers(0, 10**6)).map(flip)
    other_key = st.text("0123456789abcdef", min_size=64, max_size=64)
    renamed = st.tuples(entry, other_key).map(lambda pair: (pair[1], pair[0][1]))
    swapped = st.just(None).map(lambda _: (fuzz_entries()[0][0], fuzz_entries()[1][1]))

    def retyped(draw_field):
        name, value = draw_field
        key, data = fuzz_entries()[0]
        message = decode_frame(data)
        if value is _MISSING:
            del message[name]
        else:
            message[name] = value
        return key, encode_frame(message)

    field = st.sampled_from(sorted(HEADER_TYPES)).flatmap(
        lambda name: st.tuples(
            st.just(name), wrong_type(HEADER_TYPES[name]) | st.just(_MISSING)
        )
    )
    return truncated | padded | flipped | renamed | swapped | field.map(retyped)


_MISSING = object()

LOADER_FUZZ = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_every_read_misses(key, data):
    """Each read of ``data`` stored under ``key`` is a miss, nothing raises."""
    with tempfile.TemporaryDirectory() as root:
        store = EnsembleCache(root)
        for spec in (None, SMALL):
            path = store.root / f"{key}.entry"
            path.write_bytes(data)
            assert store.load(key, spec) is None
            path.write_bytes(data)
            assert store.entry(key, spec) is None
        assert store.hits == 0 and store.misses == 4


class TestLoaderFuzz:
    @pytest.fixture(autouse=True)
    def no_unpickling(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the cache loader unpickled something")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, forbidden)

    def test_real_entries_load(self):
        # The control: every mutation below starts from a loadable entry.
        for key, data in fuzz_entries():
            with tempfile.TemporaryDirectory() as root:
                store = EnsembleCache(root)
                store.store(key, data)
                assert store.load(key) is not None
                assert store.load(key, SMALL) is not None

    @LOADER_FUZZ
    @given(
        data=st.binary(max_size=300)
        | st.binary(max_size=300).map(FRAME_MAGIC.__add__)
    )
    def test_arbitrary_bytes_are_a_miss(self, data):
        assert_every_read_misses(fuzz_entries()[0][0], data)

    @LOADER_FUZZ
    @given(case=mutated_entries())
    def test_mutated_entries_are_a_miss(self, case):
        assert_every_read_misses(*case)
