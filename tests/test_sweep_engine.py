"""Tests for the sweep subsystem (`repro.engine.sweep`).

Covers the acceptance contract: bit-identity with the legacy per-cell
loop at fixed seeds, executor/jobs invariance at sweep level, cache
hit-without-simulation on repeat, partial resume after deleting one
cell's entry, and ``SweepSpec.key()`` sensitivity to every field — plus
the SeedSequence pass-through fix and its legacy compat shim.
"""

import numpy as np
import pytest

from repro.analysis.convergence import run_trials
from repro.analysis.sweep import sweep as analysis_sweep
from repro.engine import (
    CostModel,
    Engine,
    EnsembleCache,
    Scenario,
    ScenarioSpec,
    SweepCell,
    SweepSpec,
    cost_signature,
    graph_spec,
    legacy_cell_seed,
    register_scenario,
    replicate_seeds,
    run_ensemble,
    run_sweep,
    usd_spec,
    zealot_spec,
)
from repro.engine import scenarios as scenarios_module
from repro.workloads import uniform_configuration

GRID = [{"n": 80, "k": 2}, {"n": 120, "k": 2}, {"n": 100, "k": 3}]


def grid_spec(trials=3, max_interactions=None):
    return SweepSpec.from_grid(
        GRID, uniform_configuration, trials=trials, max_interactions=max_interactions
    )


def flat_key(outcome):
    return [
        (r.interactions, r.winner, r.converged, tuple(r.final.counts.tolist()))
        for cell in outcome
        for r in cell.results
    ]


class CountingScenario(Scenario):
    """Delegates to the jump backend and counts replicate simulations."""

    name = "sweep-counting-test"

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
        scenarios_module._REGISTRY.pop(scenario.name, None)


def counting_sweep_spec(trials=2):
    cells = tuple(
        SweepCell(
            spec=ScenarioSpec.create(
                "sweep-counting-test", uniform_configuration(n, 2)
            ),
            trials=trials,
            label=(("n", n),),
        )
        for n in (50, 70, 90)
    )
    return SweepSpec(cells=cells)


class TestSweepSpec:
    def test_from_grid_builds_labeled_cells(self):
        spec = grid_spec(trials=4, max_interactions=lambda p: p["n"] * 10)
        assert len(spec) == 3
        assert spec.total_trials == 12
        assert spec.cells[0].label_dict() == {"n": 80, "k": 2}
        assert spec.cells[0].max_interactions == 800
        assert spec.cells[2].spec.config.k == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec.from_grid([], uniform_configuration, trials=2)
        with pytest.raises(ValueError):
            SweepSpec.from_grid(GRID, uniform_configuration, trials=0)
        with pytest.raises(ValueError):
            SweepSpec(cells=())
        with pytest.raises(TypeError):
            SweepSpec(cells=("not a cell",))
        with pytest.raises(TypeError):
            SweepCell(spec="not a spec", trials=2)

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = grid_spec()
        assert hash(spec) == hash(grid_spec())
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.key() == spec.key()

    def test_key_sensitive_to_every_field(self):
        base = grid_spec(trials=3)
        keys = {base.key()}

        # trials
        keys.add(grid_spec(trials=4).key())
        # budget
        keys.add(grid_spec(trials=3, max_interactions=500).key())
        # workload spec (different grid point)
        keys.add(
            SweepSpec.from_grid(
                [{"n": 81, "k": 2}] + GRID[1:], uniform_configuration, trials=3
            ).key()
        )
        # label (same workloads, relabeled grid point)
        relabeled = SweepSpec(
            cells=(
                SweepCell(
                    spec=base.cells[0].spec,
                    trials=3,
                    label=(("renamed", 80),),
                ),
            )
            + base.cells[1:]
        )
        keys.add(relabeled.key())
        # cell order
        reordered = SweepSpec(cells=base.cells[::-1])
        keys.add(reordered.key())
        # number of cells
        keys.add(SweepSpec(cells=base.cells[:2]).key())

        assert len(keys) == 7

    def test_key_stable_across_instances(self):
        assert grid_spec().key() == grid_spec().key()


class TestBitIdentity:
    def test_legacy_derivation_matches_pre_refactor_cell_loop(self):
        """run_sweep(seed_derivation="legacy") == the historical sweep.

        The pre-refactor ``analysis.sweep.sweep`` spawned one
        ``SeedSequence`` child per cell and collapsed it to a 32-bit
        integer before running the cell's ensemble; reproduce that loop
        verbatim and require bit-identical replicate results.
        """
        seed = 20230224
        outcome = run_sweep(grid_spec(), seed=seed, seed_derivation="legacy")

        legacy = []
        children = np.random.SeedSequence(seed).spawn(len(GRID))
        for params, child in zip(GRID, children):
            legacy.append(
                run_ensemble(
                    uniform_configuration(**params),
                    3,
                    seed=int(child.generate_state(1)[0]),
                )
            )
        legacy_flat = [
            (r.interactions, r.winner, r.converged, tuple(r.final.counts.tolist()))
            for cell in legacy
            for r in cell
        ]
        assert flat_key(outcome) == legacy_flat

    def test_analysis_facade_default_matches_legacy_run_trials_loop(self):
        seed = 7
        result = analysis_sweep(GRID, uniform_configuration, trials=3, seed=seed)
        children = np.random.SeedSequence(seed).spawn(len(GRID))
        for point, params, child in zip(result, GRID, children):
            ensemble = run_trials(
                uniform_configuration(**params),
                3,
                seed=int(child.generate_state(1)[0]),
            )
            assert point.ensemble.interactions == ensemble.interactions
            assert point.ensemble.winners == ensemble.winners

    def test_cells_match_standalone_ensembles(self):
        # Each cell, under either derivation, is exactly what a
        # standalone run_ensemble with the same cell seed produces.
        outcome = run_sweep(grid_spec(), seed=3, seed_derivation="spawn")
        for cell in outcome:
            standalone = run_ensemble(cell.cell.spec, cell.cell.trials, seed=cell.seed)
            assert [r.interactions for r in cell.results] == [
                r.interactions for r in standalone
            ]

    def test_explicit_cell_seeds_match_run_ensemble(self):
        cell_seeds = [11, 22, 33]
        outcome = run_sweep(grid_spec(), cell_seeds=cell_seeds)
        for params, cell_seed, cell in zip(GRID, cell_seeds, outcome):
            standalone = run_ensemble(uniform_configuration(**params), 3, seed=cell_seed)
            assert [r.interactions for r in cell.results] == [
                r.interactions for r in standalone
            ]


class TestSchedulingInvariance:
    def test_executor_and_jobs_invariance(self):
        spec = grid_spec()
        serial = run_sweep(spec, seed=5)
        process2 = run_sweep(spec, seed=5, executor="process", jobs=2)
        process3 = run_sweep(spec, seed=5, executor="process", jobs=3)
        assert flat_key(serial) == flat_key(process2) == flat_key(process3)

    def test_batch_size_invariance(self):
        spec = grid_spec()
        a = run_sweep(spec, seed=5, batch_size=1)
        b = run_sweep(spec, seed=5, batch_size=1024)
        assert flat_key(a) == flat_key(b)

    def test_spawn_derivation_deterministic_and_differs_from_legacy(self):
        spec = grid_spec()
        a = run_sweep(spec, seed=9, seed_derivation="spawn")
        b = run_sweep(spec, seed=9, seed_derivation="spawn")
        legacy = run_sweep(spec, seed=9, seed_derivation="legacy")
        assert flat_key(a) == flat_key(b)
        assert flat_key(a) != flat_key(legacy)

    def test_mixed_scenarios_in_one_sweep(self):
        config = uniform_configuration(60, 2)
        cells = (
            SweepCell(spec=usd_spec(config), trials=2),
            SweepCell(
                spec=zealot_spec(config, [0, 5]),
                trials=2,
                max_interactions=50_000,
            ),
        )
        outcome = run_sweep(SweepSpec(cells=cells), seed=4)
        assert [len(c.results) for c in outcome] == [2, 2]
        assert outcome.cells[1].variant == "reference"

    def test_validation(self):
        spec = grid_spec()
        with pytest.raises(TypeError):
            run_sweep("not a spec", seed=1)
        with pytest.raises(ValueError):
            run_sweep(spec)  # no seed, no cell_seeds
        with pytest.raises(ValueError):
            run_sweep(spec, seed=1, seed_derivation="nonsense")
        with pytest.raises(ValueError):
            run_sweep(spec, cell_seeds=[1, 2])  # wrong length
        with pytest.raises(ValueError):
            run_sweep(spec, seed=1, executor="carrier-pigeon")
        with pytest.raises(ValueError):
            run_sweep(spec, seed=1, batch_size=0)


class TestSweepCache:
    def test_repeat_sweep_serves_all_cells_without_simulating(
        self, tmp_path, counting_scenario
    ):
        store = EnsembleCache(tmp_path)
        spec = counting_sweep_spec(trials=2)
        first = run_sweep(spec, seed=1, cache=store)
        assert counting_scenario.calls == 6
        assert first.simulated_cells == 3 and first.cached_cells == 0

        second = run_sweep(spec, seed=1, cache=store)
        assert counting_scenario.calls == 6  # zero simulations on repeat
        assert second.cached_cells == 3 and second.simulated_trials == 0
        assert flat_key(first) == flat_key(second)

    def test_partial_resume_recomputes_only_missing_cell(
        self, tmp_path, counting_scenario
    ):
        store = EnsembleCache(tmp_path)
        spec = counting_sweep_spec(trials=2)
        first = run_sweep(spec, seed=1, cache=store)
        assert counting_scenario.calls == 6

        # Delete exactly one cell's ensemble entry (an "interrupted"
        # sweep on disk) and re-run: only that cell simulates.
        victim = store.key_for(
            spec.cells[1].spec,
            trials=2,
            seed=first.cells[1].seed,
            variant="reference",
            max_interactions=None,
        )
        (tmp_path / f"{victim}.pkl").unlink()
        third = run_sweep(spec, seed=1, cache=store)
        assert counting_scenario.calls == 8  # one cell × two replicates
        assert third.cached_cells == 2 and third.simulated_cells == 1
        assert flat_key(first) == flat_key(third)

    def test_edited_sweep_recomputes_only_changed_cell(
        self, tmp_path, counting_scenario
    ):
        store = EnsembleCache(tmp_path)
        spec = counting_sweep_spec(trials=2)
        run_sweep(spec, seed=1, cache=store)
        assert counting_scenario.calls == 6

        edited = SweepSpec(
            cells=spec.cells[:2]
            + (
                SweepCell(
                    spec=ScenarioSpec.create(
                        "sweep-counting-test", uniform_configuration(110, 2)
                    ),
                    trials=2,
                    label=(("n", 110),),
                ),
            )
        )
        outcome = run_sweep(edited, seed=1, cache=store)
        assert counting_scenario.calls == 8  # unchanged cells were hits
        assert outcome.cached_cells == 2 and outcome.simulated_cells == 1

    def test_sweep_index_written_and_loadable(self, tmp_path):
        store = EnsembleCache(tmp_path)
        spec = grid_spec(trials=2)
        outcome = run_sweep(spec, seed=2, cache=store)
        assert outcome.sweep_key is not None
        index = store.load_sweep_index(outcome.sweep_key)
        assert index is not None
        assert index["sweep"] == spec.key()
        assert len(index["cells"]) == len(spec)
        for key in index["cells"]:
            assert store.contains(key)

    def test_cache_shared_with_run_ensemble(self, tmp_path, counting_scenario):
        # A sweep cell and a standalone ensemble with the same spec,
        # trials and integer seed share one cache entry.
        store = EnsembleCache(tmp_path)
        spec = counting_sweep_spec(trials=2)
        run_sweep(spec, cell_seeds=[10, 20, 30], cache=store)
        assert counting_scenario.calls == 6
        run_ensemble(spec.cells[0].spec, 2, seed=10, cache=store)
        assert counting_scenario.calls == 6  # served from the sweep's entry


class TestSeedSequencePassThrough:
    def test_replicate_seeds_accepts_seedsequence(self):
        child = np.random.SeedSequence(3).spawn(2)[1]
        a = replicate_seeds(child, 4)
        b = replicate_seeds(child, 4)  # independent of prior spawns
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert [s.spawn_key for s in a] != [
            s.spawn_key for s in replicate_seeds(int(child.generate_state(1)[0]), 4)
        ]

    def test_run_ensemble_and_run_trials_accept_seedsequence(self):
        config = uniform_configuration(80, 2)
        child = np.random.SeedSequence(5).spawn(1)[0]
        results = run_ensemble(config, 3, seed=child)
        again = run_ensemble(config, 3, seed=child)
        assert [r.interactions for r in results] == [r.interactions for r in again]
        ensemble = run_trials(config, 3, seed=child)
        assert ensemble.interactions == [r.interactions for r in results]
        # ...and the SeedSequence path really differs from the legacy
        # 32-bit collapse of the same child.
        collapsed = run_ensemble(config, 3, seed=legacy_cell_seed(child))
        assert [r.interactions for r in results] != [
            r.interactions for r in collapsed
        ]

    def test_seedsequence_seed_is_cacheable(self, tmp_path, counting_scenario):
        store = EnsembleCache(tmp_path)
        spec = ScenarioSpec.create(
            "sweep-counting-test", uniform_configuration(50, 2)
        )
        child = np.random.SeedSequence(8).spawn(1)[0]
        run_ensemble(spec, 2, seed=child, cache=store)
        run_ensemble(spec, 2, seed=child, cache=store)
        assert counting_scenario.calls == 2
        assert store.hits == 1
        # distinct from the integer-collapsed key
        run_ensemble(spec, 2, seed=legacy_cell_seed(child), cache=store)
        assert counting_scenario.calls == 4

    def test_sweep_process_executor_with_seedsequence_cells(self):
        spec = grid_spec(trials=2)
        serial = run_sweep(spec, seed=6, seed_derivation="spawn")
        process = run_sweep(
            spec, seed=6, seed_derivation="spawn", executor="process", jobs=2
        )
        assert flat_key(serial) == flat_key(process)


class TestAnalysisFacade:
    def test_facade_runs_on_process_executor(self):
        a = analysis_sweep(GRID, uniform_configuration, trials=2, seed=3)
        b = analysis_sweep(
            GRID, uniform_configuration, trials=2, seed=3, executor="process", jobs=2
        )
        for pa, pb in zip(a, b):
            assert pa.ensemble.interactions == pb.ensemble.interactions

    def test_facade_spawn_derivation_opt_in(self):
        legacy = analysis_sweep(GRID, uniform_configuration, trials=2, seed=3)
        spawn = analysis_sweep(
            GRID, uniform_configuration, trials=2, seed=3, seed_derivation="spawn"
        )
        assert [p.ensemble.interactions for p in legacy] != [
            p.ensemble.interactions for p in spawn
        ]

    def test_facade_cell_seeds(self):
        result = analysis_sweep(
            GRID, uniform_configuration, trials=2, cell_seeds=[1, 2, 3]
        )
        for params, cell_seed, point in zip(GRID, [1, 2, 3], result):
            ensemble = run_trials(uniform_configuration(**params), 2, seed=cell_seed)
            assert point.ensemble.interactions == ensemble.interactions


class TestCostModel:
    """Unit contract of `repro.engine.costmodel.CostModel`."""

    def test_signature_buckets_log_n(self):
        assert cost_signature("usd", "batched", 1000) == "usd:batched:n2^10"
        # nearby sizes share a family; order-of-magnitude jumps do not
        assert cost_signature("usd", "batched", 1100) == cost_signature(
            "usd", "batched", 1000
        )
        assert cost_signature("usd", "batched", 64000) != cost_signature(
            "usd", "batched", 1000
        )

    def test_cold_start_is_seeded_and_monotone_in_n(self):
        model = CostModel()
        small, source = model.predict("usd", "jump", 100)
        big, _ = model.predict("usd", "jump", 100_000)
        assert source == "seeded"
        assert 0 < small < big
        # unknown families still get a positive prediction
        unknown, source = model.predict("no-such-dynamics", "x", 500)
        assert source == "seeded" and unknown > 0

    def test_observations_refine_via_ewma(self):
        from repro.engine.costmodel import EWMA_ALPHA

        model = CostModel()
        sig = cost_signature("usd", "batched", 1000)
        model.observe(sig, replicates=10, seconds=5.0)
        per_rep, source = model.predict("usd", "batched", 1000)
        assert source == "observed"
        assert per_rep == pytest.approx(0.5)
        model.observe(sig, replicates=10, seconds=1.0)
        refined, _ = model.predict("usd", "batched", 1000)
        assert refined == pytest.approx((1 - EWMA_ALPHA) * 0.5 + EWMA_ALPHA * 0.1)

    def test_chunk_size_targets_wall_time_slices(self):
        model = CostModel()
        # expensive replicates split down to singletons
        assert model.chunk_size(10.0, trials=100, batch_size=1024) == 1
        # confetti coalesces, clamped by trials then batch width
        assert model.chunk_size(1e-7, trials=100, batch_size=1024) == 100
        assert model.chunk_size(1e-7, trials=10_000, batch_size=64) == 64
        # mid-range lands on ~ target / per-replicate
        assert model.chunk_size(0.05, trials=1000, batch_size=1024) == 4

    def test_payload_roundtrip(self):
        model = CostModel()
        sig = cost_signature("graph", "batched", 5000)
        model.observe(sig, 4, 2.0)
        model.observe_worker("box", sig, 4, 1.0)
        clone = CostModel.from_payload(model.to_payload())
        assert clone.predict("graph", "batched", 5000) == model.predict(
            "graph", "batched", 5000
        )
        assert clone.to_payload() == model.to_payload()

    def test_table_with_kernel_knob_sections_still_loads(self):
        # Older costmodel.json files also carry per-signature
        # event_blocks / stream_buffers timings under the same format
        # tag; those sections are ignored, the rest loads.
        sig = cost_signature("usd", "batched", 1000)
        payload = {
            "format": 1,
            "cells": {sig: {"per_replicate_seconds": 0.25, "samples": 3}},
            "event_blocks": {
                sig: {"16": {"seconds_per_replicate": 0.2, "samples": 2}}
            },
            "stream_buffers": {
                sig: {"256": {"seconds_per_replicate": 0.3, "samples": 1}}
            },
            "workers": {
                "box": {sig: {"per_replicate_seconds": 0.5, "samples": 2}}
            },
        }
        model = CostModel.from_payload(payload)
        assert model.predict("usd", "batched", 1000) == (0.25, "observed")
        assert model.predict_worker("box", "usd", "batched", 1000) == (
            0.5,
            "worker",
        )
        assert model.to_payload() == {
            "format": 1,
            "cells": payload["cells"],
            "workers": payload["workers"],
        }

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {"format": 999, "cells": {"usd:batched:n2^10": {}}},
            {"format": 1, "cells": "oops"},
            {"format": 1, "cells": {"usd:batched:n2^10": {"per_replicate_seconds": "x"}}},
            {
                "format": 1,
                "cells": {
                    "usd:batched:n2^10": {"per_replicate_seconds": -1, "samples": 1}
                },
            },
        ],
    )
    def test_malformed_payload_degrades_to_cold_start(self, payload):
        model = CostModel.from_payload(payload)
        _, source = model.predict("usd", "batched", 1000)
        assert source == "seeded"


class TestSpecBroadcast:
    """A large spec travels to each worker once per run, not per chunk."""

    def big_graph_spec(self, n=600, extra=9000):
        rng = np.random.default_rng(0)
        ring = [(i, (i + 1) % n) for i in range(n)]
        chords = [tuple(map(int, pair)) for pair in rng.integers(0, n, (extra, 2))]
        return graph_spec(ring + chords, config=uniform_configuration(n, 2))

    def test_broadcast_sweep_bit_identical_to_serial(self, monkeypatch):
        from repro.engine.remote import WorkerPool

        graph = self.big_graph_spec()
        spec = SweepSpec(
            cells=(
                SweepCell(
                    spec=graph,
                    trials=3,
                    max_interactions=100_000,
                    label=(("n", 600),),
                ),
                SweepCell(
                    spec=usd_spec(uniform_configuration(80, 2)),
                    trials=3,
                    label=(("n", 80),),
                ),
            )
        )
        # (run, connection) -> [graph segments, graph segments with the spec]
        graph_segments: dict[tuple, list[int]] = {}
        send = WorkerPool._send

        def spy(pool, conn, message):
            if message.get("type") == "chunk":
                for item in message["segments"]:
                    if item["spec_key"] == graph.key():
                        counts = graph_segments.setdefault(
                            (message["run"], id(conn)), [0, 0]
                        )
                        counts[0] += 1
                        counts[1] += "spec" in item
            send(pool, conn, message)

        monkeypatch.setattr(WorkerPool, "_send", spy)
        serial = run_sweep(spec, seed=11)
        with Engine(cache=False) as eng:
            # batch_size=1 cuts the graph cell into three chunks per run.
            runs = [
                eng.sweep(spec, seed=11, executor="process", jobs=2, batch_size=1)
                for _ in range(2)
            ]
        for process in runs:
            assert flat_key(serial) == flat_key(process)
        per_run: dict[int, int] = {}
        for (run, _), (segments, bodies) in graph_segments.items():
            per_run[run] = per_run.get(run, 0) + segments
            assert bodies == 1  # once per connection per run
        assert sorted(per_run.values()) == [3, 3]


class TestCostScheduler:
    """Scheduling must move wall time only, never bits."""

    def hetero_spec(self, trials=4):
        grid = [
            {"n": 60, "k": 2},
            {"n": 400, "k": 2},
            {"n": 120, "k": 3},
            {"n": 800, "k": 2},
        ]
        return SweepSpec.from_grid(grid, uniform_configuration, trials=trials)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_bit_identity_across_schedules(self, jobs):
        spec = self.hetero_spec()
        with Engine(backend="batched") as eng:
            want = flat_key(eng.sweep(spec, seed=13))
        with Engine(backend="batched") as eng:
            # Cold then warm cost model: the second sweep is chunked and
            # ordered from measured timings, not the seed table.
            cold = flat_key(eng.sweep(spec, seed=13, executor="process", jobs=jobs))
            warm = flat_key(eng.sweep(spec, seed=13, executor="process", jobs=jobs))
        assert cold == warm == want

    def test_cost_table_persists_and_warms_next_session(self, tmp_path):
        spec = self.hetero_spec()
        with Engine(backend="batched", cache=True, cache_dir=tmp_path) as eng:
            eng.sweep(spec, seed=21, executor="process", jobs=2)
            cold = eng.stats()["scheduler"]["last_sweep"]
        assert all(c["prediction_source"] == "seeded" for c in cold["cells"])
        assert (tmp_path / "costmodel.json").exists()
        # fresh session, same cache root, different seed so cells recompute
        with Engine(backend="batched", cache=True, cache_dir=tmp_path) as eng:
            eng.sweep(spec, seed=22, executor="process", jobs=2)
            warm = eng.stats()["scheduler"]["last_sweep"]
        assert all(c["prediction_source"] == "observed" for c in warm["cells"])

    def test_corrupt_cost_table_is_cold_start(self, tmp_path):
        (tmp_path / "costmodel.json").write_text("{ not json !")
        with Engine(backend="batched", cache=True, cache_dir=tmp_path) as eng:
            eng.sweep(self.hetero_spec(), seed=5, executor="process", jobs=2)
            report = eng.stats()["scheduler"]["last_sweep"]
        assert all(c["prediction_source"] == "seeded" for c in report["cells"])
        # the sweep rewrote a usable table
        with Engine(backend="batched", cache=True, cache_dir=tmp_path) as eng:
            eng.sweep(self.hetero_spec(), seed=6, executor="process", jobs=2)
            report = eng.stats()["scheduler"]["last_sweep"]
        assert all(c["prediction_source"] == "observed" for c in report["cells"])
