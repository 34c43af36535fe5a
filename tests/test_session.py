"""Engine sessions: persistent pool, scoped overrides, bit-identity.

The session redesign must be invisible in the results: ``Engine.ensemble``
and ``Engine.sweep`` are asserted bit-identical to the free functions and
to a manual per-replicate reference loop at fixed seeds, across the
serial and process executors.  What *does* change — pool ownership,
option freezing, scoped configuration — is pinned here: worker PIDs
persist across calls, the pool respawns exactly when jobs or the
registries change, and ``engine(...)``
restores the previous configuration on exit and on exceptions.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import Configuration
from repro.engine import (
    DEFAULT_BATCH_SIZE,
    Engine,
    EngineOptions,
    EnsembleCache,
    SweepCell,
    SweepSpec,
    current_engine,
    engine,
    get_backend,
    get_scenario,
    active_options,
    graph_spec,
    replicate_seeds,
    run_ensemble,
    run_sweep,
    usd_spec,
    zealot_spec,
)
from repro.engine.executors import plan_units
from repro.workloads import uniform_configuration


def results_key(results):
    return [
        (
            tuple(r.final.counts.tolist()),
            getattr(r, "interactions", getattr(r, "rounds", None)),
            getattr(r, "winner", None),
        )
        for r in results
    ]


def sweep_key(outcome):
    return [results_key(cell.results) for cell in outcome]


def attach_workers(eng, *cache_dirs):
    """Serve ``eng``'s worker pool from one thread per ``cache_dirs`` entry."""
    from repro.engine import serve_worker

    pool = eng.worker_pool()

    def serve(name, cache_dir):
        try:
            serve_worker(pool.endpoint, name=name, cache_dir=cache_dir)
        except OSError:
            pass  # the session closed the pool under the worker

    for i, cache_dir in enumerate(cache_dirs):
        threading.Thread(target=serve, args=(f"w{i}", cache_dir), daemon=True).start()
    pool.wait_for_workers(len(cache_dirs), timeout=30)


def small_sweep(trials=6):
    grid = [{"n": 60, "k": 2}, {"n": 90, "k": 2}, {"n": 120, "k": 2}]
    return SweepSpec.from_grid(grid, uniform_configuration, trials=trials)


class TestEngineOptions:
    def test_resolve_reads_environment_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "batched")
        monkeypatch.setenv("REPRO_ENGINE_JOBS", "3")
        opts = EngineOptions.resolve()
        assert opts.backend == "batched"
        assert opts.jobs == 3
        assert opts.executor == "process"
        # The frozen value survives later environment mutation.
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "agents")
        assert opts.backend == "batched"

    def test_overrides_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "agents")
        opts = EngineOptions.resolve(backend="jump", jobs=2)
        assert opts.backend == "jump"
        assert opts.jobs == 2

    def test_none_overrides_are_ignored(self):
        opts = EngineOptions.resolve(backend=None, jobs=None)
        assert opts.backend == active_options().backend
        assert opts.jobs == active_options().jobs

    def test_replace_and_frozen(self):
        opts = EngineOptions()
        derived = opts.replace(jobs=4, backend=None)
        assert derived.jobs == 4
        assert derived.backend == opts.backend
        assert opts.jobs == 1  # original untouched
        with pytest.raises(Exception):
            opts.jobs = 9  # frozen dataclass

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineOptions(jobs=0)
        with pytest.raises(ValueError):
            EngineOptions(service_max_queue=0)
        with pytest.raises(TypeError):
            EngineOptions.resolve(warp_factor=9)
        with pytest.raises(TypeError):
            EngineOptions().replace(warp_factor=9)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("REPRO_ENGINE_JOBS", "two"),
            ("REPRO_ENGINE_CACHE", "ture"),
            ("REPRO_ENGINE_CACHE_MAX_BYTES", "lots"),
            ("REPRO_ENGINE_WORKERS", "no-port"),
            ("REPRO_SERVICE_MAX_QUEUE", "many"),
            ("REPRO_SERVICE_MAX_REPLICATES", "0"),
        ],
    )
    def test_malformed_env_var_is_named(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        with pytest.raises(ValueError, match=name):
            EngineOptions.resolve()

    @pytest.mark.parametrize(
        "value,enabled",
        [("1", True), ("Yes", True), (" on ", True), ("false", False),
         ("0", False), ("OFF", False), ("", False)],
    )
    def test_cache_env_spellings(self, monkeypatch, value, enabled):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", value)
        assert EngineOptions.resolve().cache is enabled

    def test_unlimited_cache_cap_normalized(self):
        assert EngineOptions(cache_max_bytes=0).cache_max_bytes is None
        assert EngineOptions(cache_max_bytes=123).cache_max_bytes == 123


class TestBitIdentity:
    CONFIG = Configuration.from_supports([80, 40, 20])

    def manual_reference(self, trials, seed):
        jump = get_backend("jump")
        return [
            jump.simulate(self.CONFIG, rng=np.random.default_rng(s))
            for s in replicate_seeds(seed, trials)
        ]

    def test_engine_ensemble_matches_manual_reference(self):
        want = results_key(self.manual_reference(8, 41))
        with Engine() as eng:
            serial = eng.ensemble(self.CONFIG, 8, seed=41, executor="serial")
            process = eng.ensemble(
                self.CONFIG, 8, seed=41, executor="process", jobs=2
            )
        assert results_key(serial) == want
        assert results_key(process) == want

    def test_engine_matches_free_function_across_executors(self):
        free_serial = run_ensemble(self.CONFIG, 8, seed=17, executor="serial")
        free_process = run_ensemble(
            self.CONFIG, 8, seed=17, executor="process", jobs=2
        )
        with Engine(jobs=2) as eng:
            via_session = eng.ensemble(self.CONFIG, 8, seed=17)
        assert (
            results_key(free_serial)
            == results_key(free_process)
            == results_key(via_session)
        )

    def test_engine_sweep_matches_free_function_and_serial(self):
        spec = small_sweep()
        free = run_sweep(spec, seed=23, executor="serial")
        with Engine(jobs=2) as eng:
            via_session = eng.sweep(spec, seed=23, executor="process", jobs=2)
        assert sweep_key(free) == sweep_key(via_session)

    def test_sweep_mixed_record_widths_equal_serial(self):
        # Process workers' record blocks must be invisible in the
        # results, including across different record widths in one
        # sweep (usd k=3 cells + a zealot cell).
        cells = tuple(
            [
                SweepCell(spec=zealot_spec(uniform_configuration(60, 2), [0, 3]),
                          trials=4, max_interactions=50_000),
                SweepCell(spec=coerce_usd(uniform_configuration(80, 3)), trials=4),
            ]
        )
        spec = SweepSpec(cells=cells)
        with Engine(jobs=2) as eng:
            process = eng.sweep(spec, seed=5, executor="process")
            serial = eng.sweep(spec, seed=5, executor="serial")
        assert sweep_key(process) == sweep_key(serial)
        # Decoded results keep their scenario-specific types.
        assert type(process.cells[0].results[0]).__name__ == "ZealotRunResult"



def coerce_usd(config):
    from repro.engine import usd_spec

    return usd_spec(config)


def register_fastsim_scenario(name, config, before_run=None):
    """Register scenario ``name`` (plain USD runs, the base record codec)
    and return a spec of it at ``config``.

    ``before_run()`` is called at the top of every kernel call, in
    whichever process runs it.
    """
    from repro.engine import Scenario, register_scenario
    from repro.engine.scenarios import ScenarioSpec

    class FastsimScenario(Scenario):
        description = "plain USD for session tests"
        record_transport = True

        def reference(self, spec, *, rng, max_interactions=None):
            from repro.core.fastsim import simulate

            return simulate(spec.config, rng=rng, max_interactions=max_interactions)

        def run_chunk(self, spec, variant, rngs, max_interactions):
            if before_run is not None:
                before_run()
            return super().run_chunk(spec, variant, rngs, max_interactions)

    FastsimScenario.name = name
    register_scenario(FastsimScenario())
    return ScenarioSpec.create(name, config)


class TestPersistentPool:
    CONFIG = Configuration.from_supports([60, 30])

    def test_same_worker_pids_across_two_sweeps(self):
        spec = small_sweep(trials=4)
        with Engine(jobs=2) as eng:
            eng.sweep(spec, seed=1, executor="process")
            first = eng.worker_pids()
            eng.sweep(spec, seed=2, executor="process")
            second = eng.worker_pids()
            stats = eng.stats()
        assert first == second
        assert len(first) == 2
        assert stats["pool"]["spawns"] == 1
        assert stats["pool"]["reuses"] >= 1

    def test_pool_shared_between_ensemble_and_sweep(self):
        with Engine(jobs=2) as eng:
            eng.ensemble(self.CONFIG, 6, seed=3, executor="process")
            pids = eng.worker_pids()
            eng.sweep(small_sweep(trials=4), seed=4, executor="process")
            assert eng.worker_pids() == pids
            assert eng.stats()["pool"]["spawns"] == 1

    def test_respawn_when_jobs_change(self):
        with Engine(jobs=2) as eng:
            eng.ensemble(self.CONFIG, 6, seed=3, executor="process")
            before = eng.worker_pids()
            eng.ensemble(self.CONFIG, 6, seed=3, executor="process", jobs=3)
            after = eng.worker_pids()
            stats = eng.stats()
        assert len(before) == 2 and len(after) == 3
        assert not set(before) & set(after)
        assert stats["pool"]["spawns"] == 2

    def test_respawn_when_jobs_configured(self):
        with Engine(jobs=2) as eng:
            eng.ensemble(self.CONFIG, 6, seed=3, executor="process")
            before = eng.worker_pids()
            eng.configure(backend="batched")
            assert eng.worker_pids() == before  # the backend ships per chunk
            eng.configure(jobs=3)
            assert eng.worker_pids() == ()  # torn down, lazily respawned
            eng.ensemble(self.CONFIG, 6, seed=3, executor="process")
            after = eng.worker_pids()
            stats = eng.stats()
        assert len(before) == 2 and len(after) == 3
        assert not set(before) & set(after)
        assert stats["pool"]["spawns"] == 2
        assert stats["options"]["jobs"] == 3

    def test_configure_rebuilds_what_each_option_declares(self, tmp_path):
        from dataclasses import fields

        rebind = {f.name: f.metadata["rebind"] for f in fields(EngineOptions)}
        assert set(rebind.values()) == {None, "pool", "workers", "cache"}
        assert rebind["jobs"] == "pool" and rebind["backend"] is None
        assert rebind["workers"] == rebind["worker_secret"] == "workers"
        assert rebind["cache_dir"] == rebind["cache_max_bytes"] == "cache"
        with Engine(cache=True, cache_dir=str(tmp_path / "a")) as eng:
            eng.configure(cache_dir=str(tmp_path / "b"))
            root = eng.stats()["cache"]["root"]
        assert root == str(tmp_path / "b")

    def test_respawn_when_registry_grows(self):
        # Forked workers snapshot the registries; registering a scenario
        # after the fork must respawn the workers so they can resolve it.
        from repro.engine.scenarios import _REGISTRY

        with Engine(jobs=2) as eng:
            eng.ensemble(self.CONFIG, 4, seed=3, executor="process")
            before = eng.worker_pids()
            spec = register_fastsim_scenario("session-epoch-test", self.CONFIG)
            try:
                got = eng.ensemble(spec, 4, seed=3, executor="process")
                want = eng.ensemble(spec, 4, seed=3, executor="serial")
            finally:
                _REGISTRY.pop("session-epoch-test", None)
            after = eng.worker_pids()
            stats = eng.stats()
        assert not set(before) & set(after)
        assert stats["pool"]["spawns"] == 2
        assert results_key(got) == results_key(want)

    def test_close_reaps_every_worker(self):
        with Engine(jobs=2) as eng:
            eng.ensemble(self.CONFIG, 4, seed=3, executor="process")
            pids = eng.worker_pids()
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # a zombie would still answer

    def test_closed_engine_refuses_work(self):
        eng = Engine()
        eng.close()
        with pytest.raises(RuntimeError):
            eng.ensemble(self.CONFIG, 2, seed=1)
        with pytest.raises(RuntimeError):
            eng.sweep(small_sweep(trials=2), seed=1)


class TestLocalWorkerDeath:
    """A local worker that dies costs time or fails the call, never hangs it."""

    CONFIG = Configuration.from_supports([60, 30])

    def test_worker_exiting_mid_unit_requeues_bit_identically(self, tmp_path):
        from repro.engine.scenarios import _REGISTRY

        parent, marker = os.getpid(), str(tmp_path / "died")

        def first_worker_unit_exits():
            if os.getpid() == parent:
                return
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return
            os._exit(3)

        spec = register_fastsim_scenario(
            "dies-once", self.CONFIG, first_worker_unit_exits
        )
        sweep = SweepSpec(
            cells=(SweepCell(spec=spec, trials=4), SweepCell(spec=spec, trials=3))
        )
        try:
            with Engine(jobs=2, cache=False) as eng:
                want = eng.sweep(sweep, seed=5, executor="serial")
                got = eng.sweep(sweep, seed=5, executor="process")
                stats = eng.stats()
                again = eng.sweep(sweep, seed=5, executor="process")
                spawns = eng.stats()["pool"]["spawns"]
        finally:
            _REGISTRY.pop("dies-once", None)
        assert os.path.exists(marker)
        assert stats["pool"]["requeued"] == 1
        assert sweep_key(got) == sweep_key(want) == sweep_key(again)
        # The fleet lost a worker, so the next call forked a new one.
        assert spawns == stats["pool"]["spawns"] + 1 == 2

    def test_every_worker_dying_fails_fast_and_the_next_call_respawns(self):
        from repro.engine.remote import LOCAL_WORKER_TIMEOUT
        from repro.engine.scenarios import _REGISTRY

        parent = os.getpid()

        def every_worker_unit_exits():
            if os.getpid() != parent:
                os._exit(4)

        spec = register_fastsim_scenario(
            "always-dies", self.CONFIG, every_worker_unit_exits
        )
        want = run_ensemble(self.CONFIG, 6, seed=3, executor="serial")
        try:
            with Engine(jobs=2, cache=False) as eng:
                started = time.monotonic()
                with pytest.raises(RuntimeError, match="every local worker died"):
                    eng.ensemble(spec, 4, seed=1, executor="process")
                elapsed = time.monotonic() - started
                spawns = eng.stats()["pool"]["spawns"]
                got = eng.ensemble(self.CONFIG, 6, seed=3, executor="process")
                stats = eng.stats()
        finally:
            _REGISTRY.pop("always-dies", None)
        assert elapsed < LOCAL_WORKER_TIMEOUT + 10
        assert stats["pool"]["spawns"] == spawns + 1
        assert results_key(got) == results_key(want)


class TestScopedOverrides:
    def test_scoped_options_restored_on_exit(self):
        base = current_engine().options
        with engine(backend="batched", jobs=2) as eng:
            assert current_engine() is eng
            assert active_options().backend == "batched"
            assert active_options().jobs == 2
        assert current_engine().options == base
        assert active_options().backend == base.backend

    def test_scoped_options_restored_on_exception(self):
        base = current_engine().options
        with pytest.raises(RuntimeError, match="boom"):
            with engine(backend="batched"):
                assert active_options().backend == "batched"
                raise RuntimeError("boom")
        assert current_engine().options == base

    def test_nested_scopes_compose(self):
        with engine(backend="batched") as outer:
            with engine(jobs=2) as inner:
                assert inner.options.backend == "batched"
                assert inner.options.jobs == 2
            assert active_options().jobs == outer.options.jobs
            assert active_options().backend == "batched"

    def test_scoped_backend_reaches_variant_resolution(self):
        # The session's backend must drive scenario variant resolution
        # exactly like the old global default did.
        from repro.engine import get_scenario

        with engine(backend="batched"):
            assert get_scenario("zealots").variant(None) == "batched"
        assert get_scenario("zealots").variant(None) == "reference"

    def test_existing_engine_can_be_installed(self):
        eng = Engine(backend="batched")
        with engine(eng) as scoped:
            assert scoped is eng
            assert current_engine() is eng
        assert not eng.closed  # caller keeps ownership
        eng.close()

    def test_install_with_overrides_rejected(self):
        eng = Engine()
        with pytest.raises(TypeError):
            with engine(eng, jobs=2):
                pass
        eng.close()

    def test_free_functions_route_through_scoped_session(self):
        config = Configuration.from_supports([50, 25])
        with engine(backend="batched") as eng:
            run_ensemble(config, 4, seed=8)
            stats = eng.stats()
        assert stats["ensembles"] == 1
        assert stats["replicates_simulated"] == 4


class TestDefaultSession:
    def test_default_session_rebuilds_on_env_change(self, monkeypatch):
        first = current_engine()
        monkeypatch.setenv("REPRO_ENGINE_BACKEND", "batched")
        second = current_engine()
        assert second is not first
        assert second.options.backend == "batched"
        monkeypatch.delenv("REPRO_ENGINE_BACKEND")
        third = current_engine()
        assert third.options.backend == first.options.backend

    def test_default_session_stable_when_defaults_stable(self):
        assert current_engine() is current_engine()


class TestSessionCache:
    def test_session_owns_one_cache_handle(self, tmp_path):
        config = Configuration.from_supports([40, 20])
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            assert isinstance(eng.cache, EnsembleCache)
            eng.ensemble(config, 3, seed=6)
            eng.ensemble(config, 3, seed=6)
            stats = eng.stats()
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["misses"] == 1
        assert stats["replicates_simulated"] == 3
        assert stats["replicates_from_cache"] == 3

    def test_cache_true_opens_session_handle_lazily(self, tmp_path):
        config = Configuration.from_supports([40, 20])
        with Engine(cache_dir=str(tmp_path)) as eng:
            assert eng.cache is None
            eng.ensemble(config, 2, seed=7, cache=True)
            assert isinstance(eng.cache, EnsembleCache)
            assert eng.cache.root == tmp_path

    def test_sweep_resume_state_in_cache_stats(self, tmp_path, capsys):
        from repro.cli import main

        spec = small_sweep(trials=3)
        store = EnsembleCache(tmp_path)
        with Engine() as eng:
            outcome = eng.sweep(spec, seed=11, executor="serial", cache=store)
        status = store.sweep_status()
        assert len(status) == 1
        assert status[0]["cells"] == 3
        assert status[0]["complete"] == 3
        assert status[0]["missing"] == 0
        # Delete one cell's ensemble entry: the sweep becomes resumable.
        removed = store._path(
            store.load_sweep_index(outcome.sweep_key)["cells"][1]
        )
        removed.unlink()
        status = store.sweep_status()
        assert status[0]["complete"] == 2
        assert status[0]["missing"] == 1
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2/3 cells complete, 1 missing (resumable)" in out

    def test_corrupt_sweep_index_reported(self, tmp_path):
        (tmp_path / "deadbeef.sweep.json").write_text("not json")
        store = EnsembleCache(tmp_path)
        status = store.sweep_status()
        assert status == [
            {"key": "deadbeef", "cells": None, "complete": 0, "missing": 0}
        ]


class TestCliSession:
    def test_report_shares_one_session(self, monkeypatch, capsys, tmp_path):
        # A whole `repro report` runs its experiments inside ONE session;
        # two cheap experiments stand in for e01-e19.
        import repro.cli as cli
        from repro.experiments import EXPERIMENTS

        captured = {}

        def spy_run_all(scale, seed):
            captured["engine"] = current_engine()
            return [
                EXPERIMENTS[key].run(scale=scale, seed=seed)
                for key in ("E11", "E12")
            ]

        monkeypatch.setattr(cli, "run_all", spy_run_all)
        out = tmp_path / "EXPERIMENTS.md"
        code = cli.main(["report", "--output", str(out)])
        assert code == 0
        assert isinstance(captured["engine"], Engine)
        assert captured["engine"].closed  # torn down with the command
        text = capsys.readouterr().out
        assert "session:" in text
        assert "replicates simulated" in text

    def test_run_command_uses_session_backend(self, monkeypatch):
        import repro.cli as cli

        seen = {}
        real = cli.run_experiment

        def spy(experiment, **kwargs):
            seen["backend"] = current_engine().options.backend
            return real(experiment, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", spy)
        assert cli.main(["run", "E12", "--backend", "batched"]) == 0
        assert seen["backend"] == "batched"


class TestSchedulerStats:
    def test_fresh_then_fully_cached_split(self, tmp_path):
        spec = small_sweep(trials=4)
        with Engine(
            backend="batched", cache=True, cache_dir=str(tmp_path)
        ) as eng:
            eng.sweep(spec, seed=31, executor="process", jobs=2)
            first = eng.stats()["scheduler"]["last_sweep"]
            eng.sweep(spec, seed=31, executor="process", jobs=2)
            second = eng.stats()["scheduler"]["last_sweep"]
        assert first["replicates_scheduled"] == 12
        assert first["replicates_from_cache"] == 0
        assert first["predicted_seconds"] > 0
        assert first["measured_seconds"] > 0
        # cache hits are accounted as cached, not as zero-cost work
        assert second["replicates_scheduled"] == 0
        assert second["replicates_from_cache"] == 12
        assert second["predicted_seconds"] == 0
        for cell in second["cells"]:
            assert cell["cached"]
            assert "predicted_seconds" not in cell

    def test_partially_cached_sweep_splits_per_cell(self, tmp_path):
        spec = small_sweep(trials=3)
        store = EnsembleCache(tmp_path)
        with Engine(backend="batched") as eng:
            outcome = eng.sweep(spec, seed=11, cache=store)
        removed = store._path(
            store.load_sweep_index(outcome.sweep_key)["cells"][1]
        )
        removed.unlink()
        with Engine(backend="batched") as eng:
            again = eng.sweep(spec, seed=11, cache=store)
            report = eng.stats()["scheduler"]["last_sweep"]
        assert sweep_key(again) == sweep_key(outcome)
        assert report["replicates_scheduled"] == 3
        assert report["replicates_from_cache"] == 6
        assert [c["cached"] for c in report["cells"]] == [True, False, True]
        assert [c["replicates_from_cache"] for c in report["cells"]] == [3, 0, 3]

    def test_report_and_cost_model_summary(self):
        spec = small_sweep(trials=4)
        with Engine(backend="batched") as eng:
            eng.sweep(spec, seed=3, executor="process", jobs=2)
            snap = eng.stats()
        report = snap["scheduler"]["last_sweep"]
        assert report["executor"] == "process"
        assert report["prediction_error"] is None or report["prediction_error"] >= 0
        for cell in report["cells"]:
            assert cell["prediction_source"] in ("seeded", "observed")
        summary = snap["scheduler"]["cost_model"]
        assert summary == {"signatures": summary["signatures"], "workers": {}}
        assert summary["signatures"] >= 1


class TestPlanUnits:
    """How ``plan_units`` cuts one lockstep group, by executor width.

    Each case is ``(trials per cell, jobs, batch_size, predicted seconds
    per cell or None, units as lists of (cell, replicates) segments)``.
    """

    CASES = {
        "serial keeps batch_size chunks in pending order": (
            [3, 4, 5], 1, 5, [1.0, 2.0, 3.0],
            [[(0, 3), (1, 2)], [(1, 2), (2, 3)], [(2, 2)]],
        ),
        "serial with one cell": ([7], 1, 1024, None, [[(0, 7)]]),
        "one whole cell per worker": (
            [8, 32], 2, 1024, [2.0, 1.5], [[(0, 8)], [(1, 32)]],
        ),
        "longest predicted first, onto the lightest unit": (
            # 0 and 1 open the two units, 2 joins 1's (3 < 4), 3 joins
            # 0's (4 < 5); both reach 5 s and the one with more
            # replicates comes first.
            [2, 4, 3, 1], 2, 1024, [4.0, 3.0, 2.0, 1.0],
            [[(1, 4), (2, 3)], [(0, 2), (3, 1)]],
        ),
        "as many cells as workers": (
            [3, 4, 5], 3, 1024, [1.0, 1.0, 1.0], [[(2, 5)], [(1, 4)], [(0, 3)]],
        ),
        "without predictions, replicates balance": (
            [2, 6, 3], 2, 1024, None, [[(1, 6)], [(0, 2), (2, 3)]],
        ),
        "whole-cell units still cut at batch_size": (
            [5, 3, 2], 2, 3, [3.0, 2.0, 1.0],
            [[(0, 3)], [(0, 2)], [(1, 3)], [(2, 2)]],
        ),
        "fewer cells than workers split columns": (
            [4, 3], 3, 1024, [1.0, 1.0], [[(0, 3)], [(0, 1), (1, 2)], [(1, 1)]],
        ),
        "one cell split across workers": (
            [11], 2, 1024, [5.0], [[(0, 6)], [(0, 5)]],
        ),
        "split columns still cut at batch_size": (
            [11], 2, 4, [5.0], [[(0, 4)], [(0, 4)], [(0, 3)]],
        ),
        "a dominant cell within the free width stays whole": (
            [60, 1, 1], 2, 1024, [60.0, 1.0, 1.0], [[(0, 60)], [(1, 1), (2, 1)]],
        ),
        "a dominant wide cell is split by equal widths": (
            # Whole cells would give one unit 250 columns wide beside one
            # of 2: wider than the share (126) and the free width.
            [250, 1, 1], 2, 1024, [250.0, 1.0, 1.0],
            [[(0, 126)], [(0, 124), (1, 1), (2, 1)]],
        ),
        "wide units stay whole within the equal share": (
            [90, 80, 10, 20], 2, 1024, [9.0, 8.0, 1.0, 2.0],
            [[(0, 90), (2, 10)], [(1, 80), (3, 20)]],
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_units(self, name):
        trials, jobs, batch_size, predicted, want = self.CASES[name]
        cells = [
            SweepCell(spec=usd_spec(uniform_configuration(60 + 30 * i, 2)), trials=t)
            for i, t in enumerate(trials)
        ]
        seeds = [100 + i for i in range(len(cells))]
        units = plan_units(
            cells,
            list(range(len(cells))),
            [get_scenario("usd")] * len(cells),
            ["batched"] * len(cells),
            seeds,
            None,
            jobs=jobs,
            batch_size=batch_size,
            predicted=None if predicted is None else dict(enumerate(predicted)),
        )
        got = [[(s.cell, len(s.seeds)) for s in unit.segments] for unit in units]
        assert got == want
        assert all(unit.packed for unit in units)
        assert max(len(unit.seeds) for unit in units) <= batch_size
        # Cutting never reorders or reseeds a cell's replicates.
        for i, cell in enumerate(cells):
            drawn = [
                (seed.entropy, seed.spawn_key)
                for unit in units
                for segment in unit.segments
                if segment.cell == i
                for seed in segment.seeds
            ]
            assert drawn == [
                (seed.entropy, seed.spawn_key)
                for seed in replicate_seeds(seeds[i], cell.trials)
            ]


class TestPackedSweep:
    """A serial sweep runs each lockstep scenario's cells as one kernel call.

    Mixed k (2, 3, 8) and n, per-cell budgets (one runs out), and zealot
    cells; 12 usd replicates at ``batch_size=5`` make three chunks that
    straddle cell boundaries.
    """

    CELLS = (
        SweepCell(spec=usd_spec(uniform_configuration(90, 2)), trials=3),
        SweepCell(
            spec=usd_spec(uniform_configuration(150, 3)),
            trials=4,
            max_interactions=600,
        ),
        SweepCell(
            spec=zealot_spec(Configuration.from_supports([40, 30, 20]), [0, 4, 1]),
            trials=3,
            max_interactions=30_000,
        ),
        SweepCell(spec=usd_spec(uniform_configuration(120, 8)), trials=5),
        SweepCell(
            spec=zealot_spec(uniform_configuration(60, 2), [3, 0]),
            trials=2,
            max_interactions=20_000,
        ),
    )

    @staticmethod
    def record_kernel_calls(monkeypatch):
        calls = []
        for name in ("usd", "zealots"):
            scenario_type = type(get_scenario(name))
            original = scenario_type.run_chunk

            def recording(self, spec, variant, rngs, budget, _run=original):
                calls.append((self.name, type(spec).__name__, len(rngs)))
                return _run(self, spec, variant, rngs, budget)

            monkeypatch.setattr(scenario_type, "run_chunk", recording)
        return calls

    def test_packed_equals_process_equals_per_cell(self, tmp_path, monkeypatch):
        spec = SweepSpec(cells=self.CELLS)
        with Engine(backend="batched") as eng:
            process = eng.sweep(spec, seed=7, executor="process", jobs=2)
        store = EnsembleCache(tmp_path)
        calls = self.record_kernel_calls(monkeypatch)
        with Engine(backend="batched") as eng:
            serial = eng.sweep(
                spec, seed=7, executor="serial", batch_size=5, cache=store
            )
            assert calls == [
                ("usd", "PackedChunk", 5),
                ("usd", "PackedChunk", 5),
                ("usd", "PackedChunk", 2),
                ("zealots", "PackedChunk", 5),
            ]
            assert any(r.budget_exhausted for r in serial.cells[1].results)
            per_cell = [
                eng.ensemble(
                    run.cell.spec, run.cell.trials, seed=run.seed,
                    max_interactions=run.cell.max_interactions, cache=False,
                )
                for run in serial
            ]
            assert sweep_key(serial) == sweep_key(process)
            assert sweep_key(serial) == [results_key(r) for r in per_cell]

            # A second identical sweep, and the same cells as single
            # ensembles, are served from the entries the packed sweep
            # stored: the cache keys did not change.
            simulated = eng.stats()["replicates_simulated"]
            del calls[:]
            again = eng.sweep(
                spec, seed=7, executor="serial", batch_size=5, cache=store
            )
            for run in serial:
                eng.ensemble(
                    run.cell.spec, run.cell.trials, seed=run.seed,
                    max_interactions=run.cell.max_interactions, cache=store,
                )
            assert calls == []
            assert eng.stats()["replicates_simulated"] == simulated
        assert all(run.cached for run in again)
        assert sweep_key(again) == sweep_key(serial)

    def test_custom_batched_backends_run_per_cell(self, monkeypatch):
        from repro.engine import backends
        from repro.engine.batched import BatchedBackend

        class Replacement(BatchedBackend):
            pass

        spec = SweepSpec(cells=self.CELLS[:2])
        with Engine(backend="batched") as eng:
            want = sweep_key(eng.sweep(spec, seed=3, executor="serial"))
        calls = self.record_kernel_calls(monkeypatch)
        with Engine() as eng:
            got = eng.sweep(spec, seed=3, backend=BatchedBackend())
            monkeypatch.setitem(backends._REGISTRY, "batched", Replacement())
            replaced = eng.sweep(spec, seed=3, backend="batched")
        assert sweep_key(got) == sweep_key(replaced) == want
        assert calls == [("usd", "ScenarioSpec", 3), ("usd", "ScenarioSpec", 4)] * 2

    def test_chunk_seconds_split_by_interactions(self, monkeypatch):
        import itertools
        import types

        from repro.engine import executors
        from repro.engine.costmodel import CostModel

        # Every chunk takes exactly 3 s on this clock.
        ticks = itertools.count(0.0, 3.0)
        monkeypatch.setattr(
            executors, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        observed = []
        monkeypatch.setattr(
            CostModel,
            "observe",
            lambda self, signature, replicates, seconds: observed.append(
                (signature, replicates, seconds)
            ),
        )
        spec = SweepSpec(cells=self.CELLS)
        with Engine(backend="batched") as eng:
            run = eng.sweep(spec, seed=5, executor="serial")
            report = eng.stats()["scheduler"]["last_sweep"]
        cells = report["cells"]
        # The cost model sees one sample per cell, as the report does.
        assert sorted(observed) == sorted(
            (c["signature"], c["trials"], c["measured_seconds"]) for c in cells
        )
        # One packed chunk per scenario, split in proportion to interactions.
        for group in ((0, 1, 3), (2, 4)):
            assert sum(cells[i]["measured_seconds"] for i in group) == pytest.approx(3.0)
            work = [sum(r.interactions for r in run.cells[i].results) for i in group]
            for i, cell_work in zip(group, work):
                assert cells[i]["measured_seconds"] == pytest.approx(
                    3.0 * cell_work / sum(work)
                )
        assert report["measured_seconds"] == pytest.approx(6.0)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_serial_process_remote_identical(self, jobs):
        spec = SweepSpec(cells=self.CELLS)
        with Engine(backend="batched", cache=False) as eng:
            serial = eng.sweep(spec, seed=29, executor="serial")
        runs, plans = {}, {}
        for executor in ("process", "remote"):
            with Engine(backend="batched", cache=False) as eng:
                if executor == "remote":
                    attach_workers(eng, *[None] * jobs)
                runs[executor] = sweep_key(
                    eng.sweep(spec, seed=29, executor=executor, jobs=jobs)
                )
                plans[executor] = eng.stats()["scheduler"]["last_sweep"]["plan"]
        assert runs["process"] == runs["remote"] == sweep_key(serial)
        segments = [[entry["segments"] for entry in plan] for plan in plans.values()]
        assert segments[0] == segments[1]
        # usd has 3 cells, at least one per worker: `jobs` units of whole
        # cells.  zealots has 2: whole cells at jobs=2, split at jobs=3.
        usd = [unit for unit in segments[0] if unit[0][0] in (0, 1, 3)]
        assert len(usd) == jobs
        assert all(
            reps == self.CELLS[cell].trials for unit in usd for cell, reps in unit
        )
        assert len(segments[0]) == 2 * jobs
        assert all(entry["worker"] is None for entry in plans["process"])
        assert all(entry["worker"] is not None for entry in plans["remote"])

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_process_packed_equals_serial_packed(self, jobs):
        # batch_size=3 caps every unit below the per-worker share, so
        # there are more units than workers and several straddle cells.
        spec = SweepSpec(cells=self.CELLS)
        with Engine(backend="batched") as eng:
            serial = eng.sweep(spec, seed=19, executor="serial", batch_size=3)
            per_cell = [
                results_key(
                    eng.ensemble(
                        run.cell.spec, run.cell.trials, seed=run.seed,
                        max_interactions=run.cell.max_interactions,
                        executor="serial", cache=False,
                    )
                )
                for run in serial
            ]
        with Engine(backend="batched") as eng:
            process = eng.sweep(
                spec, seed=19, executor="process", jobs=jobs, batch_size=3
            )
            report = eng.stats()["scheduler"]["last_sweep"]
        assert sweep_key(process) == sweep_key(serial) == per_cell
        # 12 usd replicates in 3 cells and 5 zealots replicates in 2,
        # in units of at most 3.  jobs=1: each queue in chunks of 3.
        # jobs=2: whole cells, usd bins {0, 3} (3 + 5) and {1} (4),
        # zealots one cell per unit.  jobs=3: one usd cell per bin
        # (3, 4, 5), and the 2 zealots cells split into widths 2, 2, 1.
        assert report["units"] == {1: 4 + 2, 2: (3 + 2) + 2, 3: (1 + 2 + 2) + 3}[jobs]
        assert report["units"] > jobs
        assert report["packed_units"] == report["units"]

    def test_process_queue_mixes_packed_and_per_cell_units(self):
        from repro.engine import graph_spec

        ring = [(i, (i + 1) % 40) for i in range(40)]
        ring += [((i + 1) % 40, i) for i in range(40)]
        graph = SweepCell(
            spec=graph_spec(ring, config=uniform_configuration(40, 2)),
            trials=3,
            max_interactions=20_000,
        )
        spec = SweepSpec(cells=(self.CELLS[0], graph, self.CELLS[1]))
        with Engine(backend="batched") as eng:
            serial = eng.sweep(spec, seed=23, executor="serial")
        with Engine(backend="batched") as eng:
            process = eng.sweep(spec, seed=23, executor="process", jobs=2)
            report = eng.stats()["scheduler"]["last_sweep"]
            chunks = eng.stats()["transport"]["pickle"]["chunks"]
        assert sweep_key(process) == sweep_key(serial)
        # The 7 usd replicates make two packed units; the graph cell
        # keeps its own cost-model chunks in the same queue.
        assert report["packed_units"] == 2
        assert report["units"] > 2
        assert chunks == report["units"]


class TestProcessPacking:
    """The process executor runs one packed unit of whole cells per worker."""

    SPEC = SweepSpec(
        cells=(
            SweepCell(spec=usd_spec(uniform_configuration(90, 3)), trials=5),
            SweepCell(spec=usd_spec(uniform_configuration(150, 2)), trials=6),
        )
    )

    @staticmethod
    def spy_pool(monkeypatch):
        """Record every unit, output and frame byte ``WorkerPool.run`` moves."""
        from repro.engine.remote import WorkerPool

        seen = {"units": [], "outputs": [], "bytes": 0, "received": 0}
        run = WorkerPool.run

        def spy(pool, units, **kwargs):
            sent, received = pool.bytes_sent, pool.bytes_received
            outputs = run(pool, units, **kwargs)
            seen["units"].extend(units)
            seen["outputs"].extend(outputs)
            seen["received"] += pool.bytes_received - received
            seen["bytes"] += pool.bytes_sent - sent + pool.bytes_received - received
            return outputs

        monkeypatch.setattr(WorkerPool, "run", spy)
        return seen

    def test_one_unit_per_worker_with_exact_transport(self, monkeypatch):
        seen = self.spy_pool(monkeypatch)
        with Engine(backend="batched", cache=False) as eng:
            run = eng.sweep(self.SPEC, seed=3, executor="process", jobs=2)
            stats = eng.stats()
        report = stats["scheduler"]["last_sweep"]
        transport = stats["transport"]["pickle"]
        assert report["units"] == report["packed_units"] == 2
        assert transport["chunks"] == 2
        # Two cells for two workers: one whole cell per unit, the cell
        # with the longer prediction (the larger n) first.
        assert all(unit.packed for unit in seen["units"])
        assert [
            [(segment.spec.config.n, len(segment.seeds)) for segment in unit.segments]
            for unit in seen["units"]
        ] == [[(150, 6)], [(90, 5)]]
        assert [entry["segments"] for entry in report["plan"]] == [[(1, 6)], [(0, 5)]]
        assert [entry["measured_seconds"] for entry in report["plan"]] == [
            outcome.seconds for outcome in seen["outputs"]
        ]
        assert all(entry["predicted_seconds"] > 0 for entry in report["plan"])
        # Local results name no worker, so no per-worker cost rows.
        assert all(entry["worker"] is None for entry in report["plan"])
        assert report["workers"] is None
        # The row counts whole frames both ways; the result frames carry
        # one record block per segment, k + 4 int64 slots per replicate.
        assert transport["bytes"] == seen["bytes"]
        assert seen["received"] > sum(
            cell.trials * 8 * (cell.spec.config.k + 4) for cell in self.SPEC.cells
        )
        # The units' kernel seconds are split across the cells, none lost.
        unit_seconds = sum(outcome.seconds for outcome in seen["outputs"])
        measured = [cell["measured_seconds"] for cell in report["cells"]]
        assert all(seconds > 0 for seconds in measured)
        assert sum(measured) == pytest.approx(unit_seconds)
        assert all(r.interactions > 0 for cell in run for r in cell.results)

    def test_warm_cost_model_keeps_one_unit_per_worker(self):
        # A learned cost model once cut a wide cell into ~40 thin chunks
        # on a second sweep; packed groups are cut by worker count only.
        with Engine(backend="batched", cache=False) as eng:
            for seed in (5, 6):
                before = eng.stats()["transport"]["pickle"]["chunks"]
                eng.sweep(self.SPEC, seed=seed, executor="process", jobs=2)
                report = eng.stats()["scheduler"]["last_sweep"]
                after = eng.stats()["transport"]["pickle"]["chunks"]
                assert report["units"] == report["packed_units"] == 2
                assert after - before == 2
            assert eng.stats()["scheduler"]["cost_model"]["signatures"] >= 1
            assert all(
                cell["prediction_source"] == "observed" for cell in report["cells"]
            )

    def test_replacement_batched_backend_runs_per_cell(self, monkeypatch):
        # A replacement registered as "batched" neither packs nor has the
        # record codec, so it runs per cell and only in this process.
        from repro.engine import backends
        from repro.engine.batched import BatchedBackend

        class Replacement(BatchedBackend):
            pass

        with Engine(backend="batched", cache=False) as eng:
            want = sweep_key(eng.sweep(self.SPEC, seed=8, executor="serial"))
        monkeypatch.setitem(backends._REGISTRY, "batched", Replacement())
        with Engine(backend="batched", cache=False) as eng:
            got = eng.sweep(self.SPEC, seed=8, executor="serial", batch_size=4)
            report = eng.stats()["scheduler"]["last_sweep"]
            with pytest.raises(ValueError, match="run it on the serial executor"):
                eng.sweep(self.SPEC, seed=8, executor="process", jobs=2)
            assert eng.worker_pids() == ()
        assert sweep_key(got) == want
        assert report["packed_units"] == 0
        assert report["units"] == 4  # 5 and 6 replicates in chunks of 4


class TestEnsembleIsOneCellSweep:
    """``Engine.ensemble`` is a one-cell ``Engine.sweep``.

    Every executor gives the ensemble the results of a serial sweep over
    the one cell at ``seed`` as its cell seed, bit for bit, and the same
    units the ensemble-only pipeline once cut: ``batch_size`` kernel
    calls serially, four chunks per worker for a cell that does not
    pack, and, since one cell is fewer than the workers, one
    equal-width unit per pool or socket worker for a lockstep cell
    that does.
    """

    TRIALS = 11
    RING = [(i, (i + 1) % 40) for i in range(40)] + [
        ((i + 1) % 40, i) for i in range(40)
    ]
    #: name -> (spec, session backend, budget)
    CASES = {
        "usd-batched": (usd_spec(uniform_configuration(150, 3)), "batched", None),
        "usd-jump": (usd_spec(uniform_configuration(150, 3)), "jump", None),
        "zealots": (
            zealot_spec(Configuration.from_supports([40, 30, 20]), [0, 4, 1]),
            "batched",
            30_000,
        ),
        "graph": (
            graph_spec(RING, config=uniform_configuration(40, 2)),
            "batched",
            20_000,
        ),
    }

    def swept(self, name, seed=5):
        spec, backend, budget = self.CASES[name]
        cell = SweepCell(spec=spec, trials=self.TRIALS, max_interactions=budget)
        with Engine(backend=backend, cache=False) as eng:
            run = eng.sweep(
                SweepSpec(cells=(cell,)), cell_seeds=[seed], executor="serial"
            )
        return results_key(run.cells[0].results)

    @staticmethod
    def record_kernel_calls(monkeypatch):
        calls = []
        for name in ("usd", "zealots", "graph"):
            scenario_type = type(get_scenario(name))
            original = scenario_type.run_chunk

            def recording(self, spec, variant, rngs, budget, _run=original):
                calls.append((type(spec).__name__, len(rngs)))
                return _run(self, spec, variant, rngs, budget)

            monkeypatch.setattr(scenario_type, "run_chunk", recording)
        return calls

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_serial_keeps_batch_size_kernel_calls(self, name, monkeypatch):
        want = self.swept(name)
        spec, backend, budget = self.CASES[name]
        calls = self.record_kernel_calls(monkeypatch)
        with Engine(backend=backend, cache=False) as eng:
            got = eng.ensemble(
                spec, self.TRIALS, seed=5, executor="serial", batch_size=5,
                max_interactions=budget,
            )
        assert results_key(got) == want
        # Lockstep cells run as single-segment packed chunks, any other
        # cell as plain chunks: three kernel calls of 5, 5 and 1 either way.
        packs = name in ("usd-batched", "zealots")
        kind = "PackedChunk" if packs else "ScenarioSpec"
        assert calls == [(kind, 5), (kind, 5), (kind, 1)]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_process_sends_one_wide_unit_per_worker_or_four_chunks(self, name):
        want = self.swept(name)
        spec, backend, budget = self.CASES[name]
        with Engine(backend=backend, cache=False) as eng:
            got = eng.ensemble(
                spec, self.TRIALS, seed=5, executor="process", jobs=2,
                max_interactions=budget,
            )
            chunks = eng.stats()["transport"]["pickle"]["chunks"]
        assert results_key(got) == want
        if name in ("usd-batched", "zealots"):
            assert chunks == 2
        else:
            cap = Engine._chunk_cap(self.TRIALS, 2, DEFAULT_BATCH_SIZE)
            assert chunks == -(-self.TRIALS // cap) == 6

    @pytest.mark.parametrize("name", ["usd-batched", "graph"])
    def test_remote_keeps_four_chunks_per_worker(self, name):
        want = self.swept(name)
        spec, backend, budget = self.CASES[name]
        with Engine(backend=backend, cache=False) as eng:
            attach_workers(eng, None, None)
            got = eng.ensemble(
                spec, self.TRIALS, seed=5, executor="remote",
                max_interactions=budget,
            )
            chunks = eng.stats()["transport"]["socket"]["chunks"]
        assert results_key(got) == want
        if name == "usd-batched":
            # A lockstep cell packs like on the pool: one equal-width
            # unit per worker.
            assert chunks == 2
        else:
            # Four chunks per worker: ceil(11 / ceil(11 / (2 * 4))).
            assert chunks == 6

    def test_fleet_owned_ensemble_is_one_served_chunk(self, tmp_path):
        want = self.swept("usd-batched")
        spec, backend, _ = self.CASES["usd-batched"]
        with Engine(backend=backend, cache=True, cache_dir=str(tmp_path)) as eng:
            eng.ensemble(spec, self.TRIALS, seed=5)
        with Engine(backend=backend, cache=False) as eng:
            attach_workers(eng, str(tmp_path), None)
            got = eng.ensemble(spec, self.TRIALS, seed=5, executor="remote")
            stats = eng.stats()
        assert results_key(got) == want
        assert stats["transport"]["socket"]["chunks"] == 1
        assert stats["cache"]["fabric"]["served"] == 1
        assert stats["replicates_simulated"] == 0
        assert stats["replicates_served_remote"] == self.TRIALS

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_ensembles_leave_sweep_state_alone(self, executor, tmp_path):
        spec, backend, _ = self.CASES["usd-jump"]
        with Engine(backend=backend, cache=True, cache_dir=str(tmp_path)) as eng:
            eng.ensemble(spec, self.TRIALS, seed=5, executor=executor, jobs=2)
            eng.ensemble(spec, self.TRIALS, seed=5, executor=executor, jobs=2)
            stats = eng.stats()
        assert stats["scheduler"] == {"last_sweep": None, "cost_model": None}
        assert stats["ensembles"] == 2 and stats["sweeps"] == 0
        assert stats["replicates_simulated"] == self.TRIALS
        assert stats["replicates_from_cache"] == self.TRIALS
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".entry"]


class TestCustomDefaultBackend:
    """A session default only USD knows runs other scenarios on reference."""

    def test_cached_ensemble_returns_what_ensemble_stored(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import backends
        from repro.engine.backends import JumpBackend

        class CustomJump(JumpBackend):
            name = "custom-jump"

        monkeypatch.setitem(backends._REGISTRY, "custom-jump", CustomJump())
        spec = zealot_spec(uniform_configuration(60, 2), [3, 0])
        with Engine(
            backend="custom-jump", cache=True, cache_dir=str(tmp_path)
        ) as eng:
            stored = eng.ensemble(spec, 3, seed=5)
            cached = eng.cached_ensemble(spec, 3, seed=5)
            usd = eng.cached_ensemble(uniform_configuration(60, 2), 3, seed=5)
        assert cached is not None
        assert results_key(cached) == results_key(stored)
        assert usd is None


class TestCliScheduler:
    def test_sweep_summary(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "sweep", "--param", "n=60,90", "--param", "k=2",
                "--trials", "2", "--jobs", "2", "--backend", "batched",
                "--cache", "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduler:        process executor;" in out
        assert "4 replicates scheduled" in out
        # Both usd cells pack: one two-replicate unit per worker.
        assert "2 kernel calls (2 packed)" in out
        assert (tmp_path / "costmodel.json").exists()

    def test_sweep_resume_recomputes_only_missing(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "sweep", "--param", "n=60,90", "--param", "k=2",
            "--trials", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(args + ["--cache"]) == 0
        capsys.readouterr()
        # --resume implies --cache; everything on disk -> nothing recomputed
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells already on disk, recomputing 0" in out
        # delete one ensemble entry -> resume names and recomputes one cell
        sorted(tmp_path.glob("*.entry"))[0].unlink()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1/2 cells already on disk, recomputing 1" in out
        assert "[missing] cell" in out

    def test_sweep_resume_cold_cache(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "sweep", "--param", "n=60", "--param", "k=2",
                "--trials", "2", "--cache-dir", str(tmp_path), "--resume",
            ]
        )
        assert code == 0
        assert "no usable index" in capsys.readouterr().out
