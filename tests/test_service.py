"""Service-layer tests: coalescing, cache-first serving, admission,
bit-identity, the client builder, and graceful drain.

The determinism-sensitive tests gate the engine thread on a
``threading.Event`` (by wrapping the engine's bound ``ensemble``), so
"N requests arrive while one run is in flight" is a constructed fact,
not a timing hope.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import Engine, run_ensemble, run_sweep, SweepSpec
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceConfig,
    ServiceConfigBuilder,
    ServiceError,
    ServiceRejection,
)
from repro.service.jobs import (
    RequestError,
    parse_ensemble,
    parse_sweep,
    results_to_jsonable,
)
from repro.workloads import uniform_configuration

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

SPEC = {
    "workload": "uniform",
    "params": {"n": 120, "k": 3},
    "trials": 6,
    "seed": 11,
}


def gate_ensembles(eng):
    """Block the engine thread's ensemble calls until the gate opens."""
    gate = threading.Event()
    original = eng.ensemble

    def gated(*args, **kwargs):
        gate.wait(30)
        return original(*args, **kwargs)

    eng.ensemble = gated
    return gate


def raw_request(endpoint, method, path, body=None, headers=None):
    host, port = endpoint.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Request schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_ensemble_key_matches_engine_key(self):
        from repro.engine import ensemble_key
        from repro.engine.scenarios import get_scenario

        job = parse_ensemble(dict(SPEC))
        variant = get_scenario(job.spec.scenario).variant("jump")
        assert job.key(variant) == ensemble_key(
            job.spec,
            trials=6,
            seed=11,
            variant=variant,
            max_interactions=None,
        )

    @pytest.mark.parametrize(
        "scenario", [None, {"name": "zealots", "zealots": [0, 5, 1]}]
    )
    def test_job_key_is_the_engine_cell_key(self, scenario):
        # The service hands job.key(variant) to Engine.cached_ensemble in
        # place of the key the engine would hash itself; the two must
        # never drift apart.
        from repro.engine.sweep import SweepCell

        doc = dict(SPEC, max_interactions=50_000)
        if scenario is not None:
            doc["scenario"] = scenario
        job = parse_ensemble(doc)
        with Engine(backend="batched", cache=False) as eng:
            _, variant = eng._scenario_variant(job.spec, None)
            cell = SweepCell(job.spec, job.trials, job.max_interactions)
            _, _, engine_key = eng._cell_key(cell, job.seed, None)
        assert job.spec.scenario == (scenario or {"name": "usd"})["name"]
        assert job.key(variant) == engine_key

    def test_cached_ensemble_takes_a_precomputed_key(self, tmp_path, monkeypatch):
        job = parse_ensemble(dict(SPEC))
        with Engine(backend="batched", cache=True, cache_dir=str(tmp_path)) as eng:
            stored = eng.ensemble(job.spec, job.trials, seed=job.seed)
            _, variant = eng._scenario_variant(job.spec, None)
            key = job.key(variant)

            def no_rehash(*args, **kwargs):
                raise AssertionError("cached_ensemble re-hashed a given key")

            monkeypatch.setattr(eng, "_cell_key", no_rehash)
            cached = eng.cached_ensemble(
                job.spec, job.trials, seed=job.seed, key=key
            )
        assert results_to_jsonable(cached) == results_to_jsonable(stored)

    def test_sweep_axes_and_grid_agree(self):
        by_axes = parse_sweep(
            {"workload": "uniform", "params": {"n": [60, 90], "k": 3},
             "trials": 4, "seed": 5}
        )
        by_grid = parse_sweep(
            {"workload": "uniform", "params": {"k": 3},
             "grid": [{"n": 60}, {"n": 90}], "trials": 4, "seed": 5}
        )
        assert by_axes.spec.key() == by_grid.spec.key()
        assert by_axes.key() == by_grid.key()

    def test_seed_changes_sweep_job_key(self):
        doc = {"workload": "uniform", "params": {"n": [60], "k": 2},
               "trials": 4}
        assert (
            parse_sweep({**doc, "seed": 1}).key()
            != parse_sweep({**doc, "seed": 2}).key()
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"workload": "nope", "params": {"n": 50, "k": 2}},
            {"params": {"n": [1, 2], "k": 2}},  # list param on ensemble
            {"params": {"n": 50, "k": 2}, "trials": 0},
            {"params": {"n": 50, "k": 2}, "trials": "six"},
            {"params": {"n": 50, "k": 2},
             "scenario": {"name": "zealots", "zealots": "three"}},
            {"params": {"n": 50, "k": 2}, "scenario": {"name": "graph"}},
            {"params": {"n": 50, "k": 2},
             "scenario": {"name": "usd", "extra": 1}},
            {"params": {"n": 50}},  # uniform needs k
            {"params": {"n": 50, "k": 2}, "seed": -1},
        ],
    )
    def test_bad_ensemble_submissions_rejected(self, bad):
        with pytest.raises(RequestError):
            parse_ensemble(bad)

    def test_negative_sweep_seed_rejected(self):
        with pytest.raises(RequestError):
            parse_sweep(
                {"workload": "uniform", "params": {"n": [60], "k": 2},
                 "seed": -1}
            )

    def test_scenario_overlay_round_trip(self):
        job = parse_ensemble(
            {"workload": "uniform", "params": {"n": 50, "k": 2},
             "scenario": {"name": "zealots", "zealots": [0, 5]}}
        )
        assert job.spec.scenario == "zealots"


# ----------------------------------------------------------------------
# Coalescing and cache-first serving
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_identical_submissions_run_once(self, tmp_path):
        M = 6
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            gate = gate_ensembles(eng)
            with BackgroundService(eng) as endpoint:
                answers = [None] * M
                errors = []

                def submit(i):
                    try:
                        with ServiceClient(endpoint) as client:
                            answers[i] = client.ensemble(dict(SPEC))
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=submit, args=(i,))
                    for i in range(M)
                ]
                for thread in threads:
                    thread.start()
                # All M submissions are in (M-1 coalesced onto the
                # first) before a single replicate runs.
                with ServiceClient(endpoint) as probe:
                    deadline = time.time() + 30
                    while time.time() < deadline:
                        counters = probe.metrics()["service"]
                        if counters["coalesced"] >= M - 1:
                            break
                        time.sleep(0.02)
                    assert counters["coalesced"] >= M - 1
                    assert counters["submitted"] == 1
                gate.set()
                for thread in threads:
                    thread.join(timeout=60)
                assert not errors
                with ServiceClient(endpoint) as probe:
                    stats = probe.metrics()["engine"]
            # Exactly one ensemble simulated for M identical requests.
            assert stats["replicates_simulated"] == SPEC["trials"]
            assert all(a == answers[0] for a in answers)
            assert answers[0]["status"] == "done"

    def test_warm_repeat_serves_from_cache_with_zero_simulations(
        self, tmp_path
    ):
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    cold = client.ensemble(dict(SPEC))
        # A fresh engine + fresh service over the same cache directory:
        # the repeat request must not simulate anything.
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    warm = client.ensemble(dict(SPEC))
                    stats = client.metrics()
            assert warm["served_from_cache"] is True
            assert stats["engine"]["replicates_simulated"] == 0
            assert stats["service"]["served_from_cache"] == 1
        assert warm["results"] == cold["results"]
        assert warm["summary"] == cold["summary"]

    def test_overlapping_sweeps_share_cells_via_cache(self, tmp_path):
        trials = 4
        sweep_a = {"workload": "uniform", "params": {"k": 2},
                   "grid": [{"n": 60}, {"n": 90}],
                   "trials": trials, "seed": 5}
        # Same first cell (same grid index 0 -> same derived seeds),
        # different second cell.
        sweep_b = {"workload": "uniform", "params": {"k": 2},
                   "grid": [{"n": 60}, {"n": 120}],
                   "trials": trials, "seed": 5}
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    first = client.sweep(sweep_a)
                    second = client.sweep(sweep_b)
        assert first["replicates_simulated"] == 2 * trials
        assert second["cells"][0]["cached"] is True
        assert second["cells"][1]["cached"] is False
        assert second["replicates_simulated"] == trials
        assert second["cells"][0]["results"] == first["cells"][0]["results"]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_serve_flags_set_engine_admission_options(self):
        from repro.cli import _build_engine, build_parser

        args = build_parser().parse_args(
            ["serve", "127.0.0.1:0", "--max-queue", "3", "--max-replicates", "40"]
        )
        with _build_engine(args) as eng:
            assert eng.options.service_max_queue == 3
            assert eng.options.service_max_replicates == 40
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--max-queue", "3"])

    def test_queue_full_rejected_with_retry_hint(self, tmp_path):
        with Engine(
            cache=True, cache_dir=str(tmp_path), service_max_queue=1
        ) as eng:
            gate = gate_ensembles(eng)
            with BackgroundService(eng) as endpoint:
                config = (
                    ServiceConfig.builder(endpoint).retries(0).build()
                )
                with ServiceClient(config) as client:
                    ticket = client.ensemble(dict(SPEC), wait=False)
                    assert ticket["status"] in ("queued", "running")
                    other = {**SPEC, "seed": 99}
                    with pytest.raises(ServiceRejection) as info:
                        client.ensemble(other)
                    assert info.value.retry_after >= 1
                    assert "queue full" in str(info.value)
                    gate.set()
                    final = client.poll(ticket["key"], wait=True)
                    assert final["status"] == "done"

    def test_replicate_budget_rejected(self, tmp_path):
        with Engine(
            cache=True, cache_dir=str(tmp_path), service_max_replicates=10
        ) as eng:
            gate = gate_ensembles(eng)
            with BackgroundService(eng) as endpoint:
                config = (
                    ServiceConfig.builder(endpoint).retries(0).build()
                )
                with ServiceClient(config) as client:
                    ticket = client.ensemble(
                        {**SPEC, "trials": 8}, wait=False
                    )
                    with pytest.raises(ServiceRejection) as info:
                        client.ensemble({**SPEC, "trials": 8, "seed": 99})
                    assert "replicate budget" in str(info.value)
                    gate.set()
                    assert (
                        client.poll(ticket["key"], wait=True)["status"]
                        == "done"
                    )

    def test_rejected_client_retries_and_succeeds(self, tmp_path):
        with Engine(
            cache=True, cache_dir=str(tmp_path), service_max_queue=1
        ) as eng:
            gate = gate_ensembles(eng)
            with BackgroundService(eng) as endpoint:
                config = (
                    ServiceConfig.builder(endpoint)
                    .retries(50)
                    .backoff(0.05)
                    .max_backoff(0.1)
                    .build()
                )
                with ServiceClient(config) as client:
                    client.ensemble(dict(SPEC), wait=False)
                    threading.Timer(0.3, gate.set).start()
                    # Retries through 429s until the queue frees up.
                    answer = client.ensemble({**SPEC, "seed": 99})
                    assert answer["status"] == "done"

    def test_oversized_single_submission_rejected_outright(self, tmp_path):
        with Engine(
            cache=True, cache_dir=str(tmp_path), service_max_replicates=4
        ) as eng:
            with BackgroundService(eng) as endpoint:
                config = (
                    ServiceConfig.builder(endpoint).retries(0).build()
                )
                with ServiceClient(config) as client:
                    with pytest.raises(ServiceRejection):
                        client.ensemble({**SPEC, "trials": 8})


# ----------------------------------------------------------------------
# Bit-identity: served results == direct engine results
# ----------------------------------------------------------------------
class TestBitIdentity:
    def direct(self, executor, jobs=1):
        config = uniform_configuration(SPEC["params"]["n"], SPEC["params"]["k"])
        return results_to_jsonable(
            run_ensemble(
                config,
                SPEC["trials"],
                seed=SPEC["seed"],
                executor=executor,
                jobs=jobs,
            )
        )

    @pytest.mark.parametrize(
        "engine_kwargs",
        [
            {"executor": "serial"},
            {"executor": "process", "jobs": 2},
        ],
        ids=["serial", "process"],
    )
    def test_served_equals_direct(self, tmp_path, engine_kwargs):
        with Engine(cache=True, cache_dir=str(tmp_path), **engine_kwargs) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    served = client.ensemble(dict(SPEC))
        assert served["results"] == self.direct("serial")
        assert served["results"] == self.direct(
            engine_kwargs["executor"], engine_kwargs.get("jobs", 1)
        )

    def test_served_equals_direct_remote_executor(self, tmp_path):
        from repro.engine import serve_worker

        with Engine(
            cache=True,
            cache_dir=str(tmp_path),
            executor="remote",
            workers="127.0.0.1:0",
        ) as eng:
            pool = eng.worker_pool()
            for i in range(2):
                threading.Thread(
                    target=lambda: serve_worker(pool.endpoint, name=f"w{i}"),
                    daemon=True,
                ).start()
            pool.wait_for_workers(2, timeout=30)
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    served = client.ensemble(dict(SPEC))
        assert served["results"] == self.direct("serial")

    def test_custom_default_backend_serves_stored_zealots_ensemble(
        self, tmp_path, monkeypatch
    ):
        # A session default only the usd scenario knows runs zealots on
        # its reference variant, and the job key must say so.
        from repro.engine import backends, ensemble_key
        from repro.engine.backends import JumpBackend

        class CustomJump(JumpBackend):
            name = "custom-jump"

        monkeypatch.setitem(backends._REGISTRY, "custom-jump", CustomJump())
        body = {
            "workload": "uniform",
            "params": {"n": 60, "k": 2},
            "scenario": {"name": "zealots", "zealots": [3, 0]},
            "trials": 3,
            "seed": 5,
        }
        job = parse_ensemble(dict(body))
        with Engine(
            backend="custom-jump", cache=True, cache_dir=str(tmp_path)
        ) as eng:
            direct = eng.ensemble(job.spec, job.trials, seed=job.seed)
            with BackgroundService(eng) as endpoint:
                status, raw = raw_request(
                    endpoint, "POST", "/v1/ensemble", json.dumps(body).encode()
                )
        assert status == 200
        served = json.loads(raw)
        assert served["key"] == ensemble_key(
            job.spec, trials=3, seed=5, variant="reference", max_interactions=None
        )
        assert served["served_from_cache"] is True
        assert served["results"] == results_to_jsonable(direct)

    def test_sweep_served_equals_direct(self, tmp_path):
        grid = [{"n": 60, "k": 2}, {"n": 90, "k": 2}]
        spec = SweepSpec.from_grid(grid, uniform_configuration, trials=4)
        direct = run_sweep(spec, seed=5, executor="serial")
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    served = client.sweep(
                        {"workload": "uniform",
                         "grid": grid, "trials": 4, "seed": 5}
                    )
        for cell, cell_run in zip(served["cells"], direct):
            assert cell["results"] == results_to_jsonable(cell_run.results)

    def test_identical_submissions_serialize_identically(self, tmp_path):
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                body = json.dumps(SPEC).encode()
                status1, raw1 = raw_request(
                    endpoint, "POST", "/v1/ensemble", body
                )
                status2, raw2 = raw_request(
                    endpoint, "POST", "/v1/ensemble", body
                )
        assert status1 == status2 == 200
        # Byte-identical responses, not merely equal objects.
        assert raw1 == raw2


# ----------------------------------------------------------------------
# Inline limit and result handles
# ----------------------------------------------------------------------
class TestInlineLimit:
    def test_large_ensemble_returns_handle(self, tmp_path):
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng, inline_limit=4) as endpoint:
                with ServiceClient(endpoint) as client:
                    answer = client.ensemble(dict(SPEC))  # 6 trials > 4
                    assert answer["results_inline"] is False
                    assert answer["results"] is None
                    assert answer["summary"]["trials"] == SPEC["trials"]
                    full = client.results(answer["key"])
        direct = results_to_jsonable(
            run_ensemble(
                uniform_configuration(
                    SPEC["params"]["n"], SPEC["params"]["k"]
                ),
                SPEC["trials"],
                seed=SPEC["seed"],
            )
        )
        assert full["results"] == direct

    def test_without_cache_everything_inlines(self):
        with Engine(cache=False) as eng:
            with BackgroundService(eng, inline_limit=1) as endpoint:
                with ServiceClient(endpoint) as client:
                    answer = client.ensemble(dict(SPEC))
        assert answer["results_inline"] is True
        assert answer["results"] is not None

    def test_missing_result_key_404(self, tmp_path):
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            with BackgroundService(eng) as endpoint:
                with ServiceClient(endpoint) as client:
                    with pytest.raises(ServiceError) as info:
                        client.results("f" * 64)
        assert info.value.status == 404


# ----------------------------------------------------------------------
# HTTP edges
# ----------------------------------------------------------------------
class TestHttpEdges:
    @pytest.fixture()
    def endpoint(self):
        with Engine(cache=False) as eng:
            with BackgroundService(eng) as ep:
                yield ep

    def test_malformed_json_is_400(self, endpoint):
        status, body = raw_request(
            endpoint, "POST", "/v1/ensemble", b"{nope"
        )
        assert status == 400
        assert b"not valid JSON" in body

    def test_non_object_body_is_400(self, endpoint):
        status, _ = raw_request(endpoint, "POST", "/v1/ensemble", b"[1]")
        assert status == 400

    def test_unknown_route_is_404(self, endpoint):
        status, _ = raw_request(endpoint, "GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, endpoint):
        status, _ = raw_request(endpoint, "GET", "/v1/ensemble")
        assert status == 405

    def test_unknown_job_key_is_404(self, endpoint):
        status, _ = raw_request(endpoint, "GET", "/v1/jobs/deadbeef")
        assert status == 404

    def test_healthz(self, endpoint):
        status, body = raw_request(endpoint, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["engine"] == "open"

    def test_metrics_prometheus_text(self, endpoint):
        with ServiceClient(endpoint) as client:
            client.ensemble(dict(SPEC))
        status, body = raw_request(endpoint, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_service_requests" in text
        assert "repro_engine_replicates_simulated" in text

    def test_async_ticket_and_poll(self, endpoint):
        with ServiceClient(endpoint) as client:
            ticket = client.ensemble(dict(SPEC), wait=False)
            if ticket["status"] != "done":  # tiny runs may finish first
                assert ticket["poll"] == f"/v1/jobs/{ticket['key']}"
            final = client.poll(ticket["key"], wait=True)
        assert final["status"] == "done"
        assert final["results"] is not None

    @pytest.mark.parametrize("route", ["/v1/ensemble", "/v1/sweep"])
    @pytest.mark.parametrize(
        "field",
        [
            {"workload": ["uniform"]},
            {"workload": {"name": "uniform"}},
            {"seed": None},
            {"trials": None},
        ],
        ids=["workload-list", "workload-object", "seed-null", "trials-null"],
    )
    def test_ill_typed_field_is_400_and_service_stays_healthy(
        self, endpoint, route, field
    ):
        # A list or object workload used to raise TypeError (unhashable)
        # and an explicit null seed one in the job key: both were 500s.
        status, body = raw_request(
            endpoint, "POST", route, json.dumps({**SPEC, **field}).encode()
        )
        assert status == 400, body
        assert next(iter(field)).encode() in body
        status, body = raw_request(endpoint, "GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_negative_seed_is_400(self, endpoint):
        status, body = raw_request(
            endpoint,
            "POST",
            "/v1/ensemble",
            json.dumps({**SPEC, "seed": -1}).encode(),
        )
        assert status == 400
        assert b"seed" in body


# ----------------------------------------------------------------------
# Hardening: the front door is reachable by untrusted clients
# ----------------------------------------------------------------------
class TestHardening:
    def test_traversal_result_key_is_404_and_touches_nothing(self, tmp_path):
        """Key-shaped path segments must never escape the cache root.

        Without the sha256-shape check, ``GET /v1/results/..%2Fdecoy``
        reaches ``EnsembleCache.load`` as ``../decoy``, which opens —
        and, via the corruption handler, unlinks — ``decoy.pkl`` one
        directory above the cache.
        """
        cache_dir = tmp_path / "cache"
        decoy = tmp_path / "decoy.pkl"
        decoy.write_bytes(b"not a pickle")
        with Engine(cache=True, cache_dir=str(cache_dir)) as eng:
            with BackgroundService(eng) as endpoint:
                status, body = raw_request(
                    endpoint, "GET", "/v1/results/..%2Fdecoy"
                )
        assert status == 404
        assert b"sha256" in body
        assert decoy.read_bytes() == b"not a pickle"

    def test_job_key_shape_enforced(self, tmp_path):
        with Engine(cache=False) as eng:
            with BackgroundService(eng) as endpoint:
                status, body = raw_request(
                    endpoint, "GET", "/v1/jobs/..%2F..%2Fetc%2Fpasswd"
                )
        assert status == 404
        assert b"sha256" in body

    def test_job_failure_is_opaque_without_debug(self):
        with Engine(cache=False) as eng:

            def boom(*args, **kwargs):
                raise RuntimeError("/secret/filesystem/path")

            eng.ensemble = boom
            with BackgroundService(eng) as endpoint:
                status, body = raw_request(
                    endpoint, "POST", "/v1/ensemble", json.dumps(SPEC).encode()
                )
        assert status == 500
        payload = json.loads(body)
        assert payload["status"] == "failed"
        assert "RuntimeError" in payload["error"]
        assert "Traceback" not in payload["error"]
        assert "/secret/filesystem/path" not in body.decode()

    def test_debug_mode_inlines_traceback(self):
        with Engine(cache=False) as eng:

            def boom(*args, **kwargs):
                raise RuntimeError("boom")

            eng.ensemble = boom
            with BackgroundService(eng, debug=True) as endpoint:
                status, body = raw_request(
                    endpoint, "POST", "/v1/ensemble", json.dumps(SPEC).encode()
                )
        assert status == 500
        payload = json.loads(body)
        assert "Traceback" in payload["error"]
        assert "RuntimeError: boom" in payload["error"]


# ----------------------------------------------------------------------
# Client config builder
# ----------------------------------------------------------------------
class TestConfigBuilder:
    def test_chained_build(self):
        config = (
            ServiceConfig.builder("example.org:8642")
            .timeout(5.0)
            .retries(2)
            .backoff(0.1)
            .max_backoff(1.0)
            .build()
        )
        assert config.host == "example.org"
        assert config.port == 8642
        assert config.timeout == 5.0
        assert config.retries == 2
        assert config.endpoint == "example.org:8642"

    def test_setters_return_builder(self):
        builder = ServiceConfigBuilder()
        assert builder.host("h") is builder
        assert builder.port(80) is builder
        assert builder.timeout(1) is builder
        assert builder.retries(1) is builder

    def test_last_setter_wins(self):
        config = (
            ServiceConfig.builder("a:1").endpoint("b:2").build()
        )
        assert config.endpoint == "b:2"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b,  # no endpoint at all
            lambda b: b.endpoint("h:1").port(0),
            lambda b: b.endpoint("h:1").timeout(0),
            lambda b: b.endpoint("h:1").retries(-1),
            lambda b: b.endpoint("h:1").backoff(2.0).max_backoff(1.0),
        ],
    )
    def test_build_validates(self, mutate):
        with pytest.raises(ValueError):
            mutate(ServiceConfigBuilder()).build()

    def test_bad_endpoint_rejected_eagerly(self):
        with pytest.raises(ValueError):
            ServiceConfigBuilder().endpoint("no-port")

    def test_client_accepts_bare_endpoint_string(self):
        client = ServiceClient("127.0.0.1:1")
        assert client.config.port == 1


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestServiceDrain:
    def test_draining_rejects_new_submissions(self, tmp_path):
        import asyncio

        from repro.service.http import HttpError
        from repro.service.server import SimulationService

        async def scenario():
            with Engine(cache=False) as eng:
                service = SimulationService(eng)
                service.request_drain()
                with pytest.raises(HttpError) as info:
                    service._admit(1)
                assert info.value.status == 503

        asyncio.run(scenario())

    def test_drain_flushes_inflight_response(self, tmp_path):
        with Engine(cache=True, cache_dir=str(tmp_path)) as eng:
            gate = gate_ensembles(eng)
            background = BackgroundService(eng)
            endpoint = background.start()
            answer = {}

            def submit():
                with ServiceClient(endpoint) as client:
                    answer.update(client.ensemble(dict(SPEC)))

            thread = threading.Thread(target=submit)
            thread.start()
            deadline = time.time() + 30
            with ServiceClient(endpoint) as probe:
                while time.time() < deadline:
                    if probe.metrics()["service"]["queue_depth"] >= 1:
                        break
                    time.sleep(0.02)
            # Drain with the request still in flight: it must finish
            # and the response must flush before the service exits.
            background.drain()
            gate.set()
            background.stop()
            thread.join(timeout=30)
            assert answer.get("status") == "done"

    def test_serve_subprocess_sigterm_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "127.0.0.1:0",
                "--cache",
                "--cache-dir",
                str(tmp_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            endpoint = None
            deadline = time.time() + 60
            while time.time() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    endpoint = line.rsplit(" ", 1)[-1].strip()
                    break
            assert endpoint, "serve never announced its endpoint"
            with ServiceClient(endpoint) as client:
                answer = client.ensemble(dict(SPEC))
                assert answer["status"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
        tail = proc.stdout.read()
        assert "drained" in tail
