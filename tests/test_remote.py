"""Remote executor: wire protocol, worker pool, and bit-identity.

The remote executor must be invisible in the results: chunks shipped to
socket-connected workers come back bit-identical to serial and process
execution at fixed seeds — including when a worker dies mid-chunk and
its work is requeued, and when thread workers and ``repro worker``
subprocesses serve the same sweep.  What *is* new — the framed wire
format, the handshake, per-worker cost coefficients, per-transport
traffic counters — is pinned here.
"""

import functools
import itertools
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import Configuration
from repro.engine import (
    Engine,
    EngineOptions,
    SweepCell,
    SweepSpec,
    run_ensemble,
    run_sweep,
)
from repro.engine.cache import EnsembleCache, encode_entry, ensemble_key, seed_token
from repro.engine.costmodel import CostModel, cost_signature
from repro.engine.codec import (
    FRAME_MAGIC,
    MAX_FRAME,
    FrameDecoder,
    ProtocolError,
    decode_frame,
    decode_result_block,
    encode_frame,
    encode_result_block,
)
from repro.engine.executors import Segment, WorkUnit
from repro.engine.remote import (
    PROTOCOL_VERSION,
    WORKER_SECRET_ENV,
    WorkerPool,
    auth_digest,
    cache_token,
    _read_frames,
    parse_address,
    send_frame,
    serve_worker,
)
from repro.engine.scenarios import get_scenario, usd_spec, zealot_spec
from repro.workloads import uniform_configuration

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


GADGET_FIRED = []


def _fire_gadget():
    GADGET_FIRED.append(True)


class Gadget:
    """Unpickling this calls ``_fire_gadget``: a stand-in for any exploit."""

    def __reduce__(self):
        return (_fire_gadget, ())


def legacy_frame(blob):
    """A frame in the protocol-3 layout: magic, one length, payload."""
    return FRAME_MAGIC + len(blob).to_bytes(4, "big") + blob


def json_layout_frame(header, body=b""):
    """A frame with arbitrary header bytes in the current layout."""
    lengths = len(header).to_bytes(4, "big") + len(body).to_bytes(4, "big")
    return FRAME_MAGIC + lengths + header + body


def assert_dropped(sock, poll=None, timeout=10.0):
    """Wait until the pool closes ``sock`` without sending it a byte."""
    sock.settimeout(0.05)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if poll is not None:
            poll()
        try:
            data = sock.recv(1 << 16)
        except TimeoutError:
            continue
        except ConnectionResetError:
            return
        assert data == b"", data
        return
    raise AssertionError("the pool kept the connection open")


def read_frame(sock):
    """One message from a blocking socket (``None`` on clean EOF)."""
    return next(_read_frames(sock))


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


def unit_of(spec, variant, seeds, max_interactions=None):
    """A one-segment work unit, as the session plans a cell that does not pack."""
    segment = Segment(0, spec, max_interactions, list(seeds))
    scenario = get_scenario(spec.scenario)
    return WorkUnit(scenario, variant, variant, (segment,), packed=False)


def small_sweep(trials=6):
    grid = [{"n": 60, "k": 2}, {"n": 90, "k": 2}, {"n": 120, "k": 3}]
    return SweepSpec.from_grid(grid, uniform_configuration, trials=trials)


class pool_poller:
    """Poll a pool from a background thread so ``serve_worker`` can run
    in the test thread and its handshake errors can be asserted directly."""

    def __init__(self, pool):
        self.pool = pool
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self.stop.is_set():
            try:
                self.pool._poll(0.05)
            except OSError:
                return  # pool closed under us

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        self.thread.join(timeout=5)


def start_worker_thread(endpoint, **kwargs):
    def quiet_serve():
        # Expected endings (the pool vanished, a deliberately poisoned
        # chunk re-raised after its error report) must not surface as
        # unhandled-thread-exception warnings; every assertion in these
        # tests is on the session side.
        try:
            serve_worker(endpoint, **kwargs)
        except Exception:
            pass

    thread = threading.Thread(target=quiet_serve, daemon=True)
    thread.start()
    return thread


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip_single_frame(self):
        message = {"type": "chunk", "id": 3, "payload": list(range(10))}
        decoder = FrameDecoder()
        out = decoder.feed(encode_frame(message))
        assert out == [message]
        assert decoder.pending_bytes == 0

    def test_roundtrip_many_frames_byte_by_byte(self):
        messages = [{"type": "x", "i": i} for i in range(5)]
        wire = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(wire)):
            seen.extend(decoder.feed(wire[offset : offset + 1]))
        assert seen == messages
        assert decoder.pending_bytes == 0

    def test_partial_frame_waits(self):
        frame = encode_frame({"type": "x"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [{"type": "x"}]

    def test_bad_magic_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="magic"):
            decoder.feed(b"JUNK" + b"\x00" * 10)

    def test_oversized_length_rejected(self):
        header = (
            FRAME_MAGIC + MAX_FRAME.to_bytes(4, "big") + (1).to_bytes(4, "big")
        )
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(header)

    def test_non_dict_payload_rejected(self):
        blob = b"[1,2,3]"
        frame = FRAME_MAGIC + len(blob).to_bytes(4, "big") + bytes(4) + blob
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="JSON object"):
            decoder.feed(frame)

    def test_block_travels_as_the_body(self):
        message = {"type": "result", "id": 2, "block": b"\x00\xff" * 9}
        frame = encode_frame(message)
        assert frame.endswith(message["block"])
        assert FrameDecoder().feed(frame) == [message]

    def test_socket_roundtrip_and_clean_eof(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "n": 1})
            frames = _read_frames(b)
            assert next(frames) == {"type": "hello", "n": 1}
            a.close()
            assert next(frames) is None  # EOF on a frame boundary
        finally:
            b.close()

    def test_truncated_frame_rejected_over_socket(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame(b)
        finally:
            b.close()

    def test_reader_rejects_oversized_header_over_socket(self):
        a, b = socket.socketpair()
        try:
            a.sendall(FRAME_MAGIC + (MAX_FRAME + 1).to_bytes(4, "big") + bytes(4))
            with pytest.raises(ProtocolError, match="exceeds"):
                read_frame(b)
        finally:
            a.close()
            b.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:4321") == ("127.0.0.1", 4321)
        assert parse_address("host.example:0") == ("host.example", 0)
        with pytest.raises(ValueError):
            parse_address("no-port")


# ----------------------------------------------------------------------
# Record blocks over the wire
# ----------------------------------------------------------------------
class TestRecordBlocks:
    def test_roundtrip_matches_results(self):
        spec = usd_spec(uniform_configuration(80, 3))
        scenario = get_scenario(spec.scenario)
        results = run_ensemble(spec, 6, seed=5, executor="serial")
        iw = scenario.record_ints(spec)
        fw = scenario.record_floats
        block = encode_result_block(scenario, spec, results, iw, fw)
        assert len(block) == 6 * 8 * (iw + fw)
        decoded = decode_result_block(scenario, spec, block, 6, iw, fw)
        assert results_key(decoded) == results_key(results)

    def test_wrong_size_rejected(self):
        spec = usd_spec(uniform_configuration(60, 2))
        scenario = get_scenario(spec.scenario)
        with pytest.raises(ProtocolError, match="record block"):
            decode_result_block(scenario, spec, b"\x00" * 7, 4, 3, 2)


# ----------------------------------------------------------------------
# Cache tokens
# ----------------------------------------------------------------------
class TestCacheToken:
    def test_same_store_same_token(self, tmp_path):
        store = tmp_path / "cache"
        store.mkdir()
        relative = store / ".." / "cache"
        assert cache_token(store) == cache_token(relative)

    def test_different_store_different_token(self, tmp_path):
        assert cache_token(tmp_path / "a") != cache_token(tmp_path / "b")


# ----------------------------------------------------------------------
# Options plumbing
# ----------------------------------------------------------------------
class TestRemoteOptions:
    def test_executor_accepts_remote(self):
        opts = EngineOptions(executor="remote")
        assert opts.executor == "remote"
        assert opts.as_dict()["executor"] == "remote"

    def test_executor_rejects_unknown(self):
        with pytest.raises(ValueError):
            EngineOptions(executor="carrier-pigeon")

    def test_workers_validation(self):
        opts = EngineOptions(workers="127.0.0.1:7777")
        assert opts.workers == "127.0.0.1:7777"
        with pytest.raises(ValueError):
            EngineOptions(workers="no-port-here")
        with pytest.raises(ValueError):
            EngineOptions(workers="host:99999")

    def test_workers_environment_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "127.0.0.1:6001")
        assert EngineOptions.resolve().workers == "127.0.0.1:6001"
        monkeypatch.delenv("REPRO_ENGINE_WORKERS")
        assert EngineOptions.resolve().workers is None

    def test_replace_keeps_explicit_executor(self):
        opts = EngineOptions(executor="remote")
        assert opts.replace(jobs=4).executor == "remote"

    def test_replace_keeps_derived_executor_dynamic(self):
        # An unset executor stays *derived* through replace(): bumping
        # jobs on serial-derived options must flip it to process.
        opts = EngineOptions()
        assert opts.executor == "serial"
        assert opts.replace(jobs=4).executor == "process"


# ----------------------------------------------------------------------
# WorkerPool protocol behavior
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_handshake_and_workers_snapshot(self, tmp_path):
        # No max_chunks here: a capped worker hangs up the moment its
        # welcome lands, racing wait_for_workers' view of the fleet.
        # These workers stay until the pool's bye at context exit.
        shared = tmp_path / "store"
        with WorkerPool(session_cache_token=cache_token(shared)) as pool:
            start_worker_thread(pool.endpoint, name="mate", cache_dir=str(shared))
            start_worker_thread(
                pool.endpoint,
                name="stranger",
                cache_dir=str(tmp_path / "elsewhere"),
            )
            pool.wait_for_workers(2, timeout=15)
            snapshot = {w["name"]: w for w in pool.workers()}
            assert snapshot["mate"]["cache_shared"] is True
            assert snapshot["stranger"]["cache_shared"] is False
            assert snapshot["mate"]["pid"] == os.getpid()
            assert snapshot["mate"]["cache_token"] == cache_token(shared)
            assert snapshot["mate"]["cache_entries"] == 0
            assert snapshot["stranger"]["cache_token"] == cache_token(
                tmp_path / "elsewhere"
            )

    def test_protocol_mismatch_is_rejected(self):
        # A newer peer, and JSON hellos from protocol-3 and protocol-2
        # peers, which would still send and expect other fields.
        for protocol in (PROTOCOL_VERSION + 1, 3, 2):
            with WorkerPool() as pool:
                sock = socket.create_connection(pool.address, timeout=10)
                try:
                    send_frame(
                        sock,
                        {"type": "hello", "protocol": protocol, "name": "old"},
                    )
                    for _ in range(50):
                        pool._poll(0.05)
                        if not pool._conns:
                            break
                    assert pool.worker_count() == 0
                    assert not pool._conns  # connection was dropped entirely
                finally:
                    sock.close()

    def test_worker_error_aborts_run(self):
        from repro.engine import Scenario, ScenarioSpec, register_scenario
        from repro.engine.scenarios import _REGISTRY

        class Failing(Scenario):
            name = "always-fails"
            record_transport = True

            def reference(self, spec, *, rng, max_interactions=None):
                raise RuntimeError("deliberate failure")

        register_scenario(Failing())
        spec = ScenarioSpec.create("always-fails", uniform_configuration(60, 2))
        try:
            with WorkerPool() as pool:
                start_worker_thread(pool.endpoint, name="doomed")
                pool.wait_for_workers(1, timeout=15)
                # A failure inside the worker must surface as the
                # session's RuntimeError (not a hang).
                with pytest.raises(RuntimeError, match="doomed"):
                    pool.run(
                        [unit_of(spec, "reference", [np.random.SeedSequence(1)], 10)]
                    )
        finally:
            _REGISTRY.pop("always-fails", None)

    def test_late_result_of_a_failed_run_is_not_taken_for_the_next(self):
        # One worker fails its unit while the other is still running a
        # slow one; that slow result arrives during the next run and
        # once decoded as the next run's unit 0 (same record width).
        from repro.engine import Scenario, ScenarioSpec, register_scenario
        from repro.engine.executors import run_unit
        from repro.engine.scenarios import _REGISTRY

        class Fails(Scenario):
            name = "fails-at-once"
            record_transport = True

            def reference(self, spec, *, rng, max_interactions=None):
                raise RuntimeError("deliberate failure")

        class Slow(Scenario):
            name = "slow-usd"
            record_transport = True

            def reference(self, spec, *, rng, max_interactions=None):
                from repro.core.fastsim import simulate

                time.sleep(1.0)
                return simulate(spec.config, rng=rng, max_interactions=max_interactions)

        config = uniform_configuration(60, 2)
        register_scenario(Fails())
        register_scenario(Slow())
        try:
            with WorkerPool() as pool:
                for name in ("a", "b"):
                    start_worker_thread(pool.endpoint, name=name)
                pool.wait_for_workers(2, timeout=15)
                failing = [
                    unit_of(ScenarioSpec.create(name, config), "reference", [seed])
                    for name, seed in (
                        ("slow-usd", np.random.SeedSequence(1)),
                        ("fails-at-once", np.random.SeedSequence(2)),
                    )
                ]
                with pytest.raises(RuntimeError, match="deliberate failure"):
                    pool.run(failing)
                spec, seeds = usd_spec(config), np.random.SeedSequence(3).spawn(1)
                (output,) = pool.run([unit_of(spec, "jump", seeds)], timeout=15)
        finally:
            _REGISTRY.pop("fails-at-once", None)
            _REGISTRY.pop("slow-usd", None)
        want, _ = run_unit(get_scenario("usd"), "jump", spec, None, seeds)
        assert results_key(output.parts[0]) == results_key(want)

    def test_spec_refs_are_rejected_by_workers(self):
        # Only a JSON spec object decodes: a reference tuple (a list on
        # the wire) or any other value is a protocol error.
        from repro.engine.remote import _execute_chunk

        for spec in (["__ref__", "block", 0, 10], "usd", None):
            with pytest.raises(ProtocolError, match="JSON spec object"):
                _execute_chunk(
                    {
                        "type": "chunk",
                        "id": 0,
                        "variant": "reference",
                        "segments": [
                            {
                                "spec_key": "ab" * 32,
                                "spec": spec,
                                "seeds": [],
                                "max_interactions": None,
                            }
                        ],
                    },
                    {},
                )

    def test_counters_move(self):
        spec = usd_spec(uniform_configuration(60, 2))
        scenario = get_scenario(spec.scenario)
        with WorkerPool() as pool:
            start_worker_thread(pool.endpoint, name="w")
            pool.wait_for_workers(1, timeout=15)
            seeds = np.random.SeedSequence(9).spawn(4)
            block_bytes = 4 * 8 * scenario.record_ints(spec)
            outputs = pool.run([unit_of(spec, scenario.variant(None), seeds)])
            assert len(outputs[0].parts[0]) == 4
            assert pool.chunks_dispatched == 1
            assert pool.bytes_sent > 0
            assert pool.bytes_received >= block_bytes


# ----------------------------------------------------------------------
# Bit-identity across executors, death, and mixed worker kinds
# ----------------------------------------------------------------------
class TestRemoteBitIdentity:
    def test_ensemble_matches_serial_and_process(self):
        config = uniform_configuration(80, 3)
        serial = run_ensemble(config, 10, seed=7, executor="serial")
        process = run_ensemble(config, 10, seed=7, executor="process", jobs=2)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            for i in range(2):
                start_worker_thread(pool.endpoint, name=f"w{i}")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.ensemble(config, 10, seed=7, executor="remote")
        assert results_key(remote) == results_key(serial)
        assert results_key(remote) == results_key(process)

    def test_sweep_matches_serial(self):
        spec = small_sweep()
        serial = run_sweep(spec, seed=11, executor="serial")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            for i in range(2):
                start_worker_thread(pool.endpoint, name=f"w{i}")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.sweep(spec, seed=11, executor="remote")
            stats = eng.stats()
        assert sweep_key(remote) == sweep_key(serial)
        assert stats["transport"]["socket"]["chunks"] > 0

    def test_worker_death_mid_sweep_requeues_bit_identically(self):
        spec = small_sweep(trials=6)
        serial = run_sweep(spec, seed=13, executor="serial")
        # batch_size=2 cuts every cell into three chunks, so the flaky
        # worker is guaranteed a second dispatch — which it takes and
        # dies on, mid-chunk, without replying.
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="flaky", abort_after=1)
            start_worker_thread(pool.endpoint, name="steady")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.sweep(spec, seed=13, executor="remote", batch_size=2)
            requeued = pool.chunks_requeued
            stats = eng.stats()
        assert requeued >= 1
        assert stats["remote"]["chunks_requeued"] >= 1
        assert sweep_key(remote) == sweep_key(serial)

    def test_worker_joining_mid_run_is_used(self):
        config = uniform_configuration(70, 2)
        serial = run_ensemble(config, 12, seed=21, executor="serial")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            endpoint = pool.endpoint
            start_worker_thread(pool.endpoint, name="early")

            def late_join():
                try:
                    serve_worker(endpoint, name="late")
                except OSError:
                    pass  # the run can finish before the late worker joins

            threading.Timer(0.2, late_join).start()
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(
                config, 12, seed=21, executor="remote", batch_size=2
            )
        assert results_key(remote) == results_key(serial)

    def test_mixed_thread_and_subprocess_workers(self):
        spec = small_sweep(trials=5)
        serial = run_sweep(spec, seed=17, executor="serial")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="local-thread")
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    pool.endpoint,
                    "--name",
                    "subprocess",
                    "--no-cache",  # keep test pushes out of ./.repro-cache
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                pool.wait_for_workers(2, timeout=60)
                remote = eng.sweep(spec, seed=17, executor="remote")
                report = eng.stats()["scheduler"]["last_sweep"]
            finally:
                eng.close()  # sends bye; the subprocess exits cleanly
                assert proc.wait(timeout=30) == 0
        assert sweep_key(remote) == sweep_key(serial)
        assert report["workers"] is not None


class TestPackedRemote:
    """The remote executor runs the packed lockstep units the others run."""

    @staticmethod
    def mixed_grid():
        usd_cells = (
            SweepCell(spec=usd_spec(uniform_configuration(60, 2)), trials=3),
            # A budget this small runs out before consensus.
            SweepCell(
                spec=usd_spec(uniform_configuration(90, 4)),
                trials=4,
                max_interactions=60,
            ),
        )
        zealot_cells = tuple(
            SweepCell(
                spec=zealot_spec(config, zealots), trials=3, max_interactions=20_000
            )
            for config, zealots in (
                (Configuration.from_supports([30, 20]), [2, 0]),
                (uniform_configuration(60, 3), [0, 1, 3]),
            )
        )
        return SweepSpec(cells=usd_cells + zealot_cells)

    def test_mixed_sweep_equals_serial_and_process(self):
        spec = self.mixed_grid()
        with Engine(backend="batched", cache=False) as eng:
            serial = eng.sweep(spec, seed=3, executor="serial")
        with Engine(backend="batched", cache=False) as eng:
            process = eng.sweep(spec, seed=3, executor="process", jobs=2)
        with Engine(backend="batched", cache=False) as eng:
            pool = eng.worker_pool()
            for i in range(2):
                start_worker_thread(pool.endpoint, name=f"w{i}")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.sweep(spec, seed=3, executor="remote")
            stats = eng.stats()
        assert any(r.budget_exhausted for r in serial.cells[1].results)
        assert sweep_key(remote) == sweep_key(serial) == sweep_key(process)
        report = stats["scheduler"]["last_sweep"]
        # Two packed groups (usd, zealots), one unit per worker each.
        assert report["units"] == report["packed_units"] == 4
        chunks = stats["transport"]["socket"]["chunks"]
        assert chunks == 4
        # Per-worker rows count units, not the cells packed into them.
        assert sum(row["chunks"] for row in report["workers"].values()) == chunks

    def test_every_builtin_scenario_matches_serial_and_process(self):
        from repro.engine import gossip_spec, graph_spec, noise_spec

        ring = [(i, (i + 1) % 40) for i in range(40)]
        ring += [((i + 1) % 40, i) for i in range(40)]
        spec = SweepSpec(
            cells=(
                SweepCell(spec=usd_spec(uniform_configuration(90, 3)), trials=4),
                SweepCell(
                    spec=graph_spec(ring, config=uniform_configuration(40, 2)),
                    trials=3,
                    max_interactions=50_000,
                ),
                SweepCell(
                    spec=zealot_spec(uniform_configuration(120, 2), [0, 4]),
                    trials=3,
                    max_interactions=30_000,
                ),
                SweepCell(
                    spec=noise_spec(uniform_configuration(100, 2), 0.02, 3_000),
                    trials=3,
                ),
                SweepCell(spec=gossip_spec(uniform_configuration(150, 3)), trials=3),
            )
        )
        fields = (
            "interactions", "rounds", "converged", "winner", "budget_exhausted",
            "max_plurality_fraction", "tail_mean_plurality_fraction",
        )

        def outcome(run):
            return [
                [
                    (r.final.counts.tolist(), [getattr(r, f, None) for f in fields])
                    for r in cell.results
                ]
                for cell in run
            ]

        runs = {}
        for executor in ("serial", "process", "remote"):
            with Engine(backend="batched", cache=False) as eng:
                if executor == "remote":
                    pool = eng.worker_pool()
                    for i in range(2):
                        start_worker_thread(pool.endpoint, name=f"w{i}")
                    pool.wait_for_workers(2, timeout=15)
                runs[executor] = outcome(
                    eng.sweep(spec, seed=9, executor=executor, jobs=2)
                )
        assert runs["remote"] == runs["serial"] == runs["process"]

    def test_worker_observations_split_unit_seconds_by_interactions(
        self, monkeypatch
    ):
        from repro.engine import executors

        # Every unit takes exactly 3 s on this clock.
        ticks = itertools.count(0.0, 3.0)
        monkeypatch.setattr(
            executors, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks))
        )
        observed = []
        monkeypatch.setattr(
            CostModel, "observe_worker", lambda self, *args: observed.append(args)
        )
        spec = SweepSpec(
            cells=(
                SweepCell(spec=usd_spec(uniform_configuration(60, 2)), trials=3),
                SweepCell(spec=usd_spec(uniform_configuration(90, 3)), trials=1),
            )
        )
        with Engine(backend="batched", cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="solo")
            pool.wait_for_workers(1, timeout=15)
            run = eng.sweep(spec, seed=4, executor="remote")
        # One worker gets one unit holding both cells, [cell 0 x 3,
        # cell 1 x 1], and its 3 s are split by interactions.
        a = sum(r.interactions for r in run.cells[0].results)
        b = run.cells[1].results[0].interactions
        narrow = cost_signature("usd", "batched", 60)
        wide = cost_signature("usd", "batched", 90)
        assert [row[:3] for row in observed] == [
            ("solo", narrow, 3),
            ("solo", wide, 1),
        ]
        assert [row[3] for row in observed] == pytest.approx(
            [3.0 * a / (a + b), 3.0 * b / (a + b)]
        )

    def test_worker_death_mid_packed_unit_requeues_bit_identically(self):
        spec = self.mixed_grid()
        with Engine(backend="batched", cache=False) as eng:
            serial = eng.sweep(spec, seed=5, executor="serial")
        with Engine(backend="batched", cache=False) as eng:
            pool = eng.worker_pool()
            # Dies on receipt of its first packed unit, without replying.
            start_worker_thread(pool.endpoint, name="flaky", abort_after=0)
            start_worker_thread(pool.endpoint, name="steady")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.sweep(spec, seed=5, executor="remote")
            requeued = pool.chunks_requeued
            report = eng.stats()["scheduler"]["last_sweep"]
        assert requeued >= 1
        assert report["units"] == report["packed_units"]
        assert set(report["workers"]) == {"steady"}
        assert sweep_key(remote) == sweep_key(serial)

    def test_result_body_must_match_the_segments_exactly(self):
        from repro.engine.remote import _decode_result

        body = fuzz_body()
        assert len(body) == sum(FUZZ_BLOCKS)
        frame = {"type": "result", "seconds": 0.5, "block": body}
        decoded = _decode_result(frame, FUZZ_UNIT)
        assert [len(part) for part in decoded.parts] == [2, 1]
        assert decoded.seconds == 0.5 and not decoded.served
        for skewed in (body + b"\0", body[:-1], body[: FUZZ_BLOCKS[0]]):
            with pytest.raises(ProtocolError, match="result body"):
                _decode_result({**frame, "block": skewed}, FUZZ_UNIT)

    @staticmethod
    def chunk(variant, *specs):
        """A chunk frame whose segments carry each spec on its first use."""
        segments = []
        for i, spec in enumerate(specs):
            segment = {
                "spec_key": spec.key(),
                "seeds": [seed_token(np.random.SeedSequence(i))],
                "max_interactions": 20_000,
            }
            if spec not in specs[:i]:
                segment["spec"] = spec.to_json()
            segments.append(segment)
        return {"type": "chunk", "id": 0, "run": 1, "variant": variant,
                "segments": segments}

    def test_worker_refuses_segments_that_do_not_pack(self):
        from repro.engine import graph_spec
        from repro.engine.remote import _decode_chunk, _execute_chunk

        usd = usd_spec(uniform_configuration(60, 2))
        ring = [(i, (i + 1) % 40) for i in range(40)]
        ring += [((i + 1) % 40, i) for i in range(40)]
        graph = graph_spec(ring, config=uniform_configuration(40, 2))
        zealots = zealot_spec(uniform_configuration(60, 3), [0, 1, 3])
        for variant, spec in (("jump", usd), ("batched", graph)):
            with pytest.raises(ProtocolError, match="does not pack"):
                _execute_chunk(self.chunk(variant, spec, spec), {})
            # One segment of the same cell is a plain chunk.
            assert not _decode_chunk(self.chunk(variant, spec), {}).packed
        with pytest.raises(ProtocolError, match="mix scenarios"):
            _execute_chunk(self.chunk("batched", usd, zealots), {})
        packed = _decode_chunk(self.chunk("batched", usd, usd), {})
        assert packed.packed and len(packed.seeds) == 2

    def test_a_spec_is_named_by_key_after_its_first_segment(self):
        from repro.engine.remote import _decode_chunk

        usd = usd_spec(uniform_configuration(60, 2))
        first = self.chunk("batched", usd)
        specs = {}
        assert _decode_chunk(first, specs).segments[0].spec == usd
        assert set(specs) == {usd.key()}
        by_key = json.loads(json.dumps(first))
        del by_key["segments"][0]["spec"]
        assert _decode_chunk(by_key, specs).segments[0].spec is specs[usd.key()]
        # A key the connection never received in this run, and a spec
        # sent twice in one run, are both protocol errors.
        with pytest.raises(ProtocolError, match="unknown spec"):
            _decode_chunk(by_key, {})
        with pytest.raises(ProtocolError, match="sent twice"):
            _decode_chunk(first, specs)
        for key in (None, 7, "ab", usd.key().upper()):
            bad = json.loads(json.dumps(first))
            bad["segments"][0]["spec_key"] = key
            with pytest.raises(ProtocolError, match="spec_key"):
                _decode_chunk(bad, {})


# ----------------------------------------------------------------------
# Per-worker cost coefficients
# ----------------------------------------------------------------------
class TestPerWorkerCostModel:
    def test_observe_then_predict_worker(self):
        model = CostModel()
        signature = cost_signature("usd", "batched", 500)
        model.observe_worker("slow-box", signature, 10, 5.0)
        seconds, source = model.predict_worker("slow-box", "usd", "batched", 500)
        assert source == "worker"
        assert seconds > 0
        # A worker never seen falls back to the family prediction.
        _, fallback_source = model.predict_worker("new-box", "usd", "batched", 500)
        assert fallback_source != "worker"

    def test_first_observation_seeds_from_family_prior(self):
        model = CostModel()
        signature = cost_signature("usd", "batched", 500)
        model.observe(signature, 10, 1.0)  # family history: 0.1 s/rep
        model.observe_worker("box", signature, 10, 1.0)
        seconds, _ = model.predict_worker("box", "usd", "batched", 500)
        family, _ = model.predict("usd", "batched", 500)
        # Folded into the family prior, not replacing it outright.
        assert seconds == pytest.approx(family, rel=0.5)

    def test_predict_for_workers_takes_slowest(self):
        model = CostModel()
        signature = cost_signature("usd", "batched", 500)
        model.observe_worker("fast", signature, 10, 0.1)
        model.observe_worker("slow", signature, 10, 10.0)
        both = model.predict_for_workers("usd", "batched", 500, ["fast", "slow"])
        fast_only = model.predict_for_workers("usd", "batched", 500, ["fast"])
        assert both > fast_only
        assert model.predict_for_workers("usd", "batched", 500, []) is None

    def test_worker_tables_roundtrip_payload(self):
        model = CostModel()
        signature = cost_signature("usd", "batched", 500)
        model.observe_worker("box", signature, 10, 2.0)
        payload = model.to_payload()
        assert "workers" in payload
        reloaded = CostModel.from_payload(payload)
        a, _ = model.predict_worker("box", "usd", "batched", 500)
        b, _ = reloaded.predict_worker("box", "usd", "batched", 500)
        assert a == pytest.approx(b)
        assert reloaded.summary()["workers"] == {"box": 1}

    def test_sweep_report_has_per_worker_breakdown(self):
        spec = small_sweep(trials=4)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            for i in range(2):
                start_worker_thread(pool.endpoint, name=f"w{i}")
            pool.wait_for_workers(2, timeout=15)
            eng.sweep(spec, seed=23, executor="remote")
            report = eng.stats()["scheduler"]["last_sweep"]
            cost_summary = eng.stats()["scheduler"]["cost_model"]
        workers = report["workers"]
        assert workers
        for entry in workers.values():
            assert entry["chunks"] >= 1
            assert entry["measured_seconds"] > 0
            assert entry["predicted_seconds"] > 0
        assert cost_summary["workers"]  # per-worker EWMA tables exist


# ----------------------------------------------------------------------
# Transport counters on the local paths
# ----------------------------------------------------------------------
class TestTransportCounters:
    def test_process_pickle_sweep_counts_pickle_bytes(self):
        # The local workers' units and every frame byte their private
        # pool moved count under "pickle"; "socket" is remote only.
        spec = small_sweep(trials=4)
        with Engine(cache=False, jobs=2) as eng:
            eng.sweep(spec, seed=29, executor="process")
            transport = eng.stats()["transport"]
            pool = eng._fleet.pool
            frame_bytes = pool.bytes_sent + pool.bytes_received
            units = eng.stats()["scheduler"]["last_sweep"]["units"]
        # One usd record is k + 4 int64 slots.
        record_bytes = sum(
            cell.trials * 8 * (cell.spec.config.k + 4) for cell in spec.cells
        )
        assert set(transport) == {"pickle", "socket"}
        assert transport["pickle"]["chunks"] == units >= len(spec.cells)
        assert transport["pickle"]["bytes"] == frame_bytes > record_bytes
        assert transport["socket"]["chunks"] == 0

    def test_socket_counters_survive_pool_shutdown(self):
        config = uniform_configuration(60, 2)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="w")
            pool.wait_for_workers(1, timeout=15)
            eng.ensemble(config, 6, seed=31, executor="remote")
            live = eng.stats()["transport"]["socket"]
            assert live["chunks"] > 0
            # Reconfiguring the workers address tears the pool down; the
            # totals must fold into the session counters, not vanish.
            eng.configure(workers="127.0.0.1:0")
            folded = eng.stats()["transport"]["socket"]
        assert folded["chunks"] == live["chunks"]
        assert folded["bytes"] == live["bytes"]


# ----------------------------------------------------------------------
# Handshake hardening: versioning and the shared-secret challenge
# ----------------------------------------------------------------------
class TestHandshakeHardening:
    def test_v1_worker_gets_graceful_reject_frame(self):
        # A peer that speaks JSON frames but an older protocol must get a
        # reject frame naming the mismatch *before* the hang-up, so the
        # operator sees why instead of a bare EOF.  A hello in the old
        # pickled framing is dropped without being deserialized.
        with WorkerPool() as pool, pool_poller(pool):
            sock = socket.create_connection(pool.address, timeout=10)
            try:
                sock.settimeout(10)
                send_frame(sock, {"type": "hello", "protocol": 3, "name": "v3"})
                frames = _read_frames(sock)
                reject = next(frames)
                assert reject["type"] == "reject"
                assert "protocol version 3" in reject["error"]
                assert "upgrade the worker" in reject["error"]
                assert next(frames) is None  # then a clean close
            finally:
                sock.close()
            # A protocol-4 worker sends single-cell chunks' results; it
            # is told the version skew instead of failing mid-run.
            sock = socket.create_connection(pool.address, timeout=10)
            try:
                sock.settimeout(10)
                send_frame(sock, {"type": "hello", "protocol": 4, "name": "v4"})
                frames = _read_frames(sock)
                reject = next(frames)
                assert reject["type"] == "reject"
                assert f"protocol version 4 != {PROTOCOL_VERSION}" in reject["error"]
                assert next(frames) is None  # then a clean close
            finally:
                sock.close()
            sock = socket.create_connection(pool.address, timeout=10)
            try:
                sock.settimeout(10)
                sock.sendall(legacy_frame(pickle.dumps(Gadget())))
                assert sock.recv(1 << 16) == b""  # dropped, no reply
            finally:
                sock.close()
        assert pool.worker_count() == 0
        assert not GADGET_FIRED

    def test_protocol_5_worker_gets_version_skew_reject(self):
        # A protocol-5 worker expects every segment to carry its spec;
        # it is told the version skew instead of failing mid-run.
        with WorkerPool() as pool, pool_poller(pool):
            sock = socket.create_connection(pool.address, timeout=10)
            try:
                sock.settimeout(10)
                send_frame(sock, {"type": "hello", "protocol": 5, "name": "v5"})
                frames = _read_frames(sock)
                reject = next(frames)
                assert reject["type"] == "reject"
                assert f"protocol version 5 != {PROTOCOL_VERSION}" in reject["error"]
                assert next(frames) is None  # then a clean close
            finally:
                sock.close()
        assert pool.worker_count() == 0

    def test_correct_secret_round_trips(self):
        with WorkerPool(secret="hunter2") as pool, pool_poller(pool):
            served = serve_worker(
                pool.endpoint, name="trusted", secret="hunter2", max_chunks=0
            )
        assert served == 0  # welcome received: the challenge was answered

    def test_wrong_secret_rejected_naming_env_var(self):
        with WorkerPool(secret="hunter2") as pool, pool_poller(pool):
            with pytest.raises(ProtocolError, match=WORKER_SECRET_ENV):
                serve_worker(pool.endpoint, name="imposter", secret="wrong")
        assert pool.worker_count() == 0

    def test_missing_secret_fails_client_side_naming_env_var(self):
        with WorkerPool(secret="hunter2") as pool, pool_poller(pool):
            with pytest.raises(ProtocolError, match=WORKER_SECRET_ENV):
                serve_worker(pool.endpoint, name="anonymous")
        assert pool.worker_count() == 0

    def test_secretless_pool_skips_challenge(self):
        # The feature is opt-in: without a secret the handshake is the
        # PR 8 hello/welcome exactly, which is what keeps tier-1 running
        # with no REPRO_WORKER_SECRET in the environment.
        with WorkerPool() as pool:
            start_worker_thread(pool.endpoint, name="open")
            pool.wait_for_workers(1, timeout=15)
            assert pool.worker_count() == 1

    def test_auth_digest_is_keyed_and_nonce_bound(self):
        nonce = b"\x01" * 32
        assert auth_digest(b"secret", nonce) == auth_digest(b"secret", nonce)
        assert auth_digest(b"secret", nonce) != auth_digest(b"other", nonce)
        assert auth_digest(b"secret", nonce) != auth_digest(b"secret", b"\x02" * 32)

    def test_engine_passes_secret_to_pool(self):
        config = uniform_configuration(60, 2)
        serial = run_ensemble(config, 6, seed=3, executor="serial")
        with Engine(cache=False, worker_secret="sesame") as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="w", secret="sesame")
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 6, seed=3, executor="remote")
        assert results_key(remote) == results_key(serial)

    def test_secret_masked_in_options_snapshot(self):
        opts = EngineOptions(worker_secret="sesame")
        assert opts.worker_secret == "sesame"
        assert opts.as_dict()["worker_secret"] == "***"
        assert EngineOptions().as_dict()["worker_secret"] is None

    def test_secret_environment_default(self, monkeypatch):
        monkeypatch.setenv(WORKER_SECRET_ENV, "from-env")
        assert EngineOptions.resolve().worker_secret == "from-env"
        monkeypatch.delenv(WORKER_SECRET_ENV)
        assert EngineOptions.resolve().worker_secret is None

    def test_blank_secret_means_no_secret_on_both_sides(self, monkeypatch, tmp_path):
        # The session, ``repro worker`` and ``repro cache stats --workers``
        # all parse the variable through the options declaration.
        import repro.cli as cli
        import repro.engine.remote as remote

        monkeypatch.setenv(WORKER_SECRET_ENV, "   ")
        assert EngineOptions.resolve().worker_secret is None
        seen = {}

        def fake_serve_worker(address, **kwargs):
            seen["worker"] = kwargs["secret"]
            return 0

        class Refused(Exception):
            pass

        def fake_pool(address, **kwargs):
            seen["cache stats"] = kwargs["secret"]
            raise Refused

        monkeypatch.setattr(cli, "serve_worker", fake_serve_worker)
        monkeypatch.setattr(remote, "WorkerPool", fake_pool)
        assert cli.main(["worker", "127.0.0.1:1", "--no-cache"]) == 0
        with pytest.raises(Refused):
            cli.main(["cache", "stats", "--cache-dir", str(tmp_path),
                      "--workers", "127.0.0.1:0"])
        assert seen == {"worker": None, "cache stats": None}


# ----------------------------------------------------------------------
# Cache fabric: probe, serve-cached, push, and affinity placement
# ----------------------------------------------------------------------
def warm_entry(store_dir, spec, trials, seed):
    """Precompute an ensemble serially and park it in a worker store."""
    variant = get_scenario(spec.scenario).variant(None)
    results = run_ensemble(spec, trials, seed=seed, executor="serial")
    key = ensemble_key(
        spec, trials=trials, seed=seed, variant=variant, max_interactions=None
    )
    entry = encode_entry(key, spec, variant, seed, None, results)
    EnsembleCache(store_dir).store(key, entry)
    return key, results


class TestCacheFabricProtocol:
    def test_interleaved_fabric_frames_decode_byte_by_byte(self):
        messages = [
            {"type": "cache-probe", "probe": 1, "keys": ["a" * 64, "b" * 64]},
            {"type": "serve-cached", "id": 0, "key": "a" * 64, "trials": 4},
            {"type": "cache-hit", "probe": 1, "keys": ["a" * 64]},
            {"type": "cache-push", "key": "c" * 64, "block": b"\x01" * 24},
        ]
        wire = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(wire)):
            seen.extend(decoder.feed(wire[offset : offset + 1]))
        assert seen == messages
        assert decoder.pending_bytes == 0

    def test_truncated_probe_frame_rejected_over_socket(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame(
                {"type": "cache-probe", "probe": 7, "keys": ["k" * 64]}
            )
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame(b)
        finally:
            b.close()

    def test_probe_finds_owner_and_counts(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        key, _ = warm_entry(tmp_path / "w", spec, 6, 5)
        with WorkerPool() as pool:
            start_worker_thread(
                pool.endpoint, name="warm", cache_dir=str(tmp_path / "w")
            )
            start_worker_thread(
                pool.endpoint, name="cold", cache_dir=str(tmp_path / "empty")
            )
            pool.wait_for_workers(2, timeout=15)
            owners = pool.probe_cache([key])
            stats = pool.cache_stats()
        assert owners == {"warm": {key}}
        assert stats["probed"] == 2  # one key asked of two workers
        assert stats["hits"] == 1
        rows = {row["name"]: row for row in stats["workers"]}
        assert rows["warm"]["hits"] == 1
        assert rows["cold"]["hits"] == 0

    def test_storeless_worker_answers_probe_empty(self):
        with WorkerPool() as pool:
            start_worker_thread(pool.endpoint, name="bare", cache_dir=None)
            pool.wait_for_workers(1, timeout=15)
            assert pool.probe_cache(["f" * 64]) == {}

    def test_serve_cached_replies_stored_results(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        scenario = get_scenario(spec.scenario)
        key, results = warm_entry(tmp_path / "w", spec, 6, 5)
        with WorkerPool() as pool:
            start_worker_thread(
                pool.endpoint, name="warm", cache_dir=str(tmp_path / "w")
            )
            pool.wait_for_workers(1, timeout=15)
            unit = unit_of(
                spec, scenario.variant(None), np.random.SeedSequence(5).spawn(6)
            )
            outputs = pool.run([unit], serve={0: (key, ["warm"])})
            fabric = pool.cache_stats()
        assert outputs[0].served is True
        assert outputs[0].worker == "warm"
        assert fabric["served"] == 1
        assert results_key(outputs[0].parts[0]) == results_key(results)

    def test_lying_probe_falls_back_cold_bit_identically(self, tmp_path):
        # A worker that advertises every key but can serve none: the pool
        # must take the cache-miss, discard the liar as owner, and requeue
        # the chunk for ordinary execution — same results, only slower.
        config = uniform_configuration(70, 2)
        serial = run_ensemble(config, 8, seed=19, executor="serial")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(
                pool.endpoint,
                name="liar",
                cache_dir=str(tmp_path / "hollow"),
                claim_all=True,
            )
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 8, seed=19, executor="remote")
            fabric = pool.cache_stats()
            requeued = pool.chunks_requeued
            stats = eng.stats()
        assert results_key(remote) == results_key(serial)
        assert fabric["fallbacks"] >= 1
        assert requeued >= 1
        assert stats["replicates_simulated"] == 8  # nothing actually served

    def test_worker_death_mid_serve_cached_falls_back(self, tmp_path):
        # The owner dies on receipt of its serve-cached dispatch without
        # replying; the chunk must requeue and run cold on the survivor,
        # bit-identically (seeds travel inside the chunk either way).
        spec = usd_spec(uniform_configuration(80, 3))
        serial = run_ensemble(spec, 6, seed=5, executor="serial")
        warm_entry(tmp_path / "w", spec, 6, 5)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(
                pool.endpoint,
                name="doomed-owner",
                cache_dir=str(tmp_path / "w"),
                abort_after=0,
            )
            start_worker_thread(pool.endpoint, name="survivor")
            pool.wait_for_workers(2, timeout=15)
            remote = eng.ensemble(spec, 6, seed=5, executor="remote")
            requeued = pool.chunks_requeued
        assert results_key(remote) == results_key(serial)
        assert requeued >= 1

    def test_push_replication_populates_worker_stores(self, tmp_path):
        spec = small_sweep(trials=4)
        with Engine(cache=True, cache_dir=str(tmp_path / "coord")) as eng:
            pool = eng.worker_pool()
            threads = [
                start_worker_thread(
                    pool.endpoint, name=f"w{i}", cache_dir=str(tmp_path / f"w{i}")
                )
                for i in range(2)
            ]
            pool.wait_for_workers(2, timeout=15)
            eng.sweep(spec, seed=37, executor="remote")
            pushed = pool.cache_stats()["pushed"]
        for thread in threads:
            thread.join(timeout=15)  # bye follows the pushes; both land
        assert pushed == len(spec) * 2
        for i in range(2):
            assert EnsembleCache(tmp_path / f"w{i}").stats()["entries"] == len(
                spec
            )

    def test_push_skips_owners_and_shared_stores(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        key, results = warm_entry(tmp_path / "owner", spec, 6, 5)
        with WorkerPool(
            session_cache_token=cache_token(tmp_path / "coord")
        ) as pool:
            start_worker_thread(
                pool.endpoint, name="owner", cache_dir=str(tmp_path / "owner")
            )
            start_worker_thread(
                pool.endpoint, name="twin", cache_dir=str(tmp_path / "coord")
            )
            start_worker_thread(
                pool.endpoint, name="fresh", cache_dir=str(tmp_path / "fresh")
            )
            pool.wait_for_workers(3, timeout=15)
            # owner is excluded by name, twin shares the session's store,
            # so exactly one push goes out — to fresh.
            entry = (tmp_path / "owner" / f"{key}.entry").read_bytes()
            pushed = pool.push_cache(entry, exclude={"owner"})
            assert pushed == 1


class TestOneEntryFormat:
    def test_pushed_entry_lands_byte_for_byte(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        with Engine(cache=True, cache_dir=str(tmp_path / "coord")) as eng:
            pool = eng.worker_pool()
            thread = start_worker_thread(
                pool.endpoint, name="w", cache_dir=str(tmp_path / "w")
            )
            pool.wait_for_workers(1, timeout=15)
            eng.ensemble(spec, 6, seed=5, executor="remote")
            assert pool.cache_stats()["pushed"] == 1
        thread.join(timeout=15)  # bye follows the push; it lands
        (session,) = (tmp_path / "coord").glob("*.entry")
        assert (tmp_path / "w" / session.name).read_bytes() == session.read_bytes()

    def test_serve_cached_sends_the_stored_block_unencoded(
        self, tmp_path, monkeypatch
    ):
        from repro.engine.scenarios import Scenario

        spec = usd_spec(uniform_configuration(80, 3))
        key, results = warm_entry(tmp_path / "w", spec, 6, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("the served cell was re-encoded")

        monkeypatch.setattr(Scenario, "encode_record", refuse)
        with WorkerPool() as pool:
            start_worker_thread(
                pool.endpoint, name="warm", cache_dir=str(tmp_path / "w")
            )
            pool.wait_for_workers(1, timeout=15)
            unit = unit_of(
                spec, get_scenario("usd").variant(None),
                np.random.SeedSequence(5).spawn(6),
            )
            (output,) = pool.run([unit], serve={0: (key, ["warm"])})
        assert output.served is True
        assert results_key(output.parts[0]) == results_key(results)

    def test_push_whose_header_does_not_derive_its_key_is_refused(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        key, _ = warm_entry(tmp_path / "w", spec, 6, 5)
        entry = (tmp_path / "w" / f"{key}.entry").read_bytes()
        forged = decode_frame(entry)
        forged["seed"] = 6  # the body and key stay those of seed 5
        before = {p.name: p.read_bytes() for p in (tmp_path / "w").iterdir()}
        errors = []

        def serve():
            try:
                serve_worker(pool.endpoint, name="w", cache_dir=str(tmp_path / "w"))
            except Exception as exc:
                errors.append(exc)

        with WorkerPool() as pool:
            thread = threading.Thread(target=serve, daemon=True)
            thread.start()
            pool.wait_for_workers(1, timeout=15)
            assert pool.push_cache(encode_frame(forged)) == 1
            thread.join(timeout=15)
        assert len(errors) == 1 and isinstance(errors[0], ProtocolError)
        assert "derives key" in str(errors[0])
        after = {p.name: p.read_bytes() for p in (tmp_path / "w").iterdir()}
        assert after == before


class TestWarmFleet:
    def test_second_sweep_is_served_with_zero_simulation(self, tmp_path):
        spec = small_sweep(trials=5)
        serial = run_sweep(spec, seed=41, executor="serial")

        def fleet(eng):
            pool = eng.worker_pool()
            threads = [
                start_worker_thread(
                    pool.endpoint, name=f"w{i}", cache_dir=str(tmp_path / f"w{i}")
                )
                for i in range(2)
            ]
            pool.wait_for_workers(2, timeout=15)
            return threads

        with Engine(cache=True, cache_dir=str(tmp_path / "coord")) as eng:
            threads = fleet(eng)
            cold = eng.sweep(spec, seed=41, executor="remote")
        for thread in threads:
            thread.join(timeout=15)

        # Second pass: cache-less coordinator, fresh fleet over the same
        # stores — every cell must come back from a worker's cache.
        with Engine(cache=False) as eng:
            fleet(eng)
            warm = eng.sweep(spec, seed=41, executor="remote")
            stats = eng.stats()
            report = eng.stats()["scheduler"]["last_sweep"]
        assert sweep_key(cold) == sweep_key(serial)
        assert sweep_key(warm) == sweep_key(serial)
        assert stats["replicates_simulated"] == 0
        assert stats["replicates_served_remote"] == spec.total_trials
        fabric = stats["cache"]["fabric"]
        assert fabric["served"] == len(spec)
        assert fabric["hits"] == len(spec) * 2  # both workers hold all cells
        rows = {row["name"]: row for row in stats["cache"]["workers"]}
        assert sum(row["served"] for row in rows.values()) == len(spec)
        assert report["replicates_served"] == spec.total_trials
        # Served results still ride the socket transport and must be
        # visible in its byte counters (the under-reporting bugfix).
        assert stats["transport"]["socket"]["chunks"] == len(spec)
        assert stats["transport"]["socket"]["bytes"] > 0

    def test_warm_ensemble_single_cell(self, tmp_path):
        config = uniform_configuration(80, 3)
        serial = run_ensemble(config, 8, seed=43, executor="serial")
        spec = usd_spec(config)
        warm_entry(tmp_path / "w", spec, 8, 43)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(
                pool.endpoint, name="warm", cache_dir=str(tmp_path / "w")
            )
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(spec, 8, seed=43, executor="remote")
            stats = eng.stats()
        assert results_key(remote) == results_key(serial)
        assert stats["replicates_simulated"] == 0
        assert stats["replicates_served_remote"] == 8

    def test_fabric_counters_survive_pool_shutdown(self, tmp_path):
        spec = usd_spec(uniform_configuration(80, 3))
        warm_entry(tmp_path / "w", spec, 6, 5)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(
                pool.endpoint, name="warm", cache_dir=str(tmp_path / "w")
            )
            pool.wait_for_workers(1, timeout=15)
            eng.ensemble(spec, 6, seed=5, executor="remote")
            live = eng.stats()["cache"]["fabric"]
            assert live["served"] == 1
            eng.configure(workers="127.0.0.1:0")  # tears the pool down
            folded = eng.stats()["cache"]["fabric"]
        assert folded["served"] == live["served"]
        assert folded["hits"] == live["hits"]


# ----------------------------------------------------------------------
# Hostile peers: garbage frames, pickle gadgets, fuzzed messages
# ----------------------------------------------------------------------
def json_values():
    leaves = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=True, allow_infinity=True)
        | st.text(max_size=8)
    )
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=10,
    )


def spec_objects():
    """JSON values, valid spec objects and near misses of them."""
    names = st.sampled_from(["usd", "graph", "zealots", "noise", "gossip", "?"])
    param_names = st.sampled_from(["zealots", "rho", "horizon", "rule", "edges"])
    params = st.lists(st.tuples(param_names, json_values()).map(list), max_size=3)
    return st.one_of(
        json_values(),
        st.just(usd_spec(uniform_configuration(60, 2)).to_json()),
        st.fixed_dictionaries(
            {
                "scenario": names | json_values(),
                "config": st.lists(st.integers(-2, 2**64), max_size=4)
                | json_values(),
                "params": params | json_values(),
            }
        ),
    )


def seed_tokens():
    return st.lists(
        json_values()
        | st.fixed_dictionaries(
            {
                "entropy": st.integers() | json_values(),
                "spawn_key": st.lists(st.integers(-2, 2**40), max_size=3)
                | json_values(),
            }
        ),
        max_size=3,
    )


#: The spec the fuzzers' worker already holds (by key) in half the runs.
KNOWN_SPEC = usd_spec(uniform_configuration(60, 2))


def spec_keys():
    """The known spec's key, a well-formed unknown key, or any JSON."""
    return st.sampled_from([KNOWN_SPEC.key(), "ab" * 32]) | json_values()


def segment_lists():
    """Chunk ``segments``: lists of near-valid segment objects, or any JSON."""
    segment = st.fixed_dictionaries(
        {},
        optional={
            "spec_key": spec_keys(),
            "spec": spec_objects(),
            "seeds": seed_tokens() | json_values(),
            "max_interactions": json_values(),
        },
    )
    return st.lists(segment | json_values(), max_size=3) | json_values()


def messages():
    """Chunk, result and cache-push headers built from arbitrary values."""
    return st.fixed_dictionaries(
        {"type": st.sampled_from(["chunk", "result", "cache-push"])},
        optional={
            "id": json_values(),
            "run": json_values(),
            "spec": spec_objects(),
            "segments": segment_lists(),
            "variant": st.sampled_from(["batched", "reference", "jump"])
            | json_values(),
            "seeds": seed_tokens() | json_values(),
            "max_interactions": json_values(),
            "key": st.just("ab" * 32) | json_values(),
            "trials": st.integers(-2, 6) | json_values(),
            "seconds": json_values(),
            "served": json_values(),
        },
    )


FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A packed two-segment unit (k = 2 and k = 3) whose result bodies the
#: fuzzers feed to the result decoder.
FUZZ_UNIT = WorkUnit(
    get_scenario("usd"),
    "batched",
    "batched",
    (
        Segment(0, usd_spec(uniform_configuration(60, 2)), None,
                np.random.SeedSequence(1).spawn(2)),
        Segment(1, usd_spec(uniform_configuration(90, 3)), 500,
                np.random.SeedSequence(2).spawn(1)),
    ),
    packed=True,
)

#: Bytes per record block of FUZZ_UNIT's segments: trials x 8 x (k + 4).
FUZZ_BLOCKS = (2 * 8 * 6, 1 * 8 * 7)


@functools.lru_cache(maxsize=None)
def fuzz_body():
    """FUZZ_UNIT's real result body: its segments' blocks back to back."""
    from repro.engine.executors import encode_parts, run_unit

    work, budget = FUZZ_UNIT.work()
    results, _ = run_unit(FUZZ_UNIT.scenario, "batched", work, budget, FUZZ_UNIT.seeds)
    return b"".join(encode_parts(FUZZ_UNIT.scenario, "batched", work, results))


def bodies():
    """Arbitrary bytes, concatenated blocks of the right sizes (real or
    random records), and those cut short or padded by a few bytes."""
    exact = st.tuples(
        *(st.binary(min_size=size, max_size=size) for size in FUZZ_BLOCKS)
    ).map(b"".join) | st.builds(fuzz_body)
    skewed = st.tuples(exact, st.integers(-9, 9)).map(
        lambda pair: pair[0][: pair[1]] if pair[1] < 0 else pair[0] + bytes(pair[1])
    )
    return st.binary(max_size=200) | exact | skewed


def decode_all(message):
    """Every message decoder on ``message``; only ProtocolError may escape.

    Chunks decode against an empty spec memo and against one that holds
    :data:`KNOWN_SPEC`, so both unknown and resent spec keys are tried.
    """
    from repro.engine.remote import (
        _decode_cache_push,
        _decode_chunk,
        _decode_result,
    )

    for decode in (
        lambda m: _decode_chunk(m, {}),
        lambda m: _decode_chunk(m, {KNOWN_SPEC.key(): KNOWN_SPEC}),
        _decode_cache_push,
        lambda m: _decode_result(m, FUZZ_UNIT),
    ):
        try:
            decode(message)
        except ProtocolError:
            pass


class TestHostilePeers:
    def test_garbage_frame_drops_only_its_connection(self):
        # At protocol 3 this frame's body named a module to import, and
        # the import error escaped WorkerPool._poll and ended the sweep.
        config = uniform_configuration(80, 3)
        serial = run_ensemble(config, 10, seed=7, executor="serial")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="steady")
            pool.wait_for_workers(1, timeout=15)
            rogue = socket.create_connection(pool.address, timeout=10)
            try:
                rogue.sendall(legacy_frame(b"cnonexistent_mod\nfoo\n."))
                assert_dropped(rogue, poll=lambda: pool._poll(0.05))
                assert pool.worker_names() == ["steady"]
                remote = eng.ensemble(config, 10, seed=7, executor="remote")
            finally:
                rogue.close()
        assert results_key(remote) == results_key(serial)

    def test_pickle_gadget_never_runs_in_the_decoder(self):
        blob = pickle.dumps(Gadget())
        for frame in (legacy_frame(blob), json_layout_frame(blob)):
            with pytest.raises(ProtocolError):
                FrameDecoder().feed(frame)
        # Behind a valid header the pickle is an opaque body: bytes.
        (message,) = FrameDecoder().feed(json_layout_frame(b'{"type":"x"}', blob))
        assert message == {"type": "x", "block": blob}
        assert not GADGET_FIRED

    def test_pickle_gadget_never_runs_on_a_secret_pool(self):
        blob = pickle.dumps(Gadget())
        with WorkerPool(secret="hunter2") as pool, pool_poller(pool):
            for frame in (legacy_frame(blob), json_layout_frame(blob)):
                sock = socket.create_connection(pool.address, timeout=10)
                try:
                    sock.sendall(frame)
                    assert_dropped(sock)
                finally:
                    sock.close()
            assert pool.worker_count() == 0
        assert not GADGET_FIRED

    @FUZZ
    @given(data=st.binary(max_size=300))
    def test_decoder_on_arbitrary_bytes(self, data):
        for stream in (data, FRAME_MAGIC + data):
            try:
                frames = FrameDecoder().feed(stream)
            except ProtocolError:
                continue
            assert all(isinstance(message, dict) for message in frames)

    @FUZZ
    @given(
        header=st.binary(max_size=120) | json_values().map(
            lambda value: json.dumps(value).encode()
        ),
        body=st.binary(max_size=120),
    )
    def test_decoder_on_arbitrary_frames(self, header, body):
        try:
            frames = FrameDecoder().feed(json_layout_frame(header, body))
        except ProtocolError:
            return
        for message in frames:
            assert isinstance(message, dict)
            decode_all(message)

    @FUZZ
    @given(message=messages(), body=bodies())
    def test_message_decoders_raise_only_protocol_errors(self, message, body):
        # Through the codec, so the header is exactly what a peer could send.
        wire = json.dumps(message).encode()
        (decoded,) = FrameDecoder().feed(json_layout_frame(wire, body))
        decode_all(decoded)


class TestSpecOncePerConnection:
    def test_requeue_onto_a_worker_without_the_spec_sends_it_in_full(
        self, monkeypatch
    ):
        from repro.engine.executors import run_unit

        spec = usd_spec(uniform_configuration(60, 2))
        seeds = [np.random.SeedSequence(s).spawn(2) for s in (1, 2)]
        units = [unit_of(spec, "jump", unit_seeds) for unit_seeds in seeds]
        frames = []
        send = WorkerPool._send

        def spy(pool, conn, message):
            if message.get("type") == "chunk":
                frames.append((conn.name, json.loads(json.dumps(message))))
            send(pool, conn, message)

        monkeypatch.setattr(WorkerPool, "_send", spy)
        outcome = {}
        with WorkerPool() as pool:
            # Serves the first unit, then drops the second on receipt.
            start_worker_thread(pool.endpoint, name="first", abort_after=1)
            pool.wait_for_workers(1, timeout=15)
            runner = threading.Thread(
                target=lambda: outcome.update(outputs=pool.run(units))
            )
            runner.start()
            deadline = time.monotonic() + 15
            while pool.chunks_requeued == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            start_worker_thread(pool.endpoint, name="second")
            runner.join(timeout=30)
        assert not runner.is_alive()
        assert [(name, frame["id"]) for name, frame in frames] == [
            ("first", 0),
            ("first", 1),
            ("second", 1),
        ]
        carried = [
            ["spec" in item for item in frame["segments"]] for _, frame in frames
        ]
        assert carried == [[True], [False], [True]]
        assert {frame["segments"][0]["spec_key"] for _, frame in frames} == {
            spec.key()
        }
        scenario = get_scenario("usd")
        assert [results_key(output.parts[0]) for output in outcome["outputs"]] == [
            results_key(run_unit(scenario, "jump", spec, None, unit_seeds)[0])
            for unit_seeds in seeds
        ]


class TestNothingUnpickledOnTheRemotePath:
    def test_no_executor_module_imports_pickle(self):
        import ast

        modules = sorted(
            path
            for package in ("engine", "service")
            for path in (Path(SRC_DIR) / "repro" / package).glob("*.py")
        )
        assert len(modules) > 10
        for name in modules:
            tree = ast.parse(name.read_text(encoding="utf-8"))
            imported = {
                alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
            } | {
                (node.module or "").split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
            }
            assert "pickle" not in imported, name

    def test_remote_runs_with_unpickling_disabled(self, monkeypatch, tmp_path):
        config = uniform_configuration(80, 3)
        spec = small_sweep(trials=4)
        serial_ensemble = run_ensemble(config, 8, seed=7, executor="serial")
        serial_sweep = run_sweep(spec, seed=11, executor="serial")

        def forbidden(*args, **kwargs):
            raise AssertionError("the remote path unpickled something")

        for name in ("loads", "load", "Unpickler"):
            monkeypatch.setattr(pickle, name, forbidden)
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            threads = [
                start_worker_thread(
                    pool.endpoint, name=f"w{i}", cache_dir=str(tmp_path / f"w{i}")
                )
                for i in range(2)
            ]
            pool.wait_for_workers(2, timeout=15)
            ensemble = eng.ensemble(config, 8, seed=7, executor="remote")
            sweep = eng.sweep(spec, seed=11, executor="remote")
            pushed = pool.cache_stats()["pushed"]
        for thread in threads:
            thread.join(timeout=15)  # bye follows the pushes; all land
        assert results_key(ensemble) == results_key(serial_ensemble)
        assert sweep_key(sweep) == sweep_key(serial_sweep)
        assert pushed == 2 * (1 + len(spec))
        for i in range(2):
            stored = EnsembleCache(tmp_path / f"w{i}").stats()["entries"]
            assert stored == 1 + len(spec)


# ----------------------------------------------------------------------
# Worker-socket TLS
# ----------------------------------------------------------------------
TLS_DIR = Path(__file__).resolve().parent / "data" / "tls"
SERVER_PEM = str(TLS_DIR / "server.pem")
SERVER_KEY = str(TLS_DIR / "server.key")
CLIENT_PEM = str(TLS_DIR / "client.pem")
CLIENT_KEY = str(TLS_DIR / "client.key")


class TestWorkerTLS:
    """TLS on the worker socket: same frames, same results, new transport.

    The checked-in certificates are self-signed test fixtures (100-year
    validity) that double as their own pins: the worker pins the pool's
    certificate with ``cafile=server.pem``, and mutual TLS pins the
    worker's with ``cafile=client.pem`` on the pool side.
    """

    def test_tls_ensemble_bit_identical_to_serial(self):
        from repro.engine.remote import make_client_tls_context

        config = uniform_configuration(80, 3)
        serial = run_ensemble(config, 8, seed=7, executor="serial")
        with Engine(
            cache=False,
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
        ) as eng:
            pool = eng.worker_pool()
            client_tls = make_client_tls_context(cafile=SERVER_PEM)
            start_worker_thread(pool.endpoint, name="tls-w", tls=client_tls)
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 8, seed=7, executor="remote")
        assert results_key(remote) == results_key(serial)

    def test_plaintext_worker_rejected_by_tls_pool(self):
        with Engine(
            cache=False,
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
        ) as eng:
            pool = eng.worker_pool()
            with pool_poller(pool):
                # The worker's plaintext hello is not a ClientHello; the
                # pool's handshake fails and hangs up mid-frame.
                with pytest.raises((ProtocolError, OSError)):
                    serve_worker(pool.endpoint, name="plain")
            assert pool.worker_count() == 0

    def test_tls_worker_rejected_by_plaintext_pool(self):
        from repro.engine.remote import make_client_tls_context

        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            with pool_poller(pool):
                client_tls = make_client_tls_context(cafile=SERVER_PEM)
                with pytest.raises((ProtocolError, OSError)):
                    serve_worker(pool.endpoint, name="tls", tls=client_tls)
            assert pool.worker_count() == 0

    def test_mutual_tls_requires_client_certificate(self):
        from repro.engine.remote import make_client_tls_context

        config = uniform_configuration(70, 2)
        serial = run_ensemble(config, 6, seed=9, executor="serial")
        with Engine(
            cache=False,
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
            worker_tls_ca=CLIENT_PEM,
        ) as eng:
            pool = eng.worker_pool()
            with pool_poller(pool):
                bare = make_client_tls_context(cafile=SERVER_PEM)
                with pytest.raises((ProtocolError, OSError)):
                    serve_worker(pool.endpoint, name="certless", tls=bare)
            assert pool.worker_count() == 0
            with_cert = make_client_tls_context(
                cafile=SERVER_PEM, certfile=CLIENT_PEM, keyfile=CLIENT_KEY
            )
            start_worker_thread(pool.endpoint, name="mtls", tls=with_cert)
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 6, seed=9, executor="remote")
        assert results_key(remote) == results_key(serial)

    def test_tls_composes_with_hmac_handshake(self, monkeypatch):
        from repro.engine.remote import make_client_tls_context

        monkeypatch.delenv(WORKER_SECRET_ENV, raising=False)
        config = uniform_configuration(60, 2)
        serial = run_ensemble(config, 5, seed=3, executor="serial")
        with Engine(
            cache=False,
            worker_secret="hunter2",
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
        ) as eng:
            pool = eng.worker_pool()
            client_tls = make_client_tls_context(cafile=SERVER_PEM)
            start_worker_thread(
                pool.endpoint, name="both", tls=client_tls, secret="hunter2"
            )
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 5, seed=3, executor="remote")
        assert results_key(remote) == results_key(serial)

    def test_stalled_connector_does_not_block_registration(self):
        """A peer that never finishes its TLS handshake must not wedge
        the pool: handshakes advance via the selector, so a silent
        connection just sits until its deadline drops it while real
        workers register and serve."""
        from repro.engine.remote import make_client_tls_context

        with Engine(
            cache=False,
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
        ) as eng:
            pool = eng.worker_pool()
            pool._tls_handshake_timeout = 0.5
            host, port = pool.endpoint.rsplit(":", 1)
            stalled = socket.create_connection((host, int(port)), timeout=5)
            try:
                client_tls = make_client_tls_context(cafile=SERVER_PEM)
                start_worker_thread(
                    pool.endpoint, name="live", tls=client_tls
                )
                pool.wait_for_workers(1, timeout=15)
                assert pool.worker_count() == 1
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and len(pool._conns) != 1:
                    pool._poll(0.05)
                # The silent connection hit its handshake deadline and
                # was dropped; only the registered worker remains.
                assert len(pool._conns) == 1
            finally:
                stalled.close()

    def test_configure_tls_rebinds_worker_pool(self):
        with Engine(cache=False) as eng:
            plain = eng.worker_pool()
            eng.configure(
                worker_tls_cert=SERVER_PEM, worker_tls_key=SERVER_KEY
            )
            rebuilt = eng.worker_pool()
            assert rebuilt is not plain


# ----------------------------------------------------------------------
# Graceful worker drain
# ----------------------------------------------------------------------
class TestWorkerDrain:
    def test_drain_event_exits_cleanly(self):
        config = uniform_configuration(80, 3)
        serial = run_ensemble(config, 10, seed=7, executor="serial")
        drain = threading.Event()
        served = []
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()

            def run():
                served.append(
                    serve_worker(pool.endpoint, name="drainer", drain=drain)
                )

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            pool.wait_for_workers(1, timeout=15)
            remote = eng.ensemble(config, 10, seed=7, executor="remote")
            drain.set()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # The bye frame reaches the pool and unregisters the worker.
            deadline = 0
            while pool.worker_count() and deadline < 100:
                pool._poll(0.05)
                deadline += 1
            assert pool.worker_count() == 0
        assert served and served[0] >= 1
        assert results_key(remote) == results_key(serial)

    def test_drain_mid_sweep_requeues_bit_identically(self):
        spec = small_sweep(trials=6)
        serial = run_sweep(spec, seed=13, executor="serial")
        drain = threading.Event()
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            start_worker_thread(pool.endpoint, name="drainer", drain=drain)
            start_worker_thread(pool.endpoint, name="steady")
            pool.wait_for_workers(2, timeout=15)
            threading.Timer(0.2, drain.set).start()
            remote = eng.sweep(spec, seed=13, executor="remote", batch_size=2)
        assert sweep_key(remote) == sweep_key(serial)

    def test_worker_subprocess_sigterm_exits_zero(self):
        import signal as _signal

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        with Engine(cache=False) as eng:
            pool = eng.worker_pool()
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    pool.endpoint,
                    "--name",
                    "term-me",
                    "--no-cache",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                pool.wait_for_workers(1, timeout=60)
                proc.send_signal(_signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
            output = proc.stdout.read()
        assert "drain requested" in output
        assert "done" in output

    def test_worker_subprocess_tls_flags_and_sigterm(self):
        import signal as _signal

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        config = uniform_configuration(70, 2)
        serial = run_ensemble(config, 6, seed=31, executor="serial")
        with Engine(
            cache=False,
            worker_tls_cert=SERVER_PEM,
            worker_tls_key=SERVER_KEY,
        ) as eng:
            pool = eng.worker_pool()
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    pool.endpoint,
                    "--name",
                    "tls-cli",
                    "--no-cache",
                    "--tls-ca",
                    SERVER_PEM,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                pool.wait_for_workers(1, timeout=60)
                remote = eng.ensemble(config, 6, seed=31, executor="remote")
                proc.send_signal(_signal.SIGTERM)
                assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
        assert results_key(remote) == results_key(serial)
