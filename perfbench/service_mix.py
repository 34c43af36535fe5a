"""The service workload: ``repro serve`` under a fixed read/write mix.

Set-up prefills a fresh cache directory with large ensembles (above the
service's 64-replicate inline limit) through a direct ``Engine`` call,
then starts ``repro serve`` on it.  The timed phase is a closed loop on
two connections with fixed roles and fixed counts, taking turns:

* the **writer** submits one distinct cold ensemble from a seeded
  sequence and waits for it (a *miss*);
* then the **reader** makes ``reads_per_miss`` requests, alternating
  between ``GET /v1/results/<key>`` (a *fetch*: a cache read every time)
  and re-submitting a prefilled key (a *hit*: the first submission of
  each key is served from the cache, repeats from the in-memory job
  registry);

``misses`` times.  The mix never depends on the clock, and reads never
overlap a simulation.  When they did (the reader running while the
engine thread simulated), hit and fetch latencies were set by how the
interpreter lock passed between the engine thread and the event loop:
the fetch median read 3, 7 and 27 ms in three sessions on one host.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import threading
import time

from common import (
    BACKEND,
    HERE,
    STREAM_PREFILL,
    STREAM_WRITER,
    note,
    program_env,
    seed_stream,
    vm_hwm_mb,
)

#: Prefilled ensembles: the first two are re-submitted by the reader
#: (hits; at the inline limit, so every hit carries its 64 results and
#: costs encoding work rather than only a round trip, whose latency
#: swung 0.66 to 1.22 ms between runs), the last two are above the
#: inline limit and read back through ``GET /v1/results`` (fetches).
PREFILL_SHAPE = {"workload": "additive", "params": {"n": 500, "k": 3, "beta": 40}}
PREFILL = tuple(dict(PREFILL_SHAPE, trials=trials) for trials in (64, 64, 192, 192))
HIT_SLOTS, FETCH_SLOTS = (0, 1), (2, 3)
MISS = {
    "workload": "additive",
    "params": {"n": 3000, "k": 4, "beta": 300},
    "trials": 16,
}
#: Run time one miss and its reads stand for: ``--seconds`` buys
#: ``round(seconds / MISS_SECONDS)`` misses (one miss and its reads took
#: about 1.15 s on a 2-core host, so a run measures a little longer).
MISS_SECONDS = 1.0
#: Reads per miss.
READS_PER_MISS = 8
TINY_PREFILL = tuple(
    {"workload": "uniform", "params": {"n": 120, "k": 3}, "trials": trials}
    for trials in (8, 8, 70, 70)
)
TINY_MISS = {"workload": "uniform", "params": {"n": 200, "k": 3}, "trials": 4}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class ServiceMix:
    name = "service_mix"
    server_layers = "session,kernel,cache,service"
    layers = ()
    #: Per-layer metrics a traced pass must report non-zero.
    nonzero_layers = (
        "kernel.busy_s",
        "kernel.calls",
        "kernel.replicates",
        "kernel.interactions",
        "cache.loads",
        "cache.load_s",
        "cache.stores",
        "session.call_s",
        "service.parse_s",
        "service.lookup_s",
        "service.engine_s",
        "service.encode_s",
        "service.requests",
        "service.submitted",
        "service.served_from_cache",
    )

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        prefill = TINY_PREFILL if ctx.tiny else PREFILL
        miss = TINY_MISS if ctx.tiny else MISS
        self.misses = 4 if ctx.tiny else max(4, round(ctx.seconds / MISS_SECONDS))
        self.reads_per_miss = 4 if ctx.tiny else READS_PER_MISS
        self.prefill = [
            dict(body, seed=seed)
            for body, seed in zip(
                prefill, seed_stream(ctx.seed, STREAM_PREFILL, len(prefill))
            )
        ]
        self.writes = [
            dict(miss, seed=s)
            for s in seed_stream(ctx.seed, STREAM_WRITER, self.misses)
        ]

    # -- set-up --------------------------------------------------------
    def setup(self, traced: bool) -> dict:
        from repro.engine import Engine, get_scenario
        from repro.service import ServiceClient, ServiceConfig, parse_ensemble

        store = self.ctx.work.fresh("service-store")
        # Prefill through the engine, not the service, so the server's
        # job registry has never seen these keys.
        prefilled, keys = [], []
        with Engine(
            backend=BACKEND,
            executor="serial",
            jobs=1,
            cache=True,
            cache_dir=str(store),
            workers=None,
        ) as engine:
            for body in self.prefill:
                job = parse_ensemble(dict(body))
                results = engine.ensemble(job.spec, job.trials, seed=job.seed)
                prefilled.append(results)
                keys.append(
                    job.key(get_scenario(job.spec.scenario).variant(BACKEND))
                )
        command = [
            "serve",
            "127.0.0.1:0",
            "--backend",
            BACKEND,
            "--executor",
            "serial",
            "--jobs",
            "1",
            "--cache",
            "--cache-dir",
            str(store),
        ]
        spans = None
        if traced:
            spans = self.ctx.work.path / "server-spans.json"
            argv = [
                sys.executable,
                str(HERE / "launch.py"),
                str(spans),
                self.server_layers,
                "--",
                *command,
            ]
        else:
            argv = [sys.executable, "-m", "repro", *command]
        errors = self.ctx.work.path / "server.err"
        with open(errors, "wb") as sink:
            proc = subprocess.Popen(
                argv,
                env=program_env(),
                stdout=subprocess.PIPE,
                stderr=sink,
                text=True,
            )
        state = {
            "procs": [proc],
            "spans": spans,
            "prefilled": prefilled,
            "keys": keys,
        }
        try:
            endpoint = None
            for line in proc.stdout:
                if line.startswith("service: listening on "):
                    endpoint = line.split()[-1]
                    break
            if endpoint is None:
                proc.wait(timeout=30)
                last = errors.read_text(errors="replace").strip().splitlines()[-1:]
                raise RuntimeError(f"repro serve exited before listening: {last}")
            # Keep draining stdout so the server never blocks on a pipe.
            drain = threading.Thread(
                target=lambda: [None for _ in proc.stdout], daemon=True
            )
            drain.start()
            state["drain"] = drain
            config = (
                ServiceConfig.builder(endpoint).timeout(120.0).retries(0).build()
            )
            state["clients"] = [ServiceClient(config), ServiceClient(config)]
            state["clients"][0].healthz()
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state) -> float:
        procs = state["procs"]
        rss = sum(vm_hwm_mb(proc.pid) for proc in procs)
        for client in state.get("clients", ()):
            client.close()
        stop_processes(procs)
        if "drain" in state:
            state["drain"].join(timeout=30)
        return rss

    # -- one pass ------------------------------------------------------
    def measure(self, state) -> dict:
        writer_client, reader_client = state["clients"]
        before = reader_client.metrics()
        record = {
            "cold": [],
            "hit": [],
            "fetch": [],
            "intervals": [],
            "writes": [None] * self.misses,
            "hits": [],
            "fetches": [],
            "attempted": 0,
            "failed": 0,
            "errors": [],
        }

        def request(kind, call):
            t0 = time.monotonic()
            try:
                payload = call()
            except Exception as exc:  # a failed request is counted, not fatal
                record["failed"] += 1
                record["errors"].append(f"{kind}: {exc}")
                payload = None
            else:
                note(record, kind, t0)
            record["attempted"] += 1
            return payload

        started = time.monotonic()
        turn = 0
        for index, body in enumerate(self.writes):
            record["writes"][index] = request(
                "cold", lambda: writer_client.ensemble(dict(body))
            )
            for _ in range(self.reads_per_miss):
                # A burst opens with a fetch: the first read after a miss
                # runs about 10% slower, and as one hit in four it would
                # sit right at the hits' p75.
                turn += 1
                if turn % 2 == 0:
                    slot = HIT_SLOTS[(turn // 2) % len(HIT_SLOTS)]
                    hit = self.prefill[slot]
                    payload = request(
                        "hit", lambda: reader_client.ensemble(dict(hit))
                    )
                    if payload is not None:
                        record["hits"].append((slot, canonical(payload)))
                else:
                    slot = FETCH_SLOTS[(turn // 2) % len(FETCH_SLOTS)]
                    key = state["keys"][slot]
                    payload = request("fetch", lambda: reader_client.results(key))
                    if payload is not None:
                        record["fetches"].append((slot, payload))
        ended = time.monotonic()
        after = reader_client.metrics()
        record["window"] = (started, ended)
        record["metrics_before"], record["metrics_after"] = before, after
        record["requests"] = {
            "miss": len(record["cold"]),
            "hit": len(record["hit"]),
            "fetch": len(record["fetch"]),
        }
        done = [w for w in record["writes"] if w is not None]
        record["interactions"] = sum(
            int(r["interactions"]) for w in done for r in w["results"]
        )
        record["replicates"] = (
            sum(w["trials"] for w in done)
            + sum(self.prefill[s]["trials"] for s, _ in record["hits"])
            + sum(p["trials"] for _, p in record["fetches"])
        )
        record["digests"] = [digest_payload(w) for w in record["writes"]]
        # Checks, untimed: every writer key again (coalesced onto its
        # finished job), which must answer exactly what it answered cold,
        # and the first submission of each fetched key.
        record["rewrites"] = [
            writer_client.ensemble(dict(body)) for body in self.writes
        ]
        record["fetch_submissions"] = {
            slot: writer_client.ensemble(dict(self.prefill[slot]))
            for slot in FETCH_SLOTS
        }
        return record

    # -- checks --------------------------------------------------------
    def verify(self, record, state) -> list[str]:
        from repro.service import results_to_jsonable

        failures = list(record["errors"][:3])
        expected = [
            json.loads(json.dumps(results_to_jsonable(results)))
            for results in state["prefilled"]
        ]
        first: dict[int, str] = {}
        for slot, text in record["hits"]:
            if slot in first:
                if text != first[slot]:
                    failures.append(f"a hit on prefilled key {slot} changed")
                continue
            first[slot] = text
            payload = json.loads(text)
            if not payload.get("served_from_cache"):
                failures.append(f"prefilled key {slot} was not served from the cache")
            if payload.get("results") != expected[slot]:
                failures.append(f"hit results of prefilled key {slot} differ")
        for slot, payload in record["fetch_submissions"].items():
            if not payload.get("served_from_cache") or payload.get("results_inline"):
                failures.append(f"prefilled key {slot} was not a cached handle")
        if set(first) | set(record["fetch_submissions"]) != set(range(len(expected))):
            failures.append("not every prefilled key was read")
        for slot, payload in record["fetches"]:
            if payload.get("results") != expected[slot]:
                failures.append(f"fetched results of key {slot} differ")
                break
        for index, (cold, again) in enumerate(
            zip(record["writes"], record["rewrites"])
        ):
            if cold is None:
                continue
            if cold.get("served_from_cache"):
                failures.append(f"write {index} was not cold")
            if canonical(again) != canonical(cold):
                failures.append(f"write {index}: repeat differs from cold answer")
        return failures


def stop_processes(procs, timeout: float = 30.0) -> None:
    """SIGTERM (``repro serve`` drains), wait, and kill what still runs."""
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


def digest_payload(payload) -> str | None:
    """Digest of a response's inline results (``None`` for a failure)."""
    if payload is None:
        return None
    blob = canonical(payload.get("results")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
