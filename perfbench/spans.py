"""Layer spans recorded from outside the program.

The benchmark never edits the program: a traced run wraps the public
calls that enter each layer (``Engine.sweep``, a scenario's chunk
runner, ``EnsembleCache.load``, ``Pool.map``, the service's parse and
encode helpers, ...) with a recorder.  Each span records its name,
start, end and parent (the span open on the same thread when it began);
counts ride along as span metadata.  Spans stay in memory and are
written out once, when the run (or a launched server) ends.

Times come from ``time.monotonic`` (``CLOCK_MONOTONIC``), so spans
written by the ``repro serve`` subprocess share the benchmark's clock.

Forked process-pool children inherit the wrappers but record nothing
(the recorder only keeps spans from the process that installed it);
their kernel time comes from the engine's own chunk-seconds instead.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Layer groups :func:`install` understands.
LAYERS = ("session", "kernel", "cache", "executors", "service")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self.wrapped: list[str] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args, kwargs, describe=None):
        """Run ``func`` inside a span; ``describe(result, args)`` adds counts."""
        if os.getpid() != self.pid:
            return func(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        meta = describe(result, args) if describe is not None else None
        self.spans.append((span_id, parent, name, start, end, meta))
        return result

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        Raises ``AttributeError`` when the program no longer has the
        call, so a renamed layer entry fails the traced run instead of
        reporting that layer as idle.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if original is None:
            original = getattr(owner, attr, None)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if original is None or not callable(original):
            raise AttributeError(f"cannot trace {label}: the program has no such call")
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, describe)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        self.wrapped.append(label)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def payload(self) -> dict:
        return {
            "pid": self.pid,
            "wrapped": list(self.wrapped),
            "spans": [list(span) for span in self.spans],
        }

    def dump(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle)
        os.replace(tmp, path)


def _kernel_counts(results, args) -> dict:
    # run_chunk(self, spec, variant, rngs, max_interactions)
    return {
        "replicates": len(args[3]),
        "interactions": sum(int(r.interactions) for r in results),
    }


def _load_counts(results, args) -> dict:
    return {"hit": results is not None}


def install(tracer: Tracer, layers) -> None:
    """Wrap the entry calls of ``layers``."""
    from repro.engine import EnsembleCache, Engine, get_scenario

    layers = set(layers)
    unknown = layers - set(LAYERS)
    if unknown:
        raise ValueError(f"unknown layers {sorted(unknown)}")
    wrap = tracer.wrap
    if "session" in layers:
        wrap(Engine, "sweep", "session")
        wrap(Engine, "ensemble", "session")
    if "kernel" in layers:
        wrap(type(get_scenario("usd")), "run_chunk", "kernel", _kernel_counts)
    if "cache" in layers:
        wrap(EnsembleCache, "load", "cache.load", _load_counts)
        wrap(EnsembleCache, "store", "cache.store")
    if "executors" in layers:
        import multiprocessing.pool

        wrap(multiprocessing.pool.Pool, "map", "executors.map")
    if "service" in layers:
        from repro.service import jobs

        wrap(jobs, "parse_ensemble", "service.parse")
        wrap(jobs.EnsembleJob, "key", "service.parse")
        wrap(Engine, "cached_ensemble", "service.lookup")
        wrap(jobs, "results_to_jsonable", "service.encode")
        wrap(jobs, "summarize_results", "service.encode")


# ----------------------------------------------------------------------
# Analysis over recorded spans (any number of processes)
# ----------------------------------------------------------------------
def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class SpanSet:
    """Spans of several processes that lie inside timed requests.

    Spans outside every request interval (set-up between sweep calls,
    the service's untimed checks) are dropped.
    """

    def __init__(self, payloads, intervals) -> None:
        self.by_pid: dict[int, list] = {}
        for payload in payloads:
            kept = [
                tuple(span)
                for span in payload["spans"]
                if any(lo <= span[3] and span[4] <= hi for lo, hi in intervals)
            ]
            self.by_pid.setdefault(payload["pid"], []).extend(kept)

    def named(self, prefix: str) -> list:
        return [
            span
            for spans in self.by_pid.values()
            for span in spans
            if span[2] == prefix or span[2].startswith(prefix + ".")
        ]

    def total(self, prefix: str) -> float:
        return sum(span[4] - span[3] for span in self.named(prefix))

    def count(self, prefix: str) -> int:
        return len(self.named(prefix))

    def meta_sum(self, prefix: str, field: str) -> int:
        return sum(
            (span[5] or {}).get(field, 0) for span in self.named(prefix)
        )

    def self_time(self, prefix: str) -> float:
        """Duration of ``prefix`` spans minus their direct children's."""
        total = 0.0
        for spans in self.by_pid.values():
            owned = {span[0] for span in spans if span[2] == prefix}
            for span in spans:
                if span[0] in owned:
                    total += span[4] - span[3]
                elif span[1] in owned:
                    total -= span[4] - span[3]
        return total

    def uncovered(self, intervals) -> float:
        """Seconds of ``intervals`` that no span (of any process) covers."""
        spans = sorted(
            (span[3], span[4])
            for spans in self.by_pid.values()
            for span in spans
        )
        total = 0.0
        for lo, hi in intervals:
            cursor = lo
            for start, end in spans:
                if end <= cursor or start >= hi:
                    continue
                if start > cursor:
                    total += start - cursor
                cursor = max(cursor, min(end, hi))
            total += max(0.0, hi - cursor)
        return total
