"""Span tracing around the public entry points of each ``repro`` layer.

The traced campaign installs these wrappers from the benchmark's own files;
nothing inside ``src/repro`` knows about them.  Each wrapper records one span
(name, pid, id, parent id, job, start, end, attributes) in memory.  Pool
workers are forked after the wrappers are installed, so they run the same
wrappers; each worker appends its own spans to ``<spans_dir>/<pid>.jsonl``
before it hands a result back, and the campaign process reads those files
after ``engine.close()``.

All times are host ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock, so spans of the parent and of its workers
share one time base.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional


class Tracer:
    """In-memory span recorder for one process (and, after fork, its copy)."""

    def __init__(self, spans_dir: str) -> None:
        self.spans_dir = Path(spans_dir)
        self.spans: List[dict] = []
        self._stack: List[str] = []
        self._next = 0
        #: token of the job the innermost ``engine.job`` span is running
        self.job: Optional[str] = None

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None):
        """Record one span; the body may fill the yielded attribute dict."""
        pid = os.getpid()
        self._next += 1
        span_id = f"{pid}:{self._next}"
        attrs: dict = {}
        outer_job = self.job
        if job is not None:
            self.job = job
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"name": name, "pid": pid, "id": span_id,
                               "parent": parent, "job": self.job,
                               "start": start, "end": end, **attrs})
            self.job = outer_job

    def flush(self) -> None:
        """Append this process's spans to its file and forget them.

        A forked worker inherits the parent's spans recorded before the
        fork; only spans stamped with this pid are written.
        """
        pid = os.getpid()
        own = [span for span in self.spans if span["pid"] == pid]
        self.spans.clear()
        if not own:
            return
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spans_dir / f"{pid}.jsonl", "a", encoding="utf-8") as out:
            for span in own:
                out.write(json.dumps(span) + "\n")

    def all_spans(self) -> List[dict]:
        """This process's spans plus every span the workers flushed."""
        spans = [span for span in self.spans if span["pid"] == os.getpid()]
        if self.spans_dir.is_dir():
            for path in sorted(self.spans_dir.glob("*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    spans.extend(json.loads(line) for line in handle)
        return spans


def job_token(job) -> str:
    """Identity of a sweep job, shared by every span it causes (a job that
    carries its own machine is a topology point)."""
    point = "" if job.config is None else "@topology"
    return f"{job.benchmark}:{job.policy}{point}"


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry point with a span."""
    from repro.power.wattch import PowerModel
    from repro.sim import engine
    from repro.sim.cache import ResultCache
    from repro.trace.store import TraceStore

    def wrap(owner, attr: str, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    # -- repro.trace: generation (called from the engine's trace lookup)
    def generate(original):
        def generate_trace(profile, num_uops, *args, **kwargs):
            with tracer.span("trace.generate") as attrs:
                trace = original(profile, num_uops, *args, **kwargs)
                attrs["uops"] = len(trace)
            return trace
        return generate_trace
    wrap(engine, "generate_trace", generate)

    def store_load(original):
        def load(self, key):
            with tracer.span("trace.store.load") as attrs:
                trace = original(self, key)
                attrs["hit"] = trace is not None
            return trace
        return load
    wrap(TraceStore, "load", store_load)

    def store_store(original):
        def store(self, key, trace):
            with tracer.span("trace.store.store") as attrs:
                original(self, key, trace)
                try:
                    attrs["bytes"] = self.path_for(key).stat().st_size
                except OSError:
                    attrs["bytes"] = 0
        return store
    wrap(TraceStore, "store", store_store)

    # -- repro.sim.simulator (the engine's module-level ``simulate``)
    def simulate(original):
        def simulate(trace, *args, **kwargs):
            with tracer.span("sim.simulate") as attrs:
                result = original(trace, *args, **kwargs)
                attrs["uops"] = result.committed_uops
                attrs["fast_cycles"] = result.fast_cycles
            return result
        return simulate
    wrap(engine, "simulate", simulate)

    # -- repro.power
    def power(original):
        def evaluate(self, *args, **kwargs):
            with tracer.span("power.evaluate"):
                return original(self, *args, **kwargs)
        return evaluate
    wrap(PowerModel, "evaluate_topology", power)
    wrap(PowerModel, "evaluate_shared", power)

    # -- repro.sim.cache
    def cache_load(original):
        def load(self, key):
            with tracer.span("cache.load") as attrs:
                before = self.bytes_read
                result = original(self, key)
                attrs["hit"] = result is not None
                attrs["bytes"] = self.bytes_read - before
            return result
        return load
    wrap(ResultCache, "load", cache_load)

    def cache_store(original):
        def store(self, key, result):
            with tracer.span("cache.store") as attrs:
                before = self.bytes_written
                original(self, key, result)
                attrs["bytes"] = self.bytes_written - before
        return store
    wrap(ResultCache, "store", cache_store)

    def cache_verify(original):
        def verify(self, key, result=None):
            with tracer.span("cache.verify"):
                return original(self, key, result)
        return verify
    wrap(ResultCache, "verify", cache_verify)

    # -- repro.sim.engine (with supervise and checkpoint beneath it)
    def run_jobs(original):
        def run_jobs(self, sweep_jobs, use_cache=True):
            with tracer.span("engine.run_jobs") as attrs:
                attrs["jobs"] = len(set(sweep_jobs))
                attrs["workers"] = self.jobs
                return original(self, sweep_jobs, use_cache)
        return run_jobs
    wrap(engine.SweepEngine, "run_jobs", run_jobs)

    def close(original):
        def close(self):
            with tracer.span("engine.close"):
                original(self)
        return close
    wrap(engine.SweepEngine, "close", close)

    def execute(original):
        def execute_job(job, *args, **kwargs):
            with tracer.span("engine.job", job=job_token(job)):
                return original(job, *args, **kwargs)
        return execute_job
    wrap(engine, "execute_job", execute)

    def worker(original):
        def supervised_worker(task):
            try:
                return original(task)
            finally:
                tracer.flush()
        return supervised_worker
    wrap(engine, "_supervised_worker", worker)


# ---------------------------------------------------------------- reduction
def _named(spans: Iterable[dict], name: str) -> List[dict]:
    return [span for span in spans if span["name"] == name]


def _total(spans: Iterable[dict]) -> float:
    return sum(span["end"] - span["start"] for span in spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_seconds(spans: List[dict], name: str) -> float:
    """Sum over ``name`` spans of their duration minus their direct
    children's in the same process (those nest, so they never overlap each
    other; a forked worker's spans run beside the parent's, not inside)."""
    children: Dict[str, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None and parent.startswith(f"{span['pid']}:"):
            children[parent] = (children.get(parent, 0.0)
                                + span["end"] - span["start"])
    return sum(span["end"] - span["start"] - children.get(span["id"], 0.0)
               for span in _named(spans, name))


def tail_value(values: List[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, len(ordered) - 11)]


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """Per-layer metrics from one traced campaign's spans."""
    generate = _named(spans, "trace.generate")
    store_load = _named(spans, "trace.store.load")
    store_store = _named(spans, "trace.store.store")
    simulate = _named(spans, "sim.simulate")
    power = _named(spans, "power.evaluate")
    cache_load = _named(spans, "cache.load")
    cache_store = _named(spans, "cache.store")
    run_jobs = _named(spans, "engine.run_jobs")
    jobs = _named(spans, "engine.job")
    job_seconds = [span["end"] - span["start"] for span in jobs]
    run_jobs_s = _total(run_jobs)
    sim_s = _total(simulate)
    sim_uops = sum(span["uops"] for span in simulate)
    generated = sum(span["uops"] for span in generate)
    # Busy share of the worker slots the engine ran with.
    slot_seconds = sum((span["end"] - span["start"]) * span["workers"]
                       for span in run_jobs)
    return {
        "trace.generate.calls": len(generate),
        "trace.generate.s": _total(generate),
        "trace.generate.ns_per_uop": _ratio(_total(generate) * 1e9, generated),
        "trace.store.load.calls": len(store_load),
        "trace.store.load.s": _total(store_load),
        "trace.store.hit_frac": _ratio(
            sum(1 for span in store_load if span["hit"]), len(store_load)),
        "trace.store.store.calls": len(store_store),
        "trace.store.store.s": _total(store_store),
        "trace.store.bytes": sum(span["bytes"] for span in store_store),
        "sim.simulate.calls": len(simulate),
        "sim.simulate.s": sim_s,
        "sim.simulate.self_s": self_seconds(spans, "sim.simulate"),
        "sim.host_ns_per_uop": _ratio(sim_s * 1e9, sim_uops),
        "sim.host_ns_per_fast_cycle": _ratio(
            sim_s * 1e9, sum(span["fast_cycles"] for span in simulate)),
        "power.evaluate.calls": len(power),
        "power.evaluate.s": _total(power),
        "power.share": _ratio(_total(power), sim_s),
        "cache.store.calls": len(cache_store),
        "cache.store.s": _total(cache_store),
        "cache.verify.s": _total(_named(spans, "cache.verify")),
        "cache.bytes_written": sum(span["bytes"] for span in cache_store),
        "cache.load.calls": len(cache_load),
        "cache.load.s": _total(cache_load),
        "cache.hit_frac": _ratio(
            sum(1 for span in cache_load if span["hit"]), len(cache_load)),
        "cache.bytes_read": sum(span["bytes"] for span in cache_load),
        "engine.run_jobs.s": run_jobs_s,
        "engine.self_s": self_seconds(spans, "engine.run_jobs"),
        "engine.jobs": sum(span["jobs"] for span in run_jobs),
        "engine.job_s_p50": (statistics.median(job_seconds)
                             if job_seconds else 0.0),
        "engine.job_s_tail": tail_value(job_seconds),
        "engine.worker_busy_frac": _ratio(sum(job_seconds), slot_seconds),
        "engine.close.s": _total(_named(spans, "engine.close")),
        "reporting.render.s": _total(_named(spans, "reporting.render")),
    }
