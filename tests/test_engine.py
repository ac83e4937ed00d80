"""Tests for the parallel sweep engine, its determinism and the result cache.

The engine's core contract is that *how* a sweep executes — serially in one
process, fanned over a worker pool, or replayed from the on-disk cache —
never changes *what* it computes.  These tests pin that contract, plus the
cache's corruption handling and the determinism of trace generation itself.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import (MachineConfig, baseline_config,
                               helper_topology, topology_config)
from repro.core.steering import PolicySpec, policy_registry, policy_spec
from repro.power.wattch import PowerConfig
from repro.sim import engine as engine_mod
from repro.sim.cache import ResultCache, result_key
from repro.sim.engine import SweepEngine, SweepJob, execute_job, job_seed
from repro.sim.experiment import (
    ExperimentRunner,
    build_topology_grid,
    run_spec_suite,
)
from repro.sim.metrics import SimulationResult
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.store import canonical_text
from repro.trace.synthetic import generate_trace

POLICIES = ["n888", "ir"]
BENCHMARKS = ["gcc", "gzip"]
UOPS = 1200
SEED = 2006


def _sweep_fingerprint(sweep) -> dict:
    """Full field-level dump of a sweep, for bit-identity comparisons."""
    out = {}
    for bench, result in sweep.results.items():
        out[bench] = {"baseline": dataclasses.asdict(result.baseline)}
        for policy, run in result.by_policy.items():
            out[bench][policy] = dataclasses.asdict(run)
    return out


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_trace_generation_is_deterministic(self):
        profile = get_profile("gcc")
        a = generate_trace(profile, 800, seed=7)
        b = generate_trace(profile, 800, seed=7)
        assert len(a) == len(b)
        for ua, ub in zip(a.uops, b.uops):
            assert ua == ub

    def test_trace_generation_seed_sensitivity(self):
        profile = get_profile("gcc")
        a = generate_trace(profile, 800, seed=7)
        b = generate_trace(profile, 800, seed=8)
        assert any(ua != ub for ua, ub in zip(a.uops, b.uops))

    def test_job_reexecution_is_bit_identical(self):
        job = SweepJob("gzip", "ir", UOPS, job_seed(SEED, "gzip"))
        config = topology_config(helper_topology())
        first = execute_job(job, config)
        second = execute_job(job, config)
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_serial_and_parallel_paths_identical(self):
        serial = run_spec_suite(POLICIES, trace_uops=UOPS, seed=SEED,
                                benchmarks=BENCHMARKS, jobs=1)
        parallel = run_spec_suite(POLICIES, trace_uops=UOPS, seed=SEED,
                                  benchmarks=BENCHMARKS, jobs=2,
                                  allow_oversubscribe=True)
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(parallel)

    def test_job_seed_is_pure(self):
        assert job_seed(2006, "gcc") == job_seed(2006, "gcc")


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------
class TestResultCache:
    def _run(self, tmp_path, use_cache=True):
        return run_spec_suite(["n888"], trace_uops=UOPS, seed=SEED,
                              benchmarks=["gcc"], cache_dir=str(tmp_path),
                              use_cache=use_cache)

    def test_cached_rerun_is_identical(self, tmp_path):
        cold = self._run(tmp_path)
        warm = self._run(tmp_path)
        assert _sweep_fingerprint(cold) == _sweep_fingerprint(warm)

    def test_warm_run_hits_cache(self, tmp_path):
        self._run(tmp_path)
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path))
        runner.run_suite([get_profile("gcc")], ["n888"])
        assert runner.cache.hits == 2          # baseline + policy
        assert runner.cache.misses == 0

    def test_explore_paper_point_served_from_ladder_cache(self, tmp_path):
        # A default-config ladder run and the explore grid's paper point
        # (8-bit, 2x, 1 helper) are one machine with one cache key, so the
        # grid computes nothing for that point.
        ladder = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path))
        ladder_sweep = ladder.run_suite([get_profile("gcc")], ["ir"])
        explore = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                   cache_dir=str(tmp_path))
        points = build_topology_grid(widths=(8,), ratios=(2,),
                                     helper_counts=(1,))
        assert [point.name for point in points] == ["w8x2h1"]
        grid = explore.run_topology_grid(points, [get_profile("gcc")],
                                         policy="ir")
        assert explore.report.computed == 0
        assert explore.cache.hits == 2          # baseline + paper point
        assert grid.results[("w8x2h1", "gcc")] == \
            ladder_sweep.results["gcc"].by_policy["ir"]

    def test_bypass_flag_skips_reads(self, tmp_path):
        self._run(tmp_path)
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path), use_cache=False)
        sweep = runner.run_suite([get_profile("gcc")], ["n888"])
        assert runner.cache.hits == 0          # reads bypassed...
        assert runner.cache.stores == 2        # ...but entries refreshed
        assert _sweep_fingerprint(sweep) == _sweep_fingerprint(self._run(tmp_path))

    def test_corrupted_entry_detected_and_recomputed(self, tmp_path):
        runner = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                  cache_dir=str(tmp_path))
        reference = runner.run_suite([get_profile("gcc")], ["n888"])
        # Flip bytes in every stored payload.
        entries = list(tmp_path.rglob("*.res"))
        assert entries
        for path in entries:
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
        fresh = ExperimentRunner(trace_uops=UOPS, seed=SEED,
                                 cache_dir=str(tmp_path))
        recomputed = fresh.run_suite([get_profile("gcc")], ["n888"])
        assert fresh.cache.corrupt_drops == len(entries)
        assert fresh.cache.hits == 0
        assert _sweep_fingerprint(recomputed) == _sweep_fingerprint(reference)

    def test_truncated_entry_detected(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = result_key("probe")
        stored = SimulationResult(benchmark="x", policy="y")
        writer.store(key, stored)
        path = writer.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        # The storing process memoises its own (known-good) result and never
        # re-decodes the disk entry, so it is immune to the truncation...
        assert writer.load(key) is stored
        assert writer.memo_hits == 1
        # ...while a fresh process reading the same directory detects it.
        cache = ResultCache(tmp_path)
        assert cache.load(key) is None
        assert cache.corrupt_drops == 1
        assert not path.exists()  # dropped so the slot rewrites cleanly

    def test_stale_key_mismatch_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        key_a, key_b = result_key("a"), result_key("b")
        cache.store(key_a, SimulationResult(benchmark="x", policy="y"))
        target = cache.path_for(key_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(key_a).rename(target)
        assert cache.load(key_b) is None
        assert cache.corrupt_drops == 1

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "never", enabled=False)
        cache.store(result_key("k"), SimulationResult(benchmark="x", policy="y"))
        assert cache.load(result_key("k")) is None
        assert not (tmp_path / "never").exists()

    def test_load_once_per_process_and_byte_counters(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = result_key("probe")
        writer.store(key, SimulationResult(benchmark="x", policy="y"))
        assert writer.bytes_written > 0

        reader = ResultCache(tmp_path)
        first = reader.load(key)
        assert first is not None
        assert reader.bytes_read > 0
        bytes_after_first = reader.bytes_read
        # The second load of the same key must not re-read or re-decode the
        # on-disk entry — even if the file vanishes in the meantime.
        reader.path_for(key).unlink()
        assert reader.load(key) is first
        assert reader.bytes_read == bytes_after_first
        assert reader.memo_hits == 1
        assert reader.hits == 2

    def test_cache_stats_line_mentions_hits_misses_and_bytes(self, tmp_path):
        from repro.sim.reporting import cache_stats_line

        cache = ResultCache(tmp_path)
        cache.store(result_key("k"), SimulationResult(benchmark="x", policy="y"))
        fresh = ResultCache(tmp_path)
        fresh.load(result_key("k"))
        fresh.load(result_key("absent"))
        line = cache_stats_line(fresh)
        assert "hits=1" in line and "misses=1" in line
        assert "read=" in line and "written=" in line
        assert "\n" not in line  # a one-line table footer


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------
class TestCacheKeys:
    def test_key_sensitivity(self):
        engine = SweepEngine(config=topology_config(helper_topology()))
        base = SweepJob("gcc", "ir", 1000, 2006)
        assert engine.key_for(base) == engine.key_for(SweepJob("gcc", "ir", 1000, 2006))
        for other in [SweepJob("gzip", "ir", 1000, 2006),
                      SweepJob("gcc", "n888", 1000, 2006),
                      SweepJob("gcc", "ir", 2000, 2006),
                      SweepJob("gcc", "ir", 1000, 7),
                      SweepJob("gcc", "ir", 1000, 2006, use_slicing=True)]:
            assert engine.key_for(other) != engine.key_for(base)

    def test_key_depends_on_config(self):
        narrow8 = SweepEngine(config=topology_config(helper_topology(narrow_width=8)))
        narrow16 = SweepEngine(config=topology_config(helper_topology(narrow_width=16)))
        job = SweepJob("gcc", "ir", 1000, 2006)
        assert narrow8.key_for(job) != narrow16.key_for(job)

    def test_baseline_key_ignores_sweep_config(self):
        # The baseline always runs on the monolithic machine, so its cached
        # result is shared across helper-config sweeps.
        narrow8 = SweepEngine(config=topology_config(helper_topology(narrow_width=8)))
        narrow16 = SweepEngine(config=topology_config(helper_topology(narrow_width=16)))
        job = SweepJob("gcc", "baseline", 1000, 2006)
        assert narrow8.key_for(job) == narrow16.key_for(job)


def _inline_key(engine: SweepEngine, job: SweepJob) -> str:
    """A job's result key written out without the engine's memo."""
    config = (baseline_config() if job.policy == "baseline"
              else job.config or engine.config)
    return result_key(
        canonical_text(engine._profile_for(job.benchmark).to_key_dict()),
        job.trace_uops, job.seed, job.use_slicing,
        canonical_text(config.to_key_dict()),
        canonical_text(policy_spec(job.policy).to_key_dict()),
        canonical_text((job.power or engine.power).to_key_dict()))


def _mixed_batch() -> list:
    """Baseline, the ladder, ``ir_wa``, an ad-hoc combo, job-carried grid
    configs and a job-carried power config, each job listed twice."""
    grid = [point.config for point in build_topology_grid(
        widths=(8, 16), ratios=(2,), helper_counts=(1,))]
    power = PowerConfig(alu_access=12.5)
    jobs = [SweepJob(bench, policy, 1000, SEED)
            for bench in BENCHMARKS
            for policy in policy_registry.ladder_names() + ["ir_wa",
                                                             "n888+cr"]]
    jobs += [SweepJob(bench, policy, 1000, SEED, config=config)
             for bench in BENCHMARKS for config in grid
             for policy in ("baseline", "ir", "ir_wa")]
    jobs += [SweepJob("gcc", policy, 1000, SEED, power=power)
             for policy in ("baseline", "ir")]
    return jobs + list(jobs)


class TestKeyStability:
    """The engine computes each key component's text once per distinct
    object; keys must be byte-identical to the inline computation."""

    def test_memoised_keys_equal_inline_keys(self):
        engine = SweepEngine(config=topology_config(helper_topology()))
        jobs = _mixed_batch()
        assert [engine.key_for(job) for job in jobs] == \
            [_inline_key(engine, job) for job in jobs]

    def test_each_component_serialised_once_per_object(self, monkeypatch):
        calls = {}
        held = []

        def counting(cls):
            original = cls.to_key_dict

            def to_key_dict(self):
                held.append(self)  # keep ids unique for the whole test
                calls[id(self)] = calls.get(id(self), 0) + 1
                return original(self)
            monkeypatch.setattr(cls, "to_key_dict", to_key_dict)

        for cls in (MachineConfig, BenchmarkProfile, PolicySpec, PowerConfig):
            counting(cls)
        engine = SweepEngine(config=topology_config(helper_topology()))
        for job in _mixed_batch():
            engine.key_for(job)
        assert calls and max(calls.values()) == 1

    def test_reregistered_profile_changes_the_key(self):
        engine = SweepEngine()
        job = SweepJob("gcc", "ir", 1000, SEED)
        before = engine.key_for(job)
        engine.register_profile(dataclasses.replace(
            get_profile("gcc"), narrow_data_fraction=0.5))
        after = engine.key_for(job)
        assert after != before
        assert after == _inline_key(engine, job)

    def test_reregistered_policy_changes_the_key(self):
        engine = SweepEngine()
        job = SweepJob("gcc", "ir", 1000, SEED)
        before = engine.key_for(job)
        original = policy_registry.get("ir")
        policy_registry.register(dataclasses.replace(
            original, selector="width_aware"), replace=True)
        try:
            after = engine.key_for(job)
            assert after != before
            assert after == _inline_key(engine, job)
        finally:
            policy_registry.register(original, replace=True)
        assert engine.key_for(job) == before

    def test_equal_valued_configs_keep_their_own_text(self):
        # 12 == 12.0, but the two serialise differently, so a memo keyed
        # by value would hand the second object the first one's text.
        engine = SweepEngine()
        jobs = [SweepJob("gcc", "ir", 1000, SEED,
                         power=PowerConfig(alu_access=value))
                for value in (12, 12.0, 12)]
        assert jobs[0].power == jobs[1].power
        keys = [engine.key_for(job) for job in jobs]
        assert keys == [_inline_key(engine, job) for job in jobs]
        assert keys[0] != keys[1] and keys[0] == keys[2]

    def test_memo_stays_bounded_under_adhoc_policies(self, monkeypatch):
        # An ad-hoc combo resolves to a fresh spec for every job.
        monkeypatch.setattr(engine_mod, "_KEY_TEXT_LIMIT", 4)
        engine = SweepEngine()
        jobs = [SweepJob("gcc", "n888+cr", 1000, seed) for seed in range(10)]
        for job in jobs:
            assert engine.key_for(job) == _inline_key(engine, job)
            assert len(engine._key_texts) <= 4

    def test_keys_equal_in_a_fresh_process(self):
        jobs = _mixed_batch()
        engine = SweepEngine(config=topology_config(helper_topology()))
        keys = [engine.key_for(job) for job in jobs]
        child = (
            "import pickle, sys\n"
            "from repro.core.config import helper_topology, topology_config\n"
            "from repro.sim.engine import SweepEngine\n"
            "jobs = pickle.load(sys.stdin.buffer)\n"
            "engine = SweepEngine(config=topology_config(helper_topology()))\n"
            "print(' '.join(engine.key_for(job) for job in jobs))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", child],
                              input=pickle.dumps(jobs), capture_output=True,
                              env=env, check=True)
        assert proc.stdout.decode().split() == keys


# ---------------------------------------------------------------------------
# engine lifecycle: the private trace-store directory must never leak
# ---------------------------------------------------------------------------
class TestEngineLifecycle:
    def test_close_removes_the_private_trace_dir(self):
        engine = SweepEngine(config=topology_config(helper_topology()))
        store_dir = engine.trace_store.store_dir
        assert store_dir.is_dir()
        engine.close()
        assert not store_dir.exists()

    def test_close_is_idempotent(self):
        engine = SweepEngine(config=topology_config(helper_topology()))
        engine.close()
        engine.close()  # must not raise on the already-removed directory

    def test_context_manager_cleans_up(self):
        with SweepEngine(config=topology_config(helper_topology())) as engine:
            store_dir = engine.trace_store.store_dir
            engine.run_jobs([SweepJob("gcc", "ir", 400, SEED)])
            assert store_dir.is_dir()
        assert not store_dir.exists()

    def test_context_manager_cleans_up_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with SweepEngine(config=topology_config(helper_topology())) as engine:
                store_dir = engine.trace_store.store_dir
                raise RuntimeError("boom")
        assert not store_dir.exists()

    def test_caller_supplied_dir_is_preserved(self, tmp_path):
        store_dir = tmp_path / "traces"
        store_dir.mkdir()
        with SweepEngine(config=topology_config(helper_topology()),
                         trace_store_dir=str(store_dir)) as engine:
            engine.run_jobs([SweepJob("gcc", "ir", 400, SEED)])
        assert store_dir.is_dir(), "the caller owns an explicit directory"

    def test_garbage_collected_engine_removes_its_dir(self):
        import gc

        engine = SweepEngine(config=topology_config(helper_topology()))
        store_dir = engine.trace_store.store_dir
        del engine
        gc.collect()
        assert not store_dir.exists()
