"""Shared fixtures for the benchmark harness.

Every figure/table benchmark draws from a single session-scoped policy-ladder
sweep over the 12 SPEC Int 2000 profiles, executed through the parallel sweep
engine (:mod:`repro.sim.engine`), so each (benchmark, policy) pair is
simulated exactly once per session — or not at all when a result cache is
configured and warm.

Environment knobs:

* ``REPRO_BENCH_UOPS`` — trace length per benchmark (default 5000 uops; the
  paper uses 100M-instruction traces, see DESIGN.md for the scaling note).
* ``REPRO_BENCH_SEED`` — generator seed (default 2006).
* ``REPRO_BENCH_JOBS`` — engine worker processes for the ladder sweep
  (default 1 = serial; 0 = one per CPU).  Serial and parallel runs produce
  bit-identical results.
* ``REPRO_BENCH_CACHE_DIR`` — directory for the on-disk result cache
  (default unset = no cache, every result recomputed).
* ``REPRO_BENCH_APPS_PER_CATEGORY`` — applications sampled per Table 2
  category for the Figure 14 benchmark (default 4; 0 = the full 409-app
  suite).

* ``REPRO_BENCH_WRITE=1`` — let the throughput and energy-overhead
  benchmarks rewrite ``benchmarks/results/BENCH_sim.json`` and
  ``BENCH_energy.json`` (default unset: they measure and assert only).

Each benchmark writes the series it regenerates to
``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import pytest

from repro.sim.experiment import ExperimentRunner, PolicySweepResult
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES

from _bench_utils import BENCH_CACHE_DIR, BENCH_JOBS, BENCH_SEED, BENCH_UOPS, LADDER


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """Shared engine-backed experiment runner (caches traces and baselines)."""
    return ExperimentRunner(trace_uops=BENCH_UOPS, seed=BENCH_SEED,
                            jobs=BENCH_JOBS, cache_dir=BENCH_CACHE_DIR)


@pytest.fixture(scope="session")
def ladder_sweep(runner) -> PolicySweepResult:
    """The full policy ladder over the 12 SPEC Int 2000 profiles."""
    profiles = [SPEC_INT_2000[name] for name in SPEC_INT_NAMES]
    return runner.run_suite(profiles, LADDER)


@pytest.fixture(scope="session")
def spec_traces(runner):
    """The 12 SPEC Int traces used by the characterisation figures."""
    return {name: runner.trace_for(SPEC_INT_2000[name]) for name in SPEC_INT_NAMES}
