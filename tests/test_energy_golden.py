"""Golden pins for the per-cluster energy model.

Two protection layers, mirroring the timing golden ladder:

* **Legacy equivalence** — on the paper's machines (monolithic baseline and
  the wide + 8-bit@2x pair) the per-cluster evaluation must reproduce the
  original two-cluster model *exactly*, per structure and in total.  That
  model lives here as the oracle (:func:`legacy_evaluate`), fed with
  host / helper-sum aggregates rebuilt from ``result.cluster_activity``:
  the per-cluster refactor changed the bookkeeping, not the physics.
* **ED² pins** — the paper design point's ED² ratio against the monolithic
  baseline is pinned to 6 decimal places for the mini-ladder conditions
  (2500-uop traces, seed 2006).  The simulator and the power model are both
  deterministic, so any drift is a semantic change: update the pins, the
  artefacts, and bump :data:`repro.sim.cache.SIMULATOR_VERSION` if timing
  moved too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.core.config import (
    MachineConfig,
    baseline_config,
    helper_topology,
    topology_config,
)
from repro.core.steering import make_policy
from repro.isa.values import MACHINE_WIDTH
from repro.power.wattch import PowerBreakdown, PowerConfig
from repro.sim.experiment import run_spec_suite
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import simulate


@dataclass
class LegacyActivity:
    """The aggregate counts of the original two-cluster model: host = wide,
    every helper summed = narrow."""

    wide_cycles: int
    fast_cycles: int
    fetched_uops: int
    wide_alu_ops: int
    narrow_alu_ops: int
    wide_agu_ops: int
    narrow_agu_ops: int
    fpu_ops: int
    wide_regfile_accesses: int
    narrow_regfile_accesses: int
    wide_scheduler_ops: int
    narrow_scheduler_ops: int
    rename_ops: int
    rob_ops: int
    dl0_accesses: int
    ul1_accesses: int
    memory_accesses: int
    predictor_accesses: int
    copies: int
    has_helper: bool
    narrow_width: int


def legacy_activity(result: SimulationResult,
                    config: MachineConfig) -> LegacyActivity:
    clusters = list(result.cluster_activity.values())
    host, helpers = clusters[0], clusters[1:]
    shared = result.activity
    return LegacyActivity(
        wide_cycles=host.cycles,
        fast_cycles=shared.fast_cycles,
        fetched_uops=shared.fetched_uops,
        wide_alu_ops=host.alu_ops,
        narrow_alu_ops=sum(c.alu_ops for c in helpers),
        wide_agu_ops=host.agu_ops,
        narrow_agu_ops=sum(c.agu_ops for c in helpers),
        fpu_ops=sum(c.fpu_ops for c in clusters),
        wide_regfile_accesses=host.regfile_accesses,
        narrow_regfile_accesses=sum(c.regfile_accesses for c in helpers),
        wide_scheduler_ops=host.scheduler_ops,
        narrow_scheduler_ops=sum(c.scheduler_ops for c in helpers),
        rename_ops=shared.rename_ops,
        rob_ops=shared.rob_ops,
        dl0_accesses=shared.dl0_accesses,
        ul1_accesses=shared.ul1_accesses,
        memory_accesses=shared.memory_accesses,
        predictor_accesses=shared.predictor_accesses,
        copies=shared.copies,
        has_helper=bool(helpers),
        narrow_width=config.narrow_width,
    )


def legacy_evaluate(activity: LegacyActivity,
                    cfg: PowerConfig = PowerConfig()) -> PowerBreakdown:
    """The original two-cluster evaluation over aggregate counts (oracle)."""
    scale = activity.narrow_width / MACHINE_WIDTH
    breakdown: Dict[str, float] = {}
    breakdown["frontend"] = cfg.frontend_access * activity.fetched_uops
    breakdown["rename"] = cfg.rename_access * activity.rename_ops
    breakdown["rob"] = cfg.rob_access * activity.rob_ops
    breakdown["wide_execute"] = (cfg.alu_access * activity.wide_alu_ops
                                 + cfg.agu_access * activity.wide_agu_ops
                                 + cfg.fpu_access * activity.fpu_ops)
    breakdown["narrow_execute"] = scale * (cfg.alu_access * activity.narrow_alu_ops
                                           + cfg.agu_access * activity.narrow_agu_ops)
    breakdown["wide_regfile"] = cfg.regfile_access * activity.wide_regfile_accesses
    breakdown["narrow_regfile"] = scale * cfg.regfile_access * activity.narrow_regfile_accesses
    breakdown["wide_scheduler"] = cfg.scheduler_access * activity.wide_scheduler_ops
    breakdown["narrow_scheduler"] = scale * cfg.scheduler_access * activity.narrow_scheduler_ops
    breakdown["dl0"] = cfg.dl0_access * activity.dl0_accesses
    breakdown["ul1"] = cfg.ul1_access * activity.ul1_accesses
    breakdown["memory"] = cfg.memory_access * activity.memory_accesses
    breakdown["predictors"] = cfg.predictor_access * activity.predictor_accesses
    breakdown["copies"] = cfg.copy_transfer * activity.copies
    breakdown["wide_clock"] = cfg.wide_clock_per_cycle * activity.wide_cycles
    breakdown["narrow_clock"] = (cfg.narrow_clock_per_cycle * activity.fast_cycles
                                 if activity.has_helper else 0.0)
    return PowerBreakdown(per_structure=breakdown)


#: ED² ratio (ir / baseline) per benchmark at 2500-uop traces, seed 2006 —
#: the paper design point (wide + 8-bit@2x helper, IR policy).
ED2_RATIO_PINS = {
    "gcc": 0.869397,
    "bzip2": 0.779485,
    "parser": 0.727825,
}

#: Mean ED² improvement of the same mini sweep (fraction, 6 decimals).
MEAN_ED2_GAIN_PIN = 0.207764


@pytest.fixture(scope="module")
def mini_energy_sweep():
    return run_spec_suite(["ir"], trace_uops=2500, seed=2006,
                          benchmarks=list(ED2_RATIO_PINS))


class TestLegacyEquivalence:
    """Per-cluster evaluation == original two-cluster model on the paper pair."""

    CONFIGS = {"baseline": baseline_config(),
               "pair": topology_config(helper_topology())}

    @pytest.fixture(scope="class")
    def runs(self, gcc_trace_small):
        return {
            "baseline": simulate(gcc_trace_small, config=self.CONFIGS["baseline"],
                                 policy=make_policy("baseline")),
            "pair": simulate(gcc_trace_small, config=self.CONFIGS["pair"],
                             policy=make_policy("ir")),
        }

    def legacy(self, runs, label) -> Dict[str, float]:
        activity = legacy_activity(runs[label], self.CONFIGS[label])
        return legacy_evaluate(activity).per_structure

    @pytest.mark.parametrize("label", ["baseline", "pair"])
    def test_total_energy_matches_legacy_model_exactly(self, runs, label):
        result = runs[label]
        assert result.energy == sum(self.legacy(runs, label).values())

    def test_structure_mapping_exact(self, runs):
        for label, result in runs.items():
            legacy = self.legacy(runs, label)
            for cluster in ("wide", "narrow"):
                per_structure = (result.power[cluster].per_structure
                                 if cluster in result.power else {})
                for structure in ("execute", "regfile", "scheduler", "clock"):
                    assert per_structure.get(structure, 0.0) == \
                        legacy[f"{cluster}_{structure}"], (label, structure)
            shared = result.shared_power.per_structure
            for key in ("frontend", "rename", "rob", "dl0", "ul1", "memory",
                        "predictors", "copies"):
                assert shared[key] == legacy[key], (label, key)

    def test_baseline_has_no_helper_cluster_energy(self, runs):
        result = runs["baseline"]
        assert set(result.power) == {"wide"}
        assert set(result.cluster_activity) == {"wide"}


class TestEnergyGoldenPins:
    def test_ed2_ratio_pinned(self, mini_energy_sweep):
        for benchmark, expected in ED2_RATIO_PINS.items():
            bench = mini_energy_sweep.results[benchmark]
            ratio = bench.by_policy["ir"].ed2 / bench.baseline.ed2
            assert ratio == pytest.approx(expected, abs=5e-7), (
                f"{benchmark} ED2 ratio drifted: {ratio:.6f} != {expected:.6f} "
                f"— if intentional, update the pin (and bump "
                f"SIMULATOR_VERSION if timing moved)")

    def test_mean_ed2_gain_pinned(self, mini_energy_sweep):
        gain = mini_energy_sweep.mean_ed2_improvement("ir")
        assert gain == pytest.approx(MEAN_ED2_GAIN_PIN, abs=5e-7)

    def test_gain_direction_matches_paper(self, mini_energy_sweep):
        """The helper design point is more ED²-efficient than the baseline
        (the paper's +5.1% headline claim, at synthetic-trace scale)."""
        assert mini_energy_sweep.mean_ed2_improvement("ir") > 0

    def test_parallel_engine_matches_serial_energy(self, mini_energy_sweep):
        parallel = run_spec_suite(["ir"], trace_uops=2500, seed=2006,
                                  benchmarks=list(ED2_RATIO_PINS), jobs=2,
                                  allow_oversubscribe=True)
        for benchmark in ED2_RATIO_PINS:
            serial_result = mini_energy_sweep.results[benchmark].by_policy["ir"]
            parallel_result = parallel.results[benchmark].by_policy["ir"]
            assert parallel_result.energy == serial_result.energy
            assert parallel_result.ed2 == serial_result.ed2
            assert parallel_result.power.keys() == serial_result.power.keys()
