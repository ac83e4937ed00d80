"""repro: reproduction of "Empowering a Helper Cluster through Data-Width
Aware Instruction Selection Policies" (Unsal, Ergin, Vera, González — 2006).

The package implements, in pure Python:

* an IA-32-like micro-op ISA and synthetic trace substrate (:mod:`repro.isa`,
  :mod:`repro.trace`);
* the memory hierarchy and out-of-order pipeline substrates of the paper's
  Pentium-4-like clustered processor (:mod:`repro.memory`,
  :mod:`repro.pipeline`);
* the paper's contribution — an 8-bit helper cluster clocked 2x faster plus
  data-width aware steering policies (8-8-8, BR, LR, CR, CP, IR) — in
  :mod:`repro.core`;
* a Wattch-like power model (:mod:`repro.power`);
* simulation drivers, experiment runners and reporting (:mod:`repro.sim`);
* the workload characterisation analyses of Figures 1, 11 and 13
  (:mod:`repro.analysis`).

Quickstart
----------
>>> from repro import quick_speedup
>>> result = quick_speedup("gcc", policy="ir", trace_uops=5000)
>>> result["speedup"] > 0
True
"""

from __future__ import annotations

from typing import Dict, Optional

__version__ = "1.0.0"

from repro.core.config import (  # noqa: F401
    MachineConfig,
    baseline_config,
    helper_topology,
    topology_config,
)
from repro.core.steering import (  # noqa: F401
    POLICY_LADDER,
    PolicyRegistry,
    PolicySpec,
    make_policy,
    policy_registry,
    policy_spec,
)
from repro.sim.baseline import baseline_pair, simulate_baseline  # noqa: F401
from repro.sim.metrics import SimulationResult, speedup  # noqa: F401
from repro.sim.simulator import HelperClusterSimulator, simulate  # noqa: F401
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES, get_profile  # noqa: F401
from repro.trace.synthetic import generate_trace  # noqa: F401


def quick_speedup(benchmark: str = "gcc", policy: str = "ir",
                  trace_uops: int = 10_000, seed: int = 2006,
                  config: Optional[MachineConfig] = None) -> Dict[str, float]:
    """One-call helper: generate a trace, run baseline + policy, report speedup.

    Returns a dictionary with ``speedup`` (fraction), ``helper_fraction``,
    ``copy_fraction`` and the baseline / helper IPCs.  Intended for the
    quickstart example and interactive exploration; experiments should use
    :class:`repro.sim.experiment.ExperimentRunner`.
    """
    profile = get_profile(benchmark)
    trace = generate_trace(profile, trace_uops, seed=seed)
    base, helper, gain = baseline_pair(trace, policy, helper_config=config)
    return {
        "benchmark": benchmark,
        "policy": policy,
        "speedup": gain,
        "baseline_ipc": base.ipc,
        "helper_ipc": helper.ipc,
        "helper_fraction": helper.helper_fraction,
        "copy_fraction": helper.copy_fraction,
    }
