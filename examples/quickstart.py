#!/usr/bin/env python3
"""Quickstart: simulate one benchmark on the helper-cluster machine.

Generates a synthetic SPEC Int 2000-style trace, runs it on the monolithic
baseline and on the 8-bit helper-cluster machine under the full data-width
aware steering stack, and prints the headline metrics the paper reports:
speedup, fraction of instructions executed in the helper cluster, copy
percentage and width-prediction accuracy.

Run with::

    python examples/quickstart.py [benchmark] [policy]

e.g. ``python examples/quickstart.py gzip ir_nodest``.
"""

import sys

from repro.core.config import helper_topology, topology_config
from repro.core.steering import POLICY_LADDER, make_policy
from repro.sim.baseline import baseline_pair
from repro.sim.metrics import ed2_improvement
from repro.sim.reporting import format_table
from repro.trace.profiles import SPEC_INT_NAMES, get_profile
from repro.trace.synthetic import generate_trace

TRACE_UOPS = 10_000
SEED = 2006
#: The paper's machine: a wide 32-bit host plus one 8-bit helper at 2x clock.
PAPER_MACHINE = topology_config(helper_topology(narrow_width=8, clock_ratio=2))


def main() -> int:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    policy_name = sys.argv[2] if len(sys.argv) > 2 else "ir_nodest"
    if benchmark not in SPEC_INT_NAMES:
        print(f"unknown benchmark {benchmark!r}; choose from {', '.join(SPEC_INT_NAMES)}")
        return 1
    if policy_name not in POLICY_LADDER:
        print(f"unknown policy {policy_name!r}; choose from {', '.join(POLICY_LADDER)}")
        return 1

    print(f"Generating a {TRACE_UOPS}-uop synthetic trace for {benchmark} ...")
    trace = generate_trace(get_profile(benchmark), TRACE_UOPS, seed=SEED)

    print("Simulating the monolithic baseline and the helper-cluster machine ...")
    base, helper, gain = baseline_pair(trace, make_policy(policy_name),
                                       helper_config=PAPER_MACHINE)

    rows = [
        ["trace uops", len(trace)],
        ["baseline cycles", f"{base.slow_cycles:.0f}"],
        ["helper-cluster cycles", f"{helper.slow_cycles:.0f}"],
        ["baseline IPC", f"{base.ipc:.3f}"],
        ["helper-cluster IPC", f"{helper.ipc:.3f}"],
        ["speedup", f"{gain * 100:+.1f}%"],
        ["instructions in helper cluster", f"{helper.helper_fraction * 100:.1f}%"],
        ["inter-cluster copies", f"{helper.copy_fraction * 100:.1f}%"],
        ["width prediction accuracy", f"{helper.prediction.accuracy * 100:.1f}%"],
        ["fatal mispredictions", f"{helper.prediction.fatal_rate * 100:.2f}%"],
        ["flushing recoveries", helper.recoveries],
        ["energy vs baseline", f"{helper.energy / base.energy * 100:.1f}%"],
        ["ED2 improvement", f"{ed2_improvement(base, helper) * 100:+.1f}%"],
    ]
    print()
    print(format_table(["metric", "value"], rows,
                       title=f"{benchmark} under policy '{policy_name}'"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
