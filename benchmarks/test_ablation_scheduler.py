"""Ablation: scheduler (issue queue) size and issue width sensitivity.

§2.2 notes that if the critical path were in structures other than the ALU
and bypass, the helper cluster could run with a reduced issue queue size and
issue width, and that experiments showed negligible performance impact.  This
ablation reproduces that experiment: the +CR configuration is run with the
Table 1 scheduler (32 entries, 3-issue) and with reduced schedulers.
"""

from repro.core.config import helper_topology, topology_config
from repro.core.steering import make_policy
from repro.sim.metrics import speedup
from repro.sim.reporting import format_table
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile

from _bench_utils import mean, write_result

BENCHMARKS = ["gcc", "gzip"]
POLICY = "n888_br_lr_cr"
VARIANTS = {
    "32 entries / 3 issue (Table 1)": dict(queue_size=32, issue_width=3),
    "24 entries / 3 issue": dict(queue_size=24, issue_width=3),
    "16 entries / 2 issue": dict(queue_size=16, issue_width=2),
}


def test_ablation_scheduler(benchmark, runner):
    def sweep():
        out = {}
        for label, params in VARIANTS.items():
            config = topology_config(helper_topology()).with_scheduler(**params)
            gains = []
            for name in BENCHMARKS:
                profile = get_profile(name)
                trace = runner.trace_for(profile)
                base = runner.baseline_for(profile)
                result = simulate(trace, config=config, policy=make_policy(POLICY))
                gains.append(speedup(base, result))
            out[label] = mean(gains)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[label, gain * 100.0] for label, gain in results.items()]
    text = format_table(["scheduler configuration", "mean speedup %"], rows,
                        title="Ablation - scheduler size / issue width (§2.2)",
                        float_format="{:.2f}")
    write_result("ablation_scheduler", text)

    # §2.2's claim: moderately reducing the scheduler has limited impact on
    # the helper cluster's benefit (within a few points of the full design).
    full = results["32 entries / 3 issue (Table 1)"]
    reduced = results["24 entries / 3 issue"]
    assert abs(full - reduced) < 0.08
