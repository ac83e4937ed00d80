"""Ablations on the helper cluster's design point (§2).

Two sweeps:

* **Narrow width** — §2.1 notes that 8 bits is a conservative choice and that
  a wider narrow cluster would capture more instructions (at higher cost).
  We sweep 4/8/16 bits and report the helper-cluster instruction share and
  speedup.
* **Clock ratio** — §2.2 argues the 8-bit backend can be clocked 2x faster;
  the ratio ablation quantifies how much of the benefit comes from the faster
  clock versus the extra issue capacity (ratio 1 = symmetric second cluster).
"""

from repro.core.config import helper_topology, topology_config
from repro.core.steering import make_policy
from repro.sim.metrics import speedup
from repro.sim.reporting import format_table
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile

from _bench_utils import mean, write_result

BENCHMARKS = ["gcc", "gzip", "bzip2"]
POLICY = "n888_br_lr_cr"
WIDTHS = [4, 8, 16]
RATIOS = [1, 2]


def _run(runner, config):
    gains, helper_fractions = [], []
    for name in BENCHMARKS:
        profile = get_profile(name)
        trace = runner.trace_for(profile)
        base = runner.baseline_for(profile)
        result = simulate(trace, config=config, policy=make_policy(POLICY))
        gains.append(speedup(base, result))
        helper_fractions.append(result.helper_fraction)
    return mean(gains), mean(helper_fractions)


def test_ablation_helper_width(benchmark, runner):
    def sweep():
        return {width: _run(runner, topology_config(helper_topology(narrow_width=width)))
                for width in WIDTHS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[width, results[width][1] * 100.0, results[width][0] * 100.0]
            for width in WIDTHS]
    text = format_table(["narrow width (bits)", "helper instructions %", "mean speedup %"],
                        rows, title="Ablation - helper-cluster datapath width",
                        float_format="{:.2f}")
    write_result("ablation_helper_width", text)

    # §2.1's monotonicity claim: a wider narrow cluster executes at least as
    # many instructions as a narrower one.
    assert results[16][1] >= results[8][1] - 0.02
    assert results[8][1] >= results[4][1] - 0.02


def test_ablation_clock_ratio(benchmark, runner):
    def sweep():
        return {ratio: _run(runner, topology_config(helper_topology(clock_ratio=ratio)))
                for ratio in RATIOS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[ratio, results[ratio][1] * 100.0, results[ratio][0] * 100.0]
            for ratio in RATIOS]
    text = format_table(["helper clock ratio", "helper instructions %", "mean speedup %"],
                        rows, title="Ablation - helper-cluster clock ratio",
                        float_format="{:.2f}")
    write_result("ablation_clock_ratio", text)

    # The 2x-clocked helper backend must not lose to the symmetric (1x) one.
    assert results[2][0] >= results[1][0] - 0.01
