"""Ablation: width-predictor table size.

§3.2 states that 256 entries "was found to be a good compromise between
complexity and performance".  This ablation sweeps the table size and reports
prediction accuracy and speedup so the knee of that curve can be inspected.
"""

from repro.core.config import helper_topology, topology_config
from repro.core.steering import make_policy
from repro.sim.metrics import speedup
from repro.sim.reporting import format_table
from repro.sim.simulator import simulate
from repro.trace.profiles import get_profile

from _bench_utils import BENCH_SEED, BENCH_UOPS, mean, write_result

SIZES = [16, 64, 256, 1024]
BENCHMARKS = ["gcc", "gzip", "crafty"]
POLICY = "n888_br_lr_cr"


def test_ablation_predictor_size(benchmark, runner):
    def sweep():
        out = {}
        for size in SIZES:
            config = topology_config(helper_topology(), predictor_entries=size)
            gains, accuracies = [], []
            for name in BENCHMARKS:
                profile = get_profile(name)
                trace = runner.trace_for(profile)
                base = runner.baseline_for(profile)
                result = simulate(trace, config=config, policy=make_policy(POLICY))
                gains.append(speedup(base, result))
                accuracies.append(result.prediction.accuracy)
            out[size] = (mean(gains), mean(accuracies))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [[size, results[size][1] * 100.0, results[size][0] * 100.0]
            for size in SIZES]
    text = format_table(
        ["predictor entries", "prediction accuracy %", "mean speedup %"],
        rows, title="Ablation - width predictor table size (policy: +CR)",
        float_format="{:.2f}")
    write_result("ablation_predictor_size", text)

    # A very small table must not beat the paper's 256-entry design point on
    # prediction accuracy (aliasing destroys per-PC history).
    assert results[256][1] >= results[16][1] - 0.02
    # Growing beyond 256 entries brings little additional accuracy, which is
    # the paper's "good compromise" argument.
    assert results[1024][1] - results[256][1] < 0.08
