"""Figure 5: width prediction accuracy.

Regenerates the per-application breakdown into correct predictions, non-fatal
mispredictions (instruction was in the wide backend — a missed opportunity)
and fatal mispredictions (instruction was steered to the narrow backend and
needs flushing recovery).  The paper reports ~93.5% average accuracy and a
fatal misprediction rate of 0.83% with the confidence estimator (2.11%
without it).
"""

from repro.core.config import helper_topology, topology_config
from repro.core.steering import make_policy
from repro.sim.reporting import format_table
from repro.sim.simulator import simulate
from repro.trace.profiles import SPEC_INT_NAMES

from _bench_utils import mean, write_result


def test_fig05_prediction_accuracy(benchmark, ladder_sweep, spec_traces):
    policy = "n888_br_lr_cr"
    rows = []
    for name in SPEC_INT_NAMES:
        prediction = ladder_sweep.results[name].by_policy[policy].prediction
        rows.append([name, prediction.accuracy * 100.0,
                     prediction.non_fatal_rate * 100.0,
                     prediction.fatal_rate * 100.0])
    avg_acc = mean(r[1] for r in rows)
    avg_fatal = mean(r[3] for r in rows)
    rows.append(["AVG", avg_acc, mean(r[2] for r in rows), avg_fatal])

    # §3.2 ablation: the confidence gate lowers the fatal (recovery-needing)
    # misprediction rate.  Timed as the representative benchmark body.
    trace = spec_traces["parser"]

    def run_without_confidence():
        config = topology_config(helper_topology(), use_confidence=False)
        return simulate(trace, config=config, policy=make_policy("n888"))

    ungated = benchmark.pedantic(run_without_confidence, rounds=1, iterations=1)
    gated = simulate(trace, config=topology_config(helper_topology()),
                     policy=make_policy("n888"))

    rows.append(["parser (no confidence)", ungated.prediction.accuracy * 100.0,
                 ungated.prediction.non_fatal_rate * 100.0,
                 ungated.prediction.fatal_rate * 100.0])
    rows.append(["parser (confidence)", gated.prediction.accuracy * 100.0,
                 gated.prediction.non_fatal_rate * 100.0,
                 gated.prediction.fatal_rate * 100.0])

    text = format_table(
        ["benchmark", "correct %", "non-fatal mispred %", "fatal mispred %"],
        rows, title="Figure 5 - width prediction accuracy (policy: +CR)",
        float_format="{:.2f}")
    write_result("fig05_prediction_accuracy", text)

    # Shape checks: high accuracy, small fatal rate, and the confidence gate
    # reduces the fatal rate (2.11% -> 0.83% in the paper).
    assert avg_acc > 85.0
    assert avg_fatal < 5.0
    assert gated.prediction.fatal_rate <= ungated.prediction.fatal_rate
