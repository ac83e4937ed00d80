"""Figure 14: helper-cluster performance across the Table 2 workload suite.

The paper's final study runs the best-performing steering configuration over
412 production traces in seven categories and reports (a) the per-category
mean performance increase — with regular-control-flow, arithmetic-rich
categories (kernels, multimedia, SPEC FP, encode) benefiting more than office
and productivity — and (b) the S-curve of per-application speedups, averaging
11% across the suite.

By default this benchmark samples ``REPRO_BENCH_APPS_PER_CATEGORY`` (4)
applications per category to stay CI-sized; set the variable to 0 to run the
full 409-trace suite of Table 2.
"""

from repro.core.config import helper_topology, topology_config
from repro.core.steering import make_policy
from repro.sim.baseline import simulate_baseline
from repro.sim.metrics import speedup
from repro.sim.reporting import format_table
from repro.sim.simulator import simulate
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import WORKLOAD_CATEGORIES, build_workload_suite

from _bench_utils import APPS_PER_CATEGORY, BENCH_SEED, BENCH_UOPS, mean, write_result

#: Policy used for the final study: the best-performing (IR) configuration.
FINAL_POLICY = "ir_nodest"

#: Trace length per application (the paper uses 10M instructions here, a
#: tenth of the SPEC study's length; we scale the same way).
APP_UOPS = max(1000, BENCH_UOPS // 2)


def test_fig14_workload_categories(benchmark):
    apps = build_workload_suite(
        apps_per_category=None if APPS_PER_CATEGORY == 0 else APPS_PER_CATEGORY,
        base_seed=BENCH_SEED)

    def run_suite():
        per_app = []
        for app in apps:
            trace = generate_trace(app.profile, APP_UOPS, seed=app.seed)
            base = simulate_baseline(trace)
            helper = simulate(trace, config=topology_config(helper_topology()),
                              policy=make_policy(FINAL_POLICY))
            per_app.append((app, speedup(base, helper)))
        return per_app

    per_app = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    by_category = {}
    for app, gain in per_app:
        by_category.setdefault(app.category, []).append(gain)
    rows = [[key, WORKLOAD_CATEGORIES[key].description, len(gains),
             mean(gains) * 100.0]
            for key, gains in by_category.items()]
    overall = mean(gain for _, gain in per_app)
    rows.append(["ALL", "suite average", len(per_app), overall * 100.0])
    text = format_table(
        ["category", "description", "#apps simulated", "mean performance increase %"],
        rows, title=f"Figure 14 - workload-category performance ({FINAL_POLICY})",
        float_format="{:.2f}")

    # The S-curve: per-app speedups sorted ascending (relative to baseline=1).
    curve = sorted(1.0 + gain for _, gain in per_app)
    curve_rows = [[i + 1, value] for i, value in enumerate(curve)]
    text += "\n\n" + format_table(
        ["application rank", "performance (baseline = 1)"], curve_rows,
        title="Figure 14 (bottom) - per-application S-curve",
        float_format="{:.3f}")
    write_result("fig14_workload_categories", text)

    # Shape checks: the helper cluster helps on average across the suite, and
    # the arithmetic/regular categories benefit at least as much as office /
    # productivity, as the paper observes.
    assert overall > 0.0
    regular = mean(mean(by_category[k]) for k in ("kernels", "mm", "enc")
                   if k in by_category)
    irregular = mean(mean(by_category[k]) for k in ("office", "prod")
                     if k in by_category)
    assert regular >= irregular - 0.02
    # The S-curve spans a range of behaviours (not every app benefits equally).
    assert curve[-1] > curve[0]
