"""One campaign of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per campaign, so no process-wide memo
(the engine's trace memo, the result-cache memo, uop facts cached on shared
``Trace`` objects) survives from one campaign into the next.  A campaign is
one closed-loop client: it submits the workload's whole batch through the
public ``ExperimentRunner`` API, the way ``repro ladder|sweep|explore`` do,
waits for it, and then closes the engine.

It writes one JSON record to ``--out``: the host times it measured, the
result digests of every job, the correctness verdict of every job and, when
traced, the per-layer metrics.  All of its state (result cache, trace store,
checkpoint, quarantine ledger, spans) lives under ``--state``.

``--plan SEED`` instead picks the job-set seeds of a run (see ``plan``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

from repro.core.config import baseline_config
from repro.core.steering import make_policy, policy_registry
from repro.sim import reporting
from repro.sim.cache import SIMULATOR_VERSION
from repro.sim.experiment import ExperimentRunner, mixed_topology_point
from repro.sim.metrics import ed2_improvement, speedup
from repro.sim.simulator import simulate
from repro.trace.profiles import SPEC_INT_2000, SPEC_INT_NAMES
from repro.trace.synthetic import generate_trace
from repro.trace.workloads import build_workload_suite

try:
    from repro.fuzz.invariants import check_result_invariants
except ImportError:  # a tree older than the invariant checker
    check_result_invariants = None
try:
    from repro.sim.hotstate import detected_backend
except ImportError:  # a tree older than the compiled core: python only
    def detected_backend() -> str:
        return "python"

#: ladder_cold: every other SPEC Int 2000 profile, each trace shared by the
#: baseline, the 7-policy ladder and ``ir_wa`` on the mixed machine (the
#: 9-way fan-out per trace that makes the simulator's per-uop path dominate).
LADDER_BENCHMARKS = SPEC_INT_NAMES[::2]
LADDER_UOPS = 1000
MIXED_SHAPES = [(8, 2), (16, 1)]
#: suite_fresh: the Table-2 suite, sampled evenly over its 7 categories;
#: every trace is distinct and simulated twice (baseline, ``ir``).
SUITE_APPS_PER_CATEGORY = 2
SUITE_UOPS = 2000
SUITE_POLICY = "ir"
SUITE_JOBS = 2
#: resweep_warm: rounds per campaign, each a fresh runner over a fresh copy
#: of the warm state (one round reads the cache in a few tens of ms).
WARM_ROUNDS = 40

#: Generation stops at a loop boundary and trip counts are exponential, so
#: a trace can be many times longer than asked for, and a job set's total
#: swings by 2x from seed to seed.  The seed therefore picks the first
#: derived seed ``1000 * seed + k`` whose distinct traces total the job
#: set's stated size within the tolerance (the medians over seeds 1-40).
JOB_SET_UOPS = {"ladder": 8600, "suite": 48800}
JOB_SET_TOLERANCE = 0.04
PLAN_CANDIDATES = 1000

#: Scalar result fields every tree of this repository has; the digest over
#: them compares results across trees whose result records grew new fields.
CORE_FIELDS = ("committed_uops", "slow_cycles", "fast_cycles", "helper_uops",
               "split_uops", "copies", "prefetched_copies", "replicated_loads",
               "recoveries", "squashed_uops", "energy")


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def full_digest(result) -> str:
    return _digest(dataclasses.asdict(result))


def core_digest(result) -> str:
    return _digest([getattr(result, name) for name in CORE_FIELDS])


# ------------------------------------------------------------------ job sets
def ladder_traces(seed: int) -> list:
    """(profile, length, trace seed) of the ladder's distinct traces."""
    return [(SPEC_INT_2000[name], LADDER_UOPS, seed)
            for name in LADDER_BENCHMARKS]


def suite_apps(seed: int, per_category: int = SUITE_APPS_PER_CATEGORY) -> list:
    return build_workload_suite(apps_per_category=per_category, base_seed=seed)


def suite_traces(seed: int, per_category: int = SUITE_APPS_PER_CATEGORY) -> list:
    return [(app.profile, SUITE_UOPS, app.seed)
            for app in suite_apps(seed, per_category)]


def plan(job_set: str, seed: int) -> int:
    """The first derived seed whose traces total the job set's size."""
    traces = ladder_traces if job_set == "ladder" else suite_traces
    target = JOB_SET_UOPS[job_set]
    for k in range(PLAN_CANDIDATES):
        candidate = 1000 * seed + k
        total = sum(len(generate_trace(profile, length, seed=trace_seed))
                    for profile, length, trace_seed in traces(candidate))
        if abs(total - target) <= JOB_SET_TOLERANCE * target:
            return candidate
    raise SystemExit(f"no {job_set} seed derived from {seed} totals "
                     f"{target} uops within {JOB_SET_TOLERANCE:.0%}")


def run_ladder(runner, seed: int, results: dict):
    """The policy ladder plus ``ir_wa`` on ``mix_8x2_16x1``."""
    profiles = [SPEC_INT_2000[name] for name in LADDER_BENCHMARKS]
    ladder = policy_registry.ladder_names(include_baseline=False)
    runner.seed = seed
    runner.trace_uops = LADDER_UOPS
    sweep = runner.run_suite(profiles, ladder)
    point = mixed_topology_point(MIXED_SHAPES)
    topo = runner.run_topology_grid([point], profiles, policy="ir_wa")
    source = {profile.name: (profile, LADDER_UOPS, seed) for profile in profiles}
    for name, bench in sweep.results.items():
        results[f"{name}:baseline"] = (bench.baseline, baseline_config(),
                                       source[name])
        for policy, result in bench.by_policy.items():
            results[f"{name}:{policy}"] = (result, runner.config, source[name])
    for (point_name, name), result in topo.results.items():
        results[f"{name}:ir_wa@{point_name}"] = (result, point.config,
                                                 source[name])
    return sweep, topo


def ladder_tokens() -> list:
    ladder = policy_registry.ladder_names(include_baseline=False)
    point = mixed_topology_point(MIXED_SHAPES).name
    return [f"{name}:{policy}" for name in LADDER_BENCHMARKS
            for policy in ["baseline", *ladder, f"ir_wa@{point}"]]


def run_suite(runner, seed: int, results: dict):
    """The Table-2 suite sample, baseline and ``ir`` per app."""
    runner.trace_uops = SUITE_UOPS
    sweep = runner.run_workload_suite(
        policy=SUITE_POLICY, apps_per_category=SUITE_APPS_PER_CATEGORY,
        base_seed=seed)
    source = {app.name: (app.profile, SUITE_UOPS, app.seed)
              for app in sweep.apps}
    for name, result in sweep.baselines.items():
        results[f"{name}:baseline"] = (result, baseline_config(), source[name])
    for name, result in sweep.by_app.items():
        results[f"{name}:{SUITE_POLICY}"] = (result, runner.config,
                                             source[name])
    return sweep


def suite_tokens(seed: int) -> list:
    return [f"{app.name}:{policy}" for app in suite_apps(seed)
            for policy in ("baseline", SUITE_POLICY)]


def run_round(workload: str, runner, seeds: dict, results: dict, tracer):
    """One pass of the workload's batch; (expected tokens, rendered text)."""
    if workload == "ladder_cold":
        run_ladder(runner, seeds["ladder"], results)
        return ladder_tokens(), None
    if workload == "suite_fresh":
        run_suite(runner, seeds["suite"], results)
        return suite_tokens(seeds["suite"]), None
    ladder_sweep, topo = run_ladder(runner, seeds["ladder"], results)
    suite_sweep = run_suite(runner, seeds["suite"], results)
    if tracer is None:
        text = render(ladder_sweep, topo, suite_sweep)
    else:
        with tracer.span("reporting.render"):
            text = render(ladder_sweep, topo, suite_sweep)
    return ladder_tokens() + suite_tokens(seeds["suite"]), text


def render(ladder_sweep, topo, suite_sweep) -> str:
    """The ladder summary, policy tables, CSV and suite/topology tables."""
    parts = [reporting.format_ladder_summary(ladder_sweep)]
    parts += [reporting.format_policy_table(ladder_sweep, policy)
              for policy in ladder_sweep.policies]
    parts.append(reporting.sweep_to_csv(ladder_sweep))
    parts.append(reporting.format_topology_table(topo))
    parts.append(reporting.format_workload_summary(suite_sweep))
    return "\n".join(parts)


# ---------------------------------------------------------------- sim counts
def sim_counts(results: dict) -> dict:
    """The modelled (simulated-time) counts of a campaign's results."""
    values = [entry[0] for entry in results.values()]
    committed = sum(result.committed_uops for result in values)
    helper = [result.helper_fraction for result in values
              if result.policy != "baseline"]

    def paired(suffix: str, measure) -> float:
        gains = []
        for token, (result, *_rest) in results.items():
            if token.endswith(":" + suffix):
                base = results.get(token.rsplit(":", 1)[0] + ":baseline")
                if base is not None:
                    gains.append(measure(base[0], result))
        return statistics.fmean(gains) if gains else 0.0

    def ed2(base, result) -> float:
        return (ed2_improvement(base, result)
                if base.ed2 > 0 and result.ed2 > 0 else 0.0)

    point = mixed_topology_point(MIXED_SHAPES).name
    return {
        "sim.committed_uops": committed,
        "sim.fast_cycles": sum(result.fast_cycles for result in values),
        "sim.ipc_mean": statistics.fmean(r.ipc for r in values) if values else 0.0,
        "sim.helper_frac": statistics.fmean(helper) if helper else 0.0,
        "sim.copies_per_kuop": (1000.0 * sum(r.copies for r in values)
                                / committed if committed else 0.0),
        "sim.recoveries_per_kuop": (1000.0 * sum(r.recoveries for r in values)
                                    / committed if committed else 0.0),
        "sim.ir_speedup_mean": paired("ir", speedup),
        "sim.ir_wa_speedup_mean": paired(f"ir_wa@{point}", speedup),
        "sim.ed2_gain_mean": paired("ir", ed2),
    }


# ------------------------------------------------------------- isa layer
#: Derived facts the simulator reads off each uop: properties, then the
#: width and carry-resolution oracles called per narrow width.
UOP_PROPERTIES = ("info", "op_class", "has_dest", "writes_flags",
                  "reads_flags", "is_memory", "is_load", "is_store",
                  "is_branch", "is_cond_branch", "is_fp", "is_copy",
                  "latency", "effective_producers")
UOP_ORACLES = ("all_sources_narrow", "result_is_narrow", "cr_carry_crosses",
               "cr_operated_narrow", "is_fully_narrow")
ORACLE_WIDTHS = (8, 16)


def decode_pass(trace) -> tuple:
    """Touch every derived fact of every uop once; (seconds, facts/uop).

    A fact the uop record no longer has drops out of the pass, and the
    facts-per-uop count shows it.
    """
    first = trace.uops[0]
    properties = [name for name in UOP_PROPERTIES if hasattr(first, name)]
    oracles = [name for name in UOP_ORACLES if hasattr(first, name)]
    start = time.perf_counter()
    for uop in trace.uops:
        for name in properties:
            getattr(uop, name)
        for name in oracles:
            oracle = getattr(uop, name)
            for width in ORACLE_WIDTHS:
                oracle(width)
    seconds = time.perf_counter() - start
    return seconds, len(properties) + len(oracles) * len(ORACLE_WIDTHS)


def isa_metrics(workload: str, seeds: dict, runner) -> dict:
    """Decode cost and the first-simulate penalty on fresh traces.

    Each distinct trace of the workload (of the suite, the first app of
    each category) is generated twice outside any timed region: one copy
    gets the decode pass, the other is simulated twice (first touch, then
    repeat) under the workload's helper policy.
    """
    if workload == "ladder_cold":
        traces, policy = ladder_traces(seeds["ladder"]), "ir"
    else:
        traces, policy = suite_traces(seeds["suite"], 1), SUITE_POLICY
    decode_s = first_s = repeat_s = 0.0
    uops = facts = 0
    for profile, length, trace_seed in traces:
        fresh = generate_trace(profile, length, seed=trace_seed)
        seconds, facts = decode_pass(fresh)
        decode_s += seconds
        uops += len(fresh)
        trace = generate_trace(profile, length, seed=trace_seed)
        for attempt in range(2):
            start = time.perf_counter()
            simulate(trace, config=runner.config, policy=make_policy(policy),
                     power=runner.power)
            elapsed = time.perf_counter() - start
            if attempt == 0:
                first_s += elapsed
            else:
                repeat_s += elapsed
    return {"isa.decode.s": decode_s,
            "isa.decode.ns_per_uop": decode_s * 1e9 / uops,
            "isa.decode.facts": facts,
            "sim.fresh_trace_penalty": first_s / repeat_s - 1.0}


ISA_ZERO = {"isa.decode.s": 0.0, "isa.decode.ns_per_uop": 0.0,
            "isa.decode.facts": 0, "sim.fresh_trace_penalty": 0.0}


def copy_state(source: str, target: str) -> None:
    """A private copy of warm campaign state.

    Result and trace entries are content-addressed and only ever replaced by
    rename, never written in place, so they are hard-linked; the checkpoint
    and ledgers, which are appended or rewritten in place, are copied.
    """
    def link_or_copy(src: str, dst: str) -> None:
        if src.endswith((".res", ".trace")):
            os.link(src, dst)
        else:
            shutil.copy2(src, dst)

    shutil.copytree(source, target, copy_function=link_or_copy)


# ------------------------------------------------------------------- checks
def trace_lengths(runner, results: dict, reference: dict) -> dict:
    """token -> length of the trace its result ran on.

    A cold campaign takes its traces from the engine's memo; a warm one,
    which never touches a trace, takes the lengths its cold reference
    recorded.
    """
    from repro.sim.engine import SweepJob, trace_for_job

    lengths = {}
    for token, (_result, _config, (profile, uops, seed)) in results.items():
        if "trace_uops" in reference.get(token, {}):
            lengths[token] = reference[token]["trace_uops"]
        else:
            job = SweepJob(profile.name, "baseline", uops, seed)
            lengths[token] = len(trace_for_job(job, profile,
                                               runner.engine.trace_store))
    return lengths


def check(results: dict, lengths: dict, expected_tokens: list,
          reference: dict) -> dict:
    """Per-token verdicts: missing, invariant violations, reference mismatch.

    Every result must commit exactly its trace.
    """
    failures = {}
    for token in expected_tokens:
        if token not in results:
            failures[token] = "no result (quarantined or dropped)"
    for token, (result, config, _source) in results.items():
        problems = []
        if check_result_invariants is not None:
            problems += check_result_invariants(result, config,
                                                lengths[token])
        elif not reference:
            problems.append("this tree has no invariant checker and no "
                            "reference results were given")
        if token in reference:
            want = reference[token]
            if "full" in want and want["full"] != full_digest(result):
                problems.append("result differs from the cold result")
            if want["core"] != core_digest(result):
                problems.append("simulated counts differ from the reference")
        if problems:
            failures[token] = "; ".join(problems)
    return failures


# --------------------------------------------------------------------- main
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("ladder_cold", "suite_fresh", "resweep_warm"))
    parser.add_argument("--out", required=True, help="campaign record (JSON)")
    parser.add_argument("--plan", type=int, metavar="SEED",
                        help="write the job-set seeds derived from SEED")
    parser.add_argument("--ladder-seed", type=int)
    parser.add_argument("--suite-seed", type=int)
    parser.add_argument("--state", help="directory of all campaign state")
    parser.add_argument("--trace", action="store_true",
                        help="record spans and report per-layer metrics")
    parser.add_argument("--save-results",
                        help="write {token: digests} of this campaign here")
    parser.add_argument("--reference",
                        help="digests every result must equal (JSON)")
    parser.add_argument("--pristine",
                        help="resweep_warm: warm state each round copies")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the runner is constructed")
    args = parser.parse_args()

    if args.plan is not None:
        job_sets = {"ladder_cold": ("ladder",), "suite_fresh": ("suite",),
                    "resweep_warm": ("ladder", "suite")}[args.workload]
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({name: plan(name, args.plan) for name in job_sets},
                      handle)
        return 0
    seeds = {"ladder": args.ladder_seed, "suite": args.suite_seed}

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer(os.path.join(args.state, "spans"))
        install(tracer)
    warm = args.workload == "resweep_warm"
    rounds = WARM_ROUNDS if warm else 1
    runner = None
    prepared = 0.0
    wall = 0.0
    uops = 0
    counts = dict.fromkeys(("computed", "cache_hits", "retries", "quarantined"), 0)
    failures: dict = {}
    reference = {}
    if args.reference:
        with open(args.reference, encoding="utf-8") as handle:
            reference = json.load(handle)
    for index in range(rounds):
        state = args.state
        if warm:
            started = time.monotonic()
            state = os.path.join(args.state, f"round-{index}")
            copy_state(args.pristine, state)
            # Nothing of the previous round may stay alive into this one.
            runner = results = None
            gc.collect()
            if index == 0:
                # Harness work, not the user's set-up.
                prepared = time.monotonic() - started
        runner = ExperimentRunner(
            jobs=SUITE_JOBS if args.workload == "suite_fresh" else 1,
            cache_dir=os.path.join(state, "cache"))
        if index == 0:
            constructed = time.monotonic()
            if args.setup_only:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump({"constructed": constructed,
                               "prepared": prepared}, handle)
                return 0
        results = {}
        start = time.perf_counter()
        expected, text = run_round(args.workload, runner, seeds, results,
                                   tracer)
        runner.engine.close()
        wall += time.perf_counter() - start
        uops += sum(entry[0].committed_uops for entry in results.values())
        report = getattr(runner, "report", None)
        if report is not None:
            counts["computed"] += report.computed
            counts["cache_hits"] += report.cache_hits
            counts["retries"] += report.retries
            counts["quarantined"] += len(report.quarantined)
        lengths = trace_lengths(runner, results, reference)
        round_failures = check(results, lengths, expected, reference)
        digests = {token: {"full": full_digest(entry[0]),
                           "core": core_digest(entry[0]),
                           "trace_uops": lengths[token]}
                   for token, entry in results.items()}
        if text is not None:
            digests["report:render"] = {"full": _digest(text), "core": ""}
        if index == 0:
            first_digests = digests
            sim = sim_counts(results)
        else:
            round_failures.update(
                (token, "differs from the campaign's first round")
                for token, digest in first_digests.items()
                if digests.get(token) != digest)
        failures.update((f"round {index}: {token}" if warm else token, message)
                        for token, message in round_failures.items())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = tracer.all_spans() if tracer is not None else []
    if args.save_results:
        with open(args.save_results, "w", encoding="utf-8") as handle:
            json.dump({token: digest for token, digest in first_digests.items()
                       if token != "report:render"}, handle)

    record = {
        "constructed": constructed,
        "prepared": prepared,
        "wall_s": wall,
        "uops": uops,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "attempted": rounds * len(expected),
        "failures": failures,
        "digests": first_digests,
        "sim": sim,
        "manifest": {"simulator_version": SIMULATOR_VERSION,
                     "backend": detected_backend(),
                     "repro": os.path.dirname(
                         sys.modules["repro"].__file__)},
    }
    if tracer is not None:
        from tracing import layer_metrics

        layers = layer_metrics(spans)
        layers.update({f"engine.{name}": value
                       for name, value in counts.items()})
        # Every job is accounted for by a span: simulated, or served.
        served = sum(1 for span in spans
                     if span["name"] == "cache.load" and span["hit"])
        if (layers["sim.simulate.calls"] != counts["computed"]
                or served != counts["cache_hits"]):
            failures["trace: spans"] = (
                f"{layers['sim.simulate.calls']} sim.simulate spans for "
                f"{counts['computed']} computed jobs, {served} cache.load "
                f"hits for {counts['cache_hits']} cache hits")
        layers.update(ISA_ZERO if warm
                      else isa_metrics(args.workload, seeds, runner))
        record["layers"] = layers
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
