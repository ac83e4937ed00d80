"""Benchmark of the helper-cluster simulator's sweep campaigns.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ladder_cold --seed 2006 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The script builds the package (with its optional C core) from the
checkout's sources into ``.bench_build/``, then runs campaigns of the
workload, each in a fresh interpreter (``campaign.py``) over state in a
private directory under ``.bench_run/``, until ``--seconds`` are used up
(at least three campaigns).  ``--trace 0`` reports the end-to-end metrics
(medians over campaigns); ``--trace 1`` alternates untraced and traced
campaigns and reports the per-layer metrics of the traced ones.  The last
line of output is one JSON object; the exit code is non-zero when any job's
result failed a correctness check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder_cold", "suite_fresh", "resweep_warm")
MIN_CAMPAIGNS = 3
#: extra set-up samples after each untraced campaign (interpreter start to
#: runner constructed, then exit)
SETUP_PROBES = 2
#: a campaign that runs longer than this is killed (with its workers)
CAMPAIGN_TIMEOUT_S = 150.0
#: no campaign starts that would end a workload's run past this many seconds
RUN_LIMIT_S = 150.0


class CampaignError(RuntimeError):
    pass


# ----------------------------------------------------------------------- build
def source_digest(source: Path) -> str:
    """Content hash of everything the build reads."""
    hasher = hashlib.sha256()
    files = [source / "setup.py"] + sorted(
        path for path in (source / "src").rglob("*")
        if path.is_file() and path.suffix in (".py", ".c", ".h"))
    for path in files:
        hasher.update(str(path.relative_to(source)).encode("utf-8") + b"\0")
        hasher.update(path.read_bytes() + b"\0")
    return hasher.hexdigest()[:16]


def build(source: Path) -> Path:
    """Build ``source`` once into ``.bench_build/<digest>``; the lib dir."""
    target = ROOT / ".bench_build" / source_digest(source)
    lib = target / "lib"
    if (target / "complete").exists():
        return lib
    shutil.rmtree(target, ignore_errors=True)
    work = target / "work"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(work)],
        cwd=source, capture_output=True, text=True)
    built = sorted(work.glob("lib*"))
    if proc.returncode != 0 or not built:
        raise CampaignError(f"build of {source} failed:\n{proc.stderr[-2000:]}")
    built[0].rename(lib)
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(lib)],
                   check=True, capture_output=True)
    (target / "complete").write_text("ok\n", encoding="utf-8")
    return lib


# -------------------------------------------------------------------- manifest
def calibration_rate() -> int:
    """Host speed proxy (ops/s): a fixed pure-python loop, best of three."""
    best = 0.0
    for _ in range(3):
        table: Dict[int, int] = {}
        get = table.get
        accum = 0
        iterations = 300_000
        start = time.perf_counter()
        for i in range(iterations):
            table[i & 1023] = i
            accum += get((i * 7) & 1023, 0) & 1
        best = max(best, iterations / (time.perf_counter() - start))
    return round(best)


def git_sha(source: Path) -> Optional[str]:
    if not (source / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(source), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


# ------------------------------------------------------------------- campaigns
class Bench:
    """One invocation: a private run directory and the build to run."""

    def __init__(self, lib: Path, run_dir: Path) -> None:
        self.lib = lib
        self.run_dir = run_dir
        self.count = 0
        (run_dir / "tmp").mkdir()

    def env(self, lib: Path) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(lib)
        env["TMPDIR"] = str(self.run_dir / "tmp")
        return env

    def _spawn(self, command: List[str], out: Path, lib: Path) -> dict:
        """Run ``campaign.py`` with ``command`` in a fresh interpreter and
        session; the JSON record it wrote to ``out``."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "campaign.py"), *command,
             "--out", str(out)],
            cwd=self.run_dir, env=self.env(lib), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _stdout, stderr = proc.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CampaignError(f"{' '.join(command[:2])} exceeded "
                                f"{CAMPAIGN_TIMEOUT_S:.0f} s")
        finally:
            # Pool workers share the campaign's session; none may outlive it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            raise CampaignError(f"{' '.join(command)} exited "
                                f"{proc.returncode}:\n{stderr[-3000:]}")
        record = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return record

    def plan(self, workload: str, seed: int) -> dict:
        """The job-set seeds the campaigns of ``workload`` run with."""
        return self._spawn(["--workload", workload, "--plan", str(seed)],
                           self.run_dir / "plan.json", self.lib)

    def campaign(self, workload: str, seeds: dict, state: Path,
                 trace: bool = False, reference: Optional[Path] = None,
                 save: Optional[Path] = None, pristine: Optional[Path] = None,
                 lib: Optional[Path] = None, setup_only: bool = False) -> dict:
        """Run one campaign in a fresh interpreter; its record."""
        self.count += 1
        command = ["--workload", workload, "--state", str(state)]
        for job_set, seed in seeds.items():
            command += [f"--{job_set}-seed", str(seed)]
        if trace:
            command.append("--trace")
        if reference is not None:
            command += ["--reference", str(reference)]
        if save is not None:
            command += ["--save-results", str(save)]
        if pristine is not None:
            command += ["--pristine", str(pristine)]
        if setup_only:
            command.append("--setup-only")
        spawned = time.monotonic()
        record = self._spawn(command, self.run_dir / f"campaign-{self.count}.json",
                             lib or self.lib)
        record["setup_s"] = record["constructed"] - record["prepared"] - spawned
        return record


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(records: List[dict], setups: List[float]) -> dict:
    """name -> (q1, value, q3) over campaigns.  ``uops_per_s`` is the run's
    throughput (all uops over all measured host time); its quartiles are
    those of the single campaigns."""
    q1, _median, q3 = quartiles([r["uops"] / r["wall_s"] for r in records])
    throughput = (sum(r["uops"] for r in records)
                  / sum(r["wall_s"] for r in records))
    return {"uops_per_s": (q1, throughput, q3),
            "setup_s": quartiles([r["setup_s"] for r in records] + setups),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in records])}


def failed_tokens(record: dict, first: dict) -> set:
    """Tokens of ``record`` that failed a check or differ from campaign 1."""
    failed = set(record["failures"])
    for token, digest in first["digests"].items():
        if record["digests"].get(token, {}).get("full") != digest["full"]:
            failed.add(token)
    return failed


def measure(bench: Bench, workload: str, seed: int, seconds: float,
            trace: bool, reference_lib: Optional[Path] = None) -> dict:
    """Campaigns of one workload; its metrics and correctness tallies."""
    begun = time.monotonic()
    pristine = None
    tally = {"attempted": 0, "failed": 0, "messages": []}
    seeds = bench.plan(workload, seed)

    def account(record: dict, failed: set) -> None:
        tally["attempted"] += record["attempted"]
        tally["failed"] += len(failed)
        tally["messages"] += [
            f"{token}: "
            + record["failures"].get(token, "differs from the first campaign")
            for token in sorted(failed)]

    #: digests of the results later campaigns must reproduce
    digests_path = bench.run_dir / "digests.json"
    if workload == "resweep_warm":
        # Set-up: one cold campaign of each job set builds the cache and
        # trace store every warm campaign copies, and the cold results
        # every warm result must equal.
        pristine = bench.run_dir / "pristine"
        merged: dict = {}
        for cold in ("ladder_cold", "suite_fresh"):
            save = bench.run_dir / f"{cold}-digests.json"
            record = bench.campaign(cold, seeds, pristine, save=save)
            account(record, set(record["failures"]))
            merged.update(json.loads(save.read_text(encoding="utf-8")))
        digests_path.write_text(json.dumps(merged), encoding="utf-8")

    records: List[dict] = []
    references: List[dict] = []
    setups: List[float] = []
    iterations: List[float] = []
    start = time.monotonic()
    while True:
        now = time.monotonic()
        if iterations:
            estimate = statistics.median(iterations)
            if (len(records) >= MIN_CAMPAIGNS
                    and now - start + estimate > seconds) or (
                    now - begun + estimate > RUN_LIMIT_S):
                break
        state = bench.run_dir / f"state-{len(records)}"
        traced = trace and len(records) % 2 == 1
        save = digests_path if reference_lib is not None and not records else None
        records.append(bench.campaign(
            workload, seeds, state, trace=traced, save=save, pristine=pristine,
            reference=digests_path if pristine is not None else None))
        shutil.rmtree(state)
        for _probe in range(0 if trace else SETUP_PROBES):
            setups.append(bench.campaign(workload, seeds, state,
                                         pristine=pristine,
                                         setup_only=True)["setup_s"])
            shutil.rmtree(state, ignore_errors=True)
        if reference_lib is not None:
            core_path = bench.run_dir / "core-digests.json"
            if len(records) == 1:
                # The reference tree's result records have other fields;
                # it is held to this tree's simulated counts only.
                digests = json.loads(digests_path.read_text(encoding="utf-8"))
                core_path.write_text(json.dumps(
                    {token: {"core": d["core"], "trace_uops": d["trace_uops"]}
                     for token, d in digests.items()}), encoding="utf-8")
            state = bench.run_dir / "state-reference"
            references.append(bench.campaign(workload, seeds, state,
                                             reference=core_path,
                                             lib=reference_lib))
            shutil.rmtree(state)
        iterations.append(time.monotonic() - now)

    first = records[0]
    for record in records:
        account(record, failed_tokens(record, first))
    untraced = [r for r in records if "layers" not in r]
    traced_records = [r for r in records if "layers" in r]
    summary = {"workload": workload, "campaigns": len(untraced),
               "tally": tally, "seeds": seeds,
               "manifest": first["manifest"]}
    summary["end_to_end"] = end_to_end(untraced, setups)
    if traced_records:
        layers = {name: statistics.median(r["layers"][name]
                                          for r in traced_records)
                  for name in traced_records[0]["layers"]}
        layers.update(first["sim"])
        layers["bench.trace_overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_records)
            / statistics.median(r["wall_s"] for r in untraced) - 1.0)
        summary["layers"] = layers
    if references:
        summary["reference"] = {
            "manifest": references[0]["manifest"],
            "failures": sorted({token for r in references
                                for token in r["failures"]}),
            "end_to_end": end_to_end(references, [])}
    return summary


# --------------------------------------------------------------------- output
def declared(kind: str) -> Dict[str, dict]:
    """name -> declaration of the ``kind`` metrics in ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric for metric in json.load(handle)[kind]}


def report(summary: dict, trace: bool, prefix: str = "") -> dict:
    """Print one workload's metrics; return them for the JSON line."""
    end_to_end = {name: metric["unit"]
                  for name, metric in declared("end_to_end").items()}
    workload = summary["workload"]
    tally = summary["tally"]
    frac = tally["failed"] / tally["attempted"] if tally["attempted"] else 0.0
    print(f"== {workload}: {summary['campaigns']} untraced campaigns")
    for name, unit in end_to_end.items():
        q1, median, q3 = summary["end_to_end"][name]
        print(f"  {name:<16} {median:>14.6g} {unit:<6} (q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"  {'failed_job_frac':<16} {frac:>14.6g} fraction "
          f"({tally['failed']}/{tally['attempted']} jobs)")
    for message in tally["messages"][:20]:
        print(f"  FAILED {message}")
    reference = summary.get("reference")
    if reference is not None:
        ref = reference["end_to_end"]
        print(f"  reference tree ({reference['manifest']['repro']}, backend "
              f"{reference['manifest']['backend']}):")
        for name, unit in end_to_end.items():
            ratio = summary["end_to_end"][name][1] / ref[name][1]
            print(f"    {name:<14} {ref[name][1]:>14.6g} {unit:<6} "
                  f"(this tree / reference = {ratio:.3f})")
        if reference["failures"]:
            print(f"    reference results differ on {len(reference['failures'])} "
                  f"jobs: {', '.join(reference['failures'][:6])}")
    metrics = {}
    if trace:
        for name, metric in declared("per_layer").items():
            value, unit = summary["layers"][name], metric["unit"]
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"  {name:<30} {value:>16.6g} {unit}")
    else:
        for name, unit in end_to_end.items():
            metrics[prefix + name] = {"value": summary["end_to_end"][name][1],
                                      "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, metavar="TREE",
                        help="source tree of an older commit to run beside "
                             "this one (ladder_cold only; a reference line, "
                             "not a gate)")
    args = parser.parse_args()
    if not ((ROOT / "setup.py").is_file() and (ROOT / "src" / "repro").is_dir()):
        print(f"no repro sources under {ROOT} (need setup.py and src/repro)",
              file=sys.stderr)
        return 2
    if args.reference is not None and args.workload != "ladder_cold":
        parser.error("--reference runs with --workload ladder_cold only")

    runs = ROOT / ".bench_run"
    runs.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=runs))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reference_lib = (build(args.reference.resolve())
                         if args.reference else None)
        bench = Bench(build(ROOT), run_dir)
        summaries = [measure(bench, workload, args.seed, args.seconds,
                             bool(args.trace), reference_lib)
                     for workload in workloads]
    except CampaignError as error:
        print(f"campaign failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    manifest = {"git_sha": git_sha(ROOT), "source_digest": source_digest(ROOT),
                **summaries[0]["manifest"],
                "python": platform.python_version(), "nproc": os.cpu_count(),
                "calibration_ops_per_s": calibration_rate(), "seed": args.seed,
                "job_set_seeds": {summary["workload"]: summary["seeds"]
                                  for summary in summaries},
                "seconds": args.seconds, "trace": args.trace}
    print("manifest " + json.dumps(manifest, sort_keys=True))
    metrics = {}
    for summary in summaries:
        prefix = f"{summary['workload']}." if len(summaries) > 1 else ""
        metrics.update(report(summary, bool(args.trace), prefix))
    attempted = sum(s["tally"]["attempted"] for s in summaries)
    failed = sum(s["tally"]["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
