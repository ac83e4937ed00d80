"""Compare captured outputs of ``perfbench/run.py``.

Each file is the standard output of one run (``run.py ... > out.txt``)::

    python3 perfbench/compare.py base-*.txt -- head-*.txt
    python3 perfbench/compare.py runs-*.txt        # one set: spreads only

Every file carries a ``manifest`` line.  Result sets whose backend or
``SIMULATOR_VERSION`` differ are not comparable, and the script stops with
exit code 2 naming both, instead of comparing or skipping them.  With two
sets it prints, per metric, each side's median and quartiles and the change
of the medians; an end-to-end metric whose median got worse by more than
its bound in ``BENCHMARK.json`` is a regression (exit code 1), and one whose
base spread exceeds its bound is unresolved unless every head run beats
every base run.  With one set it prints each metric's spread (the distance
between its quartiles over its median) against its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from run import declared, quartiles

#: manifest fields two comparable result sets must share
MUST_MATCH = ("backend", "simulator_version")


def load(path: str) -> dict:
    """The manifest and the result line of one captured run."""
    manifest = None
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    for line in lines:
        if line.startswith("manifest "):
            manifest = json.loads(line[len("manifest "):])
    if manifest is None or not lines:
        raise SystemExit(f"{path}: no manifest line; not a run.py output")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{path}: the run failed its correctness checks "
                         f"({result['failed']}/{result['attempted']} jobs)")
    return {"path": path, "manifest": manifest, "metrics": result["metrics"]}


def check_comparable(runs: List[dict]) -> None:
    first = runs[0]
    for run in runs[1:]:
        for field in MUST_MATCH:
            if run["manifest"].get(field) != first["manifest"].get(field):
                print(f"not comparable: {field} is "
                      f"{first['manifest'].get(field)!r} in {first['path']} "
                      f"but {run['manifest'].get(field)!r} in {run['path']}",
                      file=sys.stderr)
                raise SystemExit(2)


def values(runs: List[dict]) -> Dict[str, List[float]]:
    table: Dict[str, List[float]] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            table.setdefault(name, []).append(metric["value"])
    return table


def spread(series: List[float]) -> float:
    q1, median, q3 = quartiles(series)
    return (q3 - q1) / abs(median) if median else 0.0


def metric_spec(specs: Dict[str, dict], name: str) -> dict:
    """The declaration of a metric, also under a ``<workload>.`` prefix."""
    return specs.get(name) or specs.get(name.split(".", 1)[-1], {})


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    if "--" in argv:
        split = argv.index("--")
        base = [load(path) for path in argv[:split]]
        head = [load(path) for path in argv[split + 1:]]
    else:
        base, head = [load(path) for path in argv], []
    check_comparable(base + head)
    specs = {**declared("end_to_end"), **declared("per_layer")}
    base_values = values(base)
    if not head:
        print(f"{'metric':<34} {'median':>14} {'spread':>8} {'bound':>6}  n")
        for name, series in base_values.items():
            bound = metric_spec(specs, name).get("bound")
            flag = ("" if bound is None else
                    "  within bound" if spread(series) <= bound else
                    "  WIDER THAN BOUND")
            print(f"{name:<34} {quartiles(series)[1]:>14.6g} "
                  f"{spread(series):>8.4f} "
                  f"{'' if bound is None else bound:>6}  {len(series)}{flag}")
        return 0

    head_values = values(head)
    regressions = 0
    print(f"{'metric':<34} {'base median':>14} {'head median':>14} "
          f"{'change':>8}  verdict")
    for name, series in base_values.items():
        if name not in head_values:
            print(f"{name:<34} missing from the head runs")
            regressions += 1
            continue
        new = head_values[name]
        spec = metric_spec(specs, name)
        old_median, new_median = quartiles(series)[1], quartiles(new)[1]
        change = new_median / old_median - 1.0 if old_median else 0.0
        verdict = ""
        if "bound" in spec:
            worse = -change if spec["better"] == "higher" else change
            better_everywhere = (min(new) > max(series)
                                 if spec["better"] == "higher"
                                 else max(new) < min(series))
            if worse > spec["bound"]:
                verdict = "REGRESSED"
                regressions += 1
            elif spread(series) > spec["bound"] and not better_everywhere:
                verdict = "unresolved (base spread wider than bound)"
            else:
                verdict = "ok"
        print(f"{name:<34} {old_median:>14.6g} {new_median:>14.6g} "
              f"{change:>+8.2%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
