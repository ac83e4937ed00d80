"""Helpers shared by the figure/table benchmarks (not a test module)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Sequence

#: Policies of the paper's cumulative ladder, in presentation order.
LADDER = ["n888", "n888_br", "n888_br_lr", "n888_br_lr_cr", "n888_br_lr_cr_cp",
          "ir", "ir_nodest"]

#: Default raised from 5000 once the event-wheel core + trace store landed
#: (PR 5): the same CI budget now buys 1.6x the trace length, tightening
#: the figure statistics toward the paper's 100M-uop traces.
BENCH_UOPS = int(os.environ.get("REPRO_BENCH_UOPS", "8000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "2006"))
APPS_PER_CATEGORY = int(os.environ.get("REPRO_BENCH_APPS_PER_CATEGORY", "4"))
#: Sweep-engine worker processes (1 = serial, 0 = one per CPU).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: On-disk result cache directory (unset = no cache).
BENCH_CACHE_DIR = os.environ.get("REPRO_BENCH_CACHE_DIR") or None
#: Rewrite the committed perf artefacts (``BENCH_sim.json``,
#: ``BENCH_energy.json``) with this run's numbers; off by default, so a
#: plain test run measures and asserts but never commits local timings.
BENCH_WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"

RESULTS_DIR = Path(__file__).parent / "results"


def write_result(name: str, text: str) -> Path:
    """Persist a regenerated figure/table to ``benchmarks/results/<name>.txt``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
