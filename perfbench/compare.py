#!/usr/bin/env python3
"""Compare two sets of saved benchmark runs, metric by metric.

Usage::

    python3 perfbench/run.py --workload hot-memory --seed 1 --seconds 30 > base/hot-1.txt
    ...
    python3 perfbench/compare.py base/ change/

Each directory holds one file per run: the standard output of
``run.py`` (its last two lines: provenance and result).  For every
workload and end-to-end metric the report gives each side's median and
quartile spread, and flags a change whose median is worse than the
base's by more than the bound ``BENCHMARK.json`` fixes.  Runs recorded
on hosts with different CPU counts are refused, never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> Tuple[set, Dict[str, Dict[str, List[float]]]]:
    """(cpu counts seen, workload -> metric -> values) of one run set."""
    cpus = set()
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(directory.iterdir()):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            continue
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"note: {path} failed its correctness gate; skipped",
                  file=sys.stderr)
            continue
        cpus.add(provenance["cpu_count"])
        per = values.setdefault(provenance["workload"], {})
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(float(metric["value"]))
    return cpus, values


def spread(values: List[float]) -> float:
    """Quartile distance over the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base_cpus, base = load(args.base)
    change_cpus, change = load(args.change)
    if len(base_cpus | change_cpus) > 1:
        print(f"refusing to compare: runs come from hosts with cpu_count "
              f"{sorted(base_cpus | change_cpus)}", file=sys.stderr)
        return 2
    worse = 0
    for workload in sorted(set(base) & set(change)):
        print(workload)
        for name, metric in metrics.items():
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / abs(ma) if ma else 0.0
            loss = -delta if metric["better"] == "higher" else delta
            flag = "WORSE" if loss > metric["bound"] else ""
            worse += bool(flag)
            print(f"  {name:<16} {ma:12.4g} ±{spread(a):5.1%}  ->"
                  f" {mb:12.4g} ±{spread(b):5.1%}  {delta:+7.1%}  {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
