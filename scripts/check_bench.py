#!/usr/bin/env python3
"""Diff a benchmark run against a committed BENCH_*.json trendline.

The benchmarks print machine-readable ``BENCH {...}`` JSON lines; the
repo commits their history in ``BENCH_service.json`` /
``BENCH_figure4.json``.  This script reads a fresh run's output (a log
file or stdin), extracts the BENCH lines, and compares each named
benchmark's key metric against the newest committed history entry:

* ``higher_is_better`` metrics regress when
  ``fresh < committed * tolerance``;
* lower-is-better metrics regress when
  ``fresh > committed / tolerance``;
* a committed benchmark the run printed no BENCH line for fails too:
  a benchmark that crashed before printing measured nothing.

``tolerance`` defaults to the baseline file's own value (0.5 committed
— generous, because CI machines vary) and ``--tolerance`` overrides
it.  ``--update`` appends the fresh numbers to the trendline instead
of judging them, for the commit that intentionally moves the baseline.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -s \\
        | tee /tmp/bench.log
    python scripts/check_bench.py BENCH_service.json /tmp/bench.log
    python scripts/check_bench.py BENCH_service.json /tmp/bench.log \\
        --update --run "2026-08-08 wire v2"

Exits 1 on any regression or missing benchmark, 2 on a run that
produced no BENCH lines at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_bench_lines(text: str) -> dict[str, dict]:
    """Extract ``BENCH {...}`` JSON payloads, last line per name wins."""
    fresh: dict[str, dict] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("BENCH "):
            continue
        try:
            payload = json.loads(line[len("BENCH "):])
        except json.JSONDecodeError:
            continue
        name = payload.pop("name", None)
        if name:
            fresh[name] = payload
    return fresh


def check(
    baseline: dict, fresh: dict[str, dict], tolerance: float | None
) -> int:
    """Print a comparison table; return the number of failures.

    A failure is a regression or a committed benchmark with no fresh
    BENCH line.
    """
    tol = tolerance if tolerance is not None else baseline.get("tolerance", 0.5)
    failures = 0
    for name, spec in baseline["benchmarks"].items():
        metric = spec["metric"]
        higher = spec.get("higher_is_better", True)
        history = spec["history"]
        if name not in fresh:
            print(f"  {name}: NOT RUN (no BENCH line) FAILED")
            failures += 1
            continue
        if not history:
            print(f"  {name}: no committed history — {metric}="
                  f"{fresh[name].get(metric)} (informational)")
            continue
        committed = float(history[-1][metric])
        value = float(fresh[name][metric])
        if higher:
            floor = committed * tol
            bad = value < floor
            bound = f">= {floor:.4g}"
        else:
            ceiling = committed / tol
            bad = value > ceiling
            bound = f"<= {ceiling:.4g}"
        verdict = "REGRESSION" if bad else "ok"
        failures += bad
        print(
            f"  {name}: {metric} committed={committed:.4g} "
            f"fresh={value:.4g} (allowed {bound}) {verdict}"
        )
    for name in sorted(set(fresh) - set(baseline["benchmarks"])):
        print(f"  {name}: new benchmark, not in baseline (add with --update)")
    return failures


def update(baseline: dict, fresh: dict[str, dict], run_label: str) -> None:
    """Append the fresh numbers as a new history entry per benchmark."""
    for name, payload in fresh.items():
        spec = baseline["benchmarks"].setdefault(
            name,
            {"metric": "speedup", "higher_is_better": True, "history": []},
        )
        spec["history"].append({"run": run_label, **payload})
        print(f"  {name}: appended entry {run_label!r}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="compare BENCH output lines against a committed baseline"
    )
    parser.add_argument("baseline", help="BENCH_*.json trendline file")
    parser.add_argument(
        "log",
        nargs="?",
        help="file holding the run's output (default: read stdin)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed regression ratio (default: the baseline file's value)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="append the fresh numbers to the trendline instead of judging",
    )
    parser.add_argument(
        "--run",
        default="unlabelled run",
        help="history label used with --update",
    )
    args = parser.parse_args()

    baseline_path = Path(args.baseline)
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    elif args.update:
        # --update against a missing file seeds a fresh trendline, so a
        # new benchmark suite's first run can commit its own baseline
        baseline = {
            "description": (
                "Committed trendline seeded by check_bench.py --update; "
                "'metric' names the field compared and 'tolerance' the "
                "allowed regression ratio."
            ),
            "tolerance": 0.5,
            "benchmarks": {},
        }
        print(f"seeding new baseline {baseline_path}")
    else:
        print(
            f"baseline {baseline_path} does not exist "
            "(seed it with --update)",
            file=sys.stderr,
        )
        return 2
    text = (
        Path(args.log).read_text() if args.log else sys.stdin.read()
    )
    fresh = parse_bench_lines(text)
    if not fresh:
        print("no BENCH lines found in the run output", file=sys.stderr)
        return 2

    if args.update:
        print(f"updating {baseline_path}:")
        update(baseline, fresh, args.run)
        baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
        return 0

    print(f"checking against {baseline_path}:")
    failures = check(baseline, fresh, args.tolerance)
    if failures:
        print(
            f"{failures} benchmark regression(s) or missing run(s)",
            file=sys.stderr,
        )
        return 1
    print("benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
