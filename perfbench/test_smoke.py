"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload (the gated ones and ``cold-sqlite``) runs at a tiny
length in both modes, and every metric ``BENCHMARK.json`` names must
come out with its unit.  The seeded
input streams are pinned by fingerprint, so a change to how inputs are
generated cannot pass unnoticed, and a directory without the package
sources must make the benchmark fail instead of printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: stream_fingerprint of the first 40 low-rate ops at seed 0, for every
#: workload ``workloads.py`` defines (cold-sqlite runs on request only)
GOLDEN = {
    "hot-memory": "fe52a933723dd7a4",
    "cold-sqlite": "6db2524967bc1977",
    "cluster-fanout": "d939d39cd0a3cc81",
}


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "3", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_input_streams_are_pinned() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import PHASE_LOW, WORKLOADS as SPECS, Inputs, stream_fingerprint

        assert set(SPECS) == set(GOLDEN)
        for name, golden in GOLDEN.items():
            ops = Inputs(SPECS[name], 0).ops(PHASE_LOW, 40)
            assert stream_fingerprint(ops) == golden, name
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
