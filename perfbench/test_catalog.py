"""Quick test of the benchmark against its own catalog.

A small-size run of every workload, untraced and traced, must emit
exactly the end-to-end / per-layer names ``BENCHMARK.json`` declares,
with their units, and pass its correctness checks.  Run from the
repository root::

    python3 -m pytest -q perfbench/test_catalog.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_.-")


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name


def test_catalog_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert len(name) <= 64 and set(name) <= NAME_CHARS, name
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert why and "\n" not in why and len(why) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runs_from_a_checkout_under_a_hidden_directory(tmp_path):
    # The analyzer skips paths with a part that starts with "."; the
    # tooling workload must still find its sources there.
    checkout = tmp_path / ".hidden" / "checkout"
    checkout.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, checkout / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(checkout, "tooling-cache", 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
