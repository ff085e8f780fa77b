"""Self-test of the benchmark harness (not part of the library's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

Every workload runs at a tiny size through run.py, in fresh interpreters as
in a real run; one run goes against a copy of the tree with a corrupted
reference.
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
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
TINY_OPS = {"antipode": 20, "verify": 2, "primitive-rank": 18, "cli": 12}

# Counts that must repeat exactly between two traced runs with one seed.
EXACT = (
    "hopf.antipode.summands",
    "hopf.antipode.terms_out",
    "hopf.antipode_oracle.hits",
    "hopf.antipode_oracle.misses",
    "linalg.integer_rank.rows",
    "linalg.integer_rank.cols",
    "linalg.integer_rank.nonzeros",
)


def bench(workload, seed, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--max-ops", str(TINY_OPS[workload]),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_runnable_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(NAMES)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        text, line = bench(workload, 1, trace)
        assert line["correct"] is True
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
        for m in line["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace == 0:
            for name in expected:
                assert f"# {name} = " in text and "(n = " in text


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first = bench(workload, 3, 1)[1]["metrics"]
    second = bench(workload, 3, 1)[1]["metrics"]
    exact = [
        n for n in first
        if n in EXACT or n.endswith(".items") or (n.startswith("verify.") and n.endswith(".cases"))
    ]
    assert len(exact) > 20
    for name in exact:
        assert first[name] == second[name], name


def test_seed_changes_inputs_not_metric_names():
    for name in NAMES:
        one = [[key for key, _ in p] for p in workloads.build(name, 1).passes]
        two = [[key for key, _ in p] for p in workloads.build(name, 2).passes]
        assert one != two, name
    a = bench("primitive-rank", 1, 0)[1]["metrics"]
    b = bench("primitive-rank", 2, 0)[1]["metrics"]
    assert list(a) == list(b)


def test_refused_op_raises_error_rate_only():
    text, line = bench("antipode", 5, 0)
    assert line["correct"] is True
    assert line["failed"] == 1 and line["attempted"] == 20
    assert line["metrics"]["success_rate"]["value"] == pytest.approx(19 / 20)
    assert "refused x1: ValueError: partition has 1" in text


def test_wrong_reference_fails_the_run():
    copy = ROOT / ".bench_out" / "selftest-copy"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    refs_path = copy / "perfbench" / "refs" / "primitive_rank.json"
    refs = json.loads(refs_path.read_text())
    refs["primitive_space_dimension(4)"] += 1
    refs_path.write_text(json.dumps(refs))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "primitive-rank", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--max-ops", "18"],
        cwd=copy, capture_output=True, text=True, timeout=170,
    )
    shutil.rmtree(copy)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "# WRONG: primitive_space_dimension(4)" in proc.stdout


def test_antipode_pool_has_references():
    refs = json.loads((workloads.REFS / "antipode.json").read_text())
    workload = workloads.build("antipode", 7)
    keys = {key for p in workload.passes for key, _ in p}
    assert keys <= set(refs)
