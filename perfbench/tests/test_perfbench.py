"""Tests of the benchmark itself, at the tiny size.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 1)


def _printed(capsys, result: dict, metrics: list) -> None:
    """Every metric is printed as 'name = value unit' and returned with its unit."""
    lines = capsys.readouterr().out.splitlines()
    for m in metrics:
        line = next((ln for ln in lines if ln.startswith(f"{m['name']} = ")), None)
        assert line is not None, f"{m['name']} not printed"
        assert line.split(" ")[3] == m["unit"], line
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in metrics}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, unit) for name, unit, _ in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS
    ]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, capsys):
    result = bench.run_benchmark(workload, seed=7, seconds=0, traced=False, size="tiny")
    _printed(capsys, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.calls(workload, "tiny", 7))


def test_traced_run_prints_every_layer_metric_and_writes_spans(capsys):
    result = bench.run_benchmark("certify", seed=7, seconds=0, traced=True, size="tiny")
    _printed(capsys, result, SPEC["per_layer"])
    assert result["correct"]
    with open(os.path.join(ROOT, ".bench_out", "spans-certify.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    assert {"run", "id", "parent", "name", "start", "end"} <= set(spans[0])
    assert len({s["run"] for s in spans}) == 1


@pytest.mark.parametrize("workload, perturb", [
    ("exact-critical", lambda ref: ref["survival"].__setitem__(100, ref["survival"][100] + 1e-9)),
    ("certify", lambda ref: ref.__setitem__("upper_gamma", ref["upper_gamma"] * (1 + 1e-6))),
    ("certify", lambda ref: ref["series"].__setitem__("h", ref["series"]["h"] * (1 + 1e-6))),
])
def test_perturbed_reference_counts_as_failed_op(workload, perturb, capsys):
    refs = copy.deepcopy(wl.REFERENCE)
    perturb(refs[workload]["tiny"])
    result = bench.run_benchmark(workload, seed=7, seconds=0, traced=False, size="tiny",
                                 refs=refs)
    assert result["failed"] == 1 and not result["correct"]
    assert "failed_ops = " in capsys.readouterr().out


def test_wrong_sample_counts_fail_the_check(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("value,count\n1,10\n2,5\n")
    assert "sum to 15" in wl.check_sample_csv(str(path), depth=2, n=16)


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
