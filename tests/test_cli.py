import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from minplustree.cli import build_parser, main
from minplustree.distribution import KMAX_LIMIT
from minplustree.regimes import LIMIT_K_MAX
from minplustree.series import evaluate


# Every subcommand's option strings. Adding or removing a flag is an edit here.
OPTION_TABLE = {
    "evolve": ["--N", "--p", "--kmax", "--tail-budget", "--format", "--output"],
    "sample": ["--depth", "--p", "--samples", "--seed", "--workers", "--format", "--output"],
    "bounds": ["--model", "--C", "--beta", "--c", "--K", "--step", "--N-range", "--k-range",
               "--emit-grid", "--strict", "--output"],
    "series": ["--fn", "--k", "--alpha", "--A", "--output"],
    "limit": ["--N", "--kmax", "--max-rows", "--output"],
    "regimes": ["--p", "--k-max", "--tol", "--output"],
}


def test_option_table_is_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: [opt for a in parser._actions for opt in a.option_strings
               if opt not in ("-h", "--help")]
        for name, parser in sub.choices.items()
    }
    assert got == OPTION_TABLE


def test_usage_error_on_bad_probability(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--p", "1.5", "--N", "3"])
    assert exc.value.code != 0


def test_usage_error_on_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--N", "3", "--frobnicate"])
    assert exc.value.code != 0


def test_usage_error_on_missing_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0


def test_evolve_csv_golden(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["evolve", "--N", "3", "--p", "0.5", "--kmax", "auto",
               "--format", "csv", "--output", str(out)])
    assert rc == 0
    assert out.read_text() == (
        "k,pmf,survival\n"
        "1,0.375,1.0\n"
        "2,0.25,0.625\n"
        "3,0.25,0.375\n"
        "4,0.125,0.125\n"
    )
    assert "evolve: N=3" in capsys.readouterr().err


def test_evolve_json_fields(tmp_path):
    out = tmp_path / "d.json"
    assert main(["evolve", "--N", "4", "--p", "0.5", "--kmax", "8",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"level", "p_plus", "k_max", "tail_mass", "probs"}
    assert doc["level"] == 4 and len(doc["probs"]) == 8


def test_evolve_auto_cap_guard(capsys):
    rc = main(["evolve", "--N", "200", "--kmax", "auto"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # the full support first passes 2^26 entries at level 28
    t0 = time.perf_counter()
    assert main(["evolve", "--N", "28", "--kmax", "auto"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "cap 134217728 at level 28" in capsys.readouterr().err
    # a fixed cap above 2^26 entries is refused before the first level
    t0 = time.perf_counter()
    assert main(["evolve", "--N", "3", "--kmax", str(2**26 + 1)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "above the limit" in capsys.readouterr().err


def test_evolve_outputs_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["evolve", "--N", "8", "--p", "0.3", "--kmax", "64",
                     "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_file_and_stdout_identical(tmp_path, capsys, fmt):
    args = ["evolve", "--N", "12", "--kmax", "100", "--format", fmt]
    out = tmp_path / f"d.{fmt}"
    assert main(args + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_evolve_stdout_from_forked_writer(tmp_path):
    # 3 blocks of rows, so the writer forks its workers where it can; in a
    # fresh interpreter stdout is a real buffered stream, which the workers inherit
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    args = [sys.executable, "-m", "minplustree", "evolve", "--N", "17", "--kmax", "40000"]
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "d.csv"
    subprocess.run(args + ["--output", str(out)], env=env, check=True, timeout=120)
    piped = subprocess.run(args, env=env, capture_output=True, check=True, timeout=120)
    assert piped.stdout == out.read_bytes()
    assert piped.stdout.startswith(b"k,pmf,survival\n")
    assert piped.stdout.count(b"k,pmf,survival") == 1
    assert piped.stdout.count(b"\n") == 40001


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_file_and_stdout_identical(tmp_path, capsys, fmt):
    args = ["sample", "--depth", "6", "--samples", "3000", "--seed", "3", "--format", fmt]
    out = tmp_path / f"s.{fmt}"
    assert main(args + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_sample_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sample", "--depth", "8", "--p", "0.5", "--samples", "20000",
                     "--seed", "42", "--workers", "8", "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "value,count"
    total = sum(int(row.split(",")[1]) for row in lines[1:])
    assert total == 20000


def test_sample_refuses_infeasible_work(capsys):
    # 2^39 leaves: refused before any sampling starts
    t0 = time.perf_counter()
    assert main(["sample", "--depth", "40", "--samples", "1"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "leaves" in capsys.readouterr().err


def test_sample_json(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sample", "--depth", "4", "--samples", "500", "--seed", "7",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 500 and doc["depth"] == 4
    assert sum(doc["counts"].values()) == 500


def test_series_stdout(capsys):
    assert main(["series", "--fn", "h", "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert "0.693147  <= bound 1.644934  OK" in text
    # M is bounded below: the line states the relation that was checked
    assert main(["series", "--fn", "M", "--k", "1000", "--A", "8"]) == 0
    value = evaluate("M", 1000, A=8)
    line = capsys.readouterr().out
    assert f"{value.value:.6f}  >= bound {value.bound:.6f}  OK" in line


def test_series_requires_parameters(capsys):
    assert main(["series", "--fn", "S", "--k", "100"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bounds_upper_json(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds", "--model", "upper", "--C", "3.62", "--beta", "2",
               "--N-range", "1000:1005", "--k-range", "400", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["min_margin"] >= 0.0
    assert doc["first_violation"] is None


def test_bounds_strict_violation_exit_code(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds", "--model", "upper", "--C", "1.6", "--beta", "2",
               "--N-range", "100:105", "--k-range", "100", "--strict",
               "--output", str(out)])
    assert rc == 2
    assert json.loads(out.read_text())["min_margin"] < 0.0


def test_bounds_lower_model(tmp_path):
    # the built-in head uses squared logs above 33, so the curve is a valid
    # survival function at k <= 150 only once N clears log(150)^2
    out = tmp_path / "b.json"
    rc = main(["bounds", "--model", "lower", "--c", "1.0", "--K", "151",
               "--N-range", "26:60", "--k-range", "150", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["min_margin"] >= 0.0 and doc["curve_valid"]


def test_bounds_emit_grid(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bounds", "--model", "upper", "--N-range", "50:52",
               "--k-range", "20", "--emit-grid", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["grid_shape"] == [3, 20]
    assert len(doc["residuals"]) == 3


def test_bounds_has_no_n0_flag():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--model", "upper", "--N-range", "100:105", "--k-range", "1:30",
              "--n0", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("extra", [
    ["--model", "upper", "--C", "nan"],
    ["--model", "upper", "--beta", "nan"],
    ["--model", "lower", "--c", "nan"],
    ["--model", "lower", "--K", "50", "--step", "100:nan"],
])
def test_bounds_non_finite_constant_is_an_error(tmp_path, capsys, extra):
    out = tmp_path / "b.json"
    rc = main(["bounds", *extra, "--N-range", "100:105", "--k-range", "1:30", "--strict",
               "--output", str(out)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["series", "--fn", "h", "--k", str(KMAX_LIMIT + 1)],
    ["bounds", "--model", "upper", "--N-range", "10:11", "--k-range", str(KMAX_LIMIT + 1)],
])
def test_oversized_k_fails_fast(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert str(KMAX_LIMIT) in capsys.readouterr().err


def test_bounds_lower_oversized_K_fails_fast(capsys):
    t0 = time.perf_counter()
    assert main(["bounds", "--model", "lower", "--K", str(10**12), "--N-range", "100:101",
                 "--k-range", "10"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert f"K = {10**12} is above the limit of {KMAX_LIMIT}" in capsys.readouterr().err
    assert main(["bounds", "--model", "lower", "--K", "3000000", "--N-range", "100:101",
                 "--k-range", "10"]) == 0


@pytest.mark.parametrize("argv", [
    ["bounds", "--model", "upper", "--N-range", "1:1000000000000", "--k-range", "10"],
    ["evolve", "--N", "1000000000", "--kmax", "100"],
    ["limit", "--N", "1000000000", "--kmax", "100"],
    ["sample", "--depth", "1", "--samples", str(2**30), "--workers", str(2**30)],
])
def test_unbounded_work_fails_fast(capsys, argv):
    t0 = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "more than the limit" in capsys.readouterr().err


def test_limit_csv_schema(tmp_path):
    out = tmp_path / "l.csv"
    assert main(["limit", "--N", "10", "--kmax", "1024", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,empirical,limit"
    t, emp, lim = map(float, lines[1].split(","))
    assert t == 0.0 and lim == 0.0 and 0.0 <= emp <= 1.0


def test_limit_summary_names_lumped_tail(tmp_path, capsys):
    # the KS window leaves out the mass lumped above the cap, so the summary
    # line prints it, as evolve's does
    tails = []
    for cmd in ("evolve", "limit"):
        assert main([cmd, "--N", "30", "--kmax", "1000", "--output", str(tmp_path / cmd)]) == 0
        tails.append(re.search(r" tail_mass=(\S+)", capsys.readouterr().err).group(1))
    assert tails[0] == tails[1]
    assert float(tails[1]) > 0.0


def test_regimes_json(tmp_path):
    out = tmp_path / "r.json"
    assert main(["regimes", "--p", "0.4", "--k-max", "8", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["classification"] == "subcritical"
    assert doc["fixed_point_c2"] == pytest.approx(2 / 3, abs=1e-9)


def test_regimes_has_no_n_max_flag():
    with pytest.raises(SystemExit) as exc:
        main(["regimes", "--p", "0.7", "--N-max", "5"])
    assert exc.value.code == 2


def test_regimes_bad_tol_and_k_max_fail_fast(capsys):
    for extra in (["--tol", "nan"], ["--tol", "-1"], ["--k-max", str(LIMIT_K_MAX + 1)]):
        t0 = time.perf_counter()
        assert main(["regimes", "--p", "0.4", *extra]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "error:" in capsys.readouterr().err


def test_sample_output_ignores_worker_environment(tmp_path, monkeypatch):
    # the worker count shapes the substreams, so only --workers may set it
    argv = ["sample", "--depth", "4", "--samples", "300", "--seed", "1", "--format", "json"]
    monkeypatch.delenv("MINPLUSTREE_WORKERS", raising=False)
    assert main([*argv, "--output", str(tmp_path / "none.json")]) == 0
    want = (tmp_path / "none.json").read_bytes()
    for value in ("3", "abc"):
        monkeypatch.setenv("MINPLUSTREE_WORKERS", value)
        out = tmp_path / f"{value}.json"
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_bytes() == want


def test_evolve_tail_budget_note(capsys):
    args = ["evolve", "--N", "8", "--tail-budget", "1e-6", "--output", "-"]
    assert main([*args, "--kmax", "16"]) == 0
    assert "TAIL BUDGET EXCEEDED" in capsys.readouterr().err
    assert main([*args, "--kmax", "256"]) == 0
    assert "TAIL BUDGET EXCEEDED" not in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "-1e-6"])
def test_evolve_tail_budget_refuses_nan_and_negative(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--N", "8", "--kmax", "16", f"--tail-budget={budget}"])
    assert exc.value.code == 2
    assert "tail budget" in capsys.readouterr().err
