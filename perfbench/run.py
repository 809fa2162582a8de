"""Benchmark of the minplustree command line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition of a workload runs in a fresh interpreter (child.py) that
imports ``minplustree.cli`` from ``src/`` and makes the workload's CLI calls;
this process then checks each call's output. A call that exits non-zero or
writes a wrong answer counts as failed.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
once) and prints the end-to-end metrics as medians over the repetitions.
``--trace 1`` runs the workload once untraced, then the traced replay of all
four workloads, each in one more fresh interpreter, writes the spans to
``.bench_out/spans-<workload>.jsonl`` and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the library
sources under ``src/`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid
from importlib import metadata
from typing import Optional

import numpy as np

import workloads as wl
from spans import LAYER_METRICS, layer_metrics, now, read_spans, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

SETUP_SAMPLES = 3           # fewest interpreter set-ups measured in one run
CHILD_TIMEOUT_S = 90.0      # a healthy child ends within a third of this
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("wall_s", "s", "first CLI call to last payload written, after imports"),
    ("setup_s", "s", "child interpreter start until minplustree.cli is imported"),
    ("peak_rss_mb", "MB", "peak resident set size of the child interpreter"),
    ("work_per_s", "1/s", "the workload's unit of work per second"),
]
WORK_UNIT = {
    "exact-critical": "pmf rows per wall_s",
    "montecarlo": "samples per wall_s",
    "certify": "(N, k) residual cells of both scans per second of scanning",
    "regimes-sweep": "regime reports per wall_s",
}


# ---------------------------------------------------------------------------
# child interpreters


def child_env() -> dict:
    """The parent's environment, minus the library's worker default, with
    native thread pools pinned to one thread so ``--workers`` is the only
    parallelism, and only the checkout's sources on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "MINPLUSTREE_WORKERS"}
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(spec: dict, work_dir: str) -> tuple:
    """Run child.py on ``spec``; return the spawn stamp and the child's result,
    or None in its place when the child failed."""
    tag = uuid.uuid4().hex[:12]
    spec = {**spec, "result": os.path.join(work_dir, f"{tag}.result.json")}
    spec_path = os.path.join(work_dir, f"{tag}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(work_dir, f"{tag}.log")
    with open(log_path, "w") as log:
        start = now()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=work_dir,
                                env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        with open(log_path) as fh:
            print(f"child exited {proc.returncode}: {fh.read()[-2000:]}")
        return start, None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    src = os.path.realpath(os.path.join(ROOT, "src")) + os.sep
    if not os.path.realpath(result["module"]).startswith(src):
        raise SystemExit(f"imported {result['module']}, not the sources under {src}")
    return start, result


def repetition(calls: list, work_dir: str) -> dict:
    """One untraced repetition: its timings, and a failure message per failed call."""
    out = tempfile.mkdtemp(prefix="rep-", dir=work_dir)
    argvs = [[*c.argv, "--output", os.path.join(out, c.output)] for c in calls]
    t_spawn, result = spawn({"mode": "run", "calls": argvs}, work_dir)
    rep: dict = {"attempted": len(calls), "failures": []}
    if result is None:
        rep["failures"] = [f"{' '.join(c.argv[:3])}: child failed" for c in calls]
    else:
        for call, outcome in zip(calls, result["calls"]):
            why = (f"exit code {outcome['rc']}" if outcome["rc"] != 0
                   else call.check(os.path.join(out, call.output)))
            if why:
                rep["failures"].append(f"{' '.join(call.argv[:3])}: {why}")
        timed = result["calls"]
        rep["setup_s"] = result["t_ready"] - t_spawn
        rep["wall_s"] = timed[-1]["end"] - timed[0]["start"]
        rep["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
        rep["scan_s"] = sum(c["end"] - c["start"] for c in timed if c["argv"][0] == "bounds")
    shutil.rmtree(out)
    return rep


def work_per_s(workload: str, size: str, rep: dict) -> float:
    if workload == "certify":
        return wl.certify_cells(size) / rep["scan_s"]
    work = {
        "exact-critical": wl.EXACT[size]["kmax"],
        "montecarlo": wl.MONTECARLO[size]["samples"],
        "regimes-sweep": len(wl.REGIMES_SWEEP) + 1,
    }[workload]
    return work / rep["wall_s"]


# ---------------------------------------------------------------------------
# environment and computed sizes


def last_level_cache() -> Optional[dict]:
    """Largest data or unified cache of cpu0, read from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "size", "type"):
                with open(os.path.join(base, entry, key)) as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] in ("Data", "Unified") and (
                best is None or int(fields["level"]) > int(best["level"])
            ):
                best = fields
    except (OSError, ValueError):
        return None
    if best is None:
        return None
    size = best["size"]
    scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
    return {"level": int(best["level"]), "bytes": int(size.rstrip("KM")) * scale}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "llc": last_level_cache(),
    }


def computed_sizes(workload: str, size: str) -> dict:
    """Working-set sizes derived from the inputs (computed, not measured)."""
    if workload == "exact-critical":
        from scipy.fft import next_fast_len

        kmax = wl.EXACT[size]["kmax"]
        # The widest self-convolution input is the whole capped support;
        # fftconvolve transforms at next_fast_len(2n - 1) for real input.
        length = next_fast_len(2 * kmax - 1, real=True)
        return {
            "level_array_bytes": (kmax + 1) * 8,
            "fft_length": length,
            "fft_spectra_bytes": 2 * (length // 2 + 1) * 16,
            "fft_output_bytes": length * 8,
        }
    if workload == "montecarlo":
        cfg = wl.MONTECARLO[size]
        return {"samples": cfg["samples"],
                "node_samples": cfg["samples"] * (2 ** (cfg["depth"] - 1) - 1)}
    if workload == "certify":
        widest = max(wl.CERTIFY[size][scan]["k"][1] for scan in ("upper", "lower"))
        return {"cells": wl.certify_cells(size), "widest_column_bytes": (widest + 1) * 8}
    cap = 4096  # regimes.SUBCRITICAL_K_CAP, the internal cap of every sweep step
    return {"level_array_bytes": (cap + 1) * 8, "cap": cap}


# ---------------------------------------------------------------------------
# runs


def _describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def measure(workload: str, seed: int, seconds: float, size: str, refs: dict,
            work_dir: str) -> tuple:
    """Untraced run: end-to-end metrics as medians over repetitions."""
    calls = wl.calls(workload, size, seed, refs)
    start = now()
    reps: list = []
    # Start another repetition while it would end mostly inside the window,
    # so a run lasts about ``seconds`` whatever the repetition length.
    while not reps or (now() - start) * (1 + 0.5 / len(reps)) < seconds:
        reps.append(repetition(calls, work_dir))
    timed = [r for r in reps if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "work_per_s": [work_per_s(workload, size, r) for r in timed],
    }
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        t_spawn, result = spawn({"mode": "setup"}, work_dir)
        if result is None:
            break
        samples["setup_s"].append(result["t_ready"] - t_spawn)

    metrics = {}
    for name, unit, meaning in END_TO_END:
        values = samples[name]
        if not values:
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        note = f"; {WORK_UNIT[workload]}" if name == "work_per_s" else ""
        print(f"{name} = {value!r} {unit} (median, {_describe(values)}) -- {meaning}{note}")
    return reps, metrics


def trace(workload: str, seed: int, size: str, refs: dict, work_dir: str,
          out_root: str) -> tuple:
    """Traced run: one untraced repetition of ``workload``, then the traced
    replay of every workload, each in a fresh interpreter as the CLI runs."""
    rep = repetition(wl.calls(workload, size, seed, refs), work_dir)
    run_id = f"{workload}-{seed}-{uuid.uuid4().hex[:8]}"
    replay = {"attempted": len(wl.WORKLOADS), "failures": []}
    spans: list = []
    for replayed in wl.WORKLOADS:
        spec = {"mode": "trace", "workload": replayed, "size": size, "seed": seed,
                "out_dir": tempfile.mkdtemp(prefix="replay-", dir=work_dir),
                "spans": os.path.join(work_dir, f"spans-{replayed}.jsonl"), "run_id": run_id}
        _, result = spawn(spec, work_dir)
        if result is None or result["replay_error"]:
            error = "child failed" if result is None else result["replay_error"]
            replay["failures"].append(f"traced replay of {replayed}: {error}")
        if os.path.exists(spec["spans"]):
            spans += read_spans(spec["spans"])
    spans_path = os.path.join(out_root, f"spans-{workload}.jsonl")
    write_spans(spans_path, spans)
    print(f"spans: {len(spans)} written to {os.path.relpath(spans_path, ROOT)}")

    values = layer_metrics(spans, workload, rep.get("wall_s"))
    metrics = {}
    for name, unit, _better, moves in LAYER_METRICS:
        if name not in values:
            continue
        value, n = values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit} (n={n}) -- should move: {moves}")
    return [rep, replay], metrics


def run_benchmark(workload: str, seed: int, seconds: float, traced: bool,
                  size: str = "full", refs: dict = wl.REFERENCE) -> dict:
    """Run one workload and print every line but the result; return the result."""
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        print("env " + json.dumps(environment(), sort_keys=True))
        print(f"sizes {workload} ({size}, computed) "
              + json.dumps(computed_sizes(workload, size), sort_keys=True))
        if workload == "montecarlo":
            print(f"seed {seed}: passed to the CLI as --seed")
        else:
            print(f"seed {seed}: unused, {workload} is deterministic")
        if traced:
            reps, metrics = trace(workload, seed, size, refs, work_dir, out_root)
        else:
            reps, metrics = measure(workload, seed, seconds, size, refs, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"failed_ops = {len(failures) / attempted!r} share "
          f"({len(failures)} of {attempted} calls failed)")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "minplustree", "cli.py")):
        print(f"no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
