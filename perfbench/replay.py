"""Traced replay: the public library calls the CLI makes for each workload,
one span per call, plus a few separately timed probe calls.

A replayed CLI call is a ``cli.<command>`` span tagged with its workload; the
library calls it makes are its children, and ``cli.emit`` is the final write
of the payload. Probe spans sit outside the ``cli.*`` spans, so they never
count towards a workload's replay total. Every traced run replays all four
workloads, each in its own fresh interpreter as the CLI would run, so every
per-layer metric is measured on every traced run.
"""

from __future__ import annotations

import argparse
import io
import json
import os

import numpy as np

from minplustree import bounds, regimes, series, simulate
from minplustree.cli import _build_lower_model
from minplustree.distribution import (
    DIRECT_CONV_MAX,
    MassFunction,
    TruncationPolicy,
    evolve,
    point_mass_initial,
    step_pmf,
    write_distribution_csv,
)

import workloads as wl
from spans import Tracer

PROBE_REPEATS = 5   # probe calls per measurement; the metric is their median
WARM_LEVELS = 20    # levels evolved at cap 4096 before a direct step is timed


def _emit(tracer: Tracer, text: str, path: str) -> None:
    with tracer.span("cli.emit", bytes=len(text)):
        with open(path, "w", newline="") as fh:
            fh.write(text)


def exact_critical(tracer: Tracer, size: str, seed: int, out_dir: str) -> None:
    cfg = wl.EXACT[size]
    policy = TruncationPolicy(k_max=cfg["kmax"], tail_mode="lump")
    with tracer.span("cli.evolve", workload="exact-critical") as group:
        with tracer.span("distribution.point_mass_initial"):
            m = point_mass_initial(0.5, k_max=2)
        for _ in range(cfg["N"] - 1):
            nz = np.flatnonzero(m.probs)
            window = int(nz[-1] - nz[0] + 1)
            branch = "fft" if window > DIRECT_CONV_MAX else "direct"
            with tracer.span("distribution.step_pmf", window=window, branch=branch):
                m = step_pmf(m, policy)
        buf = io.StringIO()
        with tracer.span("distribution.write_distribution_csv") as attrs:
            write_distribution_csv(m, buf)
        text = buf.getvalue()
        attrs["bytes"] = len(text)
        group["tail_mass"] = m.tail_mass
        _emit(tracer, text, os.path.join(out_dir, "replay-evolve.csv"))
    del text, buf
    for _ in range(PROBE_REPEATS):
        with tracer.span("distribution.MassFunction"):
            MassFunction(probs=m.probs, tail_mass=m.tail_mass, level=m.level, p_plus=m.p_plus)
        with tracer.span("distribution.survival", of="critical"):
            m.survival()


def montecarlo(tracer: Tracer, size: str, seed: int, out_dir: str) -> None:
    cfg = wl.MONTECARLO[size]
    depth, samples = cfg["depth"], cfg["samples"]

    def run(workers: int) -> simulate.EmpiricalSummary:
        sim = simulate.SimConfig(depth=depth, p_plus=0.5, n_samples=samples, seed=seed,
                                 workers=workers)
        with tracer.span("simulate.run", workers=workers, samples=samples,
                         nodes=2 ** (depth - 1) - 1):
            return simulate.run(sim)

    with tracer.span("cli.sample", workload="montecarlo"):
        summary = run(cfg["workers"])
        buf = io.StringIO()
        with tracer.span("simulate.write_summary_csv"):
            simulate.write_summary_csv(summary, buf)
        _emit(tracer, buf.getvalue(), os.path.join(out_dir, "replay-sample.csv"))
    run(1)
    with tracer.span("simulate.compare"):
        exact = evolve(depth, 0.5, TruncationPolicy(k_max=max(2, 2 ** (depth - 1))))
        simulate.compare_to_exact(summary, exact)


def certify(tracer: Tracer, size: str, seed: int, out_dir: str) -> None:
    cfg = wl.CERTIFY[size]
    up, lo = cfg["upper"], cfg["lower"]
    models = {
        "upper": (bounds.UpperModel(C=up["C"], beta=up["beta"]), bounds.certify_upper, up),
        "lower": (_build_lower_model(argparse.Namespace(K=lo["K"], c=lo["c"], step=None)),
                  bounds.certify_lower, lo),
    }
    for label, (model, certify_fn, scan) in models.items():
        (n_lo, n_hi), (k_lo, k_hi) = scan["N"], scan["k"]
        columns = n_hi - n_lo + 1
        with tracer.span("cli.bounds", workload="certify", model=label):
            with tracer.span(f"bounds.certify_{label}", columns=columns,
                             cells=columns * (k_hi - k_lo + 1)):
                report = certify_fn(model, scan["N"], scan["k"])
            text = json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
            _emit(tracer, text, os.path.join(out_dir, f"replay-bounds-{label}.json"))
    for fn, kwargs in wl.SERIES.items():
        with tracer.span("cli.series", workload="certify", fn=fn):
            with tracer.span("series.evaluate", fn=fn):
                r = series.evaluate(fn, cfg["series_k"], **kwargs)
            text = json.dumps({"name": r.name, "k": r.k, "value": r.value, "bound": r.bound,
                               "satisfied": r.satisfied}, sort_keys=True) + "\n"
            _emit(tracer, text, os.path.join(out_dir, f"replay-series-{fn}.json"))

    # Probes: one column of each scan, timed call by call.
    upper, lower = models["upper"][0], models["lower"][0]
    for _ in range(PROBE_REPEATS):
        with tracer.span("bounds.upper_model_values"):
            q = bounds.upper_model_values(upper, up["N"][0], up["k"][1])
        with tracer.span("bounds.recurrence_rhs", model="upper", k=up["k"][1]):
            bounds.recurrence_rhs(q)
        with tracer.span("bounds.lower_model_values"):
            q = bounds.lower_model_values(lower, lo["N"][0], lo["k"][1])
        with tracer.span("bounds.recurrence_rhs", model="lower", k=lo["k"][1]):
            bounds.recurrence_rhs(q)
        with tracer.span("bounds.lower_model_validity"):
            bounds.lower_model_validity(lower, lo["N"][0], lo["k"][1])


def regimes_sweep(tracer: Tracer, size: str, seed: int, out_dir: str) -> None:
    runs = [(p, {"tol": float(wl.REGIMES_TOL)}) for p in wl.REGIMES_SWEEP]
    runs.append((wl.SUPERCRITICAL_P, {}))
    for p, kwargs in runs:
        with tracer.span("cli.regimes", workload="regimes-sweep", p=p):
            with tracer.span("regimes.classify", p=p):
                report = regimes.classify(float(p), **kwargs)
            text = json.dumps(report.to_json_dict(), sort_keys=True) + "\n"
            _emit(tracer, text, os.path.join(out_dir, f"replay-regimes-{p}.json"))

    # Probes: direct-branch steps from a warm level at the fixed internal cap.
    cap = regimes.SUBCRITICAL_K_CAP
    policy = TruncationPolicy(k_max=cap, tail_mode="lump")
    for p in wl.REGIMES_SWEEP:
        m = point_mass_initial(float(p), k_max=cap)
        for _ in range(WARM_LEVELS):
            m = step_pmf(m, policy)
        for _ in range(PROBE_REPEATS):
            with tracer.span("distribution.step_pmf", probe="direct", p=p):
                m = step_pmf(m, policy)
        with tracer.span("distribution.survival", of="cap4096"):
            m.survival()


# Replay per workload; all take (tracer, size, seed, out_dir).
REPLAYS = {
    "exact-critical": exact_critical,
    "montecarlo": montecarlo,
    "certify": certify,
    "regimes-sweep": regimes_sweep,
}
