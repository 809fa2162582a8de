"""Spans of the traced replay and the per-layer metrics derived from them.

A span records a name, its start and end on the monotonic clock, the span
that encloses it and the run it belongs to. Spans stay in memory and are
written once, as JSON lines, when the process ends; the parent merges the
files of one run into one. This module does not import
the library, so the parent process can derive metrics without it.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from workloads import REGIMES_SWEEP, SERIES, SUPERCRITICAL_P

LAYERS = ("distribution", "simulate", "bounds", "series", "regimes")


def now() -> float:
    """CLOCK_MONOTONIC is system-wide, so parent and child stamps compare."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Collects the spans of one process; ``prefix`` keeps span ids unique
    when the spans of several processes of one run are merged."""

    def __init__(self, run_id: str, prefix: str) -> None:
        self.run_id = run_id
        self.prefix = prefix
        self.spans: list = []
        self._open: list = []

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span measured elsewhere, such as the import before the
        tracer existed."""
        self.spans.append(self._record(name, attrs, start, end))

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Time the body; the yielded dict takes attributes known only later."""
        record = self._record(name, attrs, None, None)
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = now()
        try:
            yield attrs
        finally:
            record["end"] = now()
            self._open.pop()

    def _record(self, name: str, attrs: dict, start, end) -> dict:
        return {
            "run": self.run_id,
            "id": f"{self.prefix}/{len(self.spans)}",
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs,
        }


def write_spans(path: str, spans: list) -> None:
    with open(path, "w") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_spans(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# per-layer metrics: (name, unit, better, the end-to-end metric and workload
# it should move). The names, units and directions are repeated in
# BENCHMARK.json, whose fixed schema has no room for the last column.

_FLAT3 = "; predicted flat on the other three"
LAYER_METRICS = [
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.self_s", "s", "lower",
     "wall_s and peak_rss_mb on exact-critical" + _FLAT3),
    ("distribution.step_fft_ms", "ms", "lower",
     "wall_s on exact-critical, and on certify if _convolve changes; flat on regimes-sweep"),
    *[(f"distribution.step_direct_ms.p{p}", "ms", "lower",
       "wall_s on regimes-sweep; flat on montecarlo and certify") for p in REGIMES_SWEEP],
    ("distribution.step_busy_s", "s", "lower", "wall_s on exact-critical; flat on montecarlo"),
    ("distribution.conv_points", "count", "lower", "wall_s on exact-critical"),
    ("distribution.massfunction_init_ms", "ms", "lower", "wall_s on regimes-sweep"),
    ("distribution.survival_ms.cap4096", "ms", "lower", "wall_s on regimes-sweep"),
    ("distribution.survival_ms.critical", "ms", "lower", "wall_s on regimes-sweep"),
    ("distribution.csv_s", "s", "lower", "wall_s and peak_rss_mb on exact-critical" + _FLAT3),
    ("distribution.csv_mb_per_s", "MB/s", "higher",
     "wall_s and peak_rss_mb on exact-critical" + _FLAT3),
    ("distribution.csv_bytes", "bytes", "lower",
     "wall_s and peak_rss_mb on exact-critical" + _FLAT3),
    ("distribution.tail_mass", "probability", "lower",
     "none; a speed-for-accuracy trade shows here and must not grow silently"),
    ("simulate.ns_per_node_sample.w1", "ns", "lower", "work_per_s on montecarlo" + _FLAT3),
    ("simulate.ns_per_node_sample.w2", "ns", "lower", "work_per_s on montecarlo" + _FLAT3),
    ("simulate.scaling_efficiency", "ratio", "higher", "work_per_s on montecarlo"),
    ("simulate.compare_ms", "ms", "lower", "none; the output check stays negligible"),
    ("bounds.certify_upper_s", "s", "lower",
     "work_per_s and wall_s on certify; flat on exact-critical and montecarlo"),
    ("bounds.certify_lower_s", "s", "lower",
     "work_per_s and wall_s on certify; flat on exact-critical and montecarlo"),
    ("bounds.column_ms.upper", "ms", "lower", "work_per_s and wall_s on certify"),
    ("bounds.column_ms.lower", "ms", "lower", "work_per_s and wall_s on certify"),
    ("bounds.cells", "count", "higher", "work_per_s on certify"),
    ("bounds.recurrence_rhs_ms.upper", "ms", "lower", "work_per_s on certify"),
    ("bounds.recurrence_rhs_ms.lower", "ms", "lower", "work_per_s on certify"),
    ("bounds.model_values_ms.upper", "ms", "lower", "work_per_s on certify"),
    ("bounds.model_values_ms.lower", "ms", "lower", "work_per_s on certify"),
    ("bounds.validity_ms", "ms", "lower", "work_per_s on certify"),
    *[(f"series.evaluate_ms.{fn}", "ms", "lower", "wall_s on certify (about 1%)")
      for fn in SERIES],
    *[(f"regimes.classify_s.p{p}", "s", "lower", "wall_s on regimes-sweep" + _FLAT3)
      for p in (*REGIMES_SWEEP, SUPERCRITICAL_P)],
    ("trace.overhead_s", "s", "lower", "none; cost of tracing, per workload"),
]


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _select(spans: list, name: str, **match) -> list:
    return [s for s in spans
            if s["name"] == name and all(s["attrs"].get(k) == v for k, v in match.items())]


def _median(spans: list) -> Optional[float]:
    return statistics.median(_dur(s) for s in spans) if spans else None


def layer_metrics(spans: list, workload: str, wall_s: Optional[float]) -> dict:
    """Per-layer values keyed by metric name, each as (value, samples).

    ``wall_s`` is the untraced wall time of ``workload`` measured in the same
    run; it anchors ``trace.overhead_s``. ``cli.self_s`` is the time the
    replayed CLI calls of ``workload`` spend outside the library: building
    the payload text and writing it. A metric whose spans are missing,
    because the replay failed, is left out.
    """
    out: dict = {}

    def put(name: str, value, samples: int) -> None:
        if value is not None:
            out[name] = (value, samples)

    def put_ms(name: str, selected: list) -> None:
        med = _median(selected)
        put(name, None if med is None else med * 1e3, len(selected))

    imports = _select(spans, "cli.import")
    put("cli.import_s", _median(imports), len(imports))

    # The replayed CLI calls of this workload and the layer calls inside them.
    mirror = [s for s in spans
              if s["name"].startswith("cli.") and s["attrs"].get("workload") == workload]
    ids = {s["id"] for s in mirror}
    inner = [s for s in spans if s["parent"] in ids and s["name"].split(".")[0] in LAYERS]
    if mirror:
        # Both terms come from one process: the host's speed drifts by more
        # than the CLI's own work between the untraced and the traced run.
        put("cli.self_s", sum(_dur(s) for s in mirror) - sum(_dur(s) for s in inner),
            len(mirror))
    if mirror and wall_s is not None:
        put("trace.overhead_s", sum(_dur(s) for s in mirror) - wall_s, len(mirror))

    steps = [s for s in spans if s["name"] == "distribution.step_pmf" and "window" in s["attrs"]]
    put_ms("distribution.step_fft_ms", [s for s in steps if s["attrs"]["branch"] == "fft"])
    for p in REGIMES_SWEEP:
        put_ms(f"distribution.step_direct_ms.p{p}",
               _select(spans, "distribution.step_pmf", probe="direct", p=p))
    if steps:
        put("distribution.step_busy_s", sum(_dur(s) for s in steps), len(steps))
        put("distribution.conv_points", sum(s["attrs"]["window"] for s in steps), len(steps))
    put_ms("distribution.massfunction_init_ms", _select(spans, "distribution.MassFunction"))
    for of in ("cap4096", "critical"):
        put_ms(f"distribution.survival_ms.{of}", _select(spans, "distribution.survival", of=of))
    for s in _select(spans, "distribution.write_distribution_csv"):
        nbytes = s["attrs"]["bytes"]
        put("distribution.csv_s", _dur(s), 1)
        put("distribution.csv_mb_per_s", nbytes / 1e6 / _dur(s), 1)
        put("distribution.csv_bytes", nbytes, 1)
    for s in _select(spans, "cli.evolve"):
        if "tail_mass" in s["attrs"]:
            put("distribution.tail_mass", s["attrs"]["tail_mass"], 1)

    runs = {s["attrs"]["workers"]: s for s in _select(spans, "simulate.run")}
    for workers, s in runs.items():
        node_samples = s["attrs"]["samples"] * s["attrs"]["nodes"]
        put(f"simulate.ns_per_node_sample.w{workers}", _dur(s) / node_samples * 1e9, 1)
    if 1 in runs and 2 in runs:
        put("simulate.scaling_efficiency", _dur(runs[1]) / (2.0 * _dur(runs[2])), 1)
    put_ms("simulate.compare_ms", _select(spans, "simulate.compare"))

    cells = 0
    for model in ("upper", "lower"):
        for s in _select(spans, f"bounds.certify_{model}"):
            cells += s["attrs"]["cells"]
            put(f"bounds.certify_{model}_s", _dur(s), 1)
            put(f"bounds.column_ms.{model}", _dur(s) / s["attrs"]["columns"] * 1e3,
                s["attrs"]["columns"])
        put_ms(f"bounds.recurrence_rhs_ms.{model}",
               _select(spans, "bounds.recurrence_rhs", model=model))
        put_ms(f"bounds.model_values_ms.{model}", _select(spans, f"bounds.{model}_model_values"))
    if cells:
        put("bounds.cells", cells, 2)
    put_ms("bounds.validity_ms", _select(spans, "bounds.lower_model_validity"))

    for fn in SERIES:
        put_ms(f"series.evaluate_ms.{fn}", _select(spans, "series.evaluate", fn=fn))
    for p in (*REGIMES_SWEEP, SUPERCRITICAL_P):
        selected = _select(spans, "regimes.classify", p=p)
        put(f"regimes.classify_s.p{p}", _median(selected), len(selected))
    return out
