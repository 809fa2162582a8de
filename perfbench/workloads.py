"""The benchmark's workloads: the CLI calls each one makes and the checks that
turn a wrong answer into a failed operation.

Every workload exists at two sizes. ``full`` is the measured size. ``tiny``
makes the same calls on small inputs so that the benchmark's own tests finish
in seconds; its reference values are pinned separately.

Reference values were computed with the code at the commit that introduced
this benchmark. A check never raises on a wrong answer: it returns a message,
and the caller counts the call as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("exact-critical", "montecarlo", "certify", "regimes-sweep")

# Inputs per workload and size. Only these tables differ between the sizes.
EXACT = {"full": {"N": 40, "kmax": 1_000_000}, "tiny": {"N": 16, "kmax": 8192}}
MONTECARLO = {
    "full": {"depth": 10, "samples": 1_000_000, "workers": 2},
    "tiny": {"depth": 4, "samples": 1_000_000, "workers": 2},
}
CERTIFY = {
    "full": {
        "upper": {"C": 3.62, "beta": 2.0, "N": (10000, 10100), "k": (1, 100_000)},
        "lower": {"c": 1.0, "K": 12000, "N": (10000, 10050), "k": (12000, 200_000)},
        "series_k": 1_000_000,
    },
    "tiny": {
        "upper": {"C": 3.62, "beta": 2.0, "N": (10000, 10002), "k": (1, 2000)},
        "lower": {"c": 1.0, "K": 12000, "N": (10000, 10002), "k": (12000, 20000)},
        "series_k": 1000,
    },
}
SERIES = {"h": {}, "B": {}, "M": {"A": 8}, "S": {"alpha": 0.01}}  # keyword arguments per series
REGIMES_SWEEP = ("0.25", "0.30", "0.325", "0.35", "0.375", "0.40", "0.41", "0.42")
REGIMES_TOL = "1e-12"
SUPERCRITICAL_P = "0.7"

# Values the outputs must reproduce, per workload and size.
REFERENCE = {
    "exact-critical": {
        "full": {
            "tail_mass": 2.642018284009411e-14,
            "survival": {
                10: 0.8350423633936871,
                100: 0.6057655858705354,
                1000: 0.3017939584039453,
                10000: 0.012929632071876633,
                100000: 3.533151784798991e-14,
                1000000: 2.642019092327925e-14,
            },
        },
        "tiny": {
            "tail_mass": 1.3776913728045382e-16,
            "survival": {
                10: 0.6262228303329509,
                100: 0.1254987620288157,
                1000: 2.474681256894712e-13,
            },
        },
    },
    "certify": {
        "full": {
            "upper_min_margin": 0.0,
            "upper_gamma": 0.056731589164804495,
            "lower_min_margin": 1.5571660884599464e-06,
            "series": {
                "h": 1.644925740153056,
                "B": 2.403990974565919,
                "M": 1.5157869141686648,
                "S": 0.00012662207609749626,
            },
        },
        "tiny": {
            "upper_min_margin": 0.0,
            "upper_gamma": 0.07297777581764092,
            "lower_min_margin": 1.5721481774902749e-06,
            "series": {
                "h": 1.6400604679110635,
                "B": 2.3655467075336607,
                "M": 1.5119547253009413,
                "S": 0.00014458553715768077,
            },
        },
    },
}

EXACT_ATOL = 1e-12          # survival and tail against the reference
NORM_ATOL = 1e-9            # sum(pmf) + tail == 1
CERTIFY_RTOL = 1e-9
MC_MAX_CDF_GAP = 0.002      # acceptance criterion 3 of the library's suite
MC_MIN_CHI2_P = 0.001
REGIMES_ATOL = 1e-10


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check of the payload it writes."""

    argv: tuple             # arguments of ``minplustree.cli.main``
    output: str             # payload file name, relative to the run's directory
    check: Callable[[str], Optional[str]]  # payload path -> None, or why it is wrong


def calls(workload: str, size: str, seed: int, refs: dict = REFERENCE) -> list:
    """The CLI calls of one repetition of ``workload``; outputs are relative
    names that the caller joins to its payload directory."""
    if workload == "exact-critical":
        return _exact_calls(size, refs)
    if workload == "montecarlo":
        return _montecarlo_calls(size, seed)
    if workload == "certify":
        return _certify_calls(size, refs)
    if workload == "regimes-sweep":
        return _regimes_calls()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# exact-critical


def _exact_calls(size: str, refs: dict) -> list:
    cfg = EXACT[size]
    ref = refs["exact-critical"][size]
    argv = ("evolve", "--N", str(cfg["N"]), "--p", "0.5", "--kmax", str(cfg["kmax"]),
            "--format", "csv")
    return [Call(argv, "evolve.csv", lambda path: check_exact_csv(path, cfg["kmax"], ref))]


def check_exact_csv(path: str, kmax: int, ref: dict) -> Optional[str]:
    rows = _load_csv(path, columns=3)
    if isinstance(rows, str):
        return rows
    k, pmf, surv = rows[:, 0], rows[:, 1], rows[:, 2]
    if k.size != kmax or np.any(k != np.arange(1, kmax + 1)):
        return f"expected rows k = 1..{kmax}, got {k.size} rows"
    if pmf.min() < 0.0:
        return f"negative pmf {pmf.min()!r}"
    if abs(surv[0] - 1.0) > NORM_ATOL:
        return f"survival at k = 1 is {surv[0]!r}, not 1"
    if np.any(np.diff(surv) > 0.0):
        return "survival increases"
    tail = float(surv[-1] - pmf[-1])
    total = float(pmf.sum()) + tail
    if abs(total - 1.0) > NORM_ATOL:
        return f"sum(pmf) + tail = {total!r}"
    if abs(tail - ref["tail_mass"]) > EXACT_ATOL:
        return f"tail mass {tail!r}, reference {ref['tail_mass']!r}"
    for kk, want in ref["survival"].items():
        got = float(surv[kk - 1])
        if abs(got - want) > EXACT_ATOL:
            return f"survival at k = {kk} is {got!r}, reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# montecarlo


def _montecarlo_calls(size: str, seed: int) -> list:
    cfg = MONTECARLO[size]
    argv = ("sample", "--depth", str(cfg["depth"]), "--p", "0.5",
            "--samples", str(cfg["samples"]), "--seed", str(seed),
            "--workers", str(cfg["workers"]), "--format", "csv")
    return [Call(argv, "sample.csv",
                 lambda path: check_sample_csv(path, cfg["depth"], cfg["samples"]))]


def exact_law(depth: int) -> np.ndarray:
    """P(X = k) at p = 1/2 for k = 0..2^(depth-1), full support, slot 0 zero.

    Written independently of the library: the sum part is a direct
    self-convolution, the min part a difference of squared survivals.
    """
    probs = np.array([0.0, 1.0])
    for _ in range(depth - 1):
        size = 2 * probs.size - 1
        plus = np.convolve(probs, probs)
        surv = np.cumsum(probs[::-1])[::-1]           # P(X >= k)
        surv_sq = np.zeros(size + 1)
        surv_sq[: surv.size] = surv * surv
        minimum = surv_sq[:size] - surv_sq[1 : size + 1]
        probs = 0.5 * (plus + minimum)
    return probs


def check_sample_csv(path: str, depth: int, n: int) -> Optional[str]:
    rows = _load_csv(path, columns=2)
    if isinstance(rows, str):
        return rows
    values, counts = rows[:, 0].astype(np.int64), rows[:, 1]
    if int(counts.sum()) != n:
        return f"counts sum to {int(counts.sum())}, not {n}"
    law = exact_law(depth)
    if values.min() < 1 or values.max() >= law.size:
        return f"value outside the support 1..{law.size - 1}"
    observed = np.zeros(law.size)
    np.add.at(observed, values, counts)
    gap = float(np.max(np.abs(np.cumsum(observed) / n - np.cumsum(law))))
    if not gap < MC_MAX_CDF_GAP:
        return f"sup CDF gap {gap:.3e} >= {MC_MAX_CDF_GAP}"
    pvalue = _chi_square_pvalue(observed[1:], law[1:] * n)
    if not pvalue > MC_MIN_CHI2_P:
        return f"chi-square p-value {pvalue:.3e} <= {MC_MIN_CHI2_P}"
    return None


def _chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    # Pool adjacent bins in ascending value until each expects at least 5.
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    if obs:
        obs[-1] += acc_o
        exp[-1] += acc_e
    obs_a, exp_a = np.array(obs), np.array(exp)
    stat = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    from scipy.special import chdtrc

    return float(chdtrc(max(obs_a.size - 1, 1), stat))


# ---------------------------------------------------------------------------
# certify


def _certify_calls(size: str, refs: dict) -> list:
    cfg = CERTIFY[size]
    ref = refs["certify"][size]
    up, lo = cfg["upper"], cfg["lower"]
    upper = ("bounds", "--model", "upper", "--C", str(up["C"]), "--beta", str(up["beta"]),
             "--N-range", "%d:%d" % up["N"], "--k-range", "%d:%d" % up["k"])
    lower = ("bounds", "--model", "lower", "--c", str(lo["c"]), "--K", str(lo["K"]),
             "--N-range", "%d:%d" % lo["N"], "--k-range", "%d:%d" % lo["k"])
    out = [
        Call(upper, "bounds-upper.json", lambda path: check_upper_json(path, ref)),
        Call(lower, "bounds-lower.json", lambda path: check_lower_json(path, ref)),
    ]
    for fn, kwargs in SERIES.items():
        extra = [arg for key, value in kwargs.items() for arg in (f"--{key}", str(value))]
        argv = ("series", "--fn", fn, "--k", str(cfg["series_k"]), *extra)
        out.append(Call(argv, f"series-{fn}.json",
                        lambda path, fn=fn: check_series_json(path, fn, ref)))
    return out


def certify_cells(size: str) -> int:
    """(N, k) residual cells of both scans of ``certify``."""
    total = 0
    for scan in ("upper", "lower"):
        (n_lo, n_hi), (k_lo, k_hi) = CERTIFY[size][scan]["N"], CERTIFY[size][scan]["k"]
        total += (n_hi - n_lo + 1) * (k_hi - k_lo + 1)
    return total


def _close(got, want: float) -> bool:
    if not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= CERTIFY_RTOL * abs(want) if want else got == 0.0


def check_upper_json(path: str, ref: dict) -> Optional[str]:
    report = _load_json(path)
    if isinstance(report, str):
        return report
    if report.get("n_violations") != 0:
        return f"upper scan reports {report.get('n_violations')} violations"
    if not _close(report.get("min_margin"), ref["upper_min_margin"]):
        return f"upper min_margin {report.get('min_margin')!r}, reference {ref['upper_min_margin']!r}"
    if not _close(report.get("gamma_estimate"), ref["upper_gamma"]):
        return f"upper gamma {report.get('gamma_estimate')!r}, reference {ref['upper_gamma']!r}"
    return None


def check_lower_json(path: str, ref: dict) -> Optional[str]:
    report = _load_json(path)
    if isinstance(report, str):
        return report
    if report.get("n_violations") != 0:
        return f"lower scan reports {report.get('n_violations')} violations"
    if report.get("curve_valid") is not True:
        return "lower model is not a valid survival curve"
    if not _close(report.get("min_margin"), ref["lower_min_margin"]):
        return f"lower min_margin {report.get('min_margin')!r}, reference {ref['lower_min_margin']!r}"
    return None


def check_series_json(path: str, fn: str, ref: dict) -> Optional[str]:
    result = _load_json(path)
    if isinstance(result, str):
        return result
    if result.get("satisfied") is not True:
        return f"series {fn} not satisfied: {result}"
    want = ref["series"][fn]
    if not _close(result.get("value"), want):
        return f"series {fn} value {result.get('value')!r}, reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# regimes-sweep


def _regimes_calls() -> list:
    out = []
    for p in REGIMES_SWEEP:
        argv = ("regimes", "--p", p, "--tol", REGIMES_TOL)
        out.append(Call(argv, f"regimes-{p}.json",
                        lambda path, p=float(p): check_subcritical_json(path, p)))
    out.append(Call(("regimes", "--p", SUPERCRITICAL_P), f"regimes-{SUPERCRITICAL_P}.json",
                    lambda path: check_supercritical_json(path, float(SUPERCRITICAL_P))))
    return out


def balance_residual(c: np.ndarray, p: float) -> float:
    """Sup over k = 2..K of the limit-curve balance equation's residual,

        c_k - (1-p) c_k^2 - p * [ sum_{l=1}^{k-2} (c_l - c_{l+1}) c_{k-l} + c_{k-1} ],

    for ``c`` 1-indexed with c[0] padding.
    """
    K = c.size - 1
    worst = 0.0
    for k in range(2, K + 1):
        ell = np.arange(1, k - 1)
        bracket = c[k - 1] + float(np.dot(c[ell] - c[ell + 1], c[k - ell]))
        worst = max(worst, abs(c[k] - (1.0 - p) * c[k] ** 2 - p * bracket))
    return worst


def check_subcritical_json(path: str, p: float) -> Optional[str]:
    report = _load_json(path)
    if isinstance(report, str):
        return report
    if report.get("classification") != "subcritical":
        return f"p = {p} classified {report.get('classification')!r}"
    curve = report.get("limit_survival")
    if not isinstance(curve, list) or len(curve) < 2:
        return f"p = {p}: no limit survival curve"
    c = np.array([1.0, *curve], dtype=float)
    gap = abs(c[2] - p / (1.0 - p))
    if not gap <= REGIMES_ATOL:
        return f"p = {p}: |c_2 - p/(1-p)| = {gap:.3e}"
    residual = balance_residual(c, p)
    if not residual <= REGIMES_ATOL:
        return f"p = {p}: stationarity residual {residual:.3e}"
    return None


def check_supercritical_json(path: str, p: float) -> Optional[str]:
    report = _load_json(path)
    if isinstance(report, str):
        return report
    if report.get("classification") != "supercritical":
        return f"p = {p} classified {report.get('classification')!r}"
    base = report.get("growth_base")
    if not isinstance(base, (int, float)) or abs(base - 2.0 * p) > 1e-12:
        return f"p = {p}: growth_base {base!r}, expected {2.0 * p!r}"
    return None


# ---------------------------------------------------------------------------
# payload readers: a missing or malformed payload is a failed check


def _load_csv(path: str, columns: int):
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return f"unreadable CSV: {exc}"
    if rows.shape[1] != columns or not np.all(np.isfinite(rows)):
        return f"CSV is not {columns} finite columns"
    return rows


def _load_json(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable JSON: {exc}"
    if not isinstance(data, dict):
        return "JSON payload is not an object"
    return data

