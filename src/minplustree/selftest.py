"""Built-in quick checks for the CLI selftest command.

A trimmed, dependency-free version of the test suite: every check re-derives
its expected value from an independent route (hand enumeration, finite
differences, closed forms) and compares against the library.  Each check
returns (name, ok, detail); the CLI prints one line per check.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from . import bounds, regimes, series, simulate
from .distribution import (
    SurvivalCurve,
    TruncationPolicy,
    evolve,
    moments,
    point_mass_initial,
    step_pmf,
    step_survival,
)

CheckResult = Tuple[str, bool, str]


def _check_depth3_enumeration() -> CheckResult:
    # all 8 sign choices of the depth-3 tree give pmf (3, 2, 2, 1)/8
    m = evolve(3, 0.5, TruncationPolicy(k_max=4))
    expected = np.array([0.0, 3 / 8, 2 / 8, 2 / 8, 1 / 8])
    gap = float(np.max(np.abs(m.probs - expected)))
    return "depth-3 exact pmf", gap == 0.0 and m.tail_mass == 0.0, f"max gap {gap:.1e}"


def _check_dual_recurrence() -> CheckResult:
    pol = TruncationPolicy(k_max=1024)
    m = point_mass_initial(0.5, 2)
    vals = np.zeros(129)
    vals[0] = vals[1] = 1.0
    s = SurvivalCurve(values=vals, tail_floor=0.0, level=1)
    worst = 0.0
    for _ in range(9):
        m = step_pmf(m, pol)
        s = step_survival(s)
        worst = max(worst, float(np.max(np.abs(m.survival().values[:129] - s.values))))
    return "pmf/survival dual recurrence", worst < 1e-10, f"worst gap {worst:.2e}"


def _check_sequences() -> CheckResult:
    b = bounds.b_sequence(150)
    ok = b[1] == 0.0 and abs(b[2] - 2.0) < 1e-12 and abs(b[3] - (1 + math.sqrt(5))) < 1e-12
    kk = np.arange(2, 151)
    ok &= bool(np.all(b[2:] > 3 * np.log(kk) ** 2 / math.pi**2))
    return "constant sequence values and floor", ok, f"b2={b[2]}, b3={b[3]:.12f}"


def _check_tangent_sum() -> CheckResult:
    v = series.weighted_tangent_error_sum(3, 120)
    return "weighted tangent-error sum below -7", v < -7.0, f"sum = {v:.4f}"


def _check_gradient() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = np.sort(rng.random(20))[::-1]
        g = bounds.f_grad(x)
        if g.min() < 0:
            return "gradient vs finite differences", False, "negative gradient entry"
        fd = np.empty(20)
        for j in range(20):
            xp = x.copy()
            xm = x.copy()
            xp[j] += 1e-6
            xm[j] -= 1e-6
            fd[j] = (bounds.f_eval(xp) - bounds.f_eval(xm)) / 2e-6
        worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    return "gradient vs finite differences", worst < 1e-5, f"worst rel err {worst:.2e}"


def _check_series_bounds() -> CheckResult:
    ok = abs(series.h(2) - math.log(2)) < 1e-12
    ok &= series.h(10_000) >= 1.5
    ok &= all(series.h(k) <= math.pi**2 / 6 + 1e-12 for k in (2, 10, 100, 10_000))
    ok &= all(series.evaluate("S", k, alpha=0.01).satisfied for k in (100, 10_000))
    ok &= series.evaluate("B", 10_000).satisfied
    return "series values and bounds", ok, f"h(2)={series.h(2):.6f}"


def _check_sample_reproducibility() -> CheckResult:
    cfg = simulate.SimConfig(depth=6, p_plus=0.5, n_samples=20_000, seed=123, workers=3)
    a = simulate.run(cfg)
    b = simulate.run(cfg)
    if a.counts != b.counts:
        return "seeded sampling reproducibility", False, "counts differ between runs"
    emp = a.counts.get(2, 0) / a.n
    # depth 2 at p=1/2 forces P(X=2) = 1/2; at depth 6 compare against exact DP
    exact = evolve(6, 0.5, TruncationPolicy(k_max=32))
    rep = simulate.compare_to_exact(a, exact)
    return (
        "seeded sampling reproducibility",
        rep.max_abs_cdf_gap < 0.02,
        f"cdf gap {rep.max_abs_cdf_gap:.4f}, p(2)={emp:.3f}",
    )


def _check_regimes() -> CheckResult:
    c = regimes.limit_survival(0.4, k_max=4, tol=1e-6)
    res = regimes.stationarity_residual(c, 0.4)
    ok = abs(c[2] - 2 / 3) < 1e-4 and res < 1e-12
    means = regimes.supercritical_growth(1.0, 8)
    ok &= all(means[n] == 2.0 ** (n - 1) for n in range(1, 9))
    return "regime fixed point and growth", ok, f"c2 err {abs(c[2] - 2/3):.2e}, residual {res:.1e}"


def _check_moments() -> CheckResult:
    m = evolve(3, 0.5, TruncationPolicy(k_max=4))
    mom = moments(m)
    ok = abs(mom.mean_x - 17 / 8) < 1e-15 and not mom.truncated
    return "level-3 moments", ok, f"mean {mom.mean_x}"


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    _check_depth3_enumeration,
    _check_dual_recurrence,
    _check_sequences,
    _check_tangent_sum,
    _check_gradient,
    _check_series_bounds,
    _check_sample_reproducibility,
    _check_regimes,
    _check_moments,
]


def run_all() -> List[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            results.append((check.__name__, False, f"error: {exc}"))
    return results
