"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from minplustree.bounds import (
    LowerStepModel,
    UpperModel,
    b_sequence,
    certify_lower,
    certify_upper,
    f_eval,
    f_grad,
)
from minplustree.cli import main
from minplustree.distribution import (
    CRITICAL_C,
    SurvivalCurve,
    TruncationPolicy,
    evolve,
    point_mass_initial,
    step_pmf,
    step_survival,
)
from minplustree.regimes import limit_survival, supercritical_growth
from minplustree.series import B, M, S_alpha, S_alpha_bound, h
from minplustree.simulate import SimConfig, compare_to_exact, run
from minplustree.series import PI2_OVER_6

from enum_oracle import enumerate_pmf


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}  ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_exact_enumeration():
    t0 = time.time()
    worst_exact = 0.0
    worst_float = 0.0
    for p in (0.3, 0.5, 0.7):
        for depth in (1, 2, 3, 4):
            oracle = enumerate_pmf(depth, Fraction(p))
            m = evolve(depth, p, TruncationPolicy(k_max=max(2, 2 ** (depth - 1))))
            gap = max(
                abs(float(oracle.get(k, Fraction(0))) - m.probs[k])
                for k in range(1, m.k_max + 1)
            )
            if p == 0.5:
                worst_exact = max(worst_exact, gap)
            else:
                worst_float = max(worst_float, gap)
    elapsed = time.time() - t0
    # dyadic runs reproduce the rational oracle bit for bit; the others are
    # exact to double precision
    ok = worst_exact == 0.0 and worst_float < 1e-14 and elapsed < 1.0
    report(
        1,
        "exact enumeration",
        ok,
        f"dyadic gap {worst_exact:.1e}, float gap {worst_float:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_dual_recurrence():
    t0 = time.time()
    pol = TruncationPolicy(k_max=4096)
    m = point_mass_initial(0.5)
    vals = np.zeros(257)
    vals[0] = vals[1] = 1.0
    s = SurvivalCurve(values=vals, tail_floor=0.0, level=1)
    worst = 0.0
    for _ in range(11):
        m = step_pmf(m, pol)
        s = step_survival(s)
        worst = max(worst, float(np.max(np.abs(m.survival().values[:257] - s.values))))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    report(2, "dual recurrence", ok, f"sup gap {worst:.2e} over N<=12 k<=256, {elapsed:.2f}s")


def test_criterion_3_monte_carlo_agreement():
    t0 = time.time()
    exact = evolve(10, 0.5, TruncationPolicy(k_max=512))
    summary = run(SimConfig(depth=10, p_plus=0.5, n_samples=1_000_000, seed=42, workers=4))
    rep = compare_to_exact(summary, exact)
    elapsed = time.time() - t0
    ok = rep.max_abs_cdf_gap < 0.002 and rep.chi2_pvalue > 0.001 and elapsed < 30.0
    report(
        3,
        "Monte Carlo vs exact",
        ok,
        f"cdf gap {rep.max_abs_cdf_gap:.5f}, chi2 p {rep.chi2_pvalue:.4f} "
        f"(dof {rep.chi2_dof}), {elapsed:.1f}s",
    )


def test_criterion_4_reference_constants():
    t0 = time.time()
    b = b_sequence(150)
    ok_values = abs(b[2] - 2.0) < 1e-12 and abs(b[3] - (1 + math.sqrt(5))) < 1e-12
    kk = np.arange(2, 151)
    ok_floor = bool(np.all(b[2:] > 3 * np.log(kk) ** 2 / math.pi**2))
    ell = np.arange(3, 121, dtype=float)
    e = np.log(ell + 1) ** 2 - np.log(ell) ** 2 - 2 * np.log(ell) / ell
    tangent_sum = float(np.sum(2 * ell * e))
    a = b_sequence(12000)
    kk = np.arange(33, 12001)
    ok_window = bool(np.all(a[33:] <= np.log(kk) ** 2))
    elapsed = time.time() - t0
    ok = ok_values and ok_floor and tangent_sum < -7.0 and ok_window and elapsed < 5.0
    report(
        4,
        "reference constants",
        ok,
        f"b2={b[2]}, b3={b[3]:.12f}, floor ok {ok_floor}, "
        f"tangent sum {tangent_sum:.3f}, window ok {ok_window}, {elapsed:.2f}s",
    )


def test_criterion_5_series_bounds():
    t0 = time.time()
    grid = [2, 3, 5, 10, 100, 1_000, 10_000, 100_000, 1_000_000]
    h_vals = {k: h(k) for k in grid}
    ok_h = all(v <= PI2_OVER_6 + 1e-12 for v in h_vals.values())
    ok_h &= h_vals[1_000_000] > 1.64 and h_vals[10_000] >= 1.5
    ok_b = all(B(k) < 12.0 for k in grid)
    ok_s = all(S_alpha(k, 0.01) <= S_alpha_bound(k, 0.01, eps=0.1) for k in (100, 10_000, 1_000_000))
    m_val = M(8, 1_000_000)
    ok_m = m_val >= PI2_OVER_6 - PI2_OVER_6 / 8 - 0.01
    elapsed = time.time() - t0
    ok = ok_h and ok_b and ok_s and ok_m and elapsed < 60.0
    report(
        5,
        "series bounds",
        ok,
        f"h(1e6)={h_vals[1_000_000]:.6f}, max B ok {ok_b}, S ok {ok_s}, "
        f"M(8,1e6)={m_val:.4f}, {elapsed:.1f}s",
    )


def test_criterion_6_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(4096)
    worst = 0.0
    step = 1e-6
    for k in (2, 5, 20, 100):
        for _ in range(1000):
            x = np.sort(rng.random(k))[::-1]
            g = f_grad(x)
            assert g.min() >= 0.0
            fd = np.empty(k)
            for j in range(k):
                xp, xm = x.copy(), x.copy()
                xp[j] += step
                xm[j] -= step
                fd[j] = (f_eval(xp) - f_eval(xm)) / (2 * step)
            worst = max(worst, float(np.linalg.norm(fd - g) / np.linalg.norm(g)))
    elapsed = time.time() - t0
    ok = worst < 1e-5
    report(6, "gradient check", ok, f"worst rel err {worst:.2e} on 4000 points, {elapsed:.1f}s")


def test_criterion_7_limit_law_trend(critical_chain):
    # the budget times the evolution itself, which the session fixture runs
    d = critical_chain.diagnostics
    elapsed = critical_chain.seconds_to_60
    ks = [d[n].ks_distance for n in (10, 20, 40, 60)]
    means = [d[n].mean_scaled for n in (10, 20, 40, 60)]
    ok_ks = all(a > b for a, b in zip(ks, ks[1:]))
    ok_mean = 0.6 < means[-1] < 1.21 and all(a < b for a, b in zip(means, means[1:]))
    ok = ok_ks and ok_mean and elapsed < 600.0
    report(
        7,
        "limit-law trend",
        ok,
        f"ks {['%.4f' % v for v in ks]}, mean_scaled(60)={means[-1]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_bound_certificates():
    t0 = time.time()
    # minorization by 1 - a_k/N for k <= 150: onset found by scan is N = 20,
    # where the array first becomes a valid survival curve
    a = b_sequence(151)
    low = LowerStepModel(b=a, K=151, c=1.0)
    rep_low = certify_lower(low, (20, 70), 150)
    ok_low = rep_low.min_margin >= 0.0 and rep_low.curve_valid

    up = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    rep_up = certify_upper(up, (10_000, 10_050), 10_000)
    ok_up = rep_up.min_margin >= 0.0

    bad = UpperModel(C=0.8 * CRITICAL_C, beta=2.0)
    rep_bad = certify_upper(bad, (10_000, 10_050), 10_000)
    ok_detect = rep_bad.min_margin < 0.0 and rep_bad.first_violation is not None

    elapsed = time.time() - t0
    ok = ok_low and ok_up and ok_detect and elapsed < 300.0
    report(
        8,
        "bound certificates",
        ok,
        f"lower min {rep_low.min_margin:.2e}, upper min {rep_up.min_margin:.2e} "
        f"(gamma {rep_up.gamma_estimate:.3f}), subcritical first violation "
        f"{rep_bad.first_violation}, {elapsed:.1f}s",
    )


def test_criterion_9_regimes():
    t0 = time.time()
    c = limit_survival(0.4, k_max=8, tol=1e-7)
    ok_sub = abs(c[2] - 2 / 3) < 1e-6

    means = supercritical_growth(0.6, 20)
    ok_growth = bool(np.all(means[1:] >= 1.2 ** (np.arange(1, 21) - 1.0)))

    exact = supercritical_growth(1.0, 20)
    ok_doubling = all(exact[n] == 2.0 ** (n - 1) for n in range(1, 21))

    elapsed = time.time() - t0
    ok = ok_sub and ok_growth and ok_doubling and elapsed < 60.0
    report(
        9,
        "off-critical regimes",
        ok,
        f"|c2-2/3|={abs(c[2]-2/3):.2e}, growth floor ok {ok_growth}, "
        f"doubling exact {ok_doubling}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["sample", "--depth", "10", "--p", "0.5", "--samples", "100000",
                   "--seed", "42", "--workers", "8", "--output", str(out)])
        assert rc == 0
    identical = a.read_bytes() == b.read_bytes()
    elapsed = time.time() - t0
    report(10, "seeded determinism", identical, f"byte-identical outputs, {elapsed:.1f}s")
