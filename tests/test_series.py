import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest

from minplustree import series
from minplustree.distribution import TruncationPolicy, evolve
from minplustree.series import (
    LIMIT_MEAN,
    PI2_OVER_6,
    B,
    LimitDiagnostics,
    M,
    S_alpha,
    S_alpha_bound,
    diagnose,
    evaluate,
    h,
    limit_cdf,
)

K_GRID = [2, 3, 5, 10, 47, 100, 1_000, 10_000, 123_456, 1_000_000]


def test_h_small_values():
    assert h(1) == 0.0
    assert h(2) == pytest.approx(math.log(2), abs=1e-15)


def test_h_bounded_and_nondecreasing():
    vals = [h(k) for k in K_GRID]
    assert all(v <= PI2_OVER_6 + 1e-12 for v in vals)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # dense check over the small range
    dense = [h(k) for k in range(2, 200)]
    assert all(a <= b for a, b in zip(dense, dense[1:]))


def test_h_limit_values():
    assert h(10_000) >= 1.5
    assert h(1_000_000) > 1.64


def test_B_single_term():
    assert B(2) == pytest.approx(math.log(0.5) ** 2, abs=1e-15)


def test_B_uniform_bound():
    vals = [B(k) for k in K_GRID]
    assert all(v < 12.0 for v in vals)
    assert all(v * math.log(k) <= 12.0 * math.log(k) for v, k in zip(vals, K_GRID))


def test_M_degenerate_window():
    assert M(1, 5) == 0.0


def test_M_window_bound():
    bound = PI2_OVER_6 - PI2_OVER_6 / 8 - 0.01
    assert M(8, 1_000_000) >= bound


def test_M_below_h():
    for k in (50, 1_000, 100_000):
        for A in (2, 8, 20):
            assert M(A, k) <= h(k) + 1e-12


def test_M_decomposition_of_h():
    # the window plus its complementary head recovers the full series
    for A, k in ((7, 12_345), (8, 1_000), (3, 999)):
        j = np.arange(1, k // A, dtype=float)
        head = float(np.sum(-np.log1p(-j / k) / j)) if j.size else 0.0
        assert M(A, k) + head == pytest.approx(h(k), abs=1e-10)


def test_S_alpha_single_term():
    for alpha in (0.05, 0.3, 0.49):
        assert S_alpha(2, alpha) == pytest.approx((1 - 2**-alpha) ** 2, abs=1e-15)


def test_S_alpha_bound_small_alpha():
    for k in (100, 10_000, 1_000_000):
        assert S_alpha(k, 0.01) <= S_alpha_bound(k, 0.01, eps=0.1)


def test_S_alpha_decreasing_in_k():
    # the series peaks near k = 100 before the k^(-2 alpha) envelope takes
    # over; the scan grid starts past the peak
    vals = [S_alpha(k, 0.05) for k in (100, 1_000, 10_000, 100_000, 1_000_000)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_S_alpha_domain():
    with pytest.raises(ValueError):
        S_alpha(10, 0.7)
    with pytest.raises(ValueError):
        S_alpha(1, 0.1)


def test_series_k_above_limit_refused_before_allocation():
    # a series takes 25 B per term: 171,798,691 terms fit the byte budget, one more does not
    t0 = time.perf_counter()
    series._check_k(171_798_691, 1)
    k = 171_798_692
    for call in (lambda: h(k), lambda: B(k), lambda: M(8, k), lambda: S_alpha(k, 0.1),
                 lambda: evaluate("h", k)):
        with pytest.raises(ValueError, match=f"a series of k = {k} terms .* more than the limit"):
            call()
    assert time.perf_counter() - t0 < 0.1


def test_series_nonnegative():
    assert h(17) >= 0 and B(17) >= 0 and M(4, 17) >= 0 and S_alpha(17, 0.2) >= 0


# the sums as single expressions, with one temporary per operation
def _h_reference(k):
    ell = np.arange(1, k, dtype=float)
    return float(np.sum(-np.log1p(-ell / k) / ell))


def _B_reference(k):
    j = np.arange(1, k, dtype=float)
    return float(np.sum(np.log1p(-j / k) ** 2 / j))


def _M_reference(A, k):
    j = np.arange(max(k // A, 1), k, dtype=float)
    return float(np.sum(-np.log1p(-j / k) / j))


def _S_reference(k, alpha):
    ell = np.arange(1, k, dtype=float)
    left = ell**-alpha - (ell + 1.0) ** -alpha
    right = (k - ell) ** -alpha - float(k) ** -alpha
    return float(np.dot(left, right))


@pytest.mark.parametrize("k", [2, 3, 7, 101, 4097, 2**18, 999_983, 1_000_000])
def test_series_equal_to_expression_references(k):
    assert h(k) == _h_reference(k)
    assert B(k) == _B_reference(k)
    for A in (1, 2, 3, 8):
        if A <= k:  # M needs k >= A
            assert M(A, k) == _M_reference(A, k)
    for alpha in (0.01, 0.3, 0.49):
        assert S_alpha(k, alpha) == _S_reference(k, alpha)


def test_series_memory_per_k(admissions):
    k = 2**18
    limits = {
        "h": (lambda: h(k), 17),
        "B": (lambda: B(k), 17),
        "M": (lambda: M(8, k), 17),
        "S": (lambda: S_alpha(k, 0.01), 25),
    }
    for name, (evaluate_at_k, bytes_per_k) in limits.items():
        admissions.clear()
        tracemalloc.start()
        try:
            evaluate_at_k()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bytes_per_k * k, name
        assert peak <= admissions[0][1], name  # the admission's figure is no smaller


def test_evaluate_registry():
    assert evaluate("h", 2).satisfied
    assert evaluate("B", 1000).satisfied
    assert evaluate("M", 1_000_000, A=8).satisfied
    assert evaluate("S", 10_000, alpha=0.01).satisfied
    # M's bound is a lower bound, the others upper bounds
    relations = {"h": "<=", "B": "<", "M": ">=", "S": "<="}
    for name, rel in relations.items():
        assert evaluate(name, 100, alpha=0.01, A=8).relation == rel
    with pytest.raises(ValueError):
        evaluate("S", 10)
    with pytest.raises(ValueError):
        evaluate("M", 10)
    with pytest.raises(ValueError):
        evaluate("nope", 10)


def test_limit_cdf_branches():
    assert limit_cdf(0.5) == 0.25
    assert limit_cdf(-1.0) == 0.0
    assert limit_cdf(2.0) == 1.0
    assert limit_cdf(1.0) == 1.0
    np.testing.assert_allclose(limit_cdf(np.array([-1, 0.5, 2])), [0, 0.25, 1])


def test_limit_mean_constant():
    assert LIMIT_MEAN == pytest.approx(2 * math.pi / (3 * math.sqrt(3)), abs=1e-15)


# ---------------------------------------------------------------------------
# diagnostics against the exact distribution


def test_diagnose_rejects_off_critical():
    m = evolve(4, 0.4, TruncationPolicy(k_max=8))
    with pytest.raises(ValueError):
        diagnose(m)


def test_diagnose_two_point_level():
    d = diagnose(evolve(2, 0.5, TruncationPolicy(k_max=2)))
    # a two-point law cannot track a continuous CDF; just recorded
    assert 0.0 <= d.ks_distance <= 1.0
    assert d.target_mean == LIMIT_MEAN


def test_limit_diagnostics_fields_are_measured_values():
    # the target is the limit law's constant, not a field a caller sets
    assert [f.name for f in dataclasses.fields(LimitDiagnostics)] == [
        "N", "ks_distance", "mean_scaled"
    ]
    assert LimitDiagnostics.target_mean == LIMIT_MEAN


def test_ks_distance_quadruple_level(critical_chain):
    d = critical_chain.diagnostics
    for n in (10, 15, 20):
        assert d[4 * n].ks_distance < d[n].ks_distance


def test_mean_scaled_increases(critical_chain):
    d = critical_chain.diagnostics
    means = [d[n].mean_scaled for n in (10, 20, 40, 60)]
    assert all(a < b for a, b in zip(means, means[1:]))
    assert means[-1] < LIMIT_MEAN
