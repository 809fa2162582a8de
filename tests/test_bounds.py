import json
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minplustree import bounds
from minplustree.bounds import (
    CertificateReport,
    LowerStepModel,
    UpperModel,
    b_sequence,
    certify_lower,
    certify_upper,
    f_eval,
    f_grad,
    lower_model_validity,
    lower_model_values,
    recurrence_rhs,
    sandwich_check,
    upper_model_values,
    _first_invalid,
)
from minplustree.distribution import (
    CRITICAL_C,
    DIRECT_CONV_MAX,
    TruncationPolicy,
    _cross_term,
    evolve,
)

RNG = np.random.default_rng(2024)


def random_sk(k, rng=RNG):
    return np.sort(rng.random(k))[::-1]


def make_log_splice(k_bar, c):
    # a_k = b_k head below 33, squared log up to the threshold
    b = np.zeros(k_bar)
    a = b_sequence(32)
    b[1:33] = a[1:33]
    b[33:] = np.log(np.arange(33, k_bar)) ** 2
    return LowerStepModel(b=b, K=k_bar, c=c)


# ---------------------------------------------------------------------------
# the functional and its gradient


def test_f_eval_single_coordinate():
    assert f_eval([0.7]) == 0.7


def test_f_eval_hand_value():
    assert f_eval([1.0, 0.5]) == 0.625


def test_f_eval_reproduces_next_level():
    # applying the functional to the exact survival prefix advances the level
    from minplustree.distribution import point_mass_initial, step_pmf

    pol = TruncationPolicy(k_max=2048)
    m = point_mass_initial(0.5, k_max=2048)
    for _ in range(11):
        nxt = step_pmf(m, pol)
        sp, sn = m.survival().values, nxt.survival().values
        for k in (1, 2, 3, 10, 50, 128):
            assert f_eval(sp[1 : k + 1]) == pytest.approx(sn[k], abs=1e-12)
        m = nxt


def test_f_grad_hand_value():
    g = f_grad([1.0, 0.5])
    assert g[1] == 0.5  # 1 - x1 + x2


def test_f_grad_nonnegative_on_sk():
    for k in (2, 5, 20, 100):
        for _ in range(50):
            assert f_grad(random_sk(k)).min() >= 0.0


def test_f_grad_matches_finite_differences():
    h = 1e-6
    for k in (2, 5, 20):
        for _ in range(40):
            x = random_sk(k)
            g = f_grad(x)
            fd = np.empty(k)
            for j in range(k):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[j] = (f_eval(xp) - f_eval(xm)) / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6


def test_f_monotone_on_sk():
    # componentwise smaller nonincreasing input gives a smaller value
    for k in (3, 10, 40):
        for _ in range(60):
            y = random_sk(k)
            x = np.minimum(y, random_sk(k))
            assert f_eval(x) <= f_eval(y) + 1e-12


def test_recurrence_rhs_matches_f():
    # K = 5000 is above the direct cutoff, so it checks the FFT branch
    for K, ks in ((60, (2, 13, 60)), (5000, (2, 13, 4097, 5000))):
        q = np.concatenate(([1.0], random_sk(K)))
        rhs = recurrence_rhs(q)
        for k in ks:
            assert rhs[k] == pytest.approx(f_eval(q[1 : k + 1]) - q[k], abs=1e-12)


def test_recurrence_rhs_one_shot_arrays():
    # the public call never hands out a buffer that a later call overwrites;
    # K = 5000 takes the FFT branch, whose convolution is a view of its block
    for K in (60, 5000):
        q = np.concatenate(([1.0], random_sk(K)))
        q2 = np.concatenate(([1.0], random_sk(K)))
        a = recurrence_rhs(q)
        a_copy = a.copy()
        b = recurrence_rhs(q2)
        assert a is not b and not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, a_copy)
        want = np.zeros(K + 1)
        want[2:] = 0.5 * (_cross_term(q) - q[2:] * (q[1] - q[2:]))
        np.testing.assert_array_equal(a, want)


# ---------------------------------------------------------------------------
# constant sequences


def test_b_sequence_first_values():
    b = b_sequence(3)
    assert b[1] == 0.0
    assert b[2] == 2.0
    assert b[3] == pytest.approx(1 + math.sqrt(5), abs=1e-12)


def test_b3_by_direct_substitution():
    # d_3 = (b_2 - b_1) * b_2 = 4, so b_3 = 1 + sqrt(5)
    b = b_sequence(3)
    d3 = (b[2] - b[1]) * b[2]
    assert d3 == 4.0
    assert b[3] == 1 + math.sqrt(1 + d3)


def test_b_sequence_dominates_critical_floor():
    b = b_sequence(150)
    kk = np.arange(2, 151)
    assert np.all(b[2:] > 3 * np.log(kk) ** 2 / math.pi**2)


def test_a_below_squared_log_in_window():
    a = b_sequence(12000)
    kk = np.arange(33, 12001)
    assert np.all(a[33:] <= np.log(kk) ** 2)


# ---------------------------------------------------------------------------
# upper model


def _upper_smooth_formula(m, N, log_k):
    """The first branch's formula 1 - log(k)^2 / (N C), regardless of the junction."""
    return 1.0 - log_k**2 / (N * m.C)


def _upper_tail_formula(m, N, log_k):
    """The second branch's formula, exponential decay beyond the junction.

    The exponent is clamped at 0, which only changes log k below the
    junction, where the first branch applies; it keeps the exponential
    finite there when whole columns are evaluated.
    """
    coef = (2.0 * m.beta * math.sqrt(N * m.C + m.beta**2) - 2.0 * m.beta**2) / (N * m.C)
    return coef * np.exp(np.minimum(-(log_k - m.threshold(N)) / m.beta, 0.0))


def test_upper_model_branches_agree_at_junction():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    for N in (5, 50, 500):
        t = m.threshold(N)
        assert _upper_smooth_formula(m, N, t) == pytest.approx(
            _upper_tail_formula(m, N, t), abs=1e-12
        )


def test_upper_model_k1_is_one():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    assert upper_model_values(m, 7, 1)[1] == 1.0
    assert upper_model_values(m, 7, 10)[1] == 1.0


def test_upper_model_values_follow_scalar_branch_rule():
    # each entry is the branch formula that log k picks against the junction
    for C, beta in ((1.1 * CRITICAL_C, 2.0), (0.8 * CRITICAL_C, 1.5)):
        m = UpperModel(C=C, beta=beta)
        for N in (5, 50):
            vals = upper_model_values(m, N, 99_999)
            for k in (1, 2, 40, 1000, 99_999):
                log_k = np.log(float(k))
                branch = _upper_smooth_formula if log_k < m.threshold(N) else _upper_tail_formula
                assert float(branch(m, N, log_k)) == vals[k]


def test_upper_model_nonincreasing_in_k():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    for N in (4, 9):
        k_hi = int(math.exp(2 * math.sqrt(N * m.C))) + 1
        vals = upper_model_values(m, N, k_hi)
        assert np.all(np.diff(vals[1:]) <= 1e-15)


def test_upper_model_validation():
    with pytest.raises(ValueError):
        UpperModel(C=-1.0, beta=2.0)
    with pytest.raises(ValueError):
        UpperModel(C=4.0, beta=0.0)
    assert UpperModel(C=1.1 * CRITICAL_C, beta=2.0).in_guaranteed_regime
    assert not UpperModel(C=0.5 * CRITICAL_C, beta=2.0).in_guaranteed_regime


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_models_refuse_non_finite_constants(bad):
    # NaN passes a "<= 0" test, and would scan to a report with no violations
    for make in (
        lambda: UpperModel(C=bad, beta=2.0),
        lambda: UpperModel(C=4.0, beta=bad),
        lambda: LowerStepModel(b=np.zeros(2), K=2, c=bad),
        lambda: LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, bad),)),
        # in the head b_2..b_{K-1}, first, inside and last
        lambda: LowerStepModel(b=np.array([0.0, 0.0, bad, 1.0, 2.0]), K=5, c=1.0),
        lambda: LowerStepModel(b=np.array([0.0, 0.0, 1.0, bad, 2.0]), K=5, c=1.0),
        lambda: LowerStepModel(b=np.array([0.0, 0.0, 1.0, 2.0, bad]), K=5, c=1.0),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()


# ---------------------------------------------------------------------------
# lower model


def test_lower_model_branches():
    b = np.array([0.0, 0.0, 2.0, 3.0])
    m = LowerStepModel(b=b, K=4, c=1.0)
    assert lower_model_values(m, 100, 1)[1] == 1.0
    assert lower_model_values(m, 100, 2)[2] == 1.0 - 2.0 / 100
    # beyond exp(sqrt(N c)) the value is zero
    N = 10
    k_zero = int(math.exp(math.sqrt(N * m.c))) + 1
    assert lower_model_values(m, N, k_zero)[k_zero] == 0.0
    vals = lower_model_values(m, N, k_zero + 5)
    assert np.all(vals[k_zero:] == 0.0)


def test_lower_model_junction_continuity():
    # with b_K = log(K)^2 / c the two branches agree at the junction
    K, c = 40, 1.3
    b = np.zeros(K + 1)
    b[1:K] = np.linspace(0.0, math.log(K - 1) ** 2 / c, K - 1)
    b[K] = math.log(K) ** 2 / c
    m = LowerStepModel(b=b, K=K, c=c)
    assert m.junction_gap == pytest.approx(0.0, abs=1e-12)
    N = 1000
    head_end = 1.0 - b[K] / N
    assert lower_model_values(m, N, K)[K] == pytest.approx(head_end, abs=1e-12)


def test_lower_model_rejects_nonzero_b1():
    # q_{N,1} = 1 - b_1 / N must be 1 for the array to be a survival curve
    with pytest.raises(ValueError):
        LowerStepModel(b=np.array([0.0, 0.5, 0.5, 0.6]), K=4, c=1.0)


def test_lower_model_validity_reporting():
    a = b_sequence(151)
    m = LowerStepModel(b=a, K=151, c=1.0)
    # at N = 10 the head dips negative around a_k > 10
    bad = lower_model_validity(m, 10, 150)
    assert bad is not None and bad[0] == 20
    assert lower_model_validity(m, 25, 150) is None


def test_lower_model_step_bands():
    b = np.array([0.0, 0.0])
    m = LowerStepModel(b=b, K=2, c=1.0, steps=((100, 1.5), (1000, 2.0)))
    N = 10_000
    vals = lower_model_values(m, N, 5000)
    for k, c_band in ((50, 1.0), (99, 1.0), (100, 1.5), (1500, 2.0), (5000, 2.0)):
        assert vals[k] == pytest.approx(1.0 - math.log(k) ** 2 / (c_band * N), abs=1e-12)
    with pytest.raises(ValueError):
        LowerStepModel(b=b, K=2, c=1.0, steps=((2, 1.5),))


# ---------------------------------------------------------------------------
# certificates


def test_certify_lower_a_sequence_margin_formula():
    # the defining polynomial collapses the inequality residual to
    # a_k / (N^2 (N+1)); check the grid against that closed form
    a = b_sequence(101)
    m = LowerStepModel(b=a, K=101, c=1.0)
    rep = certify_lower(m, (30, 34), 100, keep_grid=True)
    assert rep.min_margin >= 0.0
    for i, N in enumerate(range(30, 35)):
        expected = a[1:101] / (N**2 * (N + 1))
        np.testing.assert_allclose(rep.residuals[i], expected, atol=1e-12)


def test_certify_lower_a_sequence_onset():
    a = b_sequence(151)
    m = LowerStepModel(b=a, K=151, c=1.0)
    early = certify_lower(m, (10, 15), 150)
    assert early.min_margin >= 0.0 and not early.curve_valid
    late = certify_lower(m, (20, 60), 150)
    assert late.min_margin >= 0.0 and late.curve_valid


def test_certify_lower_k1_residual_zero():
    a = b_sequence(10)
    m = LowerStepModel(b=a, K=10, c=1.0)
    rep = certify_lower(m, (30, 30), (1, 1), keep_grid=True)
    assert rep.residuals[0][0] == 0.0


def test_certify_lower_log_splice_passes_beyond_threshold():
    # squared-log tail model: verified margin above the documented threshold
    m = make_log_splice(12000, 1.0)
    rep = certify_lower(m, (10_000, 10_005), (12_000, 16_000))
    assert rep.min_margin >= 0.0
    assert rep.n_violations == 0


def test_certify_lower_near_critical_band_constant_fails_at_desk_scale():
    # the inequality residual ratio reaches 2c only for astronomically large
    # k when c sits this close to the critical constant, and the band jump
    # itself breaks monotonicity; the certifier must report both honestly
    m = make_log_splice(12000, 0.9 * CRITICAL_C)
    rep = certify_lower(m, (10_000, 10_002), (12_000, 14_000))
    assert rep.min_margin < 0.0
    assert rep.first_violation is not None
    assert not rep.curve_valid
    assert rep.first_invalid_curve[1] == 12000


def test_certify_lower_pure_model_moderate_c():
    # continuous model 1 - log(k)^2/(c N): fine beyond the documented
    # threshold, too optimistic at small k (which is what the head fixes)
    c = 0.8 * CRITICAL_C
    K = 12000
    b = np.zeros(K)
    b[1:] = np.log(np.arange(1, K)) ** 2 / c
    m = LowerStepModel(b=b, K=K, c=c)
    good = certify_lower(m, (10_000, 10_005), (12_000, 16_000))
    assert good.min_margin >= 0.0
    bad = certify_lower(m, (10_000, 10_001), (2, 100))
    assert bad.min_margin < 0.0


def test_certify_upper_guaranteed_regime():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    rep = certify_upper(m, (1_000, 1_010), 500)
    assert rep.min_margin >= 0.0
    assert rep.gamma_estimate is not None and rep.gamma_estimate > 0.0


def test_certify_upper_k1_residual_zero():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    rep = certify_upper(m, (100, 100), (1, 1), keep_grid=True)
    assert rep.residuals[0][0] == 0.0


def test_certify_upper_detects_subcritical_constant():
    m = UpperModel(C=0.5 * CRITICAL_C, beta=2.0)
    rep = certify_upper(m, (100, 105), 100)
    assert rep.min_margin < 0.0
    assert rep.first_violation is not None
    assert rep.n_violations > 0


def test_certify_upper_covers_model_two():
    # small N puts the junction inside the grid; the report is data either way
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    k_hi = int(math.exp(m.threshold(40) + 3))
    rep = certify_upper(m, (30, 40), k_hi)
    assert rep.checked_k == (1, k_hi)
    assert math.isfinite(rep.min_margin)


def _upper_values_reference(m, N, k_max):
    """upper_model_values as both branches over the whole column, then a select."""
    logk = np.zeros(k_max + 1)
    logk[1:] = np.log(np.arange(1, k_max + 1, dtype=float))
    out = np.where(
        logk < m.threshold(N), _upper_smooth_formula(m, N, logk), _upper_tail_formula(m, N, logk)
    )
    out[0] = 1.0
    return out


def _lower_values_reference(m, N, k_max):
    """lower_model_values with a per-slot band constant array."""
    out = np.ones(k_max + 1)
    head_hi = min(m.K - 1, k_max)
    if head_hi >= 1:
        out[1 : head_hi + 1] = 1.0 - m.b[1 : head_hi + 1] / N
    if k_max >= m.K:
        kk = np.arange(m.K, k_max + 1, dtype=float)
        logk = np.log(kk)
        c_band = np.full(kk.size, m.c)
        for threshold, c_r in m.steps:
            c_band[kk >= threshold] = c_r
        vals = 1.0 - logk**2 / (c_band * N)
        vals[logk >= np.sqrt(N * c_band)] = 0.0
        out[m.K :] = vals
    return out


def _certify_reference(values_at, n_range, k_range, direction, model1_mask=None,
                       validity_at=None):
    """The certifiers' column loop with fresh arrays for every level N."""
    (n_lo, n_hi), (k_lo, k_hi) = n_range, k_range
    min_margin, first_violation, n_violations = math.inf, None, 0
    gamma, saw_model1, curve_valid, first_invalid = math.inf, False, True, None
    grid = np.empty((n_hi - n_lo + 1, k_hi - k_lo + 1))
    q = values_at(n_lo, k_hi)
    for N in range(n_lo, n_hi + 1):
        q_next = values_at(N + 1, k_hi)
        res = direction * ((q_next - q) - recurrence_rhs(q))
        col = res[k_lo : k_hi + 1]
        grid[N - n_lo] = col
        min_margin = min(min_margin, float(col.min()))
        bad = np.flatnonzero(col < 0.0)
        n_violations += bad.size
        if bad.size and first_violation is None:
            first_violation = (N, int(bad[0]) + k_lo, float(col[bad[0]]))
        if model1_mask is not None:
            mask = model1_mask(N, k_lo, k_hi)
            if mask.any():
                saw_model1 = True
                kk = np.arange(k_lo, k_hi + 1, dtype=float)[mask]
                gamma = min(gamma, float((col[mask] * N**2 / np.log(kk) ** 2).min()))
        if validity_at is not None and curve_valid:
            invalid = validity_at(N, k_hi)
            if invalid is not None:
                curve_valid, first_invalid = False, (N, invalid[0], invalid[1])
        q = q_next
    return CertificateReport(
        checked_n=(n_lo, n_hi),
        checked_k=(k_lo, k_hi),
        min_margin=min_margin + 0.0,
        first_violation=first_violation,
        n_violations=n_violations,
        gamma_estimate=(gamma if saw_model1 else None),
        curve_valid=curve_valid,
        first_invalid_curve=first_invalid,
        residuals=grid,
    )


BIG_K = 3 * DIRECT_CONV_MAX + 5  # above the direct cutoff: the FFT plan's branch


def _profile_rows(certify, m, n_range, k_hi):
    """Per level: whether the column up to k_hi lies on the leading branch, below
    the upper model's junction or on no slot of the lower model's zero branch."""
    levels = range(n_range[0], n_range[1] + 1)
    if certify is certify_upper:
        return [math.log(k_hi) < m.threshold(N) for N in levels]
    return [not (lower_model_values(m, N, k_hi)[m.K :] == 0.0).any() for N in levels]


def _upper_reference(m, n_range, k_range):
    def model1_mask(N, k_lo, k_hi):
        kk = np.arange(k_lo, k_hi + 1, dtype=float)
        return (np.log(kk) < m.threshold(N)) & (kk >= 2.0)

    return _certify_reference(lambda N, k: upper_model_values(m, N, k), n_range, k_range,
                              +1, model1_mask=model1_mask)


def _lower_reference(m, n_range, k_range):
    return _certify_reference(lambda N, k: lower_model_values(m, N, k), n_range, k_range,
                              -1, validity_at=lambda N, k: lower_model_validity(m, N, k))


def _assert_scan_matches(got, want, profile_rows):
    """A scan against the per-level reference: rows on the per-level path
    bitwise; rows whose rhs comes from the profile within rtol 1e-9,
    atol 1e-15, with the same violations and validity."""
    if not any(profile_rows):
        assert got.to_json_dict() == want.to_json_dict()
        return
    close = dict(rel=1e-9, abs=1e-15)
    for fast, row, ref in zip(profile_rows, got.residuals, want.residuals, strict=True):
        if fast:
            np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-15)
        else:
            np.testing.assert_array_equal(row, ref)
    assert (got.checked_n, got.checked_k) == (want.checked_n, want.checked_k)
    assert got.min_margin == pytest.approx(want.min_margin, **close)
    assert got.n_violations == want.n_violations
    assert (got.first_violation is None) == (want.first_violation is None)
    if want.first_violation is not None:
        assert got.first_violation[:2] == want.first_violation[:2]
        assert got.first_violation[2] == pytest.approx(want.first_violation[2], **close)
    assert got.curve_valid == want.curve_valid
    assert got.first_invalid_curve == want.first_invalid_curve
    assert (got.gamma_estimate is None) == (want.gamma_estimate is None)
    if want.gamma_estimate is not None:
        assert got.gamma_estimate == pytest.approx(want.gamma_estimate, **close)


@pytest.mark.parametrize(
    "C, beta, n_range, k_range",
    [
        (1.1 * CRITICAL_C, 2.0, (1000, 1006), (1, 3000)),
        (3.62, 2.0, (10_000, 10_003), (1, BIG_K)),
        (0.5 * CRITICAL_C, 1.5, (100, 104), (3, BIG_K)),  # violations
        (1.1 * CRITICAL_C, 2.0, (30, 36), (1, BIG_K)),  # the junction inside the grid
    ],
)
def test_certify_upper_matches_column_loop(C, beta, n_range, k_range):
    m = UpperModel(C=C, beta=beta)
    want = _upper_reference(m, n_range, k_range)
    got = certify_upper(m, n_range, k_range, keep_grid=True)
    _assert_scan_matches(got, want, _profile_rows(certify_upper, m, n_range, k_range[1]))
    # rows are copies: a view of the reused residual buffer would repeat the last column
    assert not np.array_equal(got.residuals[0], got.residuals[-1])
    plain = {k: v for k, v in got.to_json_dict().items() if k not in ("grid_shape", "residuals")}
    assert certify_upper(m, n_range, k_range).to_json_dict() == plain


@pytest.mark.parametrize(
    "model, n_range, k_range",
    [
        (make_log_splice(12000, 1.0), (10_000, 10_004), (12_000, 12_000 + BIG_K)),
        (make_log_splice(12000, 0.9 * CRITICAL_C), (10_000, 10_002), (12_000, 14_000)),
        (LowerStepModel(b=b_sequence(151), K=151, c=1.0), (8, 30), (1, 150)),
        # step bands; the band jump opens at N = 15, in the middle of the scan
        (LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, 1.5), (5000, 2.0))),
         (10, 20), (1, BIG_K)),
    ],
)
def test_certify_lower_matches_column_loop(model, n_range, k_range):
    want = _lower_reference(model, n_range, k_range)
    got = certify_lower(model, n_range, k_range, keep_grid=True)
    _assert_scan_matches(got, want, _profile_rows(certify_lower, model, n_range, k_range[1]))
    assert not np.array_equal(got.residuals[0], got.residuals[-1])


def _count_rfft(monkeypatch):
    """Patch np.fft.rfft to count its calls; returns the list it appends to."""
    rfft, calls = np.fft.rfft, []

    def counting(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    return calls


@pytest.mark.parametrize(
    "certify, model, n_lo, k_range",
    [
        (certify_upper, UpperModel(C=3.62, beta=2.0), 10_000, (1, BIG_K)),
        (certify_lower, make_log_splice(12000, 1.0), 10_000, (12_000, 12_000 + BIG_K)),
    ],
)
def test_in_family_scan_transforms_once(monkeypatch, certify, model, n_lo, k_range):
    # every column lies on the leading branch: rhs(G) is the scan's only convolution
    counts = []
    for levels in (3, 30):
        calls = _count_rfft(monkeypatch)
        certify(model, (n_lo, n_lo + levels - 1), k_range)
        counts.append(len(calls))
    assert counts == [2, 2]


@pytest.mark.parametrize(
    "certify, model, n_range, k_range",
    [
        # the junction leaves the column at N = 35
        (certify_upper, UpperModel(C=1.1 * CRITICAL_C, beta=2.0), (30, 36), (1, BIG_K)),
        # the zero branch leaves the column at N = 102
        (certify_lower, make_log_splice(12000, 1.0), (96, 106), (12_000, 12_000 + BIG_K)),
    ],
)
def test_scan_leaving_the_branch_uses_both_paths(monkeypatch, certify, model, n_range, k_range):
    profile_rows = _profile_rows(certify, model, n_range, k_range[1])
    assert not profile_rows[0] and profile_rows[-1]
    calls = _count_rfft(monkeypatch)
    got = certify(model, n_range, k_range, keep_grid=True)
    # two forward transforms per per-level column, and two for rhs(G)
    assert len(calls) == 2 * profile_rows.count(False) + 2
    monkeypatch.undo()
    want = (_upper_reference if certify is certify_upper else _lower_reference)(
        model, n_range, k_range)
    _assert_scan_matches(got, want, profile_rows)


def _profile_of(m, k_hi):
    """The model's leading branch q = 1 - G / (s N): G on slots 0..k_hi, and s."""
    log_sq = np.zeros(k_hi + 1)
    log_sq[1:] = np.log(np.arange(1, k_hi + 1, dtype=float)) ** 2
    if isinstance(m, UpperModel):
        return log_sq, m.C
    G = np.zeros(k_hi + 1)
    head = min(m.K, k_hi + 1)
    G[1:head] = m.b[1:head]
    c_band = np.full(k_hi + 1, m.c)
    for threshold, c_r in m.steps:
        c_band[threshold:] = c_r
    G[head:] = log_sq[head:] / c_band[head:]
    return G, 1.0


def _closed_form_row(G, R, s, N, direction):
    """Every covered residual of level N, one closed-form expression per slot."""
    gamma, beta = s * (N / (N + 1)), 1.0 / ((s * N) * (s * N))
    return direction * (G * gamma - R) * beta


def _report_from_grid(grid, n_range, k_range, gamma, curve_valid=True, first_invalid=None):
    """The report fields that a scan reads off its residual grid."""
    bad = np.flatnonzero(~(grid >= 0.0))
    first = None
    if bad.size:
        i, j = divmod(int(bad[0]), grid.shape[1])
        first = (n_range[0] + i, k_range[0] + j, float(grid[i, j]))
    return CertificateReport(
        checked_n=n_range,
        checked_k=k_range,
        min_margin=float(grid.min()) + 0.0,
        first_violation=first,
        n_violations=int(bad.size),
        gamma_estimate=gamma,
        curve_valid=curve_valid,
        first_invalid_curve=first_invalid,
        residuals=grid,
    )


def _closed_form_scan(certify, m, n_range, k_range):
    """A scan with every covered (N, k) evaluated whole from the closed form,
    the other levels from the per-level reference, and the report read off
    the grid: no slot is skipped."""
    (n_lo, n_hi), (k_lo, k_hi) = n_range, k_range
    upper = certify is certify_upper
    per_level = (_upper_reference if upper else _lower_reference)(m, n_range, k_range)
    G, s = _profile_of(m, k_hi)
    R = recurrence_rhs(G)[k_lo:]
    G = G[k_lo:]
    kk = np.arange(k_lo, k_hi + 1, dtype=float)
    grid = per_level.residuals.copy()
    gamma, saw = math.inf, False
    for i, (N, covered) in enumerate(zip(range(n_lo, n_hi + 1),
                                         _profile_rows(certify, m, n_range, k_hi))):
        if covered:
            grid[i] = _closed_form_row(G, R, s, N, +1 if upper else -1)
        if not upper:
            continue
        if covered:
            ratios = (s * (N / (N + 1)) - R[kk >= 2] / G[kk >= 2]) / (s * s)
        else:
            mask = (np.log(kk) < m.threshold(N)) & (kk >= 2)
            ratios = grid[i][mask] * N**2 / np.log(kk[mask]) ** 2
        if ratios.size:
            saw = True
            gamma = min(gamma, float(ratios.min()))
    return _report_from_grid(grid, n_range, k_range, gamma if saw else None,
                             per_level.curve_valid, per_level.first_invalid_curve)


def _assert_bitwise(got, want):
    assert got.residuals.tobytes() == want.residuals.tobytes()
    fields = [{k: v for k, v in r.to_json_dict().items() if k != "residuals"}
              for r in (got, want)]
    assert json.dumps(fields[0], sort_keys=True) == json.dumps(fields[1], sort_keys=True)


_FLAT_HEAD = np.concatenate(([0.0, 0.0], np.ones(398)))  # b_2..b_399 = 1
_STEPS = LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, 1.5), (5000, 2.0)))


@pytest.mark.parametrize(
    "certify, model, n_range, k_range",
    [
        # below the critical constant most cells are violations: 1,228,278 of 1,230,000
        (certify_upper, UpperModel(C=2.0, beta=2.0), (5000, 5040), (1, 30_000)),
        (certify_upper, UpperModel(C=3.0, beta=2.0), (10_000, 10_010), (1, BIG_K)),
        # violations that end as gamma_N rises: 2718 slots at N = 40, 2656 at 80
        (certify_upper, UpperModel(C=2.5, beta=2.0), (40, 80), (1, 3000)),
        (certify_upper, UpperModel(C=3.62, beta=2.0), (10_000, 10_020), (1, BIG_K)),
        (certify_upper, UpperModel(C=1.1 * CRITICAL_C, beta=2.0), (30, 36), (1, BIG_K)),
        (certify_upper, UpperModel(C=0.5 * CRITICAL_C, beta=1.5), (100, 104), (3, BIG_K)),
        (certify_lower, make_log_splice(12000, 1.0), (10_000, 10_004), (12_000, 12_000 + BIG_K)),
        (certify_lower, make_log_splice(12000, 0.9 * CRITICAL_C), (10_000, 10_002),
         (12_000, 14_000)),
        (certify_lower, make_log_splice(12000, 1.0), (96, 106), (12_000, 12_000 + BIG_K)),
        (certify_lower, make_log_splice(12000, 1.0), (10_000, 10_010), (5, 3000)),
        # violations that start as gamma_N rises: 3317 slots at N = 100, 3318 at 140
        (certify_lower, make_log_splice(12000, 2.0), (100, 140), (12_000, 20_000)),
        (certify_lower, _STEPS, (2000, 2010), (1, BIG_K)),
        (certify_lower, _STEPS, (10, 20), (1, BIG_K)),
        # ties: G and rhs(G) vanish below K, so every residual there is 0
        (certify_lower, LowerStepModel(b=np.zeros(400), K=400, c=1.0), (100, 110), (1, 3000)),
        # ties among violations: T_k = -gamma_N on k = 3..399
        (certify_lower, LowerStepModel(b=_FLAT_HEAD, K=400, c=1.0), (100, 110), (1, 3000)),
    ],
)
def test_covered_levels_match_closed_form_bitwise(certify, model, n_range, k_range):
    want = _closed_form_scan(certify, model, n_range, k_range)
    got = certify(model, n_range, k_range, keep_grid=True)
    _assert_bitwise(got, want)
    plain = {k: v for k, v in got.to_json_dict().items() if k not in ("grid_shape", "residuals")}
    assert json.dumps(certify(model, n_range, k_range).to_json_dict(), sort_keys=True) == \
        json.dumps(plain, sort_keys=True)


def test_closed_form_cases_reach_their_branches():
    # the cases above include a scan that is nearly all violations, and one whose
    # violations tie: k = 2..399 at each of its 11 levels
    rep = certify_upper(UpperModel(C=2.0, beta=2.0), (5000, 5040), (1, 30_000))
    assert rep.n_violations == 1_228_278
    rep = certify_lower(LowerStepModel(b=_FLAT_HEAD, K=400, c=1.0), (100, 110), (1, 3000))
    assert rep.n_violations == 11 * 398 and rep.first_violation[:2] == (100, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("s, slot", [(2.5, 7), (1.0, 40)])  # scale 1: violations before it
def test_covered_non_finite_profile_matches_closed_form(bad, s, slot):
    # NaN residuals on covered levels: each is a violation and makes the margin NaN
    k_hi = 50
    G = np.zeros(k_hi + 1)
    G[1:] = np.log(np.arange(1, k_hi + 1, dtype=float)) ** 2
    G[slot] = bad
    profile = bounds._Profile(lambda: G.copy(), s, lambda N: True)
    got = bounds._certify(None, (100, 104), (3, k_hi), direction=+1, keep_grid=True,
                          profile=profile)
    R = recurrence_rhs(G)[3:]
    grid = np.array([_closed_form_row(G[3:], R, s, N, +1) for N in range(100, 105)])
    _assert_bitwise(got, _report_from_grid(grid, (100, 104), (3, k_hi), None))
    assert math.isnan(got.min_margin) and got.n_violations >= 5


def test_covered_residuals_within_stated_bound_of_fraction_oracle():
    # The exact residual of the model from the same float G and R = rhs(G) is
    # direction * (G gamma_N - R) * beta_N with gamma_N = s N / (N + 1) and
    # beta_N = 1 / (s N)^2.  Its float evaluation rounds gamma_N twice, G gamma_N
    # and the difference once each, beta_N four times and the product once, so
    #   |res - exact| <= 4u beta_N G gamma_N + 7u |exact|,   u = 2^-53,
    # and the upper gamma, (gamma_{n_lo} - max R / G) / s^2, is within
    # 5u (gamma_{n_lo} + max R / G) / s^2 of its exact value.
    u = Fraction(1, 2**53)
    k_hi = 3000
    ks = [*range(1, 12), 100, 1000, 2999, k_hi]
    cases = ((certify_upper, UpperModel(C=3.62, beta=2.0), +1),
             (certify_lower, make_log_splice(12000, 1.0), -1))
    for certify, m, direction in cases:
        rep = certify(m, (10_000, 10_002), (1, k_hi), keep_grid=True)
        G, s = _profile_of(m, k_hi)
        R = recurrence_rhs(G)
        S = Fraction(s)
        for i, N in enumerate(range(10_000, 10_003)):
            gamma, beta = S * N / (N + 1), 1 / (S * N) ** 2
            for k in ks:
                exact = direction * (Fraction(G[k]) * gamma - Fraction(R[k])) * beta
                err = abs(Fraction(rep.residuals[i][k - 1]) - exact)
                assert err <= 4 * u * beta * Fraction(G[k]) * gamma + 7 * u * abs(exact), (k, N)
        if certify is certify_upper:
            gamma = S * 10_000 / 10_001
            top = max(Fraction(R[k]) / Fraction(G[k]) for k in range(2, k_hi + 1))
            exact = (gamma - top) / S**2
            assert abs(Fraction(rep.gamma_estimate) - exact) <= 5 * u * (gamma + top) / S**2


def test_covered_scan_calls_rhs_once_and_builds_no_column_per_level(monkeypatch):
    # one recurrence_rhs for the covered levels, and one per level before them; a
    # column per level before them, plus the first covered level's for the lower
    # model's validity check
    calls = []
    for name in ("recurrence_rhs", "_upper_column", "_lower_column"):
        real = getattr(bounds, name)
        monkeypatch.setattr(bounds, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    cases = (
        (certify_upper, UpperModel(C=3.62, beta=2.0), (10_000, 10_029), (1, BIG_K), 0),
        (certify_lower, make_log_splice(12000, 1.0), (10_000, 10_029),
         (12_000, 12_000 + BIG_K), 1),
        (certify_upper, UpperModel(C=1.1 * CRITICAL_C, beta=2.0), (30, 36), (1, BIG_K), 1),
        (certify_lower, make_log_splice(12000, 1.0), (96, 106), (12_000, 12_000 + BIG_K), 1),
    )
    for certify, m, n_range, k_range, columns in cases:
        uncovered = _profile_rows(certify, m, n_range, k_range[1]).count(False)
        calls.clear()
        certify(m, n_range, k_range)
        assert calls.count("recurrence_rhs") == uncovered + 1
        built = calls.count("_upper_column") + calls.count("_lower_column")
        assert built == uncovered + columns, (certify.__name__, n_range)


def _validity_loop(m, n_range, k_hi):
    """The first (N, k, q_{N,k}) where a level's column fails _first_invalid."""
    for N in range(n_range[0], n_range[1] + 1):
        invalid = _first_invalid(lower_model_values(m, N, k_hi))
        if invalid is not None:
            return (N, *invalid)
    return None


def _b_with_small_drops():
    # drops of half the slack and of the whole slack are allowed below K
    b = b_sequence(200)
    b[50] = b[49] - 0.5e-12
    b[120] = b[119] - 1e-12
    return b


@pytest.mark.parametrize(
    "model, n_range, k_range",
    [
        # q_3 - q_2 = (b_2 - log(3)^2) / N rounds across the slack from level to
        # level: valid at 953,754, invalid at 953,759, a covered level past the first
        (LowerStepModel(b=np.array([0.0, 0.0, 1.2069499145673301]), K=3, c=1.0),
         (953_754, 953_770), (1, 4)),
        # each step's band constant jumps the column up at its threshold
        (_STEPS, (2000, 2010), (1, 12_000)),
        (_STEPS, (10, 20), (1, 200)),
        # rising junction at K: b_{K-1} above log(K)^2 / c
        (LowerStepModel(b=b_sequence(200), K=200, c=0.5), (10_000, 10_010), (1, 400)),
        (LowerStepModel(b=_b_with_small_drops(), K=200, c=1.0), (60, 80), (1, 199)),
        (LowerStepModel(b=_b_with_small_drops(), K=200, c=1.0), (60, 80), (1, 400)),
        (make_log_splice(12000, 0.9 * CRITICAL_C), (10_000, 10_002), (12_000, 14_000)),
    ],
)
def test_covered_validity_matches_per_level_check(model, n_range, k_range):
    want = _validity_loop(model, n_range, k_range[1])
    rep = certify_lower(model, n_range, k_range)
    assert (rep.curve_valid, rep.first_invalid_curve) == (want is None, want)
    if model.K == 3:
        assert want[:2] == (953_759, 3)


def _rhs_longdouble(G, ks):
    """(1/2) sum_l (G_l - G_{l+1}) (G_{k-l} - G_k) for each k in ks, summed directly
    in long double."""
    G = G.astype(np.longdouble)
    return np.array([0.5 * np.sum((G[1:k] - G[2 : k + 1]) * (G[k - 1 : 0 : -1] - G[k]))
                     for k in ks])


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_profile_residuals_beat_per_level_fft_against_long_double():
    N, k_hi = 10_000, 2**16
    ks = np.array([*range(2, 11), 100, 1000, 12_000, 2**15, k_hi])
    LD = np.longdouble
    log_sq = np.zeros(k_hi + 1)
    log_sq[1:] = np.log(np.arange(1, k_hi + 1, dtype=float)) ** 2
    upper, lower = UpperModel(C=3.62, beta=2.0), make_log_splice(12000, 1.0)
    # q = 1 - G / (s N) on the whole column, in both models
    lower_G = np.concatenate((lower.b[:12000], log_sq[12000:] / lower.c))
    cases = (
        (certify_upper, upper_model_values, upper, log_sq, LD(upper.C), +1),
        (certify_lower, lower_model_values, lower, lower_G, LD(1), -1),
    )
    for certify, values, m, G, s, direction in cases:
        # the model's own residual, beta (G gamma - rhs(G)) times the direction, summed
        # directly in long double: the difference of two float columns near 1 is exact,
        # but each column carries the rounding of 1 - G / (s N), which this leaves out
        gamma, beta = s * N / (N + 1), 1 / (s * N) ** 2
        ref = direction * beta * (G[ks].astype(LD) * gamma - _rhs_longdouble(G, ks))
        new = certify(m, (N, N), (1, k_hi), keep_grid=True).residuals[0][ks - 1]
        old = _certify_reference(lambda n, k: values(m, n, k), (N, N), (1, k_hi),
                                 direction).residuals[0][ks - 1]
        err_new = float(np.max(np.abs((new - ref) / ref)))
        err_old = float(np.max(np.abs((old - ref) / ref)))
        assert 10 * err_new <= err_old, (certify.__name__, err_new, err_old)


def _validity_reference(q):
    """lower_model_validity's check with a full difference array."""
    k_max = q.size - 1
    bad_range = (q[1:] < -1e-12) | (q[1:] > 1.0 + 1e-12)
    bad_mono = np.zeros(k_max, dtype=bool)
    bad_mono[1:] = np.diff(q[1:]) > 1e-12
    idx = np.flatnonzero(bad_range | bad_mono)
    if idx.size == 0:
        return None
    return int(idx[0]) + 1, float(q[int(idx[0]) + 1])


def test_lower_model_validity_matches_difference_reference():
    rng = np.random.default_rng(11)
    models = (
        make_log_splice(12000, 1.0),
        LowerStepModel(b=b_sequence(151), K=151, c=1.0),
        LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, 1.5), (1000, 2.0))),
    )
    for m in models:
        for N in (5, 10, 14, 15, 25, 10_000):
            for k_max in (1, 2, 150, 5000):
                q = lower_model_values(m, N, k_max)
                assert lower_model_validity(m, N, k_max) == _validity_reference(q)
    # rises just below, at and above the slack decide on the computed difference
    q = np.concatenate(([1.0], np.linspace(1.0, 0.5, 20)))
    for i, step in ((5, 1e-12), (9, 2e-12), (12, 0.5e-12)):
        q[i] = q[i - 1] + step
    assert _first_invalid(q) == _validity_reference(q)
    for _ in range(50):
        q = np.concatenate(([1.0], np.sort(rng.random(30))[::-1]))
        q[rng.integers(1, 31, size=2)] += rng.choice([-2.0, 1e-12, 3e-12, 0.5])
        assert _first_invalid(q) == _validity_reference(q)


def test_first_invalid_flags_nan():
    q = np.array([1.0, 1.0, 0.5, math.nan, 0.2])
    k, value = _first_invalid(q)
    assert k == 3 and math.isnan(value)


def test_certify_counts_nan_residuals_as_violations():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)

    def fill(N, out):
        out[:] = upper_model_values(m, N, out.size - 1)
        if N == 1002:
            out[7] = math.nan

    rep = bounds._certify(fill, (1000, 1004), (1, 50), direction=+1, keep_grid=True)
    assert math.isnan(rep.min_margin) and not rep.passed
    # the NaN reaches slot 7 of column 1001 (through q_{N+1}) and slots 7..50
    # of column 1002 (through the convolution); the clean scan passes
    assert rep.first_violation[:2] == (1001, 7) and math.isnan(rep.first_violation[2])
    assert rep.n_violations == 1 + 44 == int(np.isnan(rep.residuals).sum())
    assert bounds.certify_upper(m, (1000, 1004), (1, 50)).n_violations == 0


def test_scan_size_refused_before_allocation():
    # a scan takes 104 B per k of k_hi: 41,297,762 fit the byte budget, one more does not
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    t0 = time.perf_counter()
    bounds._grid_ranges((10, 11), (1, 41_297_762), False)
    with pytest.raises(ValueError, match="a scan of 2 levels of 41297763 entries .* more than"):
        certify_upper(m, (10, 11), (1, 41_297_763))
    # a kept grid adds 87 B per cell and 3 MiB: the scan alone fits, its grid does not
    bounds._grid_ranges((1, 5), (1, 8_000_000), False)
    with pytest.raises(ValueError, match="and a grid of 40000000 cells .* more than"):
        certify_lower(make_log_splice(12000, 1.0), (1, 5), (1, 8_000_000), keep_grid=True)
    assert time.perf_counter() - t0 < 0.1


def test_scan_level_count_refused_before_allocation():
    m = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="1000000000000 levels of 10 entries"):
        certify_upper(m, (1, 10**12), (1, 10))
    with pytest.raises(ValueError, match="levels of 20000 entries"):
        certify_lower(make_log_splice(12000, 1.0), (1, 10**6), (12000, 20000))
    assert time.perf_counter() - t0 < 0.1


def test_certify_lower_invalid_mid_scan():
    m = LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, 1.5),))
    rep = certify_lower(m, (10, 20), (1, 200))
    assert not rep.curve_valid
    assert rep.first_invalid_curve[:2] == (15, 100)


def test_model_values_match_branch_formulas():
    # the column writers keep the per-branch formulas bit for bit
    for m in (UpperModel(C=1.1 * CRITICAL_C, beta=2.0), UpperModel(C=0.8 * CRITICAL_C, beta=1.5)):
        for N, k_max in ((1, 50), (5, 99_999), (40, BIG_K), (10_000, 1000)):
            np.testing.assert_array_equal(
                upper_model_values(m, N, k_max), _upper_values_reference(m, N, k_max)
            )
    models = (
        make_log_splice(12000, 1.0),
        LowerStepModel(b=b_sequence(151), K=151, c=1.0),
        LowerStepModel(b=np.zeros(2), K=2, c=1.0, steps=((100, 1.5), (1000, 2.0))),
    )
    for m in models:
        for N, k_max in ((1, 50), (10, 120), (20, 5000), (10_000, 20_000)):
            np.testing.assert_array_equal(
                lower_model_values(m, N, k_max), _lower_values_reference(m, N, k_max)
            )


def test_upper_column_tail_is_tail_formula_bitwise():
    # the in-place exponential branch against the branch formula, array and scalar
    for m in (UpperModel(3.62, 2.0), UpperModel(C=0.8 * CRITICAL_C, beta=1.5)):
        for N, k_max in ((1, 50), (30, 2**16), (40, 10**6)):
            col = upper_model_values(m, N, k_max)
            logk = np.log(np.arange(1, k_max + 1, dtype=float))
            j = 1 + int(np.searchsorted(logk, m.threshold(N)))
            assert j <= k_max, (N, k_max)  # the column crosses the junction
            np.testing.assert_array_equal(col[j:], _upper_tail_formula(m, N, logk[j - 1 :]))
            for k in (j, (j + k_max) // 2, k_max):
                assert col[k] == _upper_tail_formula(m, N, float(logk[k - 1]))


def test_certify_upper_memory_per_k_across_junction(admissions):
    # columns past the junction write their tail in place, as first-branch ones do
    m = UpperModel(3.62, 2.0)
    k_hi = 2**16
    assert math.exp(m.threshold(32)) < k_hi
    np.fft.rfft(np.ones(8))  # numpy.fft loads on first use; its import is not the scan's
    tracemalloc.start()
    try:
        certify_upper(m, (30, 32), (1, k_hi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * k_hi
    assert peak <= admissions[0][1]  # the admission's figure is no smaller


def test_certify_lower_memory_per_k(admissions):
    # the bound the README states for one scan at k_hi entries
    m = make_log_splice(12000, 1.0)
    k_hi = 2**16
    tracemalloc.start()
    try:
        certify_lower(m, (10_000, 10_002), (12_000, k_hi))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 90 * k_hi
    assert peak <= admissions[0][1]  # the admission's figure is no smaller


def test_certificate_report_consistency_enforced():
    with pytest.raises(ValueError):
        CertificateReport(
            checked_n=(1, 2),
            checked_k=(1, 2),
            min_margin=-1.0,
            first_violation=None,
            n_violations=1,
        )


# ---------------------------------------------------------------------------
# sandwich


@pytest.fixture(scope="module")
def exact_level40():
    return evolve(40, 0.5, TruncationPolicy(k_max=200_000)).survival()


def test_sandwich_generous_shifts(exact_level40):
    upper = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    lower = make_log_splice(12000, 1.0)
    rep = sandwich_check(40, upper, lower, exact_level40, upper_shift=60, lower_shift=20)
    assert rep.upper_shift == 60 and rep.lower_shift == 20
    assert rep.passed
    assert rep.upper_violations == 0 and rep.lower_violations == 0


def test_sandwich_tight_upper_reports_not_raises(exact_level40):
    upper = UpperModel(C=1.001 * CRITICAL_C, beta=2.0)
    lower = make_log_splice(12000, 1.0)
    rep = sandwich_check(40, upper, lower, exact_level40, lower_shift=20)
    assert rep.upper_shift == 0  # the default shift
    assert rep.upper_violations >= 0  # violations are data, never an exception


def test_sandwich_zero_region_never_violates(exact_level40):
    upper = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    lower = make_log_splice(100, 1.0)
    rep = sandwich_check(40, upper, lower, exact_level40, upper_shift=60, lower_shift=20)
    vals = lower_model_values(lower, 20, exact_level40.k_max)
    zero_from = np.flatnonzero(vals[1:] == 0.0)
    assert zero_from.size > 0  # the zero branch is exercised
    assert rep.lower_violations == 0


def test_sandwich_has_no_n0_tol_or_report_json(exact_level40):
    with pytest.raises(TypeError):
        UpperModel(C=4.0, beta=2.0, n0=1)
    upper = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    lower = make_log_splice(100, 1.0)
    with pytest.raises(TypeError):
        sandwich_check(40, upper, lower, exact_level40, lower_shift=20, tol=1e-12)
    rep = sandwich_check(40, upper, lower, exact_level40, lower_shift=20)
    assert not hasattr(rep, "to_json_dict")


def test_sandwich_level_mismatch(exact_level40):
    upper = UpperModel(C=1.1 * CRITICAL_C, beta=2.0)
    lower = make_log_splice(100, 1.0)
    with pytest.raises(ValueError):
        sandwich_check(39, upper, lower, exact_level40)
