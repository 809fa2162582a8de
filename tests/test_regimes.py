import time

import numpy as np
import pytest

from minplustree import regimes
from minplustree.distribution import TruncationPolicy, moments, point_mass_initial, step_pmf
from minplustree.regimes import (
    SUBCRITICAL_K_CAP,
    RegimeReport,
    classify,
    limit_survival,
    stationarity_residual,
    subcritical_fixed_point,
    supercritical_growth,
)


def test_fixed_point_values():
    assert subcritical_fixed_point(1 / 3) == pytest.approx(0.5, abs=1e-15)
    assert subcritical_fixed_point(0.4) == pytest.approx(2 / 3, abs=1e-15)
    assert subcritical_fixed_point(1e-9) == pytest.approx(0.0, abs=2e-9)


def test_fixed_point_domain():
    for p in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            subcritical_fixed_point(p)


def test_limit_survival_converges_to_fixed_point():
    c = limit_survival(0.4, k_max=64, tol=1e-7)
    assert abs(c[2] - 2 / 3) < 1e-6
    assert c[1] == 1.0
    assert np.all(np.diff(c[1:]) <= 1e-12)


def test_limit_survival_tightness():
    # the limit curve decays below 0.01 at a finite p-dependent threshold
    c = limit_survival(0.4, k_max=256, tol=1e-7)
    below = np.flatnonzero(c[1:] < 0.01) + 1
    assert below.size > 0
    assert below[0] == 79  # found by scan at p = 0.4
    c3 = limit_survival(0.3, k_max=64, tol=1e-7)
    assert np.flatnonzero(c3[1:] < 0.01)[0] + 1 < 20


def test_evolved_survival_increases_to_direct_curve():
    # the paper's monotonicity in the level, checked against the direct solve
    for p in (0.3, 0.4):
        curve = limit_survival(p, k_max=SUBCRITICAL_K_CAP)
        policy = TruncationPolicy(k_max=SUBCRITICAL_K_CAP, tail_mode="lump")
        m = point_mass_initial(p, k_max=SUBCRITICAL_K_CAP)
        prev = m.survival().values
        for _ in range(200):
            m = step_pmf(m, policy)
            cur = m.survival().values
            assert np.all(cur - prev >= -1e-12)
            assert np.all(cur <= curve + 1e-12)
            prev = cur
        assert np.max(np.abs(cur - curve)) < 1e-9


def test_limit_survival_close_to_critical():
    # near 1/2 the limit tail is fat, and the direct solve needs no support cap for it
    p = 0.45
    rep = classify(p, tol=1e-12)
    c = rep.limit_survival
    assert stationarity_residual(c, p) < 1e-15
    assert c[2] == pytest.approx(p / (1 - p), abs=1e-15)
    assert np.all(np.diff(c[1:]) <= 0.0)


def test_limit_survival_stationarity():
    tol = 1e-7
    for p in (0.3, 0.4):
        c = limit_survival(p, k_max=48, tol=tol)
        assert stationarity_residual(c, p) < 10 * tol


def test_stationarity_residual_matches_formula():
    # per-k loop of the docstring formula on a nonincreasing vector, c_1 = 1
    rng = np.random.default_rng(11)
    c = np.concatenate(([1.0, 1.0], np.sort(rng.random(199))[::-1]))
    p = 0.37
    worst = 0.0
    for k in range(2, c.size):
        bracket = c[k - 1]
        for ell in range(1, k - 1):
            bracket += (c[ell] - c[ell + 1]) * c[k - ell]
        worst = max(worst, abs(c[k] - (1.0 - p) * c[k] ** 2 - p * bracket))
    assert stationarity_residual(c, p) == pytest.approx(worst, rel=1e-12)


def test_limit_survival_domain_and_convergence_guard():
    with pytest.raises(ValueError):
        limit_survival(0.5, k_max=8)
    with pytest.raises(ValueError):
        limit_survival(0.0, k_max=8)
    with pytest.raises(ValueError):
        limit_survival(0.4, k_max=1)


def test_limit_survival_residual_guard(monkeypatch):
    monkeypatch.setattr(regimes, "stationarity_residual", lambda c, p: 1e-6)
    with pytest.raises(ArithmeticError):
        limit_survival(0.4, k_max=8, tol=1e-7)
    assert limit_survival(0.4, k_max=8, tol=1e-5)[1] == 1.0


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_tol_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        limit_survival(0.4, k_max=8, tol=tol)
    for p in (0.0, 0.4, 0.5, 0.7):
        with pytest.raises(ValueError):
            classify(p, k_max=8, tol=tol)


def test_k_max_ceiling_refused_before_work():
    # the solve takes 0.35 ns per k_max^2: 2,267,786 entries fit half an hour, as
    # `regimes --k-max`'s help says, and one more does not; the refusal is immediate
    t0 = time.perf_counter()
    regimes._check_curve_args(2_267_786, 1e-7)
    with pytest.raises(ValueError, match="k_max = 2267787 .* more than the limit"):
        limit_survival(0.4, k_max=2_267_787)
    with pytest.raises(ValueError, match="k_max = 2267787 .* more than the limit"):
        classify(0.4, k_max=2_267_787)
    # p = 0 solves nothing: its curve is admitted by its 88 B per entry alone
    with pytest.raises(ValueError, match="k_max = 48806447 .* more than the limit"):
        classify(0.0, k_max=48_806_447)
    assert time.perf_counter() - t0 < 0.1


def test_classify_admits_only_the_curve_it_builds(admissions):
    # the argument checks hold at every p, but only p < 1/2 builds a curve: the
    # solve below 1/2 is admitted by its bytes and time, p = 0's ones by bytes
    for p in (0.5, 0.7, 1.0):
        classify(p, k_max=3_000_000)
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                classify(p, k_max=8, tol=tol)
        with pytest.raises(ValueError, match="k_max"):
            classify(p, k_max=1)
    assert not any("limit curve" in request for request, _, _ in admissions)
    admissions.clear()
    classify(0.0, k_max=8)
    classify(0.25, k_max=8)
    assert admissions == [("a limit curve of k_max = 8 entries", 8 * 88, 0),
                          ("a limit curve of k_max = 8 entries", 8 * 88, 64 * 350)]


def test_supercritical_all_plus_is_exact_doubling():
    means = supercritical_growth(1.0, 10)
    for n in range(1, 11):
        assert means[n] == 2.0 ** (n - 1)


def test_supercritical_growth_floor():
    means = supercritical_growth(0.6, 20)
    floors = 1.2 ** (np.arange(21) - 1.0)
    assert np.all(means[1:] >= floors[1:])


def test_supercritical_ratio_near_critical():
    means = supercritical_growth(0.51, 15)
    ratios = means[2:] / means[1:-1]
    assert np.all(ratios >= 1.02)


def test_supercritical_domain():
    with pytest.raises(ValueError):
        supercritical_growth(0.5, 5)
    with pytest.raises(ValueError):
        supercritical_growth(0.3, 5)


def test_supercritical_oversized_level_refused_before_first_step():
    # level 27 of the full support has 2^26 entries; level 26 must not be built first
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="level 27"):
        supercritical_growth(0.6, 27)
    assert time.perf_counter() - t0 < 0.1


def test_supercritical_huge_level_named_not_built():
    # the chain is refused at its first oversized level, as evolve refuses it
    with pytest.raises(ValueError, match="cap 67108864 at level 27 "):
        supercritical_growth(0.6, 10**5)
    # 2^99999 has 30103 digits: the cap is named as a power, not formatted as an integer
    with pytest.raises(ValueError, match=r"cap 2\^99999 at level 100000 "):
        TruncationPolicy().cap_for(10**5)


@pytest.mark.parametrize("p", [0.51, 0.7, 1.0])
def test_supercritical_growth_matches_step_pmf_loop(p):
    # the means of a chain of step_pmf calls on fresh arrays, bit for bit;
    # at p = 0.51 and 0.7 the last levels' windows pass the direct cutoff
    n_max = 20
    want = np.full(n_max + 1, np.nan)
    m = point_mass_initial(p)
    want[1] = moments(m).mean_x
    for level in range(2, n_max + 1):
        m = step_pmf(m, TruncationPolicy())
        want[level] = moments(m).mean_x
    assert supercritical_growth(p, n_max).tobytes() == want.tobytes()


def test_classify_all_regimes():
    sub = classify(0.4, k_max=16)
    assert sub.classification == "subcritical"
    assert sub.fixed_point_c2 == pytest.approx(2 / 3, abs=1e-12)
    assert sub.limit_survival is not None and sub.growth_base is None

    crit = classify(0.5)
    assert crit.classification == "critical"
    assert crit.fixed_point_c2 is None
    assert crit.growth_base is None
    assert crit.limit_survival is None

    sup = classify(0.7)
    assert sup.classification == "supercritical"
    assert sup.growth_base == pytest.approx(1.4, abs=1e-15)
    assert sup.fixed_point_c2 is None


def test_classify_has_no_n_max():
    # the growth self-check always runs over 12 levels; no caller shortens it
    with pytest.raises(TypeError):
        classify(0.7, n_max=5)


def test_classify_all_min_edge():
    rep = classify(0.0, k_max=8)
    assert rep.classification == "subcritical"
    assert rep.limit_survival[1] == 1.0
    assert np.all(rep.limit_survival[2:] == 0.0)


def test_report_classification_is_not_an_argument():
    # the classification follows from p_plus, so no report can contradict it
    with pytest.raises(TypeError):
        RegimeReport(p_plus=0.4, classification="supercritical")


def test_report_classification_follows_p():
    got = [RegimeReport(p_plus=p).classification for p in (0.4, 0.5, 0.7)]
    assert got == ["subcritical", "critical", "supercritical"]


def test_report_json_shape():
    d = classify(0.4, k_max=8).to_json_dict()
    assert set(d) == {
        "p_plus",
        "classification",
        "fixed_point_c2",
        "growth_base",
        "limit_survival",
    }
    assert len(d["limit_survival"]) == 8
