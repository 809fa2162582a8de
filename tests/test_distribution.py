import dataclasses
import gc
import io
import itertools
import json
import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from minplustree import distribution
from minplustree.distribution import (
    MassFunction,
    SurvivalCurve,
    TruncationPolicy,
    evolve,
    moments,
    point_mass_initial,
    step_pmf,
    step_survival,
    write_distribution_csv,
    write_distribution_json,
    _CSV_BLOCK_ROWS,
    _ConvBlock,
    _clamp_probabilities,
    _fast_len,
    _levels,
    _support_window,
    _survival_suffix,
    _window_sum,
)

from conftest import assert_no_child_left
from enum_oracle import enumerate_pmf


def make_survival(values, level=1):
    vals = np.array([1.0] + list(values))
    return SurvivalCurve(values=vals, tail_floor=0.0, level=level)


# ---------------------------------------------------------------------------
# point mass


def test_point_mass_initial():
    m = point_mass_initial(0.5)
    assert m.level == 1
    assert m.probs[1] == 1.0
    assert m.tail_mass == 0.0
    assert float(m.probs.sum()) == 1.0


def test_point_mass_survival_view():
    s = point_mass_initial(0.5).survival()
    assert s.values[1] == 1.0
    assert s.values[2] == 0.0


# ---------------------------------------------------------------------------
# stepping


def test_step_pmf_depth2():
    # both root signs enumerated by hand: + gives 2, min gives 1
    m = step_pmf(point_mass_initial(0.5), TruncationPolicy(k_max=4))
    assert m.level == 2
    assert m.probs[1] == 0.5 and m.probs[2] == 0.5
    assert m.tail_mass == 0.0


def test_step_pmf_depth3_survival():
    # enumeration over the 8 sign configurations of the depth-3 tree
    pol = TruncationPolicy(k_max=8)
    m = step_pmf(step_pmf(point_mass_initial(0.5), pol), pol)
    s = m.survival().values
    assert s[2] == 5 / 8 and s[3] == 3 / 8 and s[4] == 1 / 8


def test_step_pmf_pure_min_squares_survival():
    rng = np.random.default_rng(3)
    w = rng.random(9)
    probs = np.zeros(10)
    probs[1:] = w / w.sum()
    m = MassFunction(probs=probs, tail_mass=0.0, level=3, p_plus=0.0)
    stepped = step_pmf(m, TruncationPolicy(k_max=9))
    np.testing.assert_allclose(
        stepped.survival().values[1:], m.survival().values[1:] ** 2, atol=1e-15
    )


def test_step_survival_hand_values():
    s2 = make_survival([1.0, 0.5, 0.0, 0.0], level=2)
    s3 = step_survival(s2)
    assert s3.values[2] == 0.5 + 0.5 * 0.25  # = 5/8
    s1 = make_survival([1.0, 0.0], level=1)
    assert step_survival(s1).values[2] == 0.5


def test_step_survival_k1_always_one():
    s = make_survival([1.0, 0.7, 0.3, 0.1], level=4)
    for _ in range(5):
        s = step_survival(s)
        assert s.values[1] == 1.0


def test_step_survival_has_no_p_plus():
    # the survival form is the balanced mixture's recurrence; no caller picks p
    s = make_survival([1.0, 0.5], level=2)
    with pytest.raises(TypeError):
        step_survival(s, p_plus=0.4)


# ---------------------------------------------------------------------------
# evolve


def test_evolve_depth3():
    m = evolve(3, 0.5, TruncationPolicy(k_max=8))
    np.testing.assert_array_equal(m.probs[1:5], [3 / 8, 2 / 8, 2 / 8, 1 / 8])


def test_evolve_level1_is_point_mass():
    for p in (0.0, 0.3, 1.0):
        m = evolve(1, p, TruncationPolicy(k_max=16))
        assert m.level == 1 and m.probs[1] == 1.0


def test_evolve_level1_honours_the_cap_and_steps_nothing():
    # level 1 has the policy's cap, as every later level does; the full support's
    # is 2^0 = 1 entry, padded to 2 as every level is
    for cap, want in ((1000, 1000), (2, 2), (None, 2)):
        m = evolve(1, 0.5, TruncationPolicy(k_max=cap))
        assert m.k_max == want and m.probs[1] == 1.0 and m.probs[2:].sum() == 0.0
    assert evolve(2, 0.5, TruncationPolicy(k_max=1000)).k_max == 1000
    # a loop with no level to step allocates no buffer, however large the cap
    tracemalloc.start()
    try:
        assert list(_levels(point_mass_initial(0.5), 1, TruncationPolicy(k_max=5 * 10**7))) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_evolve_matches_enumeration_exactly():
    # rational oracle over all sign assignments; the engine run at p = 1/2 is
    # dyadic and must agree exactly, the others to double precision
    for p in (0.3, 0.5, 0.7):
        for depth in (2, 3, 4):
            oracle = enumerate_pmf(depth, Fraction(p))
            m = evolve(depth, p, TruncationPolicy(k_max=2 ** (depth - 1)))
            gaps = [
                abs(float(oracle.get(k, Fraction(0))) - m.probs[k])
                for k in range(1, m.k_max + 1)
            ]
            assert m.tail_mass == 0.0
            if p == 0.5:
                assert max(gaps) == 0.0
            else:
                assert max(gaps) < 1e-14


def test_evolve_deep_matches_survival_oracle():
    m = evolve(20, 0.5, TruncationPolicy(k_max=2**19))
    assert m.tail_mass == 0.0
    s = make_survival([1.0] + [0.0] * 63)
    for _ in range(19):
        s = step_survival(s)
    gap = np.max(np.abs(m.survival().values[:65] - s.values))
    assert gap < 1e-12


def test_dual_recurrence_small():
    pol = TruncationPolicy(k_max=512)
    m = point_mass_initial(0.5)
    s = make_survival([1.0] + [0.0] * 127)
    for _ in range(7):
        m = step_pmf(m, pol)
        s = step_survival(s)
        gap = np.max(np.abs(m.survival().values[:129] - s.values))
        assert gap < 1e-12


# ---------------------------------------------------------------------------
# moments


def test_moments_point_mass():
    mom = moments(point_mass_initial(0.5))
    assert mom.mean_x == 1.0 and mom.mean_log_x == 0.0 and not mom.truncated


def test_moments_two_point():
    m = evolve(2, 0.5, TruncationPolicy(k_max=2))
    mom = moments(m)
    assert mom.mean_x == 1.5
    assert abs(mom.mean_log_x - math.log(2) / 2) < 1e-15


def test_moments_level3_from_enumeration():
    # sum of k * pmf over the enumerated distribution: (3 + 4 + 6 + 4)/8
    oracle = enumerate_pmf(3, Fraction(1, 2))
    expected = float(sum(k * w for k, w in oracle.items()))
    mom = moments(evolve(3, 0.5, TruncationPolicy(k_max=4)))
    assert mom.mean_x == expected == 17 / 8


def test_truncated_mean_is_lower_bound():
    full = moments(evolve(8, 0.5, TruncationPolicy(k_max=128)))
    cut = moments(evolve(8, 0.5, TruncationPolicy(k_max=16)))
    assert cut.truncated
    assert cut.mean_x <= full.mean_x + 1e-12


# ---------------------------------------------------------------------------
# truncation policies


def _step_pmf_reference(m, policy):
    """One level on full-cap arrays: the formulas the engine must match bit for bit."""
    new_level = m.level + 1
    cap = policy.cap_for(new_level)
    p = m.p_plus

    sum_in = np.zeros(cap + 1)
    sum_tail = 0.0
    end = cap  # the last slot either part may fill
    if p > 0.0:
        t_in = m.tail_mass
        beyond = 0.0
        window = _support_window(m.probs)
        if window is not None:
            lo, hi = window
            seg = m.probs[lo : hi + 1]
            conv = _ConvBlock().convolve(seg, seg)[0]  # X1 + X2 on [2*lo, 2*hi]
            floor = -_clamp_probabilities(conv)
            if floor > 0.0:
                # FFT round-off of size floor: drop the top run not above it,
                # and end both parts where the sum part ends
                last = int(np.flatnonzero(conv > floor)[-1])
                conv = conv[: last + 1]
                end = min(cap, 2 * lo + last)
            take_hi = min(2 * hi, end)
            if take_hi >= 2 * lo:
                sum_in[2 * lo : take_hi + 1] = conv[: take_hi - 2 * lo + 1]
                beyond = float(conv[take_hi - 2 * lo + 1 :].sum())
            else:
                beyond = float(conv.sum())
        sum_tail = beyond + t_in * (2.0 - t_in)

    min_in = np.zeros(cap + 1)
    min_tail = 0.0
    if p < 1.0:
        s = np.empty(cap + 2)  # s[k] = P(X >= k), s[cap+1] = mass beyond cap
        s[0] = 1.0
        upto = min(m.k_max, cap + 1)
        s[1 : upto + 1] = _survival_suffix(m.probs, m.tail_mass)[:upto]
        if cap + 1 > m.k_max:
            s[m.k_max + 1 :] = m.tail_mass
        sq = s * s
        min_in[1 : end + 1] = sq[1 : end + 1] - sq[2 : end + 2]
        min_tail = float(sq[cap + 1])

    probs = p * sum_in + (1.0 - p) * min_in
    probs[0] = 0.0
    tail = p * sum_tail + (1.0 - p) * min_tail

    total = float(probs.sum()) + tail
    if abs(total - 1.0) > 1e-9:
        raise ArithmeticError(f"one step lost normalization: total = {total!r}")
    if total != 1.0:
        probs /= total
        tail /= total
    return MassFunction(probs=probs, tail_mass=tail, level=new_level, p_plus=p)


def _assert_same_level(got, want):
    assert got.level == want.level
    assert np.array_equal(got.probs, want.probs)
    assert not np.signbit(got.probs).any()  # no -0.0 where the reference has +0.0
    assert got.tail_mass == want.tail_mass


def _check_chain_bitwise(m, n_target, policy):
    """step_pmf and the level loop against the reference, level by level; the
    reference's last level, or None where a step raises."""
    loop = _levels(m, n_target, policy)
    while m.level < n_target:
        try:
            want = _step_pmf_reference(m, policy)
        except ArithmeticError as err:
            for step in (lambda: step_pmf(m, policy), lambda: next(loop)):
                with pytest.raises(ArithmeticError, match=re.escape(str(err))):
                    step()
            return None
        _assert_same_level(step_pmf(m, policy), want)
        level, probs, tail = next(loop)
        _assert_same_level(MassFunction(probs, tail, level, m.p_plus), want)
        m = want
    assert next(loop, None) is None
    return m


_ORACLE_PS = (0.0, 0.3, 0.5, 0.7, 1.0)


@pytest.mark.parametrize("tail_mode", ["lump"])
@pytest.mark.parametrize("p", _ORACLE_PS)
def test_levels_bitwise_match_reference_step(p, tail_mode):
    # caps on both sides of the direct cutoff, run until the window passes it
    # the odd cap lies far above every window: the normalization sum prunes
    # numpy's summation tree on both sides of the FFT levels' windows
    caps = ((2, 8), (100, 12), (4096, 16), (4097, 16), (2**15, 18), (2**17 + 3, 18), (None, 18))
    for cap, n_target in caps:
        policy = TruncationPolicy(k_max=cap, tail_mode=tail_mode)
        want = _check_chain_bitwise(point_mass_initial(p), n_target, policy)
        if want is not None:
            _assert_same_level(evolve(n_target, p, policy), want)


@pytest.mark.parametrize("p", _ORACLE_PS)
def test_step_bitwise_matches_reference_across_cap_changes(p):
    # a cap below the support lumps the excess into the tail, also below the
    # window's first slot (p = 1 puts all mass at 2^15, and the hand-made level
    # starts at 200); a cap that grows after lumping extends the tail as
    # survival
    full = evolve(16, p, TruncationPolicy())  # support up to 2^15
    lumped = step_pmf(full, TruncationPolicy(k_max=100))
    probs = np.zeros(6001)
    probs[200:5201] = np.random.default_rng(5).random(5001)
    probs /= probs.sum()
    shifted = MassFunction(probs=probs, tail_mass=0.0, level=5, p_plus=p)
    for m in (full, lumped, shifted):
        for cap in (2, 100, 4096, 5000, 2**16, 2**16 + 5):
            _check_chain_bitwise(m, m.level + 3, TruncationPolicy(k_max=cap))


def test_lump_mode_conserves_mass():
    m = evolve(8, 0.5, TruncationPolicy(k_max=16))
    assert m.tail_mass > 0.0
    assert abs(float(m.probs.sum()) + m.tail_mass - 1.0) < 1e-12


def test_shrinking_cap_lumps_consistently():
    pol_wide = TruncationPolicy(k_max=32)
    m = evolve(5, 0.5, pol_wide)
    narrow = step_pmf(m, TruncationPolicy(k_max=8))
    wide = step_pmf(m, pol_wide)
    np.testing.assert_allclose(narrow.probs[1:9], wide.probs[1:9], atol=1e-15)
    lumped = float(wide.probs[9:].sum()) + wide.tail_mass
    assert abs(narrow.tail_mass - lumped) < 1e-15


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_lumped_tail_nondecreasing_in_level(p):
    # X_{N+1} dominates X_N stochastically, so under a fixed lumping cap the
    # tail P(X_N > cap) never falls, and the last level's tail is the largest
    for cap in (16, 100, 4096):
        policy = TruncationPolicy(k_max=cap)
        m = point_mass_initial(p)
        tails = [m.tail_mass]
        for _ in range(40):
            m = step_pmf(m, policy)
            tails.append(m.tail_mass)
        assert all(b >= a * (1.0 - 1e-14) for a, b in zip(tails, tails[1:])), cap
    # the full support never carries a tail
    assert evolve(20, p, TruncationPolicy()).tail_mass == 0.0


def test_truncation_policy_defaults():
    assert [f.name for f in dataclasses.fields(TruncationPolicy)] == ["k_max", "tail_mode"]
    full = TruncationPolicy()
    assert full.k_max is None and full.tail_mode == "lump"
    # the full support {1, ..., 2^(level-1)}
    assert [full.cap_for(level) for level in (2, 3, 5, 26)] == [2, 4, 16, 2**25]
    assert TruncationPolicy(k_max=8).cap_for(40) == 8
    with pytest.raises(ValueError):
        TruncationPolicy(k_max=1)
    # lumping is the only truncation: drop mode is refused by name
    for mode in ("drop", "spill"):
        with pytest.raises(ValueError, match="drop mode was removed"):
            TruncationPolicy(k_max=8, tail_mode=mode)


# the largest cap whose level fits the byte budget at 77 B per entry: 4 GiB / 77
_LARGEST_CAP = 55_778_796


def test_cap_ceiling_refused_before_evolving():
    # full-support caps pass the byte budget at level 27; the refusal comes before the first step
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"cap 67108864 at level 27 .* more than the limit"):
        evolve(60, 0.5, TruncationPolicy())
    assert time.perf_counter() - t0 < 1.0
    assert TruncationPolicy(k_max=_LARGEST_CAP).cap_for(40) == _LARGEST_CAP
    too_wide = TruncationPolicy(k_max=_LARGEST_CAP + 1)
    with pytest.raises(ValueError, match=f"2 levels of {_LARGEST_CAP + 1} entries"):
        evolve(3, 0.5, too_wide)
    with pytest.raises(ValueError, match=f"cap {_LARGEST_CAP + 1} at level 2 .* more than the limit"):
        step_pmf(point_mass_initial(0.5), too_wide)


def test_fixed_cap_level_count_refused_before_evolving():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="999999999 levels of 100 entries"):
        evolve(10**9, 0.5, TruncationPolicy(k_max=100))
    assert time.perf_counter() - t0 < 0.1
    # a level of cap 100 takes 100 x 200 ns + 50 us: 25,714,285 levels fit half
    # an hour, one more does not
    levels = 25_714_285
    next(_levels(point_mass_initial(0.5), 1 + levels, TruncationPolicy(k_max=100)))
    with pytest.raises(ValueError, match="more than the limit"):
        next(_levels(point_mass_initial(0.5), 2 + levels, TruncationPolicy(k_max=100)))


def test_fixed_cap_chain_admitted_in_constant_checks(monkeypatch, admissions):
    # a fixed cap is the same at every level, so the checks before the first
    # level do not grow with the chain's length
    cap_for = TruncationPolicy.cap_for
    calls = []

    def counted(self, level):
        calls.append(level)
        return cap_for(self, level)

    monkeypatch.setattr(TruncationPolicy, "cap_for", counted)
    counts = []
    for n_target in (10, 10**7):
        calls.clear()
        admissions.clear()
        t0 = time.perf_counter()
        next(_levels(point_mass_initial(0.5), n_target, TruncationPolicy(k_max=2)))
        assert time.perf_counter() - t0 < 0.1
        counts.append((len(calls), len(admissions)))
    assert counts[0] == counts[1]
    # the full support checks its caps in order and names the first it refuses
    calls.clear()
    with pytest.raises(ValueError, match="cap 67108864 at level 27 "):
        next(_levels(point_mass_initial(0.5), 2**63, TruncationPolicy()))
    assert calls == list(range(2, 28))


def test_admission_leaves_no_garbage():
    # every request is admitted; an accepted one frees all it made by reference
    # counting, and leaves no cycle for the collector
    gc.collect()
    next(_levels(point_mass_initial(0.5), 40, TruncationPolicy(k_max=100)))
    next(_levels(point_mass_initial(0.5), 10, TruncationPolicy()))
    distribution._admit("a request", 1, 1)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# FFT branch: same lengths and bits as scipy.signal.fftconvolve


def test_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    for n in [*range(4097, 60001), *range(1999990, 2000101)]:
        assert _fast_len(n) == next_fast_len(n, real=True), n


@pytest.mark.parametrize("size", [4097, 5003, 2**17 + 1])
def test_fft_convolution_bitwise_matches_fftconvolve(size):
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(size)
    seg = rng.random(size)
    seg /= seg.sum()
    other = rng.random(size - 3)
    # a kept block, sized by a longer transform first, serves the shorter
    # ones from its head, for one operand and for two in either order
    kept = _ConvBlock()
    longer = rng.random(2 * size)
    np.testing.assert_array_equal(kept.convolve(longer, longer)[0], fftconvolve(longer, longer))
    block = kept.block
    for a, b in ((seg, seg), (seg, other), (other, seg), (longer, seg)):
        want = fftconvolve(a, b)
        np.testing.assert_array_equal(_ConvBlock().convolve(a, b)[0], want)
        np.testing.assert_array_equal(kept.convolve(a, b)[0], want)
    assert kept.block is block


def _chain_levels(p, cap, levels):
    """The fixed-cap chain's levels among ``levels``, as mass functions."""
    chain = _levels(point_mass_initial(p), max(levels), TruncationPolicy(k_max=cap))
    return {n: MassFunction(probs.copy(), tail, n, p) for n, probs, tail in chain if n in levels}


def test_fft_chain_matches_direct_chain(monkeypatch):
    # The FFT chain drops what lies below its round-off instead of lumping it:
    # its survival and tail stay those of the direct chain, whose entries are
    # sums of nonnegative terms, and its window can end below the cap.
    cap, levels = 10**4, (18, 22, 26, 30)
    ps = (0.3, 0.5, 0.7)
    fft = {p: _chain_levels(p, cap, levels) for p in ps}
    monkeypatch.setattr(distribution, "DIRECT_CONV_MAX", cap + 1)
    ends = []
    for p in ps:
        for n, want in _chain_levels(p, cap, levels).items():
            got = fft[p][n]
            err = np.abs(got.survival().values - want.survival().values).max()
            assert err <= 3e-15, (p, n, err)
            assert abs(got.tail_mass - want.tail_mass) <= 5e-16 + 1e-9 * want.tail_mass, (p, n)
            ends.append(_support_window(got.probs)[1])
    assert min(ends) < cap


def _support_window_reference(probs):
    """The support window read off the full index array of nonzero entries."""
    nz = np.flatnonzero(probs)
    if nz.size == 0:
        return None
    return int(nz[0]), int(nz[-1])


def test_support_window_matches_index_array_reference():
    cases = [np.zeros(1), np.zeros(1000)]
    for size in (1, 2, 1000):
        for at in {0, size // 2, size - 1}:
            one = np.zeros(size)
            one[at] = 0.25
            cases.append(one)
    both_ends = np.zeros(1000)
    both_ends[[0, 999]] = 0.5
    cases.append(both_ends)
    rng = np.random.default_rng(7)
    for lo, hi in ((1, 2), (3, 500), (10, 998), (400, 401)):
        window = np.zeros(1000)
        window[lo : hi + 1] = rng.random(hi - lo + 1) * (rng.random(hi - lo + 1) < 0.5)
        window[[lo, hi]] = 1e-300
        cases.append(window)
    cases.append(evolve(12, 0.5, TruncationPolicy(k_max=4096)).probs)
    for probs in cases:
        assert _support_window(probs) == _support_window_reference(probs)
        # a range of slots, as the level loop searches the slots a level can reach
        n = probs.size
        for lo, hi in ((1, n - 2), (n // 2, n - 1), (0, n // 3), (n - 1, n - 2)):
            want = _support_window_reference(probs[lo : hi + 1])
            want = None if want is None else (lo + want[0], lo + want[1])
            assert _support_window(probs, lo, hi) == want, (n, lo, hi)


def _same_float(a, b):
    return np.float64(a).view(np.uint64) == np.float64(b).view(np.uint64)


def test_window_sum_matches_whole_array_sum_bitwise():
    rng = np.random.default_rng(26)
    sizes = [1, 2, 5, 7, 8, 9, 100, 127, 128, 129, 1000, 4097, 2**17 + 3, 2**20 + 3]
    sizes += [int(n) for n in rng.integers(1, 2**20 + 4, size=12)]
    for n in sizes:
        arr = np.zeros(n)
        windows = {(0, n - 1), (0, 0), (min(1, n - 1), n - 1), (n - 1, n - 1)}
        windows |= {(min(1, n - 1), min(1 + w, n - 1)) for w in (0, 9, 300, 5000)}
        windows |= {(max(n - 1 - w, 0), n - 1) for w in (0, 9, 300, 5000)}
        for _ in range(8):
            lo = int(rng.integers(0, n))
            windows.add((lo, int(rng.integers(lo, min(lo + int(rng.integers(1, 2**14)), n)))))
        for lo, hi in sorted(windows):
            # magnitudes over many binades, with exact zeros inside the window
            seg = rng.random(hi - lo + 1) * 10.0 ** rng.integers(-20, 3, hi - lo + 1)
            arr[lo : hi + 1] = seg * (rng.random(seg.size) < 0.9)
            assert _same_float(_window_sum(arr, lo, hi), float(arr.sum())), (n, lo, hi)
            arr[lo : hi + 1] = 0.0
            assert _same_float(_window_sum(arr, lo, hi), 0.0)  # all zero
        assert _same_float(_window_sum(arr, 1, 0), 0.0)  # an empty window
    # a single entry anywhere
    for n, at in ((1, 0), (8, 7), (129, 64), (2**20 + 3, 2**20 + 2), (2**20 + 3, 1)):
        arr = np.zeros(n)
        arr[at] = 0.3
        assert _same_float(_window_sum(arr, at, at), float(arr.sum())) and _window_sum(arr, at, at) == 0.3


def test_window_sum_leaves_no_garbage():
    # the level loop sums twice per level: a sum must free all it made by
    # reference counting, not leave a cycle for the collector
    arr = np.zeros(2**16 + 3)
    arr[1:300] = 1.0 / 299
    gc.collect()
    assert _window_sum(arr, 1, 299) == float(arr.sum())
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# invariants


def test_normalization_across_levels():
    for p in (0.2, 0.5, 0.9):
        pol = TruncationPolicy(k_max=64)
        m = point_mass_initial(p)
        for _ in range(12):
            m = step_pmf(m, pol)
            assert abs(float(m.probs.sum()) + m.tail_mass - 1.0) <= 1e-9


def test_survival_view_monotone():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.random(17)
        probs = np.zeros(18)
        probs[1:] = 0.9 * w / w.sum()
        m = MassFunction(probs=probs, tail_mass=0.1, level=2, p_plus=0.5)
        vals = m.survival().values
        assert vals[1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals[1:]) <= 1e-12)


def test_monotone_coupling_in_p():
    # more + weight can only push mass upward, level by level
    pol = TruncationPolicy(k_max=512)
    hi, lo = point_mass_initial(0.6), point_mass_initial(0.4)
    for _ in range(9):
        hi, lo = step_pmf(hi, pol), step_pmf(lo, pol)
        assert np.all(hi.survival().values >= lo.survival().values - 1e-12)


def test_pmf_nonincreasing_in_k():
    # empirical check of the monotone-mass observation at the balanced
    # mixture; float dust below 1e-12 in the deep tail is ignored
    pol = TruncationPolicy(k_max=2**18)
    m = point_mass_initial(0.5)
    for _ in range(29):
        m = step_pmf(m, pol)
        w = m.probs[1:]
        significant = np.flatnonzero(w > 1e-12)
        hi = significant[-1] + 1
        assert np.all(np.diff(m.probs[1:hi + 1]) <= 1e-15)


def test_mass_function_validation():
    with pytest.raises(ValueError):
        MassFunction(probs=np.array([0.0, 0.5, 0.4]), tail_mass=0.0, level=2, p_plus=0.5)
    with pytest.raises(ValueError):
        MassFunction(probs=np.array([0.1, 0.5, 0.4]), tail_mass=0.0, level=2, p_plus=0.5)
    with pytest.raises(ValueError):
        MassFunction(probs=np.array([0.0, 0.5, 0.5]), tail_mass=0.0, level=1, p_plus=0.5)
    with pytest.raises(ValueError):
        MassFunction(probs=np.array([0.0, -0.1, 1.1]), tail_mass=0.0, level=2, p_plus=0.5)


@pytest.mark.parametrize("cap", [100, 2**17 + 3])
@pytest.mark.parametrize(
    "bad, message",
    [
        (math.nan, "negative or NaN probability entry"),
        (-1e-3, "negative or NaN probability entry"),
        (2.0, "mass not normalized"),
    ],
)
def test_levels_refuse_a_bad_entry_inside_the_window(monkeypatch, cap, bad, message):
    # the level loop checks only each level's support window: an entry the
    # step gets wrong there must fail the check as it did on the whole array
    step = distribution._step_into
    calls = []

    def planting(src, tail, window, p, out, block):
        tail, (lo, top) = step(src, tail, window, p, out, block)
        calls.append(window)  # the window the step reads
        if len(calls) == 17:  # level 18, an FFT step at the larger cap
            out[(lo + top) // 2] = bad
        return tail, (lo, top)

    monkeypatch.setattr(distribution, "_step_into", planting)
    levels = _levels(point_mass_initial(0.7), 18, TruncationPolicy(k_max=cap))
    assert [level for level, _, _ in itertools.islice(levels, 16)] == list(range(2, 18))
    with pytest.raises(ValueError, match=message):
        next(levels)
    assert len(calls) == 17
    assert cap == 100 or calls[-1][1] - calls[-1][0] + 1 > distribution.DIRECT_CONV_MAX


def test_survival_curve_validation():
    with pytest.raises(ValueError):
        make_survival([0.9, 0.5])  # P(X >= 1) must be 1
    with pytest.raises(ValueError):
        make_survival([1.0, 0.4, 0.6])  # not monotone


# ---------------------------------------------------------------------------
# serialization


def test_csv_golden():
    buf = io.StringIO()
    write_distribution_csv(evolve(3, 0.5, TruncationPolicy(k_max=4)), buf)
    assert buf.getvalue() == (
        "k,pmf,survival\n"
        "1,0.375,1.0\n"
        "2,0.25,0.625\n"
        "3,0.25,0.375\n"
        "4,0.125,0.125\n"
    )


def _csv_reference(m):
    """The CSV built row by row, one ``float`` conversion per value."""
    surv = m.survival().values
    lines = ["k,pmf,survival\n"]
    for k in range(1, m.k_max + 1):
        lines.append(f"{k},{float(m.probs[k])!r},{float(surv[k])!r}\n")
    return "".join(lines)


# one block, one row past it, two full blocks, several and a partial last one
_BLOCK_CASES = (_CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1, 2 * _CSV_BLOCK_ROWS, 3 * _CSV_BLOCK_ROWS + 7)


def _random_level(k_max, seed, tail_mass=0.25, p_plus=0.5):
    rng = np.random.default_rng(seed)
    probs = np.zeros(k_max + 1)
    probs[1:] = rng.random(k_max) * (rng.random(k_max) < 0.7)  # exact zeros
    probs *= (1.0 - tail_mass) / probs.sum()
    return MassFunction(probs=probs, tail_mass=tail_mass, level=20, p_plus=p_plus)


def _level_ending_in(values, k_max, seed, tail_mass=0.25):
    """A random level of cap ``k_max`` whose last entries are ``values`` and the
    rest random; zeros past ``k_max - len(values)`` give a run of repeated rows."""
    m = _random_level(k_max, seed, tail_mass)
    probs = m.probs.copy()
    probs[k_max + 1 - len(values) :] = values
    probs[k_max - len(values)] = 1e-3  # the last entry before them is nonzero
    probs[1:] *= (1.0 - tail_mass) / probs.sum()
    return MassFunction(probs=probs, tail_mass=tail_mass, level=20, p_plus=0.5)


def _rows_before_run(writer, m):
    """The rows (JSON: values) up to the first of the trailing run that repeats
    the last one's text: the rows the writer formats in blocks."""
    columns = [m.probs[1:].tolist()]
    if writer is write_distribution_csv:
        columns.append(m.survival().values[1:].tolist())
    rows = [tuple(map(repr, row)) for row in zip(*columns)]
    n = len(rows) - 1
    while n > 0 and rows[n - 1] == rows[-1]:
        n -= 1
    return n + 1


def _check_same_text(got, want):
    """Fail unless ``got == want``, naming the first line that differs ('' past
    the end) and the text from just before its first differing character.
    pytest's diff of a bare ``assert`` on texts of megabytes can take minutes.
    """
    if got != want:
        got_lines, want_lines = got.splitlines(True) + [""], want.splitlines(True) + [""]
        i = next(i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b)
        a, b = got_lines[i], want_lines[i]
        c = next((c for c, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        at = slice(max(c - 40, 0), c + 80)
        pytest.fail(f"line {i} differs at character {c}: got {a[at]!r}, want {b[at]!r}")


def _check_writes(forks, tmp_path, writer, m, want):
    """``writer(m, ...)`` gives ``want`` to a buffer and to a path, in this
    process: it forks nothing and leaves no child."""
    buf = io.StringIO()
    writer(m, buf)
    _check_same_text(buf.getvalue(), want)
    path = tmp_path / "out"
    writer(m, str(path))
    _check_same_text(path.read_bytes().decode(), want)
    assert forks.count == 0
    assert_no_child_left()


def _run_cases():
    """Levels whose tables end in a run of repeated rows, or nearly do."""
    B, k_max = _CSV_BLOCK_ROWS, _BLOCK_CASES[-1]
    all_lumped = np.zeros(k_max + 1)
    return [
        _level_ending_in(np.zeros(2 * B), k_max, 8),  # the run starts mid-block
        _level_ending_in(np.zeros(k_max - 2 * B + 1), k_max, 9),  # on a block boundary
        _level_ending_in(np.zeros(k_max - B - 5), k_max, 10, tail_mass=0.0),  # no tail
        # the run is only the last zeros: -0.0 repeats no 0.0
        _level_ending_in(np.array([0.0, -0.0, 0.0, -0.0, 0.0, 0.0]), k_max, 11),
        # a repeated pmf under a falling survival, and the reverse
        _level_ending_in(np.full(B + 3, 1e-7), k_max, 12),
        _level_ending_in(np.array([1e-30, 2e-30] + [1e-30] * 40), k_max, 13),
        MassFunction(probs=all_lumped, tail_mass=1.0, level=20, p_plus=0.5),  # every row repeats
    ]


def test_csv_blocks_match_row_by_row_reference(tmp_path, forks):
    cases = [_random_level(k_max, 3) for k_max in _BLOCK_CASES] + _run_cases()
    k_max = _BLOCK_CASES[-1]
    cases += [
        # the pmf ends in one +0.0 that repeats no row; a -0.0 tail adds 0.0 + -0.0
        _level_ending_in(np.zeros(1), k_max, 14),
        _level_ending_in(np.zeros(_CSV_BLOCK_ROWS + 5), k_max, 15, tail_mass=-0.0),
        evolve(22, 0.7, TruncationPolicy(k_max=k_max)),  # tail about 0.029, no run
        evolve(17, 0.7, TruncationPolicy()),  # the full support, 2^16 rows and no tail
    ]
    assert cases[-2].tail_mass > 0.0 and cases[-1].tail_mass == 0.0
    for m in cases:
        want = _csv_reference(m)
        _check_writes(forks, tmp_path, write_distribution_csv, m, want)


def test_runs_start_where_the_rows_stop_repeating():
    # the cases of _run_cases, in order: the first k written from the text of k - 1
    B, k_max = _CSV_BLOCK_ROWS, _BLOCK_CASES[-1]
    want = [B + 9, 2 * B + 1, B + 7, k_max, k_max + 1, k_max - 38, 2]
    got = [distribution._repeats_from(m.probs, m.survival().values) for m in _run_cases()]
    assert got == want
    assert [_rows_before_run(write_distribution_csv, m) + 1 for m in _run_cases()] == want
    assert distribution._repeats_from(_random_level(k_max, 3).probs) == k_max + 1
    first = point_mass_initial(k_max=k_max)  # every row but the first repeats
    assert distribution._repeats_from(first.probs, first.survival().values) == 3


class _FailingTarget(io.StringIO):
    """A text target whose third ``write`` raises."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        if self.calls == 3:
            raise OSError("no space left")
        return super().write(text)


@pytest.mark.parametrize("writer", [write_distribution_csv, write_distribution_json])
def test_writer_error_propagates_and_leaves_no_process(forks, writer):
    target = _FailingTarget()
    with pytest.raises(OSError, match="no space left"):
        writer(_random_level(_BLOCK_CASES[-1], 4), target)
    assert target.calls == 3
    assert forks.count == 0
    assert_no_child_left()


def test_csv_writer_memory_bounded_by_block(tmp_path):
    levels = [
        evolve(19, 0.5, TruncationPolicy()),  # the full support: 2^18 rows
        point_mass_initial(k_max=2**18),  # every row but the first is the run
    ]
    for m in levels:
        tracemalloc.start()
        try:
            write_distribution_csv(m, str(tmp_path / "d.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * m.k_max


def test_evolve_memory_per_cap_entry(admissions):
    # the bound the README states for one level of cap K: two mass arrays
    # (16 B) and the FFT block (32 B) peak at 50 B per entry (51 when
    # numpy.fft is first imported inside the trace), held with 4 B of margin;
    # at p = 0.7 the windows reach the cap, so the block is as large as it gets
    cap = 2**17
    tracemalloc.start()
    try:
        evolve(30, 0.7, TruncationPolicy(k_max=cap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 54 * cap
    # and the admission's figure for the chain is no smaller
    assert peak <= admissions[0][1] and admissions[0][0] == f"29 levels of {cap} entries"


def test_json_blocks_match_json_dumps(tmp_path, forks):
    k_max = _BLOCK_CASES[-1]
    cases = [_random_level(k, 5) for k in _BLOCK_CASES]
    cases += [
        _random_level(k_max, 5, tail_mass=0, p_plus=1),  # int fields
        *_run_cases(),
        MassFunction(probs=np.array([0.0, 0.5, 0.5]), tail_mass=0.0, level=2, p_plus=0.5),
        evolve(20, 0.3, TruncationPolicy(k_max=k_max)),
        evolve(6, 0.5, TruncationPolicy(k_max=16)),
    ]
    for m in cases:
        want = json.dumps(m.to_json_dict(), sort_keys=True) + "\n"
        _check_writes(forks, tmp_path, write_distribution_json, m, want)


def test_json_writer_memory_bounded_by_block(tmp_path):
    m = evolve(19, 0.5, TruncationPolicy())  # the full support: 2^18 values
    tracemalloc.start()
    try:
        write_distribution_json(m, str(tmp_path / "d.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * m.k_max


def _mass_function(d):
    """The mass function a ``write_distribution_json`` document describes."""
    probs = np.zeros(d["k_max"] + 1)
    probs[1:] = d["probs"]
    return MassFunction(probs=probs, tail_mass=d["tail_mass"], level=d["level"], p_plus=d["p_plus"])


def test_json_roundtrip():
    m = evolve(6, 0.4, TruncationPolicy(k_max=16))
    buf = io.StringIO()
    write_distribution_json(m, buf)
    buf.seek(0)
    back = _mass_function(json.load(buf))
    np.testing.assert_array_equal(back.probs, m.probs)
    assert back.tail_mass == m.tail_mass
    assert back.level == m.level and back.p_plus == m.p_plus


def test_json_rejects_nan():
    d = evolve(3, 0.5, TruncationPolicy(k_max=4)).to_json_dict()
    bad_entry = dict(d, probs=[d["probs"][0], math.nan] + d["probs"][2:])
    with pytest.raises(ValueError):
        _mass_function(json.loads(json.dumps(bad_entry)))
    with pytest.raises(ValueError):
        _mass_function(dict(d, tail_mass=math.nan))
