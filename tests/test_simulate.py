import math
import os
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from minplustree import simulate
from minplustree.cli import main
from minplustree.distribution import TruncationPolicy, evolve
from minplustree.simulate import (
    EmpiricalSummary,
    SimConfig,
    compare_to_exact,
    run,
)

from conftest import assert_no_child_left
from enum_oracle import enumerate_pmf

_CAN_FORK = hasattr(os, "fork")


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def _sample_one(depth, p, rng):
    """One root value from ``rng``'s stream: a sampler block of one row."""
    return int(simulate._Sampler(depth, p, 1, rng.bit_generator).sample(1)[0])


def _counts(depth, p, n, seed=0):
    return run(SimConfig(depth=depth, p_plus=p, n_samples=n, seed=seed)).counts


def _untouched(rng, seed=0):
    # the next raw word equals the first word of a fresh generator
    return rng.bit_generator.random_raw() == _rng(seed).bit_generator.random_raw()


def test_sample_one_depth1():
    assert _counts(1, 0.5, 10) == {1: 10}
    rng = _rng()
    assert _sample_one(1, 0.5, rng) == 1
    assert _untouched(rng)


def test_sample_one_forced_plus():
    assert _counts(2, 1.0, 10) == {2: 10}
    assert _counts(5, 1.0, 5) == {16: 5}
    # 2^15 is the largest root held in uint16; 2^16 needs uint32
    assert _counts(16, 1.0, 1) == {2**15: 1}
    assert _counts(17, 1.0, 1) == {2**16: 1}
    rng = _rng()
    assert [_sample_one(depth, 1.0, rng) for depth in (2, 5, 16, 17)] == [2, 16, 2**15, 2**16]
    assert _untouched(rng)


def test_sample_one_pure_min():
    assert _counts(6, 0.0, 5) == {1: 5}
    rng = _rng()
    assert _sample_one(6, 0.0, rng) == 1
    assert _untouched(rng)


def test_binary_digits_exact():
    for p in (0.0, 0.1, 0.3, 0.375, 0.5, 1.0, 5e-324, 1 - 2**-53):
        whole, digits = simulate._binary_digits(p)
        value = whole + sum(Fraction(d, 2**i) for i, d in enumerate(digits, start=1))
        assert value == Fraction(p)


def test_plus_masks_one_bit_per_node_at_half():
    # masks of 600 and 40 nodes at p = 1/2 take 10 + 1 raw words; p = 0 and 1 take none
    rng = _rng(4)
    masks = list(simulate._plus_masks([600, 40], simulate._binary_digits(0.5), rng.bit_generator))
    assert [m.size for m in masks] == [600, 40]
    assert set(np.concatenate(masks).tolist()) == {0, 1}
    fresh = _rng(4).bit_generator
    fresh.random_raw(11)
    for p in (0.0, 1.0):
        (mask,) = simulate._plus_masks([100], simulate._binary_digits(p), rng.bit_generator)
        assert mask.tolist() == [int(p)] * 100
    assert rng.bit_generator.random_raw() == fresh.random_raw()


class _CountingBitGenerator:
    def __init__(self, bitgen):
        self.bitgen, self.drawn = bitgen, 0

    def random_raw(self, size):
        self.drawn += size
        return self.bitgen.random_raw(size)


def test_plus_words_draw_only_undecided_words():
    # a word leaves the digit rounds once its 64 nodes are decided: each node
    # stops with probability 1/2 per round, so a word is drawn
    # sum_r 1 - (1 - 2^-r)^64 = 7.34 times on average, not once per round
    count = 1 << 14
    bitgen = _CountingBitGenerator(_rng(8).bit_generator)
    words = simulate._plus_words(count, simulate._binary_digits(0.3), bitgen)
    assert 7.2 * count < bitgen.drawn < 7.5 * count
    bits = np.unpackbits(words.view(np.uint8))
    assert abs(bits.mean() - 0.3) < 5 * math.sqrt(0.21 / bits.size)


def test_sample_one_depth3_frequencies():
    # enumeration gives (3, 2, 2, 1)/8; 3 sigma binomial tolerance at n = 20000
    oracle = enumerate_pmf(3, Fraction(1, 2))
    n = 20_000
    counts = _counts(3, 0.5, n, seed=5)
    for k, w in oracle.items():
        p = float(w)
        tol = 3 * math.sqrt(p * (1 - p) / n)
        assert abs(counts[k] / n - p) < tol


def test_sample_one_range_invariant():
    for depth in (1, 2, 4, 7):
        for p in (0.1, 0.5, 0.9):
            counts = _counts(depth, p, 50, seed=9)
            assert sum(counts.values()) == 50
            assert all(1 <= v <= 2 ** (depth - 1) for v in counts)


def test_run_reproducible():
    cfg = SimConfig(depth=8, p_plus=0.5, n_samples=30_000, seed=77, workers=4)
    first = run(cfg)
    second = run(cfg)
    assert first == second
    assert sum(first.counts.values()) == cfg.n_samples
    assert min(first.counts) >= 1


def test_run_depth2_concentration():
    n = 100_000
    summary = run(SimConfig(depth=2, p_plus=0.5, n_samples=n, seed=13))
    emp = summary.counts.get(2, 0) / n
    assert abs(emp - 0.5) < 3 * math.sqrt(0.25 / n)


def test_run_all_plus_mean():
    summary = run(SimConfig(depth=7, p_plus=1.0, n_samples=2_000, seed=3, workers=2))
    assert summary.counts == {64: 2_000}
    summary = run(SimConfig(depth=17, p_plus=1.0, n_samples=50, seed=3))
    assert summary.counts == {65536: 50}


@pytest.mark.parametrize("p", [0.3, 0.375])
def test_run_matches_exact_off_half(p):
    # criterion 3's thresholds, at a non-dyadic and a dyadic p
    exact = evolve(6, p, TruncationPolicy(k_max=32))
    summary = run(SimConfig(depth=6, p_plus=p, n_samples=1_000_000, seed=6, workers=2))
    rep = compare_to_exact(summary, exact)
    assert rep.max_abs_cdf_gap < 0.002
    assert rep.chi2_pvalue > 0.001


def test_deep_tree_stack(monkeypatch):
    # a block of one row makes depth 7 four height-4 subtrees merged on the stack
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 8)
    assert simulate._block_shape(7) == (4, 1)
    assert run(SimConfig(depth=7, p_plus=1.0, n_samples=100, seed=2)).counts == {64: 100}
    summary = run(SimConfig(depth=7, p_plus=0.5, n_samples=4_000, seed=2))
    rep = compare_to_exact(summary, evolve(7, 0.5, TruncationPolicy(k_max=64)))
    # DKW at level 0.001 for n = 4000 gives 0.031
    assert rep.max_abs_cdf_gap < 0.031
    assert rep.chi2_pvalue > 0.001


def _post_order_root(t, bits):
    """Root of a height-t subtree of unit leaves whose j-th node in post order
    (left subtree, right subtree, root) adds when bit j of ``bits`` is set."""
    def reduce(height, j):
        if height == 0:
            return 1, j
        a, j = reduce(height - 1, j)
        b, j = reduce(height - 1, j)
        return (a + b if bits >> j & 1 else min(a, b)), j + 1

    return reduce(t, 0)[0]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_subtree_table_is_the_exact_law(t):
    table = simulate._subtree_table(t)
    patterns = 2 ** (2**t - 1)
    assert table.size == patterns and not table.flags.writeable
    # every pattern once is the law at p = 1/2, times the pattern count
    law = enumerate_pmf(t + 1, Fraction(1, 2))
    assert Counter(table.tolist()) == {k: w * patterns for k, w in law.items()}
    assert table.tolist() == [_post_order_root(t, bits) for bits in range(patterns)]


def _assert_criterion_3(summary):
    depth = summary.depth
    exact = evolve(depth, summary.p_plus, TruncationPolicy(k_max=2 ** (depth - 1)))
    rep = compare_to_exact(summary, exact)
    assert rep.max_abs_cdf_gap < 0.002
    assert rep.chi2_pvalue > 0.001


# depth 6 at p = 0.3 is test_run_matches_exact_off_half
@pytest.mark.parametrize("depth, p", [(d, p) for d in range(2, 7) for p in (0.3, 0.5)
                                      if (d, p) != (6, 0.3)])
def test_run_matches_exact_around_table_height(depth, p):
    # whole trees in one block of height 1-3 (below the table's 4), 4 and 5
    assert simulate._block_shape(depth)[0] == depth - 1
    _assert_criterion_3(run(SimConfig(depth=depth, p_plus=p, n_samples=1_000_000,
                                      seed=depth, workers=2)))


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("depth, h", [(6, 4), (7, 5)])
def test_stack_matches_exact(monkeypatch, depth, h, p):
    # a budget just short of one row of height h + 1 gives blocks of height
    # h, whose roots merge on the stack; each substream samples its whole
    # share as one block, which run's budget would cut into rows of one
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", simulate._row_bytes(h + 1, 2) - 1)
    assert simulate._block_shape(depth)[0] == h
    n = 1_000_000
    cfg = SimConfig(depth=depth, p_plus=p, n_samples=n, seed=depth + 10, workers=2)
    counts = _spawned_counts(cfg)
    _assert_criterion_3(EmpiricalSummary(counts=counts, n=n, mean_log=0.0, scaled_quantiles={},
                                         depth=depth, p_plus=p))


def test_run_matches_exact_in_uint32():
    # depth 17 is the shallowest whose root values need uint32
    assert simulate._value_dtype(17) == np.uint32
    n = 50_000
    exact = evolve(17, 0.5, TruncationPolicy(k_max=2**16))
    summary = run(SimConfig(depth=17, p_plus=0.5, n_samples=n, seed=17, workers=2))
    rep = compare_to_exact(summary, exact)
    # DKW at level 0.001 gives 0.0087; a million samples would take half a minute
    assert rep.max_abs_cdf_gap < math.sqrt(math.log(2 / 0.001) / (2 * n))
    assert rep.chi2_pvalue > 0.001


def test_run_memory_bounded_by_block():
    # numpy imports numpy.random on first use; import it before counting, so
    # that the peak is the run's alone whichever test ran first
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        run(SimConfig(depth=10, p_plus=0.5, n_samples=200_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * simulate._BLOCK_BYTES


def test_worker_pool_bounded_by_cpus(monkeypatch, forks):
    # 64 substreams fork at most one process per usable CPU
    cfg = SimConfig(depth=3, p_plus=0.5, n_samples=200, seed=5, workers=64)
    summaries = []
    for cpus in (2, 1):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda cpus=cpus: cpus)
        forks.count = 0
        summaries.append(run(cfg))
        assert forks.count == (2 if cpus == 2 and _CAN_FORK else 0)
        assert_no_child_left()
    # substreams and shares follow the worker index, not the process count
    assert summaries[0] == summaries[1]


def _spawned_counts(cfg):
    """Counts of the substreams of ``SeedSequence(seed).spawn(workers)``, one by one."""
    base, extra = divmod(cfg.n_samples, cfg.workers)
    counts = Counter()
    for w, seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.workers)):
        share = base + (w < extra)
        if share:
            sampler = simulate._Sampler(cfg.depth, cfg.p_plus, share, np.random.Philox(seq))
            counts.update(sampler.sample(share).tolist())
    return dict(counts)


def test_substream_runs_submit_one_pool_call_per_cpu(monkeypatch, forks):
    # 20000 substreams go to the forked children as one contiguous run per usable CPU
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    cfg = SimConfig(depth=2, p_plus=0.5, n_samples=20_000, seed=11, workers=20_000)
    summary = run(cfg)
    assert forks.count == (2 if _CAN_FORK else 0)
    assert summary.counts == _spawned_counts(cfg)
    # whole shares, uneven ones, and substreams past the sample count
    for workers, n in ((3, 3001), (37, 5000), (64, 40)):
        cfg = SimConfig(depth=5, p_plus=0.5, n_samples=n, seed=workers, workers=workers)
        assert run(cfg).counts == _spawned_counts(cfg)
    assert_no_child_left()


def test_substream_set_up_counts_in_work_limit():
    # each substream that draws costs about 10^5 leaf visits of set-up
    SimConfig(depth=4, p_plus=0.5, n_samples=20_000, seed=0, workers=20_000)
    SimConfig(depth=1, p_plus=0.5, n_samples=2**30, seed=0)
    with pytest.raises(ValueError, match="substreams"):
        SimConfig(depth=1, p_plus=0.5, n_samples=2**30, seed=0, workers=2**30)
    # substreams past the sample count are never set up, so they cost nothing
    SimConfig(depth=4, p_plus=0.5, n_samples=10, seed=0, workers=2**40)


def test_sampler_forks_nothing_beside_another_thread(monkeypatch, forks):
    # forking a process that runs threads is unsafe, so the sampler stays serial
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    cfg = SimConfig(depth=5, p_plus=0.5, n_samples=1000, seed=9, workers=4)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60.0,))
    other.start()
    try:
        beside = run(cfg)
    finally:
        release.set()
        other.join(timeout=60.0)
    assert not other.is_alive()
    assert forks.count == 0
    assert beside == run(cfg)


@pytest.mark.skipif(not _CAN_FORK, reason="the platform cannot fork")
def test_child_error_is_raised_again_and_leaves_no_child(monkeypatch, forks, tmp_path, capsys):
    # run 0 fails at once while run 1 would outlast the test: the error ends
    # the call with its own type and message, and run 1's child is stopped
    def failing(cfg, lo, hi):
        if lo == 0:
            raise ValueError(f"substreams {lo}..{hi - 1} failed")
        time.sleep(60.0)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_run_counts", failing)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"^substreams 0\.\.1 failed$"):
        run(SimConfig(depth=3, p_plus=0.5, n_samples=100, seed=1, workers=4))
    assert forks.count == 2
    assert_no_child_left()
    rc = main(["sample", "--depth", "3", "--samples", "100", "--workers", "4",
               "--output", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "error: substreams 0..1 failed" in capsys.readouterr().err
    assert forks.count == 4
    assert_no_child_left()
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.skipif(not _CAN_FORK, reason="the platform cannot fork")
def test_child_without_result_is_an_error(monkeypatch):
    def leaving(cfg, lo, hi):
        os._exit(3)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_run_counts", leaving)
    with pytest.raises(RuntimeError, match="run 0 ended with exit status 3"):
        run(SimConfig(depth=3, p_plus=0.5, n_samples=100, seed=1, workers=2))
    assert_no_child_left()


def test_scaled_quantiles_ordering():
    summary = run(SimConfig(depth=9, p_plus=0.5, n_samples=50_000, seed=21, workers=2))
    qs = [summary.scaled_quantiles[q] for q in sorted(summary.scaled_quantiles)]
    assert qs == sorted(qs)
    assert all(v >= 0.0 for v in qs)


def test_compare_exact_to_itself_is_zero():
    # a degenerate sample with counts exactly proportional to the pmf
    exact = evolve(3, 0.5, TruncationPolicy(k_max=4))
    summary = EmpiricalSummary(
        counts={1: 3, 2: 2, 3: 2, 4: 1},
        n=8,
        mean_log=0.0,
        scaled_quantiles={},
        depth=3,
        p_plus=0.5,
    )
    rep = compare_to_exact(summary, exact)
    assert rep.max_abs_cdf_gap == 0.0
    assert rep.chi2_stat == 0.0


def test_compare_depth3_large_sample():
    # DKW-style tolerance at one million samples
    exact = evolve(3, 0.5, TruncationPolicy(k_max=4))
    summary = run(SimConfig(depth=3, p_plus=0.5, n_samples=1_000_000, seed=99, workers=2))
    rep = compare_to_exact(summary, exact)
    assert rep.max_abs_cdf_gap < 0.005


def test_compare_pvalue_matches_chi2_sf():
    from scipy.stats import chi2

    exact = evolve(6, 0.5, TruncationPolicy(k_max=32))
    summary = run(SimConfig(depth=6, p_plus=0.5, n_samples=20_000, seed=7, workers=1))
    rep = compare_to_exact(summary, exact)
    assert 0.0 < rep.chi2_pvalue < 1.0
    assert rep.chi2_pvalue == pytest.approx(chi2.sf(rep.chi2_stat, rep.chi2_dof), rel=1e-12)

    # 40 samples: expected counts below 5 force several pooled bins
    counts = {1: 14, 2: 5, 3: 6, 4: 3, 5: 2, 6: 4, 8: 3, 12: 2, 40: 1}
    summary = EmpiricalSummary(counts=counts, n=sum(counts.values()), mean_log=0.0,
                               scaled_quantiles={}, depth=6, p_plus=0.5)
    rep = compare_to_exact(summary, exact)
    assert 2 <= rep.chi2_dof < 6
    assert rep.chi2_stat > 0.0
    assert rep.chi2_pvalue == pytest.approx(chi2.sf(rep.chi2_stat, rep.chi2_dof), rel=1e-12)


def test_chi2_upper_tail_matches_chdtrc():
    from scipy.special import chdtrc

    for dof in range(1, 201):
        # from 0 through the bulk to a tail between 1e-123 and 1e-197
        far = dof + 40.0 * math.sqrt(2.0 * dof) + 500.0
        stats = np.concatenate([[0.0, 1e-12, 1e-3], np.geomspace(1e-2, far, 80)])
        want = chdtrc(dof, stats)
        got = np.array([simulate._chi2_upper_tail(dof, float(x)) for x in stats])
        assert want.min() > 1e-200
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"dof {dof}")
    # e^-h alone underflows here; the sum relative to its largest term does not
    for dof, x in ((20001, 20000.0), (50000, 52000.0), (3, 1e4)):
        assert simulate._chi2_upper_tail(dof, x) == pytest.approx(chdtrc(dof, x), rel=1e-9)


def test_compare_rejects_mismatched_depth():
    exact = evolve(4, 0.5, TruncationPolicy(k_max=8))
    summary = run(SimConfig(depth=3, p_plus=0.5, n_samples=100, seed=1))
    with pytest.raises(ValueError):
        compare_to_exact(summary, exact)


def test_compare_rejects_mismatched_p():
    exact = evolve(3, 0.4, TruncationPolicy(k_max=4))
    summary = run(SimConfig(depth=3, p_plus=0.5, n_samples=100, seed=1))
    with pytest.raises(ValueError):
        compare_to_exact(summary, exact)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(depth=0, p_plus=0.5, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(depth=64, p_plus=0.5, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(depth=2, p_plus=1.5, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(depth=2, p_plus=0.5, n_samples=0, seed=0)
    # more leaf visits than the work limit
    with pytest.raises(ValueError):
        SimConfig(depth=40, p_plus=0.5, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(depth=10, p_plus=0.5, n_samples=2**30, seed=0)
    with pytest.raises(ValueError):
        SimConfig(depth=3, p_plus=1.5, n_samples=1, seed=0)
