"""Independent Monte Carlo oracle: sample root values of the random tree.

Sampling reduces the tree one level at a time on a block of subtrees: a
block holds ``rows`` samples of a height-``h`` subtree, position-major, so
each level pairs the two contiguous halves of the block and writes the
parents in place with ``min(a, b) + plus * max(a, b)``.  The leaves are all
1, so a height-4 subtree's root is a function of its 15 plus/min choices
alone: the bottom ``min(h, 4)`` levels are one lookup per subtree in a
table of every choice pattern, built on first use.  Values are the
narrowest unsigned type that holds ``2^(depth-1)`` (uint16 up to depth 16),
and ``rows`` keeps the arrays a block materializes within ``_BLOCK_BYTES``,
so memory is bounded by that budget whatever the sample count.  Trees
deeper than the block combine their ``2^(depth-1-h)`` subtree roots with a
post-order stack of at most ``depth - h`` pending rows.

Each plus/min choice reads fresh random bits and compares them lazily with
the binary expansion of ``p`` (every float is a dyadic rational), so
P(plus) = p exactly, with no rounding of ``p`` to a 32- or 53-bit grid.
Bits come 64 to a raw word of the counter-based Philox generator, one word
per 64 nodes for each binary digit of ``p``, until none of the word's
nodes is undecided: at p = 1/2 a 15-node subtree takes 16 bits (the 16th
is drawn and ignored) and a node above it one bit, p in {0, 1} draws
none, and other p take about 7 words per 64 nodes.  The generator is
seeded through ``numpy``'s SeedSequence spawning, which makes
worker substreams provably non-overlapping and runs reproducible across
platforms.  A request of more than ``_MAX_LEAF_SAMPLES`` leaf visits, each
substream's set-up counted as ``_SUBSTREAM_LEAVES`` of them, is refused
before anything is allocated.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, TextIO, Tuple, Union

import numpy as np

from .distribution import CRITICAL_C, MassFunction, _write_text

MAX_DEPTH = 63                      # values fit in uint64: X_N <= 2^(N-1)
_BLOCK_BYTES = 1 << 21              # arrays one block of subtrees materializes
_TABLE_HEIGHT = 4                   # bottom levels read from one table entry per subtree
_MAX_LEAF_SAMPLES = 1 << 38         # leaf visits and set-up: 1.4 to 16 minutes of a core
# set-up of one substream (55-150 us) in leaf visits (0.3-0.7 ns at p = 1/2, 1-3.5 ns at other p)
_SUBSTREAM_LEAVES = 1 << 17
QUANTILE_PROBS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class SimConfig:
    depth: int
    p_plus: float
    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError("p_plus must be a probability")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        leaves = self.n_samples * 2 ** (self.depth - 1)
        # substreams past the sample count draw nothing and are never set up
        substreams = min(self.workers, self.n_samples)
        set_up = substreams * _SUBSTREAM_LEAVES
        if leaves + set_up > _MAX_LEAF_SAMPLES:
            raise ValueError(
                f"{self.n_samples} samples at depth {self.depth} visit {leaves:.3e} leaves, "
                f"and setting up {substreams} substreams costs {set_up:.3e} more: more than "
                f"the limit of {_MAX_LEAF_SAMPLES:.3e}"
            )


@dataclass(frozen=True)
class EmpiricalSummary:
    """Sample statistics of the root value: counts plus log-scale summaries."""

    counts: Dict[int, int]
    n: int
    mean_log: float
    scaled_quantiles: Dict[float, float]
    depth: int
    p_plus: float

    def to_json_dict(self) -> dict:
        return {
            "depth": self.depth,
            "p_plus": self.p_plus,
            "n": self.n,
            "mean_log": self.mean_log,
            "scaled_quantiles": {str(q): v for q, v in sorted(self.scaled_quantiles.items())},
            "counts": {str(v): c for v, c in sorted(self.counts.items())},
        }


def _value_dtype(depth: int) -> np.dtype:
    """Narrowest of uint16/32/64 that holds the largest root value 2^(depth-1)."""
    return np.promote_types(np.min_scalar_type(2 ** (depth - 1)), np.uint16)


def _row_bytes(h: int, itemsize: int) -> int:
    """Peak bytes one row of a height-h block materializes; its leaves never are.

    Per height-4 subtree, 16 plus bits and about one for the node above it
    are drawn and then looked up.  Drawing holds up to about 4.4 copies of
    the bits (the words, the undecided bits, two draws and, at p != 1/2,
    the indices of the undecided words); the lookup holds one copy and the
    index np.take casts to intp.  Three copies and that index bound both.
    Then the subtree's root, and half a value of scratch for the parents
    above.
    """
    subtrees = 1 << max(h - _TABLE_HEIGHT, 0)
    return 3 * 17 * subtrees // 8 + subtrees * (8 + itemsize) + subtrees // 2 * itemsize


def _block_shape(depth: int) -> Tuple[int, int]:
    """Subtree height h and row count of a block of at most ``_BLOCK_BYTES``.

    h is the tallest height whose row fits the budget, at most the whole
    tree's and at least 4, below which a row costs no less; the rows fill
    the budget.
    """
    itemsize = _value_dtype(depth).itemsize
    h = min(depth - 1, _TABLE_HEIGHT)
    while h < depth - 1 and _row_bytes(h + 1, itemsize) <= _BLOCK_BYTES:
        h += 1
    return h, max(1, _BLOCK_BYTES // _row_bytes(h, itemsize))


_Law = Tuple[int, Tuple[int, ...]]  # integer part and binary fraction digits of p


def _binary_digits(p: float) -> _Law:
    """Integer part and binary fraction digits of p: p = ip + sum_i d_i 2^-i exactly."""
    m, den = float(p).as_integer_ratio()
    size = den.bit_length() - 1
    return m >> size, tuple((m >> (size - i)) & 1 for i in range(1, size + 1))


def _plus_words(count: int, law: _Law, bitgen: np.random.BitGenerator) -> np.ndarray:
    """``count`` little-endian words of independent plus bits with P(1) = p exactly.

    Node j reads fresh bits u_1, u_2, ... and stops at the first i with
    u_i == d_i, the i-th binary digit of p; it is a plus node when that
    digit is 1, so P(plus) = sum over d_i = 1 of 2^-i = p.  A node that
    matches no digit is a plus node only when p = 1 (integer part 1, no
    digits).  Nodes are packed 64 to a Philox word, and each digit round
    draws one word for every word that still holds an undecided node;
    once a word is decided it is dropped from the rounds, so a word takes
    about 7 draws at non-dyadic p however large ``count`` is.
    """
    whole, digits = law
    if digits == (1,):  # p = 1/2: each node's first bit decides it, as the loop would
        return bitgen.random_raw(count).astype("<u8", copy=False)
    plus = np.full(count, ~np.uint64(0) if whole else np.uint64(0))
    undecided = np.full(count, ~np.uint64(0))
    live = None  # indices of the words in undecided, once some word is decided
    for d in digits:
        stop = bitgen.random_raw(undecided.size)
        if not d:
            np.invert(stop, out=stop)
        stop &= undecided
        undecided ^= stop
        if d and live is None:
            plus |= stop
        elif d:
            plus[live] |= stop
        open_words = undecided != 0
        if not open_words.all():
            live = np.flatnonzero(open_words) if live is None else live[open_words]
            undecided = undecided[open_words]
            if not undecided.size:
                break
    # little-endian words give every platform the same node-to-bit order
    return plus.astype("<u8", copy=False)


def _plus_masks(sizes: List[int], law: _Law,
                bitgen: np.random.BitGenerator) -> Iterator[np.ndarray]:
    """0/1 plus indicators with P(1) = p exactly: one uint8 mask per size.

    The words of all masks are drawn when the first mask is requested, each
    mask starting on a word of its own, and each mask is unpacked when it
    is requested.
    """
    word_sizes = [(n + 63) // 64 for n in sizes]
    packed = _plus_words(sum(word_sizes), law, bitgen).view(np.uint8)
    start = 0
    for n, words in zip(sizes, word_sizes):
        yield np.unpackbits(packed[8 * start : 8 * (start + words)], count=n)
        start += words


def _combine(a: np.ndarray, b: np.ndarray, plus: np.ndarray,
             hi: Optional[np.ndarray] = None) -> np.ndarray:
    """Parents min(a, b) + plus * max(a, b), written into a; ``hi`` is scratch."""
    hi = np.maximum(a, b, out=hi)
    np.minimum(a, b, out=a)
    hi *= plus
    a += hi
    return a


@functools.cache
def _subtree_table(t: int) -> np.ndarray:
    """Root values of a height-t subtree of unit leaves, indexed by its plus bits.

    Bit j of the index decides the subtree's j-th node in post order: the
    left subtree's 2^(t-1) - 1 nodes, then the right subtree's, then the
    root (bit 2^t - 2).  Each table combines two entries of the table one
    level lower for every bit pattern; it is read-only because every
    sampler shares it.
    """
    if t == 0:
        return np.ones(1, dtype=np.uint16)
    below = _subtree_table(t - 1)
    k = (1 << (t - 1)) - 1                  # nodes of each child subtree
    index = np.arange(1 << (2 * k + 1), dtype=np.uint16)
    child = (1 << k) - 1
    left, right = below[index & child], below[(index >> k) & child]
    table = _combine(left, right, (index >> (2 * k)).astype(np.uint8))
    table.flags.writeable = False
    return table


class _Sampler:
    """Root values of one random stream, drawn a block of at most ``rows`` at a time.

    Height-h subtrees are reduced on a (2^h, n) block whose leaves are never
    stored: each height-t subtree of it, t = min(h, 4), is one lookup in
    :func:`_subtree_table` indexed by a 16-bit field of plus bits (the bits
    past the subtree's 2^t - 1 nodes are drawn and ignored), and the h - t
    levels above are reduced level by level.  The 2^(depth-1-h) subtree
    roots are merged in post order, and after pushing root number s the
    number of merges equals the number of trailing one bits of s, so the
    stack holds at most depth - h rows.  The block's buffers are kept
    across calls: allocating them afresh for each block page-faulted them
    in again, which took as long as the reduction.
    """

    def __init__(self, depth: int, p_plus: float, rows: int, bitgen: np.random.BitGenerator):
        self.depth = depth
        self.dtype = _value_dtype(depth)
        self.h = _block_shape(depth)[0]
        self.t = min(self.h, _TABLE_HEIGHT)
        self.law = _binary_digits(p_plus)
        self.bitgen = bitgen
        self.table = _subtree_table(self.t).astype(self.dtype, copy=False)
        roots = rows << (self.h - self.t)
        self.values = np.empty(roots, dtype=self.dtype)
        self.hi = np.empty(roots // 2, dtype=self.dtype)

    def sample(self, n: int) -> np.ndarray:
        """n independent root values, n at most ``rows``."""
        if self.depth == 1:
            return np.ones(n, dtype=self.dtype)
        stack: List[np.ndarray] = []
        for s in range(1 << (self.depth - 1 - self.h)):
            v = self._subtree_roots(n)
            while s & 1:
                v = _combine(stack.pop(), v, next(_plus_masks([n], self.law, self.bitgen)))
                s >>= 1
            stack.append(v)
        return stack[0]

    def _subtree_roots(self, n: int) -> np.ndarray:
        # Position-major block: entry i * n + r holds row r's subtree i, and
        # the parents of a level are its first and second halves paired
        # entrywise.  Height-t subtree i reads 16-bit field i of the words.
        roots = n << (self.h - self.t)
        fields = _plus_words((roots + 3) // 4, self.law, self.bitgen).view("<u2")[:roots]
        fields &= (1 << ((1 << self.t) - 1)) - 1
        # the indices are in range; "clip" writes to out directly, "raise" buffers it
        v = np.take(self.table, fields, out=self.values[:roots], mode="clip")
        sizes = [n << level for level in range(self.h - self.t - 1, -1, -1)]
        for c, plus in zip(sizes, _plus_masks(sizes, self.law, self.bitgen)):
            v = _combine(v[:c], v[c:], plus, self.hi[:c])
        return v.copy()


def _run_counts(cfg: SimConfig, lo: int, hi: int) -> Dict[int, int]:
    """Merged counts of substreams lo..hi-1, each seeded as it is reached."""
    base, extra = divmod(cfg.n_samples, cfg.workers)
    block_rows = _block_shape(cfg.depth)[1]
    counts: Dict[int, int] = {}
    for w in range(lo, hi):
        share = base + (w < extra)
        rows = max(1, min(block_rows, share))
        # the same stream as SeedSequence(seed).spawn(workers)[w]
        bitgen = np.random.Philox(np.random.SeedSequence(cfg.seed, spawn_key=(w,)))
        sampler = _Sampler(cfg.depth, cfg.p_plus, rows, bitgen)
        for start in range(0, share, rows):
            values = sampler.sample(min(rows, share - start))
            uniq, cnt = np.unique(values, return_counts=True)
            for v, c in zip(uniq.tolist(), cnt.tolist()):
                counts[v] = counts.get(v, 0) + c
    return counts


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` with each call made in a forked child.

    Each child sends ``fn``'s result, or the exception it raised, pickled
    through a pipe of its own and leaves through ``os._exit``, so it runs no
    exit handler and flushes no buffer it inherited.  The results are read
    and the children reaped in call order; a raised exception is raised
    again here with its type, and a child that ends without a result
    raises RuntimeError.  Whatever ends the call, no child outlives it.
    """
    pipes: list = []        # the read end of each child's pipe
    pids: List[int] = []    # the children not yet reaped, in call order
    try:
        for args in zip(*iterables):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as out:  # the parent's copy closes after the fork
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        try:
                            result = (True, fn(*args))
                        except Exception as exc:
                            result = (False, exc)
                        out.write(pickle.dumps(result))
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        results = []
        for i, pipe in enumerate(pipes):
            data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            code = os.waitstatus_to_exitcode(status)
            if code != 0 or not data:
                raise RuntimeError(f"sampler run {i} ended with exit status {code} and no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def run(cfg: SimConfig) -> EmpiricalSummary:
    """Sample ``cfg.n_samples`` root values and summarize them.

    Substream ``w`` draws from an independent Philox stream spawned from
    (seed, w), and substream shares are fixed by index, so the merged counts
    depend only on (seed, workers), never on scheduling.  Substreams past
    the sample count draw nothing and are skipped; the rest are cut into
    one contiguous run per usable CPU.  When there are two runs or more,
    the platform can fork and no other thread runs (forking a threaded
    process is unsafe), each run is made in a forked child that sends its
    counts back through a pipe (:func:`_fork_map`); otherwise this process
    makes them in turn.  Their counts are merged in run order.
    """
    active = min(cfg.workers, cfg.n_samples)
    runs = min(_usable_cpus(), active)
    edges = [r * active // runs for r in range(runs + 1)]
    calls = ([cfg] * runs, edges[:-1], edges[1:])

    if runs > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        parts = _fork_map(_run_counts, *calls)
    else:
        parts = map(_run_counts, *calls)
    counts: Dict[int, int] = {}
    for part in parts:
        for v, c in part.items():
            counts[v] = counts.get(v, 0) + c

    values = np.array(sorted(counts), dtype=float)
    weights = np.array([counts[int(v)] for v in values], dtype=float)
    mean_log = float(np.dot(np.log(values), weights) / cfg.n_samples)

    scale = math.sqrt(CRITICAL_C * cfg.depth)
    cum = np.cumsum(weights)
    quantiles = {}
    for q in QUANTILE_PROBS:
        idx = int(np.searchsorted(cum, q * cfg.n_samples, side="left"))
        idx = min(idx, values.size - 1)
        quantiles[q] = float(math.log(values[idx]) / scale)

    return EmpiricalSummary(
        counts=counts,
        n=cfg.n_samples,
        mean_log=mean_log,
        scaled_quantiles=quantiles,
        depth=cfg.depth,
        p_plus=cfg.p_plus,
    )


class ComparisonReport(NamedTuple):
    max_abs_cdf_gap: float
    chi2_stat: float
    chi2_dof: int
    chi2_pvalue: float


def _chi2_upper_tail(dof: int, stat: float) -> float:
    """P(chi^2 >= stat) for an integer number ``dof`` >= 1 of degrees of freedom.

    Abramowitz & Stegun 26.4.4-26.4.5 in closed form: with h = stat / 2, the
    tail is erfc(sqrt(h)) for odd ``dof`` (0 for even) plus the terms
    e^-h h^a / Gamma(a + 1) for a = dof/2 - 1, dof/2 - 2, ... down to 1/2 or
    0.  The terms are summed as ratios to the largest one, whose logarithm
    is formed directly, so that neither e^-h nor h^a under- or overflows.
    """
    if stat <= 0.0:
        return 1.0
    h = 0.5 * stat
    a0 = 0.5 * (dof % 2)
    n = dof // 2
    tail = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    if n == 0:
        return tail
    top = min(n - 1, max(0, math.floor(h - a0)))  # index of the largest term
    total = term = 1.0
    for j in range(top, 0, -1):
        term *= (a0 + j) / h
        total += term
    term = 1.0
    for j in range(top + 1, n):
        term *= h / (a0 + j)
        total += term
    a = a0 + top
    return tail + math.exp(a * math.log(h) - h - math.lgamma(a + 1.0)) * total


def compare_to_exact(summary: EmpiricalSummary, exact: MassFunction) -> ComparisonReport:
    """Sup-norm CDF gap and a pooled chi-square statistic against the exact law.

    Bins with expected count below 5 are pooled with their neighbors; any
    sample mass above the exact support cap lands in the tail bin.  The
    p-value is :func:`_chi2_upper_tail` of the pooled statistic.
    """
    if summary.depth != exact.level:
        raise ValueError(f"depth mismatch: samples at {summary.depth}, exact at {exact.level}")
    if summary.p_plus != exact.p_plus:
        raise ValueError("p_plus mismatch between samples and exact distribution")

    k_hi = exact.k_max
    observed = np.zeros(k_hi + 2)  # slot k_hi + 1 collects values beyond the cap
    for v, c in summary.counts.items():
        observed[min(v, k_hi + 1)] += c
    expected = np.zeros(k_hi + 2)
    expected[1 : k_hi + 1] = exact.probs[1:] * summary.n
    expected[k_hi + 1] = exact.tail_mass * summary.n

    emp_cdf = np.cumsum(observed[1 : k_hi + 1]) / summary.n
    exact_cdf = np.cumsum(exact.probs[1:])
    gap = float(np.max(np.abs(emp_cdf - exact_cdf)))

    # pool adjacent bins (ascending k) until each expected count reaches 5
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for k in range(1, k_hi + 2):
        acc_o += observed[k]
        acc_e += expected[k]
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if pooled_obs:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    obs = np.array(pooled_obs)
    exp = np.array(pooled_exp)
    keep = exp > 0.0
    obs, exp = obs[keep], exp[keep]
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = max(obs.size - 1, 1)
    return ComparisonReport(gap, stat, dof, _chi2_upper_tail(dof, stat))


def write_summary_csv(summary: EmpiricalSummary, out: Union[str, TextIO]) -> None:
    lines = ["value,count\n"]
    for v in sorted(summary.counts):
        lines.append(f"{v},{summary.counts[v]}\n")
    _write_text(out, "".join(lines))


def write_summary_json(summary: EmpiricalSummary, out: Union[str, TextIO]) -> None:
    _write_text(out, json.dumps(summary.to_json_dict(), sort_keys=True) + "\n")
