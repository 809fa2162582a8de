"""Exact level-by-level evolution of the min/plus tree root distribution.

A depth-N complete binary tree carries the value 1 at every leaf; each
internal node independently applies addition (probability ``p_plus``) or
minimum (probability ``1 - p_plus``) to its children's values.  The root
value therefore satisfies a distributional recurrence: level N+1 is the
p-mixture of the sum and the minimum of two independent copies of level N.

This module evolves that recurrence exactly in 64-bit floats, in both
probability-mass and survival-curve form, with controlled truncation of
the support.  All arrays are indexed by value: slot ``k`` holds the
quantity for mass value ``k``; slot 0 is padding.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, TextIO, Union

import numpy as np

# Scaling constant of the critical (p = 1/2) mixture: log X_N lives on the
# scale sqrt(CRITICAL_C * N).
CRITICAL_C = math.pi ** 2 / 3

NORM_EPS = 1e-9          # tolerance for sum(probs) + tail_mass == 1
DIRECT_CONV_MAX = 4096   # direct O(K^2) convolution at or below this size
_CLAMP_FLOOR = -1e-12    # FFT round-off more negative than this is a bug
_MONO_SLACK = 1e-12      # float slack when validating monotone curves
_CSV_BLOCK_ROWS = 1 << 14  # rows (JSON: values) per write; a level's text is never whole

_BYTE_BUDGET = 1 << 32       # _admit's budgets, fixed so that every host refuses alike:
_PS_BUDGET = 1800 * 10**12   # 4 GiB, half of an 8 GB host, and half an hour of one core
# Measured cost per unit of work on 2 vCPUs: peak bytes (B; resident, so numpy's FFT scratch
# counts) and picoseconds of one core (ps), whole numbers so that each check is exact.
_UNIT_COST = {
    "level ps": 50_000_000,                         # one evolve or scan level, whatever its size
    "cap entry B": 77, "cap entry ps": 200_000,     # evolve: B per cap entry, ps per entry-level
    "scan k B": 104, "scan k ps": 200_000,          # bounds: B per k of k_hi, ps per k and level
    "grid B": 3 << 20, "grid cell B": 87,           # a kept grid: json's pending chunks, per cell
    "series k B": 25, "series k ps": 30_000,        # one term of h, B, M or S
    "model K B": 25, "model K ps": 20_000,          # the lower model's head b_1..b_{K-1}
    "curve k B": 88, "curve k ps": 350,             # the limit curve: B per k, ps per k^2
    "leaf ps": 3_500, "substream ps": 150_000_000,  # a sampler's leaf visit; a substream's set-up
}


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a fast length for a real FFT.

    This is the length ``scipy.fft.next_fast_len(n, real=True)`` returns.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _admit(request: str, nbytes: int, picoseconds: int) -> None:
    """Refuse a request, before it allocates, whose predicted cost passes a budget."""
    if not (nbytes <= _BYTE_BUDGET and picoseconds <= _PS_BUDGET):  # negated: NaN fails
        raise ValueError(f"{request} would take {nbytes:.3e} B and {picoseconds / 10**12:.3e} "
                         f"core-seconds, more than the limit of {_BYTE_BUDGET:.3e} B and "
                         f"{_PS_BUDGET // 10**12} core-seconds")


def _cross_term(q: np.ndarray, d: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_{l=1}^{k-1} (q_l - q_{l+1}) q_{k-l} for k = 2..K, as entries 0..K-2.

    ``q`` is 1-indexed padded with K = q.size - 1 >= 2.  The sum is a linear
    convolution of the increment sequence with the values, so the whole
    column costs O(K log K) above the direct cutoff.  The increments go to
    ``d`` (K - 1 entries) when it is given; the result never shares memory
    with it, so ``d`` is free again once this returns.
    """
    K = q.size - 1
    d = np.subtract(q[1:K], q[2 : K + 1], out=d)
    return _ConvBlock().convolve(d, q[1:])[0][: K - 1]


def _clamp_probabilities(arr: np.ndarray) -> float:
    """Zero out tiny FFT round-off negatives in place; anything larger is a bug.

    Returns the smallest entry before clamping.  A negative one is the
    transform's own round-off, which the positive entries carry too, so
    :func:`_step_into` drops the top run of entries not above its magnitude.
    """
    lo = float(arr.min())
    if lo < _CLAMP_FLOOR:
        raise ArithmeticError(f"convolution round-off {lo:.3e} below {_CLAMP_FLOOR:.0e}")
    if lo < 0.0:
        np.clip(arr, 0.0, None, out=arr)
    return lo


@dataclass(frozen=True)
class TruncationPolicy:
    """How the support is capped while evolving.

    ``k_max`` is a fixed cap on every level.  ``None``, the default, is the
    full support {1, ..., 2^(level-1)}: nothing is ever truncated, so the
    tail stays zero and the evolution is exact.  Under a fixed cap the mass
    above it is lumped into a conserved scalar tail; ``tail_mode`` names
    that and must be ``"lump"``.  :meth:`cap_for` admits one level of a cap.
    """

    k_max: Optional[int] = None
    tail_mode: str = "lump"

    def __post_init__(self) -> None:
        if self.tail_mode != "lump":
            raise ValueError(
                f"tail_mode {self.tail_mode!r} is not supported: drop mode was removed, "
                "and mass above the cap is always lumped"
            )
        if self.k_max is not None and self.k_max < 2:
            raise ValueError("k_max must be >= 2")

    def cap_for(self, level: int) -> int:
        if self.k_max is not None:
            cap = int(self.k_max)
        elif level - 1 > _BYTE_BUDGET.bit_length():
            cap = math.inf  # 2^(level - 1) entries, more than the budget has bytes: not built
        else:
            cap = max(2, 1 << (level - 1))
        shown = f"2^{level - 1}" if cap == math.inf else cap
        _admit(f"cap {shown} at level {level}", cap * _UNIT_COST["cap entry B"],
               cap * _UNIT_COST["cap entry ps"] + _UNIT_COST["level ps"])
        return cap


def _window_sum(arr: np.ndarray, lo: int, hi: int) -> float:
    """``float(arr.sum())`` bit for bit, for an ``arr`` that is zero outside
    ``[lo, hi]``, from O(hi - lo + log arr.size) entries.

    numpy sums a contiguous float array by a pairwise tree: a node of n >
    128 entries adds the sum of its first n // 2 entries, rounded down to a
    multiple of 8, to the sum of the rest, and a node of at most 128 is a
    leaf summed in an order of its own.  A node's subtree depends on its
    length alone, so ``np.add.reduce`` of its entries is its sum in the
    tree.  This walks the same tree: a node outside the window adds 0.0,
    and a node at least half inside it, or a leaf, is one
    ``np.add.reduce``.  A sum of the window's slice alone groups the
    entries differently and can differ in its last bits.
    """
    return _tree_node(arr, lo, hi, 0, arr.size)


def _tree_node(arr: np.ndarray, lo: int, hi: int, start: int, n: int) -> float:
    """The tree node of ``n`` entries from ``start`` in :func:`_window_sum`.
    A module function: a nested one that calls itself is a reference cycle,
    garbage that only the collector frees, once per sum."""
    inside = min(start + n, hi + 1) - max(start, lo)
    if inside <= 0:
        return 0.0
    if n <= 128 or 2 * inside >= n:
        return float(np.add.reduce(arr[start : start + n]))
    half = n // 2 - n // 2 % 8
    return _tree_node(arr, lo, hi, start, half) + _tree_node(arr, lo, hi, start + half, n - half)


def _check_mass(probs: np.ndarray, tail_mass: float, window: Optional[tuple[int, int]]) -> None:
    """Refuse a negative or NaN entry, or a total ``sum + tail`` off 1 by more than ``NORM_EPS``.

    ``window`` is a range ``(lo, hi)`` of slots outside which every entry is
    zero, or None when every entry is.  Both passes run on the window alone,
    and the sum is :func:`_window_sum`, which has the bits of the whole
    array's sum, the one :func:`_step_into` normalizes with.
    """
    lo, hi = window or (1, 0)
    # negated comparisons, so that NaN fails them too
    if not (probs[lo : hi + 1].min(initial=0.0) >= 0.0 and tail_mass >= 0.0):
        raise ValueError("negative or NaN probability entry")
    total = _window_sum(probs, lo, hi) + tail_mass
    if not abs(total - 1.0) <= NORM_EPS:
        raise ValueError(f"mass not normalized: sum+tail = {total!r}")


@dataclass(frozen=True)
class MassFunction:
    """Probability mass of the root value on {1, ..., k_max} plus lumped tail.

    ``probs[k]`` is P(X = k) for k = 1..k_max; ``probs[0]`` is padding and
    always zero.  ``tail_mass`` is the probability of values above ``k_max``
    kept as a scalar, so normalization is exact by construction.
    """

    probs: np.ndarray
    tail_mass: float
    level: int
    p_plus: float

    def __post_init__(self) -> None:
        probs = np.ascontiguousarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 3:
            raise ValueError("probs must be a 1-d array covering k_max >= 2")
        if probs[0] != 0.0:
            raise ValueError("probs[0] is padding and must be 0")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError("p_plus must be a probability")
        _check_mass(probs, self.tail_mass, (0, probs.size - 1))
        if self.level == 1 and (probs[1] != 1.0 or self.tail_mass != 0.0):
            raise ValueError("level 1 must be a point mass at k = 1")

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def survival(self) -> "SurvivalCurve":
        """Survival view: values[k] = P(X >= k) including the lumped tail."""
        return _survival_curve(self.probs, self.tail_mass, self.level)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "p_plus": self.p_plus,
            "k_max": self.k_max,
            "tail_mass": self.tail_mass,
            "probs": [float(x) for x in self.probs[1:]],
        }


def _first_invalid(q: np.ndarray) -> Optional[tuple[int, float]]:
    """The one test that a padded array is a survival curve: the first k >= 1
    where q[k] is NaN, below 0 or above q[k-1] by more than ``_MONO_SLACK``,
    or above 1 by more than ``NORM_EPS``, as (k, q[k]); None if there is none.

    The top tolerance is the mass total's, so that every ``MassFunction``
    has a survival curve.
    """
    body = q[1:]
    bad = ~(body >= -_MONO_SLACK)  # negated, so that NaN is invalid too
    bad |= body > 1.0 + NORM_EPS
    # a step up beyond the slack needs body[i + 1] > body[i], which is rare
    rise = np.flatnonzero(body[1:] > body[:-1]) + 1
    bad[rise] |= body[rise] - body[rise - 1] > _MONO_SLACK
    if not bad.any():
        return None
    i = int(bad.argmax())
    return i + 1, float(body[i])


@dataclass(frozen=True)
class SurvivalCurve:
    """values[k] = P(X >= k) for k = 1..k_max; values[0] is padding (1.0)."""

    values: np.ndarray
    level: int

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must cover at least k = 1")
        if not abs(vals[1] - 1.0) <= NORM_EPS:
            raise ValueError("P(X >= 1) must be 1")
        invalid = _first_invalid(vals)
        if invalid is not None:
            raise ValueError("not a survival curve at k = %d: %r" % invalid)
        if self.level < 1:
            raise ValueError("level must be >= 1")

    @property
    def k_max(self) -> int:
        return self.values.size - 1


def _survival_curve(probs: np.ndarray, tail_mass: float, level: int) -> SurvivalCurve:
    """The checked survival curve of the padded mass array ``probs``, with
    ``tail_mass`` beyond its last slot."""
    vals = np.empty(probs.size)
    vals[0] = 1.0
    vals[1:] = np.cumsum(probs[:0:-1])[::-1] + tail_mass
    return SurvivalCurve(values=vals, level=level)


def point_mass_initial(p_plus: float = 0.5, k_max: int = 2) -> MassFunction:
    """The level-1 distribution: a single leaf, so X = 1 with probability 1."""
    probs = np.zeros(k_max + 1)
    probs[1] = 1.0
    return MassFunction(probs=probs, tail_mass=0.0, level=1, p_plus=p_plus)


def _support_window(
    probs: np.ndarray, lo: int = 0, hi: Optional[int] = None
) -> Optional[tuple[int, int]]:
    """First and last index of a nonzero entry among ``probs[lo : hi + 1]``
    (the whole array by default), or None when there is none."""
    nonzero = probs[lo : probs.size if hi is None else hi + 1] != 0.0
    first = int(nonzero.argmax()) if nonzero.size else 0
    if not (nonzero.size and nonzero[first]):
        return None
    return lo + first, lo + nonzero.size - 1 - int(nonzero[::-1].argmax())


def step_pmf(m: MassFunction, policy: TruncationPolicy) -> MassFunction:
    """Advance one level: p-mixture of self-convolution and pairwise minimum.

    The sum part is the self-convolution of the mass array, with anything
    landing above the cap routed into the tail.  Above the direct cutoff the
    convolution is an FFT whose round-off reaches every entry; when it
    leaves negative entries, the top run of entries not above the most
    negative one's magnitude is noise, and the level ends below it.  The min
    part is computed through survival squares, P(min >= k) = P(X >= k)^2,
    with the lumped tail treated as mass above the cap.  The normalization
    rescales away what the two parts lose to rounding and to that cut.  This
    is one :func:`_step_into` on fresh arrays, the step :func:`evolve` takes.
    """
    cap = policy.cap_for(m.level + 1)
    probs = np.zeros(cap + 1)
    tail, _ = _step_into(
        m.probs, m.tail_mass, _support_window(m.probs), m.p_plus, probs, _ConvBlock()
    )
    return MassFunction(probs=probs, tail_mass=tail, level=m.level + 1, p_plus=m.p_plus)


class _ConvBlock:
    """The library's one linear convolution, with the buffers of its FFT
    branch in one allocation that a caller may keep.

    At or below ``DIRECT_CONV_MAX`` entries the convolution is direct.
    Above it the operands are zero-padded to the 5-smooth length
    ``_fast_len`` and their real spectra multiplied: a self-convolution
    (``b is a``) transforms its operand once and squares the spectrum in
    place, so it costs one forward and one inverse transform; distinct
    operands take two forward transforms.  These are the lengths and
    products of ``scipy.signal.fftconvolve``, and the tests check that the
    results agree bit for bit.

    The block holds the spectrum and then the second spectrum, which the
    inverse transform overwrites once it is spent.  It is replaced only when
    a transform is longer than any before it; shorter ones use its head.
    In the level loop a transform covers twice the support window, which
    ends where the previous level's sum part rose above its round-off, so
    the block follows the resolved mass, not the cap.
    """

    __slots__ = ("block",)

    def __init__(self) -> None:
        self.block: Optional[np.ndarray] = None

    def convolve(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The linear convolution of ``a`` and ``b``, and float scratch.

        On the FFT branch the convolution is a view of the block, which the
        next call overwrites, and the scratch is the spent spectrum's memory,
        at least ``a.size + b.size`` entries; the direct branch returns a
        fresh array and no scratch.
        """
        if max(a.size, b.size) <= DIRECT_CONV_MAX:
            return np.convolve(a, b), None
        n = a.size + b.size - 1
        length = _fast_len(n)
        half = length // 2 + 1  # complex entries of a spectrum
        if self.block is None or self.block.size < 2 * half:
            self.block = None  # the old block goes before the new one is allocated
            self.block = np.empty(2 * half, dtype=complex)
        spec = np.fft.rfft(a, length, out=self.block[:half])
        if b is a:
            np.multiply(spec, spec, out=spec)
        else:
            spec *= np.fft.rfft(b, length, out=self.block[half : 2 * half])
        conv = np.fft.irfft(spec, length, out=self.block[half:].view(float)[:length])
        return conv[:n], spec.view(float)


def _step_into(
    src: np.ndarray,
    tail_mass: float,
    window: Optional[tuple[int, int]],
    p: float,
    out: np.ndarray,
    block: _ConvBlock,
) -> tuple[float, tuple[int, int]]:
    """Write the level after ``src`` (its mass array, lumped tail and
    :func:`_support_window`) into ``out``, which holds cap + 1 zeros.

    Returns the new tail mass and the slots [lo, top] that the new level
    can reach from the window [lo, hi] (an empty range when there are none).
    ``top`` is min(2 hi, cap), unless the self-convolution has negative
    entries: their largest magnitude ``floor`` is the transform's round-off,
    so the top run of entries not above it is dropped as noise, and ``top``
    ends at the last entry above it, for both parts.  The dropped mass is
    not lumped; the normalization rescales it away.  The direct convolution
    has no negative entries, so below the cutoff nothing is dropped.
    Every pass runs on those slots; the normalization sum is
    :func:`_window_sum`, with the bits of the whole array's sum.
    Each entry takes the IEEE operations, in the same order, of the
    full-length formula ``p * sum_in + (1 - p) * min_in``, with
    ``min_in[k] = s[k]^2 - s[k+1]^2`` over the survival ``s`` including the
    tail, so the result does not depend on the window or the buffers: the
    min part is written first, and each sum-part entry is added to a slot
    that holds its ``(1 - p) * min_in`` or zero.  The self-convolution is
    ``block.convolve``; above the direct cutoff it lives in the block, and
    the survival and its squares in the spent spectrum.
    """
    cap = out.size - 1
    q = 1.0 - p
    sum_tail = min_tail = 0.0
    if window is None:  # all mass lumped: no slot can become nonzero
        lo, top = 1, 0
        if p < 1.0:
            min_tail = tail_mass * tail_mass
    else:
        lo, hi = window
        top = min(2 * hi, cap)
        seg = src[lo : hi + 1]
        w = seg.size
        scratch = None
        if p > 0.0:
            conv, scratch = block.convolve(seg, seg)
            floor = -_clamp_probabilities(conv)  # conv[j] is P(X1 + X2 = 2 lo + j)
            if floor > 0.0:  # round-off of this size: the top run not above it is noise
                conv = conv[: conv.size - int((conv[::-1] > floor).argmax())]
            count = top - 2 * lo + 1  # the slots of conv at or below the cap
            sum_tail = float(conv[max(count, 0) :].sum())
            if count > conv.size:  # the sum part ends below the cap
                count = conv.size
                top = 2 * lo + count - 1
        if p < 1.0:
            # s[j] = P(X >= lo + j) for j = 0..w; s[w] is the tail alone
            s = np.empty(w + 1) if scratch is None else scratch[: w + 1]
            np.cumsum(seg[::-1], out=s[w - 1 :: -1])
            s[w] = 0.0
            np.add(s, tail_mass, out=s)
            np.multiply(s, s, out=s)
            min_tail = float(s[min(max(cap + 1, lo), hi + 1) - lo])
            # the min part stops at a cut top too: above it, P(min = k) <=
            # 2 P(X = k) P(X >= k) lies far below the sum part's round-off
            n = min(hi, top) - lo + 1
            if n > 0:
                body = out[lo : lo + n]
                np.subtract(s[:n], s[1 : n + 1], out=body)
                np.multiply(body, q, out=body)
        if p > 0.0 and count > 0:
            head = conv[:count]
            np.multiply(head, p, out=head)
            np.add(out[2 * lo : top + 1], head, out=out[2 * lo : top + 1])
    if p > 0.0:
        # any pair touching the incoming tail sums past the cap
        sum_tail = sum_tail + tail_mass * (2.0 - tail_mass)
    tail = p * sum_tail + q * min_tail

    # Rescale away single-step rounding: a defect delta in the total would
    # double every level through the self-convolution, so it must not be
    # allowed to ride along.  Exact-arithmetic cases have total == 1.0 and
    # are left untouched.
    total = _window_sum(out, lo, top) + tail
    if abs(total - 1.0) > NORM_EPS:
        raise ArithmeticError(f"one step lost normalization: total = {total!r}")
    if total != 1.0:
        reach = out[lo : top + 1]  # empty when lo > top
        reach /= total
        tail /= total
    return tail, (lo, top)


def recurrence_rhs(q: np.ndarray) -> np.ndarray:
    """(1/2) sum_{l=1}^{k-1} (q_l - q_{l+1}) (q_{k-l} - q_k) for every k at once.

    ``q`` is a 1-indexed padded survival array; slots 0 and 1 of the result
    are zero.  This is the increment of the one-level survival update, and
    the bound certifiers test their models against it.  The result's body
    holds the increments of :func:`_cross_term` until the convolution has
    read them, so above the direct cutoff the call allocates only the result
    and one convolution block.
    """
    K = q.size - 1
    rhs = np.zeros(K + 1)
    if K >= 2:
        body = rhs[2:]
        cross = _cross_term(q, body)
        np.subtract(q[1], q[2:], out=body)
        np.multiply(q[2:], body, out=body)
        np.subtract(cross, body, out=body)
        np.multiply(0.5, body, out=body)
    return rhs


def step_survival(s: SurvivalCurve) -> SurvivalCurve:
    """Advance the survival curve one level by the critical quadratic recurrence.

    v'[k] = v[k] + (1/2) * sum_{l=1}^{k-1} (v[l]-v[l+1]) * (v[k-l]-v[k]).

    This is the recurrence of the balanced mixture, p = 1/2; the entries
    k <= k_max stay exact regardless of what the curve does beyond the cap,
    because the recurrence for slot k touches slots 1..k only.  Used as a
    small-scale oracle against :func:`step_pmf`.
    """
    new = s.values + recurrence_rhs(s.values)
    new[:2] = 1.0
    return SurvivalCurve(values=new, level=s.level + 1)


def evolve(n_target: int, p_plus: float, policy: TruncationPolicy) -> MassFunction:
    """The level-``n_target`` distribution under the given truncation policy.

    Level 1 is the single leaf, at the policy's cap like every later level.
    A policy that would outgrow memory or time fails before the first step
    (see :func:`_levels`).
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if n_target == 1:
        return point_mass_initial(p_plus, k_max=policy.cap_for(1))
    m = point_mass_initial(p_plus, k_max=2)
    for level, probs, tail in _levels(m, n_target, policy):
        if level == n_target:
            m = MassFunction(probs=probs, tail_mass=tail, level=level, p_plus=p_plus)
    return m


def _levels(
    m: MassFunction, n_target: int, policy: TruncationPolicy
) -> Iterator[tuple[int, np.ndarray, float]]:
    """``(level, probs, tail_mass)`` for the levels after ``m`` up to
    ``n_target``, each checked as a :class:`MassFunction` would be.

    The library's one level loop.  Before it allocates, it admits a fixed
    cap's chain as a whole, or the full support's caps level by level, so
    that a refusal names the first level that fails (level 27 at most).
    Two arrays of the largest cap hold the levels in turn, and one
    :class:`_ConvBlock` serves every level's self-convolution, so a level
    allocates only window-sized temporaries below the direct cutoff.  Every
    pass, the check included, runs on the level's support window, so a cap
    above it costs no time per level.  A yielded ``probs`` is a read-only
    view that the level after next overwrites.
    """
    if n_target <= m.level:
        return  # no level to step, so nothing to admit or allocate
    if policy.k_max is None:
        for level in range(m.level + 1, n_target + 1):
            policy.cap_for(level)
    else:
        levels, cap = n_target - m.level, policy.k_max
        _admit(f"{levels} levels of {cap} entries", cap * _UNIT_COST["cap entry B"],
               levels * (cap * _UNIT_COST["cap entry ps"] + _UNIT_COST["level ps"]))
    bufs = [np.zeros(policy.cap_for(n_target) + 1) for _ in range(2)]  # caps never shrink
    dirty: list = [None, None]  # the support window each buffer last held
    block = _ConvBlock()
    probs, tail, window = m.probs, m.tail_mass, _support_window(m.probs)
    for level in range(m.level + 1, n_target + 1):
        i = level % 2
        if dirty[i] is not None:
            bufs[i][dirty[i][0] : dirty[i][1] + 1] = 0.0
        src, probs = probs, bufs[i][: policy.cap_for(level) + 1]
        tail, reach = _step_into(src, tail, window, m.p_plus, probs, block)
        window = dirty[i] = _support_window(probs, *reach)
        _check_mass(probs, tail, window)
        probs.setflags(write=False)
        yield level, probs, tail


class Moments(NamedTuple):
    mean_x: float
    mean_log_x: float
    var_log_x: float
    truncated: bool


def moments(m: MassFunction) -> Moments:
    """Truncated-support moments.

    The lumped tail contributes at value ``k_max``.  Under a fixed cap whose
    windows stay within the direct cutoff the tail is P(X > k_max) up to
    rounding, so ``mean_x`` and ``mean_log_x`` are lower bounds, and
    ``truncated`` flags ``tail_mass > 0``; under the full support the tail
    is zero and they are exact.  Above the cutoff they are lower bounds only
    up to the FFT's absolute round-off, of order 1e-15 per entry and in the
    tail (see :func:`step_pmf`).  A chain stepped by hand under a cap that
    grows after mass was lumped loses the guarantee.  ``var_log_x`` is a
    plain truncated moment.
    """
    k = np.arange(1, m.k_max + 1, dtype=float)
    w = m.probs[1:]
    logk = np.log(k)
    mean_x = float(np.dot(k, w)) + m.k_max * m.tail_mass
    mean_log = float(np.dot(logk, w)) + math.log(m.k_max) * m.tail_mass
    second = float(np.dot(logk * logk, w)) + math.log(m.k_max) ** 2 * m.tail_mass
    var_log = max(second - mean_log * mean_log, 0.0)
    return Moments(mean_x, mean_log, var_log, m.tail_mass > 0.0)


# ---------------------------------------------------------------------------
# serialization


def write_distribution_csv(m: MassFunction, out: Union[str, TextIO]) -> None:
    """CSV with one row per mass value: columns k, pmf, survival.

    Past the last resolved entry the table ends in a run of rows whose pmf
    and survival repeat bit for bit (889,374 of the 10^6 rows at N = 40).
    The rows up to the first of that run are formatted and written in
    blocks of ``_CSV_BLOCK_ROWS``; the rest of the run is written as each
    k's digits and the last row's field text, in pieces of at most 10^4
    rows that cross no multiple of 10^4, so its floats are formatted once.
    When the pmf ends in +0.0, every suffix sum over its trailing run of
    +0.0 is exactly 0.0, so those rows' survival is the tail alone and the
    run of repeated rows is the pmf's own: the survival column is computed
    and checked only up to the run.  The writer holds that column and one
    block or piece of text, never the whole table.
    """
    from minplustree._floattext import csv_rows, numbered_rows

    if m.probs[-1:].view(np.uint64)[0] == 0:  # +0.0, not -0.0
        start = _repeats_from(m.probs)
        surv = _survival_curve(m.probs[:start], m.tail_mass, m.level).values
        last = m.probs[-1:] + m.tail_mass  # the whole column's last entry
    else:
        surv = m.survival().values
        start = _repeats_from(m.probs, surv)
        last = surv[-1:]
    fields = csv_rows(m.k_max, m.probs[-1:], last)[len(str(m.k_max)) :]
    with _text_target(out) as fh:
        fh.write("k,pmf,survival\n")
        for lo in range(1, start, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, start)
            fh.write(csv_rows(lo, m.probs[lo:hi], surv[lo:hi]))
        for text in numbered_rows(start, m.k_max + 1, fields):
            fh.write(text)


def write_distribution_json(m: MassFunction, out: Union[str, TextIO]) -> None:
    """``json.dumps(m.to_json_dict(), sort_keys=True)`` and a newline.

    The ``probs`` list up to the first of its trailing run of one repeated
    value is formatted and written in blocks of ``_CSV_BLOCK_ROWS`` values;
    the rest of the run is that value's text repeated, in chunks of as many
    values.  The writer never holds the whole document.
    """
    from minplustree._floattext import json_values

    head = json.dumps({"k_max": m.k_max, "level": m.level, "p_plus": m.p_plus}, sort_keys=True)
    start = _repeats_from(m.probs)
    entry = json_values(m.k_max, m.probs[-1:])
    with _text_target(out) as fh:
        fh.write(head[:-1] + ', "probs": [')
        for lo in range(1, start, _CSV_BLOCK_ROWS):
            fh.write(json_values(lo, m.probs[lo : min(lo + _CSV_BLOCK_ROWS, start)]))
        for lo in range(start, m.k_max + 1, _CSV_BLOCK_ROWS):
            fh.write(entry * (min(lo + _CSV_BLOCK_ROWS, m.k_max + 1) - lo))
        fh.write('], "tail_mass": ' + json.dumps(m.tail_mass) + "}\n")


def _repeats_from(*columns: np.ndarray) -> int:
    """The first k from which every row repeats the row before it, bit for bit
    in each column, up to the last; ``columns[0].size`` if the last row
    repeats none.  Comparing the entries as integers keeps -0.0 apart from
    0.0.  The rows are compared a block at a time from the end.
    """
    for hi in range(columns[0].size, 1, -_CSV_BLOCK_ROWS):
        lo = max(hi - _CSV_BLOCK_ROWS, 1)
        differs = np.zeros(hi - lo, dtype=bool)  # row k in slot k - lo
        for c in columns:
            np.logical_or(differs, c[lo:hi].view(np.uint64) != c[-1:].view(np.uint64), out=differs)
        if differs.any():
            return hi + 1 - int(differs[::-1].argmax())
    return 2


@contextmanager
def _text_target(out: Union[str, TextIO]) -> Iterator[TextIO]:
    """``out`` itself, or the file at path ``out`` opened for writing."""
    if isinstance(out, str):
        with open(out, "w", newline="") as fh:
            yield fh
    else:
        yield out


def _write_text(out: Union[str, TextIO], text: str) -> None:
    with _text_target(out) as fh:
        fh.write(text)
