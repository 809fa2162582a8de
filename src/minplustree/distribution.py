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
import os
import threading
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, TextIO, Union

import numpy as np

# Scaling constant of the critical (p = 1/2) mixture: log X_N lives on the
# scale sqrt(CRITICAL_C * N).
CRITICAL_C = math.pi ** 2 / 3

NORM_EPS = 1e-9          # tolerance for sum(probs) + tail_mass == 1
DIRECT_CONV_MAX = 4096   # direct O(K^2) convolution at or below this size
KMAX_LIMIT = 1 << 26     # largest support cap of any level: 512 MiB per array
# A level of n entries costs about (n + _LEVEL_OVERHEAD) * 200 ns of one core, in
# evolve and in a bound scan alike: 50-260 ns per entry, plus 22 us per level for
# a scan at k = 10 and 48 us for evolve at cap 2.
_LEVEL_OVERHEAD = 256      # one level's fixed cost, in entries
_MAX_LEVEL_WORK = 1 << 33  # levels * (entries + _LEVEL_OVERHEAD): about half an hour
_CLAMP_FLOOR = -1e-12    # FFT round-off more negative than this is a bug
_MONO_SLACK = 1e-12      # float slack when validating monotone curves
_CSV_BLOCK_ROWS = 1 << 14  # rows (JSON: values) per write; a level's text is never whole


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


def _check_level_work(levels: int, entries: int) -> None:
    """Refuse a loop of ``levels`` levels of ``entries`` entries above ``_MAX_LEVEL_WORK``."""
    work = levels * (entries + _LEVEL_OVERHEAD)
    if work > _MAX_LEVEL_WORK:
        raise ValueError(
            f"{levels} levels of {entries} entries cost {work:.3e} entry updates, "
            f"more than the limit of {_MAX_LEVEL_WORK:.3e}"
        )


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Linear convolution: direct for short inputs, FFT-based above the cutoff.

    The FFT branch zero-pads to the 5-smooth length ``_fast_len`` and
    multiplies real spectra.  A self-convolution (``b is a``) transforms its
    operand once and squares the spectrum in place, so it costs one forward
    and one inverse transform; distinct operands take two forward transforms.
    These are the lengths and products of ``scipy.signal.fftconvolve``, and
    the tests check that the results agree bit for bit.
    """
    if max(a.size, b.size) <= DIRECT_CONV_MAX:
        return np.convolve(a, b)
    n = a.size + b.size - 1
    return _fft_product(a, b, _fast_len(n))[:n]


def _fft_product(
    a: np.ndarray,
    b: np.ndarray,
    length: int,
    spec: Optional[np.ndarray] = None,
    spec_b: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Product of the real spectra of ``a`` and ``b``, transformed back.

    With ``length >= a.size + b.size - 1``, the first ``a.size + b.size - 1``
    of the ``length`` entries returned are the linear convolution.

    The transforms zero-pad their operands to ``length`` themselves.  The
    spectra and the result go to ``spec``, ``spec_b`` and ``out`` when those
    are given (``length // 2 + 1`` complex, ``length // 2 + 1`` complex and
    ``length`` real entries) and to fresh arrays otherwise; the arithmetic is
    the same either way.  ``out`` may share memory with ``spec_b``, which is
    spent by the time the inverse transform writes.
    """
    spec = np.fft.rfft(a, length, out=spec)
    if b is a:
        np.multiply(spec, spec, out=spec)
    else:
        spec *= np.fft.rfft(b, length, out=spec_b)
    return np.fft.irfft(spec, length, out=out)


def _cross_term(q: np.ndarray) -> np.ndarray:
    """sum_{l=1}^{k-1} (q_l - q_{l+1}) q_{k-l} for k = 2..K, as entries 0..K-2.

    ``q`` is 1-indexed padded with K = q.size - 1 >= 2.  The sum is a linear
    convolution of the increment sequence with the values, so the whole
    column costs O(K log K) above the direct cutoff.
    """
    K = q.size - 1
    d = q[1:K] - q[2 : K + 1]
    return _convolve(d, q[1:])[: K - 1]


def _survival_suffix(probs: np.ndarray, tail_mass: float) -> np.ndarray:
    """P(X >= k) for k = 1..k_max from the padded mass array and lumped tail."""
    return np.cumsum(probs[:0:-1])[::-1] + tail_mass


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
    that and must be ``"lump"``.  A cap above ``KMAX_LIMIT`` is refused.
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
        elif level - 1 > KMAX_LIMIT.bit_length():
            cap = math.inf  # 2^(level - 1), far above the limit, is not built
        else:
            cap = max(2, 1 << (level - 1))
        if cap > KMAX_LIMIT:
            shown = f"2^{level - 1}" if cap == math.inf else cap
            raise ValueError(
                f"cap {shown} at level {level} is above the limit of {KMAX_LIMIT} entries; "
                "pass a smaller fixed k_max"
            )
        return cap


def _check_mass(probs: np.ndarray, tail_mass: float) -> None:
    """Refuse a negative or NaN entry, or a total ``sum + tail`` off 1 by more than ``NORM_EPS``.

    Both passes run over the whole array: numpy's pairwise sum groups a
    slice differently, so a sum over the support alone could differ in its
    last bits from the one :func:`_step_into` normalizes with.
    """
    # negated comparisons, so that NaN fails them too
    if not (probs.min() >= 0.0 and tail_mass >= 0.0):
        raise ValueError("negative or NaN probability entry")
    total = float(probs.sum()) + tail_mass
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
        _check_mass(probs, self.tail_mass)
        if self.level == 1 and (probs[1] != 1.0 or self.tail_mass != 0.0):
            raise ValueError("level 1 must be a point mass at k = 1")

    @property
    def k_max(self) -> int:
        return self.probs.size - 1

    def survival(self) -> "SurvivalCurve":
        """Survival view: values[k] = P(X >= k) including the lumped tail."""
        vals = np.empty(self.k_max + 1)
        vals[0] = 1.0
        vals[1:] = _survival_suffix(self.probs, self.tail_mass)
        return SurvivalCurve(values=vals, tail_floor=self.tail_mass, level=self.level)

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "p_plus": self.p_plus,
            "k_max": self.k_max,
            "tail_mass": self.tail_mass,
            "probs": [float(x) for x in self.probs[1:]],
        }


@dataclass(frozen=True)
class SurvivalCurve:
    """values[k] = P(X >= k) for k = 1..k_max; values[0] is padding (1.0).

    ``tail_floor`` is the value assigned beyond the cap, i.e. P(X > k_max).
    """

    values: np.ndarray
    tail_floor: float
    level: int

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must cover at least k = 1")
        if not abs(vals[1] - 1.0) <= NORM_EPS:
            raise ValueError("P(X >= 1) must be 1")
        if not (vals.min() >= -_MONO_SLACK and vals.max() <= 1.0 + NORM_EPS):
            raise ValueError("survival values outside [0, 1]")
        if np.any(np.diff(vals[1:]) > _MONO_SLACK):
            raise ValueError("survival values must be nonincreasing")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not -_MONO_SLACK <= self.tail_floor <= vals[-1] + _MONO_SLACK:
            raise ValueError("tail_floor must sit below the last survival value")

    @property
    def k_max(self) -> int:
        return self.values.size - 1


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
    """The spectrum and the inverse transform of a self-convolution above the
    direct cutoff, in one allocation that a level loop keeps.

    The block is replaced only when a transform is longer than any before
    it; shorter ones use its head.  A transform covers twice the support
    window, which ends where the previous level's sum part rose above its
    round-off, so the block follows the resolved mass, not the cap.
    """

    __slots__ = ("block",)

    def __init__(self) -> None:
        self.block: Optional[np.ndarray] = None

    def self_convolve(self, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_convolve(seg, seg)`` as a view of the block, and the spent
        spectrum's memory as float scratch of at least ``2 * seg.size`` entries."""
        n = 2 * seg.size - 1
        length = _fast_len(n)
        half = length // 2 + 1  # complex entries of the spectrum; the rest holds the result
        if self.block is None or self.block.size < length + 1:
            self.block = None  # the old block goes before the new one is allocated
            self.block = np.empty(length + 1, dtype=complex)
        spec = self.block[:half]
        conv = _fft_product(seg, seg, length, spec, out=self.block[half:].view(float)[:length])
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
    Every pass but the normalization sum runs on those slots.
    Each entry takes the IEEE operations, in the same order, of the
    full-length formula ``p * sum_in + (1 - p) * min_in``, with
    ``min_in[k] = s[k]^2 - s[k+1]^2`` over the survival ``s`` including the
    tail, so the result does not depend on the window or the buffers: the
    min part is written first, and each sum-part entry is added to a slot
    that holds its ``(1 - p) * min_in`` or zero.  Above the direct cutoff
    the convolution lives in ``block``, and the survival and its squares in
    the spent spectrum.
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
            if w > DIRECT_CONV_MAX:
                conv, scratch = block.self_convolve(seg)
            else:
                conv = np.convolve(seg, seg)
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
    total = float(out.sum()) + tail
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
    the bound certifiers test their models against it.
    """
    return _RhsPlan(q.size - 1)(q)


class _RhsPlan:
    """:func:`recurrence_rhs` for arrays of one size K, with buffers that
    outlive the call.

    Calling the plan on ``q`` (``q.size == K + 1``) returns its own rhs
    array, overwritten by the next call; a scan over many columns of one
    size therefore allocates nothing per column above the direct cutoff.
    The lengths and the order of every operation are those of a fresh
    computation, so the results are bitwise equal.
    """

    def __init__(self, K: int):
        self.K = K
        self.rhs = np.zeros(K + 1)
        self.length = _fast_len(2 * K - 2) if K > DIRECT_CONV_MAX else 0
        if self.length:
            self.spec = np.empty(self.length // 2 + 1, dtype=complex)
            # the spectrum of q, and once the product is formed, the inverse
            self.work = np.empty_like(self.spec)

    def __call__(self, q: np.ndarray) -> np.ndarray:
        K = self.K
        if K < 2:
            return self.rhs
        body = self.rhs[2:]
        if self.length:
            # _cross_term in the plan's buffers; the increments sit in the
            # rhs body until the forward transform has read them
            d = np.subtract(q[1:K], q[2 : K + 1], out=body)
            conv = _fft_product(
                d, q[1:], self.length, self.spec, self.work, self.work.view(float)[: self.length]
            )
            cross = conv[: K - 1]
        else:
            cross = _cross_term(q)
        np.subtract(q[1], q[2:], out=body)
        np.multiply(q[2:], body, out=body)
        np.subtract(cross, body, out=body)
        np.multiply(0.5, body, out=body)
        return self.rhs


def step_survival(s: SurvivalCurve, p_plus: float = 0.5) -> SurvivalCurve:
    """Advance the survival curve one level by the critical quadratic recurrence.

    v'[k] = v[k] + (1/2) * sum_{l=1}^{k-1} (v[l]-v[l+1]) * (v[k-l]-v[k]).

    Only stated for the balanced mixture; the entries k <= k_max stay exact
    regardless of what the curve does beyond the cap, because the recurrence
    for slot k touches slots 1..k only.  Used as a small-scale oracle against
    :func:`step_pmf`.
    """
    if p_plus != 0.5:
        raise ValueError("survival-form recurrence only applies at p_plus = 1/2")
    new = s.values + recurrence_rhs(s.values)
    new[:2] = 1.0
    return SurvivalCurve(values=new, tail_floor=0.0, level=s.level + 1)


def evolve(n_target: int, p_plus: float, policy: TruncationPolicy) -> MassFunction:
    """The level-``n_target`` distribution under the given truncation policy.

    Every level's cap is checked against ``KMAX_LIMIT``, and a fixed cap's
    levels against ``_MAX_LEVEL_WORK``, before the first step, so a policy
    that would outgrow memory or time fails at once.  (Full-support caps
    double per level, so they pass ``KMAX_LIMIT`` by level 28.)
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if policy.k_max is not None:
        _check_level_work(n_target - 1, policy.k_max)
    for level in range(2, n_target + 1):
        policy.cap_for(level)
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

    Two arrays of the largest cap hold the levels in turn, and one
    :class:`_ConvBlock` serves every transform, so a level allocates only
    window-sized temporaries below the direct cutoff.  A yielded ``probs``
    is a read-only view that the level after next overwrites.
    """
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
        _check_mass(probs, tail)
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

    Rows reach ``out`` in blocks of ``_CSV_BLOCK_ROWS``, formatted by forked
    worker processes or by this one as :func:`_ordered_map` decides, with
    the same bytes either way.  The writer holds the survival column and at
    most two blocks of text per worker, never the whole table.
    """
    from minplustree._floattext import csv_rows

    surv = m.survival().values
    with _text_target(out) as fh:
        fh.write("k,pmf,survival\n")
        fh.flush()  # the forked workers inherit the target with nothing buffered
        with closing(_ordered_map(csv_rows, *_blocks(m.k_max + 1, m.probs, surv))) as blocks:
            for text in blocks:
                fh.write(text)


def write_distribution_json(m: MassFunction, out: Union[str, TextIO]) -> None:
    """``json.dumps(m.to_json_dict(), sort_keys=True)`` and a newline.

    The ``probs`` list reaches ``out`` in blocks of ``_CSV_BLOCK_ROWS``
    values, formatted as by :func:`write_distribution_csv`, so the writer
    never holds the whole document.
    """
    from minplustree._floattext import json_values

    head = json.dumps({"k_max": m.k_max, "level": m.level, "p_plus": m.p_plus}, sort_keys=True)
    with _text_target(out) as fh:
        fh.write(head[:-1] + ', "probs": [')
        fh.flush()  # the forked workers inherit the target with nothing buffered
        with closing(_ordered_map(json_values, *_blocks(m.k_max + 1, m.probs))) as blocks:
            for text in blocks:
                fh.write(text)
        fh.write('], "tail_mass": ' + json.dumps(m.tail_mass) + "}\n")


def _blocks(end: int, *columns: np.ndarray) -> list:
    """The starts of the ``_CSV_BLOCK_ROWS``-row blocks of [1, end), then each column's slices."""
    starts = range(1, end, _CSV_BLOCK_ROWS)
    return [starts] + [[c[lo : lo + _CSV_BLOCK_ROWS] for lo in starts] for c in columns]


def _ordered_map(fn: Callable, *iterables: Iterable) -> Iterator:
    """``map(fn, *iterables)``, on forked worker processes where that is safe.

    A writer's block of text is a few hundred numpy calls on a few thousand
    values each and a pass of ``bytes.translate``, which hold the
    interpreter lock for most of their time: two threads format the CSV of
    a 10^6-row level slower than one thread, and two processes in about two
    thirds of its time.
    When there are two calls or more, more than one CPU is usable, the
    platform can fork, and no other thread runs (forking a threaded process
    is unsafe), the calls go to a pool of forked processes, one per usable
    CPU up to one per call, with at most two calls per worker in flight, and
    the results come back in call order.  Otherwise this process makes each
    call in turn.

    Close the generator when stopping early, so that the pool is shut down
    and its workers joined.
    """
    calls = list(zip(*iterables))
    workers = min(_usable_cpus(), len(calls))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                pending: deque = deque()
                for args in calls:
                    if len(pending) == 2 * workers:
                        yield pending.popleft().result()
                    pending.append(pool.submit(fn, *args))
                while pending:
                    yield pending.popleft().result()
            return
    yield from (fn(*args) for args in calls)


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
