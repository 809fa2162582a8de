"""Closed-form bound models for the survival curve and numeric certifiers.

The one-level survival update is the map

    v'[k] = f(v[1], ..., v[k]),
    f(x_1, ..., x_k) = x_k + (1/2) * sum_{l=1}^{k-1} (x_l - x_{l+1}) * (x_{k-l} - x_k),

whose partial derivatives are nonnegative on the set of nonincreasing
vectors in [0, 1].  Any array that satisfies the update as an inequality
(>= for domination, <= for minorization) therefore sandwiches the true
survival curve.  This module evaluates the closed-form candidate arrays
and certifies those inequalities numerically on finite (N, k) grids.
Certifiers never raise on a violated inequality: the inequalities only
hold for N large, so the empirical onset is data, not an error.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .distribution import (
    CRITICAL_C,
    SurvivalCurve,
    _MONO_SLACK,
    _UNIT_COST,
    _admit,
    _first_invalid,
    recurrence_rhs,
)

_SANDWICH_TOL = 1e-12  # float slack when comparing the exact curve with the models

RangeLike = Union[int, Tuple[int, int]]


# ---------------------------------------------------------------------------
# the recurrence functional


def f_eval(x: Sequence[float]) -> float:
    """Value of the one-level update functional at the vector x (x[0] is x_1)."""
    x = np.asarray(x, dtype=float)
    k = x.size
    if k < 1:
        raise ValueError("need at least one coordinate")
    if k == 1:
        return float(x[0])
    diff = x[:-1] - x[1:]
    rev = x[k - 2 :: -1]  # x_{k-l} for l = 1..k-1
    return float(x[-1] + 0.5 * np.dot(diff, rev - x[-1]))


def f_grad(x: Sequence[float]) -> np.ndarray:
    """Closed-form gradient: entry j < k is x_{k-j} - x_{k-j+1}, entry k is 1 - x_1 + x_k."""
    x = np.asarray(x, dtype=float)
    k = x.size
    if k < 1:
        raise ValueError("need at least one coordinate")
    g = np.empty(k)
    g[-1] = 1.0 - x[0] + x[-1]
    if k > 1:
        g[:-1] = (x[:-1] - x[1:])[::-1]
    return g


# ---------------------------------------------------------------------------
# constant sequences


def b_sequence(K: int) -> np.ndarray:
    """Sequence with b_1 = 0 and b_k = 1 + sqrt(1 + d_k), where d_k is the
    running correlation of increments with earlier terms:
    d_k = sum_{j=1}^{k-2} (b_{j+1} - b_j) * b_{k-j}.

    Returned 1-indexed: out[k] is b_k, out[0] is padding.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    b = np.zeros(K + 1)
    for k in range(2, K + 1):
        d = float(np.dot(b[2:k] - b[1 : k - 1], b[k - 1 : 1 : -1]))
        b[k] = 1.0 + math.sqrt(1.0 + d)
    return b


# ---------------------------------------------------------------------------
# closed-form models


@dataclass(frozen=True)
class UpperModel:
    """Two-branch dominating array.

    q_{N,k} = 1 - log(k)^2 / (N C)                        while log k < t(N),
    q_{N,k} = (2 b sqrt(N C + b^2) - 2 b^2) / (N C)
              * exp(-(log k - t(N)) / b)                  otherwise,

    with junction t(N) = sqrt(N C + b^2) - b, written b for ``beta``.  The
    two branches agree at the junction.  Domination of the true survival
    curve is guaranteed (for N shifted by some offset) when C exceeds the
    critical constant and beta > 1; the class accepts other parameters so
    violations can be scanned deliberately.
    """

    C: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.C < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError("C and beta must be finite and positive")

    @property
    def in_guaranteed_regime(self) -> bool:
        return self.C > CRITICAL_C and self.beta > 1.0

    def threshold(self, N: int) -> float:
        """log-k junction between the two branches at level N."""
        return math.sqrt(N * self.C + self.beta**2) - self.beta


def _tail_coef(m: UpperModel, N: int) -> float:
    """The second branch's value at the junction."""
    return (2.0 * m.beta * math.sqrt(N * m.C + m.beta**2) - 2.0 * m.beta**2) / (N * m.C)


def upper_model_values(m: UpperModel, N: int, k_max: int) -> np.ndarray:
    """q_{N,k} for k = 1..k_max, 1-indexed padded (out[0] = 1)."""
    if N < 1 or k_max < 1:
        raise ValueError("N and k_max must be >= 1")
    out = np.empty(k_max + 1)
    _upper_column(m, N, *_log_tables(k_max), out)
    return out


def _log_tables(k_max: int) -> Tuple[np.ndarray, np.ndarray]:
    """log k and log(k)^2 for k = 1..k_max, 1-indexed padded with zeros."""
    logk = np.zeros(k_max + 1)
    np.log(np.arange(1, k_max + 1, dtype=float), out=logk[1:])
    return logk, np.square(logk)


def _upper_column(
    m: UpperModel, N: int, logk: np.ndarray, logk_sq: np.ndarray, out: np.ndarray
) -> None:
    """Write :func:`upper_model_values` into ``out`` from the tables
    ``_log_tables(k_max)``.

    Since log k rises with k, the first branch is a prefix and the
    exponential tail a suffix; both are written in place.  The tail's
    exponent is clamped at 0, which changes nothing past the junction,
    where it is never positive.
    """
    t = m.threshold(N)
    j = int(np.searchsorted(logk, t))  # logk[:j] < t <= logk[j:]
    head = out[:j]
    np.divide(logk_sq[:j], N * m.C, out=head)
    np.subtract(1.0, head, out=head)
    if j < out.size:
        tail = out[j:]
        np.subtract(logk[j:], t, out=tail)
        np.negative(tail, out=tail)
        np.divide(tail, m.beta, out=tail)
        np.minimum(tail, 0.0, out=tail)
        np.exp(tail, out=tail)
        np.multiply(_tail_coef(m, N), tail, out=tail)
    out[0] = 1.0


@dataclass(frozen=True)
class LowerStepModel:
    """Three-branch minorizing array, optionally with extra step bands.

    q_{N,k} = 1 - b_k / N                       for k < K,
    q_{N,k} = 1 - log(k)^2 / (N c)              for k >= K while log k < sqrt(N c),
    q_{N,k} = 0                                 for k >= K, log k >= sqrt(N c).

    ``b`` is 1-indexed padded and must cover k = 1..K-1; if it also carries
    slot K, the junction gap b_K - log(K)^2 / c is exposed for inspection.
    ``steps`` are additional (threshold, c_r) bands with ascending
    thresholds above K; inside a band the middle branch uses that band's
    constant.  Step models jump upward at thresholds, so they are not
    monotone there; the certifier reports that rather than failing.
    """

    b: np.ndarray
    K: int
    c: float
    steps: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        b = np.ascontiguousarray(self.b, dtype=float)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "steps", tuple((int(t), float(c)) for t, c in self.steps))
        if self.K < 2:
            raise ValueError("K must be >= 2")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be finite and positive")
        if b.size < self.K:
            raise ValueError("b must cover k = 1..K-1 (1-indexed padded)")
        if b[1] != 0.0:
            raise ValueError("b_1 must be 0, so that q_{N,1} = 1")
        head = b[1 : self.K]
        # negated, so that NaN fails: head.min() < 0.0 is False for a NaN
        if not (0.0 <= head.min() and head.max() < math.inf):
            raise ValueError("b must be finite and nonnegative below K")
        if np.any(np.diff(head) < -_MONO_SLACK):
            raise ValueError("b must be nondecreasing below K")
        prev = self.K
        for threshold, c_r in self.steps:
            if threshold <= prev:
                raise ValueError("step thresholds must ascend above K")
            if not 0.0 < c_r < math.inf:
                raise ValueError("step constants must be finite and positive")
            prev = threshold

    @property
    def junction_gap(self) -> float:
        """b_K - log(K)^2 / c when b carries slot K, else nan."""
        if self.b.size <= self.K:
            return math.nan
        return float(self.b[self.K] - math.log(self.K) ** 2 / self.c)


def lower_model_values(m: LowerStepModel, N: int, k_max: int) -> np.ndarray:
    """q_{N,k} for k = 1..k_max, 1-indexed padded (out[0] = 1).

    Values are the raw branch formulas; for small N the head branch can dip
    below zero, which the certifier reports through its validity check.
    """
    if N < 1 or k_max < 1:
        raise ValueError("N and k_max must be >= 1")
    out = np.empty(k_max + 1)
    _lower_column(m, N, *_log_tables(k_max), _lower_bands(m, k_max), out)
    return out


def _lower_bands(m: LowerStepModel, k_max: int) -> list:
    """(start, stop, c) slot ranges of the middle branch's constant bands up to k_max."""
    edges = [m.K] + [t for t, _ in m.steps] + [math.inf]
    constants = [m.c] + [c_r for _, c_r in m.steps]
    return [
        (lo, min(hi, k_max + 1), c)
        for lo, hi, c in zip(edges, edges[1:], constants)
        if lo <= k_max
    ]


def _lower_column(
    m: LowerStepModel,
    N: int,
    logk: np.ndarray,
    logk_sq: np.ndarray,
    bands: list,
    out: np.ndarray,
) -> None:
    """Write :func:`lower_model_values` into ``out`` from the tables
    ``_log_tables(k_max)`` and ``_lower_bands(m, k_max)``.

    Within a band, log k rises with k, so the zero branch is a suffix.
    """
    head = out[1 : min(m.K, out.size)]
    np.divide(m.b[1 : head.size + 1], N, out=head)
    np.subtract(1.0, head, out=head)
    for lo, hi, c in bands:
        band = out[lo:hi]
        np.divide(logk_sq[lo:hi], c * N, out=band)
        np.subtract(1.0, band, out=band)
        band[np.searchsorted(logk[lo:hi], math.sqrt(N * c)) :] = 0.0
    out[0] = 1.0


def lower_model_validity(m: LowerStepModel, N: int, k_max: int) -> Optional[Tuple[int, float]]:
    """First k where the array fails to be a survival curve at level N, or None.

    Checks 0 <= q_{N,k} <= q_{N,k-1} <= 1.
    """
    return _first_invalid(lower_model_values(m, N, k_max))


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of a one-level recurrence inequality over an (N, k) grid.

    ``min_margin`` is the smallest residual, NaN if any residual is NaN;
    the inequality holds on the grid iff it is nonnegative, in which case
    ``first_violation`` is None.  A NaN residual counts as a violation.
    ``first_invalid_curve`` is the first (N, k, q_{N,k}) where a scanned
    column is no survival curve; ``curve_valid`` says that there is none.
    """

    checked_n: Tuple[int, int]
    checked_k: Tuple[int, int]
    min_margin: float
    first_violation: Optional[Tuple[int, int, float]]
    n_violations: int
    gamma_estimate: Optional[float] = None
    first_invalid_curve: Optional[Tuple[int, int, float]] = None
    residuals: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if (self.first_violation is None) != (self.min_margin >= 0.0):
            raise ValueError("first_violation must be present iff min_margin < 0")

    @property
    def passed(self) -> bool:
        return self.min_margin >= 0.0

    @property
    def curve_valid(self) -> bool:
        return self.first_invalid_curve is None

    def to_json_dict(self) -> dict:
        out = {
            "checked_n": list(self.checked_n),
            "checked_k": list(self.checked_k),
            "min_margin": self.min_margin,
            "first_violation": list(self.first_violation) if self.first_violation else None,
            "n_violations": self.n_violations,
            "gamma_estimate": self.gamma_estimate,
            "curve_valid": self.curve_valid,
            "first_invalid_curve": (
                list(self.first_invalid_curve) if self.first_invalid_curve else None
            ),
        }
        if self.residuals is not None:
            out["grid_shape"] = list(self.residuals.shape)
            out["residuals"] = [[float(x) for x in row] for row in self.residuals]
        return out


def _norm_range(r: RangeLike, lo_default: int = 1) -> Tuple[int, int]:
    if isinstance(r, int):
        return lo_default, r
    lo, hi = int(r[0]), int(r[1])
    if lo > hi:
        raise ValueError(f"empty range {r}")
    return lo, hi


class _Profile(NamedTuple):
    """A model's leading branch q_{N,k} = 1 - G[k] / (s N).

    ``G()`` returns G on slots 0..k_hi (with G[1] = 0), ``s`` is the
    branch's scale, and ``covers(N)`` tells whether the branch holds on the
    whole column, slots 1..k_hi, at level N.  The branch's ends rise with N,
    so the levels it covers form a suffix of any scan.
    """

    G: Callable[[], np.ndarray]
    s: float
    covers: Callable[[int], bool]


def _branch_terms(G, R, gamma: float, direction: int, out=None) -> np.ndarray:
    """T(gamma) = direction * (fl(G * gamma) - R), elementwise."""
    t = np.multiply(G, gamma, out=out)
    np.subtract(t, R, out=t)
    if direction < 0:
        np.negative(t, out=t)
    return t


def _certify(
    fill_column,
    n_range: Tuple[int, int],
    k_range: Tuple[int, int],
    direction: int,
    keep_grid: bool,
    profile: _Profile,
    gamma_at=None,
    rises=None,
) -> CertificateReport:
    """Scan the residual columns N = n_lo..n_hi over k = k_lo..k_hi.

    ``fill_column(N, out)`` writes the model array at level N, slots
    0..k_hi, into ``out``.  The levels whose column leaves the ``profile``'s
    leading branch, a prefix n_lo..n_cov - 1 of the scan, take
    direction * ((q_{N+1} - q_N) - rhs(q_N)): two model columns swap roles
    from level to level, and each level calls recurrence_rhs on its own
    column once the previous level's rhs is freed.

    The covered levels n_cov..n_hi build no column.  The rhs uses only
    differences of q and is quadratic in them, so on the branch the
    residual is exactly beta_N * direction * (G_k gamma_N - R_k), with
    R = rhs(G), gamma_N = s N / (N + 1) and beta_N = 1 / (s N)^2.  It is
    evaluated as fl(beta_N * T_k(gamma_N)) (see :func:`_branch_terms`),
    from one recurrence_rhs(G) per scan, which also avoids convolving a
    column close to 1 and subtracting two such columns.  Every rounding
    step is monotone, gamma_N rises with N and beta_N falls, so T_k moves
    one way over the covered levels, bit for bit, and the two end levels
    bound it.  A slot whose T_k at the low end is above the smallest T at
    the high end is never a level's minimum; a slot that is not negative
    at the low end is never violated, and one whose residual at the high
    end, scaled by the smallest beta, is negative is always violated.  So
    a covered level evaluates only the remaining slots (and the first
    always-violated one, and any that is NaN at an end), unless the grid
    is kept, whose rows are written whole.

    ``gamma_at(N, col)``, when given, returns the smallest breathing-room
    ratio residual * N^2 / G of the residual column at N, or None where no
    slot k >= 2 qualifies.  On the covered levels that ratio is
    (gamma_N - R_k / G_k) / s^2, smallest at n_cov and the largest R / G.
    ``rises(N)``, when given, turns on the check that each model column is
    a survival curve, until the first one that is not: the uncovered levels
    and n_cov run :func:`_first_invalid`.  A covered column entry rises with
    N bit for bit, so past n_cov it stays within [-slack, 1] and can pass
    its left neighbour by more than the slack only at a few slots;
    ``rises(N)`` checks those and returns the first failure as (k, q_{N,k}),
    or None.
    """
    n_lo, n_hi = n_range
    k_lo, k_hi = k_range
    n_cov = n_lo + bisect.bisect_left(range(n_lo, n_hi + 1), True, key=profile.covers)

    min_margin = math.inf
    first_violation = None
    n_violations = 0
    gamma = math.inf
    saw_model1 = False
    first_invalid = None
    grid = np.empty((n_hi - n_lo + 1, k_hi - k_lo + 1)) if keep_grid else None

    def tally(N: int, res: np.ndarray, slots=None, n_unseen: int = 0) -> None:
        # residuals at column slots ``slots`` (all of them by default), and
        # ``n_unseen`` violations at slots not among them
        nonlocal min_margin, n_violations, first_violation
        m = float(res.min())  # NaN if any residual is
        if m < min_margin or math.isnan(m):
            min_margin = m
        n_violations += n_unseen
        if not m >= 0.0:
            bad = np.flatnonzero(~(res >= 0.0))  # a NaN residual is a violation
            n_violations += bad.size
            if bad.size and first_violation is None:
                i = int(bad[0])
                k = i if slots is None else int(slots[i])
                first_violation = (N, k + k_lo, float(res[i]))

    def validate(N: int, invalid: Optional[Tuple[int, float]]) -> None:
        nonlocal first_invalid
        if invalid is not None:
            first_invalid = (N, *invalid)

    q = None
    if n_lo < n_cov or rises is not None:
        q = np.empty(k_hi + 1)
        fill_column(n_lo, q)
    if n_lo < n_cov:
        q_next, col = np.empty(k_hi + 1), np.empty(k_hi - k_lo + 1)
        for N in range(n_lo, n_cov):
            rhs = None  # the previous level's rhs goes before this one is built
            rhs = recurrence_rhs(q)[k_lo:]
            fill_column(N + 1, q_next)
            # direction * ((q_next - q) - rhs) on k_lo..k_hi
            np.subtract(q_next[k_lo:], q[k_lo:], out=col)
            np.subtract(col, rhs, out=col)
            if direction < 0:
                np.negative(col, out=col)
            if grid is not None:
                grid[N - n_lo] = col
            tally(N, col)
            if gamma_at is not None:
                ratio = gamma_at(N, col)
                if ratio is not None:
                    saw_model1 = True
                    gamma = min(gamma, ratio)
            if rises is not None and first_invalid is None:
                validate(N, _first_invalid(q))
            q, q_next = q_next, q
        q_next = col = rhs = None

    if n_cov <= n_hi:
        if rises is not None and first_invalid is None:
            validate(n_cov, _first_invalid(q))
        q = None
        G = profile.G()
        R = recurrence_rhs(G)[k_lo:]
        G = G[k_lo:]
        s = profile.s

        def scale(N: int) -> Tuple[float, float]:
            # gamma_N rises and beta_N falls with N, bit for bit
            sN = s * N
            return s * (N / (N + 1)), 1.0 / (sN * sN)

        gamma_lo, _ = scale(n_cov)
        gamma_hi, beta_hi = scale(n_hi)
        # each T_k is largest at the high end of the covered levels, smallest at the low end
        g_high, g_low = (gamma_hi, gamma_lo) if direction > 0 else (gamma_lo, gamma_hi)
        t = _branch_terms(G, R, g_high, direction)
        nan = np.isnan(t)  # NaN at some level is NaN at an end
        least_high = np.fmin.reduce(t)
        always = ~(np.multiply(t, beta_hi, out=t) >= 0.0)  # violated at every level
        t = _branch_terms(G, R, g_low, direction, out=t)
        seen = ~(t >= 0.0) & ~always  # violated at some levels only
        seen |= nan | np.isnan(t)
        seen |= t <= least_high  # every level's minimum is among these
        first_always = int(always.argmax())
        seen[first_always] |= always[first_always]  # so a level's first violation is seen
        slots = np.flatnonzero(seen)
        n_unseen = int(np.count_nonzero(always & ~seen))
        G_seen, R_seen = G[slots], R[slots]
        t = nan = always = seen = None
        if gamma_at is not None and max(k_lo, 2) <= k_hi:
            i = max(k_lo, 2) - k_lo
            saw_model1 = True
            gamma = min(gamma, (gamma_lo - float(np.divide(R[i:], G[i:]).max())) / (s * s))
        for N in range(n_cov, n_hi + 1):
            g, beta = scale(N)
            if grid is not None:
                row = _branch_terms(G, R, g, direction, out=grid[N - n_lo])
                np.multiply(row, beta, out=row)
            res = _branch_terms(G_seen, R_seen, g, direction)
            np.multiply(res, beta, out=res)
            tally(N, res, slots, n_unseen)
            if rises is not None and first_invalid is None and N > n_cov:
                validate(N, rises(N))

    return CertificateReport(
        checked_n=(n_lo, n_hi),
        checked_k=(k_lo, k_hi),
        min_margin=min_margin + 0.0,  # fold -0.0 into +0.0
        first_violation=first_violation,
        n_violations=n_violations,
        gamma_estimate=(gamma if saw_model1 else None),
        first_invalid_curve=first_invalid,
        residuals=grid,
    )


def _grid_ranges(n_range: RangeLike, k_range: RangeLike, keep_grid: bool) -> tuple:
    """The normalized ranges of a scan and its kept grid that :func:`_admit` admits."""
    n_lo, n_hi = _norm_range(n_range)
    k_lo, k_hi = _norm_range(k_range)
    if n_lo < 1 or k_lo < 1:
        raise ValueError("ranges must start at 1 or above")
    levels = n_hi - n_lo + 1
    cells = levels * (k_hi - k_lo + 1) if keep_grid else 0
    grid = _UNIT_COST["grid B"] + cells * _UNIT_COST["grid cell B"] if keep_grid else 0
    _admit(f"a scan of {levels} levels of {k_hi} entries and a grid of {cells} cells",
           k_hi * _UNIT_COST["scan k B"] + grid,
           levels * (k_hi * _UNIT_COST["scan k ps"] + _UNIT_COST["level ps"]))
    return (n_lo, n_hi), (k_lo, k_hi)


def certify_upper(
    m: UpperModel,
    n_range: RangeLike,
    k_range: RangeLike,
    keep_grid: bool = False,
) -> CertificateReport:
    """Residuals of the domination inequality

        q_{N+1,k} - q_{N,k} >= (1/2) sum_l (q_{N,l} - q_{N,l+1}) (q_{N,k-l} - q_{N,k})

    on the grid.  Where the whole column k sits in the first branch (log k
    below the junction at N), residual * N^2 / log(k)^2 is also tracked and
    its infimum reported as an empirical stand-in for the breathing-room
    coefficient, which the analysis guarantees positive above the critical
    constant but never exhibits.
    """
    n_range, (k_lo, k_hi) = _grid_ranges(n_range, k_range, keep_grid)
    logk, logk_sq = _log_tables(k_hi)
    ratios = np.empty(k_hi + 1)

    def junction(N: int) -> int:
        return int(np.searchsorted(logk, m.threshold(N)))  # the first-branch slots end here

    def gamma_at(N: int, col: np.ndarray) -> Optional[float]:
        # first-branch slots k >= 2 form the range [lo, hi)
        lo = max(k_lo, 2)
        hi = min(k_hi + 1, junction(N))
        if lo >= hi:
            return None
        r = ratios[lo:hi]
        np.multiply(col[lo - k_lo : hi - k_lo], N**2, out=r)
        np.divide(r, logk_sq[lo:hi], out=r)
        return float(r.min())

    return _certify(
        lambda N, out: _upper_column(m, N, logk, logk_sq, out),
        n_range,
        (k_lo, k_hi),
        direction=+1,
        keep_grid=keep_grid,
        gamma_at=gamma_at,
        profile=_Profile(lambda: logk_sq, m.C, lambda N: junction(N) > k_hi),
    )


def certify_lower(
    m: LowerStepModel,
    n_range: RangeLike,
    k_range: RangeLike,
    keep_grid: bool = False,
) -> CertificateReport:
    """Residuals of the minorization inequality (the domination inequality
    reversed), plus a validity check that the model array is a survival
    curve (in [0, 1] and nonincreasing) at each scanned level."""
    n_range, (k_lo, k_hi) = _grid_ranges(n_range, k_range, keep_grid)
    logk, logk_sq = _log_tables(k_hi)
    bands = _lower_bands(m, k_hi)

    def profile() -> np.ndarray:
        # G = b below K and log(k)^2 / c_r on band r, so that q = 1 - G / N
        G = np.empty(k_hi + 1)
        G[0] = 0.0
        head = min(m.K, k_hi + 1)
        G[1:head] = m.b[1:head]
        for lo, hi, c in bands:
            np.divide(logk_sq[lo:hi], c, out=G[lo:hi])
        return G

    def covers(N: int) -> bool:
        # no band reaches its zero branch, log k >= sqrt(N c), below k_hi
        return all(logk[hi - 1] < math.sqrt(N * c) for _, hi, c in bands)

    # A covered column entry is 1 - H_k / (c_k N), with H = b below K and
    # log(k)^2 above, c_k = 1 below K and the band's constant above.  Past the
    # first covered level it can pass its left neighbour by more than the
    # slack only where the divisor changes: at K and at each step threshold.
    # Within a band log(k)^2 rises, and where b falls (by at most 1e-12) the
    # rise is at most 1e-12 / N plus two roundings, below the slack at N >= 2.
    slots = np.array([lo for lo, _, _ in bands], dtype=np.intp)
    H = logk_sq[np.stack((slots - 1, slots))]  # each slot's left neighbour, then the slot
    H[0, :1] = m.b[m.K - 1]  # left of K is the head, whose divisor is N
    constants = [c for _, _, c in bands]
    c_k = np.array([([1.0] + constants)[:-1], constants])

    def rises(N: int) -> Optional[Tuple[int, float]]:
        # the arithmetic of _lower_column, slot by slot: c_k N is N below K
        q = 1.0 - H / (c_k * N)
        up = np.flatnonzero(q[1] - q[0] > _MONO_SLACK)
        return (int(slots[up[0]]), float(q[1, up[0]])) if up.size else None

    return _certify(
        lambda N, out: _lower_column(m, N, logk, logk_sq, bands, out),
        n_range,
        (k_lo, k_hi),
        direction=-1,
        keep_grid=keep_grid,
        rises=rises,
        profile=_Profile(profile, 1.0, covers),
    )


# ---------------------------------------------------------------------------
# sandwich against the exact curve


@dataclass(frozen=True)
class SandwichReport:
    level: int
    upper_shift: int
    lower_shift: int
    checked_k: int
    upper_violations: int
    lower_violations: int
    first_upper_violation: Optional[Tuple[int, float, float]]
    first_lower_violation: Optional[Tuple[int, float, float]]

    @property
    def passed(self) -> bool:
        return self.upper_violations == 0 and self.lower_violations == 0


def sandwich_check(
    N: int,
    upper: UpperModel,
    lower: LowerStepModel,
    exact: SurvivalCurve,
    upper_shift: int = 0,
    lower_shift: int = 0,
) -> SandwichReport:
    """Check lower(N - lower_shift, k) <= exact <= upper(N + upper_shift, k)
    for every k on the exact curve's support, up to ``_SANDWICH_TOL``."""
    if exact.level != N:
        raise ValueError(f"exact curve is at level {exact.level}, not {N}")
    if N - lower_shift < 1:
        raise ValueError("lower_shift pushes the level below 1")
    k_hi = exact.k_max
    up = upper_model_values(upper, N + upper_shift, k_hi)
    lo = lower_model_values(lower, N - lower_shift, k_hi)
    truth = exact.values

    over = np.flatnonzero(truth[1:] > up[1:] + _SANDWICH_TOL)
    under = np.flatnonzero(truth[1:] < lo[1:] - _SANDWICH_TOL)
    first_up = None
    if over.size:
        k = int(over[0]) + 1
        first_up = (k, float(truth[k]), float(up[k]))
    first_lo = None
    if under.size:
        k = int(under[0]) + 1
        first_lo = (k, float(truth[k]), float(lo[k]))
    return SandwichReport(
        level=N,
        upper_shift=upper_shift,
        lower_shift=lower_shift,
        checked_k=k_hi,
        upper_violations=int(over.size),
        lower_violations=int(under.size),
        first_upper_violation=first_up,
        first_lower_violation=first_lo,
    )
