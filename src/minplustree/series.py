"""Auxiliary series evaluation and limit-law diagnostics.

Every series here is summed directly in 64-bit floats, so the values double
as independent oracles for the claimed closed-form bounds.  The diagnostic
side compares the exact distribution, on the log scale normalized by
sqrt(CRITICAL_C * N), against the limiting CDF min(max(t, 0)^2, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .distribution import CRITICAL_C, MassFunction, _UNIT_COST, _admit, moments

PI2_OVER_6 = math.pi**2 / 6
LIMIT_MEAN = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
_FINITE_K_SLACK = 0.01  # absolute slack when checking asymptotic claims at finite k


def _log_ratio_sum(j: np.ndarray, k: int) -> float:
    """sum of -log(1 - j/k) / j over the array j, which it overwrites.

    The terms are formed in place with the operations and order of
    ``np.sum(-np.log1p(-j / k) / j)``, so the value is the same bit for bit
    with one level-sized temporary instead of two.
    """
    t = np.negative(j)
    np.divide(t, k, out=t)
    np.log1p(t, out=t)
    np.negative(t, out=t)
    np.divide(t, j, out=t)
    return float(np.sum(t))


def _check_k(k: int, lo: int) -> None:
    """Refuse k below lo, or k terms that :func:`_admit` refuses, before they exist."""
    if k < lo:
        raise ValueError(f"k must be >= {lo}, got {k}")
    _admit(f"a series of k = {k} terms", k * _UNIT_COST["series k B"], k * _UNIT_COST["series k ps"])


def h(k: int) -> float:
    """h(k) = sum_{l=1}^{k-1} (1/l) * log(k / (k - l)); bounded by pi^2/6."""
    _check_k(k, 1)
    if k == 1:
        return 0.0
    return _log_ratio_sum(np.arange(1, k, dtype=float), k)


def B(k: int) -> float:
    """B(k) = sum_{j=1}^{k-1} (1/j) * log(1 - j/k)^2; uniformly below 12."""
    _check_k(k, 2)
    j = np.arange(1, k, dtype=float)
    # np.sum(np.log1p(-j / k) ** 2 / j), each step in place
    t = np.negative(j)
    np.divide(t, k, out=t)
    np.log1p(t, out=t)
    np.square(t, out=t)
    np.divide(t, j, out=t)
    return float(np.sum(t))


def M(A: int, k: int) -> float:
    """M(A, k) = sum_{j=floor(k/A)}^{k-1} (-1/j) * log((k - j)/k).

    The window keeps only the largest-j portion of h(k); its liminf in k is
    pi^2/6 - pi^2/(6A).  A = 1 gives an empty window and value 0.
    """
    if A < 1:
        raise ValueError("A must be >= 1")
    _check_k(k, A)
    start = k // A
    if start >= k:
        return 0.0
    return _log_ratio_sum(np.arange(max(start, 1), k, dtype=float), k)


def S_alpha(k: int, alpha: float) -> float:
    """S(k) = sum_{l=1}^{k-1} (l^-a - (l+1)^-a) * ((k-l)^-a - k^-a) for a = alpha."""
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must be in (0, 1/2)")
    _check_k(k, 2)
    ell = np.arange(1, k, dtype=float)
    # left = ell**-a - (ell + 1)**-a and right = (k - ell)**-a - k**-a, in
    # place: ell itself becomes ell**-a once right no longer needs it
    left = np.add(ell, 1.0)
    np.power(left, -alpha, out=left)
    right = np.subtract(k, ell)
    np.power(ell, -alpha, out=ell)
    np.subtract(ell, left, out=left)
    np.power(right, -alpha, out=right)
    np.subtract(right, float(k) ** -alpha, out=right)
    return float(np.dot(left, right))


def S_alpha_bound(k: int, alpha: float, eps: float = 0.1) -> float:
    """Claimed bound (alpha^2 / k^(2 alpha)) * (1 + eps) * pi^2 / 6."""
    return alpha**2 / k ** (2.0 * alpha) * (1.0 + eps) * PI2_OVER_6


def limit_cdf(t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Limiting CDF of the scaled log value: 0 below 0, t^2 on [0, 1], 1 above."""
    clipped = np.clip(t, 0.0, 1.0)
    out = clipped * clipped
    if np.isscalar(t):
        return float(out)
    return out


@dataclass(frozen=True)
class SeriesEval:
    """One named series value next to its claimed bound.

    ``relation`` is the comparison of value to bound that was checked:
    ``"<="``, ``"<"`` or ``">="``.
    """

    name: str
    k: int
    value: float
    bound: float
    satisfied: bool
    relation: str


def evaluate(name: str, k: int, alpha: Optional[float] = None, A: Optional[int] = None) -> SeriesEval:
    """Evaluate a named series and compare it with its claimed bound.

    h and S are bounded above, B strictly below 12, and M is bounded below
    (asymptotic claim, checked with a fixed finite-k slack of 0.01).
    """
    if name == "h":
        value = h(k)
        bound = PI2_OVER_6
        relation, ok = "<=", value <= bound + 1e-12
    elif name == "B":
        value = B(k)
        bound = 12.0
        relation, ok = "<", value < bound
    elif name == "M":
        if A is None:
            raise ValueError("M requires the window parameter A")
        value = M(A, k)
        bound = PI2_OVER_6 - PI2_OVER_6 / A - _FINITE_K_SLACK
        relation, ok = ">=", value >= bound
    elif name == "S":
        if alpha is None:
            raise ValueError("S requires alpha")
        value = S_alpha(k, alpha)
        bound = S_alpha_bound(k, alpha)
        relation, ok = "<=", value <= bound
    else:
        raise ValueError(f"unknown series {name!r}")
    return SeriesEval(
        name=name, k=k, value=value, bound=bound, satisfied=bool(ok), relation=relation
    )


@dataclass(frozen=True)
class LimitDiagnostics:
    N: int
    ks_distance: float
    mean_scaled: float
    target_mean: ClassVar[float] = LIMIT_MEAN

    def __post_init__(self) -> None:
        if not 0.0 <= self.ks_distance <= 1.0:
            raise ValueError("ks_distance must be in [0, 1]")


def scaled_cdf_points(exact: MassFunction) -> tuple[np.ndarray, np.ndarray]:
    """(t_k, F(t_k)) for the scaled variable log(X)/sqrt(c N) on the support."""
    scale = math.sqrt(CRITICAL_C * exact.level)
    k = np.arange(1, exact.k_max + 1, dtype=float)
    t = np.log(k) / scale
    cdf = np.cumsum(exact.probs[1:])
    return t, cdf


def diagnose(exact: MassFunction) -> LimitDiagnostics:
    """Sup distance between the scaled exact CDF and the limit CDF, plus the
    scaled mean of the log value.

    The distribution is atomic, so the sup is attained at an atom from one
    side or the other; both one-sided gaps are taken at every support point.
    The comparison covers the computed support; mass lumped beyond the cap
    is outside the window (it shrinks the measured distance by at most
    tail_mass).
    """
    if exact.p_plus != 0.5:
        raise ValueError("limit diagnostics are defined for the critical mixture only")
    t, cdf = scaled_cdf_points(exact)
    target = limit_cdf(t)
    left = np.concatenate(([0.0], cdf[:-1]))
    ks = float(np.max(np.maximum(np.abs(cdf - target), np.abs(left - target))))
    mean_scaled = moments(exact).mean_log_x / math.sqrt(exact.level)
    return LimitDiagnostics(N=exact.level, ks_distance=min(ks, 1.0), mean_scaled=mean_scaled)
