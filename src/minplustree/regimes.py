"""Behavior away from the balanced mixture: tightness below 1/2, growth above.

Below p = 1/2 the root value converges in distribution; the survival
probabilities increase in the level toward a limit curve whose second entry
is p/(1-p), solved entry by entry from its balance equation.  Above p = 1/2
the mean grows at least geometrically with ratio 2p per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distribution import (
    MassFunction,
    TruncationPolicy,
    _MONO_SLACK,
    _UNIT_COST,
    _admit,
    _cross_term,
    _levels,
    moments,
    point_mass_initial,
)

SUBCRITICAL_K_CAP = 4096    # support cap for evolving the subcritical chain level by level


@dataclass(frozen=True)
class RegimeReport:
    p_plus: float
    fixed_point_c2: Optional[float] = None
    growth_base: Optional[float] = None
    limit_survival: Optional[np.ndarray] = None

    @property
    def classification(self) -> str:
        if self.p_plus == 0.5:
            return "critical"
        return "subcritical" if self.p_plus < 0.5 else "supercritical"

    def __post_init__(self) -> None:
        if self.limit_survival is not None:
            vals = self.limit_survival[1:]
            if np.any(np.diff(vals) > _MONO_SLACK):
                raise ValueError("limit survival values must be nonincreasing")

    def to_json_dict(self) -> dict:
        return {
            "p_plus": self.p_plus,
            "classification": self.classification,
            "fixed_point_c2": self.fixed_point_c2,
            "growth_base": self.growth_base,
            "limit_survival": (
                None if self.limit_survival is None else [float(x) for x in self.limit_survival[1:]]
            ),
        }


def subcritical_fixed_point(p: float) -> float:
    """Limit of P(X_N >= 2) for p below 1/2: the stable fixed point p/(1-p)."""
    if not 0.0 < p < 0.5:
        raise ValueError("defined for 0 < p < 1/2")
    return p / (1.0 - p)


def limit_survival(p: float, k_max: int = 64, tol: float = 1e-7) -> np.ndarray:
    """Limit survival prefix c_k = lim_N P(X_N >= k), 1-indexed padded.

    Solved entry by entry from the balance equation of ``stationarity_residual``,
    whose right side r_k uses only c_1..c_{k-1}: c_k is the smaller root of
    (1-p) c^2 - c + r_k = 0, taken as 2 r_k / (1 + sqrt(1 - 4 (1-p) r_k)) to
    avoid cancellation.  That root is the limit: level by level each entry moves
    as x -> (1-p) x^2 + r with r rising to r_k, never passing it from x = 0.
    O(k_max^2), and admitted as such: ``k_max`` is at most 2,267,786.  ArithmeticError
    if the balance residual of the result exceeds ``tol``.
    """
    if not 0.0 < p < 0.5:
        raise ValueError("defined for 0 < p < 1/2")
    _check_curve_args(k_max, tol)
    _admit_curve(k_max, solved=True)
    c = np.ones(k_max + 1)
    d = np.zeros(k_max)     # d[l] = c_l - c_{l+1}
    rev = np.zeros(k_max)   # rev[k_max - l] = c_l, so c_{k-1}, ..., c_2 is one slice
    for k in range(2, k_max + 1):
        r = p * (c[k - 1] + float(np.dot(d[1 : k - 1], rev[k_max - k + 1 : k_max - 1])))
        c[k] = rev[k_max - k] = 2.0 * r / (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * (1.0 - p) * r)))
        d[k - 1] = c[k - 1] - c[k]
    residual = stationarity_residual(c, p)
    if not residual <= tol:
        raise ArithmeticError(f"balance residual {residual:.3e} above tol {tol:.3e}")
    return c


def _check_curve_args(k_max: int, tol: float) -> None:
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _admit_curve(k_max: int, solved: bool) -> None:
    """Admit a limit curve and its report by their bytes, and its solve, if
    ``solved``, by its time."""
    _admit(f"a limit curve of k_max = {k_max} entries", k_max * _UNIT_COST["curve k B"],
           k_max**2 * _UNIT_COST["curve k ps"] if solved else 0)


def stationarity_residual(c: np.ndarray, p: float) -> float:
    """Sup residual of the limit-curve balance equation, for k = 2..k_max:

        c_k - (1-p) c_k^2 = p * [ sum_{l=1}^{k-2} (c_l - c_{l+1}) c_{k-l} + c_{k-1} ].

    The sum is the recurrence cross term (which runs to l = k-1) without its
    last summand (c_{k-1} - c_k) c_1.
    """
    k_max = c.size - 1
    if k_max < 2:
        return 0.0
    ck, prev = c[2:], c[1:k_max]
    bracket = _cross_term(c) - (prev - ck) * c[1] + prev
    lhs = ck - (1.0 - p) * ck**2
    return float(np.max(np.abs(lhs - p * bracket)))


def supercritical_growth(p: float, n_max: int) -> np.ndarray:
    """Per-level truncated means, certified lower bounds on E[X_N].

    Full support (cap 2^(N-1)) keeps the tail at zero, so the means are
    exact; each must reach (2p)^(N-1) with the single-leaf level counting
    as N = 1.  The levels come from :func:`evolve`'s level loop, which
    refuses an oversized chain before the first step.  Returned 1-indexed
    padded (out[0] is nan).
    """
    if not 0.5 < p <= 1.0:
        raise ValueError("defined for 1/2 < p <= 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    means = np.full(n_max + 1, math.nan)
    m = point_mass_initial(p)
    means[1] = moments(m).mean_x
    for level, probs, tail in _levels(m, n_max, TruncationPolicy()):
        if tail != 0.0:
            raise ArithmeticError("full-support evolution must not lump any tail")
        means[level] = moments(MassFunction(probs, tail, level, p)).mean_x
    floors = (2.0 * p) ** (np.arange(n_max + 1) - 1)
    if np.any(means[1:] < floors[1:] * (1.0 - 1e-9)):
        raise ArithmeticError("geometric growth floor violated")
    return means


def classify(p: float, k_max: int = 64, tol: float = 1e-7) -> RegimeReport:
    """Regime report for a mixture probability: fixed point and limit curve
    below 1/2, growth base above, bare classification at 1/2.

    ``k_max`` and ``tol`` are checked at every p, but only a report that
    carries a limit curve is admitted by its size.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    _check_curve_args(k_max, tol)
    if p == 0.5:
        return RegimeReport(p_plus=p)
    if 0.0 < p < 0.5:
        curve = limit_survival(p, k_max=k_max, tol=tol)
        return RegimeReport(p_plus=p, fixed_point_c2=subcritical_fixed_point(p),
                            limit_survival=curve)
    if p == 0.0:
        # all-min tree: the root value is identically 1, so nothing is solved
        _admit_curve(k_max, solved=False)
        curve = np.ones(k_max + 1)
        curve[2:] = 0.0
        return RegimeReport(p_plus=p, fixed_point_c2=0.0, limit_survival=curve)
    supercritical_growth(p, 12)  # growth floor sanity over 12 levels before reporting
    return RegimeReport(p_plus=p, growth_base=2.0 * p)
