"""Independent Monte Carlo oracle: sample root values of the random tree.

Sampling walks the complete tree in post order with a pending-value stack
of at most ``depth`` entries, so the tree itself is never materialized.
Streams come from the counter-based Philox generator seeded through
``numpy``'s SeedSequence spawning, which makes worker substreams provably
non-overlapping and runs reproducible across platforms.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, NamedTuple, TextIO, Union

import numpy as np
from scipy.stats import chi2 as _chi2

from .distribution import CRITICAL_C, MassFunction, _write_text

MAX_DEPTH = 63                      # values fit in uint64: X_N <= 2^(N-1)
_BATCH = 1 << 16                    # samples evolved per vectorized pass
QUANTILE_PROBS = (0.1, 0.25, 0.5, 0.75, 0.9)


@dataclass(frozen=True)
class SimConfig:
    depth: int
    p_plus: float
    n_samples: int
    seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
        if not 0.0 <= self.p_plus <= 1.0:
            raise ValueError("p_plus must be a probability")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


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


def sample_one(depth: int, p_plus: float, rng: np.random.Generator) -> int:
    """One realization of the root value: a batch of one from :func:`_sample_batch`."""
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in [1, {MAX_DEPTH}]")
    return int(_sample_batch(depth, p_plus, 1, rng)[0])


def _sample_batch(depth: int, p_plus: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent root values at once.

    Post-order evaluation with a stack of at most ``depth`` pending subtree
    values per sample; after pushing leaf number i, the number of merges
    equals the number of trailing one bits of i.  Time is O(2^(depth-1))
    vectorized node visits, memory O(depth * n).
    """
    if depth == 1:
        return np.ones(n, dtype=np.uint64)
    stack = np.zeros((depth, n), dtype=np.uint64)
    for leaf in range(2 ** (depth - 1)):
        v = np.ones(n, dtype=np.uint64)
        d = 0
        t = leaf
        while t & 1:
            w = stack[d]
            plus = rng.random(n) < p_plus
            v = np.where(plus, v + w, np.minimum(v, w))
            d += 1
            t >>= 1
        stack[d] = v
    return stack[depth - 1]


def _worker_counts(cfg: SimConfig, share: int, seq: np.random.SeedSequence) -> Dict[int, int]:
    rng = np.random.Generator(np.random.Philox(seq))
    counts: Dict[int, int] = {}
    remaining = share
    while remaining > 0:
        batch = min(_BATCH, remaining)
        values = _sample_batch(cfg.depth, cfg.p_plus, batch, rng)
        uniq, cnt = np.unique(values, return_counts=True)
        for v, c in zip(uniq.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
        remaining -= batch
    return counts


def run(cfg: SimConfig) -> EmpiricalSummary:
    """Sample ``cfg.n_samples`` root values and summarize them.

    Worker ``w`` draws from an independent Philox substream spawned from
    (seed, w), and worker shares are fixed by index, so the merged counts
    depend only on (seed, workers), never on scheduling.
    """
    base = cfg.n_samples // cfg.workers
    shares = [base + (1 if w < cfg.n_samples % cfg.workers else 0) for w in range(cfg.workers)]
    seqs = np.random.SeedSequence(cfg.seed).spawn(cfg.workers)

    if cfg.workers == 1:
        per_worker = [_worker_counts(cfg, shares[0], seqs[0])]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_worker_counts, cfg, shares[w], seqs[w]) for w in range(cfg.workers)]
            per_worker = [f.result() for f in futures]

    counts: Dict[int, int] = {}
    for part in per_worker:
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


def compare_to_exact(summary: EmpiricalSummary, exact: MassFunction) -> ComparisonReport:
    """Sup-norm CDF gap and a pooled chi-square statistic against the exact law.

    Bins with expected count below 5 are pooled with their neighbors; any
    sample mass above the exact support cap lands in the tail bin.
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
    pvalue = float(_chi2.sf(stat, dof))
    return ComparisonReport(gap, stat, dof, pvalue)


def write_summary_csv(summary: EmpiricalSummary, out: Union[str, TextIO]) -> None:
    lines = ["value,count\n"]
    for v in sorted(summary.counts):
        lines.append(f"{v},{summary.counts[v]}\n")
    _write_text(out, "".join(lines))


def write_summary_json(summary: EmpiricalSummary, out: Union[str, TextIO]) -> None:
    _write_text(out, json.dumps(summary.to_json_dict(), sort_keys=True) + "\n")
