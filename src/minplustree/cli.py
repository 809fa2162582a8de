"""Command-line front end: reproducible, file-emitting runs of every module.

Exit codes: 0 success, 1 domain or I/O error, 2 certificate violation under
--strict (and argparse usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import bounds, regimes, series, simulate
from .distribution import (
    CRITICAL_C,
    KMAX_LIMIT,
    TruncationPolicy,
    _write_text,
    evolve,
    write_distribution_csv,
    write_distribution_json,
)


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"probability {value} outside [0, 1]")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} must be >= 1")
    return value


def _kmax(text: str) -> Optional[int]:
    if text == "auto":
        return None  # the full support
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("kmax must be >= 2 or 'auto'")
    return value


def _tail_budget(text: str) -> float:
    value = float(text)
    if not value >= 0.0:  # negated, so that NaN fails too
        raise argparse.ArgumentTypeError(f"tail budget {value} must be >= 0")
    return value


def _int_range(text: str) -> tuple:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    return 1, int(text)


def _step_band(text: str) -> tuple:
    threshold, c_r = text.split(":", 1)
    return int(threshold), float(c_r)


def _target(output: Optional[str]):
    """Where ``--output`` points: standard output for none or ``-``, else the path."""
    return sys.stdout if output is None or output == "-" else output


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_evolve(args: argparse.Namespace) -> int:
    policy = TruncationPolicy(k_max=args.kmax)
    m = evolve(args.N, args.p, policy)

    # the writers get the target itself: rendering a 10^6-row CSV into a
    # string first would cost more memory than evolving the level
    writer = write_distribution_csv if args.format == "csv" else write_distribution_json
    writer(m, _target(args.output))
    # under a fixed lumping cap the tail P(X > cap) is nondecreasing in the
    # level, and otherwise it is zero, so the last level is the worst one
    over = args.tail_budget is not None and m.tail_mass > args.tail_budget
    budget_note = " TAIL BUDGET EXCEEDED" if over else ""
    _summary(
        f"evolve: N={m.level} p={m.p_plus} k_max={m.k_max} "
        f"tail_mass={m.tail_mass:.3e}{budget_note}"
    )
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    cfg = simulate.SimConfig(
        depth=args.depth,
        p_plus=args.p,
        n_samples=args.samples,
        seed=args.seed,
        workers=args.workers,
    )
    summary = simulate.run(cfg)

    writer = simulate.write_summary_csv if args.format == "csv" else simulate.write_summary_json
    writer(summary, _target(args.output))
    _summary(
        f"sample: depth={cfg.depth} p={cfg.p_plus} n={cfg.n_samples} seed={cfg.seed} "
        f"workers={cfg.workers} mean_log={summary.mean_log:.6f}"
    )
    return 0


def _build_lower_model(args: argparse.Namespace) -> bounds.LowerStepModel:
    # head: a_k = b_k below 33, squared log up to the threshold (the documented
    # construction); both pieces shrink when K itself is small
    K = args.K
    if K > KMAX_LIMIT:  # before b, about 24 B per K, is built
        raise ValueError(f"K = {K} is above the limit of {KMAX_LIMIT}")
    head = min(33, K)
    b = np.zeros(K)
    a = bounds.b_sequence(max(head - 1, 1))
    b[1:head] = a[1 : head]
    if K > 33:
        kk = np.arange(33, K)
        b[33:] = np.log(kk) ** 2
    return bounds.LowerStepModel(b=b, K=K, c=args.c, steps=tuple(args.step or ()))


def _cmd_bounds(args: argparse.Namespace) -> int:
    n_range = args.N_range
    k_range = args.k_range
    if args.model == "upper":
        model = bounds.UpperModel(C=args.C, beta=args.beta)
        report = bounds.certify_upper(model, n_range, k_range, keep_grid=args.emit_grid)
    else:
        model = _build_lower_model(args)
        report = bounds.certify_lower(model, n_range, k_range, keep_grid=args.emit_grid)
    _write_text(_target(args.output), json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    _summary(
        f"bounds: model={args.model} N={n_range} k={k_range} "
        f"min_margin={report.min_margin:.6e} violations={report.n_violations}"
    )
    if args.strict and not report.passed:
        return 2
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    result = series.evaluate(args.fn, args.k, alpha=args.alpha, A=args.A)
    verdict = "OK" if result.satisfied else "VIOLATED"
    line = (
        f"{result.name}(k={result.k}) = {result.value:.6f}  "
        f"{result.relation} bound {result.bound:.6f}  {verdict}\n"
    )
    if args.output and args.output != "-":
        payload = {f: getattr(result, f) for f in ("name", "k", "value", "bound", "satisfied")}
        _write_text(args.output, json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.write(line)
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    policy = TruncationPolicy(k_max=args.kmax)
    m = evolve(args.N, 0.5, policy)
    diag = series.diagnose(m)
    t, cdf = series.scaled_cdf_points(m)

    if t.size > args.max_rows:
        # decimate on a log-spaced value grid; plotting needs no more
        ks = np.unique(np.geomspace(1, m.k_max, args.max_rows).astype(int))
        idx = ks - 1
    else:
        idx = np.arange(t.size)
    lines = ["t,empirical,limit\n"]
    for i in idx:
        lines.append(f"{float(t[i])!r},{float(cdf[i])!r},{float(series.limit_cdf(t[i]))!r}\n")
    _write_text(_target(args.output), "".join(lines))
    _summary(
        f"limit: N={args.N} k_max={m.k_max} tail_mass={m.tail_mass:.3e} "
        f"ks_distance={diag.ks_distance:.6f} mean_scaled={diag.mean_scaled:.6f} "
        f"target={diag.target_mean:.6f}"
    )
    return 0


def _cmd_regimes(args: argparse.Namespace) -> int:
    report = regimes.classify(args.p, k_max=args.k_max, tol=args.tol)
    _write_text(_target(args.output), json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    _summary(f"regimes: p={args.p} classification={report.classification}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minplustree",
        description=(
            "Exact distribution, Monte Carlo sampling, bound certificates, and "
            "limit-law diagnostics for min/plus random binary trees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="exact distribution at a level")
    p_evolve.add_argument("--N", type=_positive_int, required=True)
    p_evolve.add_argument("--p", type=_probability, default=0.5)
    p_evolve.add_argument("--kmax", type=_kmax, default="auto")
    p_evolve.add_argument("--tail-budget", type=_tail_budget, default=None)
    p_evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_evolve.add_argument("--output", default=None)
    p_evolve.set_defaults(func=_cmd_evolve)

    p_sample = sub.add_parser("sample", help="Monte Carlo samples of the root value")
    p_sample.add_argument("--depth", type=_positive_int, required=True)
    p_sample.add_argument("--p", type=_probability, default=0.5)
    p_sample.add_argument("--samples", type=_positive_int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--workers", type=_positive_int, default=1)
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sample.add_argument("--output", default=None)
    p_sample.set_defaults(func=_cmd_sample)

    p_bounds = sub.add_parser("bounds", help="certify a bound model on an (N, k) grid")
    p_bounds.add_argument("--model", choices=("upper", "lower"), required=True)
    p_bounds.add_argument("--C", type=float, default=1.1 * CRITICAL_C,
                          help="upper-model constant (default 1.1x critical)")
    p_bounds.add_argument("--beta", type=float, default=2.0)
    p_bounds.add_argument("--c", type=float, default=1.0,
                          help="lower-model constant (default 1.0)")
    p_bounds.add_argument("--K", type=_positive_int, default=12000,
                          help="lower-model junction threshold")
    p_bounds.add_argument("--step", type=_step_band, action="append",
                          help="extra lower-model band THRESHOLD:C, repeatable")
    p_bounds.add_argument("--N-range", type=_int_range, required=True,
                          help="LO:HI or a single upper value")
    p_bounds.add_argument("--k-range", type=_int_range, required=True)
    p_bounds.add_argument("--emit-grid", action="store_true")
    p_bounds.add_argument("--strict", action="store_true")
    p_bounds.add_argument("--output", default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_series = sub.add_parser("series", help="evaluate a named series against its bound")
    p_series.add_argument("--fn", choices=("h", "B", "M", "S"), required=True)
    p_series.add_argument("--k", type=_positive_int, required=True)
    p_series.add_argument("--alpha", type=float, default=None)
    p_series.add_argument("--A", type=_positive_int, default=None)
    p_series.add_argument("--output", default=None)
    p_series.set_defaults(func=_cmd_series)

    p_limit = sub.add_parser("limit", help="scaled exact CDF next to the limit CDF")
    p_limit.add_argument("--N", type=_positive_int, required=True)
    p_limit.add_argument("--kmax", type=_positive_int, default=1_000_000)
    p_limit.add_argument("--max-rows", type=_positive_int, default=4096)
    p_limit.add_argument("--output", default=None)
    p_limit.set_defaults(func=_cmd_limit)

    p_reg = sub.add_parser("regimes", help="classify a mixture probability")
    p_reg.add_argument("--p", type=_probability, required=True)
    p_reg.add_argument("--k-max", type=_positive_int, default=64,
                       help=f"limit-curve prefix length, at most {regimes.LIMIT_K_MAX}")
    p_reg.add_argument("--tol", type=float, default=1e-7,
                       help="bound on the limit curve's balance-equation residual")
    p_reg.add_argument("--output", default=None)
    p_reg.set_defaults(func=_cmd_regimes)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
