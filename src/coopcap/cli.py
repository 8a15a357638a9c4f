"""Command-line front end.

Subcommands: construct, verify, code-check, capacity, bounds, sweep.
stdout carries machine-parseable results (key=value lines or JSON);
diagnostics go to stderr. Exit codes: 0 success, 1 domain error, 2 usage
error. Numeric output is fixed decimal with 7 significant digits. The
COOPCAP_MAX_M environment variable overrides the width cap.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds as bounds_mod
from .capacity import maximize_sum_rate
from .channel import (
    ConstructionParams,
    check_block_goodness,
    construct_channel,
    default_f,
    default_g,
    deserialize_channel,
    estimate_bad_density,
    serialize_channel,
)
from .coding import CfCode, Orientation, monte_carlo_error, verify_zero_error
from .errors import CoopcapError, HypothesisViolation
from .experiments import ExperimentConfig, run_sweep

__all__ = ["main", "build_parser"]


def _fmt(value: float) -> str:
    """Fixed decimal, 7 significant digits."""
    return np.format_float_positional(
        float(value), precision=7, unique=False, fractional=False
    )


def _jf(value: float) -> float:
    """Float rounded through the 7-significant-digit display form."""
    return float(_fmt(value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopcap",
        description="Construct erasure channels with good blocks, run the "
        "facilitator/no-facilitator codes and bounds on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="sample a channel and write it to a file")
    c.add_argument("--m", type=int, required=True, help="channel width exponent")
    c.add_argument("--eps", type=float, default=0.05, help="density margin (default 0.05)")
    c.add_argument(
        "--p", type=float, default=None, help="bad-entry probability (default 1 - eps/2)"
    )
    c.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    c.add_argument(
        "--f", type=int, default=None, help="density submatrix side (default min(m^2, 2^m))"
    )
    c.add_argument(
        "--g", type=int, default=None, help="block exponent (default 2*ceil(log2 m), capped)"
    )
    c.add_argument("--out", required=True, help="output file path")
    c.add_argument("--binary", action="store_true", help="write packed rows, not text")
    c.add_argument("--max-attempts", type=int, default=50, help="resampling budget (default 50)")
    c.add_argument(
        "--density-trials", type=int, default=200, help="density sample count (default 200)"
    )

    v = sub.add_parser("verify", help="re-check a stored channel's properties")
    v.add_argument("file", help="channel file")
    v.add_argument(
        "--density-trials", type=int, default=200, help="density sample count (default 200)"
    )

    k = sub.add_parser("code-check", help="exhaustive zero-error check of the facilitator code")
    k.add_argument("file", help="channel file")
    k.add_argument(
        "--orientation",
        choices=["r1", "r2"],
        default="r1",
        help="which sender gets the full rate (default r1)",
    )
    k.add_argument(
        "--mc-trials", type=int, default=0, help="extra Monte Carlo decode trials (default 0)"
    )
    k.add_argument("--mc-seed", type=int, default=0, help="Monte Carlo seed (default 0)")

    p = sub.add_parser("capacity", help="estimate the best no-facilitator sum rate")
    p.add_argument("file", help="channel file")
    p.add_argument("--restarts", type=int, default=8, help="random restarts (default 8)")
    p.add_argument("--tol", type=float, default=1e-8, help="sweep gain cutoff (default 1e-8)")
    p.add_argument("--max-iters", type=int, default=100, help="max sweeps (default 100)")
    p.add_argument("--seed", type=int, default=0, help="restart RNG seed (default 0)")
    p.add_argument(
        "--marginals-out", default=None, help="optional JSON file for the best marginals"
    )

    b = sub.add_parser("bounds", help="evaluate the closed-form bounds as JSON")
    b.add_argument("--m", type=int, required=True, help="channel width exponent")
    b.add_argument(
        "--eps", type=float, default=0.05, help="density margin in [0, 1) (default 0.05)"
    )
    b.add_argument(
        "--delta",
        type=int,
        default=None,
        help="facilitator link rate, also the block exponent g (default: width schedule)",
    )
    b.add_argument(
        "--f", type=int, default=None, help="density submatrix side (default min(m^2, 2^m))"
    )

    s = sub.add_parser("sweep", help="run a multi-m experiment from a JSON config")
    s.add_argument("--config", required=True, help="JSON config file")
    return parser


def _check_seed(option: str, value: int) -> None:
    """Reject a seed numpy's default_rng would refuse, naming the option."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{option} must be an integer in [0, 2^64), got {value}")


def _check_at_least(option: str, value: int, low: int) -> None:
    """Reject a value below low, naming the option."""
    if value < low:
        raise ValueError(f"{option} must be >= {low}, got {value}")


def _cmd_construct(args) -> int:
    m = args.m
    _check_at_least("--m", m, 1)
    if not 0 < args.eps < 1:
        raise ValueError(f"--eps must be in (0, 1), got {args.eps}")
    if args.p is not None and not 0 <= args.p <= 1:
        raise ValueError(f"--p must be in [0, 1], got {args.p}")
    if args.g is not None and not 1 <= args.g <= m:
        raise ValueError(f"--g must be in [1, m] with m={m}, got {args.g}")
    if args.f is not None and not 1 <= args.f <= 1 << m:
        raise ValueError(f"--f must be in [1, 2^m] with m={m}, got {args.f}")
    _check_at_least("--max-attempts", args.max_attempts, 1)
    _check_at_least("--density-trials", args.density_trials, 0)
    _check_seed("--seed", args.seed)
    params = ConstructionParams.with_defaults(
        args.m, epsilon=args.eps, seed=args.seed, p=args.p, f_of_m=args.f, g_of_m=args.g
    )
    channel = construct_channel(
        params, max_attempts=args.max_attempts, density_trials=args.density_trials
    )
    serialize_channel(channel, args.out, binary=args.binary)
    print(
        f"out={args.out} m={params.m} g={params.g_of_m} f={params.f_of_m} "
        f"p={_fmt(params.p)} eps={_fmt(params.epsilon)} seed={params.seed} "
        f"attempts={channel.construction_attempts}"
    )
    return 0


def _cmd_verify(args) -> int:
    _check_at_least("--density-trials", args.density_trials, 1)
    channel = deserialize_channel(args.file, verify=False)
    block = check_block_goodness(channel.matrix, channel.g)
    line = f"block_property={'pass' if block.passed else 'fail'}"
    if not block.passed:
        kind, symbol, block_index = block.failures[0]
        line += f" first_failure={kind}:{symbol}:{block_index}"
    params = channel.params
    report = estimate_bad_density(
        channel.matrix,
        params.f_of_m,
        params.epsilon,
        trials=args.density_trials,
        seed=params.seed,
    )
    line += (
        f" density_trials={report.trials} density_violations={report.violations}"
        f" min_bad_fraction={_fmt(report.min_bad_fraction_observed)}"
    )
    print(line)
    return 0 if block.passed else 1


def _cmd_code_check(args) -> int:
    _check_at_least("--mc-trials", args.mc_trials, 0)
    _check_seed("--mc-seed", args.mc_seed)
    channel = deserialize_channel(args.file)
    code = CfCode(channel, Orientation.parse(args.orientation))
    report = verify_zero_error(code)
    line = (
        f"pairs={report.pairs_checked} failures={report.failures}"
        f" sum_rate={_fmt(code.sum_rate)}"
    )
    if args.mc_trials > 0:
        mc = monte_carlo_error(code, args.mc_trials, seed=args.mc_seed)
        line += f" mc_trials={args.mc_trials} mc_error={_fmt(mc)}"
    print(line)
    return 0 if not report.failures else 1


def _cmd_capacity(args) -> int:
    _check_at_least("--restarts", args.restarts, 0)
    _check_at_least("--max-iters", args.max_iters, 1)
    if not args.tol > 0:
        raise ValueError(f"--tol must be > 0, got {args.tol}")
    _check_seed("--seed", args.seed)
    channel = deserialize_channel(args.file)
    result = maximize_sum_rate(
        channel,
        restarts=args.restarts,
        seed=args.seed,
        max_iters=args.max_iters,
        tol=args.tol,
    )
    if args.marginals_out:
        with open(args.marginals_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "p1": [float(x) for x in result.p1.probs],
                    "p2": [float(x) for x in result.p2.probs],
                    "sum_rate": result.value,
                },
                fh,
            )
            fh.write("\n")
    runs_converged = sum(run.converged for run in result.runs)
    print(
        f"sum_rate={_fmt(result.value)} converged={str(result.converged).lower()}"
        f" restarts={args.restarts} sweeps={result.iterations}"
        f" kkt_gap={result.kkt_gap:.3e} spread={_fmt(result.spread)}"
        f" runs_converged={runs_converged}/{len(result.runs)}"
    )
    return 0


def _cmd_bounds(args) -> int:
    m, eps = args.m, args.eps
    _check_at_least("--m", m, 1)
    if not 0 <= eps < 1:
        raise ValueError(f"--eps must be in [0, 1), got {eps}")
    g = args.delta if args.delta is not None else default_g(m)
    if not 1 <= g <= m:
        raise ValueError(f"--delta must be in [1, m] with m={m}, got {g}")
    f = args.f if args.f is not None else default_f(m)
    if not 1 <= f <= 1 << m:
        raise ValueError(f"--f must be in [1, 2^m] with m={m}, got {f}")
    p = 1.0 - eps / 2
    inner = bounds_mod.cf_inner_region(m, g)
    outer = bounds_mod.cf_outer_region(m, float(g))
    finite = None
    try:
        finite = _jf(bounds_mod.ie_outer_sum(m, eps, f))
    except (HypothesisViolation, ValueError) as exc:
        print(f"note: finite-m outer sum unavailable: {exc}", file=sys.stderr)
    if eps > 0:
        bracket = bounds_mod.theorem_gap(m, float(g), eps)
        gap_lower, gap_upper = _jf(bracket.lower), _jf(bracket.upper)
    else:
        gap_lower = gap_upper = None
        print("note: gap bracket needs eps > 0", file=sys.stderr)
    fails = bounds_mod.construction_failure_bounds(m, p, f, g, eps)
    payload = {
        "cf_inner": [[_jf(x), _jf(y)] for x, y in inner.vertices],
        "cf_outer": [[_jf(x), _jf(y)] for x, y in outer.vertices],
        "ie_inner_sum": _jf(bounds_mod.ie_inner_sum(m, g)),
        "ie_outer_sum_finite": finite,
        "ie_outer_sum_asymptotic": _jf(bounds_mod.ie_outer_sum_asymptotic(m, eps)),
        "theorem_gap_lower": gap_lower,
        "theorem_gap_upper": gap_upper,
        "failure_bounds": {
            "block_bound_log2": _jf(fails.block_bound_log2),
            "density_bound_log2": _jf(fails.density_bound_log2),
            "density_enumerated": fails.density_enumerated,
        },
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    records = run_sweep(config)
    bad = [r for r in records if r.error is not None]
    for record in bad:
        print(f"m={record.m}: {record.error}", file=sys.stderr)
    print(f"rows={len(records)} failed={len(bad)} out={config.output_dir}")
    return 0 if not bad else 1


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "code-check": _cmd_code_check,
    "capacity": _cmd_capacity,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (CoopcapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
