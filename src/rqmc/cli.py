"""Batch command-line interface: points, verify-net, rate-study, price.

Exit codes: 0 success (or verdict consistent / verification passed),
1 checked failure (verification or verdict), 2 usage or contract errors.
All output is deterministic given the flags and seed; floats print with
17 significant digits so text output round-trips binary64 exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from .digital_nets import generate_net, verify_net
from .errors import CapacityError, ContractError
from .experiment import (
    DEFAULT_N_GRID,
    DEFAULT_REPLICATIONS,
    STANDARD_MODEL,
    StudyConfig,
    _g17,
    replicate_estimates,
    report_to_csv,
    report_to_json,
    resolve_reference,
    run_study,
)
from .finance import FACTOR_METHODS, PAYOFF_KINDS, GbmModel, PayoffSpec
from .scrambling import ScrambleSeed, scramble

_MAX_POINTS_M = 20
# Caps on replicates and on points over all replicates (n_max * R) for
# `price` and `rate-study`: 2^26 admits n_max = 2^20 at R = 64.
_MAX_REPLICATIONS_LOG2 = 16
_MAX_DRAWS_LOG2 = 26


def _output(out: str | None):
    """Where a command writes: stdout, or the text file ``out``."""
    return nullcontext(sys.stdout) if out is None else open(out, "w")


def _cmd_points(args) -> int:
    if args.m < 0 or args.m > _MAX_POINTS_M:
        raise CapacityError(f"m must be in 0..{_MAX_POINTS_M}")
    points = generate_net(args.m, args.d)
    if args.scramble:
        points = scramble(points, ScrambleSeed(args.seed))
    # a handle, not a path: savetxt would gzip a path ending in .gz
    with _output(args.out) as fh:
        np.savetxt(fh, points.coords, fmt="%.17g")
    return 0


def _cmd_verify(args) -> int:
    try:
        coords = np.loadtxt(args.file, ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot parse point file: {exc}") from exc
    result = verify_net(coords, args.t, args.m, d=args.d, b=args.b)
    if result.passed:
        print(
            f"PASS: ({args.t},{args.m},{coords.shape[1]})-net in base {args.b}; "
            f"{result.shapes_checked} interval shapes checked"
        )
        return 0
    itv = result.violation
    print(
        f"FAIL: interval with digit counts {itv.digit_counts} and cell "
        f"{itv.cells} (lower corner {itv.lower.tolist()}) holds "
        f"{result.observed_count} points, expected {result.expected_count}"
    )
    return 1


def _parse_kv_file(path: str) -> dict[str, tuple[str, str]]:
    """Flat key-value text: one `key = value`, `key: value` or whitespace
    separated `key value` per line.

    Maps each key to its value and its `path:line` location.
    """
    out: dict[str, tuple[str, str]] = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            sep = "=" if "=" in line else ":" if ":" in line else None
            key, val = (line.split(sep, 1) + [""])[:2]
            key, val = key.strip(), val.strip()
            if not key or not val:
                raise ContractError(f"{path}:{lineno}: expected `key = value`")
            if key in out:
                raise ContractError(
                    f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
                )
            out[key] = (val, f"{path}:{lineno}")
            first_line[key] = lineno
    return out


_CAST_NAMES = {int: "an integer", float: "a number"}


def _take(kv: dict[str, tuple[str, str]], key: str, cast, default=None):
    """Pop ``key`` from a parsed config and cast its value.

    Returns ``default`` when the key is absent; a value ``cast`` rejects is
    a `ContractError` naming the key and its line.
    """
    if key not in kv:
        return default
    val, where = kv.pop(key)
    try:
        return cast(val)
    except ValueError:
        raise ContractError(
            f"{where}: {key} must be {_CAST_NAMES[cast]}, got {val!r}"
        ) from None


def _check_capacity(n: int, replications: int) -> None:
    """Cap points per replicate (as `points` does), replicates and their
    product for `price` and `rate-study`, before anything is drawn."""
    if n > 2**_MAX_POINTS_M:
        raise CapacityError(
            f"at most 2^{_MAX_POINTS_M} points per replicate, got {n}"
        )
    if replications > 2**_MAX_REPLICATIONS_LOG2:
        raise CapacityError(
            f"at most 2^{_MAX_REPLICATIONS_LOG2} replicates, got {replications}"
        )
    if n * replications > 2**_MAX_DRAWS_LOG2:
        raise CapacityError(
            f"at most 2^{_MAX_DRAWS_LOG2} points over all replicates, "
            f"got n = {n} times R = {replications}"
        )


def _n_grid_from(kv: dict[str, tuple[str, str]]) -> tuple[int, ...]:
    n_min = _take(kv, "n_min", int, DEFAULT_N_GRID[0])
    n_max = _take(kv, "n_max", int, DEFAULT_N_GRID[-1])
    for n in (n_min, n_max):
        if n < 1 or n & (n - 1):
            raise ContractError(f"n_min/n_max must be powers of 2, got {n}")
    if n_max < n_min:
        raise ContractError("n_max must be >= n_min")
    lo, hi = n_min.bit_length() - 1, n_max.bit_length() - 1
    return tuple(2**k for k in range(lo, hi + 1))


def _study_config_from_file(path: str, seed_flag: int | None) -> StudyConfig:
    # Every key read is popped, so the keys left over are the unused ones.
    kv = _parse_kv_file(path)
    name = _take(kv, "integrand", str)
    if name is None:
        raise ContractError("config must name an integrand")

    overrides: dict = {"n_grid": _n_grid_from(kv)}
    for key, field, cast in (
        ("R", "replications", int),
        ("sampler", "sampler", str),
        ("slack", "slack", float),
        ("seed", "master_seed", int),
        ("d", "dimension", int),
        ("reference", "reference_value", float),
    ):
        value = _take(kv, key, cast)
        if value is not None:
            overrides[field] = value
    if seed_flag is not None:
        overrides["master_seed"] = seed_flag
    _check_capacity(
        overrides["n_grid"][-1],
        overrides.get("replications", DEFAULT_REPLICATIONS),
    )

    integrand = name
    if name in PAYOFF_KINDS:
        std = STANDARD_MODEL
        model = GbmModel(
            s0=_take(kv, "s0", float, std.s0),
            r=_take(kv, "r", float, std.r),
            sigma=_take(kv, "sigma", float, std.sigma),
            maturity=_take(kv, "T", float, std.maturity),
            d=overrides.pop("dimension", std.d),
            strike=_take(kv, "K", float, std.strike),
        )
        integrand = PayoffSpec(name, model, _take(kv, "factor", str, "ot"))
    config = StudyConfig(integrand, **overrides)

    if kv:
        raise ContractError(
            f"config keys not used by integrand {config.entry.name!r}: "
            + ", ".join(sorted(kv))
        )
    return config


def _cmd_rate_study(args) -> int:
    config = _study_config_from_file(args.config, args.seed)
    report = run_study(config)
    text = (
        report_to_json(report) if args.format == "json" else report_to_csv(report)
    )
    with _output(args.out) as fh:
        fh.write(text)
    print(
        f"slope {report.fit.slope:+.4f} vs theoretical "
        f"{-report.exponent:+.4f} (slack {config.slack}): {report.verdict}",
        file=sys.stderr,
    )
    return 0 if report.consistent else 1


def _cmd_price(args) -> int:
    _check_capacity(args.n, args.replications)
    model = GbmModel(
        s0=args.s0,
        r=args.r,
        sigma=args.sigma,
        maturity=args.maturity,
        d=args.d,
        strike=args.strike,
    )
    spec = PayoffSpec(args.payoff, model, args.factor)
    config = StudyConfig(
        integrand=spec,
        n_grid=(args.n,),
        replications=args.replications,
        master_seed=args.seed,
    )
    estimates = replicate_estimates(config)[0]
    estimate = float(estimates.mean())
    std_error = float(estimates.std(ddof=1) / math.sqrt(len(estimates)))
    result: dict = {
        "payoff": spec.kind,
        "factor": spec.factor,
        "n": args.n,
        "R": args.replications,
        "estimate": estimate,
        "std_error": std_error,
    }
    if config.reference_value is not None:
        result["oracle"] = resolve_reference(config)
    if args.format == "json":
        text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    else:
        text = (
            "\n".join(
                f"{k} {_g17(v) if isinstance(v, float) else v}"
                for k, v in result.items()
            )
            + "\n"
        )
    with _output(args.out) as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqmc",
        description=(
            "Randomized quasi-Monte Carlo point sets, net verification, "
            "convergence-rate studies, and option pricing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("points", help="emit the first 2^m sequence points")
    p.add_argument("-m", type=int, required=True, help="log2 of the point count")
    p.add_argument(
        "-d", type=int, required=True, help="dimension (at most the direction table's)"
    )
    p.add_argument("--scramble", action="store_true", help="apply a seeded scramble")
    p.add_argument("--seed", type=int, default=0, help="scramble seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("verify-net", help="exhaustively verify the net property")
    p.add_argument("file", help="text file, one point per line")
    p.add_argument("-t", type=int, required=True, help="net quality parameter")
    p.add_argument("-m", type=int, required=True, help="log_b of the point count")
    p.add_argument("-d", type=int, default=None, help="dimension (default: infer)")
    p.add_argument("-b", type=int, default=2, help="base (default 2)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rate-study", help="run a convergence-rate study")
    p.add_argument("--config", required=True, help="flat key-value config file")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_rate_study)

    p = sub.add_parser("price", help="RQMC price / Greek with replicate error")
    std = STANDARD_MODEL
    p.add_argument("--payoff", required=True, choices=PAYOFF_KINDS)
    p.add_argument("--s0", type=float, default=std.s0, help="initial price")
    p.add_argument("--r", type=float, default=std.r, help="risk-free rate")
    p.add_argument("--sigma", type=float, default=std.sigma, help="volatility")
    p.add_argument(
        "-T", "--maturity", type=float, default=std.maturity, help="maturity"
    )
    p.add_argument("-d", type=int, default=std.d, help="monitoring dates")
    p.add_argument("-K", "--strike", type=float, default=std.strike, help="strike")
    p.add_argument("--factor", choices=FACTOR_METHODS, default="ot")
    p.add_argument("-n", type=int, default=2**16, help="points per replicate")
    p.add_argument("-R", "--replications", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_price)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
