"""Batch command-line interface: points, verify-net, rate-study, price.

Exit codes: 0 success (or verdict consistent / verification passed),
1 checked failure (verification or verdict), 2 usage or contract errors.
All output is deterministic given the flags and seed; floats print with
17 significant digits so text output round-trips binary64 exactly.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import nullcontext

import numpy as np

from .digital_nets import generate_net, load_direction_numbers, verify_net
from .errors import CapacityError, ContractError
from .experiment import (
    MAX_POINTS_LOG2,
    MODEL_KEYS,
    STANDARD_MODEL,
    StudyConfig,
    price_report,
    report_to_csv,
    report_to_json,
    run_study,
)
from .finance import FACTOR_METHODS, PAYOFF_KINDS, GbmModel, PayoffSpec
from .scrambling import ScrambleSeed, scramble

# The GbmModel fields in `price`'s flag order: (field, price flags, help,
# cast).  Each flag's dest is its field; MODEL_KEYS gives its config key.
_MODEL_FIELDS = (
    ("s0", ("--s0",), "initial price", float),
    ("r", ("--r",), "risk-free rate", float),
    ("sigma", ("--sigma",), "volatility", float),
    ("maturity", ("-T", "--maturity"), "maturity", float),
    ("d", ("-d",), "monitoring dates", int),
    ("strike", ("-K", "--strike"), "strike", float),
)


def _output(out: str | None):
    """Where a command writes: stdout, or the text file ``out``."""
    return nullcontext(sys.stdout) if out is None else open(out, "w")


def _cmd_points(args) -> int:
    if args.m < 0 or args.m > MAX_POINTS_LOG2:
        raise CapacityError(f"m must be in 0..{MAX_POINTS_LOG2}")
    seed = ScrambleSeed(args.seed) if args.scramble else None  # before the net
    points = generate_net(args.m, args.d)
    if seed is not None:
        points = scramble(points, seed)
    # a handle, not a path: savetxt would gzip a path ending in .gz
    with _output(args.out) as fh:
        np.savetxt(fh, points.coords, fmt="%.17g")
    return 0


def _cmd_verify(args) -> int:
    try:
        with warnings.catch_warnings():
            # numpy warns on a file with no rows; it is refused below
            warnings.simplefilter("ignore", UserWarning)
            coords = np.loadtxt(args.file, ndmin=2, dtype=np.float64)
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot parse point file: {exc}") from exc
    if not coords.size:
        raise ContractError(f"point file {args.file} holds no points")
    result = verify_net(coords, args.t, args.b)
    if result.passed:
        print(
            f"PASS: ({args.t},{result.m},{coords.shape[1]})-net in base {args.b}; "
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


def _study_config_from_file(path: str, seed_flag: int | None) -> StudyConfig:
    # Every key read is popped, so the keys left over are the unused ones.
    kv = _parse_kv_file(path)
    name = _take(kv, "integrand", str)
    if name is None:
        raise ContractError("config must name an integrand")
    integrand = name
    if name in PAYOFF_KINDS:
        # read before the study keys: a payoff's d is its model's
        model = _model({
            field: _take(kv, MODEL_KEYS[field], cast, getattr(STANDARD_MODEL, field))
            for field, _, _, cast in _MODEL_FIELDS
        })
        integrand = PayoffSpec(name, model, _take(kv, "factor", str, PayoffSpec.factor))

    overrides: dict = {}
    for key, field, cast in (
        ("n_min", "n_min", int),
        ("n_max", "n_max", int),
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


def _model(values: dict) -> GbmModel:
    # a study refuses a d past the direction table before the model's domain
    load_direction_numbers().direction_integers(max(values["d"], 1))
    return GbmModel(**values)


def _cmd_price(args) -> int:
    model = _model({field: getattr(args, field) for field, *_ in _MODEL_FIELDS})
    spec = PayoffSpec(args.payoff, model, args.factor)
    text = price_report(spec, args.n, args.replications, args.seed, args.format)
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
    p.add_argument("file", help="text file of b^m points, one per line")
    p.add_argument("-t", type=int, required=True, help="net quality parameter")
    p.add_argument("-b", type=int, default=2, help="base (default 2)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rate-study", help="run a convergence-rate study")
    p.add_argument("--config", required=True, help="flat key-value config file")
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_rate_study)

    p = sub.add_parser("price", help="RQMC price / Greek with replicate error")
    p.add_argument("--payoff", required=True, choices=PAYOFF_KINDS)
    for field, flags, help_text, cast in _MODEL_FIELDS:
        default = getattr(STANDARD_MODEL, field)
        p.add_argument(*flags, type=cast, default=default, help=help_text)
    p.add_argument("--factor", choices=FACTOR_METHODS, default=PayoffSpec.factor)
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
