#!/usr/bin/env python3
"""Run the full catalog of convergence-rate studies and print a summary.

For each shipped integrand this measures E|I - Ihat| over replicated
scrambles across the n-grid, fits the log2-log2 slope, and compares it
with the predicted exponent gamma*(1/2 + 1/(4 d_u - 2)).  A plain Monte
Carlo baseline runs alongside the discontinuous cases for contrast.

    python3 scripts/run_rate_studies.py [--quick] [--seed S] [--out-dir DIR]
"""

import argparse
import pathlib
import time

from rqmc.experiment import (
    CATALOG_NAMES,
    StudyConfig,
    report_to_csv,
    report_to_json,
    run_study,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="n up to 2^12 with R=16 (seconds instead of minutes)",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--out-dir", default=None, help="write per-study CSV and JSON here"
    )
    args = ap.parse_args()

    overrides = {"master_seed": args.seed}
    if args.quick:
        overrides["n_max"] = 2**12
        overrides["replications"] = 16

    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(name, {}) for name in CATALOG_NAMES]
    # Monte Carlo contrast on the discontinuity benchmark.
    jobs.append(("halfspace", {"sampler": "plain_mc"}))

    header = f"{'integrand':<38}{'sampler':<15}{'slope':>9}{'theory':>9}{'r^2':>7}  verdict"
    print(header)
    print("-" * len(header))
    for name, extra in jobs:
        t0 = time.perf_counter()
        config = StudyConfig(name, **overrides, **extra)
        report = run_study(config)
        print(
            f"{config.entry.name:<38}{config.sampler:<15}"
            f"{report.fit.slope:>+9.3f}{-report.exponent:>+9.3f}"
            f"{report.fit.r_squared:>7.3f}  {report.verdict}"
            f"   ({time.perf_counter() - t0:.1f}s)"
        )
        if out_dir:
            stem = f"{config.entry.name}_{config.sampler}"
            (out_dir / f"{stem}.csv").write_text(report_to_csv(report))
            (out_dir / f"{stem}.json").write_text(report_to_json(report))


if __name__ == "__main__":
    main()
