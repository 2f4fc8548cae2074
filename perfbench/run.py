#!/usr/bin/env python3
"""Benchmark of the ``rqmc`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; ``rqmc`` is imported from ``src/``.  Each
repetition is a fresh child process (``perfbench/child.py``), started one
after another from this process, that calls ``rqmc.cli.main(argv)`` for
every CLI call of the workload.  So every repetition pays the import,
direction-table and net-cache costs a command-line user pays on each call.
Repetitions continue until the next one would overrun ``--seconds``
(at least ``MIN_REPS``); every metric is the median over repetitions.

Workloads (the seed becomes ``--seed`` on every CLI call):

* ``study_halfspace``: ``rqmc rate-study`` on ``integrand = halfspace`` at
  the default grid n = 2^6..2^16, R = 32, d = 2.  Scrambling is nearly all
  of the time and the n-grid is nested, so scrambling kernels and prefix
  reuse show here.
* ``price_greeks``: ``rqmc price`` at the defaults (n = 2^16, R = 16, ot
  factor, d = 4) for asian_call, asian_gamma, asian_vega and
  geometric_indicator_payoff.  One n, so no prefix to reuse; all four calls
  scramble identical points; the finance layer is a visible share.
* ``study_cholesky_mc``: ``rqmc rate-study`` on ``geometric_cholesky`` with
  ``sampler = plain_mc`` and n_max = 2^18.  It bypasses net generation and
  scrambling: a change to ``scramble`` alone should not move it, while a
  change to the shared hash moves ``uniform_points``.  The config sets
  ``slack = 0.25``: plain Monte Carlo decays as n^-1/2, below the 0.571
  predicted for nets, so under the default slack some seeds would get the
  verdict "inconsistent" and exit code 1 by chance alone.

End-to-end metrics (``--trace 0``): ``wall_s`` (first CLI call to last
report written), ``evals_per_s`` (sum of n*R over the calls / ``wall_s``),
``cpu_s`` (user + system CPU of the child over the same span, all
threads), ``setup_s`` (child spawn to ready: ``rqmc`` imported, direction
table loaded, command lines parsed), ``peak_rss_mb`` (peak RSS of the child).
Failed calls are the ``failed`` count of the result line; the share
``failed / attempted`` is printed as ``fail_share``.

Per-layer metrics (``--trace 1``) come from traced repetitions that
alternate with untraced ones; see ``layer_metrics``.

Correctness: a CLI call fails on an exception, a nonzero exit code, or a
report that fails its check.  For ``DEFAULT_SEED`` the report must be
byte-identical to the sha256 frozen in ``expected.json``; for other seeds
it must be finite and well formed, and a geometric payoff estimate must lie
within 4 standard errors of the frozen closed-form price.

Provenance (Python, numpy, scipy, OpenBLAS build, nproc, direction-table
sha256, git commit when there is one) is printed before the result line
and written with the raw repetitions and spans to ``.perfbench-out/``.
No thread or BLAS environment variable is set.

Out of scope: ``verify_net``/``certify_t``, the ``singularity`` module and
the wall time of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
MIN_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "scrambling.scramble.calls": "count",
    "scrambling.scramble.coords": "count",
    "scrambling.scramble.busy_s": "s",
    "scrambling.scramble.ns_per_coord": "ns",
    "scrambling.uniform_points.calls": "count",
    "scrambling.uniform_points.coords": "count",
    "scrambling.uniform_points.busy_s": "s",
    "scrambling.coords_per_eval": "coords/eval",
    "digital_nets.generate_points.calls": "count",
    "digital_nets.generate_points.points": "count",
    "digital_nets.generate_points.busy_s": "s",
    "finance.generate_path.calls": "count",
    "finance.generate_path.points": "count",
    "finance.generate_path.busy_s": "s",
    "finance.generate_path.cpu_s": "s",
    "finance.payoff_eval.calls": "count",
    "finance.payoff_eval.points": "count",
    "finance.payoff_eval.busy_s": "s",
    "finance.path_factor.calls": "count",
    "finance.path_factor.busy_s": "s",
    "experiment.self_s": "s",
    "experiment.replicates": "count",
    "experiment.fit_rate.busy_s": "s",
    "experiment.report.busy_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_share": "ratio",
}

WORKLOADS = ("study_halfspace", "price_greeks", "study_cholesky_mc")
PRICE_KINDS = ("asian_call", "asian_gamma", "asian_vega", "geometric_indicator_payoff")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass(frozen=True)
class Op:
    """One CLI call: its argument list (without --seed/--out) and size."""

    name: str
    argv: tuple[str, ...]
    evals: int
    config: str | None = None  # rate-study config-file text
    grid: int = 0  # rate-study grid sizes


def _study(name: str, config: str, n_max: int, r: int) -> Op:
    n_min = 64  # the CLI's default n_min
    grid = n_max.bit_length() - n_min.bit_length() + 1
    evals = r * (2 * n_max - n_min)  # r * sum of the powers of 2 in the grid
    text = config + f"n_max = {n_max}\nR = {r}\n"
    return Op(name, ("rate-study", "--format", "json"), evals, text, grid)


def workload_ops(workload: str, tiny: bool) -> list[Op]:
    """The CLI calls of a workload; ``tiny`` shrinks them for the smoke test."""
    if workload == "study_halfspace":
        n_max, r = (512, 8) if tiny else (2**16, 32)
        return [_study("halfspace", "integrand = halfspace\n", n_max, r)]
    if workload == "price_greeks":
        n, r = (256, 8) if tiny else (2**16, 16)
        size = ("-n", str(n), "-R", str(r)) if tiny else ()
        return [
            Op(kind, ("price", "--payoff", kind, "--format", "json", *size), n * r)
            for kind in PRICE_KINDS
        ]
    if workload == "study_cholesky_mc":
        n_max, r = (1024, 8) if tiny else (2**18, 32)
        config = "integrand = geometric_cholesky\nsampler = plain_mc\nslack = 0.25\n"
        return [_study("geometric_cholesky", config, n_max, r)]
    raise BenchError(f"unknown workload {workload!r}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def check_report(op: Op, data: bytes, seed: int, size: str, expected: dict) -> str | None:
    """Why the report of ``op`` is wrong, or None when it passes."""
    if seed == DEFAULT_SEED and _sha256(data) != expected["sha256"][size][op.name]:
        return "report differs from the sha256 frozen for the default seed"
    try:
        report = json.loads(data)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if not _finite(report):
        return "report holds a non-finite number"
    try:
        return _semantic_problem(op, report, expected["geometric_asian_price"])
    except (KeyError, TypeError) as exc:
        return f"report lacks a field: {exc!r}"


def _semantic_problem(op: Op, report: dict, oracle: float) -> str | None:
    if op.argv[0] == "price":
        if report["payoff"] != op.name:
            return "report names another payoff"
        if op.name == "geometric_indicator_payoff":
            if not math.isclose(report["oracle"], oracle, rel_tol=1e-12):
                return "oracle differs from the closed-form price"
            if abs(report["estimate"] - oracle) > 4 * report["std_error"]:
                return "estimate is more than 4 standard errors from the oracle"
        return None
    if len(report["records"]) != op.grid or report["verdict"] != "consistent":
        return "rate study is incomplete or inconsistent"
    if op.name == "geometric_cholesky" and not math.isclose(
        report["reference"], oracle, rel_tol=1e-12
    ):
        return "reference differs from the closed-form price"
    return None


def layer_metrics(spans: list, evals: int, output_bytes: int) -> dict[str, float]:
    """Per-layer counts and times of one traced repetition.

    ``busy_s`` sums a function's span durations; a self time subtracts the
    time covered by direct child spans.  ``experiment.self_s`` is the self
    time of ``run_study`` and ``replicate_estimates`` (catalog integrands,
    means, finite checks); ``cli.self_s`` that of ``cli.main`` (config
    parsing, formatting, writing).
    """
    child_s = [0.0] * len(spans)
    for _, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    agg: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, _, _, work, cpu) in enumerate(spans):
        a = agg.setdefault(
            name, {"calls": 0, "work": 0, "busy_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        a["calls"] += 1
        a["work"] += work
        a["busy_s"] += t1 - t0
        a["cpu_s"] += cpu
        a["self_s"] += t1 - t0 - child_s[i]

    def get(name: str, stat: str) -> float:
        return agg.get(name, {}).get(stat, 0)

    scr, uni = "scrambling.scramble", "scrambling.uniform_points"
    gen, pay = "finance.generate_path", "finance.payoff_eval"
    coords = get(scr, "work")
    return {
        f"{scr}.calls": get(scr, "calls"),
        f"{scr}.coords": coords,
        f"{scr}.busy_s": get(scr, "busy_s"),
        f"{scr}.ns_per_coord": 1e9 * get(scr, "busy_s") / coords if coords else 0.0,
        f"{uni}.calls": get(uni, "calls"),
        f"{uni}.coords": get(uni, "work"),
        f"{uni}.busy_s": get(uni, "busy_s"),
        "scrambling.coords_per_eval": (coords + get(uni, "work")) / evals,
        "digital_nets.generate_points.calls": get("digital_nets.generate_points", "calls"),
        "digital_nets.generate_points.points": get("digital_nets.generate_points", "work"),
        "digital_nets.generate_points.busy_s": get("digital_nets.generate_points", "busy_s"),
        f"{gen}.calls": get(gen, "calls"),
        f"{gen}.points": get(gen, "work"),
        f"{gen}.busy_s": get(gen, "busy_s"),
        f"{gen}.cpu_s": get(gen, "cpu_s"),
        f"{pay}.calls": get(pay, "calls"),
        f"{pay}.points": get(pay, "work"),
        f"{pay}.busy_s": get(pay, "busy_s"),
        "finance.path_factor.calls": get("finance.path_factor", "calls"),
        "finance.path_factor.busy_s": get("finance.path_factor", "busy_s"),
        "experiment.self_s": get("experiment.run_study", "self_s")
        + get("experiment.replicate_estimates", "self_s"),
        "experiment.replicates": get("experiment.replicate_estimates", "work"),
        "experiment.fit_rate.busy_s": get("experiment.fit_rate", "busy_s"),
        "experiment.report.busy_s": get("experiment.report_to_json", "busy_s")
        + get("experiment.report_to_csv", "busy_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
    }


def _run_child(work: Path, argvs: list[list[str]], trace: bool, start: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    job, result, log = work / "job.json", work / "result.json", work / "child.log"
    result.unlink(missing_ok=True)
    job.write_text(
        json.dumps({"src": str(SRC), "ops": argvs, "trace": trace, "result": str(result)})
    )
    timeout = RUN_LIMIT_S - (time.monotonic() - start)
    if timeout <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job), repr(time.monotonic())],
                cwd=ROOT,
                stdout=fh,
                stderr=subprocess.STDOUT,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"repetition exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child exited with {proc.returncode}:\n{log.read_text()[-2000:]}")
    return json.loads(result.read_text())


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    corrupt_first: bool = False,
) -> dict:
    """Run one workload and return the result object and the raw repetitions.

    ``corrupt_first`` flips a bit of the first report before it is checked;
    the smoke test uses it to show that a wrong report counts as failed.
    """
    if not (SRC / "rqmc" / "__init__.py").is_file():
        raise BenchError(f"no rqmc package under {SRC}")
    ops = workload_ops(workload, size == "tiny")
    expected = json.loads((HERE / "expected.json").read_text())
    evals = sum(op.evals for op in ops)
    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        argvs, reports = [], []
        for i, op in enumerate(ops):
            argv = list(op.argv)
            if op.config is not None:
                config = work / f"{op.name}.cfg"
                config.write_text(op.config)
                argv += ["--config", str(config)]
            reports.append(work / f"report-{i}.json")
            argvs.append(argv + ["--seed", str(seed), "--out", str(reports[-1])])

        reps, durations = [], []
        attempted = failed = 0
        while True:
            traced = trace and len(reps) % 2 == 1
            for path in reports:
                path.unlink(missing_ok=True)
            t0 = time.monotonic()
            rep = _run_child(work, argvs, traced, start)
            durations.append(time.monotonic() - t0)
            if not rep["unwrapped"]:
                raise BenchError("rqmc functions stayed wrapped after a traced run")
            rep["traced"], rep["output_bytes"] = traced, 0
            for op, path, res in zip(ops, reports, rep["ops"]):
                attempted += 1
                data = path.read_bytes() if path.exists() else None
                if data is not None:
                    rep["output_bytes"] += len(data)
                    res["sha256"] = _sha256(data)
                    if corrupt_first and attempted == 1:
                        data = bytes([data[0] ^ 1]) + data[1:]
                if res["error"] is not None:
                    reason = res["error"].strip().splitlines()[-1]
                elif res["code"] != 0:
                    reason = f"exit code {res['code']}"
                elif data is None:
                    reason = "no report written"
                else:
                    reason = check_report(op, data, seed, size, expected)
                if reason is not None:
                    failed += 1
                    print(f"perfbench: {op.name} failed: {reason}", file=sys.stderr)
            reps.append(rep)
            elapsed = time.monotonic() - start
            if len(reps) >= MIN_REPS and elapsed + statistics.median(durations) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in untraced)
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r["spans"], evals, r["output_bytes"]) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_share"] = (traced_wall - wall) / wall
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "evals_per_s": statistics.median(evals / r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return {"result": result, "reps": reps}


def provenance() -> dict:
    """What produced the numbers; recorded beside them, never in a report."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    table = SRC / "rqmc" / "data" / "joe_kuo_64.txt"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "joe_kuo_64_sha256": _sha256(table.read_bytes()),
        "git_commit": commit,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 unsigned bits")
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        prov = provenance()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = run["result"]
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, **run}, indent=1) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    rows = dict(result["metrics"])
    if not args.trace:
        rows["fail_share"] = {"value": result["failed"] / result["attempted"], "unit": "share"}
    for name, m in rows.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
