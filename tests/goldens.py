"""The test suite's frozen digests, the recipe that makes each one's bytes,
and a listing of every golden's frozen digest against its current one.

    PYTHONPATH=src python tests/goldens.py

prints one line per golden: its name, its frozen digest and its current
digest, with ``DIFFERS`` at the end of each line where the two differ; it
exits 1 if any does.  The goldens are the three tables below, the README's
``$ rqmc`` sessions, and the seed-0 report digests of
``perfbench/expected.json``, rebuilt from ``perfbench/run.py``'s own
``workload_ops``.  A refreeze edits the frozen side and takes its
old -> new list from this output.

The tests compare these literal tables against the recipes, so no check
compares a recipe with itself.  README "Testing" states the hosts on which
the frozen bytes are known to hold.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from rqmc.cli import main as rqmc_main
from rqmc.digital_nets import generate_net
from rqmc.experiment import StudyConfig, report_to_json, run_study
from rqmc.scrambling import ScrambleSeed, scramble

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PERFBENCH = ROOT / "perfbench"

# sha256 of stdout and the exit code for each payoff kind and factor:
# `rate-study --format json` with n_max = 1024, R = 8, whose echoed
# irregular_dimension and max_growth are the ones the integrand declares;
# and `price --format json -n 256 -R 8`.
GOLDEN_CLI = {
    ("asian_call", "ot"): (1, "ad3331ca7f29707415bb5541d47dbd2441360aa1c84404fe8ca3bff19ecfb243", "67532f658eed3e23db83239bf1529c0102a7201354c66cc7c5f62ca844d568f5"),
    ("asian_call", "cholesky"): (1, "0777e6b198aa7c71005cd76f7a0243d9e535aa37cd6187ccd1be60408dd30273", "9ad46e8b47749edb13feb909dac8e518ca105922b54aaf5e5b85f0cb15e03e55"),
    ("asian_delta", "ot"): (1, "09456e8e419267f65dcb6de6e43f7d5fa19df3c028ac16d509b367154b9b7db4", "3e70363a2d61bb4289589d9ed02a0c744a2b2b167f29c06b144f4533cf4020b8"),
    ("asian_delta", "cholesky"): (1, "80b3ac63cd28abd50edf2ffab970808041529cb4122d3e7d8d166d1969a36b14", "f9978bfca80403701f8e0729cd7e1198aacee215a4b7f65297b4807a914e55c1"),
    ("asian_gamma", "ot"): (1, "9f2172422e5b4c1a846005b070f9a7fbfe5ed3224d879fb9d6cc4036fac7a46d", "8945ce72d61c1052a38a3a4aa723e282f6022b5dd88ccdf4da9275d1c3c5dd11"),
    ("asian_gamma", "cholesky"): (1, "0c4ee85e1e65694852fc3bbadf7c3b4cbd4b701c0d2082e4ba44126b4caa5d1b", "0765c64544eb17bd12f7c57ccf33422322bb797a54879df2c139b4da603b3364"),
    ("asian_rho", "ot"): (1, "3c105c9e55c166415158bbc56fdc2f0399b75113562d3a1ab7617704c15e8b40", "a075cec8d3cefaad1ac64a94e1742c5b7d471e9d5de9ddb7d72e922bb5e3b443"),
    ("asian_rho", "cholesky"): (1, "25e05cfbf5026162c947a6a49ea20153f110d7ffd1f451f009acf57667779760", "5eac113b197e4a8664bc317dcc0324c52e88ca3d290389ffe1f2c5602d8a2f66"),
    ("asian_theta", "ot"): (1, "b94f12547ad24d9277abd354c1c3e586a3438f44474230635dcfb7282391c0d3", "aad0a2f3fcb88673821a100645a852cac84f955f7b3ae96e4f9ad4a52422f395"),
    ("asian_theta", "cholesky"): (1, "211ce76889c1a893804f7808d0d9d401466ed2ceda987820aee2328c4aa49a7b", "ca58d09076e0e4fd5ab21964399f7e707ef119a74d8cff1582b604b75572b706"),
    ("asian_vega", "ot"): (1, "be3f9666fda71c39fadcfb081d28d4f7c6bd9d9b485ac72808e3e9078ce4d57a", "2a05cca790a3e99e9a6672e2199ceae91909af213c543d08c93597699ce2ec1d"),
    ("asian_vega", "cholesky"): (1, "1b9d3bb0b840da8c4727849f4314ecf1bbca882e0df568baceff3009644edb6d", "f52dc448ad453dcb9ec4111579d113be7d15e5991a8763f7e8837d0c57557a66"),
    ("geometric_indicator_payoff", "ot"): (0, "a48d0c89c08a40345b2feef7b4729bf5ce69bf06e07743ecdbbf5f87e8b480e4", "4a88a80a85754e4eec01d6b11c144790d4fa2e1d5cc56fa8f0d8b528bb995ce0"),
    ("geometric_indicator_payoff", "cholesky"): (0, "5ae225745b1268feb63a949b424dfcb1cf395eb144d6ac99cbe9958bdf13b66d", "4221a7ff6caf0ca1a93c6336b88162acac0b01c53d16ae2c5c17a5304b9c280c"),
}


# sha256 of report_to_json at n = 64..1024, R = 8, master seed 0.  A change
# to any report byte is a behaviour change, not an optimisation.
GOLDEN_REPORTS = {
    ("smooth_product", "scrambled_net"): "19481e5862e4593bb00a61c64cbbc175baf178d1d0c763e38c955265729f6fcc",
    ("halfspace", "scrambled_net"): "0cc9350514bacb7cb80da5e663218ace905f57f68c882d63a1a06a16298e9fe1",
    ("axis_box", "scrambled_net"): "71bd3e2511a94c8add51c849d6621fbaa46ba1111afffec51f166977cf788528",
    ("axis_singular", "scrambled_net"): "03f14c9c5735b70a53a0cf15866dc1178bf4718cca8e083748e5002ba7ea9659",
    ("corner_singular", "scrambled_net"): "b8516db7f4a8c1eafde2b7070b391786901e6b12ab7037344e2c24410a7571c9",
    ("geometric_ot", "scrambled_net"): "a48d0c89c08a40345b2feef7b4729bf5ce69bf06e07743ecdbbf5f87e8b480e4",
    ("geometric_cholesky", "scrambled_net"): "5ae225745b1268feb63a949b424dfcb1cf395eb144d6ac99cbe9958bdf13b66d",
    ("halfspace", "plain_mc"): "789ecc530a1406944040b8f86ec7388833f0f56ec001135aa34720c9a377d7c4",
}


# sha256 of scramble(generate_net(16, 4), ScrambleSeed(0, k)).ints, k = 0..3,
# frozen from the per-digit kernel that allocated per digit
LONG_FORM_SHA256 = (
    "8351588eca54b14df1b04b4db3335d7d640ba3b762d500c11e91b7f549f86dbd",
    "fedae5c3d03a2e07c2763617c46d7eebc97db76bd829ba58229d98cff92b6fb8",
    "1dafaf3eb904cc12eca96b4250eacfeacc71fe4545e1227627d4357a5b938273",
    "31659ad2b7e1db94d43a0029771cedf0e40efac1ec5640824755538c30ced1da",
)


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``rqmc`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rqmc_main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- recipes


def cli_study(kind: str, factor: str) -> tuple[int, str]:
    """Exit code and stdout sha256 of the ``GOLDEN_CLI`` rate study."""
    # the arithmetic kinds have no closed form, so they need a reference
    ref = "" if kind == "geometric_indicator_payoff" else "reference = 0.05\n"
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "study.cfg"
        cfg.write_text(f"integrand = {kind}\nfactor = {factor}\n{ref}n_max = 1024\nR = 8\n")
        code, out, _ = run_cli(["rate-study", "--config", str(cfg), "--format", "json"])
    return code, sha256(out)


def cli_price(kind: str, factor: str) -> tuple[int, str]:
    """Exit code and stdout sha256 of the ``GOLDEN_CLI`` price call."""
    code, out, _ = run_cli(
        ["price", "--payoff", kind, "--factor", factor, "-n", "256", "-R", "8", "--format", "json"]
    )
    return code, sha256(out)


def report_digest(name: str, sampler: str) -> str:
    """sha256 of the ``GOLDEN_REPORTS`` report of one catalog entry."""
    cfg = StudyConfig(name, n_grid=(64, 128, 256, 512, 1024), replications=8, sampler=sampler)
    return sha256(report_to_json(run_study(cfg)))


def long_form_digest(k: int) -> str:
    """sha256 of the ``LONG_FORM_SHA256`` scramble under seed (0, k)."""
    return sha256(scramble(generate_net(16, 4), ScrambleSeed(0, k)).ints.tobytes())


def readme_sessions(text: str):
    """Yield ``(command, argv, shown)`` for each session of the README ``text``.

    A ``text`` block is a terminal session: ``$ cat FILE`` shows a file the
    next command reads, and ``$ rqmc ...`` shows what it prints, stderr
    first; a final ``...`` stands for the lines left out.  A ``cat`` session
    is not yielded: its lines are written to FILE in the working directory.
    """
    for block in re.findall(r"^```text\n(.*?)^```", text, re.M | re.S):
        for session in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, shown = session.partition("\n")
            shown = shown.rstrip("\n").split("\n")
            argv = shlex.split(command)
            if argv[0] == "cat":
                Path(argv[1]).write_text("\n".join(shown) + "\n")
                continue
            yield command, argv, shown


def run_session(argv: list[str], shown: list[str]) -> tuple[int, list[str], list[str]]:
    """Exit code, printed lines and shown lines of one README ``rqmc`` session,
    both cut to the lines shown where the README leaves the rest out."""
    code, out, err = run_cli(argv[1:])
    printed = err.splitlines() + out.splitlines()
    if shown[-1] == "...":
        shown = shown[:-1]
        printed = printed[: len(shown)]
    return code, printed, shown


# ---------------------------------------------------------------- listing


def compare(
    cli: dict = GOLDEN_CLI, reports: dict = GOLDEN_REPORTS, long_form: tuple = LONG_FORM_SHA256
) -> list[tuple[str, str, str]]:
    """``(name, frozen, current)`` for every entry of the three test tables."""
    rows = []
    for (kind, factor), (code, study, price) in cli.items():
        rows.append((f"rate-study {kind} {factor}", f"exit {code} {study}",
                     "exit %d %s" % cli_study(kind, factor)))
        rows.append((f"price {kind} {factor}", f"exit 0 {price}",
                     "exit %d %s" % cli_price(kind, factor)))
    for (name, sampler), digest in reports.items():
        rows.append((f"report {name} {sampler}", digest, report_digest(name, sampler)))
    for k, digest in enumerate(long_form):
        rows.append((f"long-form scramble seed (0, {k})", digest, long_form_digest(k)))
    return rows


def _session_digest(code: int, lines: list[str]) -> str:
    return sha256("\n".join([f"exit {code}", *lines]))


def readme_rows() -> list[tuple[str, str, str]]:
    """The README sessions, each as the digest of what it shows and of what
    it prints, run in a scratch working directory."""
    rows, cwd = [], os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for command, argv, shown in readme_sessions(README.read_text()):
                code, printed, shown = run_session(argv, shown)
                frozen, current = _session_digest(0, shown), _session_digest(code, printed)
                rows.append((f"README $ {command}", frozen, current))
        finally:
            os.chdir(cwd)
    return rows


def _perfbench_run():
    """``perfbench/run.py`` as a module, imported without writing under it."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def perfbench_rows() -> list[tuple[str, str, str]]:
    """Each CLI call of every perfbench workload, at both sizes, at the
    default seed: the report's sha256 frozen in ``expected.json`` against
    the one the call writes now."""
    run = _perfbench_run()
    frozen = json.loads((PERFBENCH / "expected.json").read_text())["sha256"]
    rows = []
    with tempfile.TemporaryDirectory() as work:
        config, report = Path(work) / "study.cfg", Path(work) / "report.json"
        for size, digests in frozen.items():
            for workload in run.WORKLOADS:
                for op in run.workload_ops(workload, size == "tiny"):
                    argv = [*op.argv, "--seed", str(run.DEFAULT_SEED), "--out", str(report)]
                    if op.config is not None:
                        config.write_text(op.config)
                        argv += ["--config", str(config)]
                    report.unlink(missing_ok=True)
                    code, _, _ = run_cli(argv)
                    current = sha256(report.read_bytes()) if code == 0 else f"exit {code}"
                    rows.append((f"perfbench {size} {op.name}", digests[op.name], current))
    return rows


def print_listing(rows: list[tuple[str, str, str]]) -> int:
    """Print one line per golden; 1 if any current digest differs, else 0."""
    width = max(len(name) for name, _, _ in rows)
    differ = 0
    for name, frozen, current in rows:
        flag = "" if frozen == current else "  DIFFERS"
        differ += bool(flag)
        print(f"{name:<{width}}  {frozen}  {current}{flag}")
    print(f"{len(rows)} goldens, {differ} differ")
    return 1 if differ else 0


def main() -> int:
    return print_listing(compare() + readme_rows() + perfbench_rows())


if __name__ == "__main__":
    sys.exit(main())
