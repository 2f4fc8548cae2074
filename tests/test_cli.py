"""End-to-end command-line behavior, run in process."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from goldens import GOLDEN_CLI, PRICE_FORMATS, cli_price, cli_study

import rqmc.cli
import rqmc.errors
import rqmc.experiment
import rqmc.finance
from rqmc.cli import main
from rqmc.digital_nets import generate_net, radical_inverse
from rqmc.errors import CapacityError, ContractError
from rqmc.experiment import CATALOG, STANDARD_MODEL, StudyConfig
from rqmc.finance import PAYOFF_KINDS, GbmModel, PayoffSpec, geometric_asian_price
from rqmc.scrambling import ScrambleSeed, scramble


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_points(text: str) -> np.ndarray:
    return np.array(
        [[float(tok) for tok in line.split()] for line in text.strip().split("\n")]
    )


# ---------------------------------------------------------------- points


def test_points_m2_d1(capsys):
    code, out, _ = run(capsys, "points", "-m", "2", "-d", "1")
    assert code == 0
    assert parse_points(out)[:, 0].tolist() == [0.0, 0.5, 0.25, 0.75]


def test_points_m0_d2(capsys):
    code, out, _ = run(capsys, "points", "-m", "0", "-d", "2")
    assert code == 0
    assert out == "0 0\n"


def test_points_roundtrip_17_digits(capsys):
    code, out, _ = run(capsys, "points", "-m", "3", "-d", "4")
    assert code == 0
    pts = parse_points(out)
    assert pts.shape == (8, 4)
    # printed floats reparse to the exact generated dyadics
    assert pts[1, 0] == 0.5
    assert np.all((pts >= 0.0) & (pts < 1.0))


def test_points_scramble_deterministic(capsys):
    code1, out1, _ = run(capsys, "points", "-m", "4", "-d", "2", "--scramble", "--seed", "7")
    code2, out2, _ = run(capsys, "points", "-m", "4", "-d", "2", "--scramble", "--seed", "7")
    code3, out3, _ = run(capsys, "points", "-m", "4", "-d", "2", "--scramble", "--seed", "8")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1 != out3
    pts = parse_points(out1)
    assert np.all((pts > 0.0) & (pts < 1.0))


def test_points_out_file(tmp_path, capsys):
    # stdout and --out carry the same bytes: one row per point, each
    # coordinate at 17 significant digits, space separated
    coords = scramble(generate_net(6, 3), ScrambleSeed(5)).coords
    expected = "".join(
        " ".join(format(x, ".17g") for x in row) + "\n" for row in coords
    )
    argv = ("points", "-m", "6", "-d", "3", "--scramble", "--seed", "5")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)
    target = tmp_path / "pts.txt.gz"  # plain text whatever the suffix
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out, target.read_text()) == (0, "", expected)


def test_points_capacity_limits(capsys):
    code, _, err = run(capsys, "points", "-m", "21", "-d", "2")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "points", "-m", "4", "-d", "65")
    assert code == 2
    assert "dimension 65 exceeds the bundled direction-number table (max 64)" in err
    code, _, err = run(capsys, "points", "-m", "4", "-d", "0")
    assert code == 2
    assert "dimension must be >= 1" in err


# ---------------------------------------------------------------- verify-net


def test_verify_roundtrip_passes(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "4", "-d", "2", "--out", str(f))
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0")
    assert code == 0
    assert out == "PASS: (0,4,2)-net in base 2; 5 interval shapes checked\n"


def test_verify_scrambled_net_passes(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "6", "-d", "3", "--scramble", "--seed", "3", "--out", str(f))
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "1")
    assert code == 0
    assert "PASS" in out


def test_verify_readme_example(tmp_path, monkeypatch, capsys):
    # the README's `rqmc verify-net` session, run in a fresh directory
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "points", "-m", "8", "-d", "3", "--out", "net.txt")[0] == 0
    code, out, err = run(capsys, "verify-net", "net.txt", "-t", "1")
    assert (code, out, err) == (
        0, "PASS: (1,8,3)-net in base 2; 36 interval shapes checked\n", ""
    )
    code, out, err = run(capsys, "verify-net", "net.txt", "-t", "0")
    assert (code, out, err) == (
        1,
        "FAIL: interval with digit counts (0, 1, 7) and cell (0, 0, 0) "
        "(lower corner [0.0, 0.0, 0.0]) holds 2 points, expected 1\n",
        "",
    )


def test_verify_identical_points_fail(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0.3 0.4\n" * 4)
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0")
    assert code == 1
    assert out.startswith("FAIL")
    assert "digit counts" in out
    assert "expected 1" in out


def test_verify_wrong_row_count(tmp_path, capsys):
    # a count that is no power of the base is one error line
    for rows in (3, 6):
        f = tmp_path / "short.txt"
        f.write_text("0.1 0.2\n" * rows)
        code, out, err = run(capsys, "verify-net", str(f), "-t", "0")
        assert (code, out) == (2, "")
        assert err == f"error: {rows} points are not b^m points for any m\n"


def test_verify_t_above_m_names_m_and_n(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "2", "-d", "2", "--out", str(f))
    for t in ("3", "20000", "-1"):
        code, out, err = run(capsys, "verify-net", str(f), "-t", t)
        assert (code, out) == (2, "")
        assert err == f"error: need 0 <= t <= m, got t={t} for m=2 (4 points)\n"


def test_verify_huge_base_names_m_and_n(tmp_path, capsys):
    # argparse takes a 4001-digit base; neither it nor a power of it is
    # formatted, as that string would exceed Python's conversion limit
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "2", "-d", "2", "--out", str(f))
    code, out, err = run(capsys, "verify-net", str(f), "-t", "0", "-b", "1" + "0" * 4000)
    assert code == 2
    assert out == ""
    assert err == "error: 4 points are not b^m points for any m\n"


def test_verify_rejects_nan_coordinates(tmp_path, capsys):
    for text in ("0.1 0.2\nnan 0.3\n", "0.1\nnan\n"):
        f = tmp_path / "nan.txt"
        f.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "verify-net", str(f), "-t", "0")
        assert code == 2, text
        assert out == ""
        assert "coordinates must lie in [0,1)" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_verify_empty_file_is_one_error_line(tmp_path):
    # numpy warns on a file with no rows; stderr is the one error line
    f = tmp_path / "empty.txt"
    f.write_text("")
    src = str(Path(rqmc.cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "rqmc.cli", "verify-net", str(f), "-t", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: point file {f} holds no points\n"


def test_verify_garbage_and_missing_files(tmp_path, capsys):
    f = tmp_path / "junk.txt"
    f.write_text("not a number\n")
    code, _, err = run(capsys, "verify-net", str(f), "-t", "0")
    assert code == 2
    code, _, err = run(capsys, "verify-net", str(tmp_path / "absent.txt"), "-t", "0")
    assert code == 2


def test_verify_base3(tmp_path, capsys):
    f = tmp_path / "b3.txt"
    rows = [f"{i / 9} {radical_inverse(i, 3)}" for i in range(9)]
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0", "-b", "3")
    assert code == 0
    assert out == "PASS: (0,2,2)-net in base 3; 3 interval shapes checked\n"
    one = tmp_path / "one.txt"
    one.write_text("0.5 0.5\n")
    for base in ("2", "3", "1" + "0" * 4000):  # one point is b^0 points in any base
        code, out, err = run(capsys, "verify-net", str(one), "-t", "0", "-b", base)
        assert (code, err) == (0, "")
        assert out.startswith("PASS: (0,0,2)-net in base ")
    for base in ("1", "0"):  # b^0 = 1 matches the row count, but no base < 2 is valid
        code, out, err = run(capsys, "verify-net", str(one), "-t", "0", "-b", base)
        assert code == 2
        assert out == ""
        assert "base must be >= 2" in err


def test_verify_takes_no_m_or_d_flag(tmp_path, capsys, monkeypatch):
    # m and d are read from the points, so neither can be stated
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "2", "-d", "2", "--out", str(f))
    for flag in ("-m", "-d"):
        with pytest.raises(SystemExit) as exc:
            main(["verify-net", str(f), "-t", "0", flag, "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 2" in captured.err
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-net", "--help"])
    assert exc.value.code == 0
    options = [
        line.split()[0] for line in capsys.readouterr().out.splitlines()
        if line.startswith("  ")
    ]
    assert options == ["file", "-h,", "-t", "-b"]


# ---------------------------------------------------------------- rate-study


def write_config(tmp_path, text: str):
    f = tmp_path / "study.cfg"
    f.write_text(text)
    return str(f)


HALFSPACE_CFG = """
# rate study of the diagonal indicator
integrand = halfspace
n_min = 64
n_max = 1024
R = 8
seed = 1
"""


def test_rate_study_consistent_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, HALFSPACE_CFG)
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "integrand,sampler,n,R,mean_abs_error,std_error"
    assert len(lines) == 6
    assert lines[1].startswith("halfspace,scrambled_net,64,8,")
    assert "slope" in err and "consistent" in err


def test_rate_study_json_verdict(tmp_path, capsys):
    cfg = write_config(tmp_path, HALFSPACE_CFG)
    argv = ("rate-study", "--config", cfg, "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "consistent"
    assert obj["config"]["integrand"] == "halfspace"
    assert obj["config"]["n_grid"] == [64, 128, 256, 512, 1024]
    # the verdict line goes to stderr with or without --out
    assert err.startswith("slope ") and err.endswith(": consistent\n")
    target = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", err)
    assert target.read_text() == out


def test_rate_study_inconsistent_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "integrand = axis_singular\nsampler = plain_mc\n"
        "n_min = 64\nn_max = 1024\nR = 8\nseed = 2\n",
    )
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 1
    assert "inconsistent" in err


def test_rate_study_seed_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, HALFSPACE_CFG)
    _, out1, _ = run(capsys, "rate-study", "--config", cfg)
    _, out2, _ = run(capsys, "rate-study", "--config", cfg, "--seed", "99")
    _, out3, _ = run(capsys, "rate-study", "--config", cfg, "--seed", "1")
    assert out1 != out2
    assert out1 == out3  # flag equals the config value


def test_rate_study_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path, HALFSPACE_CFG)
    target = tmp_path / "report.csv"
    code, out, err = run(capsys, "rate-study", "--config", cfg, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("integrand,sampler,")
    assert "slope" in err


def test_rate_study_colon_separators(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "integrand: halfspace\nn_min: 64\nn_max: 512\nR: 8\n"
    )
    code, out, _ = run(capsys, "rate-study", "--config", cfg)
    assert code in (0, 1)
    assert out.count("\n") == 5
    # whitespace-separated `key value` lines, with tabs as well as spaces
    cfg = write_config(
        tmp_path, "integrand\thalfspace\nn_min \t64\nn_max  512\nR\t8\n"
    )
    code, tabbed, _ = run(capsys, "rate-study", "--config", cfg)
    assert code in (0, 1)
    assert tabbed == out


def test_rate_study_infeasible_growth(tmp_path, capsys, monkeypatch):
    # maxA is the integrand's own: an entry that declares maxA >= 1 has no
    # predicted rate, and its study stops before the integrand is called
    calls = []

    def f(u):
        calls.append(1)
        return CATALOG["axis_singular"].f(u)

    entry = replace(CATALOG["axis_singular"], name="steep", max_growth=1.2, f=f)
    monkeypatch.setitem(CATALOG, "steep", entry)
    cfg = write_config(tmp_path, "integrand = steep\nn_min = 64\nn_max = 1024\nR = 8\n")
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err.startswith("error: max growth exponent 1.2 >= 1"), err
    assert calls == []
    # a config cannot set maxA, and non-finite slack must not reach the
    # report as NaN/Infinity
    for line in ("maxA = 1.2", "maxA = nan", "slack = nan", "slack = inf"):
        cfg = write_config(
            tmp_path, f"integrand = axis_singular\n{line}\nn_min = 64\nn_max = 1024\nR = 8\n"
        )
        code, out, err = run(capsys, "rate-study", "--config", cfg, "--format", "json")
        assert code == 2, line
        assert out == ""
        assert err.startswith("error:")
        assert line.split()[0] in err, err


def test_rate_study_unused_keys_rejected(tmp_path, capsys):
    cases = [
        ("integrand = halfspace\nn_maxx = 4096\nR = 8\n", "n_maxx"),
        (
            "integrand = geometric_ot\nfactor = cholesky\nn_min = 64\nn_max = 1024\nR = 8\n",
            "factor",
        ),
        # d_u is the integrand's, not a setting (maxA: see infeasible growth)
        ("integrand = axis_singular\nd_u = 2\nn_max = 1024\nR = 8\n", "d_u"),
    ]
    for text, key in cases:
        code, out, err = run(
            capsys, "rate-study", "--config", write_config(tmp_path, text),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert key in err


def test_rate_study_repeated_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "integrand = halfspace\nR = 8\nn_max = 1024\nR = 16\n")
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert out == ""
    assert "'R'" in err and ":4:" in err and "line 2" in err


def test_rate_study_bad_configs(tmp_path, capsys):
    code, _, err = run(
        capsys, "rate-study", "--config",
        write_config(tmp_path, "integrand = mystery\n"),
    )
    assert code == 2
    code, _, err = run(
        capsys, "rate-study", "--config",
        write_config(tmp_path, "n_min = 64\n"),
    )
    assert code == 2
    code, _, err = run(
        capsys, "rate-study", "--config",
        write_config(tmp_path, "integrand = halfspace\nn_min = 100\n"),
    )
    assert code == 2
    code, _, err = run(
        capsys, "rate-study", "--config", str(tmp_path / "nope.cfg"),
    )
    assert code == 2
    # capped like `points`: fails before any allocation, without a traceback
    code, out, err = run(
        capsys, "rate-study", "--config",
        write_config(tmp_path, f"integrand = halfspace\nn_max = {2**40}\nR = 8\n"),
    )
    assert code == 2
    assert out == ""
    assert "error:" in err and "2^20" in err


def test_rate_study_bad_values_name_key_and_line(tmp_path, capsys):
    cases = [
        ("integrand = halfspace\nR = 8.5\n", ":2: R must be an integer, got '8.5'"),
        ("integrand = halfspace\n\nn_max = 1e3\n", ":3: n_max must be an integer, got '1e3'"),
        ("n_min = 64x\nintegrand = halfspace\n", ":1: n_min must be an integer, got '64x'"),
        ("integrand = halfspace\nseed = -\n", ":2: seed must be an integer, got '-'"),
        ("integrand = halfspace\nslack = wide\n", ":2: slack must be a number, got 'wide'"),
        ("integrand = axis_singular\nd = 1.0\n", ":2: d must be an integer, got '1.0'"),
        (
            "integrand = asian_call\nreference = 0.1\nK = one\n",
            ":3: K must be a number, got 'one'",
        ),
        ("integrand = asian_call\nd = 4.5\n", ":2: d must be an integer, got '4.5'"),
    ]
    for text, message in cases:
        cfg = write_config(tmp_path, text)
        code, out, err = run(capsys, "rate-study", "--config", cfg)
        assert code == 2, text
        assert out == ""
        assert err == f"error: {cfg}{message}\n", err


def test_rate_study_rejects_dimension_below_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "integrand = smooth_product\nd = 0\n")
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert out == ""
    assert "dimension must be >= 1, got 0" in err, err


def test_rate_study_replications_capped(tmp_path, capsys):
    for text, cap in (
        ("integrand = halfspace\nn_max = 1024\nR = 100000000\n", "2^16 replicates"),
        (f"integrand = halfspace\nn_max = {2**20}\nR = 128\n", "2^26 points"),
    ):
        code, out, err = run(
            capsys, "rate-study", "--config", write_config(tmp_path, text)
        )
        assert code == 2, text
        assert out == ""
        assert err.startswith("error: at most " + cap), err
    # the largest sizes in use stay admitted: n_max = 2^18 at R = 32 and
    # the largest grid at the default R
    StudyConfig("halfspace", n_min=2**18, n_max=2**18, replications=32)
    StudyConfig("halfspace", n_min=2**20, n_max=2**20, replications=32)


def test_rate_study_payoff_requires_reference(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "integrand = asian_call\nn_min = 64\nn_max = 1024\nR = 8\n"
    )
    code, _, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert "reference" in err


def test_rate_study_payoff_rejects_unknown_factor(tmp_path, capsys):
    # a bad factor is named before the missing reference is noticed
    cfg = write_config(
        tmp_path,
        "integrand = asian_call\nfactor = pca\nn_min = 64\nn_max = 1024\nR = 8\n",
    )
    code, _, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert "unknown factor method 'pca'" in err


def test_rate_study_geometric_payoff_oracle(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "integrand = geometric_indicator_payoff\nfactor = ot\n"
        "n_min = 64\nn_max = 1024\nR = 8\nseed = 3\n",
    )
    code, out, _ = run(capsys, "rate-study", "--config", cfg, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    model = GbmModel(1.0, 0.05, 0.2, 1.0, 4, 1.0)
    assert obj["reference"] == pytest.approx(geometric_asian_price(model))
    assert obj["config"]["model"]["d"] == 4


def test_golden_cli_bytes():
    assert {kind for kind, _ in GOLDEN_CLI} == set(PAYOFF_KINDS)
    for (kind, factor), (study_code, study_digest, *price_digests) in GOLDEN_CLI.items():
        code, digest = cli_study(kind, factor)
        assert code == study_code, (kind, factor)
        assert digest == study_digest, (kind, factor)
        for fmt, price_digest in zip(PRICE_FORMATS, price_digests, strict=True):
            code, digest = cli_price(kind, factor, fmt)
            assert code == 0
            assert digest == price_digest, (kind, factor, fmt)


@pytest.mark.parametrize("spelling", ["short", "long"])
def test_price_flags_and_study_keys_build_one_model(tmp_path, capsys, monkeypatch, spelling):
    # each GbmModel field is one `price` flag and one payoff key of a
    # rate-study config, with the same default
    models = []

    def capture(integrand, **kwargs):
        models.append(integrand.model)
        raise ContractError("model captured")

    # rate-study builds its StudyConfig in the CLI, price in price_report
    monkeypatch.setattr(rqmc.cli, "StudyConfig", capture)
    monkeypatch.setattr(rqmc.experiment, "StudyConfig", capture)
    values = {"s0": "1.5", "r": "0.03", "sigma": "0.3", "T": "2.0", "d": "3", "K": "1.25"}
    flags = {"s0": "--s0", "r": "--r", "sigma": "--sigma", "d": "-d"}
    flags.update(
        {"T": "-T", "K": "-K"} if spelling == "short" else {"T": "--maturity", "K": "--strike"}
    )

    def models_built(price_flags, study_keys):
        models.clear()
        code, _, err = run(capsys, "price", "--payoff", "asian_call", *price_flags)
        assert (code, err) == (2, "error: model captured\n")
        cfg = write_config(tmp_path, "integrand = asian_call\n" + study_keys)
        code, _, err = run(capsys, "rate-study", "--config", cfg)
        assert (code, err) == (2, "error: model captured\n")
        return models

    set_flags = [tok for key, v in values.items() for tok in (flags[key], v)]
    set_keys = "".join(f"{key} = {v}\n" for key, v in values.items())
    set_model = GbmModel(1.5, 0.03, 0.3, 2.0, 3, 1.25)
    assert models_built(set_flags, set_keys) == [set_model, set_model]
    assert models_built([], "") == [STANDARD_MODEL, STANDARD_MODEL]


PRICE_HELP = """\
usage: rqmc price [-h] --payoff
                  {asian_call,asian_delta,asian_gamma,asian_rho,asian_theta,asian_vega,geometric_indicator_payoff}
                  [--s0 S0] [--r R] [--sigma SIGMA] [-T MATURITY] [-d D]
                  [-K STRIKE] [--factor {cholesky,ot}] [-n N]
                  [-R REPLICATIONS] [--seed SEED] [--format {text,json}]
                  [--out OUT]

options:
  -h, --help            show this help message and exit
  --payoff {asian_call,asian_delta,asian_gamma,asian_rho,asian_theta,asian_vega,geometric_indicator_payoff}
  --s0 S0               initial price
  --r R                 risk-free rate
  --sigma SIGMA         volatility
  -T MATURITY, --maturity MATURITY
                        maturity
  -d D                  monitoring dates
  -K STRIKE, --strike STRIKE
                        strike
  --factor {cholesky,ot}
  -n N                  points per replicate
  -R REPLICATIONS, --replications REPLICATIONS
  --seed SEED
  --format {text,json}
  --out OUT             output path (default stdout)
"""

RATE_STUDY_HELP = """\
usage: rqmc rate-study [-h] --config CONFIG [--seed SEED] [--out OUT]
                       [--format {csv,json}]

options:
  -h, --help           show this help message and exit
  --config CONFIG      flat key-value config file
  --seed SEED          override master seed
  --out OUT            output path (default stdout)
  --format {csv,json}
"""


@pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse 3.13 prints a flag's metavar once"
)
@pytest.mark.parametrize(
    "command, text", [("price", PRICE_HELP), ("rate-study", RATE_STUDY_HELP)]
)
def test_help_bytes(capsys, monkeypatch, command, text):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == text


# ---------------------------------------------------------------- price


def test_price_call_zero_strike_zero_rate(capsys):
    # with K = 0 and r = 0 the discounted Asian call mean is exactly s0
    code, out, _ = run(
        capsys, "price", "--payoff", "asian_call", "--r", "0", "-K", "0",
        "-n", "1024", "-R", "8",
    )
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    assert fields["payoff"] == "asian_call"
    assert float(fields["estimate"]) == pytest.approx(1.0, abs=5e-3)
    assert float(fields["std_error"]) >= 0.0


def test_price_geometric_matches_oracle(capsys):
    code, out, _ = run(
        capsys, "price", "--payoff", "geometric_indicator_payoff",
        "-n", "1024", "-R", "8", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"payoff", "factor", "n", "R", "estimate", "std_error", "oracle"}
    assert obj["n"] == 1024 and obj["R"] == 8
    assert obj["estimate"] == pytest.approx(obj["oracle"], abs=1e-3)
    assert abs(obj["estimate"] - obj["oracle"]) < 6 * max(obj["std_error"], 1e-7)


def test_price_deterministic_and_worker_invariant(capsys):
    args = ("price", "--payoff", "asian_vega", "-n", "512", "-R", "8", "--seed", "5")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_price_factor_choice_changes_estimate(capsys):
    _, out_ot, _ = run(
        capsys, "price", "--payoff", "asian_call", "-n", "512", "-R", "8",
        "--factor", "ot",
    )
    _, out_ch, _ = run(
        capsys, "price", "--payoff", "asian_call", "-n", "512", "-R", "8",
        "--factor", "cholesky",
    )
    assert out_ot != out_ch
    est_ot = float(dict(l.split(" ", 1) for l in out_ot.strip().split("\n"))["estimate"])
    est_ch = float(dict(l.split(" ", 1) for l in out_ch.strip().split("\n"))["estimate"])
    assert est_ot == pytest.approx(est_ch, abs=2e-3)


def test_price_sigma_zero_gamma_rejected(capsys):
    code, _, err = run(
        capsys, "price", "--payoff", "asian_gamma", "--sigma", "0",
        "-n", "512", "-R", "8",
    )
    assert code == 2
    assert "sigma" in err


def test_price_validation_errors(capsys):
    code, _, _ = run(capsys, "price", "--payoff", "asian_call", "-n", "1000")
    assert code == 2
    code, _, _ = run(capsys, "price", "--payoff", "asian_call", "-R", "4", "-n", "512")
    assert code == 2
    code, out, err = run(capsys, "price", "--payoff", "asian_call", "-n", str(2**40))
    assert code == 2
    assert out == ""
    assert "error:" in err and "2^20" in err
    for flag, value, field in (
        ("--r", "nan", "r"),
        ("-K", "nan", "strike"),
        ("-K", "inf", "strike"),
        ("--s0", "inf", "s0"),
        ("--sigma", "nan", "sigma"),
        ("-T", "inf", "maturity"),
        ("-T", "nan", "maturity"),
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "price", "--payoff", "geometric_indicator_payoff",
                "-n", "512", "-R", "8", flag, value,
            )
        assert code == 2, flag
        assert out == ""
        assert f"error: {field} must be finite" in err, err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("factor", ["cholesky", "ot"])
def test_sigma_whose_variance_overflows_is_refused(tmp_path, capsys, factor):
    # sigma^2 overflowed: an OverflowError traceback under cholesky, and
    # under ot a numpy warning, then a message about the factor
    cfg = write_config(
        tmp_path,
        "integrand = geometric_indicator_payoff\n"
        f"factor = {factor}\nsigma = 1e155\nn_max = 1024\nR = 8\n",
    )
    for argv in (
        ["price", "--payoff", "geometric_indicator_payoff", "--factor", factor,
         "--sigma", "2e154", "-n", "512", "-R", "8"],
        ["rate-study", "--config", cfg],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and "sigma=" in err, err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "flags, field",
    [
        # e^{-rT} overflowed: an OverflowError traceback
        (("--payoff", "asian_call", "--r", "-720"), "r"),
        (("--payoff", "geometric_indicator_payoff", "--r", "-720", "-K", "0"), "r"),
        # the drift (r - sigma^2/2) T overflowed: a numpy warning, then a point
        # was blamed
        (("--payoff", "asian_call", "--r", "1e200", "-T", "1e200"), "maturity"),
        # T/d underflowed to 0: a matrix that is not positive definite
        (("--payoff", "asian_call", "-T", "5e-324"), "maturity"),
        # asian_gamma's divisor s0^2 sigma^2 dt overflowed or underflowed to 0:
        # an OverflowError traceback, or a numpy warning and a blamed point
        (("--payoff", "asian_gamma", "--s0", "1e160"), "s0"),
        (("--payoff", "asian_gamma", "--s0", "1e-200", "-K", "0"), "s0"),
        # e^(-rT) underflowed to 0 while the path overflowed: two numpy
        # warnings, then a point was blamed
        (("--payoff", "asian_call", "--r", "800"), "r"),
        # priced on values scaled by a power of two (their sums and squares
        # overflowed); now outside the model's domain
        (("--payoff", "asian_call", "--s0", "1e300"), "s0"),
        (("--payoff", "asian_call", "--s0", "1e300", "--format", "json"), "s0"),
        (("--payoff", "asian_call", "--s0", "1e306"), "s0"),
        (("--payoff", "asian_call", "--s0", "1e307"), "s0"),
        # the paths overflowed: two numpy warnings, then a point was blamed
        (("--payoff", "asian_call", "--s0", "1e308"), "s0"),
    ],
)
def test_model_constants_that_overflow_are_refused(capsys, flags, field):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "price", *flags, "-n", "512", "-R", "8")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert re.search(rf"\b{field}=", err), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("kind", ["asian_vega", "asian_gamma"])
def test_sigma_below_the_floor_of_vega_and_gamma_is_refused(capsys, kind):
    # their numerator log(S/S0) - (r + sigma^2/2) t cancels as sigma falls:
    # asian_vega read 3.3% low at sigma = 1e-12 and 3.68e+143 at 1e-160,
    # both with exit 0
    argv = ("price", "--payoff", kind, "-n", "1024", "-R", "8", "--sigma")
    code, out, err = run(capsys, *argv, "1e-8")
    assert (code, err) == (0, ""), err
    for sigma in ("1e-12", "1e-160"):
        code, out, err = run(capsys, *argv, sigma)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"sigma={float(sigma)}" in err, err


def test_theta_below_the_floor_of_its_maturity_is_refused(capsys):
    # theta divides log(S/S0) by 2T: theta * sqrt(T) read 0.0273176 at
    # T = 1e-10, but 0.8% low at 1e-28 and 60% low at 1e-30, all with exit 0
    argv = ("price", "--payoff", "asian_theta", "-n", "1024", "-R", "8", "-T")
    code, out, err = run(capsys, *argv, "1e-10")
    assert (code, err) == (0, ""), err
    estimate = float(dict(l.split(" ", 1) for l in out.strip().split("\n"))["estimate"])
    assert estimate * 1e-5 == pytest.approx(0.0273176, abs=1e-7)
    for maturity in ("1e-20", "1e-24", "1e-28", "1e-30"):
        code, out, err = run(capsys, *argv, maturity)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"maturity={float(maturity)};" in err and "sigma=0.2" in err, err


def test_theta_prices_a_drift_only_model(capsys):
    # theta's floor is on the size of log(S/S0), sigma sqrt(T) + |r - sigma^2/2| T,
    # so sigma = 0 prices the drift's closed form; sigma = r = 0 has no size
    argv = ("price", "--payoff", "asian_theta", "-n", "1024", "-R", "8", "--sigma")
    m = STANDARD_MODEL
    s = [m.s0 * math.exp(m.r * i * m.maturity / m.d) for i in range(1, m.d + 1)]
    exact = math.exp(-m.r * m.maturity) * (
        sum(s_i * m.r * i / m.d for i, s_i in enumerate(s, start=1)) / m.d
        - m.r * (sum(s) / m.d - m.strike)
    )
    for sigma in ("0", "1e-12"):
        code, out, err = run(capsys, *argv, sigma)
        assert (code, err) == (0, ""), err
        result = dict(l.split(" ", 1) for l in out.strip().split("\n"))
        assert float(result["estimate"]) == pytest.approx(exact, rel=1e-12)
        assert (result["std_error"] == "0") == (sigma == "0")
    code, out, err = run(capsys, *argv, "0", "--r", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "r=0.0 and maturity=1.0;" in err and "sigma=0.0" in err, err


def test_gamma_prices_a_small_s0(capsys):
    # refused as `asian_gamma's log scale 424.2 exceeds 320`, though its
    # values lie near 1e58
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "price", "--payoff", "asian_gamma", "--s0", "1e-60", "-K", "0",
            "-n", "512", "-R", "8",
        )
    assert (code, err) == (0, ""), err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    estimate = float(dict(l.split(" ", 1) for l in out.strip().split("\n"))["estimate"])
    assert 1e56 < estimate < 1e58


@pytest.mark.parametrize(
    "argv, message",
    [
        # a rate study's absolute errors near the float range: their spread
        # overflowed the standard error's squares (before that, its mean
        # overflowed as `mean of replicate 0 at n=64 is inf`, or gave three
        # numpy warnings and `slope +nan`); now outside the model's domain
        (("rate-study", "--config"), "s0=1e+307"),
    ],
    ids=["study_s0_1e307"],
)
def test_results_that_overflow_are_refused(tmp_path, capsys, argv, message):
    cfg = "integrand = asian_call\ns0 = 1e307\nreference = 1\nn_max = 1024\nR = 8\n"
    argv += (write_config(tmp_path, cfg),)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_tiny_sigma_prices_under_both_factors(capsys):
    # at sigma = 1e-165 the ot factor warned twice and failed to
    # reconstruct the covariance; the paths are the drift under either
    # factor, so both price the same
    estimates = []
    for factor in ("cholesky", "ot"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "price", "--payoff", "geometric_indicator_payoff",
                "--factor", factor, "--sigma", "1e-165", "-n", "512", "-R", "8",
            )
        assert (code, err) == (0, ""), err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        estimates.append(dict(l.split(" ", 1) for l in out.strip().split("\n"))["estimate"])
    assert estimates[0] == estimates[1]


def test_cli_import_skips_unused_modules():
    # the package re-exports nothing, so a command loads only what it uses,
    # and the growth check needs no scipy module at all
    src = str(Path(rqmc.cli.__file__).resolve().parents[1])
    for module, probe, want in (
        (
            "rqmc.cli",
            "'rqmc.experiment' in sys.modules, 'rqmc.singularity' in sys.modules, "
            "'scipy.special' in sys.modules",
            ["True", "False", "False"],
        ),
        ("rqmc.singularity", "[m for m in sys.modules if m.split('.')[0] == 'scipy']", ["[]"]),
    ):
        out = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print({probe})"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.split() == want, module


def test_cli_imports_no_private_rqmc_name():
    # a rule the CLI needs belongs to a public name of the module that owns it
    tree = ast.parse(Path(rqmc.cli.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "rqmc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_cli_loads_scipy_special_only_for_a_payoff(tmp_path):
    # points, verify-net and a catalog study that is no payoff never need a
    # normal quantile; pricing a payoff does
    src = str(Path(rqmc.cli.__file__).resolve().parents[1])
    (tmp_path / "study.cfg").write_text(HALFSPACE_CFG)
    code = """if True:
        import sys
        from rqmc.cli import main
        def run(*argv):
            assert main(list(argv)) == 0, argv
        run("points", "-m", "4", "-d", "2", "--out", "pts.txt")
        run("verify-net", "pts.txt", "-t", "0")
        run("rate-study", "--config", "study.cfg", "--out", "study.csv")
        print("scipy.special" in sys.modules)
        run("price", "--payoff", "geometric_indicator_payoff", "-n", "64", "-R", "8",
            "--out", "price.txt")
        print("scipy.special" in sys.modules)
    """
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines()[-2:] == ["False", "True"]


def test_price_out_file(tmp_path, capsys):
    target = tmp_path / "price.json"
    code, out, _ = run(
        capsys, "price", "--payoff", "asian_delta", "-n", "512", "-R", "8",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["payoff"] == "asian_delta"


def test_price_dimension_beyond_table_fails_before_path_factor(capsys, monkeypatch):
    # the d x d path factor costs O(d^3): a net the direction table cannot
    # give is refused before it is built
    calls = []
    monkeypatch.setattr(rqmc.finance, "path_factor", lambda *a: calls.append(a))
    code, out, err = run(
        capsys, "price", "--payoff", "asian_call", "-d", "65", "-n", "64", "-R", "8"
    )
    assert code == 2
    assert out == ""
    assert err == "error: dimension 65 exceeds the bundled direction-number table (max 64)\n"
    assert calls == []
    # plain Monte Carlo is the control for a net of the same d: same cap
    spec = PayoffSpec("asian_call", replace(STANDARD_MODEL, d=65))
    with pytest.raises(CapacityError, match="dimension 65 exceeds"):
        StudyConfig(spec, sampler="plain_mc")
    assert calls == []


@pytest.mark.parametrize(
    "integrand, d", [("asian_call", 10**7), ("smooth_product", 10**8)]
)
def test_plain_mc_dimension_beyond_table_fails_first(tmp_path, capsys, integrand, d):
    # a d x d path factor ran out of memory, and a catalog integrand drew
    # 10^8-column points for a minute: both are refused before either
    cfg = write_config(tmp_path, f"integrand {integrand}\nsampler plain_mc\nd {d}\n")
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: dimension {d} exceeds the bundled direction-number table (max 64)\n"
    )


def test_price_replications_capped(capsys):
    for size, cap in (
        (("-n", "64", "-R", "100000000"), "2^16 replicates"),
        (("-n", "1", "-R", str(2**16 + 1)), "2^16 replicates"),
        (("-n", str(2**20), "-R", "128"), "2^26 points"),
    ):
        code, out, err = run(capsys, "price", "--payoff", "asian_call", *size)
        assert code == 2, size
        assert out == ""
        assert err.startswith("error: at most " + cap), err


@pytest.mark.parametrize(
    "text, message",
    [
        ("integrand = halfspace\nR =\n", "{cfg}:2: expected `key = value`"),
        # an empty grid would otherwise reach the capacity check
        ("integrand = halfspace\nn_min = 1024\nn_max = 64\n", "n_max must be >= n_min"),
        ("integrand = halfspace\nn_min = 100\n", "sample sizes must be powers of 2, got 100"),
        ("integrand = halfspace\nn_max = 0\n", "sample sizes must be powers of 2, got 0"),
        (
            "integrand = halfspace\nn_min = 64\nn_max = 256\n",
            "rate fit needs >= 4 usable records, but n_grid has 3 sizes",
        ),
    ],
)
def test_rate_study_config_contract_errors(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    code, out, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err == "error: " + message.format(cfg=cfg) + "\n"


def test_errors_defines_only_the_two_refusals():
    # main turns a ValueError into exit 2; each refusal is one of these two,
    # told apart from its siblings by its message, not by a type of its own
    defined = {
        name
        for name, obj in vars(rqmc.errors).items()
        if isinstance(obj, type)
        and issubclass(obj, BaseException)
        and obj.__module__ == "rqmc.errors"
    }
    assert defined == {"ContractError", "CapacityError"}
    assert issubclass(ContractError, ValueError) and issubclass(CapacityError, ValueError)


def test_price_n_meets_the_study_size_rule(capsys):
    # the message names the value, not a field `price` has no flag for
    code, out, err = run(capsys, "price", "--payoff", "asian_call", "-n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: sample sizes must be powers of 2, got 3\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_bad_seed_is_refused_before_the_net(tmp_path, capsys, monkeypatch, seed):
    def no_net(*args):
        raise AssertionError("the net was built")

    monkeypatch.setattr(rqmc.cli, "generate_net", no_net)
    monkeypatch.setattr(rqmc.experiment, "generate_net", no_net)
    monkeypatch.setattr(rqmc.finance, "path_factor", no_net)
    in_file = tmp_path / "seed.cfg"
    in_file.write_text(f"integrand = halfspace\nseed = {seed}\n")
    for argv in (
        ("price", "--payoff", "asian_call", "-n", "64", "-R", "8", "--seed", seed),
        ("rate-study", "--config", str(in_file)),
        ("rate-study", "--config", write_config(tmp_path, HALFSPACE_CFG), "--seed", seed),
        ("points", "-m", "2", "-d", "1", "--scramble", "--seed", seed),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: master_seed must fit in 64 bits\n", argv


def test_points_without_scramble_ignore_the_seed(capsys):
    code, out, err = run(capsys, "points", "-m", "2", "-d", "1", "--seed", "-1")
    assert code == 0
    assert err == ""
    assert parse_points(out)[:, 0].tolist() == [0.0, 0.5, 0.25, 0.75]
