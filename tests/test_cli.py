"""End-to-end command-line behavior, run in process."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqmc.cli
from rqmc.cli import main
from rqmc.digital_nets import radical_inverse
from rqmc.finance import GbmModel, geometric_asian_price


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
    target = tmp_path / "pts.txt"
    code, out, _ = run(capsys, "points", "-m", "2", "-d", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert parse_points(target.read_text()).shape == (4, 2)


def test_points_capacity_limits(capsys):
    code, _, err = run(capsys, "points", "-m", "21", "-d", "2")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "points", "-m", "4", "-d", "65")
    assert code == 2


# ---------------------------------------------------------------- verify-net


def test_verify_roundtrip_passes(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "4", "-d", "2", "--out", str(f))
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0", "-m", "4")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_scrambled_net_passes(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "6", "-d", "3", "--scramble", "--seed", "3", "--out", str(f))
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "1", "-m", "6")
    assert code == 0
    assert "PASS" in out


def test_verify_identical_points_fail(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0.3 0.4\n" * 4)
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0", "-m", "2")
    assert code == 1
    assert out.startswith("FAIL")
    assert "digit counts" in out
    assert "expected 1" in out


def test_verify_wrong_row_count(tmp_path, capsys):
    f = tmp_path / "short.txt"
    f.write_text("0.1 0.2\n0.3 0.4\n0.5 0.6\n")
    code, _, err = run(capsys, "verify-net", str(f), "-t", "0", "-m", "2")
    assert code == 2
    assert "expected 4 points" in err


def test_verify_garbage_and_missing_files(tmp_path, capsys):
    f = tmp_path / "junk.txt"
    f.write_text("not a number\n")
    code, _, err = run(capsys, "verify-net", str(f), "-t", "0", "-m", "0")
    assert code == 2
    code, _, err = run(capsys, "verify-net", str(tmp_path / "absent.txt"), "-t", "0", "-m", "0")
    assert code == 2


def test_verify_base3(tmp_path, capsys):
    f = tmp_path / "b3.txt"
    rows = [f"{i / 9} {radical_inverse(i, 3)}" for i in range(9)]
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "verify-net", str(f), "-t", "0", "-m", "2", "-b", "3")
    assert code == 0
    assert "base 3" in out


def test_verify_dimension_flag_mismatch(tmp_path, capsys):
    f = tmp_path / "net.txt"
    run(capsys, "points", "-m", "2", "-d", "2", "--out", str(f))
    code, _, err = run(capsys, "verify-net", str(f), "-t", "0", "-m", "2", "-d", "3")
    assert code == 2


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
    code, out, _ = run(capsys, "rate-study", "--config", cfg, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "consistent"
    assert obj["config"]["integrand"] == "halfspace"
    assert obj["config"]["n_grid"] == [64, 128, 256, 512, 1024]


def test_rate_study_inconsistent_exit_code(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "integrand = halfspace\nsampler = plain_mc\nd_u = 1\n"
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


def test_rate_study_infeasible_growth(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "integrand = axis_singular\nmaxA = 1.2\nn_min = 64\nn_max = 1024\nR = 8\n"
    )
    code, _, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert "error:" in err
    # non-finite growth or slack must not reach the report as NaN/Infinity
    for line in ("maxA = nan", "slack = nan", "slack = inf"):
        cfg = write_config(
            tmp_path, f"integrand = axis_singular\n{line}\nn_min = 64\nn_max = 1024\nR = 8\n"
        )
        code, out, err = run(capsys, "rate-study", "--config", cfg, "--format", "json")
        assert code == 2, line
        assert out == ""
        assert "error:" in err


def test_rate_study_unused_keys_rejected(tmp_path, capsys):
    cases = [
        ("integrand = halfspace\nn_maxx = 4096\nR = 8\n", "n_maxx"),
        (
            "integrand = geometric_ot\nfactor = cholesky\nn_min = 64\nn_max = 1024\nR = 8\n",
            "factor",
        ),
    ]
    for text, key in cases:
        code, out, err = run(
            capsys, "rate-study", "--config", write_config(tmp_path, text),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert key in err


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


def test_rate_study_payoff_requires_reference(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "integrand = asian_call\nn_min = 64\nn_max = 1024\nR = 8\n"
    )
    code, _, err = run(capsys, "rate-study", "--config", cfg)
    assert code == 2
    assert "reference" in err


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


def test_cli_import_skips_unused_modules():
    # the package re-exports nothing, so a command loads only what it uses
    src = str(Path(rqmc.cli.__file__).resolve().parents[1])
    code = (
        "import sys, rqmc.cli; "
        "print('rqmc.experiment' in sys.modules, 'rqmc.singularity' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split() == ["True", "False"]


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
