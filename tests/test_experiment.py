"""Replicated error measurement, rate fitting, and the integrand catalog."""

import hashlib
import json
import math

import mpmath
import numpy as np
import pytest

from rqmc import experiment as ex
from rqmc.errors import ContractError, InfeasibleRegimeError, InsufficientDataError
from rqmc.experiment import (
    CATALOG,
    CATALOG_NAMES,
    DEFAULT_N_GRID,
    STANDARD_MODEL,
    CatalogEntry,
    ErrorRecord,
    StudyConfig,
    catalog_config,
    expected_abs_error,
    fit_rate,
    replicate_estimates,
    report_to_csv,
    report_to_json,
    run_study,
    theoretical_exponent,
)
from rqmc.finance import GbmModel, PayoffSpec, geometric_asian_price

SMALL_GRID = (64, 128, 256, 512, 1024)


@pytest.fixture
def add_entry():
    added = []

    def _add(entry: CatalogEntry):
        CATALOG[entry.name] = entry
        added.append(entry.name)
        return entry.name

    yield _add
    for name in added:
        del CATALOG[name]


# ---------------------------------------------------------------- exponent


def test_theoretical_exponent_values():
    assert theoretical_exponent(2, 2, 0.0) == pytest.approx(2.0 / 3.0)
    assert theoretical_exponent(4, 1, 0.0) == pytest.approx(1.0)
    assert theoretical_exponent(2, 2, 0.5) == pytest.approx(1.0 / 3.0)
    assert theoretical_exponent(4, 4, 0.1) == pytest.approx(0.9 * (0.5 + 1 / 14))


def test_theoretical_exponent_contracts():
    with pytest.raises(ContractError):
        theoretical_exponent(2, 0, 0.0)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 3, 0.0)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 1, -0.1)
    with pytest.raises(InfeasibleRegimeError):
        theoretical_exponent(2, 1, 1.0)
    with pytest.raises(InfeasibleRegimeError):
        theoretical_exponent(2, 1, 1.2)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 1, math.nan)


# ---------------------------------------------------------------- config


def base_config(**overrides) -> StudyConfig:
    kw = dict(
        integrand="halfspace",
        dimension=2,
        irregular_dimension=2,
        max_growth=0.0,
        reference_value=0.5,
        n_grid=SMALL_GRID,
        replications=8,
    )
    kw.update(overrides)
    return StudyConfig(**kw)


def test_config_validation():
    with pytest.raises(ContractError):
        base_config(n_grid=(64, 100))
    with pytest.raises(ContractError):
        base_config(n_grid=(256, 128))
    with pytest.raises(ContractError):
        base_config(n_grid=())
    with pytest.raises(ContractError):
        base_config(replications=4)
    with pytest.raises(ContractError):
        base_config(sampler="latin_hypercube")
    with pytest.raises(ContractError):
        base_config(irregular_dimension=3)
    with pytest.raises(ContractError):
        base_config(slack=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            base_config(slack=bad)
        with pytest.raises(ContractError):
            base_config(max_growth=bad)
    with pytest.raises(ContractError):
        base_config(reference_value="exact")
    with pytest.raises(ContractError):
        base_config(reference_value=math.nan)


def test_integrand_name():
    assert base_config().integrand_name == "halfspace"
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
    cfg = StudyConfig(
        integrand=spec,
        dimension=4,
        irregular_dimension=1,
        max_growth=0.0,
        reference_value="oracle:geometric_asian",
        n_grid=SMALL_GRID,
        replications=8,
        factor_method="ot",
    )
    assert cfg.integrand_name == "geometric_indicator_payoff[ot]"


# ---------------------------------------------------------------- records & estimates


def test_error_record_statistics():
    rec = ErrorRecord(n=64, reference=1.0, estimates=(1.5, 0.75, 1.0, 1.25))
    assert rec.replications == 4
    assert rec.abs_errors.tolist() == [0.5, 0.25, 0.0, 0.25]
    assert rec.mean_abs_error == pytest.approx(0.25)
    expect_se = np.std([0.5, 0.25, 0.0, 0.25], ddof=1) / 2.0
    assert rec.std_error == pytest.approx(expect_se)


def test_replicates_deterministic_and_worker_invariant():
    cfg = base_config(master_seed=3)
    a = replicate_estimates(cfg, 256)
    b = replicate_estimates(cfg, 256)
    assert np.array_equal(a, b)


def test_replicates_change_with_seed_and_n():
    a = replicate_estimates(base_config(master_seed=0), 256)
    b = replicate_estimates(base_config(master_seed=1), 256)
    assert not np.array_equal(a, b)


def test_constant_integrand_has_zero_error(add_entry):
    add_entry(
        CatalogEntry(
            name="const_one",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=lambda d: 1.0,
            factory=lambda d: (lambda u: np.ones(len(u))),
        )
    )
    cfg = base_config(integrand="const_one", reference_value=1.0)
    rec = expected_abs_error(cfg, 64)
    assert rec.mean_abs_error == 0.0
    assert rec.reference == 1.0
    with pytest.raises(InsufficientDataError):
        fit_rate([expected_abs_error(cfg, n) for n in SMALL_GRID])


def test_linear_integrand_qmc_beats_mc(add_entry):
    add_entry(
        CatalogEntry(
            name="linear_first",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=lambda d: 0.5,
            factory=lambda d: (lambda u: u[:, 0].copy()),
        )
    )
    qmc = expected_abs_error(
        base_config(integrand="linear_first", reference_value=0.5), 1024
    )
    mc = expected_abs_error(
        base_config(integrand="linear_first", reference_value=0.5, sampler="plain_mc"),
        1024,
    )
    assert qmc.mean_abs_error < 1e-3
    assert mc.mean_abs_error > 1e-3
    assert qmc.mean_abs_error < mc.mean_abs_error / 10


def test_plain_mc_error_matches_half_normal_law():
    # indicator with variance 1/4: E|err| = 0.5 sqrt(2/(pi n))
    n = 1024
    cfg = base_config(sampler="plain_mc", replications=32, master_seed=5)
    rec = expected_abs_error(cfg, n)
    expect = 0.5 * math.sqrt(2.0 / (math.pi * n))
    assert expect / 2 < rec.mean_abs_error < expect * 2


def test_nonfinite_integrand_reported(add_entry):
    add_entry(
        CatalogEntry(
            name="blows_up",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=lambda d: 0.0,
            factory=lambda d: (lambda u: np.full(len(u), np.inf)),
        )
    )
    cfg = base_config(integrand="blows_up", reference_value=0.0)
    with pytest.raises(ContractError, match="non-finite"):
        replicate_estimates(cfg, 64)


def test_unknown_integrand_rejected():
    with pytest.raises(ContractError):
        replicate_estimates(base_config(integrand="mystery"), 64)


def test_estimator_is_unbiased_mini():
    cfg = base_config(replications=64, master_seed=11)
    rec = expected_abs_error(cfg, 64)
    est = np.array(rec.estimates)
    se_mean = est.std(ddof=1) / math.sqrt(len(est))
    assert abs(est.mean() - 0.5) < 4 * se_mean


# ---------------------------------------------------------------- rate fitting


def synth_records(ns, errs):
    return [ErrorRecord(n=n, reference=0.0, estimates=(e,) * 8) for n, e in zip(ns, errs)]


def test_fit_exact_power_law():
    ns = [2**k for k in range(6, 12)]
    fit = fit_rate(synth_records(ns, [1.0 / n for n in ns]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.n_range == (64, 2048)
    assert fit.excluded_n == ()


def test_fit_constant_error():
    ns = [2**k for k in range(6, 10)]
    fit = fit_rate(synth_records(ns, [0.25] * 4))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero residuals around a flat line


def test_fit_noisy_two_thirds_rate():
    ns = [2**k for k in range(6, 12)]
    jitter = [1.05, 0.95, 1.02, 0.90, 1.08, 1.00]
    errs = [j * n ** (-2.0 / 3.0) for j, n in zip(jitter, ns)]
    fit = fit_rate(synth_records(ns, errs))
    assert -0.70 <= fit.slope <= -0.63
    assert fit.r_squared > 0.99


def test_fit_excludes_zero_error_records():
    ns = [64, 128, 256, 512, 1024]
    errs = [1e-2, 0.0, 1e-3, 1e-4, 1e-5]
    fit = fit_rate(synth_records(ns, errs))
    assert fit.excluded_n == (128,)
    assert fit.n_range == (64, 1024)


def test_fit_requires_four_usable_records():
    ns = [64, 128, 256]
    with pytest.raises(InsufficientDataError):
        fit_rate(synth_records(ns, [1e-2, 1e-3, 1e-4]))
    with pytest.raises(InsufficientDataError):
        fit_rate(synth_records([64] * 5, [0.0] * 5))


def test_fit_records_theoretical_exponent():
    ns = [2**k for k in range(6, 10)]
    fit = fit_rate(synth_records(ns, [1.0 / n for n in ns]), theoretical_exponent=0.75)
    assert fit.theoretical_exponent == 0.75


# ---------------------------------------------------------------- studies


def test_run_study_consistent_halfspace():
    report = run_study(base_config(master_seed=1))
    assert report.exponent == pytest.approx(2.0 / 3.0)
    assert report.fit.theoretical_exponent == pytest.approx(2.0 / 3.0)
    assert len(report.records) == len(SMALL_GRID)
    assert report.verdict == "consistent"
    assert report.consistent
    assert report.fit.slope <= -2.0 / 3.0 + report.config.slack


def test_run_study_flags_wrong_claim():
    # plain Monte Carlo cannot meet an exponent-1 claim
    cfg = base_config(sampler="plain_mc", irregular_dimension=1, master_seed=2)
    report = run_study(cfg)
    assert report.exponent == pytest.approx(1.0)
    assert not report.consistent
    assert report.verdict == "inconsistent"


def test_report_csv_schema():
    report = run_study(base_config(master_seed=4))
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "integrand,sampler,n,R,mean_abs_error,std_error"
    assert len(lines) == 1 + len(SMALL_GRID)
    first = lines[1].split(",")
    assert first[0] == "halfspace"
    assert first[1] == "scrambled_net"
    assert int(first[2]) == 64
    assert int(first[3]) == 8
    float(first[4]), float(first[5])  # parse cleanly


def test_report_json_schema_and_roundtrip():
    report = run_study(base_config(master_seed=4))
    obj = json.loads(report_to_json(report))
    assert obj["config"]["integrand"] == "halfspace"
    assert obj["config"]["n_grid"] == list(SMALL_GRID)
    assert obj["theoretical_exponent"] == pytest.approx(2.0 / 3.0)
    assert obj["verdict"] in ("consistent", "inconsistent")
    assert len(obj["records"]) == len(SMALL_GRID)
    rec = obj["records"][0]
    assert set(rec) == {"n", "R", "mean_abs_error", "std_error", "abs_errors"}
    assert len(rec["abs_errors"]) == 8
    assert obj["fit"]["slope"] == pytest.approx(report.fit.slope)
    assert obj["reference"] == 0.5


def test_payoff_study_json_echoes_model():
    cfg = catalog_config("geometric_ot", n_grid=SMALL_GRID, replications=8)
    report = run_study(cfg)
    obj = json.loads(report_to_json(report))
    assert obj["config"]["integrand"] == "geometric_indicator_payoff[ot]"
    assert obj["config"]["model"] == {
        "s0": 1.0, "r": 0.05, "sigma": 0.2, "T": 1.0, "d": 4, "K": 1.0,
    }
    assert obj["reference"] == pytest.approx(geometric_asian_price(STANDARD_MODEL))


@pytest.mark.parametrize(
    "cfg",
    [
        catalog_config("axis_singular", n_grid=SMALL_GRID, replications=8, master_seed=2),
        catalog_config("halfspace", n_grid=SMALL_GRID, replications=8, sampler="plain_mc"),
        catalog_config("geometric_ot", n_grid=SMALL_GRID, replications=8, master_seed=5),
    ],
    ids=["axis_singular", "plain_mc", "geometric_ot"],
)
def test_study_estimates_equal_separate_runs_at_each_n(cfg):
    # A study draws each replicate once at the largest n; the prefix
    # estimate must equal a separate run at each smaller n.
    report = run_study(cfg)
    for n, rec in zip(cfg.n_grid, report.records):
        assert rec.n == n
        assert rec.estimates == tuple(replicate_estimates(cfg, n))


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


def test_golden_report_bytes():
    assert {name for name, _ in GOLDEN_REPORTS} == set(CATALOG_NAMES)
    for (name, sampler), digest in GOLDEN_REPORTS.items():
        cfg = catalog_config(name, n_grid=SMALL_GRID, replications=8, sampler=sampler)
        text = report_to_json(run_study(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, sampler)


def test_error_shrinks_with_n():
    for name in ("smooth_product", "halfspace"):
        cfg = catalog_config(name, n_grid=(64, 4096), replications=16, master_seed=6)
        small = expected_abs_error(cfg, 64)
        large = expected_abs_error(cfg, 4096)
        assert large.mean_abs_error < small.mean_abs_error, name


# ---------------------------------------------------------------- catalog


def test_catalog_names_cover_all_regimes():
    assert set(CATALOG_NAMES) == {
        "smooth_product",
        "halfspace",
        "axis_box",
        "axis_singular",
        "corner_singular",
        "geometric_ot",
        "geometric_cholesky",
    }


def test_catalog_config_defaults():
    cfg = catalog_config("axis_singular")
    assert cfg.integrand == "axis_singular"
    assert cfg.dimension == 2
    assert cfg.irregular_dimension == 1
    assert cfg.max_growth == 0.1
    assert cfg.n_grid == DEFAULT_N_GRID

    ot = catalog_config("geometric_ot")
    assert isinstance(ot.integrand, PayoffSpec)
    assert ot.irregular_dimension == 1
    assert ot.factor_method == "ot"
    assert ot.reference_value == "oracle:geometric_asian"

    chol = catalog_config("geometric_cholesky")
    assert chol.irregular_dimension == STANDARD_MODEL.d
    assert chol.factor_method == "cholesky"


def test_study_config_works_out_implied_fields():
    # a catalog entry: its own d_u, maxA and reference, at its dimension
    cfg = StudyConfig("corner_singular")
    assert (cfg.dimension, cfg.irregular_dimension, cfg.max_growth) == (2, 2, 0.4)
    assert cfg.reference_value == CATALOG["corner_singular"].reference(2)
    assert StudyConfig("smooth_product", dimension=5).dimension == 5
    # a payoff: d from the model, d_u by factor, maxA = 0
    model = GbmModel(1.0, 0.05, 0.2, 1.0, 6, 1.0)
    ot = StudyConfig(PayoffSpec("geometric_indicator_payoff", model))
    assert (ot.dimension, ot.irregular_dimension, ot.max_growth) == (6, 1, 0.0)
    assert ot.reference_value == "oracle:geometric_asian"
    chol = StudyConfig(
        PayoffSpec("asian_call", model),
        n_grid=SMALL_GRID,
        replications=8,
        factor_method="cholesky",
    )
    assert chol.irregular_dimension == 6
    assert chol.reference_value is None
    # a value the caller gives wins over the implied one
    assert StudyConfig("halfspace", irregular_dimension=1).irregular_dimension == 1
    with pytest.raises(ContractError, match="unknown integrand"):
        StudyConfig("no_such_integrand")
    # an arithmetic payoff has no oracle: the study fails before any work
    with pytest.raises(ContractError, match="no oracle for payoff 'asian_call'"):
        run_study(chol)


def test_catalog_config_overrides_and_errors():
    cfg = catalog_config("smooth_product", dimension=5, master_seed=17)
    assert cfg.dimension == 5
    assert cfg.master_seed == 17
    with pytest.raises(ContractError):
        catalog_config("unknown_integrand")
    fixed = catalog_config("halfspace", dimension=3)
    with pytest.raises(ContractError):
        replicate_estimates(fixed, 64)  # entry is defined for d=2 only


def test_oracle_reference_requires_geometric_payoff():
    cfg = StudyConfig(
        integrand=PayoffSpec("asian_call", STANDARD_MODEL),
        dimension=4,
        irregular_dimension=1,
        max_growth=0.0,
        reference_value="oracle:geometric_asian",
        n_grid=SMALL_GRID,
        replications=8,
    )
    with pytest.raises(ContractError):
        expected_abs_error(cfg, 64)
    with pytest.raises(ContractError):
        expected_abs_error(base_config(reference_value="oracle:unknown"), 64)


def test_catalog_reference_values_against_quadrature():
    mpmath.mp.dps = 30
    # axis_box: product of two 1-d integrals
    box = float(
        mpmath.quad(lambda u: u**-0.1, [0, 0.5]) * mpmath.quad(lambda u: u**-0.1, [0, 0.75])
    )
    assert CATALOG["axis_box"].reference(2) == pytest.approx(box, rel=1e-12)
    # axis_singular
    cut = float(
        mpmath.quad(lambda u: u**-0.1, [mpmath.mpf(1) / 3, 1])
        * mpmath.quad(lambda u: u**-0.1, [0, 1])
    )
    assert CATALOG["axis_singular"].reference(2) == pytest.approx(cut, rel=1e-12)
    # corner_singular: integrate the inner closed form over the outer axis
    corner = float(
        mpmath.quad(
            lambda u: u**-0.4 * mpmath.mpf(min(1.0, float(1.5 - u))) ** 0.6 / 0.6,
            [0, 0.5, 1],
        )
    )
    assert CATALOG["corner_singular"].reference(2) == pytest.approx(corner, rel=1e-10)
    # smooth_product integrates to 1 in any dimension
    smooth = float(mpmath.quad(lambda u: (1 + u) / 1.5, [0, 1]))
    assert CATALOG["smooth_product"].reference(3) == pytest.approx(smooth**1, rel=1e-12)


def test_catalog_factories_match_descriptions():
    u = np.array([[0.25, 0.5], [0.75, 0.8]])
    assert CATALOG["halfspace"].build(2)(u).tolist() == [1.0, 0.0]
    box = CATALOG["axis_box"].build(2)(u)
    assert box[0] == pytest.approx((0.25 * 0.5) ** -0.1)
    assert box[1] == 0.0
    axis = CATALOG["axis_singular"].build(2)(u)
    assert axis[0] == 0.0  # u1 = 0.25 <= 1/3
    assert axis[1] == pytest.approx((0.75 * 0.8) ** -0.1)
    corner = CATALOG["corner_singular"].build(2)(u)
    assert corner[0] == pytest.approx((0.25 * 0.5) ** -0.4)
    assert corner[1] == 0.0  # 0.75 + 0.8 >= 1.5
    smooth = CATALOG["smooth_product"].build(2)(u)
    assert smooth[0] == pytest.approx(1.25 * 1.5 / 2.25)
