"""GBM paths, factorizations, payoff estimators, and the geometric reference."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc.digital_nets import generate_points
from rqmc.errors import ContractError, NotPositiveDefiniteError
from rqmc.finance import (
    PAYOFF_KINDS,
    GbmModel,
    PathFactor,
    PayoffSpec,
    cholesky_factor,
    covariance,
    generate_path,
    geometric_asian_price,
    geometric_threshold,
    geometric_weight,
    inv_norm_cdf,
    ot_factor,
    path_factor,
    payoff_eval,
)
from rqmc.scrambling import ScrambleSeed, scramble, uniform_points

MODEL = GbmModel(s0=1.0, r=0.05, sigma=0.2, maturity=1.0, d=4, strike=1.0)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------- model & covariance


def test_model_validation():
    with pytest.raises(ContractError):
        GbmModel(0.0, 0.05, 0.2, 1.0, 4, 1.0)
    with pytest.raises(ContractError):
        GbmModel(1.0, 0.05, -0.1, 1.0, 4, 1.0)
    with pytest.raises(ContractError):
        GbmModel(1.0, 0.05, 0.2, 0.0, 4, 1.0)
    with pytest.raises(ContractError):
        GbmModel(1.0, 0.05, 0.2, 1.0, 0, 1.0)
    with pytest.raises(ContractError):
        GbmModel(1.0, 0.05, 0.2, 1.0, 4, -1.0)
    fields = ("s0", "r", "sigma", "maturity", "d", "strike")
    good = dict(zip(fields, (1.0, 0.05, 0.2, 1.0, 4, 1.0)))
    for field in ("s0", "r", "sigma", "maturity", "strike"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ContractError, match=f"{field} must be finite"):
                GbmModel(**{**good, field: bad})


def test_model_grid():
    assert MODEL.dt == 0.25
    assert MODEL.times.tolist() == [0.25, 0.5, 0.75, 1.0]


def test_covariance_values():
    m2 = GbmModel(1.0, 0.0, 0.2, 1.0, 2, 1.0)
    assert covariance(m2).tolist() == [[0.5, 0.5], [0.5, 1.0]]
    m1 = GbmModel(1.0, 0.0, 0.2, 2.0, 1, 1.0)
    assert covariance(m1).tolist() == [[2.0]]
    m3 = GbmModel(1.0, 0.0, 0.2, 3.0, 3, 1.0)
    assert np.all(np.linalg.eigvalsh(covariance(m3)) > 0)


# ---------------------------------------------------------------- cholesky


def test_cholesky_identity():
    assert np.array_equal(cholesky_factor(np.eye(3)), np.eye(3))


def test_cholesky_brownian_2d():
    a = cholesky_factor(np.array([[0.5, 0.5], [0.5, 1.0]]))
    expect = np.array([[math.sqrt(0.5), 0.0], [math.sqrt(0.5), math.sqrt(0.5)]])
    assert np.allclose(a, expect, atol=1e-15)


def test_cholesky_reports_failing_pivot():
    with pytest.raises(NotPositiveDefiniteError) as exc:
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert exc.value.pivot_index == 1
    assert exc.value.pivot_value == pytest.approx(-3.0)


def test_cholesky_rejects_asymmetric_and_nonsquare():
    with pytest.raises(ContractError):
        cholesky_factor(np.array([[1.0, 0.2], [0.1, 1.0]]))
    with pytest.raises(ContractError):
        cholesky_factor(np.ones((2, 3)))


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 6), st.integers(0, 10**6))
def test_cholesky_reconstructs_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    cov = x @ x.T + n * np.eye(n)
    a = cholesky_factor(cov)
    assert np.allclose(a @ a.T, cov, rtol=0, atol=1e-12 * cov.max())
    assert np.allclose(np.triu(a, 1), 0.0)
    assert np.all(np.diag(a) > 0)


def test_cholesky_64_dates():
    cov = covariance(GbmModel(1.0, 0.05, 0.2, 1.0, 64, 1.0))
    factor = PathFactor(cholesky_factor(cov), "cholesky")
    assert factor.reconstructs(cov)


# ---------------------------------------------------------------- ot factor


def test_ot_factor_1d_positive_weight_is_sqrt():
    cov = np.array([[2.0]])
    f = ot_factor(cov, np.array([1.0]))
    assert float(f.matrix[0, 0]) == pytest.approx(math.sqrt(2.0))


def test_ot_factor_coefficient_always_positive():
    cov = np.array([[2.0]])
    f = ot_factor(cov, np.array([-3.0]))
    assert (f.weight @ f.matrix)[0] > 0.0


def test_ot_factor_concentrates_functional():
    cov = covariance(GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0))
    w = geometric_weight(GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0))
    f = ot_factor(cov, w)
    wa = w @ f.matrix
    assert abs(wa[1]) < 1e-14
    assert wa[0] > 0.0
    assert f.reconstructs(cov)


def test_ot_factor_indicator_identity():
    # {w^T A z > c} must coincide with {|A0^T w| z_1 > c} pointwise
    model = GbmModel(1.0, 0.03, 0.3, 2.0, 5, 1.0)
    cov = covariance(model)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(5)
    f = ot_factor(cov, w)
    scale = np.linalg.norm(cholesky_factor(cov).T @ w)
    z = rng.standard_normal((1000, 5))
    c = 0.1
    lhs = (z @ f.matrix.T) @ w > c
    rhs = scale * z[:, 0] > c
    assert np.array_equal(lhs, rhs)
    assert lhs.any() and not lhs.all()


def test_ot_factor_rejects_zero_weight():
    with pytest.raises(ContractError):
        ot_factor(np.eye(2), np.zeros(2))


def test_path_factor_builders():
    chol = path_factor(MODEL, "cholesky")
    assert chol.method == "cholesky"
    assert np.allclose(np.triu(chol.matrix, 1), 0.0)
    ot = path_factor(MODEL, "ot")
    assert ot.method == "ot"
    assert ot.reconstructs(covariance(MODEL))
    with pytest.raises(ContractError):
        path_factor(MODEL, "pca")


def test_path_factor_sigma_zero_ot_degenerates_gracefully():
    flat = GbmModel(1.0, 0.05, 0.0, 1.0, 3, 1.0)
    f = path_factor(flat, "ot")
    assert f.reconstructs(covariance(flat))


def test_path_factor_validation():
    with pytest.raises(ContractError):
        PathFactor(np.eye(2), "ot")  # missing weight
    with pytest.raises(ContractError):
        PathFactor(np.eye(2), "ot", weight=np.array([1.0, 1.0]))  # not concentrated
    with pytest.raises(ContractError):
        PathFactor(np.eye(2), "pca")


# ---------------------------------------------------------------- normal quantile


def test_inv_norm_cdf_values():
    assert inv_norm_cdf(0.5) == 0.0
    # reference quantile computed with 40-digit arithmetic
    assert inv_norm_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


def test_inv_norm_cdf_antisymmetry():
    for p in (0.01, 0.2, 0.37, 0.499):
        assert inv_norm_cdf(p) == pytest.approx(-inv_norm_cdf(1.0 - p), abs=1e-12)


def test_inv_norm_cdf_residual_precision():
    ps = np.array([1e-10, 1e-6, 0.001, 0.3, 0.5, 0.7, 0.999, 1 - 1e-6, 1 - 1e-10])
    zs = inv_norm_cdf(ps)
    resid = np.abs([norm_cdf(z) - p for z, p in zip(zs, ps)])
    assert resid.max() <= 1e-12


def test_inv_norm_cdf_domain():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ContractError):
            inv_norm_cdf(bad)
    with pytest.raises(ContractError):
        inv_norm_cdf(np.array([0.5, 1.0]))


def test_inv_norm_cdf_derivative_bound_decays():
    # d/du inv_norm_cdf(u) * u^1.1 must decrease toward 0: the quantile's
    # boundary growth is milder than any positive exponent
    vals = []
    for k in range(4, 41):
        u = 2.0**-k
        z = inv_norm_cdf(u)
        deriv = math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
        vals.append(deriv * u**1.1)
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- paths


def test_generate_path_zero_vol_is_deterministic_drift():
    flat = GbmModel(1.0, 0.05, 0.0, 1.0, 3, 1.0)
    f = path_factor(flat, "cholesky")
    u = np.array([[0.1, 0.5, 0.9], [0.7, 0.2, 0.3]])
    s = generate_path(u, flat, f)
    expect = np.exp(0.05 * flat.times)
    assert s == pytest.approx(np.tile(expect, (2, 1)))


def test_generate_path_median_point():
    f = path_factor(MODEL, "cholesky")
    s = generate_path(np.full(4, 0.5), MODEL, f)
    expect = MODEL.s0 * np.exp((MODEL.r - 0.5 * MODEL.sigma**2) * MODEL.times)
    assert s == pytest.approx(expect)


def test_generate_path_scalar_batch_consistency():
    f = path_factor(MODEL, "ot")
    u = uniform_points(ScrambleSeed(4), 8, 4)
    batch = generate_path(u, MODEL, f)
    rows = np.array([generate_path(ui, MODEL, f) for ui in u])
    assert np.allclose(batch, rows, rtol=1e-14, atol=0.0)


def test_generate_path_terminal_martingale_moment():
    # E[S_T] = s0 e^{rT} under both factorizations
    u = uniform_points(ScrambleSeed(99), 10**6, 4)
    for method in ("cholesky", "ot"):
        s = generate_path(u, MODEL, path_factor(MODEL, method))
        mean = s[:, -1].mean()
        se = s[:, -1].std() / math.sqrt(len(s))
        assert abs(mean - math.exp(0.05)) < 4 * se, method


def test_generate_path_shape_contracts():
    f = path_factor(MODEL, "cholesky")
    with pytest.raises(ContractError):
        generate_path(np.full(3, 0.5), MODEL, f)
    other = path_factor(GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0), "cholesky")
    with pytest.raises(ContractError):
        generate_path(np.full(4, 0.5), MODEL, other)


# ---------------------------------------------------------------- payoffs


def test_payoff_kinds_registry():
    assert len(PAYOFF_KINDS) == 7
    assert "geometric_indicator_payoff" in PAYOFF_KINDS


def test_payoff_spec_validation():
    with pytest.raises(ContractError):
        PayoffSpec("asian_put", MODEL)
    flat = GbmModel(1.0, 0.05, 0.0, 1.0, 4, 1.0)
    for kind in ("asian_gamma", "asian_vega"):
        with pytest.raises(ContractError):
            PayoffSpec(kind, flat)
    PayoffSpec("asian_delta", flat)  # fine without dividing by sigma


def test_payoffs_vanish_when_indicator_off():
    m = GbmModel(1.0, 0.05, 0.2, 1.0, 2, strike=2.0)
    s = np.array([1.0, 1.4])  # mean 1.2 <= strike
    for kind in PAYOFF_KINDS:
        if kind == "geometric_indicator_payoff":
            continue
        assert payoff_eval(PayoffSpec(kind, m), s) == 0.0, kind
    assert payoff_eval(PayoffSpec("geometric_indicator_payoff", m), s) == 0.0


def test_payoff_hand_values():
    # model: s0=1, r=0.05, sigma=0.2, T=1, d=2, K=1; path (1.0, 1.4)
    m = GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0)
    s = np.array([1.0, 1.4])
    disc = math.exp(-0.05)
    sa = 1.2
    ln14 = math.log(1.4)

    call = payoff_eval(PayoffSpec("asian_call", m), s)
    assert call == pytest.approx(disc * 0.2)

    delta = payoff_eval(PayoffSpec("asian_delta", m), s)
    assert delta == pytest.approx(disc * 1.2)

    gamma = payoff_eval(PayoffSpec("asian_gamma", m), s)
    expect_gamma = disc * sa * (0.0 - (0.05 + 0.02) * 0.5) / (0.04 * 0.5)
    assert gamma == pytest.approx(expect_gamma)

    rho = payoff_eval(PayoffSpec("asian_rho", m), s)
    dsa_dr = (1.0 / 4.0) * (1.0 * 1 + 1.4 * 2)
    assert rho == pytest.approx(disc * (dsa_dr - 1.0 * 0.2))

    # theta = dV/dT, with dS_i/dT = S_i ((r - sigma^2/2) i/(2d) + ln(S_i/S0)/(2T))
    theta = payoff_eval(PayoffSpec("asian_theta", m), s)
    drift = 0.05 - 0.04 / 2
    dsa_dt = 0.5 * (
        1.0 * (drift * 1 / 4 + 0.0) + 1.4 * (drift * 2 / 4 + ln14 / 2)
    )
    assert theta == pytest.approx(disc * (dsa_dt - 0.05 * 0.2))

    vega = payoff_eval(PayoffSpec("asian_vega", m), s)
    dvega = 0.5 * (
        1.0 * (0.0 - 0.07 * 0.5) / 0.2 + 1.4 * (ln14 - 0.07 * 1.0) / 0.2
    )
    assert vega == pytest.approx(disc * dvega)


def test_greeks_match_bump_and_reprice():
    # Common random numbers: one scrambled net priced under bumped models.
    # The first-order estimators are the exact derivatives of the sample
    # price, so they match a small central bump closely; the gamma
    # estimator only matches in expectation.
    u = scramble(generate_points(range(2**15), MODEL.d), ScrambleSeed(3)).coords

    def mean_value(kind: str, model: GbmModel) -> float:
        paths = generate_path(u, model, path_factor(model, "ot"))
        return float(payoff_eval(PayoffSpec(kind, model), paths).mean())

    def price(**bump) -> float:
        return mean_value("asian_call", dataclasses.replace(MODEL, **bump))

    def central(field: str, h: float) -> float:
        x = getattr(MODEL, field)
        return (price(**{field: x + h}) - price(**{field: x - h})) / (2 * h)

    h = 1e-4
    for kind, field in [
        ("asian_delta", "s0"),
        ("asian_rho", "r"),
        ("asian_theta", "maturity"),
        ("asian_vega", "sigma"),
    ]:
        assert mean_value(kind, MODEL) == pytest.approx(central(field, h), rel=1e-3), kind

    hg = 1e-2
    gamma_bump = (price(s0=1.0 + hg) - 2 * price() + price(s0=1.0 - hg)) / hg**2
    assert mean_value("asian_gamma", MODEL) == pytest.approx(gamma_bump, rel=2e-2)


def test_geometric_payoff_values():
    m = GbmModel(1.0, 0.0, 0.2, 1.0, 2, 1.0)
    s = np.array([1.0, 4.0])  # geometric mean 2.0
    assert payoff_eval(PayoffSpec("geometric_indicator_payoff", m), s) == pytest.approx(1.0)


def test_payoff_batch_matches_scalar():
    u = uniform_points(ScrambleSeed(8), 64, 4)
    f = path_factor(MODEL, "cholesky")
    s = generate_path(u, MODEL, f)
    for kind in PAYOFF_KINDS:
        spec = PayoffSpec(kind, MODEL)
        batch = payoff_eval(spec, s)
        rows = np.array([payoff_eval(spec, si) for si in s])
        assert np.allclose(batch, rows, rtol=1e-13, atol=0.0), kind


def test_payoff_rejects_bad_paths():
    spec = PayoffSpec("asian_call", MODEL)
    with pytest.raises(ContractError):
        payoff_eval(spec, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ContractError):
        payoff_eval(spec, np.array([1.0, -1.0, 1.0, 1.0]))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(0.2, 5.0), min_size=4, max_size=4))
def test_call_payoff_bounds(prices):
    s = np.array(prices)
    spec = PayoffSpec("asian_call", MODEL)
    val = payoff_eval(spec, s)
    disc = math.exp(-MODEL.r * MODEL.maturity)
    assert 0.0 <= val <= disc * s.mean()


def test_delta_matches_finite_difference_of_price():
    # pathwise delta estimator == d(price)/d(s0), checked by bumping s0
    # with common random numbers
    n, h = 2**14, 0.02
    u = uniform_points(ScrambleSeed(21), n, 4)
    up = GbmModel(1.0 + h, 0.05, 0.2, 1.0, 4, 1.0)
    dn = GbmModel(1.0 - h, 0.05, 0.2, 1.0, 4, 1.0)
    delta = payoff_eval(
        PayoffSpec("asian_delta", MODEL),
        generate_path(u, MODEL, path_factor(MODEL, "cholesky")),
    ).mean()
    p_up = payoff_eval(
        PayoffSpec("asian_call", up), generate_path(u, up, path_factor(up, "cholesky"))
    ).mean()
    p_dn = payoff_eval(
        PayoffSpec("asian_call", dn), generate_path(u, dn, path_factor(dn, "cholesky"))
    ).mean()
    fd = (p_up - p_dn) / (2 * h)
    assert delta == pytest.approx(fd, abs=5e-3)


# ---------------------------------------------------------------- geometric reduction


def test_threshold_requires_ot():
    with pytest.raises(ContractError):
        geometric_threshold(MODEL, path_factor(MODEL, "cholesky"))


def test_threshold_limits():
    f = path_factor(MODEL, "ot")
    zero_k = GbmModel(1.0, 0.05, 0.2, 1.0, 4, strike=0.0)
    assert geometric_threshold(zero_k, path_factor(zero_k, "ot")) == 0.0
    high_k = GbmModel(1.0, 0.05, 0.2, 1.0, 4, strike=100.0)
    assert geometric_threshold(high_k, path_factor(high_k, "ot")) > 1.0 - 1e-12
    assert 0.0 < geometric_threshold(MODEL, f) < 1.0


def test_threshold_sigma_zero_degenerate():
    up = GbmModel(1.0, 0.05, 0.0, 1.0, 4, strike=0.5)  # sure payout
    assert geometric_threshold(up, path_factor(up, "ot")) == 0.0
    dn = GbmModel(1.0, 0.05, 0.0, 1.0, 4, strike=2.0)  # sure miss
    assert geometric_threshold(dn, path_factor(dn, "ot")) == 1.0


def test_threshold_single_date_closed_form():
    m = GbmModel(1.0, 0.05, 0.2, 1.0, 1, 1.1)
    kappa = geometric_threshold(m, path_factor(m, "ot"))
    expect = norm_cdf((math.log(1.1) - (0.05 - 0.02)) / 0.2)
    assert kappa == pytest.approx(expect, abs=1e-14)


def test_threshold_reduces_indicator_exactly():
    f = path_factor(MODEL, "ot")
    kappa = geometric_threshold(MODEL, f)
    u = uniform_points(ScrambleSeed(17), 10**4, 4)
    s = generate_path(u, MODEL, f)
    sg = np.exp(np.mean(np.log(s), axis=1))
    assert np.array_equal(sg > MODEL.strike, u[:, 0] > kappa)


def test_threshold_frequency_matches():
    f = path_factor(MODEL, "ot")
    kappa = geometric_threshold(MODEL, f)
    u = uniform_points(ScrambleSeed(18), 10**5, 4)
    s = generate_path(u, MODEL, f)
    freq = float(np.mean(np.exp(np.mean(np.log(s), axis=1)) > MODEL.strike))
    se = math.sqrt(kappa * (1 - kappa) / 10**5)
    assert abs(freq - (1.0 - kappa)) < 3 * se


# ---------------------------------------------------------------- geometric price


def test_geometric_price_zero_strike():
    m = GbmModel(1.0, 0.05, 0.2, 1.0, 4, strike=0.0)
    w = geometric_weight(m)
    sig2 = float(w @ covariance(m) @ w)
    mu = math.log(1.0) + (0.05 - 0.02) * (0.25 / 4) * 10
    expect = math.exp(-0.05) * math.exp(mu + sig2 / 2)
    assert geometric_asian_price(m) == pytest.approx(expect, rel=1e-14)


def test_geometric_price_sigma_zero_and_continuity():
    flat = GbmModel(1.0, 0.05, 0.0, 1.0, 4, 1.0)
    base = geometric_asian_price(flat)
    assert base == pytest.approx(
        math.exp(-0.05) * max(math.exp(0.05 * 0.625) - 1.0, 0.0)
    )
    tiny = GbmModel(1.0, 0.05, 1e-8, 1.0, 4, 1.0)
    assert geometric_asian_price(tiny) == pytest.approx(base, abs=1e-7)


def test_geometric_price_against_monte_carlo():
    exact = geometric_asian_price(MODEL)
    spec = PayoffSpec("geometric_indicator_payoff", MODEL)
    f = path_factor(MODEL, "cholesky")
    u = uniform_points(ScrambleSeed(123), 2**19, 4)
    vals = payoff_eval(spec, generate_path(u, MODEL, f))
    se = vals.std() / math.sqrt(len(vals))
    assert abs(vals.mean() - exact) < 3 * se


def test_factorizations_share_the_payoff_law():
    # A z has the same N(0, Sigma) law for both factors, so every payoff
    # mean must agree up to Monte Carlo error
    n = 2**18
    u = uniform_points(ScrambleSeed(31), n, 4)
    means = {}
    ses = {}
    for method in ("cholesky", "ot"):
        s = generate_path(u, MODEL, path_factor(MODEL, method))
        vals = payoff_eval(PayoffSpec("asian_call", MODEL), s)
        means[method] = vals.mean()
        ses[method] = vals.std() / math.sqrt(n)
    gap = abs(means["cholesky"] - means["ot"])
    combined = math.hypot(ses["cholesky"], ses["ot"])
    assert gap < 4 * combined
