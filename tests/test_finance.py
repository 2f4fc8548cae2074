"""GBM paths, factorizations, payoff estimators, and the geometric reference."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc import finance, scrambling
from rqmc.digital_nets import PointSet, generate_points
from rqmc.errors import ContractError
from rqmc.finance import (
    FACTOR_METHODS,
    PAYOFF_KINDS,
    GbmModel,
    PayoffSpec,
    check_concentrated,
    chunk_rows,
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
    payoff_integrand,
    reconstructs,
)
from rqmc.finance import _Z, _row_mean
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
    # a float d used to construct, and pricing it raised a TypeError
    with pytest.raises(ContractError, match="^d must be an integer, got 4.5$"):
        GbmModel(1.0, 0.05, 0.2, 1.0, 4.5, 1.0)
    assert type(GbmModel(1.0, 0.05, 0.2, 1.0, np.int64(4), 1.0).d) is int
    fields = ("s0", "r", "sigma", "maturity", "d", "strike")
    good = dict(zip(fields, (1.0, 0.05, 0.2, 1.0, 4, 1.0)))
    for field in ("s0", "r", "sigma", "maturity", "strike"):
        # a str, bool or list used to escape as a TypeError or be taken as
        # a number, and an int too large for a float as an OverflowError
        for bad in (math.nan, math.inf, -math.inf, "1", True, [1.0], 10**400):
            with pytest.raises(ContractError, match=f"{field} must be finite"):
                GbmModel(**{**good, field: bad})
    with pytest.raises(ContractError, match="^d must be an integer, got True$"):
        GbmModel(**{**good, "d": True})
    model = GbmModel(np.float32(1.0), 0, np.float64(0.2), 1, 4, np.int64(1))
    assert model == GbmModel(1.0, 0.0, 0.2, 1.0, 4, 1.0)
    assert all(type(getattr(model, f)) is float for f in fields if f != "d")


def test_model_refuses_sigma_whose_variance_overflows():
    # sigma^2 T is the variance of log S_T; generate_path squares sigma.
    # sigma = 1e154 priced until the model's domain bounded log S_T.
    GbmModel(1.0, 0.05, 12.0, 1.0, 4, 1.0)
    for sigma, maturity in ((1e154, 1.0), (2e154, 1.0), (1e155, 1e-300), (1e154, 1e10)):
        with pytest.raises(ContractError, match=re.escape(f"sigma={sigma},")):
            GbmModel(1.0, 0.05, sigma, maturity, 4, 1.0)


def _float_key(x: float) -> int:
    """An integer with the order of the floats."""
    bits = int(np.float64(x).view(np.int64))
    return bits if bits >= 0 else -(bits & (2**63 - 1))


def _key_float(key: int) -> float:
    return math.copysign(float(np.int64(abs(key)).view(np.float64)), key)


def _domain_edge(valid, inside: float, outside: float) -> tuple[float, float]:
    """The last float from ``inside`` toward ``outside`` that ``valid`` takes,
    and the next one, which it refuses: bisection in the floats' order."""
    lo, hi = _float_key(inside), _float_key(outside)
    assert valid(_key_float(lo)) and not valid(_key_float(hi))
    while abs(hi - lo) > 1:
        mid = lo + (hi - lo) // 2
        lo, hi = (mid, hi) if valid(_key_float(mid)) else (lo, mid)
    return _key_float(lo), _key_float(hi)


# the kinds with a floor on sigma sqrt(T): they divide log(S/S0) - (r + sigma^2/2) t
# by sigma.  Theta divides log(S/S0) by 2T, so its floor also counts the drift
# |r - sigma^2/2| T, and sigma = 0 is inside it at MODEL.
_SIGMA_FLOOR = ("asian_gamma", "asian_vega")
# each field of the model, and a value past each edge of the domain
_EDGES = [
    ("s0", 1.7e308),
    ("s0", 5e-324),
    ("r", 1.7e308),
    ("r", -1.7e308),
    ("sigma", 1.7e308),
    ("sigma", 0.0),  # the floor of the _SIGMA_FLOOR kinds only
    ("maturity", 1.7e308),
    ("maturity", 5e-324),
    ("strike", 1.7e308),
]


@pytest.mark.parametrize("factor", FACTOR_METHODS)
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_payoffs_are_finite_to_the_edge_of_the_domain(kind, factor):
    # every coordinate 2^-64, every one 1 - 2^-53, and both mixed: the
    # extreme quantiles, where the prices and values are largest
    lo, hi = 2.0**-64, 1.0 - 2.0**-53

    def spec(model, **changes):
        return PayoffSpec(kind, dataclasses.replace(model, **changes), factor)

    def valid(model, **changes) -> bool:
        try:
            spec(model, **changes)
        except ContractError:
            return False
        return True

    specs = []
    # from MODEL, whose paths end below the strike as often as above, and
    # from a zero strike, where every path pays
    for base in (MODEL, dataclasses.replace(MODEL, strike=0.0)):
        for field, outside in _EDGES:
            if field == "sigma" and outside == 0.0 and kind not in _SIGMA_FLOOR:
                specs.append(spec(base, sigma=0.0))  # the paths are the drift
                continue
            edge, past = _domain_edge(
                lambda x: valid(base, **{field: x}), getattr(base, field), outside
            )
            with pytest.raises(ContractError, match=re.escape(f"{field}={past}")):
                spec(base, **{field: past})
            specs.append(spec(base, **{field: edge}))
    # d = 64, the direction table's cap, at sigma's upper edge: one more
    # date is past it
    wide = dataclasses.replace(MODEL, d=64)
    sigma, _ = _domain_edge(lambda x: valid(wide, sigma=x), 0.2, 1.7e308)
    with pytest.raises(ContractError, match="d=65"):
        spec(wide, d=65, sigma=sigma)
    specs.append(spec(wide, sigma=sigma))

    for edge in specs:
        u = np.full((4, edge.model.d), lo)
        u[1] = hi
        u[2, ::2] = hi
        u[3, 1::2] = hi
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = payoff_integrand(edge)(u)
        assert np.all(np.abs(vals) < 2.0**472), (edge.model, vals)


def test_gamma_domain_counts_a_small_s0_once():
    # gamma's values scale as 1/s0, so a small s0 enters its log scale once:
    # its edge is the model's, moved by gamma's factor 1/(sigma^2 dt) alone.
    # s0 = 1e-60 was refused as a log scale of 424.2, 3 |log s0| and more
    model = dataclasses.replace(MODEL, strike=0.0)

    def valid(s0, kind="asian_call") -> bool:  # asian_call adds no factor
        try:
            PayoffSpec(kind, dataclasses.replace(model, s0=s0))
        except ContractError:
            return False
        return True

    model_edge, _ = _domain_edge(valid, 1.0, 5e-324)
    edge, past = _domain_edge(lambda s0: valid(s0, "asian_gamma"), 1e-60, 5e-324)
    log_factor = -2.0 * math.log(MODEL.sigma) - math.log(MODEL.dt)
    assert math.log(edge) == pytest.approx(math.log(model_edge) + log_factor, abs=1e-9)
    with pytest.raises(ContractError, match=re.escape(f"s0={past},")):
        PayoffSpec("asian_gamma", dataclasses.replace(model, s0=past))
    u = np.full((4, MODEL.d), 2.0**-64)
    u[1] = u[2, ::2] = u[3, 1::2] = 1.0 - 2.0**-53
    unit = payoff_integrand(PayoffSpec("asian_gamma", model))(u)
    for s0 in (1e-60, edge):
        spec = PayoffSpec("asian_gamma", dataclasses.replace(model, s0=s0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = payoff_integrand(spec)(u)
        # s0 * gamma is the gamma of the same model at s0 = 1, to rounding
        np.testing.assert_allclose(vals * s0, unit, rtol=1e-9)


def test_quantile_bound_covers_every_point_a_sampler_emits(monkeypatch):
    # the extreme images a scramble lets through: 64-digit integers 1 and
    # 2^64 - 2^10 - 1; 0 and 2^64 - 2^10 would be 0.0 and 1.0
    bits = np.array([1, 2**64 - 2**10 - 1], dtype=np.uint64)
    assert scrambling._edge_images(bits).size == 0
    edge = np.array([0, 2**64 - 2**10], dtype=np.uint64)
    assert scrambling._edge_images(edge).tolist() == [0, 1]
    scrambled = PointSet(bits[:, None], 64).coords[:, 0]
    assert scrambled.tolist() == [2.0**-64, 1.0 - 2.0**-53]

    def extreme_hashes(h, tmp):  # the plain-uniform points of hashes 0, 2^64 - 1
        h[:] = [0, 2**64 - 1]

    monkeypatch.setattr(scrambling, "_mix_into", extreme_hashes)
    plain = uniform_points(ScrambleSeed(0), 2, 1)[:, 0]
    assert plain.tolist() == [2.0**-53, 1.0 - 2.0**-53]
    z = inv_norm_cdf(np.concatenate([scrambled, plain]))
    assert z.min() >= -_Z and z.max() <= _Z
    assert z.min() < -9.08 and z.max() > 8.2


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
    with pytest.raises(
        ContractError, match="^matrix is not positive definite: pivot 1 has value -3$"
    ):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
    assert reconstructs(cholesky_factor(cov), cov)


# ---------------------------------------------------------------- ot factor


def test_ot_factor_1d_positive_weight_is_sqrt():
    cov = np.array([[2.0]])
    a = ot_factor(cov, np.array([1.0]))
    assert float(a[0, 0]) == pytest.approx(math.sqrt(2.0))


def test_ot_factor_coefficient_always_positive():
    cov = np.array([[2.0]])
    w = np.array([-3.0])
    assert (w @ ot_factor(cov, w))[0] > 0.0


def test_ot_factor_concentrates_functional():
    cov = covariance(GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0))
    w = geometric_weight(GbmModel(1.0, 0.05, 0.2, 1.0, 2, 1.0))
    a = ot_factor(cov, w)
    wa = w @ a
    assert abs(wa[1]) < 1e-14
    assert wa[0] > 0.0
    assert reconstructs(a, cov)


def test_ot_factor_indicator_identity():
    # {w^T A z > c} must coincide with {|A0^T w| z_1 > c} pointwise
    model = GbmModel(1.0, 0.03, 0.3, 2.0, 5, 1.0)
    cov = covariance(model)
    rng = np.random.default_rng(11)
    w = rng.standard_normal(5)
    a = ot_factor(cov, w)
    scale = np.linalg.norm(cholesky_factor(cov).T @ w)
    z = rng.standard_normal((1000, 5))
    c = 0.1
    lhs = (z @ a.T) @ w > c
    rhs = scale * z[:, 0] > c
    assert np.array_equal(lhs, rhs)
    assert lhs.any() and not lhs.all()


def test_ot_factor_rejects_zero_weight():
    with pytest.raises(ContractError):
        ot_factor(np.eye(2), np.zeros(2))


def test_path_factor_builders():
    chol = path_factor(MODEL, "cholesky")
    assert chol.shape == (4, 4)
    assert np.allclose(np.triu(chol, 1), 0.0)
    ot = path_factor(MODEL, "ot")
    assert ot.shape == (4, 4)
    check_concentrated(ot, geometric_weight(MODEL))
    assert reconstructs(ot, covariance(MODEL))
    with pytest.raises(ContractError):
        path_factor(MODEL, "pca")


def test_path_factor_sigma_zero_ot_degenerates_gracefully():
    flat = GbmModel(1.0, 0.05, 0.0, 1.0, 3, 1.0)
    f = path_factor(flat, "ot")
    assert reconstructs(f, covariance(flat))


@pytest.mark.parametrize("d", [1, 3, 4, 9, 64])
def test_ot_factor_of_the_scaled_weight_keeps_its_bits(d):
    # path_factor rotates for the geometric weight scaled by a power of
    # two, which is exact: A has the bits of the unscaled weight's factor
    for sigma in (0.01, 0.2, 0.37, 3.0):
        model = dataclasses.replace(MODEL, sigma=sigma, d=d)
        want = ot_factor(covariance(model), geometric_weight(model))
        assert path_factor(model, "ot").tobytes() == want.tobytes()


def test_ot_factor_takes_tiny_sigma_without_warnings():
    # unscaled, |A0^T w| underflowed at sigma = 1e-165: numpy warned, and
    # the factor failed to reconstruct the covariance
    for sigma in (1e-165, 1e-300, 5e-320):
        model = dataclasses.replace(MODEL, sigma=sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = path_factor(model, "ot")
        assert reconstructs(a, covariance(model))
        check_concentrated(a, np.ones(model.d))


def test_path_factor_validation(monkeypatch):
    with pytest.raises(ContractError, match="concentrate"):
        check_concentrated(np.eye(2), np.array([1.0, 1.0]))
    with pytest.raises(ContractError, match="unknown factor method 'pca'"):
        path_factor(MODEL, "pca")
    assert not reconstructs(np.eye(2), 2.0 * np.eye(2))
    # a factor that misses the covariance is refused by path_factor itself
    monkeypatch.setattr(finance, "cholesky_factor", lambda cov: np.eye(len(cov)))
    with pytest.raises(ContractError, match="failed to reconstruct"):
        path_factor(MODEL, "cholesky")


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
    for bad in (0.0, 1.0, -0.5, 1.5, np.nan):
        with pytest.raises(ContractError):
            inv_norm_cdf(bad)
    for bad in (1.0, np.nan):
        with pytest.raises(ContractError):
            inv_norm_cdf(np.array([0.5, bad]))


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


def test_generate_path_rejects_nan_point():
    u = np.array([[0.5, 0.5, 0.5, 0.5], [0.5, np.nan, 0.5, 0.5]])
    with pytest.raises(ContractError, match="strictly inside"):
        generate_path(u, MODEL, path_factor(MODEL, "cholesky"))


def test_generate_path_rejects_0d_points():
    model_d1 = GbmModel(1.0, 0.05, 0.2, 1.0, 1, 1.0)
    with pytest.raises(ContractError, match="1 coordinates"):
        generate_path(np.float64(0.5), model_d1, path_factor(model_d1, "ot"))


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


def test_payoff_spec_rejects_unknown_factor():
    assert PayoffSpec("asian_call", MODEL).factor == "ot"
    assert PayoffSpec("asian_call", MODEL, "cholesky").factor == "cholesky"
    with pytest.raises(ContractError, match="unknown factor method 'pca'"):
        PayoffSpec("asian_call", MODEL, "pca")


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


@pytest.mark.parametrize("factor", FACTOR_METHODS)
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_payoff_integrand_is_payoff_of_path(kind, factor):
    # two dgemm chunks of 14563 rows at d = 3 and a ragged third one; the
    # integrand must give the composed calls' bits, on this thread and on
    # a worker thread
    model = dataclasses.replace(MODEL, d=3)
    spec = PayoffSpec(kind, model, factor)
    u = uniform_points(ScrambleSeed(4), 2 * chunk_rows(3) + 5, 3)
    s = generate_path(u, model, path_factor(model, factor))
    u_bits, s_bits = u.tobytes(), s.tobytes()
    want = payoff_eval(spec, s)
    f = payoff_integrand(spec)
    assert f(u).tobytes() == want.tobytes()
    with ThreadPoolExecutor(1) as pool:
        assert pool.submit(f, u).result().tobytes() == want.tobytes()
    # neither modifies its argument, a (d,) row view into it included
    payoff_eval(spec, s[5])
    f(u[5])
    assert (u.tobytes(), s.tobytes()) == (u_bits, s_bits)


def test_payoff_integrand_loads_scipy_special_before_any_call():
    # the replicates that call f may run on a pool: the import happens at
    # the call that builds f, on the calling thread
    src = str(Path(finance.__file__).resolve().parents[1])
    code = """if True:
        import sys
        from rqmc.finance import GbmModel, PayoffSpec, payoff_integrand
        print("scipy.special" in sys.modules)
        model = GbmModel(1.0, 0.05, 0.2, 1.0, 4, 1.0)
        f = payoff_integrand(PayoffSpec("asian_call", model))
        print("scipy.special" in sys.modules)
    """
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split() == ["False", "True"]


def test_payoff_rejects_bad_paths():
    spec = PayoffSpec("asian_call", MODEL)
    with pytest.raises(ContractError):
        payoff_eval(spec, np.array([1.0, 1.0, 1.0]))
    for bad in (-1.0, np.nan):
        with pytest.raises(ContractError, match="prices must be positive"):
            payoff_eval(spec, np.array([1.0, bad, 1.0, 1.0]))


@pytest.mark.parametrize("shape", [(), (33,), (2, 3)])
def test_row_mean_is_np_mean_bit_for_bit(shape):
    # C order, Fortran order and a strided view: numpy's own order of
    # addition may follow the layout, _row_mean's must match it anyway
    rng = np.random.default_rng(len(shape))
    for d in range(1, 65):
        wide = (*shape, 2 * d)
        x = rng.standard_normal(wide) * 10.0 ** rng.integers(-6, 7, wide)
        neg_zero = np.full((*shape, d), -0.0)
        layouts = (x[..., :d].copy(), np.asfortranarray(x[..., :d]), x[..., ::2])
        for v in (*layouts, neg_zero):
            got = np.asarray(_row_mean(v))
            want = np.asarray(np.mean(v, axis=-1))
            assert got.shape == want.shape, d
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), d


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


def test_threshold_limits():
    zero_k = GbmModel(1.0, 0.05, 0.2, 1.0, 4, strike=0.0)
    assert geometric_threshold(zero_k) == 0.0
    high_k = GbmModel(1.0, 0.05, 0.2, 1.0, 4, strike=100.0)
    assert geometric_threshold(high_k) > 1.0 - 1e-12
    assert 0.0 < geometric_threshold(MODEL) < 1.0


def test_threshold_sigma_zero_degenerate():
    up = GbmModel(1.0, 0.05, 0.0, 1.0, 4, strike=0.5)  # sure payout
    assert geometric_threshold(up) == 0.0
    dn = GbmModel(1.0, 0.05, 0.0, 1.0, 4, strike=2.0)  # sure miss
    assert geometric_threshold(dn) == 1.0


def test_threshold_single_date_closed_form():
    m = GbmModel(1.0, 0.05, 0.2, 1.0, 1, 1.1)
    kappa = geometric_threshold(m)
    expect = norm_cdf((math.log(1.1) - (0.05 - 0.02)) / 0.2)
    assert kappa == pytest.approx(expect, abs=1e-14)


def test_threshold_reduces_indicator_exactly():
    f = path_factor(MODEL, "ot")
    kappa = geometric_threshold(MODEL)
    u = uniform_points(ScrambleSeed(17), 10**4, 4)
    s = generate_path(u, MODEL, f)
    sg = np.exp(np.mean(np.log(s), axis=1))
    assert np.array_equal(sg > MODEL.strike, u[:, 0] > kappa)


def test_threshold_frequency_matches():
    f = path_factor(MODEL, "ot")
    kappa = geometric_threshold(MODEL)
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
