"""Growth condition, its check on the catalog, and the 1-d extension laws."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rqmc.errors import CapacityError, ContractError
from rqmc.experiment import CATALOG
from rqmc.singularity import (
    GrowthSpec,
    _ladder_samples,
    _mixed_central_difference,
    approx_error_1d,
    check_growth,
    extension_1d,
    sup_extension_1d,
)


def product_partial(exponents, v, u):
    """d^v of g(u) = prod_i u_i^(-A_i), in closed form: each differentiated
    factor picks up -A_i u_i^(-A_i-1), so v = () is g itself."""
    return math.prod(
        -a * x ** (-a - 1.0) if i in v else x**-a
        for i, (a, x) in enumerate(zip(exponents, u))
    )

# ---------------------------------------------------------------- growth spec


def test_growth_spec_validation():
    with pytest.raises(ContractError):
        GrowthSpec(())
    with pytest.raises(ContractError):
        GrowthSpec((0.5, 0.0))
    with pytest.raises(ContractError):
        GrowthSpec((0.5,), constant=0.0)
    # a non-finite spec used to be taken, and check_growth then answered
    # "consistent" (max_ratio -inf under a NaN, 0.0 under an infinity); a
    # string used to be taken as its float
    for exponents, constant, field, bad in (
        ((math.nan,), 1.0, "exponents", "nan"),
        ((math.inf,), 1.0, "exponents", "inf"),
        (("0.5",), 1.0, "exponents", "'0.5'"),
        ((True,), 1.0, "exponents", "True"),
        ((0.5,), math.inf, "constant", "inf"),
        ((0.5,), math.nan, "constant", "nan"),
        ((0.5,), "2", "constant", "'2'"),
    ):
        with pytest.raises(
            ContractError, match=f"^{field} must be finite and real, got {bad}$"
        ):
            GrowthSpec(exponents, constant)
    with pytest.raises(ContractError, match="^exponents must be finite, got a number too"):
        GrowthSpec((0.5, 10**400))
    # a bare number used to escape as "TypeError: 'float' object is not
    # iterable"; a str, bytes or dict used to be iterated, naming the first
    # character, building (97.0, 98.0) from b"ab", taking the dict's keys, or
    # giving a set's exponents in hash order, not coordinate order
    for exponents in (0.5, "0.5", b"ab", bytearray(b"ab"), {0.5: 1}, {0.5, 0.7}):
        with pytest.raises(
            ContractError,
            match=f"^exponents must be a sequence of reals, got {re.escape(repr(exponents))}$",
        ):
            GrowthSpec(exponents)
    spec = GrowthSpec((np.float32(0.5), 1), np.int64(2))
    assert spec == GrowthSpec((0.5, 1.0), 2.0)
    assert all(type(x) is float for x in (*spec.exponents, spec.constant))


def test_growth_bound_values():
    spec = GrowthSpec((0.5,))
    u = np.array([0.25])
    assert spec.bound(u, ()) == pytest.approx(2.0)
    assert spec.bound(u, (0,)) == pytest.approx(8.0)
    assert GrowthSpec((0.5,), constant=2.0).bound(u, ()) == pytest.approx(4.0)
    # min(u, 1-u) symmetry
    assert spec.bound(np.array([0.75]), ()) == pytest.approx(2.0)


# ---------------------------------------------------------------- product family


def test_mixed_partial_closed_form_vs_finite_difference():
    a = (0.3, 0.6)
    u = np.array([0.4, 0.7])
    h = np.array([1e-5, 1e-5])
    for v in [(), (0,), (1,), (0, 1)]:
        fd = _mixed_central_difference(lambda z: product_partial(a, (), z), u, v, h)
        assert product_partial(a, v, u) == pytest.approx(fd, rel=1e-6)


@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_product_function_obeys_its_own_growth_spec(a1, a2, u1, u2):
    spec = GrowthSpec((a1, a2), 1.0)
    u = np.array([u1, u2])
    for v in [(), (0,), (1,), (0, 1)]:
        bound = spec.bound(u, v) * (1.0 + 1e-12)
        assert abs(product_partial((a1, a2), v, u)) <= bound


# ---------------------------------------------------------------- 1-d extension


def test_extension_1d_clamps():
    assert extension_1d(0.5, 0.25, 0.1) == pytest.approx(2.0)
    assert extension_1d(0.5, 0.05, 0.1) == pytest.approx(math.sqrt(10.0))
    assert extension_1d(0.5, 0.0, 0.1) == pytest.approx(0.1**-0.5)
    assert extension_1d(0.5, 0.98, 0.1) == pytest.approx(0.9**-0.5)
    assert extension_1d(0.5, 0.5, 0.1) == pytest.approx(math.sqrt(2.0))


def test_extension_1d_matches_g_on_region():
    A, eps = 0.3, 0.05
    for u in np.linspace(eps, 1.0 - eps, 41):
        assert extension_1d(A, u, eps) == u**-A


def test_extension_1d_validation():
    with pytest.raises(ContractError):
        extension_1d(1.0, 0.5, 0.1)
    with pytest.raises(ContractError):
        extension_1d(0.5, 0.5, 0.5)
    with pytest.raises(ContractError):
        extension_1d(0.5, 1.5, 0.1)


def test_sup_law_exact_on_dyadic_pairs():
    # for eps = 2^-k with k*A an integer, sup * eps^A is exactly 1.0
    for A, ks in ((0.25, (4, 8, 16, 40)), (0.5, (4, 6, 20)), (0.75, (4, 8, 32))):
        for k in ks:
            eps = 2.0**-k
            sup = sup_extension_1d(A, eps)
            assert sup * eps**A == 1.0, (A, k)
            assert extension_1d(A, 0.0, eps) == sup


def test_sup_attained_on_grid():
    A, eps = 0.6, 2.0**-7
    sup = sup_extension_1d(A, eps)
    grid = np.linspace(0.0, 1.0, 2001)
    vals = [extension_1d(A, u, eps) for u in grid]
    assert max(vals) <= sup * (1.0 + 1e-15)
    assert vals[0] == sup


def test_approx_error_against_quadrature():
    mpmath.mp.dps = 40
    for A, eps in ((0.3, 0.05), (0.7, 0.01), (0.5, 0.125)):
        low = mpmath.quad(lambda u: u**-A - eps**-A, [0, eps])
        high = mpmath.quad(
            lambda u: (1 - eps) ** -A - u**-A, [1 - eps, 1]
        )
        expect = float(low + high)
        assert approx_error_1d(A, eps) == pytest.approx(expect, rel=1e-10), (A, eps)


def test_approx_error_scaling_law():
    # err / eps^(1-A) -> A/(1-A) as eps -> 0
    A = 0.4
    ratio = approx_error_1d(A, 1e-9) / (1e-9) ** (1.0 - A)
    assert ratio == pytest.approx(A / (1.0 - A), rel=1e-4)
    # and the error shrinks monotonically with eps
    errs = [approx_error_1d(A, eps) for eps in (0.25, 0.1, 0.01, 1e-4)]
    assert errs == sorted(errs, reverse=True)


# ---------------------------------------------------------------- growth check


def test_central_difference_exact_for_bilinear():
    f = lambda z: float(z[0] * z[1])
    got = _mixed_central_difference(f, np.array([0.4, 0.6]), (0, 1), np.array([0.1, 0.05]))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_growth_check_linear_function_passes():
    res = check_growth(lambda u: float(u[0]), GrowthSpec((0.5, 0.5)), sample_count=96)
    assert res.consistent
    assert res.samples_tested == 96
    # a str or None used to escape as a TypeError from the fill loop, and 2.5
    # or True ran the ladder alone
    for bad in ("3", None, 2.5, True):
        with pytest.raises(
            ContractError, match=f"^sample_count must be an integer, got {bad!r}$"
        ):
            check_growth(lambda u: float(u[0]), GrowthSpec((0.5, 0.5)), sample_count=bad)


def test_growth_check_accepts_matching_exponent():
    # u^(-1/2) against its own exponent sits exactly on the bound along the
    # dyadic ladder (38 ladder points for d=1, so no random fill)
    res = check_growth(lambda u: float(u[0]) ** -0.5, GrowthSpec((0.5,)), sample_count=38)
    assert res.consistent
    assert res.max_ratio == 1.0
    # a constant with headroom stays consistent on random fill points too
    res2 = check_growth(lambda u: float(u[0]) ** -0.5, GrowthSpec((0.5,), constant=2.0))
    assert res2.consistent
    assert res2.max_ratio == pytest.approx(0.5, abs=1e-9)


def test_growth_check_flags_understated_exponent():
    res = check_growth(lambda u: float(u[0]) ** -0.5, GrowthSpec((0.1,)))
    assert not res.consistent
    assert res.max_ratio > 100.0
    assert res.worst_subset is not None
    # worst point sits deep on the ladder where the mismatch is largest
    assert res.worst_sample.min() <= 2.0**-18


def test_growth_check_dimension_cap():
    with pytest.raises(CapacityError):
        check_growth(lambda u: 1.0, GrowthSpec((0.5,) * 5))


# Each catalog entry with maxA > 0 is g(u) = (u1 u2)^-maxA times an indicator;
# the indicators as README's catalog table gives them.
SINGULAR_INDICATORS = {
    "axis_box": lambda u: (u[:, 0] < 0.5) & (u[:, 1] < 0.75),
    "axis_singular": lambda u: u[:, 0] > 1.0 / 3.0,
    "corner_singular": lambda u: u[:, 0] + u[:, 1] < 1.5,
}


def test_every_singular_catalog_entry_has_its_indicator_here():
    singular = [name for name, e in CATALOG.items() if e.max_growth > 0]
    assert singular == list(SINGULAR_INDICATORS)


@pytest.mark.parametrize("name", list(SINGULAR_INDICATORS))
def test_catalog_entry_obeys_its_declared_growth(name):
    entry = CATALOG[name]
    a = entry.max_growth

    def g(u):
        return (u[..., 0] * u[..., 1]) ** -a

    # g meets its bound with equality wherever both u_i <= 1/2 (the point
    # (1/2, 1/2) included), so at B = 1 max_ratio is 1 + 2^-52 on numpy 2.4:
    # one rounding decides "consistent".  B = 1 + 1e-9 leaves millions of ulps
    # for that rounding and still tests B = 1 itself: the understated
    # exponents below give ratios of 3.36 (axis entries) and 128
    # (corner_singular).
    b = 1.0 + 1e-9
    accept = check_growth(g, GrowthSpec((a, a), b))
    assert accept.consistent
    assert accept.max_ratio == pytest.approx(1.0 / b, abs=1e-12)
    assert not check_growth(g, GrowthSpec((a / 2, a / 2), b)).consistent
    # and f is g times the indicator, on check_growth's own sample points
    u = np.array(_ladder_samples(2, 128))
    inside = SINGULAR_INDICATORS[name](u)
    assert 0 < inside.sum() < len(u)
    np.testing.assert_allclose(entry.f(u), g(u) * inside, rtol=1e-15, atol=0)


@pytest.mark.parametrize(
    "law",
    [
        lambda A, eps: extension_1d(A, 0.5, eps),
        sup_extension_1d,
        approx_error_1d,
    ],
    ids=["extension_1d", "sup_extension_1d", "approx_error_1d"],
)
def test_1d_laws_share_one_domain(law):
    for A in (0.0, 1.0, -0.5, math.nan):
        with pytest.raises(ContractError, match=r"exponent must lie in \(0,1\)"):
            law(A, 0.1)
    for eps in (0.0, 0.5, -0.1, math.nan):
        with pytest.raises(ContractError, match=r"eps must lie in \(0, 1/2\)"):
            law(0.5, eps)
    assert math.isfinite(law(0.5, 0.1))
