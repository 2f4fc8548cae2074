"""Growth condition, avoidance region, and low-variation extension laws."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc.errors import CapacityError, ContractError, QuadratureToleranceError
from rqmc.singularity import (
    ANCHOR,
    AvoidanceRegion,
    GrowthSpec,
    ProductSingularFunction,
    _mixed_central_difference,
    approx_error_1d,
    check_growth,
    extension_1d,
    extension_nd_oracle,
    k_epsilon_contains,
    sup_extension_1d,
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
    spec = GrowthSpec((np.float32(0.5), 1), np.int64(2))
    assert spec == GrowthSpec((0.5, 1.0), 2.0)
    assert all(type(x) is float for x in (*spec.exponents, spec.constant))


def test_growth_spec_regimes():
    assert GrowthSpec((0.3, 0.4)).square_integrable
    assert GrowthSpec((0.3, 0.4)).feasible
    spec = GrowthSpec((0.3, 0.7))
    assert not spec.square_integrable
    assert spec.feasible
    assert spec.max_exponent == 0.7
    assert not GrowthSpec((1.5,)).feasible


def test_growth_bound_values():
    spec = GrowthSpec((0.5,))
    u = np.array([0.25])
    assert spec.bound(u, ()) == pytest.approx(2.0)
    assert spec.bound(u, (0,)) == pytest.approx(8.0)
    assert GrowthSpec((0.5,), constant=2.0).bound(u, ()) == pytest.approx(4.0)
    # min(u, 1-u) symmetry
    assert spec.bound(np.array([0.75]), ()) == pytest.approx(2.0)


# ---------------------------------------------------------------- region


def test_region_validation():
    AvoidanceRegion(0.25, 2)
    with pytest.raises(ContractError):
        AvoidanceRegion(0.26, 2)  # anchor product is 2^-d
    with pytest.raises(ContractError):
        AvoidanceRegion(0.0, 2)
    with pytest.raises(ContractError):
        AvoidanceRegion(0.1, 0)


def test_region_membership_examples():
    region = AvoidanceRegion(0.08, 2)
    assert k_epsilon_contains((0.2, 0.4), region)
    assert not k_epsilon_contains((0.05, 0.4), region)
    assert not k_epsilon_contains((0.2, 0.0), region)
    anchor = AvoidanceRegion(2.0**-3, 3)
    assert k_epsilon_contains((0.5, 0.5, 0.5), anchor)


def test_region_membership_batch():
    region = AvoidanceRegion(0.1, 2)
    pts = np.array([[0.5, 0.5], [0.05, 0.5], [0.9, 0.6]])
    got = k_epsilon_contains(pts, region)
    assert got.tolist() == [True, False, False]


def test_region_membership_dimension_mismatch():
    with pytest.raises(ContractError):
        k_epsilon_contains((0.5, 0.5), AvoidanceRegion(0.1, 3))


@given(
    st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2),
    st.floats(0.001, 0.125),
    st.floats(0.001, 0.125),
)
def test_region_shrinks_as_epsilon_grows(u, e1, e2):
    lo, hi = sorted((e1, e2))
    if k_epsilon_contains(u, AvoidanceRegion(hi, 2)):
        assert k_epsilon_contains(u, AvoidanceRegion(lo, 2))


# ---------------------------------------------------------------- product family


def test_product_function_values():
    g = ProductSingularFunction((0.5, 0.5))
    assert g((0.25, 0.25)) == pytest.approx(4.0)
    assert g((1.0, 1.0)) == pytest.approx(1.0)
    batch = g(np.array([[0.25, 1.0], [1.0, 0.25]]))
    assert batch == pytest.approx([2.0, 2.0])


def test_product_function_validation():
    with pytest.raises(ContractError):
        ProductSingularFunction((0.5, 1.0))
    with pytest.raises(ContractError):
        ProductSingularFunction((0.0,))
    for bad, shown in ((math.nan, "nan"), ("0.5", "'0.5'"), (0.5j, "0.5j")):
        with pytest.raises(
            ContractError, match=f"^exponents must be finite and real, got {shown}$"
        ):
            ProductSingularFunction((0.5, bad))


def test_mixed_partial_closed_form_vs_finite_difference():
    g = ProductSingularFunction((0.3, 0.6))
    u = np.array([0.4, 0.7])
    h = np.array([1e-5, 1e-5])
    for v in [(), (0,), (1,), (0, 1)]:
        fd = _mixed_central_difference(lambda z: g(z), u, v, h)
        assert g.mixed_partial(v, u) == pytest.approx(fd, rel=1e-6)


@given(
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(0.05, 0.95),
    st.floats(0.05, 0.95),
)
def test_product_function_obeys_its_own_growth_spec(a1, a2, u1, u2):
    g = ProductSingularFunction((a1, a2))
    spec = g.growth_spec
    u = np.array([u1, u2])
    for v in [(), (0,), (1,), (0, 1)]:
        assert abs(g.mixed_partial(v, u)) <= spec.bound(u, v) * (1.0 + 1e-12)


# ---------------------------------------------------------------- 1-d extension


def test_extension_1d_clamps():
    assert extension_1d(0.5, 0.25, 0.1) == pytest.approx(2.0)
    assert extension_1d(0.5, 0.05, 0.1) == pytest.approx(math.sqrt(10.0))
    assert extension_1d(0.5, 0.0, 0.1) == pytest.approx(0.1**-0.5)
    assert extension_1d(0.5, 0.98, 0.1) == pytest.approx(0.9**-0.5)
    assert extension_1d(0.5, ANCHOR, 0.1) == pytest.approx(math.sqrt(2.0))


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


# ---------------------------------------------------------------- n-d oracle


def test_oracle_matches_closed_form_in_1d():
    g = ProductSingularFunction((0.4,))
    eps = 0.05
    for u in (0.3, 0.9, 0.02, eps):  # inside region, above, below, boundary
        got = extension_nd_oracle(g, (u,), eps, quad_tol=1e-8)
        assert got == pytest.approx(extension_1d(0.4, u, eps), abs=1e-6), u


def test_oracle_at_anchor_is_g_of_anchor():
    g = ProductSingularFunction((0.5, 0.5))
    got = extension_nd_oracle(g, (ANCHOR, ANCHOR), 0.01)
    assert got == pytest.approx(2.0, abs=1e-9)


def test_oracle_equals_g_inside_region_2d():
    g = ProductSingularFunction((0.3, 0.5))
    eps = 0.02
    region = AvoidanceRegion(eps, 2)
    rng = np.random.default_rng(7)
    tested = 0
    while tested < 12:
        u = rng.uniform(0.05, 0.95, size=2)
        if not k_epsilon_contains(u, region):
            continue
        got = extension_nd_oracle(g, u, eps, quad_tol=1e-7)
        assert got == pytest.approx(g(u), abs=5e-6), u
        tested += 1


def test_oracle_differs_from_g_outside_region():
    g = ProductSingularFunction((0.3, 0.5))
    eps = 0.02
    u = (0.001, 0.5)  # product of mins is 0.0005 < eps
    got = extension_nd_oracle(g, u, eps, quad_tol=1e-7)
    assert math.isfinite(got)
    assert abs(got - g(u)) > 1e-3


def test_oracle_capacity_and_contract():
    with pytest.raises(CapacityError):
        extension_nd_oracle(ProductSingularFunction((0.1,) * 4), (0.5,) * 4, 0.01)
    with pytest.raises(ContractError):
        extension_nd_oracle(ProductSingularFunction((0.1, 0.1)), (0.5,), 0.01)


def test_oracle_reports_unreachable_tolerance():
    g = ProductSingularFunction((0.45, 0.45))
    with pytest.raises(QuadratureToleranceError) as exc:
        extension_nd_oracle(g, (0.004, 0.6), 0.003, quad_tol=1e-14)
    assert exc.value.achieved > exc.value.requested


# ---------------------------------------------------------------- growth check


def test_central_difference_exact_for_bilinear():
    f = lambda z: float(z[0] * z[1])
    got = _mixed_central_difference(f, np.array([0.4, 0.6]), (0, 1), np.array([0.1, 0.05]))
    assert got == pytest.approx(1.0, abs=1e-12)


def test_growth_check_linear_function_passes():
    res = check_growth(lambda u: float(u[0]), GrowthSpec((0.5, 0.5)), sample_count=96)
    assert res.consistent
    assert res.samples_tested == 96


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
