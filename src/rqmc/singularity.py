"""Boundary growth condition, avoidance region, and low-variation extensions.

A function g on (0,1)^d may blow up at the boundary of the cube.  Its
severity is summarized by per-coordinate growth exponents A_i: g and its
mixed partials are admissible when

    |d^v g(u)| <= B * prod_{i in v} min(u_i, 1-u_i)^(-A_i-1)
                    * prod_{i not in v} min(u_i, 1-u_i)^(-A_i)

for every subset v of coordinates.  The region K(eps) keeps the product
of min(u_i, 1-u_i) at least eps; on it g is tame, and g can be replaced
by a surrogate g_eps that equals g on K(eps) and has low variation:
anchored at c = (1/2,...,1/2), the surrogate accumulates only those
mixed-partial rectangle integrals whose integration point stays inside
K(eps).

This module ships the 1-d surrogate in closed form, a quadrature oracle
for the general construction (d <= 3), closed-form laws for the
surrogate's L1 distance to g and its sup-norm, and a finite-difference
detector for the growth condition itself.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .errors import CapacityError, ContractError, QuadratureToleranceError


@dataclass(frozen=True)
class GrowthSpec:
    """Exponents A_1..A_d and constant B of the boundary growth condition."""

    exponents: tuple[float, ...]
    constant: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(a) for a in self.exponents))
        if not self.exponents or any(a <= 0 for a in self.exponents):
            raise ContractError("growth exponents must all be > 0")
        if self.constant <= 0:
            raise ContractError("growth constant must be > 0")

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def max_exponent(self) -> float:
        return max(self.exponents)

    @property
    def feasible(self) -> bool:
        """True when the convergence-rate theory applies (max A_i < 1)."""
        return self.max_exponent < 1.0

    @property
    def square_integrable(self) -> bool:
        """True when plain Monte Carlo is applicable (max A_i < 1/2)."""
        return self.max_exponent < 0.5

    def bound(self, u: np.ndarray, v: Sequence[int]) -> float:
        """Growth bound on |d^v g| at u."""
        mins = np.minimum(u, 1.0 - u)
        a = np.array(self.exponents)
        powers = -a - np.isin(np.arange(self.d), list(v)).astype(float)
        return float(self.constant * np.prod(mins**powers))


@dataclass(frozen=True)
class AvoidanceRegion:
    """K(eps): points whose min-product stays at least eps from the boundary."""

    epsilon: float
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ContractError("dimension must be >= 1")
        if not 0.0 < self.epsilon <= 2.0**-self.d:
            raise ContractError(
                f"epsilon must lie in (0, 2^-{self.d}] so the region contains "
                "the anchor"
            )


def k_epsilon_contains(u, region: AvoidanceRegion) -> bool | np.ndarray:
    """Membership test for K(eps); accepts one point or an (n, d) batch."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != region.d:
        raise ContractError(f"point dimension {u.shape[-1]} != region dimension")
    prod = np.prod(np.minimum(u, 1.0 - u), axis=-1)
    result = prod >= region.epsilon
    return bool(result) if np.isscalar(result) or result.ndim == 0 else result


ANCHOR = 0.5  # per-coordinate anchor of the Sobol'-extensible region
_LADDER_DEPTH = 20  # check_growth's ladder reaches 2^-20 and 1 - 2^-20
_SAMPLE_SEED = 0  # check_growth's mixed draws repeat from call to call


@dataclass(frozen=True)
class ProductSingularFunction:
    """g(u) = prod_i u_i^(-A_i): singular only as any u_i drops to 0.

    Satisfies the growth condition with its own exponents and B = 1, and
    has all mixed partials in closed form, which makes it the reference
    family for the extension oracles.
    """

    exponents: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(float(a) for a in self.exponents))
        if any(not 0.0 < a < 1.0 for a in self.exponents):
            raise ContractError("exponents must lie in (0,1)")

    @property
    def d(self) -> int:
        return len(self.exponents)

    def __call__(self, u) -> float | np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        a = np.array(self.exponents)
        val = np.prod(u**-a, axis=-1)
        return float(val) if val.ndim == 0 else val

    def mixed_partial(self, v: Sequence[int], u) -> float:
        """d^v g at u: each differentiated factor picks up -A_i u^(-A_i-1)."""
        u = np.asarray(u, dtype=np.float64)
        out = 1.0
        for i, a in enumerate(self.exponents):
            if i in v:
                out *= -a * u[i] ** (-a - 1.0)
            else:
                out *= u[i] ** -a
        return float(out)

    @property
    def growth_spec(self) -> GrowthSpec:
        return GrowthSpec(self.exponents, 1.0)


def _check_1d(A: float, eps: float) -> None:
    """The domain of the 1-d laws: 0 < A < 1 and 0 < eps < 1/2."""
    if not 0.0 < A < 1.0:
        raise ContractError("exponent must lie in (0,1)")
    if not 0.0 < eps < 0.5:
        raise ContractError("eps must lie in (0, 1/2)")


def extension_1d(A: float, u: float, eps: float) -> float:
    """The 1-d low-variation surrogate of g(u) = u^(-A), anchored at 1/2.

    Accumulating g' only over K(eps) = [eps, 1-eps] collapses to clamping:
    the surrogate equals g(clamp(u, eps, 1-eps)), so it matches g exactly
    on K(eps) and freezes at the region's edge values outside it.  u = 0
    is accepted (the surrogate is defined there even though g is not).
    """
    _check_1d(A, eps)
    if not 0.0 <= u <= 1.0:
        raise ContractError("u must lie in [0,1]")
    return min(max(u, eps), 1.0 - eps) ** -A


def sup_extension_1d(A: float, eps: float) -> float:
    """Exact supremum of the 1-d surrogate: attained on [0, eps]."""
    _check_1d(A, eps)
    return eps**-A


def approx_error_1d(A: float, eps: float) -> float:
    """Exact L1 distance between g(u) = u^(-A) and its surrogate on [0,1].

    The low clip contributes (A/(1-A)) eps^(1-A); the high clip
    contributes (1-eps)^(-A) eps - (1 - (1-eps)^(1-A))/(1-A).  The low
    term dominates as eps -> 0, giving the eps^(1-A) scaling law.
    """
    _check_1d(A, eps)
    low = (A / (1.0 - A)) * eps ** (1.0 - A)
    high = (1.0 - eps) ** -A * eps - (1.0 - (1.0 - eps) ** (1.0 - A)) / (1.0 - A)
    return low + high


def _indicator_breakpoints(theta: float) -> list[float]:
    """Points in (0,1) where min(z, 1-z) crosses theta."""
    if theta >= 0.5:
        return []
    return [theta, 1.0 - theta]


def extension_nd_oracle(
    g: ProductSingularFunction,
    u: Sequence[float],
    eps: float,
    quad_tol: float = 1e-6,
) -> float:
    """Evaluate the anchored extension construction directly by quadrature.

    Sums, over every nonempty coordinate subset v, the oriented rectangle
    integral from the anchor to u of d^v g restricted to K(eps), with the
    off-v coordinates pinned at the anchor.  A validation oracle only
    (d <= 3): the production code never evaluates the surrogate, it
    exists to check the construction's exactness and bounds.
    """
    d = g.d
    if d > 3:
        raise CapacityError("extension oracle supports d <= 3 only")
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (d,):
        raise ContractError(f"point must have shape ({d},)")
    region = AvoidanceRegion(eps, d)

    total = g(np.full(d, ANCHOR))
    err_budget = quad_tol / (2**d)
    achieved = 0.0
    for r in range(1, d + 1):
        for v in itertools.combinations(range(d), r):
            val, err = _subset_integral(g, v, u, region, err_budget)
            total += val
            achieved += err
    if achieved > quad_tol:
        raise QuadratureToleranceError(achieved, quad_tol, total)
    return float(total)


def _subset_integral(
    g: ProductSingularFunction,
    v: tuple[int, ...],
    u: np.ndarray,
    region: AvoidanceRegion,
    epsabs: float,
) -> tuple[float, float]:
    """Oriented integral of d^v g * 1{K(eps)} over the rectangle [c^v, u^v]."""
    y = np.full(g.d, ANCHOR)

    def level(depth: int) -> tuple[float, float]:
        i = v[depth]
        lo, hi = min(ANCHOR, u[i]), max(ANCHOR, u[i])
        sign = 1.0 if u[i] >= ANCHOR else -1.0
        if lo == hi:
            return 0.0, 0.0
        inner_err = 0.0

        if depth == len(v) - 1:

            def f(z: float) -> float:
                y[i] = z
                if not k_epsilon_contains(y, region):
                    return 0.0
                return g.mixed_partial(v, y)

            others = np.prod(
                [min(y[j], 1.0 - y[j]) for j in range(g.d) if j != i]
            )
            pts = [
                p
                for p in _indicator_breakpoints(region.epsilon / others)
                if lo < p < hi
            ]
        else:

            def f(z: float) -> float:
                nonlocal inner_err
                y[i] = z
                val, err = level(depth + 1)
                inner_err = max(inner_err, err)
                return val

            pts = []

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, err = integrate.quad(
                f, lo, hi, epsabs=epsabs, limit=200, points=pts or None
            )
        y[i] = ANCHOR
        return sign * val, err + inner_err * (hi - lo)

    return level(0)


@dataclass
class GrowthCheckResult:
    """Worst observed ratio of a finite-difference mixed partial to its bound."""

    max_ratio: float
    worst_sample: np.ndarray | None
    worst_subset: tuple[int, ...] | None
    samples_tested: int
    samples_skipped: int

    @property
    def consistent(self) -> bool:
        return self.max_ratio <= 1.0


def _ladder_samples(d: int, sample_count: int):
    """Boundary-biased sample points: dyadic ladders plus mixed draws."""
    pts = []
    for i in range(d):
        for k in range(2, _LADDER_DEPTH + 1):
            for val in (2.0**-k, 1.0 - 2.0**-k):
                p = np.full(d, 0.5)
                p[i] = val
                pts.append(p)
    rng = np.random.default_rng(_SAMPLE_SEED)
    while len(pts) < sample_count:
        p = np.empty(d)
        for i in range(d):

            r = rng.random()
            if r < 0.8:
                k = rng.integers(2, _LADDER_DEPTH + 1)
                lev = 2.0**-k
                p[i] = lev if r < 0.4 else 1.0 - lev
            else:
                p[i] = rng.uniform(0.25, 0.75)
        pts.append(p)
    return pts


def check_growth(
    f: Callable[[np.ndarray], float],
    spec: GrowthSpec,
    sample_count: int = 128,
    fd_step: float | None = None,
) -> GrowthCheckResult:
    """Probe whether a black-box function obeys a growth specification.

    At boundary-biased sample points, every mixed partial d^v f (all
    subsets v, f itself included) is estimated by central differences and
    compared against the growth bound; the worst ratio over samples and
    subsets is returned.  A ratio <= 1 is consistent with the spec at the
    tested resolution; ratios growing along the ladder expose an exponent
    mismatch.

    ``fd_step`` fixes an absolute step (samples whose stencil would leave
    the domain are skipped and counted); by default the step adapts to
    min(u_i, 1-u_i)/8 per coordinate so stencils stay inside near the
    boundary.
    """
    d = spec.d
    if d > 4:
        raise CapacityError("mixed finite differences supported for d <= 4 only")
    samples = _ladder_samples(d, sample_count)

    best = GrowthCheckResult(-math.inf, None, None, 0, 0)
    subsets = [
        v for r in range(d + 1) for v in itertools.combinations(range(d), r)
    ]
    for u in samples:
        dist = np.minimum(u, 1.0 - u)
        if fd_step is None:
            h = dist / 8.0
        else:
            h = np.full(d, fd_step)
            if np.any(h >= dist):
                best.samples_skipped += 1
                continue
        best.samples_tested += 1
        for v in subsets:
            est = _mixed_central_difference(f, u, v, h)
            ratio = abs(est) / spec.bound(u, v)
            if ratio > best.max_ratio:
                best.max_ratio = ratio
                best.worst_sample = u.copy()
                best.worst_subset = v
    return best


def _mixed_central_difference(
    f: Callable[[np.ndarray], float],
    u: np.ndarray,
    v: Sequence[int],
    h: np.ndarray,
) -> float:
    """Central-difference estimate of the mixed partial d^v f at u."""
    if not v:
        return float(f(u))
    acc = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=len(v)):
        z = u.copy()
        for s, i in zip(signs, v):
            z[i] += s * h[i]
        acc += math.prod(signs) * float(f(z))
    return acc / math.prod(2.0 * h[i] for i in v)
