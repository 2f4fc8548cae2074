"""Boundary growth condition and the low-variation extension in 1-d.

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

This module ships a finite-difference detector for the growth condition
itself, which the test suite runs at the declared maxA of every catalog
entry with maxA > 0, and, for the 1-d family g(u) = u^(-A), the surrogate
in closed form with closed-form laws for its L1 distance to g and its
sup-norm.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Set
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, ContractError, index, real


@dataclass(frozen=True)
class GrowthSpec:
    """Exponents A_1..A_d and constant B of the boundary growth condition."""

    exponents: tuple[float, ...]
    constant: float = 1.0

    def __post_init__(self):
        try:
            # iterable, but by character, byte or key, or in no coordinate order
            if isinstance(self.exponents, (str, bytes, bytearray, Mapping, Set)):
                raise TypeError
            exponents = tuple(real("exponents", a) for a in self.exponents)
        except TypeError:  # those, and a bare number, which is no sequence
            raise ContractError(
                f"exponents must be a sequence of reals, got {self.exponents!r}"
            ) from None
        object.__setattr__(self, "exponents", exponents)
        if not exponents or any(a <= 0 for a in exponents):
            raise ContractError("growth exponents must all be > 0")
        object.__setattr__(self, "constant", real("constant", self.constant))
        if self.constant <= 0:
            raise ContractError("growth constant must be > 0")

    @property
    def d(self) -> int:
        return len(self.exponents)

    def bound(self, u: np.ndarray, v: Sequence[int]) -> float:
        """Growth bound on |d^v g| at u."""
        mins = np.minimum(u, 1.0 - u)
        a = np.array(self.exponents)
        powers = -a - np.isin(np.arange(self.d), list(v)).astype(float)
        return float(self.constant * np.prod(mins**powers))


def _check_1d(A: float, eps: float) -> tuple[float, float]:
    """(A, eps) as floats, in the domain of the 1-d laws: 0 < A < 1, 0 < eps < 1/2."""
    A, eps = real("A", A), real("eps", eps)
    if not 0.0 < A < 1.0:
        raise ContractError("exponent must lie in (0,1)")
    if not 0.0 < eps < 0.5:
        raise ContractError("eps must lie in (0, 1/2)")
    return A, eps


def extension_1d(A: float, u: float, eps: float) -> float:
    """The 1-d low-variation surrogate of g(u) = u^(-A), anchored at 1/2.

    Accumulating g' only over K(eps) = [eps, 1-eps] collapses to clamping:
    the surrogate equals g(clamp(u, eps, 1-eps)), so it matches g exactly
    on K(eps) and freezes at the region's edge values outside it.  u = 0
    is accepted (the surrogate is defined there even though g is not).
    """
    A, eps = _check_1d(A, eps)
    u = real("u", u)
    if not 0.0 <= u <= 1.0:
        raise ContractError("u must lie in [0,1]")
    return min(max(u, eps), 1.0 - eps) ** -A


def sup_extension_1d(A: float, eps: float) -> float:
    """Exact supremum of the 1-d surrogate: attained on [0, eps]."""
    A, eps = _check_1d(A, eps)
    return eps**-A


def approx_error_1d(A: float, eps: float) -> float:
    """Exact L1 distance between g(u) = u^(-A) and its surrogate on [0,1].

    The low clip contributes (A/(1-A)) eps^(1-A); the high clip
    contributes (1-eps)^(-A) eps - (1 - (1-eps)^(1-A))/(1-A).  The low
    term dominates as eps -> 0, giving the eps^(1-A) scaling law.
    """
    A, eps = _check_1d(A, eps)
    low = (A / (1.0 - A)) * eps ** (1.0 - A)
    high = (1.0 - eps) ** -A * eps - (1.0 - (1.0 - eps) ** (1.0 - A)) / (1.0 - A)
    return low + high


_LADDER_DEPTH = 20  # check_growth's ladder reaches 2^-20 and 1 - 2^-20
_SAMPLE_SEED = 0  # check_growth's mixed draws repeat from call to call


@dataclass
class GrowthCheckResult:
    """Worst observed ratio of a finite-difference mixed partial to its bound."""

    max_ratio: float
    worst_sample: np.ndarray | None
    worst_subset: tuple[int, ...] | None
    samples_tested: int

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
) -> GrowthCheckResult:
    """Probe whether a black-box function obeys a growth specification.

    At boundary-biased sample points, every mixed partial d^v f (all
    subsets v, f itself included) is estimated by central differences and
    compared against the growth bound; the worst ratio over samples and
    subsets is returned.  A ratio <= 1 is consistent with the spec at the
    tested resolution; ratios growing along the ladder expose an exponent
    mismatch.

    The step adapts to min(u_i, 1-u_i)/8 per coordinate, so stencils stay
    inside the cube near the boundary.
    """
    sample_count = index("sample_count", sample_count)
    d = spec.d
    if d > 4:
        raise CapacityError("mixed finite differences supported for d <= 4 only")
    samples = _ladder_samples(d, sample_count)

    best = GrowthCheckResult(-math.inf, None, None, 0)
    subsets = [
        v for r in range(d + 1) for v in itertools.combinations(range(d), r)
    ]
    for u in samples:
        h = np.minimum(u, 1.0 - u) / 8.0
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
