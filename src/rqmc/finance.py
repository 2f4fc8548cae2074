"""Geometric Brownian motion paths, path-space factorizations, and payoffs.

Prices are monitored at d evenly spaced dates t_i = i*T/d and driven by
a discretized Brownian motion x ~ N(0, Sigma), Sigma_ij = dt*min(i,j),
mapped to the unit cube through x = A Phi^{-1}(u) for any matrix A with
A A^T = Sigma:

    S_i(u) = S0 * exp[(r - sigma^2/2) i dt + sigma * sum_j a_ij Phi^{-1}(u_j)]

Two factorizations are provided.  The Cholesky factor is the plain
choice.  The orthogonal-transformation factor rotates it so that a given
linear functional w^T x of the path depends on u_1 alone, which turns
the discontinuity of a geometric-mean indicator into a single
axis-parallel cut {u_1 > kappa}: the QMC-friendly orientation.

Payoffs cover the discounted arithmetic Asian call and the pathwise
estimators of its delta, gamma, rho, theta, and vega (all sharing the
indicator of S_A > K), plus the geometric-mean payoff whose exact
lognormal expectation serves as the reference value in rate studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy import special

from .errors import ContractError, NotPositiveDefiniteError

PAYOFF_KINDS = (
    "asian_call",
    "asian_delta",
    "asian_gamma",
    "asian_rho",
    "asian_theta",
    "asian_vega",
    "geometric_indicator_payoff",
)

_FACTOR_RTOL = 1e-12


@dataclass(frozen=True)
class GbmModel:
    """Market constants: initial price, rate, volatility, maturity, dates, strike."""

    s0: float
    r: float
    sigma: float
    maturity: float
    d: int
    strike: float

    def __post_init__(self):
        for name in ("s0", "r", "sigma", "maturity", "strike"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ContractError(f"{name} must be finite, got {value}")
        if self.s0 <= 0:
            raise ContractError("initial price must be > 0")
        if self.sigma < 0:
            raise ContractError("volatility must be >= 0")
        if self.maturity <= 0:
            raise ContractError("maturity must be > 0")
        if self.d < 1:
            raise ContractError("need at least one monitoring date")
        if self.strike < 0:
            raise ContractError("strike must be >= 0")

    @property
    def dt(self) -> float:
        return self.maturity / self.d

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.d + 1)


def covariance(model: GbmModel) -> np.ndarray:
    """Brownian-motion covariance at the monitoring dates: dt * min(i, j)."""
    idx = np.arange(1, model.d + 1)
    return model.dt * np.minimum.outer(idx, idx).astype(np.float64)


def cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular A with A A^T = cov, positive diagonal.

    Rolled by hand so a non-positive-definite input can be reported by
    its failing pivot rather than a generic linear-algebra failure.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ContractError("covariance must be a square matrix")
    if not np.allclose(cov, cov.T, rtol=1e-12, atol=1e-14):
        raise ContractError("covariance must be symmetric")
    n = cov.shape[0]
    a = np.zeros_like(cov)
    for j in range(n):
        pivot = cov[j, j] - a[j, :j] @ a[j, :j]
        if pivot <= 0.0:
            raise NotPositiveDefiniteError(j, pivot)
        a[j, j] = math.sqrt(pivot)
        a[j + 1 :, j] = (cov[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) / a[j, j]
    return a


@dataclass(frozen=True)
class PathFactor:
    """A path-generating matrix A with A A^T = Sigma, tagged by construction."""

    matrix: np.ndarray
    method: Literal["cholesky", "ot"]
    weight: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ContractError("factor matrix must be square")
        if self.method not in ("cholesky", "ot"):
            raise ContractError(f"unknown construction tag {self.method!r}")
        if self.method == "ot":
            if self.weight is None:
                raise ContractError("ot factor must record its weight vector")
            w = np.asarray(self.weight, dtype=np.float64)
            object.__setattr__(self, "weight", w)
            wa = w @ m
            if np.max(np.abs(wa[1:]), initial=0.0) > 1e-12 * max(abs(wa[0]), 1.0):
                raise ContractError(
                    "ot factor must concentrate w^T A on the first coordinate"
                )

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    def reconstructs(self, cov: np.ndarray) -> bool:
        """Check A A^T = cov entrywise to relative 1e-12."""
        resid = np.abs(self.matrix @ self.matrix.T - cov)
        return float(resid.max()) <= _FACTOR_RTOL * float(np.abs(cov).max())


def ot_factor(cov: np.ndarray, w: np.ndarray) -> PathFactor:
    """Rotate the Cholesky factor so w^T A z depends on z_1 only.

    A = A0 H with H the Householder reflection taking e_1 to
    q = A0^T w / |A0^T w|; then A^T w = |A0^T w| e_1, so the functional
    w^T A z equals |A0^T w| z_1 with a positive coefficient, and any
    event {w^T x > c} becomes {z_1 > c / |A0^T w|}.
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.any(w):
        raise ContractError("weight vector must be nonzero")
    a0 = cholesky_factor(cov)
    q = a0.T @ w
    q = q / np.linalg.norm(q)
    v = q.copy()
    v[0] -= 1.0
    vv = v @ v
    if vv < 1e-30:
        h = np.eye(len(q))
    else:
        h = np.eye(len(q)) - (2.0 / vv) * np.outer(v, v)
    return PathFactor(a0 @ h, "ot", w.copy())


def path_factor(model: GbmModel, method: str) -> PathFactor:
    """Build a validated factor of the model's covariance by name.

    The ``ot`` factor is rotated for the geometric-mean weight.
    """
    cov = covariance(model)
    if method == "cholesky":
        factor = PathFactor(cholesky_factor(cov), "cholesky")
    elif method == "ot":
        w = geometric_weight(model)
        if not np.any(w):
            w = np.ones(model.d)  # sigma = 0: indicator constant, any rotation
        factor = ot_factor(cov, w)
    else:
        raise ContractError(f"unknown factor method {method!r}")
    if not factor.reconstructs(cov):
        raise ContractError("factor failed to reconstruct the covariance")
    return factor


def geometric_weight(model: GbmModel) -> np.ndarray:
    """Weight w with w^T x = log-geometric-mean fluctuation: (sigma/d) * 1."""
    return np.full(model.d, model.sigma / model.d)


def inv_norm_cdf(p):
    """Standard normal quantile, |Phi(result) - p| <= 1e-12, on (0,1) strictly."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ContractError("quantile argument must lie strictly inside (0,1)")
    out = special.ndtri(p)
    return float(out) if out.ndim == 0 else out


def generate_path(u, model: GbmModel, factor: PathFactor):
    """Price path S(u) per the lognormal solution; accepts (d,) or (n, d) u."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1] != model.d:
        raise ContractError(f"points must have {model.d} coordinates")
    if factor.d != model.d:
        raise ContractError("factor dimension does not match the model")
    z = inv_norm_cdf(u)
    drift = (model.r - 0.5 * model.sigma**2) * model.times
    return model.s0 * np.exp(drift + model.sigma * (z @ factor.matrix.T))


@dataclass(frozen=True)
class PayoffSpec:
    """One of the discounted payoff/Greek estimators, bound to a model."""

    kind: str
    model: GbmModel

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ContractError(f"unknown payoff kind {self.kind!r}")
        if self.kind in ("asian_gamma", "asian_vega") and self.model.sigma == 0.0:
            raise ContractError(f"{self.kind} divides by sigma; sigma must be > 0")


def payoff_eval(spec: PayoffSpec, s):
    """Discounted payoff values for paths s of shape (d,) or (n, d).

    The six arithmetic kinds share the indicator of S_A > K and vanish
    whenever S_A <= K; the geometric kind pays (S_G - K) on S_G > K.
    Each Greek is the derivative of the discounted price V with respect
    to its parameter; theta is dV/dT, the change per unit of maturity.
    """
    m = spec.model
    s = np.asarray(s, dtype=np.float64)
    scalar = s.ndim == 1
    s = np.atleast_2d(s)
    if s.shape[1] != m.d:
        raise ContractError(f"paths must have {m.d} dates")
    if np.any(s <= 0.0):
        raise ContractError("prices must be positive")

    disc = math.exp(-m.r * m.maturity)
    kind = spec.kind
    if kind == "geometric_indicator_payoff":
        sg = np.exp(np.mean(np.log(s), axis=1))
        out = disc * (sg - m.strike) * (sg > m.strike)
        return float(out[0]) if scalar else out

    sa = np.mean(s, axis=1)
    live = sa > m.strike
    j = np.arange(1, m.d + 1)
    if kind == "asian_call":
        val = sa - m.strike
    elif kind == "asian_delta":
        val = sa / m.s0
    elif kind == "asian_gamma":
        val = (
            sa
            * (np.log(s[:, 0] / m.s0) - (m.r + 0.5 * m.sigma**2) * m.dt)
            / (m.s0**2 * m.sigma**2 * m.dt)
        )
    elif kind == "asian_rho":
        dsa_dr = (m.maturity / m.d**2) * (s @ j)
        val = dsa_dr - m.maturity * (sa - m.strike)
    elif kind == "asian_theta":
        # dS_i/dT = S_i ((r - sigma^2/2) i/(2d) + ln(S_i/S0)/(2T)) at fixed u
        drift = m.r - 0.5 * m.sigma**2
        dsa_dt = np.mean(
            s * (drift * j / (2.0 * m.d) + np.log(s / m.s0) / (2.0 * m.maturity)),
            axis=1,
        )
        val = dsa_dt - m.r * (sa - m.strike)
    elif kind == "asian_vega":
        ds_dsig = s * (np.log(s / m.s0) - (m.r + 0.5 * m.sigma**2) * m.times) / m.sigma
        val = np.mean(ds_dsig, axis=1)
    else:  # pragma: no cover
        raise ContractError(f"unknown payoff kind {kind!r}")
    out = disc * val * live
    return float(out[0]) if scalar else out


def geometric_threshold(model: GbmModel, factor: PathFactor) -> float:
    """kappa with I{S_G(u) > K} = I{u_1 > kappa} under the OT factor.

    log S_G is Gaussian with mean log S0 + (r - sigma^2/2)(dt/d) sum_i i
    and standard deviation |A0^T w|, and the OT rotation loads all of its
    fluctuation on z_1; kappa is the quantile of the payout boundary.
    With sigma = 0 the indicator is constant and kappa degenerates to 0
    or 1.
    """
    if factor.method != "ot":
        raise ContractError("threshold reduction requires the ot factor")
    m = model
    mean_log = math.log(m.s0) + (m.r - 0.5 * m.sigma**2) * (m.dt / m.d) * (
        m.d * (m.d + 1) / 2
    )
    if m.sigma == 0.0:
        return 0.0 if math.exp(mean_log) > m.strike else 1.0
    if m.strike == 0.0:
        return 0.0
    w = geometric_weight(m)
    scale = math.sqrt(w @ covariance(m) @ w)
    return float(special.ndtr((math.log(m.strike) - mean_log) / scale))


def geometric_asian_price(model: GbmModel) -> float:
    """Exact discounted E[(S_G - K)^+]: S_G is lognormal.

    mu_G = log S0 + (r - sigma^2/2)(dt/d) sum_i i and
    sigma_G^2 = (sigma/d)^2 1^T Sigma 1 give the standard lognormal call
    expectation.  This doubles as the exact mean of the geometric
    indicator payoff, since (S_G - K) 1{S_G > K} = (S_G - K)^+.
    """
    m = model
    mu = math.log(m.s0) + (m.r - 0.5 * m.sigma**2) * (m.dt / m.d) * (
        m.d * (m.d + 1) / 2
    )
    w = geometric_weight(m)
    sig = math.sqrt(w @ covariance(m) @ w)
    disc = math.exp(-m.r * m.maturity)
    if sig == 0.0:
        return disc * max(math.exp(mu) - m.strike, 0.0)
    if m.strike == 0.0:
        return disc * math.exp(mu + 0.5 * sig**2)
    d2 = (mu - math.log(m.strike)) / sig
    d1 = d2 + sig
    return disc * (
        math.exp(mu + 0.5 * sig**2) * special.ndtr(d1)
        - m.strike * special.ndtr(d2)
    )
