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
axis-parallel cut {u_1 > kappa}: the QMC-friendly orientation.  A
factor is its matrix A; a payoff spec names the one it is priced under.

Payoffs cover the discounted arithmetic Asian call and the pathwise
estimators of its delta, gamma, rho, theta, and vega (all sharing the
indicator of S_A > K), plus the geometric-mean payoff whose exact
lognormal expectation serves as the reference value in rate studies.

``scipy.special`` is loaded on first use, by ``_special``, so a caller
that prices nothing never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, index_fields, real_fields

PAYOFF_KINDS = (
    "asian_call",
    "asian_delta",
    "asian_gamma",
    "asian_rho",
    "asian_theta",
    "asian_vega",
    "geometric_indicator_payoff",
)
FACTOR_METHODS = ("cholesky", "ot")

_FACTOR_RTOL = 1e-12
_Z = 9.09  # bounds |Phi^{-1}(u)| on [2^-64, 1 - 2^-53], where samplers emit u
_LOG_BOUND = 320.0  # L, the bound on a model's log scale (see GbmModel)


@dataclass(frozen=True)
class GbmModel:
    """Market constants: initial price, rate, volatility, maturity, dates, strike.

    The model's domain is one bound, lam <= L = 320, on its log scale

        lam = max(|log s0|, log+ K) + |r - sigma^2/2| T + Z sigma sqrt(d T)
              + |rT| + |log T| + log d.

    Scrambled coordinates lie in [2^-64, 1 - 2^-53] and plain-uniform ones
    in [2^-53, 1 - 2^-53], so |z_j| = |Phi^{-1}(u_j)| <= 9.0802 < Z; any
    factor row has |a_i|_2^2 = t_i, so |sigma (A z)_i| <= Z sigma sqrt(d t_i).
    With M the first three terms, every S_i lies in [e^-M, e^M] and K below
    e^M, the discount factor within e^(+-|rT|), and every date within
    e^(+-(|log T| + log d)).  A payoff value is e^(M + |rT|) times at most
    1 (call, delta, geometric), 2 T (rho), 2 lam / T (theta: |r| and
    |r - sigma^2/2| are at most lam / T), 3 lam / sigma (vega) or
    3 lam / (max(s0, 1)^2 sigma^2 dt) (gamma: their numerator is at most
    3 lam, as sigma^2 T / 2 <= |rT| + |r - sigma^2/2| T, and gamma's S_A / s0^2
    is at most e^M / max(s0, 1)^2, as S_A / s0 <= e^(M - |log s0|)).
    ``PayoffSpec`` adds the log of vega's or gamma's own factor to lam under
    the same bound.  So a value is below 3 L e^L < 2^472, a sum of 2^26 values
    below 2^498, and the squared deviations of 2^16 estimates below 2^962.
    """

    s0: float
    r: float
    sigma: float
    maturity: float
    d: int
    strike: float

    def __post_init__(self):
        real_fields(self, "s0", "r", "sigma", "maturity", "strike")
        if self.s0 <= 0:
            raise ContractError("initial price must be > 0")
        if self.sigma < 0:
            raise ContractError("volatility must be >= 0")
        if self.maturity <= 0:
            raise ContractError("maturity must be > 0")
        index_fields(self, "d")
        if self.d < 1:
            raise ContractError("need at least one monitoring date")
        if self.strike < 0:
            raise ContractError("strike must be >= 0")
        _check_domain(self, "the model")

    @property
    def dt(self) -> float:
        return self.maturity / self.d

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.d + 1)


def _check_domain(m: GbmModel, what: str, log_factor: float = 0.0) -> None:
    """Raise unless the model's log scale plus ``log_factor`` is at most L."""
    scale = (
        max(abs(math.log(m.s0)), math.log(max(m.strike, 1.0)))
        + abs(m.r - 0.5 * m.sigma * m.sigma) * m.maturity
        # a d past 2^1000, which may not convert to a float, is out on log d
        + _Z * m.sigma * math.sqrt(min(m.d, 2**1000)) * math.sqrt(m.maturity)
        + abs(m.r * m.maturity)
        + abs(math.log(m.maturity))
        + math.log(m.d)
        + log_factor
    )
    if not scale <= _LOG_BOUND:  # NaN too
        values = ", ".join(f"{f.name}={getattr(m, f.name)}" for f in fields(m))
        raise ContractError(
            f"{what}'s log scale {scale:.4g} exceeds {_LOG_BOUND:g} at {values}"
        )


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
            raise ContractError(
                f"matrix is not positive definite: pivot {j} has value {pivot:.6g}"
            )
        a[j, j] = math.sqrt(pivot)
        a[j + 1 :, j] = (cov[j + 1 :, j] - a[j + 1 :, :j] @ a[j, :j]) / a[j, j]
    return a


def reconstructs(a: np.ndarray, cov: np.ndarray) -> bool:
    """Check A A^T = cov entrywise to relative 1e-12."""
    resid = np.abs(a @ a.T - cov)
    return float(resid.max()) <= _FACTOR_RTOL * float(np.abs(cov).max())


def check_concentrated(a: np.ndarray, w: np.ndarray) -> None:
    """Raise unless w^T A loads on the first coordinate alone."""
    wa = w @ a
    if np.max(np.abs(wa[1:]), initial=0.0) > 1e-12 * max(abs(wa[0]), 1.0):
        raise ContractError("ot factor must concentrate w^T A on the first coordinate")


def ot_factor(cov: np.ndarray, w: np.ndarray) -> np.ndarray:
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
    a = a0 @ h
    check_concentrated(a, w)
    return a


def path_factor(model: GbmModel, method: str) -> np.ndarray:
    """The (d, d) matrix A with A A^T = Sigma, built by factor method name.

    The ``ot`` factor is rotated for the geometric-mean weight.
    """
    cov = covariance(model)
    if method == "cholesky":
        a = cholesky_factor(cov)
    elif method == "ot":
        # The rotation depends on w's direction only.  The geometric weight
        # (sigma/d) * 1 scaled by a power of two is exact, so A has the
        # unscaled weight's bits, and |A0^T w| cannot underflow however small
        # sigma is.
        w = geometric_weight(model)
        w = np.ldexp(w, -math.frexp(w[0])[1])
        if not np.any(w):
            w = np.ones(model.d)  # sigma = 0: indicator constant, any rotation
        a = ot_factor(cov, w)
    else:
        raise ContractError(f"unknown factor method {method!r}")
    if not reconstructs(a, cov):
        raise ContractError("factor failed to reconstruct the covariance")
    return a


def geometric_weight(model: GbmModel) -> np.ndarray:
    """Weight w with w^T x = log-geometric-mean fluctuation: (sigma/d) * 1."""
    return np.full(model.d, model.sigma / model.d)


def _special():
    """``scipy.special``, imported on the first call."""
    from scipy import special

    return special


def inv_norm_cdf(p):
    """Standard normal quantile, |Phi(result) - p| <= 1e-12, on (0,1) strictly."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ContractError("quantile argument must lie strictly inside (0,1)")
    return _special().ndtri(p)


# Multiply-adds per matrix product of the path transform: chunks of
# 2^17 // d^2 rows keep the (rows, d) @ (d, d) dgemm at most half OpenBLAS's
# 2^18 threading cutoff.  On (rows, 4) @ (4, 4) a BLAS worker ran at 2^16
# rows and at no size up to 2^14 rows; asian_rho's `s @ j` woke none up to
# 2^16.  So no BLAS worker wakes and then spin-waits through the
# single-threaded work that follows.
_BLOCK_MADDS = 2**17


def chunk_rows(d: int) -> int:
    """Rows per matrix product of the path transform: 8192 at d = 4."""
    return max(1, _BLOCK_MADDS // d**2)


def generate_path(u, model: GbmModel, a: np.ndarray):
    """Price path S(u) under factor A; accepts (d,) or (n, d) u.

    The quantiles are taken on all rows at once.  The product with A runs
    on chunks of ``chunk_rows(d)`` rows, each written over its own
    quantiles; the scale, drift, ``exp`` and ``s0`` follow in place, in the
    order of ``s0 * exp(drift + sigma * (z @ A^T))``.  Row i of the result
    depends only on row i of ``u`` and on the chunk it falls in (a one-row
    product can round differently), so rows cut on chunk boundaries get
    the bits of one call on all rows.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1:] != (model.d,):
        raise ContractError(f"points must have {model.d} coordinates")
    if a.shape != (model.d, model.d):
        raise ContractError("factor dimension does not match the model")
    z = inv_norm_cdf(u)
    s = z.reshape(-1, model.d)
    chunk = chunk_rows(model.d)
    for start in range(0, len(s), chunk):
        s[start : start + chunk] = s[start : start + chunk] @ a.T
    s *= model.sigma
    s += (model.r - 0.5 * model.sigma**2) * model.times
    np.exp(s, out=s)
    s *= model.s0
    return s.reshape(z.shape)


@dataclass(frozen=True)
class PayoffSpec:
    """One of the discounted payoff/Greek estimators, bound to a model.

    ``factor`` names the path factor, one of ``FACTOR_METHODS``, that maps
    points to paths.  It decides whether the payoff's jump, or the geometric
    payoff's kink, is axis-parallel, so it is part of the integrand.
    """

    kind: str
    model: GbmModel
    factor: str = "ot"

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ContractError(f"unknown payoff kind {self.kind!r}")
        if self.factor not in FACTOR_METHODS:
            raise ContractError(f"unknown factor method {self.factor!r}")
        m = self.model
        if self.kind in ("asian_gamma", "asian_theta", "asian_vega"):
            # Gamma and vega divide log(S/S0) - (r + sigma^2/2) t by sigma, theta
            # log(S/S0) by 2T.  At maturity the first is about sigma sqrt(T), the
            # second about sigma sqrt(T) + |r - sigma^2/2| T, each with an error
            # of 2^-53 max(1, |r| T), so it keeps half its 53 bits only while
            # its size is at least 2^-27 max(1, |r| T).
            size, what = m.sigma * math.sqrt(m.maturity), "sigma sqrt(T)"
            if self.kind == "asian_theta":
                size += abs(m.r - 0.5 * m.sigma**2) * m.maturity
                what += " + |r - sigma^2/2| T"
            floor = 2.0**-27 * max(1.0, abs(m.r) * m.maturity)
            if not size >= floor:
                raise ContractError(
                    f"{self.kind} needs {what} >= {floor:.4g} at r={m.r} and "
                    f"maturity={m.maturity}; got {size:.4g} at sigma={m.sigma}"
                )
        if self.kind in ("asian_gamma", "asian_vega"):
            # the factor each adds to a value: 1/sigma, or 1/(max(s0, 1)^2 sigma^2 dt)
            log_factor = -math.log(m.sigma)
            if self.kind == "asian_gamma":
                log_s0 = max(math.log(m.s0), 0.0)
                log_factor = 2.0 * (log_factor - log_s0) - math.log(m.dt)
            _check_domain(m, self.kind, log_factor)


def payoff_eval(spec: PayoffSpec, s):
    """Discounted payoff values for paths along the last axis of ``s``.

    Shape ``(..., d)`` gives values of shape ``(...)``: an ``(n, d)`` array
    of n paths gives n values, and a single ``(d,)`` path a numpy scalar.
    ``s`` is never modified: the payoff works on a copy.

    The six arithmetic kinds share the indicator of S_A > K and vanish
    whenever S_A <= K; the geometric kind pays (S_G - K) on S_G > K.
    Each Greek is the derivative of the discounted price V with respect
    to its parameter; theta is dV/dT, the change per unit of maturity.
    """
    s = np.array(s, dtype=np.float64)
    if s.shape[-1:] != (spec.model.d,):
        raise ContractError(f"paths must have {spec.model.d} dates")
    if not np.all(s > 0.0):
        raise ContractError("prices must be positive")
    return _payoff(spec, s)


def _payoff(spec: PayoffSpec, s: np.ndarray):
    """``payoff_eval`` on a float64 path array ``s``, which it may overwrite.

    Path-sized steps run in place (the geometric kind's ``log``) or on one
    temporary (``asian_theta``, ``asian_vega``), each in the operand order of
    the formula in its comment, so every value has that formula's bits.
    """
    m = spec.model
    disc = math.exp(-m.r * m.maturity)
    kind = spec.kind
    if kind == "geometric_indicator_payoff":
        sg = np.exp(_row_mean(np.log(s, out=s)))
        return disc * (sg - m.strike) * (sg > m.strike)

    sa = _row_mean(s)
    live = sa > m.strike
    j = np.arange(1, m.d + 1)
    if kind == "asian_call":
        val = sa - m.strike
    elif kind == "asian_delta":
        val = sa / m.s0
    elif kind == "asian_gamma":
        val = (
            sa
            * (np.log(s[..., 0] / m.s0) - (m.r + 0.5 * m.sigma**2) * m.dt)
            / (m.s0**2 * m.sigma**2 * m.dt)
        )
    elif kind == "asian_rho":
        dsa_dr = (m.maturity / m.d**2) * (s @ j)
        val = dsa_dr - m.maturity * (sa - m.strike)
    elif kind == "asian_theta":
        # dS_i/dT = S_i ((r - sigma^2/2) i/(2d) + ln(S_i/S0)/(2T)) at fixed u
        drift = m.r - 0.5 * m.sigma**2
        t = s / m.s0
        np.log(t, out=t)
        t /= 2.0 * m.maturity
        np.add(drift * j / (2.0 * m.d), t, out=t)
        np.multiply(s, t, out=t)
        val = _row_mean(t) - m.r * (sa - m.strike)
    elif kind == "asian_vega":
        # dS_i/dsigma = S_i (ln(S_i/S0) - (r + sigma^2/2) t_i) / sigma
        t = s / m.s0
        np.log(t, out=t)
        t -= (m.r + 0.5 * m.sigma**2) * m.times
        np.multiply(s, t, out=t)
        t /= m.sigma
        val = _row_mean(t)
    else:  # pragma: no cover
        raise ContractError(f"unknown payoff kind {kind!r}")
    return disc * val * live


def _row_mean(x: np.ndarray):
    """``np.mean(x, axis=-1)`` bit for bit, one column at a time.

    numpy adds a row of d < 8 values in sequence, whatever the layout, so
    adding whole columns in sequence does the same additions without a
    reduction per row.  Adding 0.0 to the first column makes a row of
    -0.0 sum to +0.0, as numpy's does.  Longer rows go to ``np.mean``.
    """
    d = x.shape[-1]
    if d >= 8:
        return np.mean(x, axis=-1)
    acc = x[..., 0] + 0.0
    for j in range(1, d):
        acc += x[..., j]
    return acc / d


def payoff_integrand(spec: PayoffSpec):
    """``f(u) = payoff_eval(spec, generate_path(u, spec.model, A))``, A built once.

    Loads ``scipy.special`` on the calling thread: loaded by a pool's first
    replicates, it took about twice the CPU time (see BENCH_import.json).
    """
    a = path_factor(spec.model, spec.factor)
    _special()
    # fresh paths, positive in the model's domain: _payoff overwrites them unchecked
    return lambda u: _payoff(spec, generate_path(u, spec.model, a))


def _log_geometric_moments(model: GbmModel) -> tuple[float, float]:
    """Mean and standard deviation of log S_G, which is Gaussian.

    mu_G = log S0 + (r - sigma^2/2)(dt/d) sum_i i and
    sigma_G = |A0^T w| = sqrt(w^T Sigma w) with the geometric weight w.
    """
    m = model
    mu = math.log(m.s0) + (m.r - 0.5 * m.sigma**2) * (m.dt / m.d) * (
        m.d * (m.d + 1) / 2
    )
    w = geometric_weight(m)
    return mu, math.sqrt(w @ covariance(m) @ w)


def geometric_threshold(model: GbmModel) -> float:
    """kappa with I{S_G(u) > K} = I{u_1 > kappa} under the OT factor.

    The OT rotation loads all of log S_G's fluctuation on z_1, so kappa is
    the quantile of the payout boundary.  With sigma = 0 the indicator is
    constant and kappa degenerates to 0 or 1.
    """
    mu, sig = _log_geometric_moments(model)
    if sig == 0.0:
        return 0.0 if math.exp(mu) > model.strike else 1.0
    if model.strike == 0.0:
        return 0.0
    return float(_special().ndtr((math.log(model.strike) - mu) / sig))


def geometric_asian_price(model: GbmModel) -> float:
    """Exact discounted E[(S_G - K)^+]: S_G is lognormal.

    The moments of log S_G give the standard lognormal call expectation.
    This doubles as the exact mean of the geometric indicator payoff,
    since (S_G - K) 1{S_G > K} = (S_G - K)^+.
    """
    special = _special()
    m = model
    mu, sig = _log_geometric_moments(m)
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
