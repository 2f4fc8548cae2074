"""Replicated-scramble error estimation and convergence-rate studies.

The quantity under study is E|I - Ihat| where Ihat is the equal-weight
average of an integrand over n points.  Each replicate rescrambles the
same digital net (or redraws plain-uniform points for the Monte Carlo
baseline), so the R replicate estimates are independent and identically
distributed and their absolute errors estimate the expected error
directly, with a standard error of their own.

Each replicate is drawn once, at the largest n of the grid.  The scramble
and the uniform stream act point by point, so the first n points of that
draw are exactly the replicate at n, and the estimate at every smaller n
is the mean over a prefix.

Rates are read off a log2-log2 ordinary-least-squares fit of the mean
absolute error against n, and compared with the predicted exponent

    gamma * (1/2 + 1/(4 d_u - 2)),   gamma = 1 - maxA,

where d_u is the irregular dimension of the discontinuity set (how many
axes its boundary is not parallel to) and maxA the worst boundary growth
exponent.  The prediction is an upper bound up to log factors, so the
verdict allows a configurable slack and treats steeper-than-predicted
slopes as consistent.

A small catalog of integrands with exact or closed-form reference values
covers the regimes of interest: smooth, discontinuous, discontinuous
with boundary singularities (axis-parallel and not), and option payoffs
driven by the finance module under both path factorizations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .digital_nets import generate_net
from .errors import ContractError, InfeasibleRegimeError, InsufficientDataError
from .finance import (
    GbmModel,
    PayoffSpec,
    generate_path,
    geometric_asian_price,
    path_factor,
    payoff_eval,
)
from .scrambling import ScrambleSeed, scramble, uniform_points

SAMPLERS = ("scrambled_net", "plain_mc")

DEFAULT_N_GRID = tuple(2**k for k in range(6, 17))
DEFAULT_REPLICATIONS = 32
DEFAULT_SLOPE_SLACK = 0.12  # absorbs the theorem's poly-log factor at desk scale

# Market constants shared by the shipped payoff studies.
STANDARD_MODEL = GbmModel(s0=1.0, r=0.05, sigma=0.2, maturity=1.0, d=4, strike=1.0)


def theoretical_exponent(d: int, d_u: int, max_growth: float) -> float:
    """Predicted |error| decay exponent: (1 - maxA) * (1/2 + 1/(4 d_u - 2)).

    d_u = d recovers the general-position prediction; d_u = 1
    (QMC-friendly, axis-parallel discontinuity) gives exponent 1 - maxA.
    """
    if not 1 <= d_u <= d:
        raise ContractError("need 1 <= d_u <= d")
    if not max_growth >= 0:  # also rejects NaN
        raise ContractError(f"growth exponent must be >= 0, got {max_growth}")
    if max_growth >= 1:
        raise InfeasibleRegimeError(
            f"max growth exponent {max_growth} >= 1: the singularity bound "
            "is not even integrable, no rate is predicted"
        )
    return (1.0 - max_growth) * (0.5 + 1.0 / (4 * d_u - 2))


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one rate study.

    ``integrand`` is a catalog name or a payoff bound to a model;
    ``reference_value`` is the exact integral, either as a number or as
    an ``"oracle:<name>"`` tag resolved at run time.

    The four fields an integrand implies are worked out from it when left
    as ``None``.  A catalog entry gives its own ``irregular_dimension``,
    ``max_growth`` and exact reference, at ``dimension`` (default: the
    entry's, else 2).  A payoff gives ``dimension = model.d``,
    ``irregular_dimension`` 1 under the ``ot`` factor (its jump is
    axis-parallel) and ``d`` under ``cholesky``, and ``max_growth = 0``;
    the geometric payoff takes its closed-form lognormal price as the
    reference, and any other payoff needs an explicit ``reference_value``
    before a study of it can run.
    """

    integrand: str | PayoffSpec
    dimension: int | None = None
    irregular_dimension: int | None = None
    max_growth: float | None = None
    reference_value: float | str | None = None
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = DEFAULT_REPLICATIONS
    master_seed: int = 0
    sampler: str = "scrambled_net"
    factor_method: str = "ot"
    slack: float = DEFAULT_SLOPE_SLACK

    def __post_init__(self):
        for field, value in _implied_fields(self).items():
            if getattr(self, field) is None:
                object.__setattr__(self, field, value)
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.n_grid:
            raise ContractError("n_grid must be nonempty")
        for n in self.n_grid:
            if n < 1 or n & (n - 1):
                raise ContractError(f"n_grid entry {n} is not a power of 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ContractError("n_grid must be strictly increasing")
        if self.replications < 8:
            raise ContractError("need at least 8 replications")
        if self.sampler not in SAMPLERS:
            raise ContractError(f"unknown sampler {self.sampler!r}")
        if not 1 <= self.irregular_dimension <= self.dimension:
            raise ContractError("need 1 <= irregular_dimension <= dimension")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ContractError(f"slack must be finite and >= 0, got {self.slack}")
        if not math.isfinite(self.max_growth):
            raise ContractError(f"max_growth must be finite, got {self.max_growth}")
        if isinstance(self.reference_value, str):
            if not self.reference_value.startswith("oracle:"):
                raise ContractError(
                    "reference_value must be a number or an 'oracle:<name>' tag"
                )
        elif self.reference_value is not None and not math.isfinite(
            self.reference_value
        ):
            raise ContractError("reference_value must be finite")

    @property
    def integrand_name(self) -> str:
        if isinstance(self.integrand, PayoffSpec):
            return f"{self.integrand.kind}[{self.factor_method}]"
        return self.integrand


def _implied_fields(config: StudyConfig) -> dict:
    """The dimension, d_u, maxA and reference the integrand implies."""
    spec = config.integrand
    if isinstance(spec, PayoffSpec):
        d = spec.model.d
        geometric = spec.kind == "geometric_indicator_payoff"
        return {
            "dimension": d,
            "irregular_dimension": 1 if config.factor_method == "ot" else d,
            "max_growth": 0.0,
            "reference_value": "oracle:geometric_asian" if geometric else None,
        }
    entry = CATALOG.get(spec)
    if entry is None:
        raise ContractError(f"unknown integrand {spec!r}")
    d = config.dimension if config.dimension is not None else entry.dimension or 2
    return {
        "dimension": d,
        "irregular_dimension": entry.irregular_dimension,
        "max_growth": entry.max_growth,
        "reference_value": entry.reference(d),
    }


@dataclass(frozen=True)
class ErrorRecord:
    """Replicate estimates at one sample size, against a known reference."""

    n: int
    reference: float
    estimates: tuple[float, ...]

    @property
    def replications(self) -> int:
        return len(self.estimates)

    @property
    def abs_errors(self) -> np.ndarray:
        return np.abs(np.array(self.estimates) - self.reference)

    @property
    def mean_abs_error(self) -> float:
        return float(self.abs_errors.mean())

    @property
    def std_error(self) -> float:
        e = self.abs_errors
        return float(e.std(ddof=1) / math.sqrt(len(e)))


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log2(mean absolute error) on log2(n)."""

    slope: float
    intercept: float
    r_squared: float
    n_range: tuple[int, int]
    theoretical_exponent: float | None = None
    excluded_n: tuple[int, ...] = ()


def _resolve_reference(config: StudyConfig) -> float:
    ref = config.reference_value
    if ref is None:
        raise ContractError(
            f"no oracle for payoff {config.integrand.kind!r}: "
            "provide `reference = <value>`"
        )
    if isinstance(ref, str):
        name = ref.removeprefix("oracle:")
        if name == "geometric_asian":
            if not (
                isinstance(config.integrand, PayoffSpec)
                and config.integrand.kind == "geometric_indicator_payoff"
            ):
                raise ContractError(
                    "the geometric_asian oracle applies only to the geometric "
                    "indicator payoff"
                )
            return geometric_asian_price(config.integrand.model)
        raise ContractError(f"no oracle named {name!r}")
    return float(ref)


def _resolve_integrand(config: StudyConfig) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(config.integrand, PayoffSpec):
        spec = config.integrand
        if spec.model.d != config.dimension:
            raise ContractError("model dimension does not match the study")
        factor = path_factor(spec.model, config.factor_method)

        def f(u: np.ndarray) -> np.ndarray:
            """Payoff per row; row i's value depends only on row i of u."""
            return payoff_values(spec, factor, u)

        return f
    return CATALOG[config.integrand].build(config.dimension)


def payoff_values(spec: PayoffSpec, factor, u: np.ndarray) -> np.ndarray:
    """Discounted payoff at each u-point (the composed integrand)."""
    return payoff_eval(spec, generate_path(u, spec.model, factor))


def _replicate_means(config: StudyConfig) -> np.ndarray:
    """Estimates Ihat_k at each n of the grid, shape (len(n_grid), R).

    Each replicate is drawn once at the largest n; its estimate at n is
    the mean of the first n values, which equals a separate draw at n.
    """
    f = _resolve_integrand(config)
    n_grid = config.n_grid
    n_max = n_grid[-1]
    if config.sampler == "scrambled_net":
        net = generate_net(n_max.bit_length() - 1, config.dimension)

    def prefix_means(k: int) -> list[float]:
        # u and vals die on return, before the next replicate is drawn.
        seed = ScrambleSeed(config.master_seed, k)
        if config.sampler == "scrambled_net":
            u = scramble(net, seed).coords
        else:
            u = uniform_points(seed, n_max, config.dimension)
        vals = np.asarray(f(u), dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            i = int(np.argmin(np.isfinite(vals)))
            raise ContractError(
                f"integrand returned a non-finite value at point {u[i].tolist()} "
                f"(replicate {k})"
            )
        return [vals[:n].mean() for n in n_grid]

    return np.array([prefix_means(k) for k in range(config.replications)]).T


def replicate_estimates(config: StudyConfig, n: int) -> np.ndarray:
    """The R independent estimates Ihat_k at sample size n, a power of 2.

    Replicate k is a pure function of (config, n, k).
    """
    return _replicate_means(replace(config, n_grid=(n,)))[0]


def expected_abs_error(config: StudyConfig, n: int) -> ErrorRecord:
    """Mean over replicates of |I - Ihat| at sample size n."""
    reference = _resolve_reference(config)
    estimates = replicate_estimates(config, n)
    return ErrorRecord(n=n, reference=reference, estimates=tuple(estimates))


def fit_rate(
    records: Sequence[ErrorRecord], theoretical_exponent: float | None = None
) -> RateFit:
    """Least-squares slope of the error decay on the log2-log2 scale.

    Records with zero mean absolute error carry no log-scale information
    and are excluded (their n values are reported on the fit).
    """
    usable, excluded = [], []
    for rec in records:
        (excluded if rec.mean_abs_error == 0.0 else usable).append(rec)
    if len(usable) < 4:
        raise InsufficientDataError(
            f"rate fit needs >= 4 usable records, got {len(usable)}"
        )
    x = np.log2([rec.n for rec in usable])
    y = np.log2([rec.mean_abs_error for rec in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_range=(usable[0].n, usable[-1].n),
        theoretical_exponent=theoretical_exponent,
        excluded_n=tuple(rec.n for rec in excluded),
    )


@dataclass(frozen=True)
class StudyReport:
    """Full outcome of one rate study: records, fit, prediction, verdict."""

    config: StudyConfig
    records: tuple[ErrorRecord, ...]
    fit: RateFit
    exponent: float
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def run_study(config: StudyConfig) -> StudyReport:
    """Measure errors across the n-grid, fit the rate, compare with theory.

    The prediction is an upper bound: the verdict is "consistent" when
    the empirical slope is at most -exponent + slack, so steeper decay
    also passes.
    """
    reference = _resolve_reference(config)
    exponent = theoretical_exponent(
        config.dimension, config.irregular_dimension, config.max_growth
    )
    means = _replicate_means(config)
    records = tuple(
        ErrorRecord(n=n, reference=reference, estimates=tuple(row))
        for n, row in zip(config.n_grid, means)
    )
    fit = fit_rate(records, theoretical_exponent=exponent)
    consistent = fit.slope <= -exponent + config.slack
    return StudyReport(
        config=config,
        records=records,
        fit=fit,
        exponent=exponent,
        verdict="consistent" if consistent else "inconsistent",
    )


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def report_to_csv(report: StudyReport) -> str:
    """Per-n error table; one row per sample size."""
    lines = ["integrand,sampler,n,R,mean_abs_error,std_error"]
    for rec in report.records:
        lines.append(
            ",".join(
                [
                    report.config.integrand_name,
                    report.config.sampler,
                    str(rec.n),
                    str(rec.replications),
                    _g17(rec.mean_abs_error),
                    _g17(rec.std_error),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: StudyReport) -> str:
    """Full machine-readable report, deterministic for a given config."""
    cfg = report.config
    echo: dict = {
        "integrand": cfg.integrand_name,
        "dimension": cfg.dimension,
        "irregular_dimension": cfg.irregular_dimension,
        "max_growth": cfg.max_growth,
        "reference_value": cfg.reference_value,
        "n_grid": list(cfg.n_grid),
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "sampler": cfg.sampler,
        "slack": cfg.slack,
    }
    if isinstance(cfg.integrand, PayoffSpec):
        m = cfg.integrand.model
        echo["factor_method"] = cfg.factor_method
        echo["model"] = {
            "s0": m.s0,
            "r": m.r,
            "sigma": m.sigma,
            "T": m.maturity,
            "d": m.d,
            "K": m.strike,
        }
    obj = {
        "config": echo,
        "reference": report.records[0].reference if report.records else None,
        "records": [
            {
                "n": rec.n,
                "R": rec.replications,
                "mean_abs_error": rec.mean_abs_error,
                "std_error": rec.std_error,
                "abs_errors": rec.abs_errors.tolist(),
            }
            for rec in report.records
        ],
        "fit": {
            "slope": report.fit.slope,
            "intercept": report.fit.intercept,
            "r_squared": report.fit.r_squared,
            "n_range": list(report.fit.n_range),
            "excluded_n": list(report.fit.excluded_n),
        },
        "theoretical_exponent": report.exponent,
        "verdict": report.verdict,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# Integrand catalog.  Reference values are exact closed forms except where
# a frozen high-precision quadrature constant is noted.


@dataclass(frozen=True)
class CatalogEntry:
    """A named test integrand with its declared geometry and exact mean.

    ``factory(d)`` returns a function of an (n, d) point array whose value
    at row i depends only on row i.  Studies rely on this: they evaluate
    each replicate once at the largest n and read smaller n off a prefix.
    """

    name: str
    dimension: int | None  # None: any d >= 1
    irregular_dimension: int
    max_growth: float
    reference: Callable[[int], float]
    factory: Callable[[int], Callable[[np.ndarray], np.ndarray]]
    description: str = ""

    def build(self, d: int) -> Callable[[np.ndarray], np.ndarray]:
        if self.dimension is not None and d != self.dimension:
            raise ContractError(
                f"integrand {self.name!r} is defined for d={self.dimension}"
            )
        return self.factory(d)


def _smooth_product(d: int):
    scale = 1.5**-d

    def f(u: np.ndarray) -> np.ndarray:
        return np.prod(1.0 + u, axis=1) * scale

    return f


def _halfspace(d: int):
    def f(u: np.ndarray) -> np.ndarray:
        return (u[:, 0] + u[:, 1] < 1.0).astype(np.float64)

    return f


def _axis_box(d: int):
    def f(u: np.ndarray) -> np.ndarray:
        inside = (u[:, 0] < 0.5) & (u[:, 1] < 0.75)
        return (u[:, 0] * u[:, 1]) ** -0.1 * inside

    return f


def _axis_singular(d: int):
    def f(u: np.ndarray) -> np.ndarray:
        return (u[:, 0] * u[:, 1]) ** -0.1 * (u[:, 0] > 1.0 / 3.0)

    return f


def _corner_singular(d: int):
    def f(u: np.ndarray) -> np.ndarray:
        return (u[:, 0] * u[:, 1]) ** -0.4 * (u[:, 0] + u[:, 1] < 1.5)

    return f


# integral of (u1 u2)^-0.4 over {u1 + u2 < 3/2}; frozen from 40-digit
# quadrature of (1/0.6)^2 - int_{1/2}^1 u^-0.4 (1 - (3/2-u)^0.6)/0.6 du
_CORNER_SINGULAR_REF = 2.631626082020582

CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            name="smooth_product",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=lambda d: 1.0,
            factory=_smooth_product,
            description="prod (1+u_i)/(3/2)^d: smooth, bounded variation",
        ),
        CatalogEntry(
            name="halfspace",
            dimension=2,
            irregular_dimension=2,
            max_growth=0.0,
            reference=lambda d: 0.5,
            factory=_halfspace,
            description="1{u1+u2<1}: discontinuity not axis-parallel",
        ),
        CatalogEntry(
            name="axis_box",
            dimension=2,
            irregular_dimension=1,
            max_growth=0.1,
            reference=lambda d: (0.5**0.9 / 0.9) * (0.75**0.9 / 0.9),
            factory=_axis_box,
            description="(u1 u2)^-0.1 on [0,1/2)x[0,3/4): fully axis-parallel",
        ),
        CatalogEntry(
            name="axis_singular",
            dimension=2,
            irregular_dimension=1,
            max_growth=0.1,
            reference=lambda d: ((1.0 - 3.0**-0.9) / 0.9) * (1.0 / 0.9),
            factory=_axis_singular,
            description="(u1 u2)^-0.1 1{u1>1/3}: one axis-parallel cut",
        ),
        CatalogEntry(
            name="corner_singular",
            dimension=2,
            irregular_dimension=2,
            max_growth=0.4,
            reference=lambda d: _CORNER_SINGULAR_REF,
            factory=_corner_singular,
            description="(u1 u2)^-0.4 1{u1+u2<3/2}: diagonal cut, strong corner",
        ),
    ]
}

# Payoff studies of the geometric payoff on the shared market constants,
# by the factor each uses.
_PAYOFF_STUDIES = {"geometric_ot": "ot", "geometric_cholesky": "cholesky"}

CATALOG_NAMES = tuple(CATALOG) + tuple(_PAYOFF_STUDIES)


def catalog_config(name: str, **overrides) -> StudyConfig:
    """StudyConfig for a named catalog integrand, with field overrides."""
    if name in _PAYOFF_STUDIES:
        spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
        overrides = {"factor_method": _PAYOFF_STUDIES[name], **overrides}
        return StudyConfig(spec, **overrides)
    return StudyConfig(name, **overrides)
