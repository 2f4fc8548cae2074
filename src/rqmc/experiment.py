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
driven by the finance module under both path factorizations.  Every
integrand, a catalog name or a ``PayoffSpec``, resolves once per study to
one ``CatalogEntry`` of values: its name, d, d_u, maxA, exact mean and
the function ``f(u)``, which reads d from ``u``.  A reference is a number
or the one oracle tag ``GEOMETRIC_ORACLE``, the closed-form price of the
geometric payoff, whose jump is axis-parallel under the ``ot`` factor.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .digital_nets import generate_net, load_direction_numbers
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
MIN_FIT_RECORDS = 4  # records a rate fit needs, and sizes a study's grid needs

# Market constants shared by the shipped payoff studies.
STANDARD_MODEL = GbmModel(s0=1.0, r=0.05, sigma=0.2, maturity=1.0, d=4, strike=1.0)

# The one oracle: the geometric payoff's closed-form lognormal price.
GEOMETRIC_ORACLE = "oracle:geometric_asian"


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

    ``integrand`` is one of ``CATALOG_NAMES``, where ``geometric_ot`` and
    ``geometric_cholesky`` name their ``PayoffSpec``, or a payoff bound to
    a model and a path factor.  It resolves once, at construction, to
    ``entry``, the ``CatalogEntry`` that the study evaluates and echoes;
    ``entry`` is derived, not a constructor argument.  The entry alone
    declares d_u and maxA, which the predicted rate reads; a custom study
    declares them on its own ``CatalogEntry``.

    ``dimension`` and ``reference_value`` left as ``None`` are the entry's
    (d = 2 when the entry takes any d).  ``reference_value`` is the exact
    integral: a number, or ``GEOMETRIC_ORACLE`` for the geometric payoff.
    A payoff's entry has ``dimension = model.d``, maxA = 0, and d_u = 1
    only for the geometric payoff under ``ot``, whose jump that factor
    makes axis-parallel; every other payoff has d_u = d.  The geometric
    payoff's reference is ``GEOMETRIC_ORACLE``; any other payoff needs an
    explicit ``reference_value`` before a study of it can run.
    """

    integrand: str | PayoffSpec
    dimension: int | None = None
    reference_value: float | str | None = None
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = DEFAULT_REPLICATIONS
    master_seed: int = 0
    sampler: str = "scrambled_net"
    slack: float = DEFAULT_SLOPE_SLACK
    entry: CatalogEntry = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dimension is not None and self.dimension < 1:
            raise ContractError(f"dimension must be >= 1, got {self.dimension}")
        if self.sampler not in SAMPLERS:
            raise ContractError(f"unknown sampler {self.sampler!r}")
        integrand = _PAYOFF_STUDIES.get(self.integrand, self.integrand)
        object.__setattr__(self, "integrand", integrand)
        if self.sampler == "scrambled_net" and isinstance(integrand, PayoffSpec):
            # A net the direction table cannot give is refused before the
            # payoff's d x d path factor is built.
            load_direction_numbers().direction_integers(integrand.model.d)
        # A dimension the integrand cannot take is rejected before any net
        # is drawn.
        entry = _entry(integrand)
        d = self.dimension if self.dimension is not None else entry.dimension or 2
        if entry.dimension not in (None, d):
            raise ContractError(
                f"integrand {entry.name!r} is defined for d={entry.dimension}"
            )
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "dimension", d)
        if self.reference_value is None:
            object.__setattr__(self, "reference_value", entry.reference)
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
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ContractError(f"slack must be finite and >= 0, got {self.slack}")
        if isinstance(self.reference_value, str):
            # the tag is valid only as the entry's own reference, which
            # dataclasses.replace passes back in for a geometric study
            if not self.reference_value == entry.reference == GEOMETRIC_ORACLE:
                raise ContractError(
                    f"reference_value must be a number or {GEOMETRIC_ORACLE!r}, "
                    "which applies only to the geometric indicator payoff"
                )
        elif self.reference_value is not None and not math.isfinite(
            self.reference_value
        ):
            raise ContractError("reference_value must be finite")


def _entry(integrand: str | PayoffSpec) -> CatalogEntry:
    """The catalog entry of a name, or the entry a payoff spec implies.

    A payoff's path factor is built here, once per study.
    """
    if not isinstance(integrand, PayoffSpec):
        entry = CATALOG.get(integrand)
        if entry is None:
            raise ContractError(f"unknown integrand {integrand!r}")
        return entry
    spec, d = integrand, integrand.model.d
    geometric = spec.kind == "geometric_indicator_payoff"
    a = path_factor(spec.model, spec.factor)

    def f(u: np.ndarray) -> np.ndarray:
        """Discounted payoff per row; row i's value depends only on row i of u."""
        return payoff_eval(spec, generate_path(u, spec.model, a))

    return CatalogEntry(
        name=f"{spec.kind}[{spec.factor}]",
        dimension=d,
        # the ot factor is rotated for the geometric weight only
        irregular_dimension=1 if geometric and spec.factor == "ot" else d,
        max_growth=0.0,
        reference=GEOMETRIC_ORACLE if geometric else None,
        f=f,
    )


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
    excluded_n: tuple[int, ...] = ()


def resolve_reference(config: StudyConfig) -> float:
    """The study's exact integral: its number, or the geometric oracle's price."""
    ref = config.reference_value
    if ref is None:
        raise ContractError(
            f"no oracle for payoff {config.integrand.kind!r}: "
            "provide `reference = <value>`"
        )
    if ref == GEOMETRIC_ORACLE:
        return geometric_asian_price(config.integrand.model)
    return float(ref)


# Multiply-adds per row block of the transform: a block of 2^17 // d^2 rows
# keeps generate_path's (rows, d) @ (d, d) dgemm at most half OpenBLAS's 2^18
# threading cutoff.  On (rows, 4) @ (4, 4) a BLAS worker ran at 2^16 rows and
# at no size up to 2^14 rows; asian_rho's `s @ j` woke none up to 2^16.  So
# no BLAS worker wakes and then spin-waits through the single-threaded work
# that follows.  Smaller blocks cost more in per-call overhead: at d = 4,
# blocks of 2048 rows made the transform about 12% slower than 8192 rows.
_BLOCK_MADDS = 2**17


# Studies with n_max of at least this many rows run their replicates on a
# thread pool.  Below it, GIL handoffs between the many short numpy calls of
# two replicates cost more than they overlap (see BENCH_pool.json).
_PARALLEL_ROWS = 2**16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def replicate_estimates(config: StudyConfig) -> np.ndarray:
    """The R independent estimates Ihat_k at each n of the grid.

    Returns an array of shape (len(n_grid), R); row i holds the estimates
    at ``n_grid[i]``.  Replicate k is drawn once at the largest n, and its
    estimate at n is the mean of its first n values, which equals a
    separate draw at n: replicate k is a pure function of (config, n, k).

    The integrand is evaluated on blocks of ``max(1, 2**17 // d**2)`` rows
    (plain-MC points are drawn per block), which gives the same values as
    one call on all rows, since row i's value depends only on row i.  At
    that size the path transform's matrix product stays below OpenBLAS's
    threading cutoff, so no BLAS worker wakes and is left spinning.

    Grids with n_max >= 2^16 run the replicates on ``min(R, usable CPUs)``
    threads and collect them in k order, so the estimates do not depend on
    the schedule; on an error the queued replicates are cancelled and the
    lowest failing k's error is raised.  Shorter grids run inline.
    """
    f = config.entry.f
    n_grid = config.n_grid
    n_max = n_grid[-1]
    d = config.dimension
    block = max(1, _BLOCK_MADDS // d**2)
    if config.sampler == "scrambled_net":
        net = generate_net(n_max.bit_length() - 1, d)

    def prefix_means(k: int) -> list[float]:
        # u and vals die on return, before this thread draws its next replicate.
        seed = ScrambleSeed(config.master_seed, k)
        if config.sampler == "scrambled_net":
            u = scramble(net, seed).coords
        blocks = []
        for start in range(0, n_max, block):
            if config.sampler == "scrambled_net":
                rows = u[start : start + block]
            else:
                rows = uniform_points(seed, min(block, n_max - start), d, start)
            blocks.append(np.asarray(f(rows), dtype=np.float64))
            if not np.all(np.isfinite(blocks[-1])):
                point = rows[np.argmin(np.isfinite(blocks[-1]))].tolist()
                raise ContractError(
                    f"integrand returned a non-finite value at point {point} "
                    f"(replicate {k})"
                )
        # Joined at the end: a buffer allocated before the draws made glibc
        # trim and re-fault the heap on every replicate of short plain-MC grids.
        vals = np.concatenate(blocks)
        return [vals[:n].mean() for n in n_grid]

    workers = min(config.replications, _usable_cpus())
    if n_max < _PARALLEL_ROWS or workers < 2:
        means = list(map(prefix_means, range(config.replications)))
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            means = list(pool.map(prefix_means, range(config.replications)))
        finally:
            pool.shutdown(cancel_futures=True)
    return np.array(means).T


def expected_abs_error(config: StudyConfig) -> tuple[ErrorRecord, ...]:
    """One record of the R estimates per n of the grid, against the reference.

    The reference is resolved before any replicate is drawn.
    """
    reference = resolve_reference(config)
    return tuple(
        ErrorRecord(n=n, reference=reference, estimates=tuple(row))
        for n, row in zip(config.n_grid, replicate_estimates(config))
    )


def fit_rate(records: Sequence[ErrorRecord]) -> RateFit:
    """Least-squares slope of the error decay on the log2-log2 scale.

    Records with zero mean absolute error carry no log-scale information
    and are excluded (their n values are reported on the fit).
    """
    usable, excluded = [], []
    for rec in records:
        (excluded if rec.mean_abs_error == 0.0 else usable).append(rec)
    if len(usable) < MIN_FIT_RECORDS:
        raise InsufficientDataError(
            f"rate fit needs >= {MIN_FIT_RECORDS} usable records, got {len(usable)}"
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
    exponent = theoretical_exponent(
        config.dimension, config.entry.irregular_dimension, config.entry.max_growth
    )
    if len(config.n_grid) < MIN_FIT_RECORDS:
        # refused before any replicate is drawn: fit_rate would refuse it after
        raise InsufficientDataError(
            f"rate fit needs >= {MIN_FIT_RECORDS} usable records, "
            f"but n_grid has {len(config.n_grid)} sizes"
        )
    records = expected_abs_error(config)
    fit = fit_rate(records)
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
                    report.config.entry.name,
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
        "integrand": cfg.entry.name,
        "dimension": cfg.dimension,
        "irregular_dimension": cfg.entry.irregular_dimension,
        "max_growth": cfg.entry.max_growth,
        "reference_value": cfg.reference_value,
        "n_grid": list(cfg.n_grid),
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "sampler": cfg.sampler,
        "slack": cfg.slack,
    }
    if isinstance(cfg.integrand, PayoffSpec):
        m = cfg.integrand.model
        echo["factor_method"] = cfg.integrand.factor
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
        "reference": report.records[0].reference,
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
# a frozen high-precision quadrature constant is noted.  README.md's catalog
# table describes each entry; a test checks it against these values.


@dataclass(frozen=True)
class CatalogEntry:
    """A named integrand: its declared geometry, exact mean and function.

    ``reference`` is the exact mean: a number, ``GEOMETRIC_ORACLE``, or
    ``None`` for a payoff with no closed form.  ``f(u)`` maps an (n, d)
    point array to n values, reading d from ``u.shape[1]``, and its value
    at row i depends only on row i.  Studies rely on this: they evaluate
    each replicate once at the largest n and read smaller n off a prefix.
    """

    name: str
    dimension: int | None  # None: any d >= 1
    irregular_dimension: int
    max_growth: float
    reference: float | str | None
    f: Callable[[np.ndarray], np.ndarray]


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
            reference=1.0,
            f=lambda u: np.prod(1.0 + u, axis=1) * 1.5 ** -u.shape[1],
        ),
        CatalogEntry(
            name="halfspace",
            dimension=2,
            irregular_dimension=2,
            max_growth=0.0,
            reference=0.5,
            f=lambda u: (u[:, 0] + u[:, 1] < 1.0).astype(np.float64),
        ),
        CatalogEntry(
            name="axis_box",
            dimension=2,
            irregular_dimension=1,
            max_growth=0.1,
            reference=(0.5**0.9 / 0.9) * (0.75**0.9 / 0.9),
            f=lambda u: (u[:, 0] * u[:, 1]) ** -0.1
            * ((u[:, 0] < 0.5) & (u[:, 1] < 0.75)),
        ),
        CatalogEntry(
            name="axis_singular",
            dimension=2,
            irregular_dimension=1,
            max_growth=0.1,
            reference=((1.0 - 3.0**-0.9) / 0.9) * (1.0 / 0.9),
            f=lambda u: (u[:, 0] * u[:, 1]) ** -0.1 * (u[:, 0] > 1.0 / 3.0),
        ),
        CatalogEntry(
            name="corner_singular",
            dimension=2,
            irregular_dimension=2,
            max_growth=0.4,
            reference=_CORNER_SINGULAR_REF,
            f=lambda u: (u[:, 0] * u[:, 1]) ** -0.4 * (u[:, 0] + u[:, 1] < 1.5),
        ),
    ]
}

# Payoff studies of the geometric payoff on the shared market constants,
# one per factor.
_PAYOFF_STUDIES = {
    f"geometric_{factor}": PayoffSpec(
        "geometric_indicator_payoff", STANDARD_MODEL, factor
    )
    for factor in ("ot", "cholesky")
}

CATALOG_NAMES = tuple(CATALOG) + tuple(_PAYOFF_STUDIES)
