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
covers the regimes of interest: smooth, discontinuous, discontinuous with
boundary singularities (axis-parallel and not), and option payoffs driven by
the finance module under both path factorizations.  Every integrand, a catalog
name, a ``PayoffSpec`` or a custom ``CatalogEntry``, resolves once per study to
one ``CatalogEntry`` of values: its name, d, d_u, maxA, exact mean and the
function ``f(u)``, which reads d from ``u``; a payoff's ``f`` is built only when
its study runs.  A reference is a number or ``GEOMETRIC_ORACLE``, the price
of the geometric payoff (S_G - K)^+, which is continuous with a kink on
S_G = K; ``ot`` makes its indicator factor 1{S_G > K} axis-parallel.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .digital_nets import direction_integers, generate_net
from .errors import (
    CapacityError, ContractError, index, index_fields, instance, real, real_fields
)
from .finance import (
    GbmModel,
    PayoffSpec,
    chunk_rows,
    geometric_asian_price,
    payoff_integrand,
)
from .scrambling import ScrambleSeed, scramble, uniform_points

SAMPLERS = ("scrambled_net", "plain_mc")

DEFAULT_REPLICATIONS = 32
DEFAULT_SLOPE_SLACK = 0.12  # absorbs the theorem's poly-log factor at desk scale
MIN_FIT_RECORDS = 4  # records a rate fit needs, and sizes a study's grid needs
# Caps on a study's size, log2: points per replicate (`rqmc points` has this
# cap too), replicates, and points over all replicates (n_max * R), which
# admits n_max = 2^20 at R = 64.
MAX_POINTS_LOG2 = 20
_MAX_REPLICATIONS_LOG2 = 16
_MAX_DRAWS_LOG2 = 26

# Market constants shared by the shipped payoff studies.
STANDARD_MODEL = GbmModel(s0=1.0, r=0.05, sigma=0.2, maturity=1.0, d=4, strike=1.0)

# Each GbmModel field's key in a rate-study config and a report's model echo.
MODEL_KEYS = dict(s0="s0", r="r", sigma="sigma", maturity="T", d="d", strike="K")

# The one oracle: the geometric payoff's closed-form lognormal price.
GEOMETRIC_ORACLE = "oracle:geometric_asian"


def theoretical_exponent(d: int, d_u: int, max_growth: float) -> float:
    """Predicted |error| decay exponent: (1 - maxA) * (1/2 + 1/(4 d_u - 2)).

    d_u = d recovers the general-position prediction; d_u = 1
    (QMC-friendly, axis-parallel discontinuity) gives exponent 1 - maxA.
    """
    d, d_u = index("d", d), index("d_u", d_u)
    max_growth = real("max_growth", max_growth)
    if not 1 <= d_u <= d:
        raise ContractError("need 1 <= d_u <= d")
    if max_growth < 0:
        raise ContractError(f"growth exponent must be >= 0, got {max_growth}")
    if max_growth >= 1:
        raise ContractError(
            f"max growth exponent {max_growth} >= 1: the singularity bound "
            "is not even integrable, no rate is predicted"
        )
    return (1.0 - max_growth) * (0.5 + 1.0 / (4 * d_u - 2))


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one rate study, checked but not built.

    ``integrand`` is one of ``CATALOG_NAMES``, where ``geometric_ot`` and
    ``geometric_cholesky`` name their ``PayoffSpec``, a payoff bound to a
    model and a path factor, or a custom study's own ``CatalogEntry``.  It
    resolves once, at construction, to ``entry``, the ``CatalogEntry`` that
    the study echoes; ``entry`` is derived, not a constructor argument.  The
    entry alone declares d_u and maxA, which the predicted rate reads; a
    custom entry whose name is no str, or whose d, d_u and maxA predict no
    rate (`theoretical_exponent`), is refused.

    ``dimension`` and ``reference_value`` left as ``None`` are the entry's
    (d = 2 when the entry takes any d).  ``reference_value`` is the exact
    integral: a number, or ``GEOMETRIC_ORACLE`` for the geometric payoff
    (S_G - K)^+, continuous with a kink on S_G = K; any other payoff needs a
    number before a study of it can run.  A payoff's entry has
    ``dimension = model.d``, maxA = 0, and d_u = 1 only for the geometric
    payoff under ``ot``, which makes its indicator factor 1{S_G > K}
    axis-parallel; every other payoff has d_u = d.

    The sample sizes, ``n_grid``, are every power of two from ``n_min`` to
    ``n_max``: both powers of two, ``n_min <= n_max``.  ``n_min``, ``n_max``,
    ``replications``, ``master_seed`` and ``dimension`` take integers, and
    ``slack`` and a numeric ``reference_value`` finite reals (numpy's too,
    not bools); others are a `ContractError` naming the field.  A config
    does no work: its refusals and the caps (`CapacityError`) build no net,
    path factor or function and load no ``scipy.special``.
    """

    integrand: str | CatalogEntry | PayoffSpec
    dimension: int | None = None
    reference_value: float | str | None = None
    n_min: int = 2**6
    n_max: int = 2**16
    replications: int = DEFAULT_REPLICATIONS
    master_seed: int = 0
    sampler: str = "scrambled_net"
    slack: float = DEFAULT_SLOPE_SLACK
    entry: CatalogEntry = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.sampler not in SAMPLERS:
            raise ContractError(f"unknown sampler {self.sampler!r}")
        seed = ScrambleSeed(self.master_seed)  # a bad seed is refused before any work
        object.__setattr__(self, "master_seed", seed.master_seed)
        index_fields(self, "n_min", "n_max", "replications")
        for n in (self.n_min, self.n_max):
            if n < 1 or n & (n - 1):
                raise ContractError(f"sample sizes must be powers of 2, got {n}")
        if self.n_max < self.n_min:
            raise ContractError("n_max must be >= n_min")
        n, r = self.n_max, self.replications
        if r < 8:
            raise ContractError("need at least 8 replications")
        if n > 2**MAX_POINTS_LOG2:
            raise CapacityError(
                f"at most 2^{MAX_POINTS_LOG2} points per replicate, got {n}"
            )
        if r > 2**_MAX_REPLICATIONS_LOG2:
            raise CapacityError(
                f"at most 2^{_MAX_REPLICATIONS_LOG2} replicates, got {r}"
            )
        if n * r > 2**_MAX_DRAWS_LOG2:
            raise CapacityError(
                f"at most 2^{_MAX_DRAWS_LOG2} points over all replicates, "
                f"got n = {n} times R = {r}"
            )
        if self.dimension is not None:
            index_fields(self, "dimension")
        real_fields(self, "slack")
        if self.slack < 0:
            raise ContractError(f"slack must be >= 0, got {self.slack}")
        integrand, entry = _resolve(self.integrand)
        d = self.dimension if self.dimension is not None else entry.dimension or 2
        # every sampler has the direction table's cap: plain MC is the
        # control for a net of the same d
        direction_integers(d)
        if entry.dimension not in (None, d):
            raise ContractError(
                f"integrand {entry.name!r} is defined for d={entry.dimension}"
            )
        # a custom entry's declarations, checked before any draw
        instance("name", entry.name, str)
        theoretical_exponent(d, entry.irregular_dimension, entry.max_growth)
        ref = entry.reference if self.reference_value is None else self.reference_value
        if isinstance(ref, str):
            # the tag is valid only as a payoff's own reference: the geometric's
            if not (isinstance(integrand, PayoffSpec) and ref == entry.reference):
                raise ContractError(
                    f"reference_value must be a number or {GEOMETRIC_ORACLE!r}, "
                    "which applies only to the geometric indicator payoff"
                )
        elif ref is not None:
            ref = real("reference_value", ref)
        object.__setattr__(self, "integrand", integrand)
        object.__setattr__(self, "entry", entry)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "reference_value", ref)

    @property
    def n_grid(self) -> tuple[int, ...]:
        """The sample sizes: every power of two from ``n_min`` to ``n_max``."""
        lo, hi = self.n_min.bit_length() - 1, self.n_max.bit_length() - 1
        return tuple(2**k for k in range(lo, hi + 1))


def _resolve(integrand) -> tuple[str | CatalogEntry | PayoffSpec, CatalogEntry]:
    """The integrand, a payoff study's name replaced by its spec, and its entry.

    It declares facts only: a payoff's entry has ``f = None``, and
    ``replicate_estimates`` builds its function.
    """
    named = _STUDIES.get(integrand) if isinstance(integrand, str) else integrand
    if isinstance(named, CatalogEntry) and callable(named.f):
        return integrand, named
    if not isinstance(named, PayoffSpec):
        raise ContractError(
            f"unknown integrand {integrand!r}: need a name in CATALOG_NAMES, "
            "a PayoffSpec or a CatalogEntry with a function f"
        )
    d, geometric = named.model.d, named.kind == "geometric_indicator_payoff"
    # the ot factor is rotated for the geometric weight only
    d_u = 1 if geometric and named.factor == "ot" else d
    ref = GEOMETRIC_ORACLE if geometric else None
    name = f"{named.kind}[{named.factor}]"
    return named, CatalogEntry(name, d, d_u, 0.0, ref, f=None)


@dataclass(frozen=True)
class ErrorRecord:
    """Replicate estimates at one sample size, against a known reference."""

    n: int
    reference: float
    estimates: tuple[float, ...]

    def __post_init__(self):
        # refused here, so no later read of either warns or is not finite
        _finite(f"mean absolute error at n={self.n}", lambda: self.mean_abs_error)
        _finite(f"standard error at n={self.n}", lambda: self.std_error)

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
        return _std_error(self.abs_errors)


def _std_error(x: np.ndarray) -> float:
    return float(x.std(ddof=1) / math.sqrt(len(x)))


def _finite(quantity: str, compute: Callable[[], float]) -> float:
    """``compute()``, a float that must be finite: one that overflows is a
    `ContractError` naming ``quantity``, without numpy's RuntimeWarning."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(compute())
    if not math.isfinite(value):
        raise ContractError(f"the {quantity} is {value}, not a finite float")
    return value


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
            f"no oracle for integrand {config.entry.name!r}: "
            "provide `reference = <value>`"
        )
    if ref == GEOMETRIC_ORACLE:
        return geometric_asian_price(config.integrand.model)
    return float(ref)


# A row block holds at most this many coordinates.  Long blocks keep the
# per-call overhead of the draw and the integrand small: on plain-MC studies,
# blocks of 2^17 coordinates instead of one dgemm chunk took 17% less time at
# d = 4 and 95% less at d = 64 (see BENCH_blocks.json).
_BLOCK_COORDS = 2**17


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

    The integrand is evaluated on blocks of at most 2^17 coordinates
    (plain-MC points are drawn per block), each as many ``chunk_rows(d)``
    row chunks as fit, at least one: 32768 rows at d = 4, 2048 at d = 64.
    Cut on chunk boundaries, they get the values of one ``generate_path``
    call on all rows.  Each block's values, one finite float per point,
    are written into the replicate's one buffer of n_max values, and each
    prefix mean must be finite too.

    Grids with n_max >= 2^16 run the replicates on ``min(R, usable CPUs)``
    threads and collect them in k order, so the estimates do not depend on
    the schedule; on an error the queued replicates are cancelled and the
    lowest failing k's error is raised.  Shorter grids run inline.

    A payoff's function, ``payoff_integrand(spec)``, is built here once per
    call, on the calling thread, before any replicate is drawn.
    """
    f = config.entry.f or payoff_integrand(config.integrand)
    n_grid, n_max, d = config.n_grid, config.n_max, config.dimension
    chunk = chunk_rows(d)
    block = chunk * max(1, _BLOCK_COORDS // (chunk * d))
    if config.sampler == "scrambled_net":
        net = generate_net(n_max.bit_length() - 1, d)

        def draw_for(seed: ScrambleSeed):
            u = scramble(net, seed).coords
            return lambda start, stop: u[start:stop]
    else:
        def draw_for(seed: ScrambleSeed):
            return lambda start, stop: uniform_points(seed, stop - start, d, start)

    def prefix_means(k: int) -> list[float]:
        # draw and vals die on return, before this thread's next replicate.
        draw = draw_for(ScrambleSeed(config.master_seed, k))
        vals = np.empty(n_max)
        for start in range(0, n_max, block):
            stop = min(start + block, n_max)
            rows = draw(start, stop)
            out = np.asarray(f(rows), dtype=np.float64)
            if out.shape != (stop - start,):
                raise ContractError(
                    f"integrand {config.entry.name!r} returned values of shape "
                    f"{out.shape} for {stop - start} points; need one per point"
                )
            if not np.all(np.isfinite(out)):
                point = rows[np.argmin(np.isfinite(out))].tolist()
                raise ContractError(
                    f"integrand returned a non-finite value at point {point} "
                    f"(replicate {k})"
                )
            vals[start:stop] = out
            del rows, out  # freed before the next block is drawn
        return [
            _finite(f"mean of replicate {k} at n={n}", vals[:n].mean) for n in n_grid
        ]

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
        raise ContractError(
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
        raise ContractError(
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
    cfg = report.config
    for rec in report.records:
        row = [cfg.entry.name, cfg.sampler, str(rec.n), str(rec.replications)]
        row += [_g17(rec.mean_abs_error), _g17(rec.std_error)]
        lines.append(",".join(row))
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
        echo["model"] = {key: getattr(m, field) for field, key in MODEL_KEYS.items()}
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
    return _json(obj)


def price_report(
    spec: PayoffSpec, n: int, replications: int, master_seed: int, fmt: str
) -> str:
    """``rqmc price``'s ``"json"`` or ``"text"`` report of a payoff at one n:
    the mean of R scrambled-net replicates, their standard error and, for the
    geometric payoff, its closed-form oracle price.  It is the study of
    ``spec`` at ``n_min = n_max = n``, whose refusals come before any work; a
    non-payoff ``spec`` or an unknown ``fmt`` is refused before that study.
    """
    if not isinstance(spec, PayoffSpec):
        raise ContractError(f"a price needs a PayoffSpec, got {spec!r}")
    if fmt not in ("json", "text"):
        raise ContractError(f"unknown price format {fmt!r}: use 'json' or 'text'")
    config = StudyConfig(
        spec, n_min=n, n_max=n, replications=replications, master_seed=master_seed
    )
    (estimates,) = replicate_estimates(config)
    result: dict = {
        "payoff": spec.kind,
        "factor": spec.factor,
        "n": config.n_max,
        "R": config.replications,
        "estimate": _finite("estimate", estimates.mean),
        "std_error": _finite("standard error", lambda: _std_error(estimates)),
    }
    if config.reference_value is not None:
        result["oracle"] = resolve_reference(config)
    if fmt == "json":
        return _json(result)
    return "".join(
        f"{k} {_g17(v) if isinstance(v, float) else v}\n" for k, v in result.items()
    )


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    A payoff's entry states facts only: its ``f`` is ``None``, and a study
    builds the payoff's function when it runs.  A custom study passes its
    own entry as ``StudyConfig.integrand``.
    """

    name: str
    dimension: int | None  # None: any d >= 1
    irregular_dimension: int
    max_growth: float
    reference: float | str | None
    f: Callable[[np.ndarray], np.ndarray] | None


# integral of (u1 u2)^-0.4 over {u1 + u2 < 3/2}; frozen from 40-digit
# quadrature of (1/0.6)^2 - int_{1/2}^1 u^-0.4 (1 - (3/2-u)^0.6)/0.6 du
_CORNER_SINGULAR_REF = 2.631626082020582

CATALOG = MappingProxyType({
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
})

# Payoff studies of the geometric payoff on the shared market constants,
# one per factor.
_PAYOFF_STUDIES = {
    f"geometric_{factor}": PayoffSpec(
        "geometric_indicator_payoff", STANDARD_MODEL, factor
    )
    for factor in ("ot", "cholesky")
}

_STUDIES = {**CATALOG, **_PAYOFF_STUDIES}
CATALOG_NAMES = tuple(_STUDIES)
