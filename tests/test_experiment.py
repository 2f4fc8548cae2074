"""Replicated error measurement, rate fitting, and the integrand catalog."""

import json
import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from goldens import GOLDEN_REPORTS, report_digest

from rqmc import experiment as ex
from rqmc import finance
from rqmc.digital_nets import certify_t, generate_net, verify_net
from rqmc.errors import CapacityError, ContractError
from rqmc.experiment import (
    CATALOG,
    CATALOG_NAMES,
    MIN_FIT_RECORDS,
    SAMPLERS,
    STANDARD_MODEL,
    CatalogEntry,
    ErrorRecord,
    StudyConfig,
    expected_abs_error,
    fit_rate,
    price_report,
    replicate_estimates,
    report_to_csv,
    report_to_json,
    run_study,
    theoretical_exponent,
)
from rqmc.finance import (
    FACTOR_METHODS,
    PAYOFF_KINDS,
    GbmModel,
    PayoffSpec,
    chunk_rows,
    generate_path,
    geometric_asian_price,
    geometric_threshold,
    path_factor,
    payoff_eval,
    payoff_integrand,
)
from rqmc.scrambling import ScrambleSeed, scramble, uniform_points
from rqmc.singularity import extension_1d

SMALL_GRID = (64, 128, 256, 512, 1024)


# ---------------------------------------------------------------- exponent


def test_theoretical_exponent_values():
    assert theoretical_exponent(2, 2, 0.0) == pytest.approx(2.0 / 3.0)
    assert theoretical_exponent(4, 1, 0.0) == pytest.approx(1.0)
    assert theoretical_exponent(2, 2, 0.5) == pytest.approx(1.0 / 3.0)
    assert theoretical_exponent(4, 4, 0.1) == pytest.approx(0.9 * (0.5 + 1 / 14))


def test_theoretical_exponent_contracts():
    with pytest.raises(ContractError):
        theoretical_exponent(2, 0, 0.0)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 3, 0.0)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 1, -0.1)
    for max_growth in (1.0, 1.2):
        with pytest.raises(
            ContractError,
            match=f"^max growth exponent {max_growth} >= 1: the singularity bound is not",
        ):
            theoretical_exponent(2, 1, max_growth)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 1, math.nan)


# ---------------------------------------------------------------- config


def base_config(**overrides) -> StudyConfig:
    kw = dict(
        integrand="halfspace",
        dimension=2,
        reference_value=0.5,
        n_min=64,
        n_max=1024,
        replications=8,
    )
    kw.update(overrides)
    return StudyConfig(**kw)


def test_config_validation():
    with pytest.raises(ContractError):
        base_config(n_min=64, n_max=100)
    with pytest.raises(ContractError):
        base_config(n_min=256, n_max=128)
    with pytest.raises(ContractError):
        base_config(replications=4)
    with pytest.raises(ContractError):
        base_config(sampler="latin_hypercube")
    with pytest.raises(ContractError):
        base_config(slack=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ContractError):
            base_config(slack=bad)
    with pytest.raises(ContractError):
        base_config(reference_value="exact")
    with pytest.raises(ContractError):
        base_config(reference_value=math.nan)


@pytest.mark.parametrize(
    "n_grid, replications, cap",
    [
        ((64, 2**21), 8, "2^20 points per replicate"),
        ((64, 128, 256, 512), 10**8, "2^16 replicates"),
        ((2**20,), 128, "2^26 points over all replicates"),
    ],
)
def test_config_capacity_caps(monkeypatch, n_grid, replications, cap):
    # refused by the library before the entry builds a path factor, so
    # every caller of StudyConfig has the caps `rqmc` has
    def no_factor(*args):
        raise AssertionError("the path factor was built")

    monkeypatch.setattr(ex, "payoff_integrand", no_factor)
    for integrand in ("halfspace", "geometric_ot"):
        with pytest.raises(CapacityError, match=re.escape(f"at most {cap}")):
            StudyConfig(
                integrand,
                n_min=n_grid[0],
                n_max=n_grid[-1],
                replications=replications,
            )


def test_sizes_are_every_power_of_two_from_n_min_to_n_max():
    cfg = StudyConfig("halfspace", n_min=64, n_max=1024, replications=8)
    assert cfg.n_grid == (64, 128, 256, 512, 1024)
    assert replace(cfg, n_min=256, n_max=256).n_grid == (256,)
    # one message for either end, which reads right for `rqmc price -n` too
    for n_min, n_max, bad in ((100, 1024, 100), (64, 0, 0), (64, 3, 3), (-64, 64, -64)):
        with pytest.raises(
            ContractError, match=f"^sample sizes must be powers of 2, got {bad}$"
        ):
            StudyConfig("halfspace", n_min=n_min, n_max=n_max, replications=8)
    with pytest.raises(ContractError, match="^n_max must be >= n_min$"):
        StudyConfig("halfspace", n_min=1024, n_max=64, replications=8)


def test_refusals_come_seed_then_sizes_then_caps(monkeypatch):
    def no_factor(*args):
        raise AssertionError("the path factor was built")

    monkeypatch.setattr(ex, "payoff_integrand", no_factor)
    with pytest.raises(ContractError, match="master_seed must fit in 64 bits"):
        StudyConfig("geometric_ot", master_seed=-1, n_min=100)
    with pytest.raises(ContractError, match="sample sizes must be powers of 2"):
        StudyConfig("geometric_ot", n_min=100, n_max=2**21, replications=10**8)
    with pytest.raises(ContractError, match="n_max must be >= n_min"):
        StudyConfig("geometric_ot", n_min=2**22, n_max=2**21)


@pytest.fixture
def no_work(monkeypatch):
    """Make any net, scramble, uniform draw, path factor, payoff function or
    ``scipy.special`` load fail the test."""

    def work(*args, **kwargs):
        raise AssertionError("work before the refusal")

    for module, name in (
        (ex, "payoff_integrand"),
        (ex, "generate_net"),
        (ex, "scramble"),
        (ex, "uniform_points"),
        (finance, "path_factor"),
        (finance, "_special"),
    ):
        monkeypatch.setattr(module, name, work)


CUSTOM = CatalogEntry(
    name="custom_linear",
    dimension=None,
    irregular_dimension=1,
    max_growth=0.0,
    reference=0.5,
    f=lambda u: u[:, 0].copy(),
)


@pytest.mark.parametrize(
    "integrand",
    [*CATALOG_NAMES]
    + [PayoffSpec(k, STANDARD_MODEL, f) for k in PAYOFF_KINDS for f in FACTOR_METHODS]
    + [CUSTOM],
    ids=lambda x: x if isinstance(x, str) else getattr(x, "name", None)
    or f"{x.kind}[{x.factor}]",
)
def test_a_config_builds_nothing(no_work, integrand):
    # A config states facts: a payoff's path factor, function and
    # scipy.special wait for its study.  A payoff's config used to build
    # them, so `StudyConfig("geometric_ot", dimension=3)` built the factor
    # and loaded scipy.special before its refusal.
    cfg = StudyConfig(integrand)
    assert replace(cfg, master_seed=1).entry == cfg.entry
    if isinstance(cfg.integrand, PayoffSpec):
        assert cfg.entry.f is None
    if cfg.entry.dimension is not None:
        d = cfg.entry.dimension
        with pytest.raises(ContractError, match=f"is defined for d={d}$"):
            StudyConfig(integrand, dimension=d - 1)


def test_each_study_builds_a_payoff_function_once_on_the_calling_thread(monkeypatch):
    built = []

    def counting(spec):
        built.append(threading.current_thread())
        return payoff_integrand(spec)

    monkeypatch.setattr(ex, "payoff_integrand", counting)
    monkeypatch.setattr(ex, "_PARALLEL_ROWS", 1024)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
    config = StudyConfig(spec, n_min=128, n_max=1024, replications=8)
    assert built == []
    for run in (
        lambda: replicate_estimates(config),  # on the pool
        lambda: run_study(config),
        lambda: price_report(spec, 1024, 8, 0, "json"),
    ):
        built.clear()
        run()
        assert built == [threading.current_thread()]


def test_front_door_types_are_refused_by_field(no_work):
    # a list used to escape the alias lookup as "unhashable type: 'list'", and
    # a str model to construct and fail a study with "no attribute 'd'"
    with pytest.raises(ContractError, match=r"^unknown integrand \['x'\]: need a name"):
        StudyConfig(["x"])
    with pytest.raises(ContractError, match="^model must be a GbmModel, got 'x'$"):
        PayoffSpec("asian_call", "x")
    # a payoff's entry states facts only: with no function it is no integrand
    with pytest.raises(ContractError, match="a CatalogEntry with a function f$"):
        StudyConfig(StudyConfig("geometric_ot").entry)


def test_catalog_is_read_only():
    # a custom study passes its entry by value; no study adds to the catalog
    with pytest.raises(TypeError):
        CATALOG["custom_linear"] = CUSTOM
    with pytest.raises(TypeError):
        del CATALOG["halfspace"]
    assert StudyConfig(CUSTOM).entry is CUSTOM
    assert "custom_linear" not in CATALOG_NAMES


def test_integer_fields_refuse_non_integers_before_any_work(no_work):
    # A float size used to be truncated (a price at n = 64.5 printed n 64), and
    # a float R, seed or d passed every check and raised a TypeError after the
    # path factor was built.  A bool used to be taken as 0 or 1: n_min = True
    # ran a grid from n = 1, and d = True built a one-date model.
    spec = PayoffSpec("asian_call", STANDARD_MODEL)
    for n, r, seed, field, bad in (
        (64.5, 8, 0, "n_min", "64.5"),
        ("64", 8, 0, "n_min", "'64'"),
        (64, 8.5, 0, "replications", "8.5"),
        (64, 8, 1.5, "master_seed", "1.5"),
        (True, 8, 0, "n_min", "True"),
        (64, 8, True, "master_seed", "True"),
    ):
        with pytest.raises(ContractError, match=f"^{field} must be an integer, got {bad}$"):
            price_report(spec, n, r, seed, "text")
    for overrides, field in (
        (dict(dimension=2.5), "dimension"),
        (dict(n_max=1024.0), "n_max"),
        (dict(replications=None), "replications"),
        (dict(n_min=True), "n_min"),
        (dict(dimension=True), "dimension"),
    ):
        with pytest.raises(ContractError, match=f"^{field} must be an integer"):
            StudyConfig("smooth_product", **overrides)
    with pytest.raises(ContractError, match="^d must be an integer, got True$"):
        replace(STANDARD_MODEL, d=True)


def test_real_fields_refuse_non_reals_before_any_work(no_work):
    # A str or list slack or reference used to escape as a TypeError from
    # math.isfinite, after the path factor was built; a bool slack was echoed
    # as `"slack": true`; an int too large for a float was an OverflowError.
    bads = ([0.5], True, 0.5j, Decimal("0.5"), math.nan, -math.inf)
    for field in ("slack", "reference_value"):
        for bad in bads + (("0.1",) if field == "slack" else ()):
            with pytest.raises(
                ContractError,
                match=f"^{field} must be finite and real, got {re.escape(repr(bad))}$",
            ):
                StudyConfig("geometric_ot", **{field: bad})
        # not shown: the digits of an int past 10^4300 fail str() itself
        for huge in (10**400, -(10**5000)):
            with pytest.raises(
                ContractError, match=f"^{field} must be finite, got a number too large"
            ):
                StudyConfig("geometric_ot", **{field: huge})
    with pytest.raises(ContractError, match="^slack must be >= 0, got -0.1$"):
        StudyConfig("geometric_ot", slack=-0.1)
    for bad in bads + ("1", 10**400):
        with pytest.raises(ContractError, match="^s0 must be finite"):
            PayoffSpec("asian_call", replace(STANDARD_MODEL, s0=bad))


@pytest.mark.parametrize(
    "fn, args, field, bad",
    [
        (generate_net, (3.5, 2), "m", 3.5),  # was 12 points
        (generate_net, (True, 2), "m", True),  # was 2 points
        (generate_net, (3, 2.0), "d", 2.0),
        (uniform_points, (ScrambleSeed(0), 4, 2, 1.5), "start", 1.5),  # was start 1
        (uniform_points, (ScrambleSeed(0), 4.0, 2), "n", 4.0),
        (uniform_points, (ScrambleSeed(0), 4, 2.0), "d", 2.0),
        (verify_net, (generate_net(2, 2), 0.5), "t", 0.5),
        (verify_net, (generate_net(2, 2), "0"), "t", "0"),
        (verify_net, (generate_net(2, 2), True), "t", True),  # was t = 1
        (verify_net, (generate_net(2, 2), 0, 2.0), "b", 2.0),
        (certify_t, (2, 4.0), "m_max", 4.0),
        (theoretical_exponent, (2.0, 1, 0.0), "d", 2.0),
        (theoretical_exponent, (2, "1", 0.0), "d_u", "1"),
        (theoretical_exponent, (2, 1, "0"), "max_growth", "0"),
        (extension_1d, ("0.5", 0.3, 0.1), "A", "0.5"),
        (extension_1d, (0.5, "0.3", 0.1), "u", "0.3"),
        (extension_1d, (0.5, 0.3, True), "eps", True),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_public_functions_keep_the_number_contract(fn, args, field, bad):
    # Each argument used to be truncated, taken as 0 or 1, or escape as a
    # TypeError; now it is a ContractError naming the argument.
    with pytest.raises(
        ContractError,
        match=f"^{field} must be (an integer|finite and real), got {re.escape(repr(bad))}$",
    ):
        fn(*args)


_U, _A = np.full((2, 4), 0.5), np.eye(4)


@pytest.mark.parametrize(
    "fn, args, field, kind",
    [
        (scramble, (np.zeros((2, 2), np.uint64), ScrambleSeed(0)), "points", "PointSet"),
        (scramble, (generate_net(2, 2), 0), "seed", "ScrambleSeed"),
        (uniform_points, (0, 4, 2), "seed", "ScrambleSeed"),
        (generate_path, (_U, None, _A), "model", "GbmModel"),
        (generate_path, (_U, STANDARD_MODEL, _A.tolist()), "a", "ndarray"),
        (payoff_eval, (None, np.ones((2, 4))), "spec", "PayoffSpec"),
        (payoff_integrand, (None,), "spec", "PayoffSpec"),
        (path_factor, (None, "ot"), "model", "GbmModel"),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_public_functions_refuse_wrong_types_by_argument(no_work, fn, args, field, kind):
    # each used to escape as an AttributeError from the first attribute read
    with pytest.raises(ContractError, match=f"^{field} must be a {kind}, got "):
        fn(*args)


def test_numpy_float_fields_write_the_bytes_of_their_floats():
    # A float32 model or reference used to draw every replicate and then fail
    # in report_to_json: "Object of type float32 is not JSON serializable".
    def study(integrand, **kwargs):
        config = StudyConfig(integrand, n_min=64, n_max=512, replications=8, **kwargs)
        return report_to_json(run_study(config))

    kind = "geometric_indicator_payoff"
    spec = PayoffSpec(kind, STANDARD_MODEL)
    spec32 = PayoffSpec(kind, replace(STANDARD_MODEL, s0=np.float32(1.0)))
    assert study(spec32) == study(spec)
    assert price_report(spec32, 64, 8, 0, "json") == price_report(spec, 64, 8, 0, "json")
    half = study("halfspace", reference_value=0.5)
    assert study("halfspace", reference_value=np.float32(0.5)) == half
    assert study("halfspace", slack=np.float32(0.125)) == study("halfspace", slack=0.125)


def test_numpy_integer_fields_are_taken_as_ints():
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
    i64 = np.int64
    assert price_report(spec, i64(64), i64(8), np.uint64(3), "json") == price_report(
        spec, 64, 8, 3, "json"
    )
    cfg = StudyConfig(
        "smooth_product",
        dimension=np.int32(3),
        n_min=i64(64),
        n_max=i64(512),
        replications=i64(8),
        master_seed=i64(1),
    )
    assert cfg == StudyConfig(
        "smooth_product", dimension=3, n_min=64, n_max=512, replications=8, master_seed=1
    )
    for name in ("dimension", "n_min", "n_max", "replications", "master_seed"):
        assert type(getattr(cfg, name)) is int, name


def test_entry_name():
    assert base_config().entry.name == "halfspace"
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
    cfg = StudyConfig(
        integrand=spec,
        dimension=4,
        reference_value="oracle:geometric_asian",
        n_min=64,
        n_max=1024,
        replications=8,
    )
    assert cfg.entry.name == "geometric_indicator_payoff[ot]"


# ---------------------------------------------------------------- records & estimates


def test_error_record_refuses_statistics_that_overflow():
    # finite estimates whose spread overflows the standard error's squares,
    # or whose errors overflow the mean absolute error's sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="standard error at n=64 is inf"):
            ErrorRecord(n=64, reference=0.0, estimates=(1e300, 0.0) * 4)
        with pytest.raises(ContractError, match="mean absolute error at n=64 is inf"):
            ErrorRecord(n=64, reference=0.0, estimates=(1.7e308,) * 8)


def test_error_record_statistics():
    rec = ErrorRecord(n=64, reference=1.0, estimates=(1.5, 0.75, 1.0, 1.25))
    assert rec.replications == 4
    assert rec.abs_errors.tolist() == [0.5, 0.25, 0.0, 0.25]
    assert rec.mean_abs_error == pytest.approx(0.25)
    expect_se = np.std([0.5, 0.25, 0.0, 0.25], ddof=1) / 2.0
    assert rec.std_error == pytest.approx(expect_se)


def test_replicates_deterministic_and_worker_invariant():
    cfg = base_config(master_seed=3, n_min=256, n_max=256)
    a = replicate_estimates(cfg)
    b = replicate_estimates(cfg)
    assert np.array_equal(a, b)


def test_replicates_change_with_seed_and_n():
    a = replicate_estimates(base_config(master_seed=0, n_min=256, n_max=256))
    b = replicate_estimates(base_config(master_seed=1, n_min=256, n_max=256))
    assert not np.array_equal(a, b)


def test_custom_entry_without_reference_is_named():
    # the refusal used to name `config.integrand.kind`, which only a payoff
    # has, and failed with "'str' object has no attribute 'kind'"
    entry = replace(CUSTOM, name="no_reference", reference=None)
    with pytest.raises(
        ContractError,
        match="^no oracle for integrand 'no_reference': provide `reference = <value>`$",
    ):
        run_study(base_config(integrand=entry, reference_value=None))


@pytest.mark.parametrize(
    "changes, message",
    [
        (dict(name=5), "^name must be a str, got 5$"),
        (dict(irregular_dimension=1.5), "^d_u must be an integer, got 1.5$"),
        (dict(irregular_dimension=3), "^need 1 <= d_u <= d$"),
        (dict(max_growth="0.1"), "^max_growth must be finite and real, got '0.1'$"),
        (dict(max_growth=1.5), "^max growth exponent 1.5 >= 1: "),
    ],
    ids=["name", "fractional_d_u", "d_u_above_d", "str_max_growth", "max_growth_1.5"],
)
def test_custom_entry_declarations_are_checked_before_any_work(no_work, changes, message):
    # a study took a custom entry unchecked: an int name ran a whole study and
    # then failed report_to_csv with a TypeError, and a bare
    # replicate_estimates drew every replicate of a maxA of 1.5 or a d_u of 1.5
    with pytest.raises(ContractError, match=message):
        StudyConfig(replace(CUSTOM, **changes))


def test_constant_integrand_has_zero_error():
    entry = CatalogEntry(
        name="const_one",
        dimension=None,
        irregular_dimension=1,
        max_growth=0.0,
        reference=1.0,
        f=lambda u: np.ones(len(u)),
    )
    cfg = base_config(integrand=entry, reference_value=1.0)
    records = expected_abs_error(cfg)
    rec = records[0]
    assert rec.n == 64
    assert rec.mean_abs_error == 0.0
    assert rec.reference == 1.0
    with pytest.raises(ContractError, match="^rate fit needs >= 4 usable records, got 0$"):
        fit_rate(records)


def test_linear_integrand_qmc_beats_mc():
    entry = CatalogEntry(
        name="linear_first",
        dimension=None,
        irregular_dimension=1,
        max_growth=0.0,
        reference=0.5,
        f=lambda u: u[:, 0].copy(),
    )
    (qmc,) = expected_abs_error(
        base_config(integrand=entry, reference_value=0.5, n_min=1024, n_max=1024)
    )
    (mc,) = expected_abs_error(
        base_config(
            integrand=entry,
            reference_value=0.5,
            sampler="plain_mc",
            n_min=1024,
            n_max=1024,
        )
    )
    assert qmc.mean_abs_error < 1e-3
    assert mc.mean_abs_error > 1e-3
    assert qmc.mean_abs_error < mc.mean_abs_error / 10


def test_plain_mc_error_matches_half_normal_law():
    # indicator with variance 1/4: E|err| = 0.5 sqrt(2/(pi n))
    n = 1024
    cfg = base_config(
        sampler="plain_mc", replications=32, master_seed=5, n_min=n, n_max=n
    )
    (rec,) = expected_abs_error(cfg)
    expect = 0.5 * math.sqrt(2.0 / (math.pi * n))
    assert expect / 2 < rec.mean_abs_error < expect * 2


def test_nonfinite_integrand_reported():
    entry = CatalogEntry(
        name="blows_up",
        dimension=None,
        irregular_dimension=1,
        max_growth=0.0,
        reference=0.0,
        f=lambda u: np.full(len(u), np.inf),
    )
    cfg = base_config(integrand=entry, reference_value=0.0, n_min=64, n_max=64)
    with pytest.raises(ContractError, match="non-finite"):
        replicate_estimates(cfg)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_integrand_must_give_one_value_per_point(sampler):
    # a block's values go into one buffer; one value short per block used
    # to pass, and an n = 512 estimate averaged 511 values
    for name, f in (
        ("drops_one", lambda u: np.ones(len(u) - 1)),
        ("column", lambda u: np.ones((len(u), 1))),
        ("scalar", lambda u: 1.0),
    ):
        entry = CatalogEntry(
            name=name,
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=1.0,
            f=f,
        )
        cfg = base_config(integrand=entry, n_min=512, n_max=512, sampler=sampler)
        with pytest.raises(ContractError, match=f"integrand '{name}' returned"):
            replicate_estimates(cfg)


def test_plain_mc_replicate_peak_memory(monkeypatch):
    # One inline replicate holds its n_max values, one block's points and
    # paths, and the payoff's row-sized temporaries: 4.60 MiB at n_max =
    # 2^18, d = 4.  Block values joined at the end, and a fresh array per
    # path-sized payoff step, peaked at 5.25 MiB.
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)
    cfg = StudyConfig(
        "geometric_cholesky",
        n_min=2**16,
        n_max=2**18,
        replications=8,
        sampler="plain_mc",
    )
    tracemalloc.start()
    try:
        replicate_estimates(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.9 * 2**20, peak / 2**20


def test_nets_replicate_peak_memory(monkeypatch):
    # One inline nets replicate at n_max = 2^16, d = 2 holds the net, its
    # scramble and the kernel's 32 bytes a row: 4.02 MiB.  A lifted copy of
    # each column, float and bool temporaries for the 0.0/1.0 check and a
    # full-depth node table peaked at 5.58 MiB.
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)
    cfg = StudyConfig("halfspace", n_min=2**14, n_max=2**16, replications=8)
    tracemalloc.start()
    try:
        replicate_estimates(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20, peak / 2**20


def test_unknown_integrand_rejected():
    with pytest.raises(ContractError):
        replicate_estimates(base_config(integrand="mystery", n_min=64, n_max=64))


def test_estimator_is_unbiased_mini():
    cfg = base_config(replications=64, master_seed=11, n_min=64, n_max=64)
    (rec,) = expected_abs_error(cfg)
    est = np.array(rec.estimates)
    se_mean = est.std(ddof=1) / math.sqrt(len(est))
    assert abs(est.mean() - 0.5) < 4 * se_mean


# ---------------------------------------------------------------- rate fitting


def synth_records(ns, errs):
    return [ErrorRecord(n=n, reference=0.0, estimates=(e,) * 8) for n, e in zip(ns, errs)]


def test_fit_exact_power_law():
    ns = [2**k for k in range(6, 12)]
    fit = fit_rate(synth_records(ns, [1.0 / n for n in ns]))
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.n_range == (64, 2048)
    assert fit.excluded_n == ()


def test_fit_constant_error():
    ns = [2**k for k in range(6, 10)]
    fit = fit_rate(synth_records(ns, [0.25] * 4))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r_squared == 1.0  # zero residuals around a flat line


def test_fit_noisy_two_thirds_rate():
    ns = [2**k for k in range(6, 12)]
    jitter = [1.05, 0.95, 1.02, 0.90, 1.08, 1.00]
    errs = [j * n ** (-2.0 / 3.0) for j, n in zip(jitter, ns)]
    fit = fit_rate(synth_records(ns, errs))
    assert -0.70 <= fit.slope <= -0.63
    assert fit.r_squared > 0.99


def test_fit_excludes_zero_error_records():
    ns = [64, 128, 256, 512, 1024]
    errs = [1e-2, 0.0, 1e-3, 1e-4, 1e-5]
    fit = fit_rate(synth_records(ns, errs))
    assert fit.excluded_n == (128,)
    assert fit.n_range == (64, 1024)


def test_fit_requires_four_usable_records():
    ns = [64, 128, 256]
    with pytest.raises(ContractError, match="^rate fit needs >= 4 usable records, got 3$"):
        fit_rate(synth_records(ns, [1e-2, 1e-3, 1e-4]))
    with pytest.raises(ContractError, match="^rate fit needs >= 4 usable records, got 0$"):
        fit_rate(synth_records([64] * 5, [0.0] * 5))


# ---------------------------------------------------------------- studies


def test_run_study_consistent_halfspace():
    report = run_study(base_config(master_seed=1))
    assert report.exponent == pytest.approx(2.0 / 3.0)
    assert len(report.records) == len(SMALL_GRID)
    assert report.verdict == "consistent"
    assert report.consistent
    assert report.fit.slope <= -2.0 / 3.0 + report.config.slack


def test_run_study_flags_wrong_claim():
    # plain Monte Carlo cannot meet an exponent-1 claim, here one that an
    # entry makes for the halfspace indicator by declaring d_u = 1
    entry = replace(CATALOG["halfspace"], name="halfspace_d_u_1", irregular_dimension=1)
    cfg = base_config(integrand=entry, sampler="plain_mc", master_seed=2)
    report = run_study(cfg)
    assert report.exponent == pytest.approx(1.0)
    assert not report.consistent
    assert report.verdict == "inconsistent"


def test_run_study_refuses_short_grid_before_any_draw():
    calls = []

    def f(u):
        calls.append(1)
        return u[:, 0].copy()

    entry = replace(CATALOG["halfspace"], name="counted", f=f)
    cfg = base_config(integrand=entry, n_max=SMALL_GRID[MIN_FIT_RECORDS - 2])
    with pytest.raises(
        ContractError, match="^rate fit needs >= 4 usable records, but n_grid has 3 sizes$"
    ):
        run_study(cfg)
    assert calls == []


def test_report_csv_schema():
    report = run_study(base_config(master_seed=4))
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "integrand,sampler,n,R,mean_abs_error,std_error"
    assert len(lines) == 1 + len(SMALL_GRID)
    first = lines[1].split(",")
    assert first[0] == "halfspace"
    assert first[1] == "scrambled_net"
    assert int(first[2]) == 64
    assert int(first[3]) == 8
    float(first[4]), float(first[5])  # parse cleanly


def test_report_json_schema_and_roundtrip():
    report = run_study(base_config(master_seed=4))
    obj = json.loads(report_to_json(report))
    assert obj["config"]["integrand"] == "halfspace"
    assert obj["config"]["n_grid"] == list(SMALL_GRID)
    assert obj["theoretical_exponent"] == pytest.approx(2.0 / 3.0)
    assert obj["verdict"] in ("consistent", "inconsistent")
    assert len(obj["records"]) == len(SMALL_GRID)
    rec = obj["records"][0]
    assert set(rec) == {"n", "R", "mean_abs_error", "std_error", "abs_errors"}
    assert len(rec["abs_errors"]) == 8
    assert obj["fit"]["slope"] == pytest.approx(report.fit.slope)
    assert obj["reference"] == 0.5


def test_payoff_study_json_echoes_model():
    cfg = StudyConfig("geometric_ot", n_min=64, n_max=1024, replications=8)
    report = run_study(cfg)
    obj = json.loads(report_to_json(report))
    assert obj["config"]["integrand"] == "geometric_indicator_payoff[ot]"
    assert obj["config"]["model"] == {
        "s0": 1.0, "r": 0.05, "sigma": 0.2, "T": 1.0, "d": 4, "K": 1.0,
    }
    assert obj["reference"] == pytest.approx(geometric_asian_price(STANDARD_MODEL))


@pytest.mark.parametrize(
    "cfg",
    [
        StudyConfig("axis_singular", n_min=64, n_max=1024, replications=8, master_seed=2),
        StudyConfig("halfspace", n_min=64, n_max=1024, replications=8, sampler="plain_mc"),
        StudyConfig("geometric_ot", n_min=64, n_max=1024, replications=8, master_seed=5),
    ],
    ids=["axis_singular", "plain_mc", "geometric_ot"],
)
def test_study_estimates_equal_separate_runs_at_each_n(cfg):
    # A study draws each replicate once at the largest n; the prefix
    # estimate must equal a separate run at each smaller n.
    report = run_study(cfg)
    for n, rec in zip(cfg.n_grid, report.records):
        assert rec.n == n
        at_n = replace(cfg, n_min=n, n_max=n)
        assert rec.estimates == tuple(replicate_estimates(at_n)[0])


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("factor", ["cholesky", "ot"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_row_blocks_match_whole_array(kind, factor, d):
    # generate_path multiplies chunks of 2^17 // d^2 rows: 4 chunks at
    # d = 4, and at d = 3 chunks of 14563 rows with a ragged last one.  The
    # estimates must equal the prefix means of one call on all rows.
    grid = (2**13, 2**14, 2**15)
    assert grid[-1] > chunk_rows(d)
    model = replace(STANDARD_MODEL, d=d)
    spec = PayoffSpec(kind, model, factor)
    cfg = StudyConfig(
        spec, n_min=grid[0], n_max=grid[-1], replications=8, sampler="plain_mc"
    )
    pf = path_factor(model, factor)
    whole = []
    for k in range(8):
        u = uniform_points(ScrambleSeed(0, k), grid[-1], d)
        vals = payoff_eval(spec, generate_path(u, model, pf))
        whole.append([vals[:n].mean() for n in grid])
    assert (replicate_estimates(cfg) == np.array(whole).T).all()


def chunk_block_estimates(cfg: StudyConfig) -> np.ndarray:
    # The reference engine: f on blocks of max(1, 2**17 // d**2) rows, one
    # dgemm chunk of the path transform each: the cut that the frozen report
    # bytes were made with.
    d, n_max = cfg.dimension, cfg.n_max
    chunk = max(1, 2**17 // d**2)
    f = cfg.entry.f or payoff_integrand(cfg.integrand)
    means = []
    for k in range(cfg.replications):
        seed = ScrambleSeed(cfg.master_seed, k)
        if cfg.sampler == "scrambled_net":
            u = scramble(generate_net(n_max.bit_length() - 1, d), seed).coords
        else:
            u = uniform_points(seed, n_max, d)
        vals = np.concatenate(
            [f(u[s : s + chunk]) for s in range(0, n_max, chunk)]
        )
        means.append([vals[:n].mean() for n in cfg.n_grid])
    return np.array(means).T


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("d", [1, 3, 4, 64])
def test_blocks_match_dgemm_chunk_blocks(sampler, d):
    # A block holds up to 2^17 coordinates: 131072 rows at d = 1, 43689 at
    # d = 3 (so n_max = 2^16 leaves a partial last block), 32768 at d = 4
    # and 2048 at d = 64.  The estimates must equal those of dgemm-chunk
    # blocks bit for bit.  Nets at d = 64 stop at 2^12 rows, two blocks, to
    # keep the scramble short.
    n_max = 2**12 if (sampler, d) == ("scrambled_net", 64) else 2**16
    cfg = StudyConfig(
        "smooth_product",
        dimension=d,
        n_min=n_max // 4,
        n_max=n_max,
        replications=8,
        master_seed=3,
        sampler=sampler,
    )
    assert replicate_estimates(cfg).tobytes() == chunk_block_estimates(cfg).tobytes()


@pytest.mark.parametrize("factor", ["cholesky", "ot"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_payoff_blocks_match_dgemm_chunk_blocks(kind, factor):
    # At d = 3 the dgemm chunk has an odd 14563 rows and a block holds three
    # chunks; generate_path chunks each block from its first row, so every
    # product sees the rows it sees on chunk-sized blocks.
    spec = PayoffSpec(kind, replace(STANDARD_MODEL, d=3), factor)
    cfg = StudyConfig(
        spec, n_min=2**12, n_max=2**16, replications=8, sampler="plain_mc"
    )
    assert replicate_estimates(cfg).tobytes() == chunk_block_estimates(cfg).tobytes()


def test_plain_mc_draws_long_blocks_at_d64(monkeypatch):
    # 2048-row blocks at d = 64: 32 draws per 2^16-row replicate, where
    # 32-row blocks made 2048.
    calls = []

    def counting(*args):
        calls.append(args)
        return uniform_points(*args)

    monkeypatch.setattr(ex, "uniform_points", counting)
    cfg = StudyConfig(
        "smooth_product",
        dimension=64,
        n_min=2**14,
        n_max=2**16,
        replications=8,
        sampler="plain_mc",
    )
    replicate_estimates(cfg)
    assert len(calls) == 32 * cfg.replications
    assert {n for _, n, _, _ in calls} == {2048}


def test_block_is_whole_chunks_of_at_most_2_17_coordinates(monkeypatch):
    # For d = 1..64 the engine cuts a replicate into blocks of B rows (the
    # last may be ragged): B is a positive multiple of chunk_rows(d), holds
    # at most 2^17 coordinates unless it is one chunk, and is the largest
    # such multiple.  Zero points stand in for the draws, which cost the
    # test nothing.
    draws = []

    def zeros(seed, n, d, start):
        draws.append((seed.replicate_index, start, n))
        return np.zeros((n, d))

    monkeypatch.setattr(ex, "uniform_points", zeros)
    for d in range(1, 65):
        chunk = chunk_rows(d)
        n_max = 1 << (2 * chunk * max(1, 2**17 // (chunk * d)) - 1).bit_length()
        cfg = StudyConfig(
            "smooth_product",
            dimension=d,
            n_min=n_max // 2,
            n_max=n_max,
            replications=8,
            sampler="plain_mc",
        )
        draws.clear()
        replicate_estimates(cfg)
        firsts = [(start, n) for k, start, n in draws if k == 0]
        block = firsts[0][1]
        assert block > 0 and block % chunk == 0, d
        assert block * d <= 2**17 or block == chunk, d
        assert (block + chunk) * d > 2**17, d
        assert len(firsts) >= 2, d
        assert [start for start, _ in firsts] == list(range(0, n_max, block)), d
        assert all(n == block for _, n in firsts[:-1]), d
        assert sum(n for _, n in firsts) == n_max, d


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize(
    "n_max, threshold", [(2**15, 2**15), (2**16, None)], ids=["patched", "default"]
)
def test_pooled_replicates_give_serial_bits(monkeypatch, sampler, n_max, threshold):
    # At d = 3 a block has 43689 rows, three dgemm chunks of 14563, and at
    # n_max = 2^16 the last block is ragged.  The pool must give the inline
    # loop's estimates bit for bit.
    assert n_max % chunk_rows(3)
    if threshold is not None:
        monkeypatch.setattr(ex, "_PARALLEL_ROWS", threshold)
    assert n_max >= ex._PARALLEL_ROWS
    cfg = StudyConfig(
        "smooth_product",
        dimension=3,
        n_min=n_max // 4,
        n_max=n_max,
        replications=8,
        master_seed=9,
        sampler=sampler,
    )
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)
    inline = replicate_estimates(cfg)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    assert replicate_estimates(cfg).tobytes() == inline.tobytes()


def test_pool_runs_replicates_off_the_calling_thread(monkeypatch):
    callers = []

    def probe(u):
        callers.append(threading.current_thread())
        return u[:, 0].copy()

    entry = CatalogEntry(
        name="thread_probe",
        dimension=None,
        irregular_dimension=1,
        max_growth=0.0,
        reference=0.5,
        f=probe,
    )
    monkeypatch.setattr(ex, "_PARALLEL_ROWS", 1024)
    here = threading.current_thread()
    cfg = base_config(integrand=entry, n_min=1024, n_max=1024)
    # one block per replicate, so one integrand call each
    for cpus, n_max, pooled in ((2, 512, False), (1, 1024, False), (2, 1024, True)):
        monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
        callers.clear()
        replicate_estimates(replace(cfg, n_min=n_max, n_max=n_max))
        assert len(callers) == cfg.replications
        assert (here in callers) != pooled and len(set(callers)) <= cpus, (cpus, n_max)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_pooled_error_names_lowest_failing_replicate(monkeypatch, sampler):
    # The integrand is NaN at one point of replicate 5 only.  Pooled and
    # inline runs raise the same error, and the pool cancels the replicates
    # still queued instead of running them all.
    m, reps = 10, 128
    seed = ScrambleSeed(0, 5)
    if sampler == "scrambled_net":
        bad = scramble(generate_net(m, 2), seed).coords[3]
    else:
        bad = uniform_points(seed, 1, 2, 3)[0]
    calls = []

    def f(u):
        calls.append(1)
        return np.where((u == bad).all(axis=1), np.nan, u[:, 0])

    entry = CatalogEntry(
        name="nan_in_5",
        dimension=None,
        irregular_dimension=1,
        max_growth=0.0,
        reference=0.5,
        f=f,
    )
    cfg = base_config(
        integrand=entry, n_min=2**m, n_max=2**m, replications=reps, sampler=sampler
    )
    monkeypatch.setattr(ex, "_PARALLEL_ROWS", 2**m)
    errors = {}
    for cpus in (1, 2):
        monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
        calls.clear()
        with pytest.raises(ContractError) as exc:
            replicate_estimates(cfg)
        errors[cpus] = str(exc.value)
        # one block per replicate: replicates 0..5 ran, and under the pool
        # at most a few more
        assert len(calls) == 6 if cpus == 1 else 6 <= len(calls) < reps // 2, len(calls)
    assert errors[1] == errors[2]
    assert errors[1] == (
        f"integrand returned a non-finite value at point {bad.tolist()} (replicate 5)"
    )


def test_golden_report_bytes():
    assert {name for name, _ in GOLDEN_REPORTS} == set(CATALOG_NAMES)
    for (name, sampler), digest in GOLDEN_REPORTS.items():
        assert report_digest(name, sampler) == digest, (name, sampler)


def test_error_shrinks_with_n():
    for name in ("smooth_product", "halfspace"):
        cfg = StudyConfig(name, n_min=64, n_max=4096, replications=16, master_seed=6)
        records = expected_abs_error(cfg)
        small, large = records[0], records[-1]
        assert large.mean_abs_error < small.mean_abs_error, name


# ---------------------------------------------------------------- catalog


def test_catalog_names_cover_all_regimes():
    assert set(CATALOG_NAMES) == {
        "smooth_product",
        "halfspace",
        "axis_box",
        "axis_singular",
        "corner_singular",
        "geometric_ot",
        "geometric_cholesky",
    }


def test_named_study_defaults():
    cfg = StudyConfig("axis_singular")
    assert cfg.integrand == "axis_singular"
    assert cfg.dimension == 2
    assert cfg.entry.irregular_dimension == 1
    assert cfg.entry.max_growth == 0.1
    assert (cfg.n_min, cfg.n_max) == (64, 2**16)
    assert cfg.n_grid == tuple(2**k for k in range(6, 17))

    ot = StudyConfig("geometric_ot")
    assert isinstance(ot.integrand, PayoffSpec)
    assert ot.entry.irregular_dimension == 1
    assert ot.integrand.factor == "ot"
    assert ot.reference_value == "oracle:geometric_asian"

    chol = StudyConfig("geometric_cholesky")
    assert chol.entry.irregular_dimension == STANDARD_MODEL.d
    assert chol.integrand.factor == "cholesky"


def test_study_config_works_out_implied_fields():
    # a catalog entry: its own d_u, maxA and reference, at its dimension
    cfg = StudyConfig("corner_singular")
    assert (cfg.dimension, cfg.entry.irregular_dimension, cfg.entry.max_growth) == (2, 2, 0.4)
    assert cfg.reference_value == CATALOG["corner_singular"].reference
    assert StudyConfig("smooth_product", dimension=5).dimension == 5
    # a payoff: d from the model, d_u by factor, maxA = 0
    model = GbmModel(1.0, 0.05, 0.2, 1.0, 6, 1.0)
    ot = StudyConfig(PayoffSpec("geometric_indicator_payoff", model))
    assert (ot.dimension, ot.entry.irregular_dimension, ot.entry.max_growth) == (6, 1, 0.0)
    assert ot.reference_value == "oracle:geometric_asian"
    chol = StudyConfig(
        PayoffSpec("asian_call", model, "cholesky"),
        n_min=64,
        n_max=1024,
        replications=8,
    )
    assert chol.entry.irregular_dimension == 6
    assert chol.reference_value is None
    with pytest.raises(ContractError, match="unknown integrand"):
        StudyConfig("no_such_integrand")
    # an arithmetic payoff has no oracle: the study fails before any work
    with pytest.raises(
        ContractError, match=r"^no oracle for integrand 'asian_call\[cholesky\]'"
    ):
        run_study(chol)


@pytest.mark.parametrize("factor", ["ot", "cholesky"])
@pytest.mark.parametrize("kind", PAYOFF_KINDS)
def test_payoff_implied_irregular_dimension(kind, factor):
    # the ot factor is rotated for the geometric weight, so only the
    # geometric payoff's jump is axis-parallel under it
    model = GbmModel(1.0, 0.05, 0.2, 1.0, 6, 1.0)
    cfg = StudyConfig(PayoffSpec(kind, model, factor))
    geometric_ot = kind == "geometric_indicator_payoff" and factor == "ot"
    assert cfg.entry.irregular_dimension == (1 if geometric_ot else 6)
    assert cfg.entry.name == f"{kind}[{factor}]"


def test_ot_factor_cuts_only_the_geometric_indicator_along_u1():
    # On one scrambled net under ot, {S_G > K} is {u1 > kappa}: every point
    # with u1 above the threshold pays and none below it.  The arithmetic
    # {S_A > K} takes both values over a band of u1, so its jump is not
    # axis-parallel; as S_A >= S_G, that band lies below kappa.
    u = scramble(generate_net(14, STANDARD_MODEL.d), ScrambleSeed(0)).coords
    kappa = geometric_threshold(STANDARD_MODEL)
    for kind, single_cut in (("geometric_indicator_payoff", True), ("asian_call", False)):
        pays = payoff_integrand(PayoffSpec(kind, STANDARD_MODEL, "ot"))(u) > 0.0
        top_idle, low_paying = u[~pays, 0].max(), u[pays, 0].min()
        assert (top_idle < low_paying) == single_cut, kind
        if single_cut:
            assert top_idle < kappa < low_paying
        else:
            assert low_paying < top_idle < kappa


def test_named_study_overrides_and_errors():
    cfg = StudyConfig("smooth_product", dimension=5, master_seed=17)
    assert cfg.dimension == 5
    assert cfg.master_seed == 17
    with pytest.raises(ContractError):
        StudyConfig("unknown_integrand")
    # a dimension the integrand cannot take fails before any net is drawn
    with pytest.raises(ContractError, match="defined for d=2"):
        StudyConfig("halfspace", dimension=3)
    with pytest.raises(ContractError, match="defined for d=4"):
        StudyConfig("geometric_ot", dimension=3)


def test_oracle_reference_requires_geometric_payoff():
    # the tag is refused when the config is built, before any work
    with pytest.raises(ContractError, match="only to the geometric"):
        StudyConfig(
            integrand=PayoffSpec("asian_call", STANDARD_MODEL),
            dimension=4,
            reference_value="oracle:geometric_asian",
            n_min=64,
            n_max=1024,
            replications=8,
        )
    with pytest.raises(ContractError, match="a number or 'oracle:geometric_asian'"):
        expected_abs_error(base_config(reference_value="oracle:unknown"))


@pytest.mark.parametrize("factor", FACTOR_METHODS)
def test_price_equals_its_study_bit_for_bit(factor):
    # a price is the study of its payoff at one n: the same replicates,
    # their mean and the standard error of the mean
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL, factor)
    price = json.loads(price_report(spec, 2**10, 8, 3, "json"))
    config = StudyConfig(
        spec, n_min=2**7, n_max=2**10, replications=8, master_seed=3
    )
    record = expected_abs_error(config)[-1]
    x = np.array(record.estimates)
    assert record.n == price["n"] == 2**10 and price["R"] == 8
    assert price["estimate"] == x.mean()
    assert price["std_error"] == x.std(ddof=1) / math.sqrt(8)
    assert price["oracle"] == record.reference == geometric_asian_price(STANDARD_MODEL)


def test_price_refuses_a_non_payoff_or_unknown_format_before_any_work(monkeypatch):
    # before the study is configured, the path factor built, scipy.special
    # loaded or any replicate drawn
    def work(*args, **kwargs):
        raise AssertionError("work before the refusal")

    for module, name in (
        (ex, "StudyConfig"),
        (ex, "replicate_estimates"),
        (finance, "path_factor"),
        (finance, "_special"),
    ):
        monkeypatch.setattr(module, name, work)
    with pytest.raises(ContractError, match="needs a PayoffSpec, got 'halfspace'"):
        price_report("halfspace", 64, 8, 0, "json")
    spec = PayoffSpec("asian_call", STANDARD_MODEL)
    with pytest.raises(ContractError, match="unknown price format 'xml'"):
        price_report(spec, 64, 8, 0, "xml")


def test_string_reference_other_than_tag_is_refused(no_work):
    # an entry's own string reference is no licence: only the tag is a string,
    # and only as the geometric payoff's own
    for tag in ("oracle:unknown", "oracle:geometric_asian"):
        entry = CatalogEntry(
            name="tagged_other",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=tag,
            f=lambda u: np.ones(len(u)),
        )
        for ref in (None, tag):
            with pytest.raises(ContractError, match="a number or 'oracle:geometric"):
                base_config(integrand=entry, reference_value=ref)
    # a non-tag string used to be refused only after the config had built
    # the payoff's path factor and loaded scipy.special
    spec = PayoffSpec("asian_call", STANDARD_MODEL)
    for ref in ("0.5", "oracle:unknown", ""):
        with pytest.raises(ContractError, match="^reference_value must be a number or"):
            StudyConfig(spec, reference_value=ref, n_min=64, n_max=1024, replications=8)


def test_catalog_reference_values_against_quadrature():
    mpmath.mp.dps = 30
    # axis_box: product of two 1-d integrals
    box = float(
        mpmath.quad(lambda u: u**-0.1, [0, 0.5]) * mpmath.quad(lambda u: u**-0.1, [0, 0.75])
    )
    assert CATALOG["axis_box"].reference == pytest.approx(box, rel=1e-12)
    # axis_singular
    cut = float(
        mpmath.quad(lambda u: u**-0.1, [mpmath.mpf(1) / 3, 1])
        * mpmath.quad(lambda u: u**-0.1, [0, 1])
    )
    assert CATALOG["axis_singular"].reference == pytest.approx(cut, rel=1e-12)
    # corner_singular: integrate the inner closed form over the outer axis
    corner = float(
        mpmath.quad(
            lambda u: u**-0.4 * mpmath.mpf(min(1.0, float(1.5 - u))) ** 0.6 / 0.6,
            [0, 0.5, 1],
        )
    )
    assert CATALOG["corner_singular"].reference == pytest.approx(corner, rel=1e-10)
    # smooth_product integrates to 1 in any dimension
    smooth = float(mpmath.quad(lambda u: (1 + u) / 1.5, [0, 1]))
    assert CATALOG["smooth_product"].reference == pytest.approx(smooth**1, rel=1e-12)


def test_catalog_factories_match_descriptions():
    u = np.array([[0.25, 0.5], [0.75, 0.8]])
    assert CATALOG["halfspace"].f(u).tolist() == [1.0, 0.0]
    box = CATALOG["axis_box"].f(u)
    assert box[0] == pytest.approx((0.25 * 0.5) ** -0.1)
    assert box[1] == 0.0
    axis = CATALOG["axis_singular"].f(u)
    assert axis[0] == 0.0  # u1 = 0.25 <= 1/3
    assert axis[1] == pytest.approx((0.75 * 0.8) ** -0.1)
    corner = CATALOG["corner_singular"].f(u)
    assert corner[0] == pytest.approx((0.25 * 0.5) ** -0.4)
    assert corner[1] == 0.0  # 0.75 + 0.8 >= 1.5
    smooth = CATALOG["smooth_product"].f(u)
    assert smooth[0] == pytest.approx(1.25 * 1.5 / 2.25)
