"""Replicated error measurement, rate fitting, and the integrand catalog."""

import json
import math
import threading
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from goldens import GOLDEN_REPORTS, report_digest

from rqmc import experiment as ex
from rqmc.digital_nets import generate_net
from rqmc.errors import ContractError, InfeasibleRegimeError, InsufficientDataError
from rqmc.experiment import (
    CATALOG,
    CATALOG_NAMES,
    DEFAULT_N_GRID,
    MIN_FIT_RECORDS,
    SAMPLERS,
    STANDARD_MODEL,
    CatalogEntry,
    ErrorRecord,
    StudyConfig,
    expected_abs_error,
    fit_rate,
    replicate_estimates,
    report_to_csv,
    report_to_json,
    run_study,
    theoretical_exponent,
)
from rqmc.finance import (
    PAYOFF_KINDS,
    GbmModel,
    PayoffSpec,
    chunk_rows,
    generate_path,
    geometric_asian_price,
    geometric_threshold,
    path_factor,
    payoff_eval,
)
from rqmc.scrambling import ScrambleSeed, scramble, uniform_points

SMALL_GRID = (64, 128, 256, 512, 1024)


@pytest.fixture
def add_entry():
    added = []

    def _add(entry: CatalogEntry):
        CATALOG[entry.name] = entry
        added.append(entry.name)
        return entry.name

    yield _add
    for name in added:
        del CATALOG[name]


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
    with pytest.raises(InfeasibleRegimeError):
        theoretical_exponent(2, 1, 1.0)
    with pytest.raises(InfeasibleRegimeError):
        theoretical_exponent(2, 1, 1.2)
    with pytest.raises(ContractError):
        theoretical_exponent(2, 1, math.nan)


# ---------------------------------------------------------------- config


def base_config(**overrides) -> StudyConfig:
    kw = dict(
        integrand="halfspace",
        dimension=2,
        reference_value=0.5,
        n_grid=SMALL_GRID,
        replications=8,
    )
    kw.update(overrides)
    return StudyConfig(**kw)


def test_config_validation():
    with pytest.raises(ContractError):
        base_config(n_grid=(64, 100))
    with pytest.raises(ContractError):
        base_config(n_grid=(256, 128))
    with pytest.raises(ContractError):
        base_config(n_grid=())
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


def test_entry_name():
    assert base_config().entry.name == "halfspace"
    spec = PayoffSpec("geometric_indicator_payoff", STANDARD_MODEL)
    cfg = StudyConfig(
        integrand=spec,
        dimension=4,
        reference_value="oracle:geometric_asian",
        n_grid=SMALL_GRID,
        replications=8,
    )
    assert cfg.entry.name == "geometric_indicator_payoff[ot]"


# ---------------------------------------------------------------- records & estimates


def test_error_record_statistics():
    rec = ErrorRecord(n=64, reference=1.0, estimates=(1.5, 0.75, 1.0, 1.25))
    assert rec.replications == 4
    assert rec.abs_errors.tolist() == [0.5, 0.25, 0.0, 0.25]
    assert rec.mean_abs_error == pytest.approx(0.25)
    expect_se = np.std([0.5, 0.25, 0.0, 0.25], ddof=1) / 2.0
    assert rec.std_error == pytest.approx(expect_se)


def test_replicates_deterministic_and_worker_invariant():
    cfg = base_config(master_seed=3, n_grid=(256,))
    a = replicate_estimates(cfg)
    b = replicate_estimates(cfg)
    assert np.array_equal(a, b)


def test_replicates_change_with_seed_and_n():
    a = replicate_estimates(base_config(master_seed=0, n_grid=(256,)))
    b = replicate_estimates(base_config(master_seed=1, n_grid=(256,)))
    assert not np.array_equal(a, b)


def test_constant_integrand_has_zero_error(add_entry):
    add_entry(
        CatalogEntry(
            name="const_one",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=1.0,
            f=lambda u: np.ones(len(u)),
        )
    )
    cfg = base_config(integrand="const_one", reference_value=1.0)
    records = expected_abs_error(cfg)
    rec = records[0]
    assert rec.n == 64
    assert rec.mean_abs_error == 0.0
    assert rec.reference == 1.0
    with pytest.raises(InsufficientDataError):
        fit_rate(records)


def test_linear_integrand_qmc_beats_mc(add_entry):
    add_entry(
        CatalogEntry(
            name="linear_first",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=0.5,
            f=lambda u: u[:, 0].copy(),
        )
    )
    (qmc,) = expected_abs_error(
        base_config(integrand="linear_first", reference_value=0.5, n_grid=(1024,))
    )
    (mc,) = expected_abs_error(
        base_config(
            integrand="linear_first",
            reference_value=0.5,
            sampler="plain_mc",
            n_grid=(1024,),
        )
    )
    assert qmc.mean_abs_error < 1e-3
    assert mc.mean_abs_error > 1e-3
    assert qmc.mean_abs_error < mc.mean_abs_error / 10


def test_plain_mc_error_matches_half_normal_law():
    # indicator with variance 1/4: E|err| = 0.5 sqrt(2/(pi n))
    n = 1024
    cfg = base_config(sampler="plain_mc", replications=32, master_seed=5, n_grid=(n,))
    (rec,) = expected_abs_error(cfg)
    expect = 0.5 * math.sqrt(2.0 / (math.pi * n))
    assert expect / 2 < rec.mean_abs_error < expect * 2


def test_nonfinite_integrand_reported(add_entry):
    add_entry(
        CatalogEntry(
            name="blows_up",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=0.0,
            f=lambda u: np.full(len(u), np.inf),
        )
    )
    cfg = base_config(integrand="blows_up", reference_value=0.0, n_grid=(64,))
    with pytest.raises(ContractError, match="non-finite"):
        replicate_estimates(cfg)


def test_unknown_integrand_rejected():
    with pytest.raises(ContractError):
        replicate_estimates(base_config(integrand="mystery", n_grid=(64,)))


def test_estimator_is_unbiased_mini():
    cfg = base_config(replications=64, master_seed=11, n_grid=(64,))
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
    with pytest.raises(InsufficientDataError):
        fit_rate(synth_records(ns, [1e-2, 1e-3, 1e-4]))
    with pytest.raises(InsufficientDataError):
        fit_rate(synth_records([64] * 5, [0.0] * 5))


# ---------------------------------------------------------------- studies


def test_run_study_consistent_halfspace():
    report = run_study(base_config(master_seed=1))
    assert report.exponent == pytest.approx(2.0 / 3.0)
    assert len(report.records) == len(SMALL_GRID)
    assert report.verdict == "consistent"
    assert report.consistent
    assert report.fit.slope <= -2.0 / 3.0 + report.config.slack


def test_run_study_flags_wrong_claim(add_entry):
    # plain Monte Carlo cannot meet an exponent-1 claim, here one that an
    # entry makes for the halfspace indicator by declaring d_u = 1
    entry = replace(CATALOG["halfspace"], name="halfspace_d_u_1", irregular_dimension=1)
    cfg = base_config(integrand=add_entry(entry), sampler="plain_mc", master_seed=2)
    report = run_study(cfg)
    assert report.exponent == pytest.approx(1.0)
    assert not report.consistent
    assert report.verdict == "inconsistent"


def test_run_study_refuses_short_grid_before_any_draw(add_entry):
    calls = []

    def f(u):
        calls.append(1)
        return u[:, 0].copy()

    add_entry(replace(CATALOG["halfspace"], name="counted", f=f))
    cfg = base_config(integrand="counted", n_grid=SMALL_GRID[:MIN_FIT_RECORDS - 1])
    with pytest.raises(InsufficientDataError, match="n_grid has 3 sizes"):
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
    cfg = StudyConfig("geometric_ot", n_grid=SMALL_GRID, replications=8)
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
        StudyConfig("axis_singular", n_grid=SMALL_GRID, replications=8, master_seed=2),
        StudyConfig("halfspace", n_grid=SMALL_GRID, replications=8, sampler="plain_mc"),
        StudyConfig("geometric_ot", n_grid=SMALL_GRID, replications=8, master_seed=5),
    ],
    ids=["axis_singular", "plain_mc", "geometric_ot"],
)
def test_study_estimates_equal_separate_runs_at_each_n(cfg):
    # A study draws each replicate once at the largest n; the prefix
    # estimate must equal a separate run at each smaller n.
    report = run_study(cfg)
    for n, rec in zip(cfg.n_grid, report.records):
        assert rec.n == n
        assert rec.estimates == tuple(replicate_estimates(replace(cfg, n_grid=(n,)))[0])


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
    cfg = StudyConfig(spec, n_grid=grid, replications=8, sampler="plain_mc")
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
    d, n_max = cfg.dimension, cfg.n_grid[-1]
    chunk = max(1, 2**17 // d**2)
    means = []
    for k in range(cfg.replications):
        seed = ScrambleSeed(cfg.master_seed, k)
        if cfg.sampler == "scrambled_net":
            u = scramble(generate_net(n_max.bit_length() - 1, d), seed).coords
        else:
            u = uniform_points(seed, n_max, d)
        vals = np.concatenate(
            [cfg.entry.f(u[s : s + chunk]) for s in range(0, n_max, chunk)]
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
        n_grid=(n_max // 4, n_max),
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
        spec, n_grid=(2**12, 2**14, 2**16), replications=8, sampler="plain_mc"
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
        n_grid=(2**14, 2**16),
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
            n_grid=(n_max // 2, n_max),
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
        n_grid=(n_max // 4, n_max),
        replications=8,
        master_seed=9,
        sampler=sampler,
    )
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 1)
    inline = replicate_estimates(cfg)
    monkeypatch.setattr(ex, "_usable_cpus", lambda: 2)
    assert replicate_estimates(cfg).tobytes() == inline.tobytes()


def test_pool_runs_replicates_off_the_calling_thread(monkeypatch, add_entry):
    callers = []

    def probe(u):
        callers.append(threading.current_thread())
        return u[:, 0].copy()

    add_entry(
        CatalogEntry(
            name="thread_probe",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=0.5,
            f=probe,
        )
    )
    monkeypatch.setattr(ex, "_PARALLEL_ROWS", 1024)
    here = threading.current_thread()
    cfg = base_config(integrand="thread_probe", n_grid=(1024,))
    # one block per replicate, so one integrand call each
    for cpus, n_max, pooled in ((2, 512, False), (1, 1024, False), (2, 1024, True)):
        monkeypatch.setattr(ex, "_usable_cpus", lambda: cpus)
        callers.clear()
        replicate_estimates(replace(cfg, n_grid=(n_max,)))
        assert len(callers) == cfg.replications
        assert (here in callers) != pooled and len(set(callers)) <= cpus, (cpus, n_max)


@pytest.mark.parametrize("sampler", SAMPLERS)
def test_pooled_error_names_lowest_failing_replicate(monkeypatch, add_entry, sampler):
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

    add_entry(
        CatalogEntry(
            name="nan_in_5",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference=0.5,
            f=f,
        )
    )
    cfg = base_config(
        integrand="nan_in_5", n_grid=(2**m,), replications=reps, sampler=sampler
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
        cfg = StudyConfig(name, n_grid=(64, 4096), replications=16, master_seed=6)
        small, large = expected_abs_error(cfg)
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
    assert cfg.n_grid == DEFAULT_N_GRID

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
        n_grid=SMALL_GRID,
        replications=8,
    )
    assert chol.entry.irregular_dimension == 6
    assert chol.reference_value is None
    with pytest.raises(ContractError, match="unknown integrand"):
        StudyConfig("no_such_integrand")
    # an arithmetic payoff has no oracle: the study fails before any work
    with pytest.raises(ContractError, match="no oracle for payoff 'asian_call'"):
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
        entry = StudyConfig(PayoffSpec(kind, STANDARD_MODEL, "ot")).entry
        pays = entry.f(u) > 0.0
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
            n_grid=SMALL_GRID,
            replications=8,
        )
    with pytest.raises(ContractError, match="a number or 'oracle:geometric_asian'"):
        expected_abs_error(base_config(reference_value="oracle:unknown"))


def test_string_reference_other_than_tag_is_refused(add_entry):
    # an entry's own string reference is no licence: only the tag is a string
    add_entry(
        CatalogEntry(
            name="tagged_other",
            dimension=None,
            irregular_dimension=1,
            max_growth=0.0,
            reference="oracle:unknown",
            f=lambda u: np.ones(len(u)),
        )
    )
    for ref in (None, "oracle:unknown"):
        with pytest.raises(ContractError, match="a number or 'oracle:geometric"):
            base_config(integrand="tagged_other", reference_value=ref)


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
