"""Acceptance suite: one test per headline guarantee of the library.

Each test prints a single PASS line with the measured quantities so a log
scan shows what was achieved.  Numbering fixes the execution order; every
check here runs against frozen seeds and is deterministic.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import chi2

from rqmc.digital_nets import PointSet, certify_t, generate_net, generate_points, verify_net
from rqmc.experiment import (
    CATALOG_NAMES,
    STANDARD_MODEL,
    StudyConfig,
    expected_abs_error,
    report_to_csv,
    report_to_json,
    run_study,
)
from rqmc.finance import (
    generate_path,
    geometric_asian_price,
    geometric_threshold,
    inv_norm_cdf,
    path_factor,
)
from rqmc.scrambling import ScrambleSeed, scramble
from rqmc.singularity import GrowthSpec, approx_error_1d, check_growth, extension_1d, sup_extension_1d

# Quality parameters certified for the bundled direction numbers with all
# prefixes up to m = 12 verified exhaustively.  Deeper nets reveal worse
# quality in d = 5, 6 than the m <= 10 table used elsewhere in the tests.
CERTIFIED_T_M12 = {1: 0, 2: 0, 3: 1, 4: 3, 5: 4, 6: 5}
CERTIFIED_T_M10 = {1: 0, 2: 0, 3: 1, 4: 3}


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}: {detail}")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def test_01_net_correctness():
    t0 = time.monotonic()
    measured = {d: certify_t(d, m_max=12) for d in range(1, 7)}
    # certify_t verifies every m in [t, 12]; re-check the largest net explicitly.
    for d, t in measured.items():
        net = generate_net(12, d)
        res = verify_net(net, t=t)
        assert res.passed and res.m == 12
    elapsed = time.monotonic() - t0
    ok = measured == CERTIFIED_T_M12 and elapsed < 60.0
    _report(1, "net correctness", ok, f"t by dimension {measured}, all m <= 12 verified in {elapsed:.1f}s")


def test_02_scrambling_preserves_nets():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260819)
    seeds = [int(x) for x in rng.integers(0, 2**64, size=20, dtype=np.uint64)]
    checked = 0
    for d, t in CERTIFIED_T_M10.items():
        base = generate_net(10, d)
        for s in seeds:
            scrambled = scramble(base, ScrambleSeed(s, 0))
            # The first 2^m rows of a scrambled sequence coincide with the
            # scramble of the 2^m-point prefix, so one scramble covers all m.
            for m in range(t, 11):
                sub = PointSet(scrambled.ints[: 2**m], scrambled.depth)
                res = verify_net(sub, t=t)
                assert res.passed and res.m == m, (d, t, m, s, res.violation)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = elapsed < 120.0
    _report(2, "scrambling preserves nets", ok, f"{checked} scrambled nets verified, 0 failures, {elapsed:.1f}s")


def test_03_scrambled_point_uniformity():
    pts = generate_points(range(5), 2)  # includes the origin, the worst case for openness
    n_seeds = 10**4
    coords = np.empty((n_seeds, 5, 2))
    for s in range(n_seeds):
        coords[s] = scramble(pts, ScrambleSeed(2026, s)).coords
    open_interval = bool(np.all(coords > 0.0) and np.all(coords < 1.0))
    critical = chi2.ppf(0.99, 31)
    worst = 0.0
    expected = n_seeds / 32
    for i in range(5):
        for j in range(2):
            observed = np.bincount((coords[:, i, j] * 32).astype(int), minlength=32)
            worst = max(worst, float(((observed - expected) ** 2 / expected).sum()))
    ok = open_interval and worst < critical
    _report(3, "scrambled-point uniformity", ok,
            f"worst 32-bin chi-square {worst:.1f} < {critical:.1f} over {n_seeds} seeds, all outputs in (0,1)")


def test_04_approximation_error_law():
    eps_grid = 2.0 ** -np.arange(4, 17)
    detail = []
    worst_slope_gap = 0.0
    worst_quad_gap = 0.0
    for a in (0.25, 0.5, 0.75):
        errs = np.array([approx_error_1d(a, e) for e in eps_grid])
        slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
        worst_slope_gap = max(worst_slope_gap, abs(slope - (1.0 - a)))
        for e, closed in zip(eps_grid, errs):
            val, _ = quad(lambda u: abs(u**-a - extension_1d(a, u, e)), 0.0, 1.0,
                          points=[e, 1.0 - e], limit=400, epsabs=1e-13, epsrel=1e-13)
            worst_quad_gap = max(worst_quad_gap, abs(val - closed))
        detail.append(f"A={a}: slope {slope:.4f}")
    ok = worst_slope_gap <= 0.02 and worst_quad_gap <= 1e-8
    _report(4, "approximation-error law", ok,
            "; ".join(detail) + f"; worst slope gap {worst_slope_gap:.4f}, worst quadrature gap {worst_quad_gap:.1e}")


def test_05_sup_norm_law():
    worst_rel = 0.0
    cases = 0
    for a in (0.25, 0.5, 0.75):
        for k in range(4, 41, 4):  # k*A integral, so both powers are exact dyadics
            eps = 2.0**-k
            sup = sup_extension_1d(a, eps)
            assert sup * eps**a == 1.0, (a, k)
            grid = np.concatenate([np.linspace(0.0, 1.0, 4097), [eps]])
            grid_max = max(extension_1d(a, u, eps) for u in grid)
            worst_rel = max(worst_rel, abs(grid_max / sup - 1.0))
            cases += 1
    ok = worst_rel <= 1e-10
    _report(5, "sup-norm law", ok,
            f"{cases} (A, eps) pairs exact, grid oracle relative gap {worst_rel:.1e}")


def test_06_growth_condition_detector():
    f = lambda u: float(u[0]) ** -0.5
    # sample_count equals the ladder size for d = 1, so only dyadic ladder
    # points down to 2^-20 are tested.
    accept = check_growth(f, GrowthSpec((0.5,)), sample_count=38)
    reject = check_growth(f, GrowthSpec((0.1,)), sample_count=38)
    deriv = lambda u: math.sqrt(2.0 * math.pi) * math.exp(0.5 * inv_norm_cdf(u) ** 2)
    c_fit = deriv(2.0**-4) * (2.0**-4) ** 1.1
    bound_holds = all(deriv(2.0**-k) <= c_fit * (2.0**-k) ** -1.1 for k in range(5, 41))
    ok = (accept.consistent and accept.max_ratio == 1.0
          and not reject.consistent and reject.max_ratio > 1.0
          and reject.worst_sample.min() <= 2.0**-18
          and bound_holds)
    _report(6, "growth-condition detector", ok,
            f"A=0.5 ratio {accept.max_ratio}, A=0.1 ratio {reject.max_ratio:.1f}, "
            f"quantile-derivative constant {c_fit:.3f} holds to 2^-40")


def test_07_rate_axis_parallel_singularity():
    t0 = time.monotonic()
    report = run_study(StudyConfig("axis_singular", replications=32, master_seed=11))
    elapsed = time.monotonic() - t0
    ok = report.fit.slope <= -0.80 and report.verdict == "consistent" and elapsed < 300.0
    _report(7, "rate study, axis-parallel singular", ok,
            f"slope {report.fit.slope:.3f} <= -0.80, verdict {report.verdict}, {elapsed:.0f}s")


def test_08_rate_nonaxis_discontinuity():
    t0 = time.monotonic()
    qmc = run_study(StudyConfig("halfspace", replications=32, master_seed=11))
    mc = run_study(StudyConfig("halfspace", replications=32, master_seed=11, sampler="plain_mc"))
    elapsed = time.monotonic() - t0
    ok = (qmc.fit.slope <= -0.60
          and -0.58 <= mc.fit.slope <= -0.42
          and qmc.fit.slope < mc.fit.slope
          and elapsed < 300.0)
    _report(8, "rate study, non-axis-parallel", ok,
            f"scrambled-net slope {qmc.fit.slope:.3f} <= -0.60, plain-MC slope {mc.fit.slope:.3f} "
            f"in [-0.58, -0.42], {elapsed:.0f}s")


def test_09_finance_end_to_end():
    t0 = time.monotonic()
    model = STANDARD_MODEL
    factor = path_factor(model, "ot")
    kappa = geometric_threshold(model)

    u = scramble(generate_points(range(2**17), model.d), ScrambleSeed(7, 0)).coords
    paths = generate_path(u, model, factor)
    geo_mean = np.exp(np.log(paths).mean(axis=1))
    exact_agreement = bool(np.array_equal(geo_mean > model.strike, u[:, 0] > kappa))

    oracle = geometric_asian_price(model)
    (rec,) = expected_abs_error(StudyConfig(
        "geometric_ot", n_min=2**16, n_max=2**16, replications=16, master_seed=7))
    estimates = np.asarray(rec.estimates)
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    price_dev = abs(estimates.mean() - oracle)

    se_ot = np.asarray(expected_abs_error(
        StudyConfig("geometric_ot", n_min=2**14, n_max=2**14, replications=16, master_seed=7)
    )[0].estimates).std(ddof=1)
    se_chol = np.asarray(expected_abs_error(
        StudyConfig("geometric_cholesky", n_min=2**14, n_max=2**14, replications=16, master_seed=7)
    )[0].estimates).std(ddof=1)
    elapsed = time.monotonic() - t0
    ok = exact_agreement and price_dev <= 3.0 * se and se_ot < se_chol and elapsed < 180.0
    _report(9, "finance end-to-end", ok,
            f"indicator identity exact on {len(u)} points, price within {price_dev / se:.2f} SE of "
            f"{oracle:.6f}, OT/Cholesky replicate sd {se_ot:.1e} < {se_chol:.1e}, {elapsed:.0f}s")


def test_10_estimator_soundness():
    worst_dev = 0.0
    for name in CATALOG_NAMES:
        cfg = StudyConfig(name, n_min=256, n_max=256, replications=64, master_seed=13)
        (rec,) = expected_abs_error(cfg)
        estimates = np.asarray(rec.estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        dev = abs(estimates.mean() - rec.reference) / se
        assert dev <= 4.0, (name, dev)
        worst_dev = max(worst_dev, dev)

    cfg = StudyConfig("halfspace", n_min=64, n_max=512, replications=8, master_seed=3)
    first, rerun = run_study(cfg), run_study(cfg)
    gcfg = StudyConfig("geometric_ot", n_min=64, n_max=512, replications=8, master_seed=3)
    identical = (report_to_json(first) == report_to_json(rerun)
                 and report_to_csv(first) == report_to_csv(rerun)
                 and report_to_json(run_study(gcfg)) == report_to_json(run_study(gcfg)))
    ok = worst_dev <= 4.0 and identical
    _report(10, "estimator soundness", ok,
            f"all {len(CATALOG_NAMES)} catalog integrands unbiased within {worst_dev:.2f} SE (limit 4), "
            f"reports byte-identical across reruns")
