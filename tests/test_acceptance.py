"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The lines bypass pytest's output capture, so a plain
``pytest tests/test_acceptance.py -v`` shows one line per criterion; the
whole suite finishes in a few minutes on one core.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.stats import beta, betabinom, norm

from hellinger_reference import NormalParams, hellinger_normal
from tailormon import (
    CalibrationConfig,
    ChangeDistributionSpec,
    CorrelationMatrix,
    DetectorSpec,
    Monitor,
    StreamStats,
    bartlett_correction,
    build_monitor_model,
    calibrate_threshold,
    eigensystem,
    estimate_edd,
    estimate_training,
    lag_extend_matrix,
    manual_selection,
    min_variance_selection,
    project_observation,
    random_correlation,
    stream_llr,
    tailor,
    verify_bivariate_propositions,
)
from tailormon.changemodel import _hellinger_arrays
from tailormon.evalharness import build_detector_model, run_prepared_trials, scenario_from_cell
from tailormon.mixmonitor import _training_sums


def report(announce, num, desc, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:02d}: {desc}"
    if detail:
        line += f" ({detail})"
    announce(line)


def test_criterion_01_bivariate_proposition_suite(announce):
    start = time.time()
    rep = verify_bivariate_propositions(resolution=0.05)
    elapsed = time.time() - start
    violations = rep["total_violations"]
    # the exceptional one-variance region must actually be exercised
    exceptional = 0
    for rho in rep["rho_values"]:
        if abs(rho) > math.sqrt(3.0) / 2.0:
            a0 = math.sqrt(4.0 * rho * rho - 3.0)
            exceptional += sum(1 for a in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7) if a < a0 - 1e-6)
    ok = violations == 0 and exceptional > 0 and elapsed < 60.0
    report(announce, 1, "bivariate ordering grid has zero sign violations", ok,
           f"violations={violations}, exceptional points={exceptional}, {elapsed:.1f}s")
    assert violations == 0
    assert exceptional > 0
    assert elapsed < 60.0


def test_criterion_02_hellinger_ordering_lemma(announce):
    rng = np.random.default_rng(202)
    n = 10_000
    v = np.exp(rng.uniform(-3.0, 3.0, size=(n, 4)))
    h1 = _hellinger_arrays(0.0, np.sqrt(v[:, 0]), 0.0, np.sqrt(v[:, 1]))
    h2 = _hellinger_arrays(0.0, np.sqrt(v[:, 2]), 0.0, np.sqrt(v[:, 3]))
    r1 = np.abs(np.log(v[:, 1] / v[:, 0]))
    r2 = np.abs(np.log(v[:, 3] / v[:, 2]))
    violations = int(np.sum((h2 > h1) != (r2 > r1)))
    report(announce, 2, "Hellinger order equals |log variance ratio| order on 1e4 quadruples",
           violations == 0, f"violations={violations}")
    assert violations == 0


def test_criterion_03_closed_form_vs_quadrature(announce):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        p = NormalParams(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))
        q = NormalParams(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))

        def integrand(x):
            return math.sqrt(norm.pdf(x, p.mean, p.sdev) * norm.pdf(x, q.mean, q.sdev))

        lo = min(p.mean - 12 * p.sdev, q.mean - 12 * q.sdev)
        hi = max(p.mean + 12 * p.sdev, q.mean + 12 * q.sdev)
        bc, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(hellinger_normal(p, q) - math.sqrt(max(0.0, 1.0 - bc))))
    report(announce, 3, "closed-form Hellinger matches quadrature on 100 pairs",
           worst < 1e-8, f"max abs err={worst:.2e}")
    assert worst < 1e-8


def test_criterion_04_bartlett_corrected_null_mean(announce):
    """Under the null, the mean of 2*llr/C lies in [1.95, 2.05] at every (m, k, t).

    For n iid normal values with the ML variance S2,
    E[n log S2] = n log(sigma^2) + n log(2/n) + n psi((n-1)/2). Put into
    2*llr = (m+t) log S2_all - (m+k) log S2_pre - (t-k) log S2_post, the
    log 2 and log sigma^2 terms cancel and what remains is exactly the 2C
    of ``bartlett_correction``; so E[2*llr/C] = 2, the chi-square_2 mean
    of a change with two free parameters (mean and variance). The band is
    about +-8 Monte Carlo standard errors wide; the uncorrected mean 2C
    lies outside it at (50, 10, 40) and (20, 0, 10), so a missing or
    wrong correction fails.
    """
    start = time.time()
    results = {}
    for m, k, t in ((200, 0, 100), (50, 10, 40), (20, 0, 10)):
        total = 0.0
        total_sq = 0.0
        reps_total = 100_000
        chunk = 10_000
        rng = np.random.default_rng([404, m, k, t])
        done = 0
        while done < reps_total:
            n_rep = min(chunk, reps_total - done)
            train = rng.standard_normal((m, n_rep))
            stats = StreamStats(
                train_sum=train.sum(axis=0),
                train_sumsq=(train * train).sum(axis=0),
                m=m,
                window=t + 2,
            )
            for _ in range(t):
                stats.append(rng.standard_normal(n_rep))
            two_llr = 2.0 * stream_llr(stats, k)
            total += float(np.sum(two_llr))
            total_sq += float(np.sum(two_llr * two_llr))
            done += n_rep
        c = bartlett_correction(m, k, t)
        mean = total / reps_total
        se = math.sqrt(max(0.0, total_sq / reps_total - mean * mean) / (reps_total - 1))
        results[(m, k, t)] = (mean / c, se / c, 2.0 * c)
    elapsed = time.time() - start
    ok = all(1.95 <= v <= 2.05 for v, _, _ in results.values()) and elapsed < 120.0
    detail = ", ".join(
        f"(m={m},k={k},t={t})->{v:.4f} se={se:.4f} 2C={two_c:.4f}"
        for (m, k, t), (v, se, two_c) in results.items()
    )
    report(announce, 4, "null mean of 2*llr/C within [1.95, 2.05]", ok, detail + f", {elapsed:.1f}s")
    assert elapsed < 120.0
    for key, (value, se, two_c) in results.items():
        assert 1.95 <= value <= 2.05, (
            f"mean(2*llr/C) at (m,k,t)={key} is {value:.4f} (Monte Carlo s.e. {se:.4f}); "
            f"E[2*llr] = 2C = {two_c:.4f} exactly for normal segments, so the corrected "
            f"mean must be 2"
        )


def _model_world_alarm_hits(model, summary, threshold, m, n, n_reps, seed_seq):
    """Count fresh model-world false alarms within n steps.

    Each replicate draws m training and n monitoring rows from the normal
    with the summary's mean and covariance, re-estimates the summary and
    eigensystem from its own training rows, keeps the model's axis
    indices and feeds its monitoring rows to a monitor armed at
    ``threshold``, stopping at the first alarm (``feed`` gives what
    ``step`` gives row by row, bit for bit). The re-fit is written out
    here, one replicate at a time, rather than taken from the
    calibration. It shares its arithmetic with the calibration's stacked
    preparation, which ``test_replicate_prep.py`` checks against a
    per-replicate reference kept apart from the library.
    """
    mean0 = summary.mean
    chol = np.linalg.cholesky(summary.covariance())
    hits = 0
    for ss in seed_seq.spawn(n_reps):
        rng = np.random.default_rng(ss)
        draws = mean0 + rng.standard_normal((m + n, mean0.shape[0])) @ chol.T
        fresh = estimate_training(draws[:m])
        sel = manual_selection(eigensystem(fresh.corr), model.selection.indices)
        armed = build_monitor_model(
            fresh, sel, draws[:m], p0=model.p0, window=model.window, threshold=threshold
        )
        hits += any(res.alarm for res in Monitor(armed).feed(draws[m:], stop_on_alarm=True))
    return hits


def test_criterion_05_calibration_validity(announce):
    """The threshold is placed as documented and predicts fresh false alarms.

    (a) Placement: the exceedance count c is the largest whose one-sided
    Clopper-Pearson bound at ``conf`` is at most alpha, which is the
    "P(false alarm within n) <= alpha at the stated confidence" guarantee.

    (b) Prediction: the fresh model-world replicates follow the law of the
    calibration replicates, so for iid continuous maxima the number of
    fresh maxima above the (c+1)-th largest calibration maximum is
    BetaBinomial(N, c+1, R-c), and above the c-th largest it is
    BetaBinomial(N, c, R-c+1). The threshold lies between those two
    maxima, so the fresh hit count H is stochastically bracketed by the
    two laws; each tail is tested at 0.005, so a correct calibration
    fails at most 1% of the time. The fresh rate centres near c/R, below
    alpha, not at alpha.
    """
    start = time.time()
    root = np.random.SeedSequence([500, 0])
    ss_base, ss_train, ss_tailor, ss_cal, ss_val = root.spawn(5)
    dim, m, n, alpha, conf = 10, 100, 50, 0.05, 0.9
    n_cal, n_fresh, tail = 2000, 2000, 0.005
    base = random_correlation(dim, 1.0, np.random.default_rng(ss_base))
    train = np.random.default_rng(ss_train).standard_normal((m, dim)) @ np.linalg.cholesky(base.values).T
    summary = estimate_training(train)
    sel = tailor(summary.corr, ChangeDistributionSpec(), 0.8, 3000, np.random.default_rng(ss_tailor))
    model = build_monitor_model(summary, sel, train, window=200)
    cfg = CalibrationConfig(alpha=alpha, n=n, confidence=conf, replicates=n_cal)
    result = calibrate_threshold(model, train, cfg, rng=np.random.default_rng(ss_cal))
    hits = _model_world_alarm_hits(model, summary, result.threshold, m, n, n_fresh, ss_val)
    elapsed = time.time() - start
    c = result.exceedances
    bound_c = float(beta.ppf(conf, c + 1, n_cal - c))
    bound_next = float(beta.ppf(conf, c + 2, n_cal - c - 1))
    placed = bound_c <= alpha < bound_next
    p_high = float(betabinom.sf(hits - 1, n_fresh, c + 1, n_cal - c))
    p_low = float(betabinom.cdf(hits, n_fresh, c, n_cal - c + 1))
    predicted = p_high >= tail and p_low >= tail
    ok = placed and predicted and elapsed < 600.0
    report(announce, 5, "threshold placed at alpha=0.05 and fresh hits follow its predictive law", ok,
           f"axes={list(sel.indices)}, b={result.threshold:.4f}, c={c}/{n_cal}, H={hits}/{n_fresh}, "
           f"P(>=H)={p_high:.3f}, P(<=H)={p_low:.3f}, {elapsed:.0f}s")
    assert placed, (
        f"exceedance count c={c}: Clopper-Pearson bounds {bound_c:.5f} (c) and {bound_next:.5f} (c+1) "
        f"do not bracket alpha={alpha}"
    )
    assert p_high >= tail, (
        f"H={hits} fresh hits of {n_fresh}: P(H' >= H) = {p_high:.4f} < {tail} under "
        f"BetaBinomial({n_fresh}, {c + 1}, {n_cal - c}); the threshold is too low for its own replicates"
    )
    assert p_low >= tail, (
        f"H={hits} fresh hits of {n_fresh}: P(H' <= H) = {p_low:.4f} < {tail} under "
        f"BetaBinomial({n_fresh}, {c}, {n_cal - c + 1}); the threshold is too high for its own replicates"
    )
    assert elapsed < 600.0


def test_criterion_06_desk_scale_delay_comparison(announce):
    start = time.time()
    dim, m, n, w = 20, 100, 100, 200
    base = random_correlation(dim, 0.1, np.random.default_rng(18))
    mean_spec = ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0))
    detectors = {
        "tpca": DetectorSpec(kind="tpca", cutoff=0.9, draws=10_000, change_spec=mean_spec),
        "maxpca": DetectorSpec(kind="maxpca", n_axes=2),
    }
    cfg = CalibrationConfig(alpha=0.01, n=n, confidence=0.95, replicates=2000)
    estimates = {}
    for idx, (name, det) in enumerate(detectors.items()):
        model, train = build_detector_model(base, m, w, det, 618)
        res = calibrate_threshold(model, train, cfg, rng=np.random.default_rng([618, idx]))
        armed = model.with_threshold(res.threshold)

        def trials():
            for rep in range(500):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=[618, 7, rep]))
                yield scenario_from_cell("mean", 1, 1.0, dim, rng), rng

        # scanned in stacked groups, each trial's outcome bit for bit its own scan's
        outcomes = run_prepared_trials(armed, base, 0, trials(), 10 * n)
        estimates[name] = estimate_edd(outcomes, min_detections=0)
    elapsed = time.time() - start
    edd_t = estimates["tpca"].mean
    edd_m = estimates["maxpca"].mean
    ok = edd_t <= 10.0 and edd_m >= 3.0 * edd_t and elapsed < 900.0
    report(announce, 6, "tailored delay <= 10 and 3x faster than the most-varying axes", ok,
           f"EDD tailored={edd_t:.2f}, most-varying={edd_m:.1f}, {elapsed:.0f}s")
    assert edd_t <= 10.0
    assert edd_m >= 3.0 * edd_t
    assert elapsed < 900.0


def test_criterion_07_argmax_probability_concentration(announce):
    base = CorrelationMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    sel = tailor(
        base,
        ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0)),
        0.9,
        10_000,
        np.random.default_rng(707),
    )
    p_least = sel.argmax_probs[1]
    report(announce, 7, "least-varying axis carries argmax probability >= 0.99", p_least >= 0.99,
           f"P(least)={p_least:.4f}")
    assert p_least >= 0.99


def test_criterion_08_lag_extension_dimension(announce):
    history = [np.full(52, float(i)) for i in range(6)]
    vec = lag_extend_matrix(history, 5)[0]
    raw = np.random.default_rng(808).standard_normal((400, 52))
    ext = lag_extend_matrix(raw, 5)
    summary = estimate_training(ext)
    sel = min_variance_selection(eigensystem(summary.corr), 10)
    model = build_monitor_model(summary, sel, ext, window=50, lag=5)
    ok = vec.shape == (312,) and ext.shape[1] == 312 and model.dim == 312
    report(announce, 8, "lag extension of 52 streams at lag 5 monitors dimension 312", ok,
           f"vector={vec.shape[0]}, model={model.dim}")
    assert ok


def test_criterion_09_run_length_consistency(announce):
    start = time.time()
    root = np.random.SeedSequence([900, 0])
    ss_base, ss_train, ss_tailor, ss_cal, ss_val = root.spawn(5)
    dim, m, n = 10, 100, 100
    base = random_correlation(dim, 1.0, np.random.default_rng(ss_base))
    train = np.random.default_rng(ss_train).standard_normal((m, dim)) @ np.linalg.cholesky(base.values).T
    summary = estimate_training(train)
    sel = tailor(summary.corr, ChangeDistributionSpec(), 0.8, 3000, np.random.default_rng(ss_tailor))
    model = build_monitor_model(summary, sel, train, window=200)
    cfg = CalibrationConfig(alpha=0.01, n=n, confidence=0.5, replicates=2000)
    result = calibrate_threshold(model, train, cfg, rng=np.random.default_rng(ss_cal))
    ahat = _model_world_alarm_hits(model, summary, result.threshold, m, n, 4000, ss_val) / 4000
    implied_arl = n / ahat if ahat > 0 else math.inf
    elapsed = time.time() - start
    ok = 0.5e4 <= implied_arl <= 2e4
    report(announce, 9, "calibrated alpha=0.01, n=100 implies a run length near 1e4", ok,
           f"ahat={ahat:.5f}, n/ahat={implied_arl:.0f}, {elapsed:.0f}s")
    assert ok


def test_criterion_10_mixture_reduction_to_sum_glr(announce):
    rng = np.random.default_rng(1010)
    dim, m, w, steps = 5, 100, 50, 1000
    base = random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    train = rng.standard_normal((m, dim)) @ chol.T
    summary = estimate_training(train)
    sel = min_variance_selection(eigensystem(summary.corr), 3)
    model = build_monitor_model(summary, sel, train, p0=1.0, window=w)
    stream = rng.standard_normal((steps, dim)) @ chol.T

    mon = Monitor(model)
    got = np.array([mon.step(x).stat for x in stream])

    ztr = _training_sums(train - model.training.mean, model.projector)[0]
    zs = np.array([project_observation(model, x) for x in stream])
    worst = 0.0
    for t in range(2, steps + 1):
        best = -math.inf
        for k in range(max(0, t - w - 1), t - 1):
            c = bartlett_correction(m, k, t)
            total = 0.0
            for j in range(model.n_streams):
                seg1 = np.concatenate([ztr[:, j], zs[:k, j]])
                seg2 = zs[k:t, j]
                seg_all = np.concatenate([seg1, seg2])
                total += 0.5 * (
                    seg_all.size * math.log(seg_all.var())
                    - seg1.size * math.log(seg1.var())
                    - seg2.size * math.log(seg2.var())
                ) / c
            best = max(best, total)
        worst = max(worst, abs(got[t - 1] - best))
    report(announce, 10, "p0=1 monitor equals an independent sum-of-streams GLR", worst < 1e-9,
           f"max abs diff={worst:.2e} over {steps} steps")
    assert worst < 1e-9
