"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines
as they complete.  Tolerances are fixed here, not tuned at runtime.  The
master seed pins every randomized criterion to a reproducible outcome.

Known red: criterion 7's bound (mean detected size <= 6 for every N in the
negative-dominated regime).  The detector's per-N means are 6.1-6.8, and the
largest balanced module is never smaller than a detected one, so the
optimum's mean is at least the detector's: the bound does not describe the
true module size.  A weaker detector could still stay under it.  The
criterion is asserted as stated rather than weakened.
"""

import math
import time

import numpy as np
from scipy import special

from balancenet.corrnet import (
    critical_correlation,
    network_stats,
    pearson_matrix,
    t_critical,
    validate,
)
from balancenet.experiments import run_accuracy, run_nonempty_check, run_scaling
from balancenet.maxbalancecore import detect
from balancenet.oracle import exact_lscbm
from balancenet.randgen import SignedModelParams, derive_seed, plant_lscbm, sample_signed
from balancenet.signedgraph import is_scbm, to_signed

MASTER_SEED = 20240810


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_planted_recovery():
    rep = run_accuracy(1000, 100, 200, sigma=0.7, trials=20, seed=derive_seed(MASTER_SEED, 1))
    ok = rep.accuracy == 1.0 and rep.mean_runtime_s <= 5.0
    report(
        "criterion 1 planted recovery",
        ok,
        f"accuracy={rep.accuracy} mean_runtime={rep.mean_runtime_s:.2f}s (need 1.0, <=5s)",
    )


def test_criterion_2_scalability_10k():
    inst = plant_lscbm(10_000, 1000, 2000, 0.7, seed=derive_seed(MASTER_SEED, 2))
    start = time.perf_counter()
    module = detect(to_signed(inst.matrix, 0.7))
    elapsed = time.perf_counter() - start
    ok = elapsed <= 120.0 and module.nodes == inst.truth_nodes
    report(
        "criterion 2 scalability n=10000",
        ok,
        f"detect={elapsed:.1f}s (limit 120s), exact recovery={module.nodes == inst.truth_nodes}",
    )


def test_criterion_3_asymmetric_recovery():
    results = {}
    for idx, n_b in enumerate((0, 500, 2000)):
        rep = run_accuracy(
            3000, 20, n_b, sigma=0.7, trials=5, seed=derive_seed(MASTER_SEED, 3, idx)
        )
        results[n_b] = rep.accuracy
    ok = all(acc == 1.0 for acc in results.values())
    report("criterion 3 asymmetric recovery", ok, f"accuracy by n_b: {results}")


def test_criterion_4_oracle_soundness():
    params = [(0.6, 0.3), (0.3, 0.6), (0.5, 0.5)]
    start = time.perf_counter()
    sound = dominated = True
    for i in range(200):
        n = 6 + i % 7
        alpha, beta = params[i % 3]
        g = sample_signed(
            SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=derive_seed(MASTER_SEED, 4, i))
        )
        module = detect(g)
        if module.size >= 3 and not is_scbm(g, module.nodes):
            sound = False
        if module.size > exact_lscbm(g).size:
            dominated = False
    elapsed = time.perf_counter() - start
    ok = sound and dominated and elapsed <= 60.0
    report(
        "criterion 4 oracle soundness",
        ok,
        f"200 graphs: sound={sound} never_beats_oracle={dominated} runtime={elapsed:.1f}s (limit 60s)",
    )


def test_criterion_5_general_regime_scaling():
    rep = run_scaling(
        "general", range(300, 3001, 300), trials=20, seed=derive_seed(MASTER_SEED, 5),
        alpha_edge=0.6, beta_edge=0.3,
    )
    sizes = [row.mean_size for row in rep.rows]
    logs = [math.log(row.n) for row in rep.rows]
    corr = float(np.corrcoef(sizes, logs)[0, 1])
    normalized = [row.normalized_ratio for row in rep.rows]
    spread = max(normalized) - min(normalized)
    ok = corr >= 0.95 and spread <= 0.5
    report(
        "criterion 5 general-regime scaling",
        ok,
        f"corr(mean size, ln N)={corr:.4f} (need >=0.95), ratio spread={spread:.4f} (need <=0.5)",
    )


def test_criterion_6_dense_regime_structure():
    rep = run_scaling(
        "dense", range(300, 3001, 300), trials=10, seed=derive_seed(MASTER_SEED, 6), b=2.0
    )
    all_positive = all(row.all_positive_fraction == 1.0 for row in rep.rows)
    sizes = np.array([row.mean_size for row in rep.rows])
    preds = np.array([row.prediction for row in rep.rows])
    slope, intercept = np.polyfit(preds, sizes, 1)
    fitted = slope * preds + intercept
    r_squared = 1.0 - ((sizes - fitted) ** 2).sum() / ((sizes - sizes.mean()) ** 2).sum()
    ok = all_positive and slope > 0 and r_squared >= 0.9
    report(
        "criterion 6 dense-regime structure",
        ok,
        f"all-positive modules=100%? {all_positive}, slope={slope:.3f} (need >0), "
        f"R^2={r_squared:.4f} (need >=0.9)",
    )


def test_criterion_7_negative_regime_bound():
    rep = run_scaling(
        "negative", range(300, 6001, 300), trials=10, seed=derive_seed(MASTER_SEED, 7)
    )
    preds_are_two = all(abs(row.prediction - 2.0) < 1e-12 for row in rep.rows)
    worst = max(row.mean_size for row in rep.rows)
    ok = preds_are_two and worst <= 6.0
    report(
        "criterion 7 negative-regime bound",
        ok,
        f"max per-N mean size={worst:.2f} (need <=6), prediction==2 everywhere: {preds_are_two}",
    )


def test_criterion_8_t_critical_accuracy():
    def cdf_oracle(x: float, nu: int) -> float:
        # independent route: library incomplete beta, same distributional identity
        tail = 0.5 * special.betainc(nu / 2.0, 0.5, nu / (nu + x * x))
        return 1.0 - tail if x >= 0 else tail

    def t_star_oracle(nu: int, alpha: float) -> float:
        target = 1.0 - alpha / 2.0
        lo, hi = 0.0, 64.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if cdf_oracle(mid, nu) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    mine = t_critical(241, 0.05)
    oracle = t_star_oracle(241, 0.05)
    r_star = critical_correlation(243, 0.05)
    r_oracle = oracle / math.sqrt(241 + oracle * oracle)
    ok = (
        abs(mine - 1.96984) <= 1e-4
        and abs(mine - oracle) <= 1e-8
        and abs(r_star - 0.1259) <= 5e-4
        and abs(r_star - r_oracle) <= 1e-8
    )
    report(
        "criterion 8 t-critical accuracy",
        ok,
        f"t*(241,0.05)={mine:.6f} (oracle {oracle:.6f}), r*(T=243)={r_star:.6f}",
    )


def test_criterion_9_validation_equivalence():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 9))
    t_star = t_critical(241, 0.05)
    identical = True
    for _ in range(50):
        corr = pearson_matrix(rng.normal(size=(100, 243)))
        by_threshold = validate(corr, t_len=243)
        values = corr.values
        # the per-pair t-test over the whole matrix; |c| = 1 gives the limit +-inf
        with np.errstate(divide="ignore"):
            by_tstat = np.abs(values * np.sqrt(241 / (1.0 - values * values))) > t_star
        if not np.array_equal(by_threshold.values != 0, by_tstat):
            identical = False
            break
    report(
        "criterion 9 validation equivalence",
        identical,
        "t-test path and critical-correlation shortcut gave identical supports on 50 matrices",
    )


def test_criterion_10_existence_probe():
    rep_50 = run_nonempty_check(50, 0.3, 0.3, trials=100, seed=derive_seed(MASTER_SEED, 10))
    target = 0.1**3
    trials = 10_000
    rep_3 = run_nonempty_check(3, 0.1, 0.0, trials=trials, seed=derive_seed(MASTER_SEED, 11))
    frac_50, frac_3 = rep_50.fraction, rep_3.fraction
    band = 3.0 * math.sqrt(target * (1 - target) / trials)
    methods_ok = rep_50.method == "detect" and rep_3.method == "oracle"
    ok = methods_ok and frac_50 == 1.0 and abs(frac_3 - target) <= band
    report(
        "criterion 10 existence probe",
        ok,
        f"fraction(N=50)={frac_50} by {rep_50.method} (need 1.0, detect); "
        f"fraction(n=3)={frac_3:.4f} by {rep_3.method} (oracle) "
        f"vs {target} within +/-{band:.6f}",
    )


def test_criterion_11_planted_coverage_statistic():
    n, n_a, n_b = 200, 10, 20
    inst = plant_lscbm(n, n_a, n_b, 0.7, seed=derive_seed(MASTER_SEED, 12))
    module = detect(to_signed(inst.matrix, 0.7))
    stats = network_stats(inst.matrix, module)
    expected = (n_a + n_b) / n
    ok = stats.varsigma == expected and stats.lscbm_size == n_a + n_b
    report(
        "criterion 11 planted coverage statistic",
        ok,
        f"varsigma={stats.varsigma} == {(n_a + n_b)}/{n} exactly: {stats.varsigma == expected}",
    )
