"""Simulation harness: recovery accuracy, size-scaling checks, existence probes.

All runs are reproducible: each trial derives its own sub-seed from the
master seed and the trial index, so results do not depend on scheduling or
on the worker count.  Only ``run_accuracy`` measures wall time: a monotonic
clock around thresholding plus detection, excluding instance generation.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from balancenet.maxbalancecore import DEFAULT_MAX_SEEDS, DetectConfig, detect
from balancenet.oracle import MAX_ORACLE_NODES, count_scbm, exact_lscbm
from balancenet.randgen import SignedModelParams, derive_seed, plant_lscbm, sample_signed
from balancenet.signedgraph import DEFAULT_SIGMA, MIN_MODULE_SIZE, to_signed

Regime = Literal["general", "dense", "negative"]

DEFAULT_TRIALS = 100
GRID_SMALL = tuple(range(10, 201, 10))
GRID_LARGE = tuple(range(300, 6001, 300))


@dataclass(frozen=True)
class AccuracyReport:
    """Recovery rate of the planted module over independent trials."""

    n: int
    n_a: int
    n_b: int
    sigma: float
    trials: int
    seed: int
    accuracy: float
    mean_runtime_s: float


@dataclass(frozen=True)
class ScalingRow:
    """Per-N scaling outcome: observed size vs the predicted size."""

    n: int
    mean_size: float
    prediction: float
    mean_ratio: float
    normalized_ratio: float
    all_positive_fraction: float


@dataclass(frozen=True)
class ScalingReport:
    """Scaling-law verification: one row per N, ratios normalized to mean 1."""

    regime: Regime
    params: dict
    trials: int
    seed: int
    rows: tuple[ScalingRow, ...]
    lambda_value: float | None = None


@dataclass(frozen=True)
class NonemptyReport:
    """Fraction of sampled graphs containing a module of size >= 3."""

    n: int
    alpha_edge: float
    beta_edge: float
    trials: int
    seed: int
    method: str
    fraction: float


@dataclass(frozen=True)
class MultiplicityReport:
    """Oracle-based frequency of seeing two or more maximum-size modules."""

    alpha_edge: float
    beta_edge: float
    trials: int
    seed: int
    rows: tuple[dict, ...] = field(default=())


def scaling_constant(alpha_edge: float, beta_edge: float) -> float:
    """Logarithmic growth constant for fixed edge probabilities.

    Equals |ln alpha|/2 when positive edges dominate (alpha >= beta) and
    (|ln alpha| + |ln beta|)/4 otherwise; the two branches agree at
    alpha == beta.
    """
    if not 0.0 < alpha_edge <= 1.0 or not 0.0 <= beta_edge < 1.0:
        raise ValueError("invalid edge probabilities")
    if alpha_edge >= beta_edge:
        return 0.5 * abs(math.log(alpha_edge))
    return 0.25 * (abs(math.log(alpha_edge)) + abs(math.log(beta_edge)))


def theoretical_size(
    regime: Regime,
    n: int,
    *,
    alpha_edge: float | None = None,
    beta_edge: float | None = None,
    b: float | None = None,
) -> float:
    """Predicted module size for a regime at a given node count.

    general: ln(n) / lambda(alpha, beta); dense: n * ln(b) / b;
    negative: ln(n) / |ln alpha|.  Natural logarithms throughout.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if regime == "general":
        if alpha_edge is None or beta_edge is None:
            raise ValueError("general regime needs alpha_edge and beta_edge")
        if alpha_edge + beta_edge > 1.0 + 1e-15 or alpha_edge <= 0 or beta_edge <= 0:
            raise ValueError("general regime needs alpha, beta > 0 with alpha + beta <= 1")
        if alpha_edge >= 1.0:
            raise ValueError("general regime needs alpha < 1")
        return math.log(n) / scaling_constant(alpha_edge, beta_edge)
    if regime == "dense":
        if b is None or b <= 1.0:
            raise ValueError("dense regime needs b > 1")
        return n * math.log(b) / b
    if regime == "negative":
        if alpha_edge is None or not 0.0 < alpha_edge < 1.0:
            raise ValueError("negative regime needs alpha in (0, 1)")
        return math.log(n) / abs(math.log(alpha_edge))
    raise ValueError(f"unknown regime {regime!r}")


def regime_edge_law(
    regime: Regime,
    n: int,
    *,
    alpha_edge: float = 0.6,
    beta_edge: float = 0.3,
    b: float = 2.0,
) -> tuple[float, float]:
    """Edge probabilities (alpha, beta) used when sampling a regime at size n."""
    if regime == "general":
        return alpha_edge, beta_edge
    if regime == "dense":
        if not 1.0 < b < n:
            raise ValueError("dense regime needs 1 < b < n")
        return 1.0 - b / n, b / n
    if regime == "negative":
        root = 1.0 / math.sqrt(n)
        return root, 1.0 - root
    raise ValueError(f"unknown regime {regime!r}")


def _map_trials(fn: Callable[[int], object], trials: int, workers: int) -> list:
    if workers <= 1:
        return [fn(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(trials)))


def run_accuracy(
    n: int,
    n_a: int,
    n_b: int,
    sigma: float = DEFAULT_SIGMA,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    max_seeds: int = DEFAULT_MAX_SEEDS,
    workers: int = 1,
) -> AccuracyReport:
    """Planted-module recovery: fraction of trials with exact node-set recovery.

    A trial counts as correct when the detector's node set equals the planted
    node set exactly.  Runtime covers thresholding plus detection.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = DetectConfig(sigma=sigma, max_seeds=max_seeds)

    def one_trial(t: int) -> tuple[bool, float]:
        inst = plant_lscbm(n, n_a, n_b, sigma, derive_seed(seed, t))
        start = time.perf_counter()
        module = detect(to_signed(inst.matrix, sigma), cfg)
        elapsed = time.perf_counter() - start
        return module.nodes == inst.truth_nodes, elapsed

    results = _map_trials(one_trial, trials, workers)
    hits = sum(1 for ok, _ in results if ok)
    mean_rt = sum(rt for _, rt in results) / trials
    return AccuracyReport(
        n=n,
        n_a=n_a,
        n_b=n_b,
        sigma=sigma,
        trials=trials,
        seed=seed,
        accuracy=hits / trials,
        mean_runtime_s=mean_rt,
    )


def run_scaling(
    regime: Regime,
    n_grid: Sequence[int],
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    *,
    alpha_edge: float = 0.6,
    beta_edge: float = 0.3,
    b: float = 2.0,
    max_seeds: int = DEFAULT_MAX_SEEDS,
    workers: int = 1,
) -> ScalingReport:
    """Detected-size-to-prediction ratios over an N grid, normalized to mean 1.

    Per N the mean ratio of detected size to the regime's prediction is taken
    over the trials; the per-N means are then divided by their grand mean
    across the grid, so the normalized ratios average to exactly 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = [int(v) for v in n_grid]
    if not grid or any(v < 3 for v in grid):
        raise ValueError("n_grid must be nonempty with n >= 3")
    cfg = DetectConfig(max_seeds=max_seeds)

    raw: list[tuple[int, float, float, float]] = []
    for gi, n in enumerate(grid):
        alpha, beta = regime_edge_law(
            regime, n, alpha_edge=alpha_edge, beta_edge=beta_edge, b=b
        )
        pred = theoretical_size(
            regime, n, alpha_edge=alpha, beta_edge=beta, b=b
        )

        def one_trial(t: int, _n=n, _alpha=alpha, _beta=beta) -> tuple[int, bool]:
            params = SignedModelParams(
                n=_n, alpha_edge=_alpha, beta_edge=_beta, seed=derive_seed(seed, gi, t)
            )
            module = detect(sample_signed(params), cfg)
            return module.size, module.all_positive

        results = _map_trials(one_trial, trials, workers)
        sizes = [s for s, _ in results]
        mean_size = sum(sizes) / trials
        ratio = mean_size / pred
        all_pos = sum(1 for _, ap in results if ap) / trials
        raw.append((n, mean_size, pred, ratio, all_pos))

    grand = sum(r[3] for r in raw) / len(raw)
    rows = tuple(
        ScalingRow(
            n=n,
            mean_size=mean_size,
            prediction=pred,
            mean_ratio=ratio,
            normalized_ratio=ratio / grand if grand else float("nan"),
            all_positive_fraction=all_pos,
        )
        for n, mean_size, pred, ratio, all_pos in raw
    )
    lam = scaling_constant(alpha_edge, beta_edge) if regime == "general" else None
    params = {"alpha_edge": alpha_edge, "beta_edge": beta_edge, "b": b}
    return ScalingReport(
        regime=regime, params=params, trials=trials, seed=seed, rows=rows, lambda_value=lam
    )


def run_nonempty_check(
    n: int,
    alpha_edge: float,
    beta_edge: float,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    method: str = "auto",
    workers: int = 1,
) -> NonemptyReport:
    """Fraction of sampled graphs holding a module of size >= 3.

    Uses exact enumeration when the graph fits the oracle budget
    (n <= MAX_ORACLE_NODES); otherwise the detector provides a lower bound
    on existence.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if method == "auto":
        method = "oracle" if n <= MAX_ORACLE_NODES else "detect"
    if method not in ("oracle", "detect"):
        raise ValueError(f"unknown method {method!r}")

    def one_trial(t: int) -> bool:
        params = SignedModelParams(
            n=n, alpha_edge=alpha_edge, beta_edge=beta_edge, seed=derive_seed(seed, t)
        )
        g = sample_signed(params)
        if method == "oracle":
            return exact_lscbm(g).size >= MIN_MODULE_SIZE
        return detect(g).size >= MIN_MODULE_SIZE

    results = _map_trials(one_trial, trials, workers)
    return NonemptyReport(
        n=n,
        alpha_edge=alpha_edge,
        beta_edge=beta_edge,
        trials=trials,
        seed=seed,
        method=method,
        fraction=sum(results) / trials,
    )


def run_multiplicity(
    n_values: Sequence[int],
    alpha_edge: float = 0.6,
    beta_edge: float = 0.3,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> MultiplicityReport:
    """Oracle-exact frequency of at least two maximum-size modules.

    For each sampled graph with a nonempty maximum module, counts whether the
    number of modules of that size is >= 2; reports the frequency among
    nonempty trials per n.
    """
    rows = []
    for ni, n in enumerate(n_values):
        nonempty = 0
        multiple = 0
        for t in range(trials):
            params = SignedModelParams(
                n=n, alpha_edge=alpha_edge, beta_edge=beta_edge, seed=derive_seed(seed, ni, t)
            )
            g = sample_signed(params)
            best = exact_lscbm(g)
            if best.size < MIN_MODULE_SIZE:
                continue
            nonempty += 1
            if count_scbm(g, best.size) >= 2:
                multiple += 1
        rows.append(
            {
                "n": int(n),
                "nonempty_trials": nonempty,
                "multiple_fraction": multiple / nonempty if nonempty else None,
            }
        )
    return MultiplicityReport(
        alpha_edge=alpha_edge,
        beta_edge=beta_edge,
        trials=trials,
        seed=seed,
        rows=tuple(rows),
    )
