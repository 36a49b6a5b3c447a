"""Tests for the seeded graph sampler and the planted-instance generator."""

import math
import tracemalloc

import numpy as np
import pytest

from balancenet.maxbalancecore import node_impacts
from balancenet.oracle import exact_lscbm
from balancenet.randgen import (
    PlantedInstance,
    SignedModelParams,
    derive_seed,
    pair_uniform,
    plant_lscbm,
    sample_signed,
)
from balancenet.signedgraph import is_scbm, to_signed


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, alpha_edge=0.5, beta_edge=0.2),
        dict(n=5, alpha_edge=0.0, beta_edge=0.2),
        dict(n=5, alpha_edge=0.5, beta_edge=1.0),
        dict(n=5, alpha_edge=0.7, beta_edge=0.4),
        dict(n=5, alpha_edge=1.1, beta_edge=0.0),
        dict(n=5, alpha_edge=0.5, beta_edge=-0.1),
    ],
)
def test_model_params_validation(kwargs):
    with pytest.raises(ValueError):
        SignedModelParams(seed=0, **kwargs)


# ---------------------------------------------------------------- sampling


def test_sample_all_positive_edge_law():
    for seed in (0, 123, 10**12):
        g = sample_signed(SignedModelParams(n=12, alpha_edge=1.0, beta_edge=0.0, seed=seed))
        off = ~np.eye(12, dtype=bool)
        assert (g.signs[off] == 1).all()


def test_sample_is_reproducible():
    params = SignedModelParams(n=40, alpha_edge=0.4, beta_edge=0.3, seed=99)
    assert np.array_equal(sample_signed(params).signs, sample_signed(params).signs)
    other = SignedModelParams(n=40, alpha_edge=0.4, beta_edge=0.3, seed=100)
    assert not np.array_equal(sample_signed(params).signs, sample_signed(other).signs)


def test_sample_edge_frequencies_within_binomial_bounds():
    n, alpha, beta = 2000, 0.6, 0.3
    g = sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=4))
    iu, ju = np.triu_indices(n, k=1)
    vals = g.signs[iu, ju]
    pairs = vals.size
    for prob, got in [(alpha, (vals == 1).mean()), (beta, (vals == -1).mean())]:
        bound = 3 * math.sqrt(prob * (1 - prob) / pairs)
        assert abs(got - prob) < bound


def test_sample_matches_per_pair_uniforms():
    """Entries are a pure function of (seed, i, j): generation order is moot."""
    params = SignedModelParams(n=25, alpha_edge=0.5, beta_edge=0.25, seed=321)
    g = sample_signed(params)
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = sorted(rng.choice(25, size=2, replace=False).tolist())
        u = pair_uniform(321, i, j, 25)
        expected = 1 if u < 0.5 else (-1 if u < 0.75 else 0)
        assert g.signs[i, j] == expected
        assert pair_uniform(321, j, i, 25) == u  # unordered pair


def _pair_with_uniform_in(seed, n, lo, hi):
    for i in range(n):
        for j in range(i + 1, n):
            u = pair_uniform(seed, i, j, n)
            if lo <= u < hi:
                return i, j, u
    raise AssertionError("no pair with a uniform in range")


def test_threshold_is_strict_at_the_pairs_own_uniform():
    # u in [1/4, 1/2) lies on the 2**-53 grid, while nextafter(u, 1) lies
    # halfway between two grid points: floor and ceil of it differ
    seed, n = 17, 20
    i, j, u = _pair_with_uniform_in(seed, n, 0.25, 0.5)
    up = float(np.nextafter(u, 1.0))

    def sign(alpha, beta):
        return sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=seed)).signs[i, j]

    assert sign(u, 0.0) == 0  # u < alpha fails at alpha = u
    assert sign(up, 0.0) == 1
    # alpha = 1/8 lies below u; beta is exact, so alpha + beta is the target itself
    for target, expected in ((u, 0), (up, -1)):
        beta = target - 0.125
        assert 0.125 + beta == target
        assert sign(0.125, beta) == expected


def test_sample_edge_law_just_above_one():
    # alpha + beta may exceed 1 by rounding: every pair still gets an edge
    n, seed = 30, 8
    off = ~np.eye(n, dtype=bool)
    alpha, beta = 0.5, 0.5 + 1e-15
    assert 1.0 < alpha + beta <= 1.0 + 1e-15
    g = sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=seed))
    assert (g.signs[off] != 0).all()
    for i in range(n):
        for j in range(i + 1, n):
            assert g.signs[i, j] == (1 if pair_uniform(seed, i, j, n) < alpha else -1)


def test_sample_signed_memory_budget():
    n = 2000
    params = SignedModelParams(n=n, alpha_edge=0.6, beta_edge=0.3, seed=3)
    tracemalloc.start()
    try:
        sample_signed(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 result and small row blocks fit; a full n x n temporary does not
    assert peak <= 1.5 * n * n


def test_pair_uniform_rejects_self_pair():
    with pytest.raises(ValueError):
        pair_uniform(1, 3, 3, 10)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    values = {derive_seed(7, i) for i in range(1000)}
    assert len(values) == 1000
    assert all(0 <= v < 2**63 for v in values)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


# ---------------------------------------------------------------- planting


def test_plant_size_validation():
    with pytest.raises(ValueError):
        plant_lscbm(10, 1, 1, 0.7, 0)  # core of two
    with pytest.raises(ValueError):
        plant_lscbm(10, 8, 4, 0.7, 0)  # exceeds n
    with pytest.raises(ValueError):
        plant_lscbm(10, -1, 4, 0.7, 0)
    with pytest.raises(ValueError):
        plant_lscbm(10, 2, 2, 0.0, 0)


def test_plant_structure():
    inst = plant_lscbm(40, 4, 6, 0.7, seed=5)
    values = inst.matrix.values
    assert np.array_equal(values, values.T)
    assert np.array_equal(np.diag(values), np.ones(40))

    core = list(inst.truth_nodes)
    side = np.zeros(40, dtype=int)
    side[list(inst.truth_a)] = 1
    side[list(inst.truth_b)] = -1
    for i in core:
        for j in core:
            if i != j:
                expected = 1.0 if side[i] == side[j] else -1.0
                assert values[i, j] == expected

    rest = [v for v in range(40) if v not in core]
    for i in rest:
        row = np.abs(values[i])
        row[i] = 0.0
        assert row.max() < 0.7  # strictly weak everywhere


def test_plant_truth_is_balanced_and_unextendable():
    inst = plant_lscbm(30, 3, 4, 0.7, seed=6)
    g = to_signed(inst.matrix, 0.7)
    assert is_scbm(g, inst.truth_nodes)
    impacts = node_impacts(g)
    rest = [v for v in range(30) if v not in inst.truth_nodes]
    assert all(impacts[v] == 0 for v in rest)


def test_plant_oracle_recovers_truth():
    inst = plant_lscbm(10, 2, 3, 0.7, seed=7)
    best = exact_lscbm(to_signed(inst.matrix, 0.7))
    assert best.nodes == inst.truth_nodes


def test_plant_all_positive_clique():
    inst = plant_lscbm(25, 20, 0, 0.7, seed=8)
    assert inst.truth_b == ()
    g = to_signed(inst.matrix, 0.7)
    sub = g.signs[np.ix_(inst.truth_a, inst.truth_a)]
    off = ~np.eye(20, dtype=bool)
    assert (sub[off] == 1).all()


def test_plant_empty_core():
    inst = plant_lscbm(20, 0, 0, 0.7, seed=9)
    assert inst.truth_nodes == ()
    assert np.abs(inst.matrix.values - np.eye(20)).max() < 0.7


def test_plant_is_reproducible():
    a = plant_lscbm(30, 3, 3, 0.7, seed=10)
    b = plant_lscbm(30, 3, 3, 0.7, seed=10)
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert a.truth_a == b.truth_a and a.truth_b == b.truth_b
    assert isinstance(a, PlantedInstance)
