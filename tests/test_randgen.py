"""Tests for the seeded graph sampler and the planted-instance generator."""

import functools
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


@functools.cache
def _upper_uniforms(seed, n, stream):
    """``pair_uniform`` over the upper triangle, in ``np.triu_indices(n, 1)`` order."""
    return np.array([pair_uniform(seed, i, j, n, stream) for i in range(n) for j in range(i + 1, n)])


def test_sample_all_positive_edge_law():
    for seed in (0, 123, 10**12):
        g = sample_signed(SignedModelParams(n=12, alpha_edge=1.0, beta_edge=0.0, seed=seed))
        off = ~np.eye(12, dtype=bool)
        assert (g.signs[off] == 1).all()


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 257, 513])
@pytest.mark.parametrize(
    "alpha, beta",
    [(0.6, 0.3), (1.0, 0.0), (0.2, 0.8), (0.5, math.nextafter(0.5, 1.0))],
    ids=["general", "all-positive", "negative", "sum-just-above-1"],
)
def test_sample_signed_planes_pack_the_per_pair_law(n, alpha, beta):
    seed = 1000 + n
    g = sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=seed))
    # the reference draws each pair's float uniform and cuts it at alpha and alpha + beta
    i, j = np.triu_indices(n, 1)
    u = _upper_uniforms(seed, n, 0)
    expected = np.zeros((n, n), dtype=np.int8)
    expected[i, j] = expected[j, i] = np.where(u < alpha, 1, np.where(u < alpha + beta, -1, 0))
    signs = g.signs
    assert np.array_equal(signs, expected)
    planes = g.bit_rows()
    used = (n + 7) // 8
    assert planes.shape == (2, n, 8 * ((n + 63) // 64))
    for plane, sign in zip(planes, (1, -1)):
        assert np.array_equal(plane[:, :used], np.packbits(signs == sign, axis=1, bitorder="little"))
        assert not plane[:, used:].any()
    if alpha + beta >= 1.0:
        assert np.count_nonzero(signs) == n * (n - 1)


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
    # the packed planes count however they are allocated: tracemalloc does not
    # see an anonymous mmap
    result = 2 * n * 8 * ((n + 63) // 64)
    # the planes and small row blocks fit; a full n x n temporary does not
    assert peak + result <= 1.5 * n * n


def test_pair_uniform_rejects_self_pair():
    with pytest.raises(ValueError):
        pair_uniform(1, 3, 3, 10)


@pytest.mark.parametrize("i, j", [(0, 12), (12, 0), (-1, 2), (2, -1), (0, 10), (10, 10)])
def test_pair_uniform_rejects_indices_outside_the_graph(i, j):
    # (0, 12) of 10 nodes would alias the key of (1, 2); a negative index would wrap
    with pytest.raises(ValueError):
        pair_uniform(1, i, j, 10)


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


@pytest.mark.parametrize(
    "n, n_a, n_b, sigma",
    [
        (1, 0, 0, 0.7),
        (7, 2, 1, 1.0),
        (8, 0, 0, 0.3),
        (9, 3, 0, 0.7),
        (65, 5, 4, 1.0),
        (257, 20, 12, 0.5),
    ],
)
def test_plant_background_matches_pair_uniform(n, n_a, n_b, sigma):
    seed = 2000 + n
    inst = plant_lscbm(n, n_a, n_b, sigma, seed)
    # the reference cuts the sign stream's uniform at 0.30 and 0.30 + 0.35, and
    # scales the weight stream's uniform, moved to its grid midpoint, by sigma
    u_cat = _upper_uniforms(seed, n, 0)
    u_mag = (_upper_uniforms(seed, n, 1) * 2.0**53 + 0.5) * 0.5**53
    mag = np.clip(u_mag * sigma, math.nextafter(0.0, 1.0), math.nextafter(sigma, 0.0))
    expected = np.where(u_cat < 0.30, 0.0, np.where(u_cat < 0.30 + 0.35, mag, -mag))
    i, j = np.triu_indices(n, 1)
    in_core = np.isin(i, inst.truth_nodes) & np.isin(j, inst.truth_nodes)
    values = inst.matrix.values
    assert np.array_equal(values[i, j][~in_core], expected[~in_core])
    assert np.array_equal(values[j, i][~in_core], expected[~in_core])
    assert (np.abs(expected) < sigma).all()


def test_plant_memory_budget():
    # a 20-node core keeps the core's index arrays small; the edge records sit
    # in an anonymous mapping, which tracemalloc does not see
    plant_lscbm(50, 3, 3, 0.7, seed=1)  # warm up lazy imports
    tracemalloc.start()
    try:
        plant_lscbm(2000, 10, 10, 0.7, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the hash buffers and one block's float temporaries fit
    assert peak <= 4 * 2**20


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
