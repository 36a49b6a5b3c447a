"""Tests for the seed-and-grow detection heuristic."""

import tracemalloc

import numpy as np
import pytest

from balancenet.maxbalancecore import (
    DetectConfig,
    detect,
    expand,
    node_impacts,
    prune_factions,
)
from balancenet.oracle import exact_lscbm
from balancenet.randgen import SignedModelParams, plant_lscbm, sample_signed
from balancenet.signedgraph import Module, SignedGraph, is_scbm, to_signed


def graph_from_edges(n, edges):
    signs = np.zeros((n, n), dtype=np.int8)
    for i, j, s in edges:
        signs[i, j] = signs[j, i] = s
    return SignedGraph(signs=signs)


# ---------------------------------------------------------------- config


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(sigma=0.0)
    with pytest.raises(ValueError):
        DetectConfig(sigma=1.2)
    with pytest.raises(ValueError):
        DetectConfig(max_seeds=0)


# ---------------------------------------------------------------- impacts


def test_node_impacts():
    empty = SignedGraph(signs=np.zeros((4, 4), dtype=np.int8))
    assert node_impacts(empty).tolist() == [0, 0, 0, 0]

    path = graph_from_edges(3, [(0, 1, 1), (1, 2, -1)])
    assert node_impacts(path).tolist() == [1, 2, 1]

    k5 = graph_from_edges(5, [(i, j, 1) for i in range(5) for j in range(i + 1, 5)])
    assert node_impacts(k5).tolist() == [4] * 5


@pytest.mark.parametrize("n", [0, 1, 256, 257, 513])
def test_node_impacts_match_the_whole_matrix_count(n):
    upper = np.triu(np.random.default_rng(n).integers(-1, 2, size=(n, n), dtype=np.int8), 1)
    g = SignedGraph(signs=upper + upper.T)
    assert np.array_equal(node_impacts(g), (g.signs != 0).sum(axis=1))


def test_detect_makes_no_full_size_temporaries():
    n = 2000
    g = sample_signed(SignedModelParams(n=n, alpha_edge=0.6, beta_edge=0.3, seed=3))
    tracemalloc.start()
    try:
        detect(g, DetectConfig(max_seeds=5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the packed +1 and -1 planes (n * n / 4 bytes) and row-tile temporaries
    # fit; one n x n mask does not
    assert peak <= 0.5 * n * n
    assert detect(SignedGraph(signs=np.zeros((0, 0), dtype=np.int8))) == Module.empty()


# ---------------------------------------------------------------- pruning


def test_prune_removes_lowest_index_violator_first():
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1)])  # S12 = 0
    assert prune_factions([0, 1, 2], [], g) == ((0, 2), ())


def test_prune_cross_faction_violation():
    # A = {0, 1}, B = {2}; node 1 is positive toward B
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
    assert prune_factions([0, 1], [2], g) == ((0,), (2,))


def test_prune_valid_factions_unchanged():
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, -1)]
    g = graph_from_edges(4, edges)
    assert prune_factions([0, 1], [2, 3], g) == ((0, 1), (2, 3))


def test_prune_rejects_overlapping_factions():
    g = graph_from_edges(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        prune_factions([0, 1], [1, 2], g)


def test_prune_reaches_fixed_point():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(4, 16))
        vals = rng.choice([1, -1, 0], size=(n, n), p=[0.4, 0.3, 0.3])
        upper = np.triu(vals, 1)
        g = SignedGraph(signs=(upper + upper.T).astype(np.int8))
        nodes = rng.permutation(n)
        split = int(rng.integers(0, n + 1))
        a, b = prune_factions(nodes[:split], nodes[split:], g)
        # post-state: positive cliques inside, all-negative across
        for group in (a, b):
            if len(group) >= 2:
                sub = g.signs[np.ix_(group, group)]
                off = ~np.eye(len(group), dtype=bool)
                assert (sub[off] == 1).all()
        if a and b:
            assert (g.signs[np.ix_(a, b)] == -1).all()
        # idempotence at the fixed point
        assert prune_factions(a, b, g) == (a, b)


def reference_prune(a, b, signs):
    """The literal removal rule, one member at a time."""

    def intra(faction):
        alive = sorted(faction)
        while True:
            bad = [u for u in alive if any(signs[u, v] != 1 for v in alive if v != u)]
            if not bad:
                return alive
            alive.remove(bad[0])

    a, b = intra(a), intra(b)
    if a and b:
        a = [u for u in a if all(signs[u, v] == -1 for v in b)]
        if a:
            b = [v for v in b if all(signs[u, v] == -1 for u in a)]
    return tuple(a), tuple(b)


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.3), (0.95, 0.03), (0.05, 0.9), (1.0, 0.0)])
def test_prune_matches_literal_definition(alpha, beta):
    rng = np.random.default_rng(int(alpha * 100) * 1000 + int(beta * 100))
    for trial in range(150):
        n = int(rng.integers(2, 40))
        g = sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=trial))
        nodes = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        split = int(rng.integers(0, nodes.size + 1))
        a, b = nodes[:split].tolist(), nodes[split:].tolist()
        assert prune_factions(a, b, g) == reference_prune(a, b, g.signs)


def reference_expand(a, b, signs, candidates):
    """The literal admission rule over int8 signs, one distinct candidate at a time."""
    a, b = sorted(a), sorted(b)
    for v in sorted(set(candidates)):
        if all(signs[v, u] == 1 for u in a) and all(signs[v, u] == -1 for u in b):
            a.append(v)
        elif all(signs[v, u] == -1 for u in a) and all(signs[v, u] == 1 for u in b):
            b.append(v)
    return tuple(sorted(a)), tuple(sorted(b))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 65])
def test_packed_kernels_match_the_int8_rules(n):
    # sizes off a multiple of 8 (and 65 past one 64-bit word) check that the
    # padding bits of the packed rows are never admitted
    laws = [(0.6, 0.3), (0.95, 0.03), (0.05, 0.9), (0.3, 0.2)]
    rng = np.random.default_rng(n)
    for trial in range(80):
        alpha, beta = laws[trial % len(laws)]
        g = sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=trial))
        nodes = rng.permutation(n)[: int(rng.integers(0, n + 1))]
        split = int(rng.integers(0, nodes.size + 1))
        a, b = nodes[:split].tolist(), nodes[split:].tolist()
        if trial % 5 == 0:
            a, b = [], a + b
        elif trial % 5 == 1:
            a, b = a + b, []
        pruned = prune_factions(a, b, g)
        assert pruned == reference_prune(a, b, g.signs)
        # duplicates, members and untied nodes among the candidates
        cands = rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1))).tolist()
        assert expand(*pruned, g, cands) == reference_expand(*pruned, g.signs, cands)
        assert expand(a, b, g, cands) == reference_expand(a, b, g.signs, cands)


# ---------------------------------------------------------------- expansion


def test_expand_from_two_empty_factions_admits_the_first_candidate():
    g = SignedGraph(signs=np.zeros((3, 3), dtype=np.int8))
    assert expand([], [], g, [0, 1, 2]) == ((0,), ())


def test_expand_joins_positive_faction():
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    assert expand([0, 1], [], g, [2]) == ((0, 1, 2), ())


def test_expand_rejects_zero_tie():
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1)])  # 2 has no tie to 1
    assert expand([0, 1], [], g, [2]) == ((0, 1), ())


def test_expand_mirrored_join():
    g = graph_from_edges(3, [(0, 1, -1), (0, 2, -1), (1, 2, 1)])
    a, b = expand([0], [1], g, [2])
    assert (a, b) == ((0,), (1, 2))
    assert is_scbm(g, a + b)


def test_expand_checks_against_grown_factions():
    # candidate 3 agrees with {0, 1} but disagrees with candidate 2 once joined
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (0, 3, 1), (1, 3, 1), (2, 3, -1)]
    g = graph_from_edges(4, edges)
    assert expand([0, 1], [], g, [2, 3]) == ((0, 1, 2), ())


def test_expand_admits_opposite_faction_after_growth():
    # 2 joins A; 3 must then be negative to 2 as well to enter B
    edges = [(0, 1, 1), (0, 3, -1), (1, 3, -1), (2, 3, -1), (0, 2, 1), (1, 2, 1)]
    g = graph_from_edges(4, edges)
    assert expand([0, 1], [], g, [2, 3]) == ((0, 1, 2), (3,))
    # flip that tie and 3 is shut out
    g2 = graph_from_edges(4, edges[:3] + [(2, 3, 1), (0, 2, 1), (1, 2, 1)])
    assert expand([0, 1], [], g2, [2, 3]) == ((0, 1, 2), ())


# ---------------------------------------------------------------- detection


def test_detect_recovers_planted_module_with_split():
    inst = plant_lscbm(50, 5, 10, 0.7, seed=42)
    module = detect(to_signed(inst.matrix, 0.7))
    assert module.nodes == inst.truth_nodes
    got = {frozenset(module.faction_a), frozenset(module.faction_b)}
    want = {frozenset(inst.truth_a), frozenset(inst.truth_b)}
    assert got == want


def test_detect_empty_graph_returns_empty_module():
    g = SignedGraph(signs=np.zeros((6, 6), dtype=np.int8))
    module = detect(g)
    assert module.size == 0
    assert module.nodes == ()


def test_detect_ignores_modules_below_min_size():
    g = graph_from_edges(2, [(0, 1, 1)])
    assert detect(g).size == 0


def test_detect_skips_zero_impact_seeds():
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1)]  # node 3 isolated
    g = graph_from_edges(4, edges)
    module = detect(g, DetectConfig(max_seeds=4))
    assert module.nodes == (0, 1, 2)


def test_detect_is_deterministic():
    g = sample_signed(SignedModelParams(n=60, alpha_edge=0.5, beta_edge=0.3, seed=77))
    assert detect(g) == detect(g)


def test_detect_output_is_sound():
    rng_seeds = range(40)
    for s in rng_seeds:
        g = sample_signed(SignedModelParams(n=30, alpha_edge=0.5, beta_edge=0.4, seed=1000 + s))
        module = detect(g)
        if module.size >= 3:
            assert is_scbm(g, module.nodes)


def test_detect_never_beats_oracle():
    for s in range(30):
        g = sample_signed(SignedModelParams(n=10, alpha_edge=0.5, beta_edge=0.3, seed=2000 + s))
        assert detect(g).size <= exact_lscbm(g).size


def test_detect_seed_budget_monotonicity():
    for s in range(10):
        g = sample_signed(SignedModelParams(n=40, alpha_edge=0.5, beta_edge=0.3, seed=3000 + s))
        sizes = [detect(g, DetectConfig(max_seeds=k)).size for k in (1, 2, 5, 10, 20, 40)]
        assert sizes == sorted(sizes)


def test_detect_all_positive_clique_has_empty_second_faction():
    inst = plant_lscbm(30, 20, 0, 0.7, seed=8)
    module = detect(to_signed(inst.matrix, 0.7))
    assert module.nodes == inst.truth_nodes
    assert module.all_positive
    assert module.faction_b == ()
