"""Tests for the exact enumeration oracle."""

import itertools

import numpy as np
import pytest

from balancenet.oracle import (
    EnumerationBudgetError,
    MAX_ORACLE_NODES,
    count_scbm,
    exact_lscbm,
)
from balancenet.randgen import SignedModelParams, plant_lscbm, sample_signed
from balancenet.signedgraph import SignedGraph, is_scbm, to_signed


def graph_from_edges(n, edges):
    signs = np.zeros((n, n), dtype=np.int8)
    for i, j, s in edges:
        signs[i, j] = signs[j, i] = s
    return SignedGraph(signs=signs)


def brute_force_best(g):
    """Reference: enumerate all subsets of size >= 3 with the checker."""
    best = ()
    counts = {}
    for s in range(3, g.n + 1):
        for subset in itertools.combinations(range(g.n), s):
            if is_scbm(g, subset):
                counts[s] = counts.get(s, 0) + 1
                if len(subset) > len(best):
                    best = subset
    return best, counts


# ---------------------------------------------------------------- examples


def test_exact_all_positive_k5():
    k5 = graph_from_edges(5, [(i, j, 1) for i in range(5) for j in range(i + 1, 5)])
    best = exact_lscbm(k5)
    assert best.nodes == (0, 1, 2, 3, 4)
    assert best.faction_b == ()


def test_exact_unbalanced_triangle_only():
    g = graph_from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    assert exact_lscbm(g).size == 0


def test_exact_recovers_planted_core():
    inst = plant_lscbm(12, 2, 3, 0.7, seed=3)
    best = exact_lscbm(to_signed(inst.matrix, 0.7))
    assert best.nodes == inst.truth_nodes


def test_count_scbm_on_k4():
    k4 = graph_from_edges(4, [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
    assert count_scbm(k4, 3) == 4
    assert count_scbm(k4, 4) == 1
    assert count_scbm(k4, 5) == 0


def test_count_scbm_empty_graph():
    g = SignedGraph(signs=np.zeros((6, 6), dtype=np.int8))
    assert count_scbm(g, 3) == 0


def test_count_scbm_size_validation():
    g = SignedGraph(signs=np.zeros((4, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        count_scbm(g, 2)


def test_lexicographic_tie_break():
    edges = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1)]
    g = graph_from_edges(6, edges)
    assert exact_lscbm(g).nodes == (0, 1, 2)
    assert count_scbm(g, 3) == 2


# ---------------------------------------------------------------- budget


def test_budget_error_beyond_limit():
    g = SignedGraph(signs=np.zeros((MAX_ORACLE_NODES + 1,) * 2, dtype=np.int8))
    with pytest.raises(EnumerationBudgetError):
        exact_lscbm(g)
    with pytest.raises(EnumerationBudgetError):
        count_scbm(g, 3)


# ---------------------------------------------------------------- properties


def random_graph(seed, n=8, alpha=0.45, beta=0.35):
    return sample_signed(SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=seed))


def test_exact_agrees_with_subset_enumeration():
    for s in range(25):
        g = random_graph(100 + s, n=7)
        best_nodes, counts = brute_force_best(g)
        best = exact_lscbm(g)
        assert best.size == len(best_nodes)
        for size in range(3, 8):
            assert count_scbm(g, size) == counts.get(size, 0)
        if best.size >= 3:
            assert is_scbm(g, best.nodes)


def test_exact_size_equals_largest_counted_size():
    for s in range(20):
        g = random_graph(200 + s, n=9)
        best = exact_lscbm(g)
        sizes_with_modules = [s_ for s_ in range(3, 10) if count_scbm(g, s_) > 0]
        if best.size >= 3:
            assert best.size == max(sizes_with_modules)
        else:
            assert not sizes_with_modules


def test_counts_are_hereditary():
    for s in range(20):
        g = random_graph(300 + s, n=9, alpha=0.55, beta=0.3)
        for size in range(4, 10):
            if count_scbm(g, size) > 0:
                assert count_scbm(g, size - 1) > 0


def test_exact_size_monotone_under_edge_deletion():
    rng = np.random.default_rng(17)
    for s in range(15):
        g = random_graph(400 + s, n=9, alpha=0.6, beta=0.3)
        before = exact_lscbm(g).size
        signs = g.signs.copy()
        nz = np.argwhere(np.triu(signs, 1) != 0)
        if nz.size == 0:
            continue
        drop = nz[rng.integers(0, len(nz))]
        signs[drop[0], drop[1]] = signs[drop[1], drop[0]] = 0
        after = exact_lscbm(SignedGraph(signs=signs)).size
        assert after <= before
