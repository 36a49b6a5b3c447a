"""Tests for the seed-and-grow detection heuristic."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet import maxbalancecore
from balancenet.maxbalancecore import (
    _CHUNK_BYTES,
    DetectConfig,
    _SCAN_STEPS,
    _last_conflicts,
    _prune,
    _scan,
    detect,
    expand,
    node_impacts,
)
from balancenet.experiments import regime_edge_law
from balancenet.oracle import exact_lscbm
from balancenet.randgen import SignedModelParams, plant_lscbm, sample_signed
from balancenet.signedgraph import Module, SignedGraph, _mask_nodes, _RowInts, is_scbm, to_signed


def graph_from_edges(n, edges):
    signs = np.zeros((n, n), dtype=np.int8)
    for i, j, s in edges:
        signs[i, j] = signs[j, i] = s
    return SignedGraph(signs=signs)


# ---------------------------------------------------------------- config


def test_detect_config_validation():
    with pytest.raises(ValueError):
        DetectConfig(max_seeds=0)


@pytest.mark.parametrize("max_seeds", [2.5, float("nan"), True, "3"])
def test_detect_config_refuses_a_max_seeds_that_is_not_an_integer(max_seeds):
    # 2.5 and nan were accepted and made detect fail on a slice, True was
    # taken as 1, and "3" raised TypeError
    with pytest.raises(ValueError, match=r"max_seeds .* is not an integer"):
        DetectConfig(max_seeds=max_seeds)
    assert DetectConfig(max_seeds=np.int64(3)) == DetectConfig(max_seeds=3)


@pytest.mark.parametrize("find", [detect, exact_lscbm], ids=["detect", "exact_lscbm"])
def test_module_carries_the_graphs_sigma(find):
    for seed in range(3):
        planted = to_signed(plant_lscbm(14, 3, 3, 0.5, seed).matrix, 0.5)
        module = find(planted)
        assert module.sigma == 0.5
        other = exact_lscbm if find is detect else detect
        assert module.to_report() == other(planted).to_report()

        sampled = sample_signed(SignedModelParams(n=12, alpha_edge=0.6, beta_edge=0.3, seed=seed))
        assert find(sampled).sigma is None


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


def test_detect_chunks_stay_within_the_budget():
    # at n = 1000 a chunk holds 32 seeds, so the 100 seeds take 4 chunks;
    # pruning them all at once would hold about 3 times the budget
    n = 1000
    g = sample_signed(SignedModelParams(n=n, alpha_edge=0.95, beta_edge=0.03, seed=3))
    planes_bytes = g.bit_rows().nbytes
    assert 1 < _CHUNK_BYTES // (planes_bytes // 2) < 100
    tracemalloc.start()
    try:
        detect(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the planes, one row tile of booleans while they are built, and each
    # chunk's gathered rows and the index arrays beside them (the peak read
    # 1.96 MB against a bound of 18.0 MB)
    assert peak <= planes_bytes + n * n + 4 * _CHUNK_BYTES


def test_detect_reuses_rows_across_seeds(monkeypatch):
    # the seeds' scans, cross-prunes, flags and sweeps read rows 1,568 times
    # on this graph but convert each of its 65 nodes' rows once
    converted, read = [], []

    class CountingRows(maxbalancecore._RowInts):
        def __getitem__(self, node):
            read.append(node)
            return super().__getitem__(node)

        def __missing__(self, node):
            converted.append(node)
            return super().__missing__(node)

    monkeypatch.setattr(maxbalancecore, "_RowInts", CountingRows)
    g = sample_signed(SignedModelParams(65, 0.6, 0.3, seed=0))
    assert detect(g) == reference_detect(reference_seed_modules(g, 100))
    assert len(converted) == len(set(converted)) and len(converted) < len(read)


def budget_graphs():
    """Graphs whose seeds split into several chunks under a small chunk budget."""
    graphs = [
        sample_signed(SignedModelParams(n, alpha, beta, seed=n))
        for n, (alpha, beta) in zip((9, 40, 130, 300), [(0.6, 0.3), (0.95, 0.03), (0.05, 0.9), (0.6, 0.3)])
    ]
    clique = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
    graphs.append(graph_from_edges(600, clique + [(4, 5, 1), (4, 6, 1), (4, 7, 1), (4, 8, 1), (7, 8, 1)]))
    return graphs


@pytest.mark.parametrize("budget", [1, 1024, 16 * 1024])
def test_detect_does_not_depend_on_the_chunk_budget(budget, monkeypatch):
    # a 1-byte budget makes each seed a chunk of its own; 1 KiB puts 3 seeds
    # in a chunk at n = 40, and 16 KiB 5 at n = 130.  The default budget puts
    # all the seeds of these graphs in one chunk.
    graphs = budget_graphs()
    want = [detect(g) for g in graphs]
    monkeypatch.setattr(maxbalancecore, "_CHUNK_BYTES", budget)
    assert [detect(g) for g in graphs] == want


def test_detect_does_not_depend_on_the_scan_budget(monkeypatch):
    # a budget of 0 sends every seed to the batched prune, since a seed has
    # a nonempty row, and a budget of n lets every scan finish, since a
    # faction has fewer than n members
    graphs = budget_graphs() + [
        sample_signed(SignedModelParams(400, 0.95, 0.03, seed=4)),
        to_signed(plant_lscbm(300, 30, 60, 0.7, seed=4).matrix, 0.7),
    ]
    want = [detect(g) for g in graphs]
    assert want[-1].size >= 90
    for steps in (0, None):
        for g, module in zip(graphs, want):
            monkeypatch.setattr(maxbalancecore, "_SCAN_STEPS", g.n if steps is None else steps)
            assert detect(g) == module


@pytest.mark.parametrize("regime, falls_back", [("general", False), ("negative", False), ("dense", True)])
def test_only_dense_factions_fall_back_to_the_batched_prune(regime, falls_back, monkeypatch):
    # general and negative factions empty within the scan budget; dense
    # factions keep nearly every member, and their seeds go to _prune
    fallen = []

    def recording(part, planes, conflicts):
        fallen.extend(part.tolist())
        return pruned(part, planes, conflicts)

    pruned = maxbalancecore._pruned
    monkeypatch.setattr(maxbalancecore, "_pruned", recording)
    g = sample_signed(SignedModelParams(1000, *regime_edge_law(regime, 1000), seed=3))
    module = detect(g)
    assert bool(fallen) == falls_back
    monkeypatch.setattr(maxbalancecore, "_SCAN_STEPS", 0)
    assert detect(g) == module


# ---------------------------------------------------------------- last conflicts


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 520])
def test_last_conflicts_match_their_definition(n):
    # W = (the highest v < n with signs[u, v] != 1) // 64 and the word of those
    # v in [64W, 64W + 64); sizes around whole bytes, 64-bit words and row
    # tiles check that no padding bit past n is ever reported
    graphs = [SignedGraph(signs=np.zeros((n, n), dtype=np.int8))]
    for k, (alpha, beta) in enumerate([(0.6, 0.3), (0.95, 0.03), (0.05, 0.9), (1.0, 0.0)]):
        graphs.append(sample_signed(SignedModelParams(max(n, 1), alpha, beta, seed=10 * n + k)))
    for g in graphs:
        signs = g.signs
        tops = [max(v for v in range(g.n) if signs[u, v] != 1) // 64 for u in range(g.n)]
        words = [
            sum(1 << (v % 64) for v in range(64 * w, min(64 * w + 64, g.n)) if signs[u, v] != 1)
            for u, w in enumerate(tops)
        ]
        top, word = _last_conflicts(g.bit_rows()[0])
        assert (top.tolist(), word.tolist()) == (tops, words)


# ---------------------------------------------------------------- pruning


def prune(a, b, g, conflicts=None):
    """``_prune`` on one pair of disjoint factions, packed into its (2, W) masks
    as :func:`detect` packs a seed's A and B, with the graph's last-conflict
    index unless ``conflicts`` is given; the survivors as sorted tuples."""
    planes = g.bit_rows()
    member = np.zeros((2, 8 * planes.shape[2]), dtype=bool)
    member[0, np.asarray(a, dtype=np.intp)] = member[1, np.asarray(b, dtype=np.intp)] = True
    if conflicts is None:
        conflicts = _last_conflicts(planes[0])
    a_out, b_out, _ = _prune(np.packbits(member, axis=1, bitorder="little"), planes, conflicts)
    return tuple(a_out[1].tolist()), tuple(b_out[1].tolist())


def test_prune_removes_lowest_index_violator_first():
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1)])  # S12 = 0
    assert prune([0, 1, 2], [], g) == ((0, 2), ())


def test_prune_cross_faction_violation():
    # A = {0, 1}, B = {2}; node 1 is positive toward B
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, -1), (1, 2, 1)])
    assert prune([0, 1], [2], g) == ((0,), (2,))


def test_prune_valid_factions_unchanged():
    edges = [(0, 1, 1), (2, 3, 1), (0, 2, -1), (0, 3, -1), (1, 2, -1), (1, 3, -1)]
    g = graph_from_edges(4, edges)
    assert prune([0, 1], [2, 3], g) == ((0, 1), (2, 3))


def test_prune_reaches_fixed_point():
    rng = np.random.default_rng(14)
    for _ in range(100):
        n = int(rng.integers(4, 16))
        vals = rng.choice([1, -1, 0], size=(n, n), p=[0.4, 0.3, 0.3])
        upper = np.triu(vals, 1)
        g = SignedGraph(signs=(upper + upper.T).astype(np.int8))
        nodes = rng.permutation(n)
        split = int(rng.integers(0, n + 1))
        a, b = prune(nodes[:split], nodes[split:], g)
        # post-state: positive cliques inside, all-negative across
        for group in (a, b):
            if len(group) >= 2:
                sub = g.signs[np.ix_(group, group)]
                off = ~np.eye(len(group), dtype=bool)
                assert (sub[off] == 1).all()
        if a and b:
            assert (g.signs[np.ix_(a, b)] == -1).all()
        # idempotence at the fixed point
        assert prune(a, b, g) == (a, b)


def reference_prune(a, b, signs):
    """The literal removal rule, one member at a time."""

    def intra(faction):
        alive = sorted(faction)
        while True:
            bad = next((u for u in alive if any(signs[u, v] != 1 for v in alive if v != u)), None)
            if bad is None:
                return alive
            alive.remove(bad)

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
        assert prune(a, b, g) == reference_prune(a, b, g.signs)


@st.composite
def graphs_with_factions(draw):
    """A sampled graph of n nodes, n not a multiple of 64, and two disjoint
    factions drawn over its nodes."""
    n = draw(st.integers(2, 130).filter(lambda n: n % 64))
    alpha, beta = draw(st.sampled_from([(0.6, 0.3), (0.95, 0.03), (0.8, 0.0), (1.0, 0.0), (0.05, 0.9)]))
    g = sample_signed(SignedModelParams(n, alpha, beta, seed=draw(st.integers(0, 2**32))))
    side = np.array(draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n)))
    return g, np.flatnonzero(side == 1).tolist(), np.flatnonzero(side == 2).tolist()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(graphs_with_factions())
def test_prune_survivors_do_not_depend_on_the_last_conflict_index(case):
    # every index entry an empty word at word index -1, which numpy reads as
    # the last word and which is no node's own index, so the word settles no
    # candidate and every one takes the full-row test
    g, a, b = case
    no_index = np.full(g.n, -1), np.zeros(g.n, dtype=np.uint64)
    assert prune(a, b, g) == prune(a, b, g, no_index) == reference_prune(a, b, g.signs)


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
        pruned = prune(a, b, g)
        assert pruned == reference_prune(a, b, g.signs)
        # duplicates, members and untied nodes among the candidates
        cands = rng.integers(0, n, size=int(rng.integers(0, 2 * n + 1))).tolist()
        assert expand(*pruned, g, cands) == reference_expand(*pruned, g.signs, cands)
        assert expand(a, b, g, cands) == reference_expand(a, b, g.signs, cands)


@st.composite
def sweep_cases(draw):
    """A sampled graph of n in {63, 64, 65, 128} nodes under the general, dense
    or negative law, up to six seed-like faction members and a candidate
    list with repeats."""
    n = draw(st.sampled_from([63, 64, 65, 128]))
    law = regime_edge_law(draw(st.sampled_from(["general", "dense", "negative"])), n)
    g = sample_signed(SignedModelParams(n, *law, seed=draw(st.integers(0, 2**32 - 1))))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(0, 6))
    split = draw(st.integers(0, k))
    return g, order[:split], order[split:k], draw(st.lists(st.integers(0, n - 1), max_size=2 * n))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(sweep_cases())
def test_jump_sweep_matches_the_int8_rule(case):
    # sizes at and around one 64-bit word and two: the lowest set flag may sit
    # in any word, and the padding bits past n must never be admitted
    g, a, b, cands = case
    for factions in ((a, b), prune(a, b, g)):
        for candidates in (cands, range(g.n)):
            assert expand(*factions, g, candidates) == reference_expand(*factions, g.signs, candidates)


def reference_scan(faction, signs):
    """The members of ``faction`` that are +1 to every later member, and the
    number of rows, read from the highest member down, after which no unread
    member is +1 to every member read."""
    members = sorted(faction, reverse=True)
    kept = [u for i, u in enumerate(members) if all(signs[u, v] == 1 for v in members[:i])]
    steps = next(
        k for k in range(len(members) + 1) if not any(all(signs[u, v] == 1 for v in members[:k]) for u in members[k:])
    )
    return tuple(sorted(kept)), steps


@st.composite
def scan_cases(draw):
    """A sampled graph of n in {63, 64, 65, 128} nodes under the general,
    dense, negative or (0.8, 0.15) law, and a faction: a node's +1 or -1
    row, or any drawn set of nodes."""
    n = draw(st.sampled_from([63, 64, 65, 128]))
    law = draw(st.sampled_from(["general", "dense", "negative", (0.8, 0.15)]))
    law = law if isinstance(law, tuple) else regime_edge_law(law, n)
    g = sample_signed(SignedModelParams(n, *law, seed=draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["pos", "neg", "drawn"]))
    if kind == "drawn":
        return g, draw(st.sets(st.integers(0, n - 1)))
    return g, set(np.flatnonzero(g.signs[draw(st.integers(0, n - 1))] == (1 if kind == "pos" else -1)).tolist())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scan_cases())
def test_scan_matches_the_literal_survivors_within_its_budget(case):
    # under the default budget and at either side of the rows the faction
    # needs; the dense law at n = 128 gives +1 rows that need more than the
    # default, and the other laws rows and sets that need far fewer
    g, faction = case
    survivors, steps = reference_scan(faction, g.signs)
    for budget in (_SCAN_STEPS, steps, steps - 1):
        with mock.patch.object(maxbalancecore, "_SCAN_STEPS", max(budget, 0)):
            kept = _scan(sum(1 << v for v in faction), _RowInts(g.bit_rows()))
        assert (kept is None) == (steps > max(budget, 0))
        if kept is not None:
            assert _mask_nodes(kept) == survivors


def reference_seed_modules(g, max_seeds):
    """The seed loop, seed by seed, on the literal prune and admission rules.

    Returns each seed's (A, B) in seed order, with the degree screen on the
    candidates and zero-impact seeds skipped; no seed is cut short.
    """
    impacts = (g.signs != 0).sum(axis=1)
    order = np.argsort(-impacts, kind="stable")
    modules = []
    for seed in order[: min(max_seeds, g.n)].tolist():
        if impacts[seed] == 0:
            continue
        a0 = [seed] + np.flatnonzero(g.signs[seed] == 1).tolist()
        b0 = np.flatnonzero(g.signs[seed] == -1).tolist()
        a, b = reference_prune(a0, b0, g.signs)
        cand = np.flatnonzero(impacts >= len(a) + len(b)).tolist()
        modules.append(reference_expand(a, b, g.signs, cand))
    return modules


def reference_detect(modules):
    """The first largest of the seeds' modules, as :func:`detect` reports it."""
    best = max(modules, key=lambda ab: len(ab[0]) + len(ab[1]), default=((), ()))
    if len(best[0]) + len(best[1]) < 3:
        return Module.empty()
    return Module(*best).canonical()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 22, 63, 64, 65, 129, 300])
def test_detect_matches_the_literal_seed_loop(n):
    # sizes around whole bytes and 64-bit words, with equal-size modules from
    # different seeds; each graph's seeds fit one chunk, and
    # test_detect_does_not_depend_on_the_chunk_budget splits them into several
    laws = [(0.6, 0.3), (0.95, 0.03), (0.05, 0.9), (1.0, 0.0)]
    trials = 3 if n < 100 else 1
    for t in range(trials):
        for li, (alpha, beta) in enumerate(laws):
            g = sample_signed(SignedModelParams(n, alpha, beta, seed=1000 * n + 10 * t + li))
            per_seed = reference_seed_modules(g, 100)
            for max_seeds in (1, 3, 100):
                # max_seeds limits the seed ranks; zero-impact seeds come last
                want = reference_detect(per_seed[:max_seeds])
                assert detect(g, DetectConfig(max_seeds=max_seeds)) == want


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


@pytest.mark.parametrize(
    "a, b, candidates, node",
    [([0], [], [5], 5), ([0], [], [-1], -1), ([3], [], [1], 3), ([0], [1, 7], [2], 7), ([0], [], [1, 2, 9], 9)],
)
def test_expand_refuses_a_node_outside_the_graph(a, b, candidates, node):
    # candidate 5 raised IndexError and -1 numpy's "no negative elements"
    g = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match=rf"node {node} is out of range for a graph of 3 nodes"):
        expand(a, b, g, candidates)


@pytest.mark.parametrize(
    "a, b, message",
    [
        ([0, 0], [], "a faction lists a node twice"),
        ([0], [1, 1], "a faction lists a node twice"),
        ([0], [0], "factions must be disjoint"),
        ([0, 1], [2, 1], "factions must be disjoint"),
    ],
    ids=["a-twice", "b-twice", "shared", "shared-later"],
)
def test_expand_refuses_a_node_listed_twice_or_in_both_factions(a, b, message):
    # ([0, 0], []) gave ((0, 0, 2, 3), ()) and ([0], [0]) gave ((0,), (0,))
    g = SignedGraph(signs=np.ones((4, 4), dtype=np.int8) - np.eye(4, dtype=np.int8))
    with pytest.raises(ValueError, match=message):
        expand(a, b, g, [2, 3])
    with pytest.raises(ValueError, match=message):
        Module(a, b)


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


@pytest.mark.parametrize("n", [9, 600])
def test_detect_keeps_seeds_whose_neighbourhood_can_still_win(n):
    # seed 4 (impact 4) finds the triangle {4, 7, 8}; seed 0 (impact 3)
    # then finds the 4-clique, exactly its closed neighbourhood.  Both seeds
    # share a chunk at either size; test_detect_does_not_depend_on_the_chunk_budget
    # runs the n = 600 graph with each seed a chunk of its own.
    clique = [(i, j, 1) for i in range(4) for j in range(i + 1, 4)]
    g = graph_from_edges(n, clique + [(4, 5, 1), (4, 6, 1), (4, 7, 1), (4, 8, 1), (7, 8, 1)])
    assert node_impacts(g)[[4, 0]].tolist() == [4, 3]
    assert detect(g).nodes == (0, 1, 2, 3)


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
