"""Tests for signed graphs, the balance checkers, and faction splitting."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from balancenet.corrnet import EDGE_DTYPE, ValidatedCorrMatrix
from balancenet.maxbalancecore import node_impacts
from balancenet.randgen import SignedModelParams, sample_signed
from balancenet.signedgraph import (
    Module,
    SignedGraph,
    bipartition,
    is_scbm,
    to_signed,
)


def graph_from_edges(n, edges):
    signs = np.zeros((n, n), dtype=np.int8)
    for i, j, s in edges:
        signs[i, j] = signs[j, i] = s
    return SignedGraph(signs=signs)


def complete_graph(signs_by_pair, n):
    return graph_from_edges(n, [(i, j, s) for (i, j), s in signs_by_pair.items()])


def as_validated(values):
    return ValidatedCorrMatrix.from_values(values)


def naive_is_scbm(g, nodes):
    """Reference checker: direct pair and triangle loops."""
    nodes = sorted(nodes)
    if len(nodes) < 3:
        return False
    for i, j in itertools.combinations(nodes, 2):
        if g.signs[i, j] == 0:
            return False
    for i, j, k in itertools.combinations(nodes, 3):
        if g.signs[i, j] * g.signs[i, k] * g.signs[j, k] <= 0:
            return False
    return True


def random_graph(rng, n, p_zero=0.3):
    vals = rng.choice([1, -1, 0], size=(n, n), p=[(1 - p_zero) / 2, (1 - p_zero) / 2, p_zero])
    upper = np.triu(vals, 1)
    return SignedGraph(signs=(upper + upper.T).astype(np.int8))


# ---------------------------------------------------------------- SignedGraph


def test_signed_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        SignedGraph(signs=np.array([[0, 1], [-1, 0]], dtype=np.int8))
    with pytest.raises(ValueError, match="diagonal"):
        SignedGraph(signs=np.array([[1, 1], [1, 0]], dtype=np.int8))
    with pytest.raises(ValueError, match="entries"):
        SignedGraph(signs=np.array([[0, 2], [2, 0]], dtype=np.int8))
    with pytest.raises(ValueError, match="square"):
        SignedGraph(signs=np.zeros((2, 3), dtype=np.int8))
    for sigma in (0.0, 1.2):
        with pytest.raises(ValueError, match="sigma"):
            SignedGraph(signs=np.zeros((2, 2), dtype=np.int8), sigma=sigma)
    assert SignedGraph(signs=np.zeros((2, 2), dtype=np.int8), sigma=None).sigma is None


@pytest.mark.parametrize("n", [257, 513, 600])
def test_signed_graph_rejects_one_broken_mirror_pair(n):
    g = random_graph(np.random.default_rng(n), n)
    pairs = [(0, n - 1), (n - 1, 0), (255, 256), (256, 255), (n - 2, n - 1)]
    if n > 512:  # in the second row of tiles, off its diagonal tile
        pairs += [(300, n - 1), (n - 1, 300)]
    for i, j in pairs:
        signs = g.signs.copy()
        signs[i, j] = 0 if signs[i, j] else 1
        with pytest.raises(ValueError, match="symmetric"):
            SignedGraph(signs=signs)


def test_signed_graph_is_immutable():
    g = SignedGraph(signs=np.array([[0, 1], [1, 0]], dtype=np.int8), sigma=0.7)
    for name, value in (("sigma", 0.5), ("_planes", np.zeros((2, 2, 8), np.uint8)), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(ValueError, match="read-only"):
        g.bit_rows()[0, 0, 0] = 0
    assert g.sigma == 0.7 and g.signs[0, 1] == 1


@pytest.mark.parametrize("n", [0, 1])
def test_signed_graph_accepts_empty_and_single_node(n):
    assert SignedGraph(signs=np.zeros((n, n), dtype=np.int8)).n == n


def test_signed_graph_compares_and_hashes_by_identity():
    g = SignedGraph(signs=np.zeros((3, 3), dtype=np.int8))
    copy = SignedGraph(signs=g.signs.copy())
    assert g == g
    assert g != copy
    assert hash(g) == hash(g)
    assert {g, copy} == {copy, g}
    assert len({g, copy}) == 2


@pytest.mark.parametrize("n", [0, 1, 9, 256, 257, 513])
def test_bit_rows_match_the_whole_matrix_packing(n):
    upper = np.triu(np.random.default_rng(n).integers(-1, 2, size=(n, n), dtype=np.int8), 1)
    g = SignedGraph(signs=upper + upper.T)
    planes = g.bit_rows()
    used = (n + 7) // 8
    assert planes.shape == (2, n, 8 * ((n + 63) // 64))
    for plane, sign in zip(planes, (1, -1)):
        expected = np.packbits(g.signs == sign, axis=1, bitorder="little")
        assert np.array_equal(plane[:, :used], expected)
        assert not plane[:, used:].any()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 65, 300])
def test_signed_graph_round_trips_its_signs(n):
    upper = np.triu(np.random.default_rng(n).integers(-1, 2, size=(n, n), dtype=np.int8), 1)
    signs = upper + upper.T
    out = SignedGraph(signs).signs
    assert out.dtype == np.int8
    assert np.array_equal(out, signs)


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 255, 256, 257, 520])
def test_edge_records_and_planes_agree_at_ragged_sizes(n):
    if n:
        g = sample_signed(SignedModelParams(n=n, alpha_edge=0.4, beta_edge=0.3, seed=n))
    else:
        g = SignedGraph(np.zeros((0, 0), dtype=np.int8))
    edges = np.concatenate([np.empty(0, dtype=EDGE_DTYPE), *g.edge_tiles()])
    i, j, w = edges["i"], edges["j"], edges["w"]
    assert edges.size == node_impacts(g).sum() // 2
    assert (i < j).all() and np.isin(w, (-1.0, 1.0)).all()
    assert ((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))).all()

    planes = g.bit_rows()
    assert np.array_equal(to_signed(ValidatedCorrMatrix(n, edges), 1.0).bit_rows(), planes)
    assert np.array_equal(SignedGraph(g.signs).bit_rows(), planes)
    assert not np.unpackbits(planes, axis=2, bitorder="little")[:, :, n:].any()

    signs = g.signs
    pairs = []
    if n >= 7:  # inside one tile
        pairs += [(1, 5), (5, 1)]
    if n > 256:  # across adjacent tiles
        pairs += [(255, 256), (256, 255)]
    if n >= 2:  # in the last, partial tile
        pairs += [(n - 2, n - 1), (n - 1, n - 2)]
    for a, b in pairs:
        broken = signs.copy()
        broken[a, b] = 0 if broken[a, b] else 1
        with pytest.raises(ValueError, match="signs must be symmetric"):
            SignedGraph(broken)


@pytest.mark.parametrize(
    "entry",
    [256, 255, 0.5, 1.7, np.int8(-128)],
    ids=["wraps-to-0", "wraps-to-minus-1", "half", "one-point-seven", "int8-min"],
)
def test_signed_graph_rejects_entries_before_casting(entry):
    signs = np.array([[0, entry], [entry, 0]], dtype=np.asarray(entry).dtype)
    with pytest.raises(ValueError, match="entries"):
        SignedGraph(signs=signs)


# ---------------------------------------------------------------- to_signed


def test_to_signed_threshold_boundaries():
    values = np.eye(4)
    values[0, 1] = values[1, 0] = 0.71
    values[0, 2] = values[2, 0] = -0.69
    values[1, 2] = values[2, 1] = -0.95
    values[0, 3] = values[3, 0] = 0.7  # boundary is inclusive
    g = to_signed(as_validated(values), sigma=0.7)
    assert g.signs[0, 1] == 1
    assert g.signs[0, 2] == 0
    assert g.signs[1, 2] == -1
    assert g.signs[0, 3] == 1
    assert not np.diag(g.signs).any()


@pytest.mark.parametrize("sigma", [0.0, -0.1, 1.0001])
def test_to_signed_sigma_range(sigma):
    with pytest.raises(ValueError):
        to_signed(as_validated(np.eye(3)), sigma)


def test_to_signed_keeps_entries_exactly_at_plus_and_minus_sigma():
    n, sigma = 300, 0.7
    values = np.eye(n)
    inside = np.nextafter(sigma, 0.0)
    for (i, j), value in {(0, 1): sigma, (2, 299): -sigma, (5, 6): inside, (7, 260): -inside}.items():
        values[i, j] = values[j, i] = value
    expected = np.zeros((n, n), dtype=np.int8)
    expected[0, 1] = expected[1, 0] = 1
    expected[2, 299] = expected[299, 2] = -1
    g = to_signed(as_validated(values), sigma)
    assert np.array_equal(g.signs, expected)
    assert np.array_equal(g.bit_rows(), SignedGraph(expected).bit_rows())


@pytest.mark.parametrize("i, j", [(0, 1), (1, 0), (3, 299), (299, 3), (298, 299)])
def test_to_signed_rejects_an_asymmetric_matrix(i, j):
    n = 300
    upper = np.triu(np.random.default_rng(5).uniform(-1, 1, size=(n, n)), 1)
    values = upper + upper.T + np.eye(n)
    values[i, j] = -0.9 if values[j, i] >= 0.5 else 0.9
    # a network holds only the upper triangle, so the asymmetry is refused
    # when the matrix becomes one, before to_signed could see it
    with pytest.raises(ValueError, match="values must be symmetric"):
        to_signed(as_validated(values), 0.5)


def test_to_signed_makes_no_float_copies():
    n = 1000
    upper = np.triu(np.random.default_rng(2).uniform(-1, 1, size=(n, n)), 1)
    v = as_validated(upper + upper.T + np.eye(n))
    tracemalloc.start()
    try:
        to_signed(v, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the int8 result and one boolean temporary fit; one float64 copy does not
    assert peak <= 4 * n * n


def test_to_signed_monotone_in_sigma():
    rng = np.random.default_rng(8)
    values = rng.uniform(-1, 1, size=(12, 12))
    values = np.triu(values, 1) + np.triu(values, 1).T
    np.fill_diagonal(values, 1.0)
    v = as_validated(values)
    lower = to_signed(v, 0.4).signs != 0
    higher = to_signed(v, 0.8).signs != 0
    assert not np.any(higher & ~lower)


# ---------------------------------------------------------------- is_scbm


def test_is_scbm_examples():
    k4 = graph_from_edges(4, [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
    assert is_scbm(k4, [0, 1, 2, 3])

    unbalanced = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    assert not is_scbm(unbalanced, [0, 1, 2])

    missing = graph_from_edges(3, [(0, 1, 1), (0, 2, 1)])
    assert not is_scbm(missing, [0, 1, 2])

    assert not is_scbm(k4, [0, 1])  # below minimum size


def test_is_scbm_input_validation():
    g = graph_from_edges(3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        is_scbm(g, [0, 0, 1])
    with pytest.raises(ValueError):
        is_scbm(g, [0, 1, 5])


def test_is_scbm_agrees_with_reference_checker():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n)
        k = int(rng.integers(3, n + 1))
        nodes = rng.choice(n, size=k, replace=False).tolist()
        assert is_scbm(g, nodes) == naive_is_scbm(g, nodes)


def test_is_scbm_hereditary():
    rng = np.random.default_rng(10)
    for _ in range(30):
        n = int(rng.integers(4, 10))
        side = rng.choice([1, -1], size=n)
        signs = np.outer(side, side).astype(np.int8)
        np.fill_diagonal(signs, 0)
        g = SignedGraph(signs=signs)
        assert is_scbm(g, range(n))
        k = int(rng.integers(3, n))
        subset = rng.choice(n, size=k, replace=False).tolist()
        assert is_scbm(g, subset)


# ---------------------------------------------------------------- bipartition


def test_bipartition_all_positive():
    k4 = graph_from_edges(4, [(i, j, 1) for i in range(4) for j in range(i + 1, 4)])
    assert bipartition(k4, [0, 1, 2, 3]) == ((0, 1, 2, 3), ())


def test_bipartition_gathers_only_the_module_block():
    n = 2000
    side = np.where(np.arange(n) % 3 == 0, -1, 1).astype(np.int8)
    signs = np.outer(side, side)
    np.fill_diagonal(signs, 0)
    g = SignedGraph(signs)
    nodes = list(range(0, n, n // 20))
    tracemalloc.start()
    try:
        split = bipartition(g, nodes)
        balanced = is_scbm(g, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert balanced
    # node 0 anchors faction A
    assert split == (tuple(v for v in nodes if v % 3 == 0), tuple(v for v in nodes if v % 3))
    # a 20 x 20 block and its 20 packed rows fit; unpacking the graph does not
    assert peak < n * n / 8


def test_is_scbm_and_bipartition_stay_within_4_bytes_per_pair():
    n, k = 2000, 1000
    side = np.where(np.arange(n) % 3 == 0, -1, 1).astype(np.int8)
    signs = np.outer(side, side)
    np.fill_diagonal(signs, 0)
    g = SignedGraph(signs)
    nodes = list(range(0, n, 2))
    peaks = []
    tracemalloc.start()
    try:
        for check in (is_scbm, bipartition):
            tracemalloc.reset_peak()
            assert check(g, nodes)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    # the gathered bits and the int8 block fit; a float64 or int64 copy does not
    assert max(peaks) <= 6 * k * k


def test_is_scbm_and_bipartition_read_rows_not_a_block():
    # each node's rows are read as ints one at a time; the int8 block read
    # 4.02 bytes per pair here
    n, k = 2000, 1000
    side = np.where(np.arange(n) % 3 == 0, -1, 1).astype(np.int8)
    signs = np.outer(side, side)
    np.fill_diagonal(signs, 0)
    g = SignedGraph(signs)
    nodes = list(range(0, n, 2))
    peaks = []
    tracemalloc.start()
    try:
        for check in (is_scbm, bipartition):
            tracemalloc.reset_peak()
            assert check(g, nodes)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) <= k * k / 4


def test_bipartition_two_factions():
    edges = []
    group_a, group_b = (0, 1), (2, 3, 4)
    for i, j in itertools.combinations(range(5), 2):
        same = (i in group_a) == (j in group_a)
        edges.append((i, j, 1 if same else -1))
    g = graph_from_edges(5, edges)
    assert bipartition(g, range(5)) == ((0, 1), (2, 3, 4))
    assert is_scbm(g, range(5))


def test_bipartition_failure_and_errors():
    unbalanced = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, -1)])
    assert bipartition(unbalanced, [0, 1, 2]) is None
    incomplete = graph_from_edges(3, [(0, 1, 1), (0, 2, 1)])
    with pytest.raises(ValueError, match="incomplete"):
        bipartition(incomplete, [0, 1, 2])


@pytest.mark.parametrize("nodes", [[0, 1.5, 2], [0.0, 1.0, 2.9], [0, True, 2], ["0", 1, 2], [np.float64(0), 1, 2]])
def test_is_scbm_and_bipartition_refuse_non_integer_nodes(nodes):
    # the cast to intp cut 1.5 to 1 and 2.9 to 2, so the all +1 triangle passed
    triangle = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    with pytest.raises(ValueError, match="is not an integer"):
        is_scbm(triangle, nodes)
    with pytest.raises(ValueError, match="is not an integer"):
        bipartition(triangle, nodes)


def test_bipartition_returns_python_ints_for_numpy_nodes():
    triangle = graph_from_edges(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    assert is_scbm(triangle, np.arange(3))
    a, b = bipartition(triangle, np.array([2, 0, 1], dtype=np.int32))
    assert (a, b) == ((0, 1, 2), ()) and all(type(v) is int for v in a)


def test_bipartition_anchors_lowest_index_in_a():
    # node 0 negative to everyone else: 0 alone against {1, 2}
    g = graph_from_edges(3, [(0, 1, -1), (0, 2, -1), (1, 2, 1)])
    assert bipartition(g, [0, 1, 2]) == ((0,), (1, 2))


def test_balance_equivalence_exhaustive():
    """On complete graphs of 3..5 nodes, the triangle condition holds iff a
    faction split exists, across every possible sign assignment."""
    for n in (3, 4, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for assignment in itertools.product((1, -1), repeat=len(pairs)):
            g = complete_graph(dict(zip(pairs, assignment)), n)
            nodes = list(range(n))
            split = bipartition(g, nodes)
            assert is_scbm(g, nodes) == (split is not None)
            assert (split is not None) == naive_is_scbm(g, nodes)
            if split is not None:
                a, b = split
                for i in a:
                    for j in a:
                        if i != j:
                            assert g.signs[i, j] == 1
                for i in a:
                    for j in b:
                        assert g.signs[i, j] == -1


# ---------------------------------------------------------------- Module


def test_module_basics():
    m = Module((3, 1), (2,), 0.7)
    assert m.faction_a == (1, 3)
    assert m.nodes == (1, 2, 3)
    assert m.size == 3
    assert not m.all_positive
    assert Module((1, 2), (), 0.7).all_positive
    assert Module.empty().size == 0
    with pytest.raises(ValueError):
        Module((1, 2), (2, 3), 0.7)


@pytest.mark.parametrize("a, b", [((1, 1, 2), ()), ((), (4, 0, 4)), ((0, 3, 3), (5,))])
def test_module_rejects_a_node_listed_twice(a, b):
    with pytest.raises(ValueError, match="a faction lists a node twice"):
        Module(a, b, 0.7)
    with pytest.raises(ValueError, match="a faction lists a node twice"):
        Module.from_report({"faction_a": list(a), "faction_b": list(b)})


def test_module_stores_numpy_integers_as_python_ints():
    m = Module((np.int64(3), np.int32(1)), (np.uint8(2),), 0.7)
    assert m == Module((1, 3), (2,), 0.7)
    assert all(type(v) is int for v in m.faction_a + m.faction_b)
    assert json.loads(json.dumps(m.to_report()))["nodes"] == [1, 2, 3]


@pytest.mark.parametrize("nodes", [(1.5, 2), (0, True), ("1", 2), (np.float64(1.0), 2), (np.True_, 2)])
def test_module_refuses_non_integer_nodes(nodes):
    with pytest.raises(ValueError, match="is not an integer"):
        Module(nodes, ())
    with pytest.raises(ValueError, match="is not an integer"):
        Module((), nodes)


def test_module_canonical_swaps_factions():
    m = Module((5, 6), (0, 2), 0.7).canonical()
    assert m.faction_a == (0, 2)
    assert m.faction_b == (5, 6)
    assert Module((), (1, 2, 3), 0.7).canonical().faction_a == (1, 2, 3)


def test_module_report_round_trip():
    m = Module((0, 1), (4,), 0.7)
    report = m.to_report()
    assert report == {
        "sigma": 0.7,
        "size": 3,
        "nodes": [0, 1, 4],
        "faction_a": [0, 1],
        "faction_b": [4],
        "all_positive": False,
    }
    assert Module.from_report(report) == m


@pytest.mark.parametrize(
    "report, message",
    [
        ({"faction_a": ["x"], "faction_b": [], "sigma": 0.7}, "faction_a must be a list of integers"),
        ({"faction_a": [1.5, 2, 3], "faction_b": [], "sigma": 0.7}, "faction_a must be a list of integers"),
        ({"faction_a": [0, True], "faction_b": [], "sigma": 0.7}, "faction_a must be a list of integers"),
        ({"faction_a": [0, 1], "sigma": 0.7}, "faction_b must be a list of integers"),
        ({"faction_a": [0, 1], "faction_b": "2", "sigma": 0.7}, "faction_b must be a list of integers"),
        ({"faction_a": [0, 1], "faction_b": [2], "sigma": "0.7"}, "sigma must be null or a number"),
        ([[0, 1], [2]], "must be a JSON object"),
        ({"faction_a": [0, 1], "faction_b": [2], "sigma": 1.5}, r"sigma must be null or a number in \(0, 1\]"),
        ({"faction_a": [0, 1], "faction_b": [2], "sigma": 0}, r"sigma must be null or a number in \(0, 1\]"),
        ({"faction_a": [0, 1], "faction_b": [2], "sigma": -0.7}, r"sigma must be null or a number in \(0, 1\]"),
        ({"faction_a": [0, 1], "faction_b": [2], "sigma": float("nan")}, r"sigma must be null or a number in \(0, 1\]"),
    ],
)
def test_module_from_report_rejects_bad_report(report, message):
    with pytest.raises(ValueError, match=message):
        Module.from_report(report)
