"""Tests for the correlation matrix and the significance filter."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from balancenet.corrnet import (
    EDGE_DTYPE,
    ValidatedCorrMatrix,
    critical_correlation,
    load_validated,
    network_stats,
    pearson_matrix,
    save_validated,
    student_t_cdf,
    t_critical,
    t_statistic,
    validate,
)
from balancenet.signedgraph import Module, to_signed


class HandBuiltCorr:
    """A hand-built matrix read the way :func:`validate` reads a
    ``CorrMatrix``: its size ``n`` and its upper row tiles, here of 2 rows,
    so that validate appends the edges of several tiles."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.n = len(self.values)

    def upper_tiles(self):
        for r in range(0, self.n, 2):
            yield r, self.values[r : r + 2, r:]


def pair_matrix(n, i, j, value):
    values = np.eye(n)
    values[i, j] = values[j, i] = value
    return HandBuiltCorr(values)


# ---------------------------------------------------------------- pearson


def test_pearson_perfect_linear_pairs():
    base = np.array([0.1, -0.4, 0.3, 0.9, -0.2])
    c = pearson_matrix(np.vstack([base, 2.0 * base + 3.0, -base]))
    assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert c.values[0, 2] == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_worked_example():
    # sum of products 149 over sqrt(5 * 7205); cross-checked against numpy
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 100.0]])
    expected = 149.0 / math.sqrt(5.0 * 7205.0)
    c = pearson_matrix(rows)
    assert c.values[0, 1] == pytest.approx(expected, abs=1e-12)
    assert c.values[0, 1] == pytest.approx(np.corrcoef(rows)[0, 1], abs=1e-12)
    assert abs(c.values[0, 1] - 0.785026) < 1e-6


def test_pearson_zero_variance_convention():
    rows = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]])
    c = pearson_matrix(rows)
    assert c.zero_variance.tolist() == [True, False]
    assert c.values[0, 1] == 0.0
    assert c.values[0, 0] == 1.0
    # a row with a NaN has no defined variance and is not flagged
    assert pearson_matrix(np.vstack([rows, [1.0, np.nan, 3.0, 4.0]])).zero_variance.tolist() == [True, False, False]


def test_pearson_scales_rows_whose_squares_overflow_or_underflow():
    # unscaled, the squares of the first row overflow and those of the third
    # all underflow: both rows read as zero variance with 0 correlations
    shape = [1.0, -3.0, 2.0, -1.0]
    c = pearson_matrix([[1e200 * x for x in shape], [1.0, -3.0, 2.0, -1.5], [1e-310 * x for x in shape]])
    want = pearson_matrix([shape, [1.0, -3.0, 2.0, -1.5]]).values[0, 1]
    assert c.zero_variance.tolist() == [False, False, False]
    assert c.values[0, 1] == pytest.approx(want, abs=1e-12)
    assert c.values[2, 1] == pytest.approx(want, abs=1e-12)
    assert c.values[0, 2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("scale", [1e-4, 0.01, 1.0, 3.0, 1e6])
def test_pearson_scaling_leaves_ordinary_rows_bit_identical(scale):
    # the power-of-two scale is exact, so z is the unscaled formula's to the
    # bit, and the edge files built from it do not move
    rows = scale * np.random.default_rng(8).standard_t(3, size=(40, 243))
    dev = rows - rows.mean(axis=1, keepdims=True)
    want = dev / np.sqrt((dev * dev).sum(axis=1))[:, None]
    assert np.array_equal(pearson_matrix(rows).z, want)


def test_pearson_exactly_symmetric_unit_diagonal():
    rng = np.random.default_rng(3)
    c = pearson_matrix(rng.normal(size=(20, 60)))
    assert np.array_equal(c.values, c.values.T)
    assert np.array_equal(np.diag(c.values), np.ones(20))
    assert np.abs(c.values).max() <= 1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(6, 50))
    base = pearson_matrix(rows).values
    scaled = pearson_matrix(rows * 2.5 + 1.75).values
    assert np.allclose(scaled, base, atol=1e-12, rtol=0)
    row_flip = rows.copy()
    row_flip[2] *= -1.0
    flipped = pearson_matrix(row_flip).values
    expected = base.copy()
    expected[2, :] *= -1.0
    expected[:, 2] *= -1.0
    np.fill_diagonal(expected, 1.0)
    assert np.allclose(flipped, expected, atol=1e-12, rtol=0)


# ---------------------------------------------------------------- t machinery


def test_t_statistic_values():
    assert t_statistic(0.0, 100) == 0.0
    assert t_statistic(0.5, 27) == pytest.approx(0.5 * math.sqrt(25.0 / 0.75), abs=1e-12)
    assert abs(t_statistic(0.5, 27) - 2.886751) < 1e-6
    assert t_statistic(1.0, 50) == math.inf
    assert t_statistic(-1.0, 50) == -math.inf


def test_t_statistic_errors():
    with pytest.raises(ValueError):
        t_statistic(0.5, 2)
    with pytest.raises(ValueError):
        t_statistic(1.5, 30)
    for c in (np.nextafter(1.0, 2.0), -1.5, math.nan):
        with pytest.raises(ValueError, match=r"correlation must lie in \[-1, 1\]"):
            t_statistic(c, 30)


@pytest.mark.parametrize(
    "nu, alpha",
    [(1, 0.5), (2, 0.05), (5, 0.01), (30, 0.10), (241, 0.05), (999, 0.001), (241, 1e-9), (241, 2.5e-10), (241, 1e-15)],
)
def test_t_critical_matches_reference(nu, alpha):
    # isf keeps the small levels' precision, which ppf(1 - alpha / 2) loses
    assert t_critical(nu, alpha) == pytest.approx(stats.t.isf(alpha / 2, nu), rel=1e-10)


def test_t_critical_landmarks():
    assert abs(t_critical(241, 0.05) - 1.96984) < 1e-4
    assert t_critical(1, 0.5) == pytest.approx(1.0, abs=1e-9)  # Cauchy quartile
    assert abs(t_critical(10**6, 0.05) - 1.95996) < 1e-3  # normal limit


def test_t_critical_round_trip():
    for nu, alpha in [(3, 0.05), (41, 0.01), (241, 0.05), (1200, 0.2)]:
        t_star = t_critical(nu, alpha)
        assert student_t_cdf(t_star, nu) == pytest.approx(1 - alpha / 2, abs=1e-8)


def test_t_critical_rejects_bad_arguments():
    with pytest.raises(ValueError):
        t_critical(0, 0.05)
    with pytest.raises(ValueError):
        t_critical(10, 0.0)
    with pytest.raises(ValueError):
        t_critical(10, 1.0)


def test_student_t_cdf_basics():
    assert student_t_cdf(0.0, 7) == pytest.approx(0.5, abs=1e-12)
    assert student_t_cdf(math.inf, 7) == 1.0
    assert student_t_cdf(-3.0, 9) == pytest.approx(stats.t.cdf(-3.0, 9), abs=1e-10)


# ---------------------------------------------------------------- validation


def test_critical_correlation_value():
    assert abs(critical_correlation(243, 0.05) - 0.1259) < 5e-4


def test_validate_keeps_strong_pair():
    v = validate(pair_matrix(4, 0, 1, 0.9), t_len=243)
    assert v.values[0, 1] == 0.9  # exact copy, not recomputed


def test_validate_zero_matrix_stays_zero():
    v = validate(HandBuiltCorr(np.eye(5)), t_len=100)
    off = ~np.eye(5, dtype=bool)
    assert not v.values[off].any()
    assert np.array_equal(np.diag(v.values), np.ones(5))


def test_validate_drops_weak_pair():
    v = validate(pair_matrix(4, 0, 1, 0.10), t_len=243)
    assert v.values[0, 1] == 0.0


def test_validate_boundary_against_critical_correlation():
    r_star = critical_correlation(243, 0.05)
    just_below = math.nextafter(r_star, 0.0)
    just_above = math.nextafter(r_star, 1.0)
    assert validate(pair_matrix(3, 0, 1, just_below), 243).values[0, 1] == 0.0
    assert validate(pair_matrix(3, 0, 1, r_star), 243).values[0, 1] == 0.0  # strict >
    assert validate(pair_matrix(3, 0, 1, just_above), 243).values[0, 1] == just_above
    # one rule at every length and level: r* and the entry one ulp below it
    # are dropped, the one just above kept, on either sign
    for t_len in (4, 10, 243, 290):
        for alpha in (0.05, 0.01, 0.001, 1e-6):
            r_star = critical_correlation(t_len, alpha)
            values = np.eye(12)
            for k, c in enumerate((math.nextafter(r_star, 0.0), r_star, math.nextafter(r_star, 1.0))):
                values[2 * k, 2 * k + 1] = values[2 * k + 1, 2 * k] = c
                values[2 * k + 6, 2 * k + 7] = values[2 * k + 7, 2 * k + 6] = -c
            v = validate(HandBuiltCorr(values), t_len, alpha)
            assert v.edges.tolist() == [(4, 5, values[4, 5]), (10, 11, values[10, 11])], (t_len, alpha)


def test_validate_requires_enough_samples():
    with pytest.raises(ValueError, match="need T >= 4"):
        validate(HandBuiltCorr(np.eye(3)), t_len=3)


def test_validate_paths_agree_exactly():
    # validate's |c| > r* keeps exactly the pairs the per-pair t-test keeps on
    # Pearson matrices, whose entries are almost never within an ulp of r*
    rng = np.random.default_rng(12)
    t_star = t_critical(28, 0.05)
    for _ in range(5):
        c = pearson_matrix(rng.normal(size=(15, 30)))
        values = c.values
        kept = validate(c, t_len=30).values != 0
        for i in range(15):
            for j in range(15):
                assert kept[i, j] == (i == j or abs(t_statistic(values[i, j], 30)) > t_star)


def test_perfect_correlation_always_significant():
    for c in (1.0, -1.0):
        v = validate(pair_matrix(3, 0, 1, c), t_len=10)
        assert v.values[0, 1] == c
        assert abs(t_statistic(c, 10)) > t_critical(8, 0.05)


def test_validate_matches_the_scalar_statistic():
    # validate keeps exactly the pairs the per-pair t-test keeps, including
    # |c| = 1 and entries 1e-9 either side of r*.  Within an ulp of r* the two
    # rules can differ by rounding, so r* and r* + 1 ulp are asserted through
    # r*: dropped and kept.
    rng = np.random.default_rng(5)
    t_len = 40
    r_star = critical_correlation(t_len, 0.05)
    t_star = t_critical(t_len - 2, 0.05)
    near = {(0, 1): 1.0, (2, 3): -1.0, (8, 9): r_star + 1e-9, (10, 11): -(r_star - 1e-9)}
    at = {(4, 5): r_star, (6, 7): np.nextafter(r_star, 1.0)}
    for _ in range(5):
        values = pearson_matrix(rng.normal(size=(30, t_len))).values.copy()
        for (i, j), c in {**near, **at}.items():
            values[i, j] = values[j, i] = c
        kept = validate(HandBuiltCorr(values), t_len=t_len).values != 0
        assert not kept[4, 5] and kept[6, 7]
        for i in range(30):
            for j in range(i + 1, 30):
                if (i, j) not in at:
                    assert kept[i, j] == kept[j, i] == (abs(t_statistic(values[i, j], t_len)) > t_star)


@pytest.mark.parametrize("route", ["threshold", "tstat"])
@pytest.mark.parametrize("value", [1.5, -1.5, np.nextafter(1.0, 2.0), np.nan])
def test_validate_rejects_correlation_outside_unit_interval_on_both_routes(route, value):
    # validate kept 1.5, which save_validated wrote and load_validated refused;
    # its t-test reference, t_statistic, refuses the same values
    with pytest.raises(ValueError, match=r"correlation must lie in \[-1, 1\]"):
        if route == "threshold":
            validate(pair_matrix(3, 0, 1, value), t_len=10)
        else:
            t_statistic(value, 10)


# ---------------------------------------------------------------- summary stats


def as_validated(values):
    return ValidatedCorrMatrix.from_values(values)


def test_network_stats_small_example():
    values = np.eye(3)
    values[0, 1] = values[1, 0] = 0.5
    values[0, 2] = values[2, 0] = -0.2
    stats_out = network_stats(as_validated(values), Module.empty())
    assert stats_out.xi_plus == pytest.approx(1 / 3)
    assert stats_out.xi_minus == pytest.approx(1 / 3)
    assert stats_out.mu_plus == pytest.approx(0.5)
    assert stats_out.mu_minus == pytest.approx(-0.2)
    assert stats_out.lscbm_size == 0
    assert stats_out.varsigma == 0.0


def test_network_stats_empty_network():
    stats_out = network_stats(as_validated(np.eye(4)), Module.empty())
    assert stats_out.xi_plus == 0.0
    assert stats_out.xi_minus == 0.0
    assert stats_out.mu_plus is None
    assert stats_out.mu_minus is None


def test_network_stats_coverage_matches_published_rounding():
    module = Module(tuple(range(13)), (), 0.7)
    stats_out = network_stats(as_validated(np.eye(1462)), module)
    assert round(stats_out.varsigma, 4) == 0.0089


def test_network_stats_ordered_equals_unordered():
    rng = np.random.default_rng(5)
    values = pearson_matrix(rng.normal(size=(12, 40))).values
    v = as_validated(values)
    stats_out = network_stats(v, Module.empty())
    iu, ju = np.triu_indices(12, k=1)
    upper = values[iu, ju]
    assert stats_out.xi_plus == pytest.approx((upper > 0).mean())
    assert stats_out.xi_minus == pytest.approx((upper < 0).mean())


# ---------------------------------------------------------------- serialization


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    c = pearson_matrix(rng.normal(size=(10, 25)))
    v = validate(c, t_len=25, alpha_level=0.05, tickers=tuple(f"T{i}" for i in range(10)))
    save_validated(v, tmp_path / "net")
    back = load_validated(tmp_path / "net")
    assert np.array_equal(back.values, v.values)
    assert back.t_len == 25
    assert back.alpha_level == 0.05
    assert back.tickers == v.tickers


def test_validate_rejects_tickers_that_do_not_name_every_node():
    # save_validated would write such a network and load_validated refuse it
    c = pearson_matrix(np.random.default_rng(21).normal(size=(3, 25)))
    with pytest.raises(ValueError, match="1 tickers for n=3"):
        validate(c, t_len=25, tickers=("A",))
    assert validate(c, t_len=25, tickers=("A", "B", "C")).tickers == ("A", "B", "C")


def test_load_validated_missing_files(tmp_path):
    with pytest.raises(ValueError):
        load_validated(tmp_path / "absent")


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


def write_net(path, edges, n=3, tickers=None):
    """A network directory whose ``edges.npy`` holds ``edges``: (i, j, w) tuples, an array or raw bytes."""
    path.mkdir()
    if not isinstance(edges, (bytes, np.ndarray)):
        edges = np.array(edges, dtype=EDGE_DTYPE)
    (path / "edges.npy").write_bytes(edges if isinstance(edges, bytes) else npy_bytes(edges))
    meta = {"n": n, "t_len": 30, "alpha_level": 0.05, "tickers": tickers}
    (path / "meta.json").write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1.5", "-1.5", "-1.0000001"])
def test_load_validated_rejects_bad_weight(tmp_path, weight):
    net = write_net(tmp_path / "net", [(0, 1, 0.5), (1, 2, float(weight))])
    with pytest.raises(ValueError, match=r"edges.npy: row 1: weight .* not in \[-1, 1\]"):
        load_validated(net)


def test_load_validated_rejects_duplicate_pair(tmp_path):
    net = write_net(tmp_path / "net", [(0, 1, 0.5), (1, 2, 0.25), (1, 2, -0.5)])
    with pytest.raises(ValueError, match=r"edges.npy: row 2: pair \(1, 2\) does not follow \(1, 2\)"):
        load_validated(net)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 2, 0.5), (0, 1, 0.5)], r"row 1: pair \(0, 1\) does not follow \(0, 2\)"),
        ([(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)], r"row 2: pair \(0, 2\) does not follow \(1, 2\)"),
    ],
    ids=["within-a-node-row", "across-node-rows"],
)
def test_load_validated_rejects_unsorted_rows(tmp_path, edges, message):
    net = write_net(tmp_path / "net", edges)
    with pytest.raises(ValueError, match=f"edges.npy: {message}"):
        load_validated(net)


def test_load_validated_orders_keys_in_int64(tmp_path):
    # 46000 * 50000 wraps in int32 to a key below that of (1, 2)
    net = write_net(tmp_path / "net", [(46_000, 46_001, 0.5), (1, 2, 0.5)], n=50_000)
    with pytest.raises(ValueError, match=r"edges.npy: row 1: pair \(1, 2\) does not follow"):
        load_validated(net)


def test_load_validated_rejects_ticker_count(tmp_path):
    net = write_net(tmp_path / "net", [(0, 1, 0.5)], tickers=["A", "B"])
    with pytest.raises(ValueError, match="2 tickers for n=3"):
        load_validated(net)


def test_load_validated_rejects_bad_meta_shape(tmp_path):
    net = write_net(tmp_path / "net", [(0, 1, 0.5)])
    (net / "meta.json").write_text(json.dumps([3, 30, 0.05]))
    with pytest.raises(ValueError, match="meta.json: expected a JSON object"):
        load_validated(net)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", None, "n must be a non-negative integer"),
        ("n", 2.7, "n must be a non-negative integer"),
        ("n", True, "n must be a non-negative integer"),
        ("n", -1, "n must be a non-negative integer"),
        ("n", "3", "n must be a non-negative integer"),
        ("tickers", "ABC", "tickers must be null or a list of strings"),
        ("tickers", ["A", 2, "C"], "tickers must be null or a list of strings"),
        ("t_len", "30", "t_len must be null or an integer"),
        ("t_len", 29.5, "t_len must be null or an integer"),
        ("t_len", True, "t_len must be null or an integer"),
        ("t_len", -5, "t_len must be null or an integer >= 4"),
        ("t_len", 2, "t_len must be null or an integer >= 4"),
        ("t_len", 3, "t_len must be null or an integer >= 4"),
        ("alpha_level", "0.05", "alpha_level must be null or a number"),
        ("alpha_level", False, "alpha_level must be null or a number"),
        ("alpha_level", 7.0, r"alpha_level must be null or a number in \(0, 1\)"),
        ("alpha_level", 0.0, r"alpha_level must be null or a number in \(0, 1\)"),
        ("alpha_level", 1, r"alpha_level must be null or a number in \(0, 1\)"),
        ("alpha_level", -0.05, r"alpha_level must be null or a number in \(0, 1\)"),
        ("n", 2**31, "n must be a non-negative integer below"),
    ],
)
def test_load_validated_rejects_bad_meta_field(tmp_path, field, value, message):
    net = write_net(tmp_path / "net", [(0, 1, 0.5)])
    meta = {"n": 3, "t_len": 30, "alpha_level": 0.05, "tickers": None, field: value}
    if value is None:
        del meta[field]
    (net / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"meta.json: {message}"):
        load_validated(net)


def special_weight_matrix(n=320):
    """A validated matrix whose weights stress bit-exact round-tripping."""
    rng = np.random.default_rng(8)
    values = rng.uniform(-1.0, 1.0, size=(n, n))
    values[rng.random((n, n)) < 0.5] = 0.0
    specials = [1.0, -1.0, 5e-324, -5e-324, 1e-05, -1e-05, 0.12345678901234568, -0.9876543210987654]
    for k, w in enumerate(specials):
        values[k, n - 1 - k] = w
    values = np.triu(values, k=1)
    values[7, :] = 0.0
    values[:, 7] = 0.0  # node 7 has no edges
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    return ValidatedCorrMatrix.from_values(values, t_len=40, alpha_level=0.01)


def test_save_matches_reference_writer_and_round_trips_bit_exactly(tmp_path):
    v = special_weight_matrix()
    save_validated(v, tmp_path / "net")
    iu, ju = np.triu_indices(v.n, k=1)
    kept = v.values[iu, ju] != 0.0
    expected = np.empty(int(kept.sum()), dtype=EDGE_DTYPE)
    expected["i"], expected["j"], expected["w"] = iu[kept], ju[kept], v.values[iu, ju][kept]
    assert (tmp_path / "net" / "edges.npy").read_bytes() == npy_bytes(expected)
    assert {5e-324, 1e-05} <= set(expected["w"].tolist())
    assert 7 not in expected["i"] and 7 not in expected["j"]
    back = load_validated(tmp_path / "net")
    assert back.values.tobytes() == v.values.tobytes()
    assert (back.t_len, back.alpha_level, back.tickers) == (40, 0.01, None)


def test_save_validated_streams_its_edges(tmp_path):
    n = 2000
    values = np.triu(np.random.default_rng(3).uniform(-1.0, 1.0, size=(n, n)), k=1)
    values[np.abs(values) < 0.5] = 0.0
    values = values + values.T
    np.fill_diagonal(values, 1.0)
    edges = (int(np.count_nonzero(values)) - n) // 2
    v = ValidatedCorrMatrix.from_values(values)
    tracemalloc.start()
    try:
        save_validated(v, tmp_path / "net")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one whole edge array would take 16 bytes per edge; one node row's records fit
    assert peak < EDGE_DTYPE.itemsize * edges


def test_load_validated_empty_edge_file_is_identity(tmp_path):
    # a network with no edges: an edge array of length 0
    net = write_net(tmp_path / "net", [], n=4)
    assert np.array_equal(load_validated(net).values, np.eye(4))


@pytest.mark.parametrize(
    "edges, message",
    [
        (np.array([(0, 2), (1, 2)], dtype=[("i", "<i4"), ("j", "<i4")]), "need a 1-d"),
        (np.zeros(2, dtype=[("i", "<i4"), ("j", "<i4"), ("w", "<f8"), ("x", "<i4")]), "need a 1-d"),
        (np.array([(0.0, 2, 0.5), (1.0, 2, 0.5)], dtype=[("i", "<f8"), ("j", "<i4"), ("w", "<f8")]), "need a 1-d"),
        ([(0, 2, 0.5), (-1, 2, 0.5)], r"row 1: bad index pair \(-1, 2\)"),
        ([(0, 2, 0.5), (0, 3, 0.5)], r"row 1: bad index pair \(0, 3\)"),
        ([(0, 2, 0.5), (1, 1, 0.5)], r"row 1: bad index pair \(1, 1\)"),
        ([(0, 2, 0.5), (2, 1, 0.5)], r"row 1: bad index pair \(2, 1\)"),
    ],
    ids=["2-fields", "4-fields", "float-index", "negative-index", "j-ge-n", "i-eq-j", "i-gt-j"],
)
def test_load_validated_rejects_bad_row(tmp_path, edges, message):
    net = write_net(tmp_path / "net", edges)
    with pytest.raises(ValueError, match=f"edges.npy: {message}"):
        load_validated(net)


GOOD_EDGES = npy_bytes(np.array([(0, 1, 0.5), (1, 2, -0.25)], dtype=EDGE_DTYPE))


@pytest.mark.parametrize(
    "content, message",
    [
        (np.array([(0, 1, 0.5)], dtype=[("i", "<i8"), ("j", "<i8"), ("w", "<f8")]), "need a 1-d"),
        (np.array([(0, 1, 0.5)], dtype=EDGE_DTYPE.newbyteorder(">")), "need a 1-d"),
        (np.array([[(0, 1, 0.5)]], dtype=EDGE_DTYPE), r"need a 1-d .* of shape \(1, 1\)"),
        (np.array([0, 1, 0.5], dtype=object), "Object arrays cannot be loaded"),
        (b"", "EOF"),
        (GOOD_EDGES[:-8], "Failed to read all data"),
        (GOOD_EDGES + b"\0", "data after the last record"),
        (b"0\t1\t0.5\n", "the magic string is not correct"),
    ],
    ids=["wrong-dtype", "big-endian", "2-d", "object", "empty-file", "truncated", "trailing-byte", "text"],
)
def test_load_validated_rejects_a_file_that_is_not_an_edge_array(tmp_path, content, message):
    net = write_net(tmp_path / "net", content)
    with pytest.raises(ValueError, match=f"edges.npy: {message}"):
        load_validated(net)


def sector_returns(n, t_len, seed):
    """Returns of n tickers on a market factor, loadings uniform in [0.2, 1],
    and one of 20 sector factors, loadings uniform in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((21, t_len))
    beta = rng.uniform(0.2, 1.0, n)
    loading = rng.uniform(0.5, 2.0, n)
    noise = rng.standard_normal((n, t_len))
    return beta[:, None] * factors[20] + loading[:, None] * factors[rng.integers(0, 20, n)] + noise


def test_network_layers_make_no_n_by_n_float64(tmp_path):
    n = 2000
    returns = sector_returns(n, 243, seed=4)
    net = tmp_path / "net"
    steps = {
        "pearson_matrix": lambda: pearson_matrix(returns),
        "validate": lambda c: validate(c, t_len=243),
        "save_validated": lambda v: (save_validated(v, net), v)[1],
        "load_validated": lambda v: load_validated(net),
        "to_signed": lambda v: (to_signed(v, 0.5), v)[1],
        "network_stats": lambda v: network_stats(v, Module((0, 1, 2), ())),
    }
    peaks = {}
    result = None
    for name, step in steps.items():
        tracemalloc.start()
        try:
            result = step() if result is None else step(result)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "validate":
            edge_bytes = result.edges.nbytes
    # one n x n float64 is 8n^2 bytes.  The edges, 16 bytes for each of the
    # 53% of pairs kept here, take 0.53 of that (a quarter more while
    # validate grows them), and the row tiles a few MB.
    assert 0.5 < edge_bytes / (8 * n * n) < 0.6
    assert all(peak < 8 * n * n for peak in peaks.values()), peaks
    assert peaks["validate"] < 1.25 * edge_bytes + 2**23


def test_validated_weights_are_the_entries_of_the_tiles():
    # several row tiles; the dense matrix is assembled from the same tiles
    c = pearson_matrix(sector_returns(1500, 40, seed=6))
    v = validate(c, t_len=40)
    values = c.values
    assert np.array_equal(values, values.T)
    i, j, w = v.edges["i"], v.edges["j"], v.edges["w"]
    assert w.size and np.array_equal(w, values[i, j])
    assert np.array_equal(v.values, np.where(np.abs(values) > critical_correlation(40, 0.05), values, 0.0))
