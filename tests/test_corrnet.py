"""Tests for the correlation matrix and the significance filter."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from balancenet.corrnet import (
    CorrMatrix,
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
from balancenet.signedgraph import Module


def corr_from(values):
    values = np.asarray(values, dtype=float)
    return CorrMatrix(values=values, zero_variance=np.zeros(len(values), dtype=bool))


def pair_matrix(n, i, j, value):
    values = np.eye(n)
    values[i, j] = values[j, i] = value
    return corr_from(values)


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


@pytest.mark.parametrize(
    "nu, alpha",
    [(1, 0.5), (2, 0.05), (5, 0.01), (30, 0.10), (241, 0.05), (999, 0.001)],
)
def test_t_critical_matches_reference(nu, alpha):
    assert t_critical(nu, alpha) == pytest.approx(stats.t.ppf(1 - alpha / 2, nu), abs=1e-7)


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
    v = validate(corr_from(np.eye(5)), t_len=100)
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


def test_validate_requires_enough_samples():
    with pytest.raises(ValueError):
        validate(corr_from(np.eye(3)), t_len=3)


def test_validate_paths_agree_exactly():
    rng = np.random.default_rng(12)
    for _ in range(5):
        c = pearson_matrix(rng.normal(size=(15, 30)))
        by_threshold = validate(c, t_len=30, method="threshold")
        by_tstat = validate(c, t_len=30, method="tstat")
        assert np.array_equal(by_threshold.values, by_tstat.values)


def test_validate_unknown_method():
    with pytest.raises(ValueError):
        validate(corr_from(np.eye(3)), t_len=30, method="bogus")


def test_perfect_correlation_always_significant():
    v = validate(pair_matrix(3, 0, 1, 1.0), t_len=10, method="tstat")
    assert v.values[0, 1] == 1.0


# ---------------------------------------------------------------- summary stats


def as_validated(values):
    return ValidatedCorrMatrix(values=np.asarray(values, float), t_len=None, alpha_level=None)


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


def test_load_validated_missing_files(tmp_path):
    with pytest.raises(ValueError):
        load_validated(tmp_path / "absent")


def write_net(path, edge_lines, n=3, tickers=None):
    path.mkdir()
    (path / "edges.tsv").write_text("".join(line + "\n" for line in edge_lines))
    meta = {"n": n, "t_len": 30, "alpha_level": 0.05, "tickers": tickers}
    (path / "meta.json").write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1.5", "-1.0000001"])
def test_load_validated_rejects_bad_weight(tmp_path, weight):
    net = write_net(tmp_path / "net", ["0\t1\t0.5", f"1\t2\t{weight}"])
    with pytest.raises(ValueError, match=r"edges.tsv:2: weight .* not in \[-1, 1\]"):
        load_validated(net)


def test_load_validated_rejects_duplicate_pair(tmp_path):
    net = write_net(tmp_path / "net", ["0\t1\t0.5", "1\t2\t0.25", "0\t1\t-0.5"])
    with pytest.raises(ValueError, match=r"edges.tsv:3: pair \(0, 1\) listed twice"):
        load_validated(net)


def test_load_validated_rejects_ticker_count(tmp_path):
    net = write_net(tmp_path / "net", ["0\t1\t0.5"], tickers=["A", "B"])
    with pytest.raises(ValueError, match="2 tickers for n=3"):
        load_validated(net)


def test_load_validated_rejects_bad_meta_shape(tmp_path):
    net = write_net(tmp_path / "net", ["0\t1\t0.5"])
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
        ("alpha_level", "0.05", "alpha_level must be null or a number"),
        ("alpha_level", False, "alpha_level must be null or a number"),
    ],
)
def test_load_validated_rejects_bad_meta_field(tmp_path, field, value, message):
    net = write_net(tmp_path / "net", ["0\t1\t0.5"])
    meta = {"n": 3, "t_len": 30, "alpha_level": 0.05, "tickers": None, field: value}
    if value is None:
        del meta[field]
    (net / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"meta.json: {message}"):
        load_validated(net)


def special_weight_matrix(n=320):
    """A validated matrix whose weights stress repr round-tripping."""
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
    return ValidatedCorrMatrix(values=values, t_len=40, alpha_level=0.01, tickers=None)


def test_save_matches_reference_writer_and_round_trips_bit_exactly(tmp_path):
    v = special_weight_matrix()
    save_validated(v, tmp_path / "net")
    iu, ju = np.triu_indices(v.n, k=1)
    kept = v.values[iu, ju] != 0.0
    expected = "".join(
        f"{i}\t{j}\t{w!r}\n"
        for i, j, w in zip(iu[kept].tolist(), ju[kept].tolist(), v.values[iu, ju][kept].tolist())
    )
    assert (tmp_path / "net" / "edges.tsv").read_text() == expected
    assert "\t5e-324\n" in expected and "\t1e-05\n" in expected
    assert not any(line.startswith("7\t") or "\t7\t" in line for line in expected.splitlines())
    back = load_validated(tmp_path / "net")
    assert back.values.tobytes() == v.values.tobytes()
    assert (back.t_len, back.alpha_level, back.tickers) == (40, 0.01, None)


def test_load_validated_empty_edge_file_is_identity(tmp_path):
    net = write_net(tmp_path / "net", [], n=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = load_validated(net)
    assert np.array_equal(v.values, np.eye(4))


def test_load_validated_accepts_blank_line_and_crlf(tmp_path):
    net = write_net(tmp_path / "net", [])
    (net / "edges.tsv").write_bytes(b"0\t1\t0.5\r\n\r\n1\t2\t-0.25\r\n")
    v = load_validated(net)
    assert v.values[0, 1] == v.values[1, 0] == 0.5
    assert v.values[1, 2] == v.values[2, 1] == -0.25
    assert v.values[0, 2] == 0.0


@pytest.mark.parametrize(
    "row",
    [
        "0\t1",
        "0\t1\t0.5\t7",
        "1\t2\t0.5\t",
        "1.0\t2\t0.5",
        "-1\t2\t0.5",
        "0\t3\t0.5",
        "1\t1\t0.5",
    ],
    ids=["2-fields", "4-fields", "trailing-tab", "float-index", "negative-index", "j-ge-n", "i-eq-j"],
)
def test_load_validated_rejects_bad_row(tmp_path, row):
    net = write_net(tmp_path / "net", ["0\t2\t0.5", row])
    with pytest.raises(ValueError, match="edges.tsv"):
        load_validated(net)


@pytest.mark.parametrize("action", ["default", "ignore"])
@pytest.mark.parametrize("index", ["1.0", "0.7", "1e0"])
def test_load_validated_rejects_float_index_whatever_the_warning_filter(tmp_path, index, action):
    # checks the behaviour of a plain run, not of the suite's warnings-as-errors setting
    net = write_net(tmp_path / "net", ["0\t1\t0.5", f"{index}\t2\t0.5"])
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match="edges.tsv"):
            load_validated(net)
