"""Tests for price loading, cleaning, and log returns."""

import math
from datetime import date, timedelta

import numpy as np
import pytest

from balancenet.ingest import PriceTable, load_prices, log_returns


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def day_grid(count):
    start = date(2020, 1, 1)
    return tuple((start + timedelta(days=d)).isoformat() for d in range(count))


def make_table(prices, tickers=None, dates=None):
    prices = np.asarray(prices, dtype=float)
    n, cols = prices.shape
    if tickers is None:
        tickers = tuple(f"T{i}" for i in range(n))
    if dates is None:
        dates = day_grid(cols)
    return PriceTable(tickers=tuple(tickers), dates=tuple(dates), prices=prices)


def test_load_drops_ticker_with_missing_cell(tmp_path):
    rows = [[f"2020-01-{d + 1:02d}", 100 + d, 200 + d, 300 + d] for d in range(10)]
    rows[4][2] = ""  # blank cell for BBB
    path = write_csv(tmp_path / "p.csv", ["date", "AAA", "BBB", "CCC"], rows)
    table = load_prices(path)
    assert table.tickers == ("AAA", "CCC")
    assert [t for t, _ in table.drop_log] == ["BBB"]
    assert "missing" in table.drop_log[0][1]


def test_load_clean_input_passes_through(tmp_path):
    rows = [[f"2020-01-{d + 1:02d}", 10 + d, 20 + d] for d in range(6)]
    path = write_csv(tmp_path / "p.csv", ["date", "AAA", "BBB"], rows)
    table = load_prices(path)
    assert table.tickers == ("AAA", "BBB")
    assert table.drop_log == ()
    assert table.prices.shape == (2, 6)


def test_load_skips_a_leading_byte_order_mark(tmp_path):
    rows = [[f"2020-01-{d + 1:02d}", 10 + d, 20 + d] for d in range(6)]
    path = write_csv(tmp_path / "p.csv", ["date", "AAA", "BBB"], rows)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    table = load_prices(path)
    assert table.tickers == ("AAA", "BBB")
    assert table.prices.shape == (2, 6)


def test_load_drops_zero_price(tmp_path):
    rows = [[f"2020-01-{d + 1:02d}", 10 + d, 20 + d, 5 + d] for d in range(8)]
    rows[3][3] = 0.0  # zero price: log return undefined
    path = write_csv(tmp_path / "p.csv", ["date", "AAA", "BBB", "CCC"], rows)
    table = load_prices(path)
    assert table.tickers == ("AAA", "BBB")
    assert table.drop_log[0][0] == "CCC"
    assert "non-positive" in table.drop_log[0][1]


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda rows, header: header.__setitem__(0, "day"), "header"),
        (lambda rows, header: rows.__setitem__(2, ["2020-01-01", 1, 2]), "ascending"),
        (lambda rows, header: rows.__delitem__(slice(3, None)), "at least 5"),
    ],
)
def test_load_structural_errors(tmp_path, mutate, match):
    header = ["date", "AAA", "BBB"]
    rows = [[f"2020-01-{d + 1:02d}", 10 + d, 20 + d] for d in range(6)]
    mutate(rows, header)
    path = write_csv(tmp_path / "p.csv", header, rows)
    with pytest.raises(ValueError, match=match):
        load_prices(path)


def test_load_too_few_survivors(tmp_path):
    rows = [[f"2020-01-{d + 1:02d}", 10 + d, ""] for d in range(6)]
    path = write_csv(tmp_path / "p.csv", ["date", "AAA", "BBB"], rows)
    with pytest.raises(ValueError, match="survived"):
        load_prices(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        load_prices(tmp_path / "nope.csv")


def test_log_returns_values():
    table = make_table(
        [
            [100.0, 100.0, 100.0, 100.0],
            [100.0, 110.0, 121.0, 133.1],
            [100.0, 50.0, 25.0, 12.5],
        ]
    )
    r = log_returns(table)
    assert np.allclose(r.returns[0], 0.0, atol=0)
    assert r.returns[1] == pytest.approx([math.log(1.1)] * 3, abs=1e-12)
    assert abs(r.returns[1][0] - 0.0953102) < 1e-6
    assert r.returns[2] == pytest.approx([-math.log(2.0)] * 3, abs=1e-12)
    assert abs(r.returns[2][0] + 0.6931472) < 1e-6
    assert r.t_len == table.t_len == 3


def test_returns_telescope_to_total_log_growth():
    rng = np.random.default_rng(11)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=(5, 250)), axis=1))
    table = make_table(prices)
    r = log_returns(table)
    total = r.returns.sum(axis=1)
    expected = np.log(prices[:, -1] / prices[:, 0])
    assert np.all(np.abs(total - expected) <= 1e-12 * np.abs(expected))


def test_returns_invariant_under_price_rescaling():
    rng = np.random.default_rng(7)
    prices = 50.0 + rng.random((3, 40)) * 10
    base = log_returns(make_table(prices)).returns
    # exact binary scalings leave returns bit-identical
    for factor in (2.0, 0.25, 1024.0):
        scaled = log_returns(make_table(prices * factor)).returns
        assert np.array_equal(base, scaled)
    # arbitrary positive scalings agree to tight tolerance
    scaled = log_returns(make_table(prices * 3.7)).returns
    assert np.allclose(base, scaled, atol=1e-12, rtol=0)


@pytest.mark.parametrize(
    "prices",
    [
        [[1.0, 2.0, 3.0, 0.0], [1.0, 2.0, 3.0, 4.0]],  # non-positive
        [[1.0, 2.0, 3.0, np.nan], [1.0, 2.0, 3.0, 4.0]],  # non-finite
    ],
)
def test_price_table_rejects_bad_prices(prices):
    with pytest.raises(ValueError):
        make_table(prices)


def test_price_table_rejects_small_shapes():
    with pytest.raises(ValueError):
        make_table([[1.0, 2.0, 3.0, 4.0]])  # one ticker
    with pytest.raises(ValueError):
        make_table([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])  # three days
