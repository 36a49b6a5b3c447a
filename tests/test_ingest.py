"""Tests for price loading, cleaning, and log returns."""

import csv
import math
import tempfile
from datetime import date as _date
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balancenet.ingest import MIN_ROWS, MIN_TICKERS, PriceTable, load_prices, log_returns


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def day_grid(count):
    start = _date(2020, 1, 1)
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


# ---------------------------------------------------------------- row-wise parser


def reference_load_prices(path):
    """The per-cell loader that the row-wise parser replaced, kept as the
    reference: every cell is stripped and checked in turn, column by column."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read price file {path}: {exc}") from exc

    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"price file {path} is empty")

    header = [cell.strip() for cell in rows[0]]
    if not header or header[0].lower() != "date":
        raise ValueError(f"malformed header in {path}: first column must be 'date'")
    tickers = header[1:]
    if not tickers or any(not t for t in tickers):
        raise ValueError(f"malformed header in {path}: empty ticker name")
    if len(set(tickers)) != len(tickers):
        raise ValueError(f"malformed header in {path}: duplicate ticker names")

    data = rows[1:]
    if len(data) < MIN_ROWS:
        raise ValueError(f"{path}: need at least {MIN_ROWS} data rows, got {len(data)}")

    dates = []
    for row in data:
        if len(row) != len(header):
            raise ValueError(f"{path}: row with {len(row)} cells, expected {len(header)}")
        dates.append(row[0].strip())
    try:
        parsed = [_date.fromisoformat(d) for d in dates]
    except ValueError as exc:
        raise ValueError(f"{path}: bad date value: {exc}") from exc
    if any(b <= a for a, b in zip(parsed, parsed[1:])):
        raise ValueError(f"{path}: dates must be strictly ascending")

    kept, columns, dropped = [], [], []
    for col, ticker in enumerate(tickers, start=1):
        values = []
        reason = None
        for row, day in zip(data, dates):
            cell = row[col].strip()
            if not cell:
                reason = f"missing value on {day}"
                break
            try:
                value = float(cell)
            except ValueError:
                reason = f"non-numeric value {cell!r} on {day}"
                break
            if not math.isfinite(value):
                reason = f"non-finite value on {day}"
                break
            if value <= 0:
                reason = f"non-positive price on {day}"
                break
            values.append(value)
        if reason is None:
            kept.append(ticker)
            columns.append(values)
        else:
            dropped.append((ticker, reason))

    if len(kept) < MIN_TICKERS:
        raise ValueError(
            f"{path}: only {len(kept)} tickers survived cleaning "
            f"(dropped: {', '.join(t for t, _ in dropped) or 'none'})"
        )
    return PriceTable(tickers=tuple(kept), dates=tuple(dates), prices=np.array(columns, dtype=float), drop_log=tuple(dropped))


# cells a price column can hold: bad kinds beside valid prices, some quoted
ODD_CELLS = ("", "  ", "abc", "nan", "inf", "-inf", "0", "-1", " 2.5 ", "1_000", '"3.25"', '" 7 "', '"1,5"', '""')
PRICE_CELLS = st.one_of(
    st.floats(min_value=0.01, max_value=1e6).map(repr),
    st.floats(min_value=0.01, max_value=1e6).map(lambda x: f'"{x!r}"'),
)
# one cell in eight odd, so that most files keep some columns and drop others
CELLS = st.integers(0, 7).flatmap(lambda k: st.sampled_from(ODD_CELLS) if k == 0 else PRICE_CELLS)

# structural faults, each applied to the (header, rows) lists of cells
FAULTS = {
    "short-row": lambda header, rows: rows[1].pop(),
    "long-row": lambda header, rows: rows[2].append("1.0"),
    "swapped-dates": lambda header, rows: rows.insert(0, rows.pop(1)),
    "repeated-date": lambda header, rows: rows[1].__setitem__(0, rows[0][0]),
    "bad-date": lambda header, rows: rows[3].__setitem__(0, "2020-13-01"),
    "few-rows": lambda header, rows: rows.__delitem__(slice(MIN_ROWS - 1, None)),
    "bad-header": lambda header, rows: header.__setitem__(0, "day"),
    "empty-ticker": lambda header, rows: header.__setitem__(1, " "),
    "repeated-ticker": lambda header, rows: header.__setitem__(2, header[1]),
    "blank-line": lambda header, rows: rows.insert(2, [" "] * len(header)),
}


@st.composite
def price_files(draw):
    n_tickers = draw(st.integers(2, 8))
    n_days = draw(st.integers(MIN_ROWS, 9))
    header = ["date", *(f"T{k}" for k in range(n_tickers))]
    rows = [
        [day, *draw(st.lists(CELLS, min_size=n_tickers, max_size=n_tickers))]
        for day in day_grid(n_days)
    ]
    for fault in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=2, unique=True)):
        FAULTS[fault](header, rows)
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _load(loader, path):
    try:
        return loader(path)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(price_files())
def test_row_wise_parser_matches_the_per_cell_reference(text):
    # the reason a column is dropped is its first bad cell in date order,
    # whatever bad kinds follow it; with several structural faults the same
    # message wins as in the reference
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_text(text)
        got, want = _load(load_prices, path), _load(reference_load_prices, path)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, PriceTable), got
    assert (got.tickers, got.dates, got.drop_log) == (want.tickers, want.dates, want.drop_log)
    assert got.prices.tobytes() == want.prices.tobytes()
    assert got.prices.flags.c_contiguous
