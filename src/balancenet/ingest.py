"""Price-table loading, cleaning, and log-return computation.

Input format is a wide CSV: first column ``date`` (ISO-8601), one column per
ticker, rows in ascending date order.  A ticker survives only if every cell
in its column parses to a finite, strictly positive number; anything else
drops the whole ticker (no imputation, no truncation).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date as _date
from pathlib import Path

import numpy as np

MIN_ROWS = 5  # T + 1 >= 5 so the downstream t-test has nu = T - 2 >= 2
MIN_TICKERS = 2


@dataclass(frozen=True)
class PriceTable:
    """Aligned positive price series for N tickers over T+1 trading days.

    ``drop_log`` records (ticker, reason) pairs for columns discarded during
    loading; it is empty for tables built directly.
    """

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray
    drop_log: tuple[tuple[str, str], ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        prices = np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "prices", prices)
        n, cols = prices.shape
        if n != len(self.tickers):
            raise ValueError("price row count does not match ticker count")
        if cols != len(self.dates):
            raise ValueError("price column count does not match date count")
        if n < MIN_TICKERS:
            raise ValueError(f"need at least {MIN_TICKERS} tickers, got {n}")
        if cols < 4:  # T >= 3
            raise ValueError("need at least 4 trading days")
        if not np.isfinite(prices).all() or (prices <= 0).any():
            raise ValueError("prices must be finite and strictly positive")
        parsed = [_date.fromisoformat(d) for d in self.dates]
        if any(b <= a for a, b in zip(parsed, parsed[1:])):
            raise ValueError("dates must be strictly ascending")

    @property
    def n(self) -> int:
        return len(self.tickers)

    @property
    def t_len(self) -> int:
        """Number of return observations T (one less than the day count)."""
        return len(self.dates) - 1


@dataclass(frozen=True)
class ReturnMatrix:
    """N x T matrix of one-day logarithmic returns."""

    tickers: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        if returns.shape[0] != len(self.tickers):
            raise ValueError("return row count does not match ticker count")
        if not np.isfinite(returns).all():
            raise ValueError("returns must be finite")

    @property
    def t_len(self) -> int:
        return self.returns.shape[1]


def load_prices(path: str | Path) -> PriceTable:
    """Load a wide CSV of prices, dropping tickers with unusable histories.

    The file is read as UTF-8 whatever the locale, and a leading byte-order
    mark is skipped.  Raises ValueError for an unreadable or non-UTF-8 file
    or one the CSV reader rejects, a malformed header, non-ascending dates,
    fewer than MIN_ROWS data rows, or fewer than two surviving tickers.
    Dropped tickers and the reason for each drop are recorded on the returned
    table's ``drop_log``.
    """
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

    dates: list[str] = []
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

    # one float() per cell, a row at a time; a cell it rejects becomes NaN,
    # which the column checks below treat as any other bad cell
    cells = np.empty((len(data), len(tickers)))
    for t, row in enumerate(data):
        try:
            cells[t] = np.fromiter(map(float, row[1:]), float, len(tickers))
        except ValueError:
            cells[t] = [_parsed(cell) for cell in row[1:]]
    good = ((cells > 0) & (cells < math.inf)).all(axis=0)

    kept = [t for t, ok in zip(tickers, good) if ok]
    dropped = [
        (ticker, _drop_reason([row[col] for row in data], dates))
        for col, (ticker, ok) in enumerate(zip(tickers, good), start=1)
        if not ok
    ]
    if len(kept) < MIN_TICKERS:
        raise ValueError(
            f"{path}: only {len(kept)} tickers survived cleaning "
            f"(dropped: {', '.join(t for t, _ in dropped) or 'none'})"
        )

    return PriceTable(
        tickers=tuple(kept),
        dates=tuple(dates),
        prices=np.ascontiguousarray(cells[:, good].T),
        drop_log=tuple(dropped),
    )


def _parsed(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _drop_reason(cells: list[str], dates: list[str]) -> str:
    """Why a column is dropped: its first cell, in date order, that is blank,
    not a number, not finite or not positive."""
    for cell, day in zip(cells, dates):
        cell = cell.strip()
        if not cell:
            return f"missing value on {day}"
        try:
            value = float(cell)
        except ValueError:
            return f"non-numeric value {cell!r} on {day}"
        if not math.isfinite(value):
            return f"non-finite value on {day}"
        if value <= 0:
            return f"non-positive price on {day}"
    raise AssertionError("the column has no bad cell")


def log_returns(table: PriceTable) -> ReturnMatrix:
    """One-day log returns: returns[i][t] = ln(P_i(t+1) / P_i(t))."""
    ratios = table.prices[:, 1:] / table.prices[:, :-1]
    return ReturnMatrix(tickers=table.tickers, returns=np.log(ratios))
