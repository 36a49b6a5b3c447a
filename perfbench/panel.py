"""Seeded synthetic price panel for the ``pricenet`` workload.

Every ticker's daily log return is ``load * f + noise`` for one common
factor ``f``, in three groups:

- sector A loads on +f and sector B on -f, so the two sectors are
  anti-correlated.  Half of each sector loads strongly (pairwise |corr|
  >= 0.8) and half moderately (|corr| <= 0.6 to anything), on fixed grids
  with a wide gap around the detector's sigma = 0.7, so the balanced core
  is exactly the strongly loaded tickers whatever the seed;
- a weak group loads faintly on f and on a second factor, so most of its
  pairs sit near the significance cut and validation zeroes a real share of
  all pairs (a plain two-sector panel keeps almost every pair).

A few weak-group tickers get one blank cell, so ingest drops them as it
would in real data without touching the core.  Nothing is downloaded.
"""

from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import numpy as np

DAILY_VOL = 0.01
SECTOR_SHARE = 0.3  # each of A and B; the rest is the weak group
BLANK_EVERY = 250  # one ticker in this many gets a blank cell


def price_panel(seed: int, n_tickers: int, n_days: int) -> tuple[list[str], list[str], np.ndarray]:
    """Tickers, ISO dates and an (n_days, n_tickers) price array; NaN marks a blank."""
    rng = np.random.default_rng(seed)
    t_len = n_days - 1
    n_sector = int(n_tickers * SECTOR_SHARE)
    n_weak = n_tickers - 2 * n_sector

    n_strong = n_sector // 2
    grid = np.concatenate([np.linspace(2.0, 3.0, n_strong), np.linspace(0.2, 0.8, n_sector - n_strong)])
    load_f = np.concatenate([grid, -grid, np.linspace(-0.15, 0.15, n_weak)])
    load_g = np.concatenate([np.zeros(2 * n_sector), np.full(n_weak, 0.3)])
    order = rng.permutation(n_tickers)  # sectors interleave in the column order
    load_f, load_g = load_f[order], load_g[order]

    # factors scaled to unit sample variance, so the share of pairs validation
    # keeps (and the edge file's size) barely depends on the seed
    f, g = (z / z.std() for z in rng.standard_normal((2, t_len)))
    noise = rng.standard_normal((t_len, n_tickers))
    returns = DAILY_VOL * (np.outer(f, load_f) + np.outer(g, load_g) + noise)
    start = rng.uniform(np.log(5.0), np.log(500.0), n_tickers)
    prices = np.exp(np.vstack([start, start + np.cumsum(returns, axis=0)]))

    weak = order >= 2 * n_sector
    blanks = rng.choice(np.flatnonzero(weak), size=max(1, n_tickers // BLANK_EVERY), replace=False)
    prices[rng.integers(0, n_days, size=blanks.size), blanks] = np.nan

    tickers = [f"T{i:05d}" for i in range(n_tickers)]
    first = date(2001, 1, 2)
    dates = [(first + timedelta(days=d)).isoformat() for d in range(n_days)]
    return tickers, dates, prices


def write_csv(path: Path, tickers: list[str], dates: list[str], prices: np.ndarray) -> None:
    """Wide CSV as ``balancenet build-net`` reads it: ``date`` then one column per ticker."""
    cells = np.char.mod("%.6f", prices)
    cells[np.isnan(prices)] = ""
    lines = [",".join(["date", *tickers])]
    lines += [day + "," + ",".join(row) for day, row in zip(dates, cells.tolist())]
    path.write_text("\n".join(lines) + "\n")
