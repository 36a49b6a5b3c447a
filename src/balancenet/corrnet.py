"""Pearson correlation matrices and per-pair significance filtering.

A correlation entry survives filtering when the two-sided t-test rejects the
zero-correlation null at the configured level.  Because the test statistic is
monotone in |c| for fixed sample length, the filter is applied as one rule,
|c| > r*, through a precomputed critical correlation r* rather than per-pair
t values.  The two agree up to rounding within an ulp of r*.

The Student-t machinery (CDF via the regularized incomplete beta function,
critical values via bracketed bisection) is self-contained so that results
are reproducible without an external statistics dependency.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from balancenet.ingest import ReturnMatrix
    from balancenet.signedgraph import Module

DEFAULT_ALPHA_LEVEL = 0.05

EDGE_FILE = "edges.npy"
META_FILE = "meta.json"
EDGE_DTYPE = np.dtype([("i", "<i4"), ("j", "<i4"), ("w", "<f8")])


# cells of the correlation matrix per row tile: a tile and its same-sized
# temporaries take a few MB whatever n is
_TILE_CELLS = 1 << 18


@dataclass(frozen=True, eq=False)
class CorrMatrix:
    """Symmetric Pearson matrix with unit diagonal, read in upper row tiles.

    :func:`pearson_matrix` keeps only the rows' z-scores ``z`` (unit length,
    all zero for a row without variance) and computes each tile from them
    when it is read (see :meth:`upper_tiles`).  :attr:`values` assembles the
    n x n matrix from the same tiles on demand.
    """

    z: np.ndarray

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def zero_variance(self) -> np.ndarray:
        """Flags the rows whose return series had no variance, the all-zero
        rows of ``z``; every off-diagonal entry touching such a row is 0 by
        convention."""
        return ~self.z.any(axis=1)

    def upper_tiles(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(r, tile)`` for r = 0, k, 2k, ...: rows r..r + k - 1 by
        columns r..n - 1 of the matrix, k fixed by a cell budget.

        A tile is ``z[r:r+k] @ z[r:].T`` clipped to [-1, 1], with its
        diagonal set to 1; the zero rows of ``z`` make every entry of a
        zero-variance row 0.
        """
        n = self.n
        k = max(1, _TILE_CELLS // max(n, 1))
        for r in range(0, n, k):
            tile = self.z[r : r + k] @ self.z[r:].T
            np.clip(tile, -1.0, 1.0, out=tile)
            np.fill_diagonal(tile, 1.0)
            yield r, tile

    @property
    def values(self) -> np.ndarray:
        """The n x n matrix: its upper tiles mirrored, a new array."""
        values = np.zeros((self.n, self.n))
        for r, tile in self.upper_tiles():
            upper = np.triu(tile, 1)
            values[r : r + len(tile), r:] = upper
            values[r:, r : r + len(tile)] += upper.T
        np.fill_diagonal(values, 1.0)
        return values


@dataclass(frozen=True, eq=False)
class ValidatedCorrMatrix:
    """A validated network on ``n`` nodes, held as its edges.

    ``edges`` is a 1-D :data:`EDGE_DTYPE` array of records (i, j, w), one per
    nonzero entry of the upper triangle, i < j, in ascending (i, j) order.
    The matrix they stand for is symmetric with unit diagonal, and each
    off-diagonal entry is either 0 or the exact Pearson value it came from.
    :attr:`values` builds that n x n float64 matrix on demand (8n^2 bytes);
    the pipeline never asks for it.  ``t_len`` and ``alpha_level`` are None
    for synthetic networks that never went through the significance test.
    """

    n: int
    edges: np.ndarray
    t_len: int | None = None
    alpha_level: float | None = None
    tickers: tuple[str, ...] | None = None

    @classmethod
    def from_values(
        cls,
        values: np.ndarray,
        t_len: int | None = None,
        alpha_level: float | None = None,
        tickers: tuple[str, ...] | None = None,
    ) -> "ValidatedCorrMatrix":
        """The network of a symmetric square matrix, e.g. a hand-built one; its
        diagonal is ignored, and its other entries must lie in [-1, 1]."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("values must be a square matrix")
        if not np.array_equal(values, values.T, equal_nan=True):
            raise ValueError("values must be symmetric")
        edges, count = _append_upper(np.empty(0, dtype=EDGE_DTYPE), 0, 0, values, values != 0)
        if not (np.abs(edges["w"][:count]) <= 1.0).all():  # also true for NaN
            raise ValueError("correlation must lie in [-1, 1]")
        return cls(len(values), edges[:count], t_len, alpha_level, tickers)

    @property
    def values(self) -> np.ndarray:
        """The n x n float64 matrix with unit diagonal, a new array."""
        i, j, w = self.edges["i"], self.edges["j"], self.edges["w"]
        values = np.zeros((self.n, self.n))
        values[i, j] = w
        values[j, i] = w
        np.fill_diagonal(values, 1.0)
        return values


@dataclass(frozen=True)
class NetworkStats:
    """Network-level summary: sign proportions, sign means, module coverage.

    ``mu_plus``/``mu_minus`` are None when there are no entries of that sign.
    """

    xi_plus: float
    xi_minus: float
    mu_plus: float | None
    mu_minus: float | None
    lscbm_size: int
    varsigma: float


def pearson_matrix(returns: "ReturnMatrix | np.ndarray") -> CorrMatrix:
    """Pearson correlation matrix of the return rows, held as their z-scores.

    Entries are computed tile by tile when read (see
    :meth:`CorrMatrix.upper_tiles`), each unordered pair once, so the
    mirrored matrix is exactly symmetric and no n x n array is built.
    Zero-variance rows produce 0 correlations (flagged) instead of an error,
    keeping index stability through the pipeline.  Each row is scaled by a
    power of two near its largest magnitude before its mean is taken, so the
    sum cannot overflow, and its deviations likewise before they are
    squared, so the squares neither overflow nor all underflow; the scaling
    is exact, so z is the same to the bit as without it for ordinary rows.
    """
    data = np.asarray(getattr(returns, "returns", returns), dtype=float)
    if data.ndim != 2:
        raise ValueError("returns must be a 2-d array")
    n, t_len = data.shape
    if t_len < 2:
        raise ValueError("need at least 2 return observations")

    dev = np.ldexp(data, -np.frexp(np.abs(data).max(axis=1, keepdims=True))[1])
    dev -= dev.mean(axis=1, keepdims=True)
    np.ldexp(dev, -np.frexp(np.abs(dev).max(axis=1, keepdims=True))[1], out=dev)
    norms = np.sqrt((dev * dev).sum(axis=1, keepdims=True))
    return CorrMatrix(dev / np.where(norms == 0.0, 1.0, norms))  # a zero norm means all-zero deviations


def t_statistic(c: float, t_len: int) -> float:
    """Test statistic c * sqrt((T-2) / (1-c^2)) for a Pearson coefficient.

    Returns a signed infinity for |c| = 1 (the analytic limit, always
    significant).
    """
    if t_len < 3:
        raise ValueError("t_statistic requires T >= 3")
    if not abs(c) <= 1:  # also true for NaN
        raise ValueError("correlation must lie in [-1, 1]")
    if abs(c) == 1.0:
        return math.inf if c > 0 else -math.inf
    return c * math.sqrt((t_len - 2) / (1.0 - c * c))


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation (modified Lentz), switching to the
    symmetry-reflected form when x is past the distribution bulk so the
    fraction converges quickly.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def student_t_cdf(x: float, nu: float) -> float:
    """CDF of Student's t with nu degrees of freedom."""
    if nu <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    tail = 0.5 * _reg_inc_beta(0.5 * nu, 0.5, nu / (nu + x * x))
    return 1.0 - tail if x >= 0 else tail


def t_critical(nu: float, alpha_level: float) -> float:
    """Two-sided critical value t* with P(|t| > t*) = alpha_level.

    Solved by doubling to bracket the quantile, then bisecting the tail
    CDF(-t) against alpha_level / 2 (not the CDF against 1 - alpha_level / 2,
    which loses small levels) to an interval of width 1e-10.
    """
    if nu < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < alpha_level < 1.0:
        raise ValueError("alpha_level must lie in (0, 1)")
    target = 0.5 * alpha_level
    lo, hi = 0.0, 1.0
    while student_t_cdf(-hi, nu) > target:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("failed to bracket the t quantile")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if student_t_cdf(-mid, nu) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_correlation(t_len: int, alpha_level: float) -> float:
    """Smallest |c| rejected by the two-sided test: r* = t*/sqrt(nu + t*^2)."""
    if t_len < 4:
        raise ValueError("need T >= 4 so that nu = T - 2 >= 2")
    nu = t_len - 2
    t_star = t_critical(nu, alpha_level)
    return t_star / math.sqrt(nu + t_star * t_star)


def _append_upper(edges: np.ndarray, count: int, r: int, tile: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, int]:
    """Write the cells of ``tile`` (rows r.., columns r.. of a matrix) that the
    bool ``kept`` flags strictly above the diagonal into ``edges[count:]`` as
    records (i, j, w), in ascending order; ``kept`` is cleared on and below it.
    ``edges`` grows by ``resize`` if it must.  Returns ``(edges, new count)``."""
    rows, width = kept.shape
    kept[:, :rows] &= np.triu(np.ones((rows, rows), dtype=bool), 1)
    cells = np.flatnonzero(kept)
    end = count + cells.size
    if end > edges.size:
        # realloc moves a large array's pages rather than copying them, so
        # the edges are never held twice; a quarter more keeps resizes few
        edges.resize(end + end // 4, refcheck=False)
    row = np.repeat(np.arange(rows), np.count_nonzero(kept, axis=1))
    edges["i"][count:end] = row + r
    edges["j"][count:end] = cells - row * width + r
    edges["w"][count:end] = tile.ravel()[cells]
    return edges, end


def validate(
    corr: CorrMatrix,
    t_len: int,
    alpha_level: float = DEFAULT_ALPHA_LEVEL,
    tickers: tuple[str, ...] | None = None,
) -> ValidatedCorrMatrix:
    """Keep the entries whose two-sided t-test rejects at ``alpha_level``.

    Entry (i, j) is kept iff |C_ij| > r*, with r* = :func:`critical_correlation`
    computed once: the t-test of :func:`t_statistic` against
    :func:`t_critical`, up to rounding within an ulp of r*.  The kept entries
    of each upper tile of ``corr`` become its edges, so no n x n array is
    built.  ``tickers``, when given, names each of the n rows.
    """
    r_star = critical_correlation(t_len, alpha_level)
    if tickers is not None and len(tickers) != corr.n:
        raise ValueError(f"{len(tickers)} tickers for n={corr.n}")

    edges = np.empty(0, dtype=EDGE_DTYPE)
    count = 0
    for r, tile in corr.upper_tiles():
        if not (-1.0 <= tile.min() and tile.max() <= 1.0):  # also true for NaN
            raise ValueError("correlation must lie in [-1, 1]")
        kept = (tile > r_star) | (tile < -r_star)
        edges, count = _append_upper(edges, count, r, tile, kept)
    edges.resize(count, refcheck=False)
    return ValidatedCorrMatrix(corr.n, edges, t_len, alpha_level, tickers)


def network_stats(v: ValidatedCorrMatrix, module: "Module") -> NetworkStats:
    """Sign proportions and means over off-diagonal entries, plus coverage.

    Proportions are taken over all N(N-1) ordered off-diagonal cells, where
    each edge fills two; the means are taken over the edges, which by
    symmetry equals the mean over the cells.
    """
    n = v.n
    w = v.edges["w"]
    total = n * (n - 1)
    pos = w[w > 0]
    neg = w[w < 0]
    xi_plus = 2 * pos.size / total if total else 0.0
    xi_minus = 2 * neg.size / total if total else 0.0
    mu_plus = float(pos.mean()) if pos.size else None
    mu_minus = float(neg.mean()) if neg.size else None
    size = module.size
    return NetworkStats(
        xi_plus=xi_plus,
        xi_minus=xi_minus,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        lscbm_size=size,
        varsigma=size / n if n else 0.0,
    )


@contextmanager
def _atomic_open(path: Path) -> Iterator[BinaryIO]:
    """Open a temp file beside ``path`` for binary writing; rename it over ``path`` on success.

    Readers see either the old file or the complete new one.  On any error
    the temp file is removed and ``path`` is left as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text.encode("utf-8"))


def save_validated(v: ValidatedCorrMatrix, out_dir: str | Path) -> None:
    """Write the edges as ``edges.npy`` plus a JSON sidecar ``meta.json``.

    ``edges.npy`` is a 1-D array of :data:`EDGE_DTYPE` records (i, j, w): the
    network's edges as it holds them, zero-based, in ascending (i, j) order.
    Weights round-trip bit-exactly.  The sidecar holds {n, t_len,
    alpha_level, tickers}.  Both files are replaced atomically.
    """
    _save_edges(out_dir, v.n, v.edges.size, [v.edges], v.t_len, v.alpha_level, v.tickers)


def _save_edges(
    out_dir: str | Path,
    n: int,
    count: int,
    chunks: Iterable[np.ndarray],
    t_len: int | None = None,
    alpha_level: float | None = None,
    tickers: tuple[str, ...] | None = None,
) -> None:
    """:func:`save_validated` for a network whose ``count`` edges come as
    record arrays in ascending order, written one array at a time, so that
    they are never all held at once."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = {"descr": np.lib.format.dtype_to_descr(EDGE_DTYPE), "fortran_order": False, "shape": (count,)}
    with _atomic_open(out_dir / EDGE_FILE) as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        written = 0
        for chunk in chunks:
            fh.write(np.ascontiguousarray(chunk, dtype=EDGE_DTYPE))
            written += len(chunk)
        if written != count:  # the header would not describe the file
            raise ValueError(f"{count} edges announced, {written} written")
    meta = {
        "n": n,
        "t_len": t_len,
        "alpha_level": alpha_level,
        "tickers": list(tickers) if tickers is not None else None,
    }
    _atomic_write(out_dir / META_FILE, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_meta(meta_path: Path) -> tuple[int, int | None, float | None, list[str] | None]:
    """Parse and check the sidecar: ``(n, t_len, alpha_level, tickers)``."""
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # also a file that is not UTF-8
        raise ValueError(f"{meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    n = meta.get("n")
    if not _is_int(n) or not 0 <= n < 2**31:  # node indices are int32
        raise ValueError(f"{meta_path}: n must be a non-negative integer below 2**31, got {n!r}")
    t_len = meta.get("t_len")
    # validate's own preconditions: T >= 4 and a level in (0, 1)
    if t_len is not None and not (_is_int(t_len) and t_len >= 4):
        raise ValueError(f"{meta_path}: t_len must be null or an integer >= 4, got {t_len!r}")
    alpha = meta.get("alpha_level")
    if alpha is not None and not (_is_number(alpha) and 0 < alpha < 1):
        raise ValueError(f"{meta_path}: alpha_level must be null or a number in (0, 1), got {alpha!r}")
    tickers = meta.get("tickers")
    if tickers is not None:
        if not isinstance(tickers, list) or not all(isinstance(t, str) for t in tickers):
            raise ValueError(f"{meta_path}: tickers must be null or a list of strings")
        if len(tickers) != n:
            raise ValueError(f"{meta_path}: {len(tickers)} tickers for n={n}")
    return n, t_len, alpha, tickers


def _check_data_size(fh: BinaryIO) -> None:
    """Read the ``.npy`` header at the start of ``fh`` and refuse one whose
    shape needs more bytes than follow it, before ``read_array`` allocates
    them; then rewind.  Object arrays are left to ``read_array`` to refuse."""
    version = np.lib.format.read_magic(fh)
    if version == (1, 0):
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    else:
        shape, _, dtype = np.lib.format.read_array_header_2_0(fh)
    if not dtype.hasobject:
        need = math.prod(shape) * dtype.itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise ValueError(
                f"Failed to read all data: the header's shape {shape} needs {need} bytes, and {left} follow it"
            )
    fh.seek(0)


def load_validated(in_dir: str | Path) -> ValidatedCorrMatrix:
    """Read a network previously written by :func:`save_validated`.

    ``edges.npy`` must be one ``.npy`` array (pickled objects are refused
    and nothing may follow it), 1-D and of exactly :data:`EDGE_DTYPE`, and
    its header may not promise more records than the file holds.  Its
    records are then checked over whole columns: 0 <= i < j < n, |w| <= 1
    (NaN fails), and pairs in strictly ascending (i, j) order, so none is
    listed twice.  A failed record check names the file and the first
    failing record's zero-based row index.

    Raises ValueError on an edge file that fails any of these checks or
    cannot be read as ``.npy``, or on a ``meta.json`` that is not an object
    holding a non-negative integer ``n``, null or an integer >= 4 as
    ``t_len``, null or a number in (0, 1) as ``alpha_level``, and null or n
    strings as ``tickers``.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / META_FILE
    edge_path = in_dir / EDGE_FILE
    if not meta_path.is_file() or not edge_path.is_file():
        raise ValueError(f"{in_dir} does not contain {EDGE_FILE} and {META_FILE}")
    n, t_len, alpha_level, tickers = _read_meta(meta_path)
    with edge_path.open("rb") as fh:
        try:
            _check_data_size(fh)
            edges = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{edge_path}: {exc}") from exc
        if fh.read(1):
            raise ValueError(f"{edge_path}: data after the last record")
    if edges.dtype != EDGE_DTYPE or edges.ndim != 1:
        raise ValueError(f"{edge_path}: need a 1-d {EDGE_DTYPE} array, got {edges.dtype} of shape {edges.shape}")
    i, j, w = edges["i"], edges["j"], edges["w"]

    # every test below makes boolean temporaries only, one byte per record
    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{edge_path}: row {k}: bad index pair ({i[k]}, {j[k]})")
    bad = np.flatnonzero(~((-1.0 <= w) & (w <= 1.0)))  # also true for NaN
    if bad.size:
        k = bad[0]
        raise ValueError(f"{edge_path}: row {k}: weight {float(w[k])!r} is not in [-1, 1]")
    after = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    bad = np.flatnonzero(~after)
    if bad.size:
        k = bad[0] + 1
        raise ValueError(f"{edge_path}: row {k}: pair ({i[k]}, {j[k]}) does not follow ({i[k - 1]}, {j[k - 1]})")

    return ValidatedCorrMatrix(
        n,
        edges,
        t_len=t_len,
        alpha_level=alpha_level,
        tickers=tuple(tickers) if tickers is not None else None,
    )
