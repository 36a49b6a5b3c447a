"""Pearson correlation matrices and per-pair significance filtering.

A correlation entry survives filtering when the two-sided t-test rejects the
zero-correlation null at the configured level.  Because the test statistic is
monotone in |c| for fixed sample length, the filter is applied through a
precomputed critical correlation r* rather than per-pair t values; the
per-pair route is kept available for cross-checking.

The Student-t machinery (CDF via the regularized incomplete beta function,
critical values via bracketed bisection) is self-contained so that results
are reproducible without an external statistics dependency.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, TextIO

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from balancenet.ingest import ReturnMatrix
    from balancenet.signedgraph import Module

DEFAULT_ALPHA_LEVEL = 0.05

EDGE_FILE = "edges.tsv"
META_FILE = "meta.json"


@dataclass(frozen=True)
class CorrMatrix:
    """Symmetric Pearson matrix with unit diagonal.

    ``zero_variance`` flags rows whose return series had no variance; every
    off-diagonal entry touching such a row is 0 by convention.
    """

    values: np.ndarray
    zero_variance: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ValidatedCorrMatrix:
    """Correlation matrix with insignificant entries zeroed out.

    Every off-diagonal entry is either 0 or the exact Pearson value it came
    from; the diagonal is 1.  ``t_len`` and ``alpha_level`` are None for
    synthetic matrices that never went through the significance test.
    """

    values: np.ndarray
    t_len: int | None
    alpha_level: float | None
    tickers: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]


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
    """Pearson correlation matrix of the return rows.

    Each unordered pair is computed once and mirrored, so the result is
    exactly symmetric.  Zero-variance rows produce 0 correlations (flagged)
    instead of an error, keeping index stability through the pipeline.
    """
    data = np.asarray(getattr(returns, "returns", returns), dtype=float)
    if data.ndim != 2:
        raise ValueError("returns must be a 2-d array")
    n, t_len = data.shape
    if t_len < 2:
        raise ValueError("need at least 2 return observations")

    dev = data - data.mean(axis=1, keepdims=True)
    norms = np.sqrt((dev * dev).sum(axis=1))
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    z = dev / safe[:, None]

    values = z @ z.T
    np.clip(values, -1.0, 1.0, out=values)
    upper = np.triu(values, k=1)
    values = upper + upper.T
    values[degenerate, :] = 0.0
    values[:, degenerate] = 0.0
    np.fill_diagonal(values, 1.0)
    return CorrMatrix(values=values, zero_variance=degenerate)


def t_statistic(c: float, t_len: int) -> float:
    """Test statistic c * sqrt((T-2) / (1-c^2)) for a Pearson coefficient.

    Returns a signed infinity for |c| = 1 (the analytic limit, always
    significant).
    """
    if t_len < 3:
        raise ValueError("t_statistic requires T >= 3")
    if abs(c) > 1:
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

    Solved by doubling to bracket the quantile, then bisecting the CDF to an
    interval of width 1e-10.
    """
    if nu < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if not 0.0 < alpha_level < 1.0:
        raise ValueError("alpha_level must lie in (0, 1)")
    target = 1.0 - 0.5 * alpha_level
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, nu) < target:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("failed to bracket the t quantile")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, nu) < target:
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


def validate(
    corr: CorrMatrix,
    t_len: int,
    alpha_level: float = DEFAULT_ALPHA_LEVEL,
    tickers: tuple[str, ...] | None = None,
    method: str = "threshold",
) -> ValidatedCorrMatrix:
    """Zero out entries whose two-sided t-test fails at ``alpha_level``.

    ``method="threshold"`` keeps entry (i, j) iff |C_ij| > r*, with r*
    precomputed once.  ``method="tstat"`` runs the per-pair test statistic
    against the critical value directly; both routes must agree exactly and
    the slower one exists for that cross-check.
    """
    if t_len < 4:
        raise ValueError("need T >= 4 so that nu = T - 2 >= 2")
    values = corr.values
    n = values.shape[0]
    if method == "threshold":
        r_star = critical_correlation(t_len, alpha_level)
        mask = np.abs(values) > r_star
    elif method == "tstat":
        t_star = t_critical(t_len - 2, alpha_level)
        mask = np.zeros_like(values, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                keep = abs(t_statistic(values[i, j], t_len)) > t_star
                mask[i, j] = mask[j, i] = keep
    else:
        raise ValueError(f"unknown validation method {method!r}")

    validated = np.where(mask, values, 0.0)
    np.fill_diagonal(validated, 1.0)
    return ValidatedCorrMatrix(
        values=validated, t_len=t_len, alpha_level=alpha_level, tickers=tickers
    )


def network_stats(v: ValidatedCorrMatrix, module: "Module") -> NetworkStats:
    """Sign proportions and means over off-diagonal entries, plus coverage.

    Proportions are taken over all N(N-1) ordered off-diagonal cells; by
    symmetry they equal the unordered-pair versions.
    """
    values = v.values
    n = values.shape[0]
    off = ~np.eye(n, dtype=bool)
    entries = values[off]
    total = entries.size
    pos = entries[entries > 0]
    neg = entries[entries < 0]
    xi_plus = pos.size / total if total else 0.0
    xi_minus = neg.size / total if total else 0.0
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
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """Open a temp file beside ``path`` for writing; rename it over ``path`` on success.

    Readers see either the old file or the complete new one.  On any error
    the temp file is removed and ``path`` is left as it was.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: Path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def save_validated(v: ValidatedCorrMatrix, out_dir: str | Path) -> None:
    """Write a sparse TSV edge list plus a JSON sidecar.

    Edge rows are ``i<TAB>j<TAB>weight`` with i < j and zero-based indices,
    in ascending (i, j) order; weights use repr so they round-trip
    bit-exactly.  The rows are written one node row at a time, so only one
    row's text is held in memory.  The sidecar holds
    {n, t_len, alpha_level, tickers}.  Both files are replaced atomically.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = v.n
    with _atomic_open(out_dir / EDGE_FILE) as fh:
        for i in range(n - 1):
            row = v.values[i, i + 1 :]
            cols = np.flatnonzero(row)
            if cols.size:
                fh.write(
                    "".join(
                        f"{i}\t{j}\t{w!r}\n"
                        for j, w in zip((cols + (i + 1)).tolist(), row[cols].tolist())
                    )
                )
    meta = {
        "n": n,
        "t_len": v.t_len,
        "alpha_level": v.alpha_level,
        "tickers": list(v.tickers) if v.tickers is not None else None,
    }
    _atomic_write(out_dir / META_FILE, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _read_meta(meta_path: Path) -> tuple[int, int | None, float | None, list[str] | None]:
    """Parse and check the sidecar: ``(n, t_len, alpha_level, tickers)``."""
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: expected a JSON object")
    n = meta.get("n")
    if not _is_int(n) or n < 0:
        raise ValueError(f"{meta_path}: n must be a non-negative integer, got {n!r}")
    t_len = meta.get("t_len")
    if t_len is not None and not _is_int(t_len):
        raise ValueError(f"{meta_path}: t_len must be null or an integer, got {t_len!r}")
    alpha_level = meta.get("alpha_level")
    if alpha_level is not None and not _is_number(alpha_level):
        raise ValueError(f"{meta_path}: alpha_level must be null or a number, got {alpha_level!r}")
    tickers = meta.get("tickers")
    if tickers is not None:
        if not isinstance(tickers, list) or not all(isinstance(t, str) for t in tickers):
            raise ValueError(f"{meta_path}: tickers must be null or a list of strings")
        if len(tickers) != n:
            raise ValueError(f"{meta_path}: {len(tickers)} tickers for n={n}")
    return n, t_len, alpha_level, tickers


_EDGE_DTYPE = [("i", np.int64), ("j", np.int64), ("w", np.float64)]


def load_validated(in_dir: str | Path) -> ValidatedCorrMatrix:
    """Read a matrix previously written by :func:`save_validated`.

    The edge file is parsed in one bulk pass by ``np.loadtxt``; empty lines
    are skipped and CRLF line ends are accepted.  Each check then runs once
    over whole columns and reports the first row that fails it as
    ``edges.tsv:<k>:``, where k counts edge rows from 1.  That is the line
    number whenever the file has no blank lines, which
    :func:`save_validated` never writes.

    Raises ValueError on a row that does not hold two integers and a number,
    an index pair outside 0 <= i < j < n, a weight that is not a finite value
    in [-1, 1], a pair listed twice, or a ``meta.json`` that is not an object
    holding a non-negative integer ``n``, an integer or null ``t_len``, a
    number or null ``alpha_level``, and null or n strings as ``tickers``.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / META_FILE
    edge_path = in_dir / EDGE_FILE
    if not meta_path.is_file() or not edge_path.is_file():
        raise ValueError(f"{in_dir} does not contain {EDGE_FILE} and {META_FILE}")
    n, t_len, alpha_level, tickers = _read_meta(meta_path)
    with warnings.catch_warnings():
        # a network with no edges is valid
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy releases that still parse "1.0" as an integer index only warn
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            rows = np.loadtxt(
                edge_path, delimiter="\t", comments=None, ndmin=1, dtype=_EDGE_DTYPE
            )
        except ValueError as exc:
            raise ValueError(f"{edge_path}: {exc}") from exc
    i, j, w = rows["i"], rows["j"], rows["w"]

    bad = np.flatnonzero(~((0 <= i) & (i < j) & (j < n)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"{edge_path}:{k + 1}: bad index pair ({i[k]}, {j[k]})")
    bad = np.flatnonzero(~(np.abs(w) <= 1.0))  # also true for NaN
    if bad.size:
        k = bad[0]
        raise ValueError(f"{edge_path}:{k + 1}: weight {float(w[k])!r} is not in [-1, 1]")
    # A stable sort keeps each pair's rows in file order, so every row after
    # the first of its run repeats an earlier row.
    keys = i * n + j
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]
    if repeats.size:
        k = repeats.min()
        raise ValueError(f"{edge_path}:{k + 1}: pair ({i[k]}, {j[k]}) listed twice")

    values = np.zeros((n, n))
    values[i, j] = w
    values[j, i] = w
    np.fill_diagonal(values, 1.0)
    return ValidatedCorrMatrix(
        values=values,
        t_len=t_len,
        alpha_level=alpha_level,
        tickers=tuple(tickers) if tickers is not None else None,
    )
