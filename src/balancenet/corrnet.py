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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

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


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_validated(v: ValidatedCorrMatrix, out_dir: str | Path) -> None:
    """Write a sparse TSV edge list plus a JSON sidecar.

    Edge rows are ``i<TAB>j<TAB>weight`` with i < j and zero-based indices;
    weights use repr so they round-trip bit-exactly.  The sidecar holds
    {n, t_len, alpha_level, tickers}.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n = v.n
    iu, ju = np.triu_indices(n, k=1)
    weights = v.values[iu, ju]
    nz = weights != 0.0
    lines = [
        f"{i}\t{j}\t{w!r}"
        for i, j, w in zip(iu[nz].tolist(), ju[nz].tolist(), weights[nz].tolist())
    ]
    _atomic_write(out_dir / EDGE_FILE, "\n".join(lines) + ("\n" if lines else ""))
    meta = {
        "n": n,
        "t_len": v.t_len,
        "alpha_level": v.alpha_level,
        "tickers": list(v.tickers) if v.tickers is not None else None,
    }
    _atomic_write(out_dir / META_FILE, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_validated(in_dir: str | Path) -> ValidatedCorrMatrix:
    """Read a matrix previously written by :func:`save_validated`.

    Raises ValueError on a malformed row, an index pair outside 0 <= i < j < n,
    a weight that is not a finite value in [-1, 1], a pair listed twice, or a
    ``tickers`` list whose length is not n.
    """
    in_dir = Path(in_dir)
    meta_path = in_dir / META_FILE
    edge_path = in_dir / EDGE_FILE
    if not meta_path.is_file() or not edge_path.is_file():
        raise ValueError(f"{in_dir} does not contain {EDGE_FILE} and {META_FILE}")
    meta = json.loads(meta_path.read_text())
    n = int(meta["n"])
    tickers = meta.get("tickers")
    if tickers is not None and len(tickers) != n:
        raise ValueError(f"{meta_path}: {len(tickers)} tickers for n={n}")
    values = np.full((n, n), np.nan)  # NaN marks a pair not yet listed
    with edge_path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{edge_path}:{line_no}: expected 3 tab-separated fields")
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
            if not 0 <= i < j < n:
                raise ValueError(f"{edge_path}:{line_no}: bad index pair ({i}, {j})")
            if not abs(w) <= 1.0:  # also false for NaN
                raise ValueError(f"{edge_path}:{line_no}: weight {w!r} is not in [-1, 1]")
            if not math.isnan(values[i, j]):
                raise ValueError(f"{edge_path}:{line_no}: pair ({i}, {j}) listed twice")
            values[i, j] = values[j, i] = w
    np.nan_to_num(values, copy=False, nan=0.0)
    np.fill_diagonal(values, 1.0)
    return ValidatedCorrMatrix(
        values=values,
        t_len=meta.get("t_len"),
        alpha_level=meta.get("alpha_level"),
        tickers=tuple(tickers) if tickers is not None else None,
    )
