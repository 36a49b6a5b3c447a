"""Signed graphs and executable balance checkers.

A node set is a balanced module when every pair inside it carries a nonzero
sign and every triangle has a positive sign product.  On complete signed
subgraphs that triangle condition is equivalent to a two-faction split with
positive edges inside factions and negative edges across (the classic
balance-theory characterization); both routes are implemented and the
equivalence is exercised exhaustively in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from balancenet.corrnet import ValidatedCorrMatrix

DEFAULT_SIGMA = 0.7
MIN_MODULE_SIZE = 3

# rows per tile in the passes over the whole matrix, which keeps each
# temporary to ROW_TILE x n instead of n x n
ROW_TILE = 256


@dataclass(frozen=True)
class SignedGraph:
    """Symmetric {-1, 0, +1} adjacency with a zero diagonal."""

    signs: np.ndarray

    def __post_init__(self) -> None:
        signs = np.asarray(self.signs)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise ValueError("signs must be a square matrix")
        # checked before the cast, which would wrap 256 to 0 and cut 0.5 to 0
        if signs.size and not (signs.min() >= -1 and signs.max() <= 1):
            raise ValueError("sign entries must lie in {-1, 0, +1}")
        if signs.dtype != np.int8:
            cast = signs.astype(np.int8)
            if not np.array_equal(cast, signs):
                raise ValueError("sign entries must lie in {-1, 0, +1}")
            signs = cast
        object.__setattr__(self, "signs", signs)
        if np.diagonal(signs).any():
            raise ValueError("diagonal must be zero")
        # row tiles against column tiles: a full signs.T reads with a stride of n bytes
        for r in range(0, signs.shape[0], ROW_TILE):
            if not np.array_equal(signs[r : r + ROW_TILE, r:], signs[r:, r : r + ROW_TILE].T):
                raise ValueError("signs must be symmetric")

    @property
    def n(self) -> int:
        return self.signs.shape[0]

    def bit_rows(self) -> np.ndarray:
        """The +1 rows and the -1 rows packed into bits, as planes 0 and 1.

        Node v is bit v % 8 of byte v // 8, and each row is zero-padded to
        whole 64-bit words.
        """
        n = self.n
        planes = np.zeros((2, n, 8 * ((n + 63) // 64)), dtype=np.uint8)
        used = (n + 7) // 8
        for r in range(0, n, ROW_TILE):
            tile = self.signs[r : r + ROW_TILE]
            planes[0, r : r + ROW_TILE, :used] = np.packbits(tile == 1, axis=1, bitorder="little")
            planes[1, r : r + ROW_TILE, :used] = np.packbits(tile == -1, axis=1, bitorder="little")
        return planes


@dataclass(frozen=True)
class Module:
    """A detected balanced module: two disjoint factions plus the threshold used.

    Factions are stored as sorted tuples.  ``sigma`` is None when the module
    came from a raw signed graph with no strength threshold attached.
    """

    faction_a: tuple[int, ...]
    faction_b: tuple[int, ...]
    sigma: float | None = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        a = tuple(sorted(self.faction_a))
        b = tuple(sorted(self.faction_b))
        object.__setattr__(self, "faction_a", a)
        object.__setattr__(self, "faction_b", b)
        if set(a) & set(b):
            raise ValueError("factions must be disjoint")

    @classmethod
    def empty(cls, sigma: float | None = DEFAULT_SIGMA) -> "Module":
        return cls((), (), sigma)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.faction_a + self.faction_b))

    @property
    def size(self) -> int:
        return len(self.faction_a) + len(self.faction_b)

    @property
    def all_positive(self) -> bool:
        """True when the module has no negative internal edges (a faction is empty)."""
        return not self.faction_a or not self.faction_b

    def canonical(self) -> "Module":
        """Swap factions if needed so the lowest-index node sits in faction A."""
        if self.faction_b and (not self.faction_a or self.faction_b[0] < self.faction_a[0]):
            return Module(self.faction_b, self.faction_a, self.sigma)
        return self

    def to_report(self) -> dict:
        return {
            "sigma": self.sigma,
            "size": self.size,
            "nodes": list(self.nodes),
            "faction_a": list(self.faction_a),
            "faction_b": list(self.faction_b),
            "all_positive": self.all_positive,
        }

    @classmethod
    def from_report(cls, report: dict) -> "Module":
        """Rebuild a module from :meth:`to_report` output, e.g. parsed JSON.

        Raises ValueError unless both factions are lists of integers and
        ``sigma`` is null or a number.
        """
        if not isinstance(report, dict):
            raise ValueError("module report must be a JSON object")
        for key in ("faction_a", "faction_b"):
            nodes = report.get(key)
            if not isinstance(nodes, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in nodes
            ):
                raise ValueError(f"module report: {key} must be a list of integers")
        sigma = report.get("sigma")
        if isinstance(sigma, bool) or not isinstance(sigma, (int, float, type(None))):
            raise ValueError(f"module report: sigma must be null or a number, got {sigma!r}")
        return cls(
            faction_a=tuple(report["faction_a"]),
            faction_b=tuple(report["faction_b"]),
            sigma=sigma,
        )


def to_signed(v: ValidatedCorrMatrix, sigma: float = DEFAULT_SIGMA) -> SignedGraph:
    """Threshold a validated matrix into signs: sign(C_ij) where |C_ij| >= sigma.

    The boundary is inclusive: an entry exactly at sigma keeps its sign.
    """
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")
    signs = (v.values >= sigma).astype(np.int8) - (v.values <= -sigma)
    np.fill_diagonal(signs, 0)
    return SignedGraph(signs=signs)


def is_balanced_triangle(s1: int, s2: int, s3: int) -> bool:
    """True iff the product of the three edge signs is positive.

    All three edges must be present (+1 or -1); a zero sign means the
    triangle is incomplete and is a caller error.
    """
    for s in (s1, s2, s3):
        if s not in (-1, 1):
            raise ValueError("triangle edges must be -1 or +1")
    return s1 * s2 * s3 > 0


def _check_nodes(g: SignedGraph, nodes: Sequence[int]) -> np.ndarray:
    idx = np.asarray(sorted(nodes), dtype=np.intp)
    if idx.size != len(set(int(v) for v in nodes)):
        raise ValueError("nodes must be distinct")
    if idx.size and (idx[0] < 0 or idx[-1] >= g.n):
        raise ValueError("node index out of range")
    return idx


def is_scbm(g: SignedGraph, nodes: Iterable[int]) -> bool:
    """Check the balanced-module conditions on a node set.

    Requires at least three nodes, a nonzero sign on every pair, and a
    positive sign product on every triangle.  The triangle condition is
    evaluated through the closed-walk identity trace(M^3) = k(k-1)(k-2),
    which holds iff all C(k,3) triangle products equal +1; the arithmetic is
    exact in float64 for any feasible k.
    """
    idx = _check_nodes(g, list(nodes))
    k = idx.size
    if k < MIN_MODULE_SIZE:
        return False
    sub = g.signs[np.ix_(idx, idx)].astype(np.float64)
    off = ~np.eye(k, dtype=bool)
    if not np.all(sub[off] != 0):
        return False
    triangle_sum = np.trace(sub @ sub @ sub)
    return triangle_sum == k * (k - 1) * (k - 2)


def bipartition(
    g: SignedGraph, nodes: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Split a complete signed subgraph into factions, or None if unbalanced.

    Positive edges must fall inside factions and negative edges across; the
    split is unique up to a swap, resolved by anchoring the lowest-index node
    in faction A.  Raises ValueError when some pair has no edge.
    """
    idx = _check_nodes(g, list(nodes))
    k = idx.size
    if k == 0:
        return (), ()
    sub = g.signs[np.ix_(idx, idx)].astype(np.int64)
    off = ~np.eye(k, dtype=bool)
    if not np.all(sub[off] != 0):
        raise ValueError("subgraph is incomplete: some pair has sign 0")
    side = sub[0].copy()
    side[0] = 1
    expected = np.outer(side, side)
    if not np.array_equal(sub[off], expected[off]):
        return None
    a = tuple(int(v) for v in idx[side > 0])
    b = tuple(int(v) for v in idx[side < 0])
    return a, b
