"""Signed graphs and executable balance checkers.

A node set is a balanced module when every pair inside it carries a nonzero
sign and every triangle has a positive sign product.  On complete signed
subgraphs that triangle condition is equivalent to a two-faction split with
positive edges inside factions and negative edges across (the classic
balance-theory characterization); both routes are implemented and the
equivalence is exercised exhaustively in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from balancenet.corrnet import ValidatedCorrMatrix

DEFAULT_SIGMA = 0.7
MIN_MODULE_SIZE = 3

# rows per tile in the passes over the whole matrix, which keeps each
# temporary to ROW_TILE x n instead of n x n; a multiple of 8, so tiles start
# on whole bytes of the packed rows
ROW_TILE = 256

# (shift, mask) steps of the 8 x 8 bit transpose of a 64-bit word whose byte k
# is row k: bit 8k + l trades places with bit 8l + k
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _mapped_zeros(shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """A zeroed array in an anonymous mapping of its own, outside malloc's heap.

    Freeing an n x n block that malloc mapped raises glibc's dynamic mmap
    threshold, so later blocks of that size land on the heap and fragment
    it, and peak memory then varies from run to run.  A mapping of its own
    goes back to the system whole when the array is freed.  tracemalloc
    does not see it.
    """
    import mmap

    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes == 0:  # mmap rejects a zero length
        return np.zeros(shape, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype).reshape(shape)


def _zero_planes(n: int) -> np.ndarray:
    """Zeroed +1 and -1 planes for n nodes: rows of whole 64-bit words."""
    return _mapped_zeros((2, n, 8 * ((n + 63) // 64)), np.uint8)


def _transpose_bits(rows: np.ndarray) -> np.ndarray:
    """The bit transpose of packed rows: ``(..., r, b)`` bytes to ``(..., 8 * b,
    ceil(r / 8))``, bit j of row i becoming bit i of row j.

    Rows are padded with zero rows to a multiple of 8, and each 8 x 8 bit
    block, one byte from each of 8 rows, is transposed as one 64-bit word.
    """
    *lead, r, b = rows.shape
    if r % 8:
        rows = np.concatenate([rows, np.zeros((*lead, -r % 8, b), dtype=np.uint8)], axis=-2)
    # word (g, c): byte k holds byte c of row 8g + k
    x = np.ascontiguousarray(rows.reshape(*lead, -1, 8, b).swapaxes(-1, -2)).view("<u8")[..., 0]
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE8:
        s = np.uint64(shift)
        np.right_shift(x, s, out=t)
        t ^= x
        t &= np.uint64(mask)  # the bits that trade places: x ^= t ^ (t << s)
        x ^= t
        x ^= np.left_shift(t, s, out=t)
    # now byte l of word (g, c) holds byte g of row 8c + l
    return x.view(np.uint8).swapaxes(-1, -2)


def _check_symmetric(planes: np.ndarray) -> None:
    """Raise unless each plane equals its bit transpose, compared a band of
    ``ROW_TILE`` rows at a time, from the diagonal on, against the mirrored
    band of columns."""
    n = planes.shape[1]
    for r in range(0, n, ROW_TILE):
        rows = min(ROW_TILE, n - r)
        band = planes[:, r : r + rows, r // 8 : r // 8 + (n - r + 7) // 8]
        mirror = planes[:, r:, r // 8 : r // 8 + (rows + 7) // 8]
        if not np.array_equal(band, _transpose_bits(mirror)[:, :rows]):
            raise ValueError("signs must be symmetric")


def _packed(values: np.ndarray, is_pos, is_neg) -> np.ndarray:
    """The planes of a square matrix, +1 where ``is_pos`` and -1 where ``is_neg``
    of a row tile holds, with the diagonal cleared; checked symmetric."""
    n = values.shape[0]
    planes = _zero_planes(n)
    used = (n + 7) // 8
    for r in range(0, n, ROW_TILE):
        tile = values[r : r + ROW_TILE]
        at = np.arange(tile.shape[0])
        for plane, test in zip(planes, (is_pos, is_neg)):
            bits = test(tile)
            bits[at, r + at] = False
            plane[r : r + ROW_TILE, :used] = np.packbits(bits, axis=1, bitorder="little")
    _check_symmetric(planes)
    return planes


class SignedGraph:
    """Symmetric {-1, 0, +1} adjacency with a zero diagonal, cut at ``sigma`` by
    :func:`to_signed`; ``sigma`` is None for sampled or hand-built graphs.

    The graph is stored only as two packed bit planes, the +1 rows and the
    -1 rows (see :meth:`bit_rows`): n^2 / 4 bytes, a quarter of an int8
    matrix.  ``SignedGraph(signs, sigma)`` checks and packs an n x n matrix;
    the generators write the planes themselves.  :attr:`signs` unpacks the
    matrix on demand.  Graphs are immutable and compare and hash by identity.
    """

    __slots__ = ("_planes", "sigma")

    def __init__(self, signs: np.ndarray, sigma: float | None = None) -> None:
        if sigma is not None and not 0.0 < sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        signs = np.asarray(signs)
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
        if np.diagonal(signs).any():
            raise ValueError("diagonal must be zero")
        self._init(_packed(signs, lambda t: t == 1, lambda t: t == -1), sigma)

    @classmethod
    def _from_planes(cls, planes: np.ndarray, sigma: float | None = None) -> "SignedGraph":
        """A graph over planes that are symmetric with a zero diagonal by
        construction; nothing is checked."""
        g = object.__new__(cls)
        g._init(planes, sigma)
        return g

    def _init(self, planes: np.ndarray, sigma: float | None) -> None:
        planes.flags.writeable = False
        object.__setattr__(self, "_planes", planes)
        object.__setattr__(self, "sigma", sigma)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("SignedGraph is immutable")

    @property
    def n(self) -> int:
        return self._planes.shape[1]

    @property
    def signs(self) -> np.ndarray:
        """The n x n int8 sign matrix, a new array unpacked row tile by row tile."""
        n = self.n
        out = np.empty((n, n), dtype=np.int8)
        for r in range(0, n, ROW_TILE):
            bits = np.unpackbits(self._planes[:, r : r + ROW_TILE], axis=2, count=n, bitorder="little")
            np.subtract(*bits.view(np.int8), out=out[r : r + ROW_TILE])
        return out

    def bit_rows(self) -> np.ndarray:
        """The stored +1 rows and -1 rows, planes 0 and 1, read-only.

        Node v is bit v % 8 of byte v // 8, and each row is zero-padded to
        whole 64-bit words.
        """
        return self._planes


@dataclass(frozen=True)
class Module:
    """A detected balanced module: two disjoint factions plus a threshold label.

    Factions are stored as sorted tuples.  ``sigma`` is the threshold of the
    graph the module was found in, None when that graph was never thresholded.
    """

    faction_a: tuple[int, ...]
    faction_b: tuple[int, ...]
    sigma: float | None = None

    def __post_init__(self) -> None:
        a = tuple(sorted(self.faction_a))
        b = tuple(sorted(self.faction_b))
        object.__setattr__(self, "faction_a", a)
        object.__setattr__(self, "faction_b", b)
        if set(a) & set(b):
            raise ValueError("factions must be disjoint")

    @classmethod
    def empty(cls, sigma: float | None = None) -> "Module":
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
    if v.values.ndim != 2 or v.values.shape[0] != v.values.shape[1]:
        raise ValueError("signs must be a square matrix")
    planes = _packed(v.values, lambda t: t >= sigma, lambda t: t <= -sigma)
    return SignedGraph._from_planes(planes, sigma)


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


def _block(g: SignedGraph, idx: np.ndarray) -> np.ndarray:
    """The k x k int8 signs among the nodes ``idx``, gathered from the planes."""
    bits = (g.bit_rows()[:, idx][:, :, idx >> 3] >> (idx & 7).astype(np.uint8)) & 1
    return bits[0].view(np.int8) - bits[1].view(np.int8)


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
    sub = _block(g, idx).astype(np.float64)
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
    sub = _block(g, idx).astype(np.int64)
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
