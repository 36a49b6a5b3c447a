"""Signed graphs and executable balance checkers.

A node set is a balanced module when every pair inside it carries a nonzero
sign and every triangle has a positive sign product.  On complete signed
subgraphs that triangle condition is equivalent to a two-faction split with
positive edges inside factions and negative edges across (Cartwright &
Harary's structure theorem).  Both checkers decide it by that split, in one
helper that reads each node's two rows as Python ints, tested against a
triangle loop.  ``_RowInts`` is the one conversion of plane rows to ints:
the checkers, ``detect``'s sweep, ``expand`` and the oracle all read them so.

Graphs are held as packed sign planes.  Every bit above the diagonal is
written by ``_write_upper``: the constructor, :func:`to_signed` and
``randgen.sample_signed`` hand it upper row tiles to pack.  One pass,
``_mirror``, then copies the upper part into the lower, once per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from balancenet.corrnet import EDGE_DTYPE, ValidatedCorrMatrix, _append_upper, _is_int, _is_number

DEFAULT_SIGMA = 0.7
MIN_MODULE_SIZE = 3

# rows per tile in the passes over the whole matrix, which keeps each
# temporary to ROW_TILE x n instead of n x n; a multiple of 8, so tiles start
# on whole bytes of the packed rows
ROW_TILE = 256

# (shift, mask) steps of the 8 x 8 bit transpose of a 64-bit word whose byte k
# is row k: bit 8k + l trades places with bit 8l + k
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _valid_sigma(sigma: float) -> bool:
    """True iff 0 < sigma <= 1, the thresholds a graph can be cut at; False for NaN."""
    return 0.0 < sigma <= 1.0


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


def _write_upper(planes: np.ndarray, r: int, bits: np.ndarray) -> None:
    """Write the +1 and -1 cells of a ``(2, k, n - r)`` bool tile of rows r..
    and columns r.. (r a multiple of 8), strictly above its diagonal, into
    rows r..r + k - 1 of ``planes``, still zero from column r on.  ``bits``
    is cleared on and below the diagonal."""
    k = bits.shape[1]
    bits[:, :, :k] &= np.triu(np.ones((k, k), dtype=bool), 1)
    block = np.packbits(bits, axis=2, bitorder="little")
    planes[:, r : r + k, r // 8 : r // 8 + block.shape[2]] = block


def _mirror(planes: np.ndarray) -> None:
    """Copy the strict upper part of ``planes`` into its lower part, which is
    still zero: the bit transpose of each ``ROW_TILE``-row strip, from its
    diagonal on, is ORed into the column strip of the same nodes, 32 bytes
    wide, so each write covers whole cache lines of the rows below."""
    n = planes.shape[1]
    for r in range(0, n, ROW_TILE):
        strip = _transpose_bits(planes[:, r : r + ROW_TILE, r // 8 :])
        planes[:, r:, r // 8 : r // 8 + strip.shape[2]] |= strip[:, : n - r]


class SignedGraph:
    """Symmetric {-1, 0, +1} adjacency with a zero diagonal, cut at ``sigma`` by
    :func:`to_signed`; ``sigma`` is None for sampled or hand-built graphs.

    The graph is stored only as two packed bit planes, the +1 rows and the
    -1 rows (see :meth:`bit_rows`): n^2 / 4 bytes, a quarter of an int8
    matrix.  ``SignedGraph(signs, sigma)`` checks and packs an n x n matrix.
    :attr:`signs` unpacks it on demand, and :meth:`edge_tiles` lists the
    signed pairs as edge records.  Graphs are immutable and compare and hash
    by identity.
    """

    __slots__ = ("_planes", "sigma")

    def __init__(self, signs: np.ndarray, sigma: float | None = None) -> None:
        if sigma is not None and not _valid_sigma(sigma):
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
        if not np.array_equal(signs, signs.T):
            raise ValueError("signs must be symmetric")
        planes = _zero_planes(len(signs))
        for r in range(0, len(signs), ROW_TILE):
            tile = signs[r : r + ROW_TILE, r:]
            _write_upper(planes, r, np.stack([tile == 1, tile == -1]))
        self._init(planes, sigma)

    @classmethod
    def _from_upper(cls, planes: np.ndarray, sigma: float | None = None) -> "SignedGraph":
        """A graph over planes whose strict upper part ``_write_upper`` wrote
        and whose lower part is still zero; nothing is checked."""
        g = object.__new__(cls)
        g._init(planes, sigma)
        return g

    def _init(self, planes: np.ndarray, sigma: float | None) -> None:
        _mirror(planes)
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

    def edge_tiles(self) -> Iterator[np.ndarray]:
        """The pairs with a sign as :data:`~balancenet.corrnet.EDGE_DTYPE`
        records (i, j, w), i < j, w the sign as +1.0 or -1.0: one new array
        per row tile, read from the upper part of the planes, in ascending
        (i, j) order over the tiles."""
        n = self.n
        for r in range(0, n, ROW_TILE):
            # tiles start on whole bytes, so byte r // 8 on holds columns r on
            bits = np.unpackbits(self._planes[:, r : r + ROW_TILE, r // 8 :], axis=2, count=n - r, bitorder="little")
            signs = np.subtract(*bits.view(np.int8))
            edges, count = _append_upper(np.empty(0, dtype=EDGE_DTYPE), 0, r, signs, signs != 0)
            yield edges[:count]

    def bit_rows(self) -> np.ndarray:
        """The stored +1 rows and -1 rows, planes 0 and 1, read-only.

        Node v is bit v % 8 of byte v // 8, and each row is zero-padded to
        whole 64-bit words.
        """
        return self._planes


def _as_nodes(nodes: Iterable[int]) -> tuple[int, ...]:
    """``nodes`` as Python ints, each taken by ``operator.index``, so that
    NumPy integers pass; ValueError for a bool, float, string or any other
    non-integer."""
    import operator

    out = []
    for v in nodes:
        try:
            if isinstance(v, bool):
                raise TypeError
            out.append(operator.index(v))
        except TypeError:
            raise ValueError(f"node {v!r} is not an integer") from None
    return tuple(out)


@dataclass(frozen=True)
class Module:
    """A detected balanced module: two disjoint factions plus a threshold label.

    Factions are stored as sorted tuples of distinct nodes, Python ints:
    NumPy integers are converted, and any other non-integer is refused.
    ``sigma`` is the threshold of the graph the module was found in, None
    when that graph was never thresholded.
    """

    faction_a: tuple[int, ...]
    faction_b: tuple[int, ...]
    sigma: float | None = None

    def __post_init__(self) -> None:
        a = tuple(sorted(_as_nodes(self.faction_a)))
        b = tuple(sorted(_as_nodes(self.faction_b)))
        object.__setattr__(self, "faction_a", a)
        object.__setattr__(self, "faction_b", b)
        if len(set(a)) < len(a) or len(set(b)) < len(b):
            raise ValueError("a faction lists a node twice")
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

        Raises ValueError unless both factions are lists of distinct integers,
        disjoint from each other, and ``sigma`` is null or a number in (0, 1].
        """
        if not isinstance(report, dict):
            raise ValueError("module report must be a JSON object")
        for key in ("faction_a", "faction_b"):
            nodes = report.get(key)
            if not isinstance(nodes, list) or not all(map(_is_int, nodes)):
                raise ValueError(f"module report: {key} must be a list of integers")
        sigma = report.get("sigma")
        if sigma is not None and not (_is_number(sigma) and _valid_sigma(sigma)):
            raise ValueError(f"module report: sigma must be null or a number in (0, 1], got {sigma!r}")
        return cls(
            faction_a=tuple(report["faction_a"]),
            faction_b=tuple(report["faction_b"]),
            sigma=sigma,
        )


def to_signed(v: ValidatedCorrMatrix, sigma: float = DEFAULT_SIGMA) -> SignedGraph:
    """Threshold a validated network into signs: sign(C_ij) where |C_ij| >= sigma.

    The boundary is inclusive: an entry exactly at sigma keeps its sign.
    Each row tile's edges at or past sigma are scattered into a boolean tile
    of its upper part, which ``_write_upper`` packs, so no n x n array is
    built.
    """
    import bisect

    if not _valid_sigma(sigma):
        raise ValueError("sigma must lie in (0, 1]")
    n = v.n
    i, j, w = v.edges["i"], v.edges["j"], v.edges["w"]
    planes = _zero_planes(n)
    # the edges are sorted by i, so each tile's are one slice; bisect reads
    # the strided column in place, where np.searchsorted would copy it whole
    bounds = [bisect.bisect_left(i, r) for r in range(0, n + ROW_TILE, ROW_TILE)]
    for r, lo, hi in zip(range(0, n, ROW_TILE), bounds, bounds[1:]):
        end = min(n, r + ROW_TILE)
        tw = w[lo:hi]
        strong = np.flatnonzero(np.abs(tw) >= sigma)
        cells = (i[lo:hi][strong] - r) * (n - r) + (j[lo:hi][strong] - r)
        positive = tw[strong] > 0
        bits = np.zeros((2, (end - r) * (n - r)), dtype=bool)
        bits[0, cells[positive]] = True
        bits[1, cells[~positive]] = True
        _write_upper(planes, r, bits.reshape(2, end - r, n - r))
    return SignedGraph._from_upper(planes, sigma)


def _check_nodes(g: SignedGraph, nodes: Iterable[int]) -> tuple[int, ...]:
    """``nodes`` as Python ints (see ``_as_nodes``); ValueError naming the
    first that is not a node of ``g``."""
    nodes = _as_nodes(nodes)
    for v in nodes:
        if not 0 <= v < g.n:
            raise ValueError(f"node {v} is out of range for a graph of {g.n} nodes")
    return nodes


class _RowInts(dict):
    """Node -> its +1 and -1 rows as Python ints (node v is bit v), each
    converted from the packed planes on its first use and kept."""

    def __init__(self, planes: np.ndarray) -> None:
        super().__init__()
        self.planes = planes

    def __missing__(self, node: int) -> tuple[int, int]:
        self[node] = rows = self.read(self.planes, node)
        return rows

    @staticmethod
    def read(planes: np.ndarray, node: int) -> tuple[int, int]:
        """The node's two rows as ints, not kept: the one conversion."""
        pos, neg = planes[:, node]
        return int.from_bytes(pos, "little"), int.from_bytes(neg, "little")


def _mask_nodes(mask: int) -> tuple[int, ...]:
    """The nodes of a bitset, node v bit v, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _split(g: SignedGraph, nodes: Iterable[int]) -> tuple[bool, tuple[int, int] | None]:
    """Whether every pair of the distinct nodes ``nodes`` has a sign, and
    their two factions as bitsets (node v is bit v) if they are complete and
    balanced, else None.  The lowest node and its +1 ties in the set make
    the first faction, and the split holds iff each node's +1 ties inside
    the set are exactly the rest of its own faction.  Rows are read one node
    at a time, so nothing of size k x k is built for k nodes."""
    nodes = sorted(_check_nodes(g, nodes))
    mask = sum(1 << v for v in set(nodes))
    if mask.bit_count() < len(nodes):
        raise ValueError("nodes must be distinct")
    a, complete, balanced = 0, True, True
    for v in nodes:
        pos, neg = _RowInts.read(g.bit_rows(), v)
        bit = 1 << v
        a = a or pos & mask | bit  # set once, by the lowest node
        complete = complete and (pos | neg | bit) & mask == mask
        balanced = balanced and pos & mask | bit == (a if a & bit else mask ^ a)
    return complete, (a, mask ^ a) if complete and balanced else None


def is_scbm(g: SignedGraph, nodes: Iterable[int]) -> bool:
    """Check the balanced-module conditions on a node set.

    Requires at least three nodes, a nonzero sign on every pair, and a
    positive sign product on every triangle: a split into two factions.
    """
    factions = _split(g, nodes)[1]
    return factions is not None and (factions[0] | factions[1]).bit_count() >= MIN_MODULE_SIZE


def bipartition(
    g: SignedGraph, nodes: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Split a complete signed subgraph into factions, or None if unbalanced.

    Positive edges must fall inside factions and negative edges across; the
    split is unique up to a swap, resolved by anchoring the lowest-index node
    in faction A.  Raises ValueError when some pair has no edge.
    """
    complete, factions = _split(g, nodes)
    if not complete:
        raise ValueError("subgraph is incomplete: some pair has sign 0")
    return None if factions is None else (_mask_nodes(factions[0]), _mask_nodes(factions[1]))
