"""Greedy seed-and-grow detection of the largest balanced module.

For each of the highest-impact seed nodes the search partitions the seed's
strong neighbors into a positive faction A (seed included) and a negative
faction B, prunes both factions until every within-faction pair is +1 and
every cross pair is -1, then sweeps the other nodes once, admitting each
node whose signs align uniformly with one faction and against the other.
That alignment test is the only admission test: members fail it on their
zero diagonal and untied nodes on a zero tie, so the seed loop screens
candidates by degree alone.  The largest module over all seeds wins; ties
keep the earlier seed.

Pruning removes, repeatedly, the lowest-index member with a non-(+1) tie to
the rest of its living faction.  A member whose ties to all later members
are +1 is never removed: an earlier member with a bad tie to it violates
too and goes first.  A member with a bad tie to a later member always is:
that later member cannot go while it lives.  So the survivors are exactly
the members with only +1 ties to every later member, which is the one
predicate the intra-faction step computes.

Every kernel works on the two packed sign planes of
:meth:`SignedGraph.bit_rows`, the +1 rows and the -1 rows.  "All ties to a
set are +1" is then "the node's +1 row covers the set's packed mask", and a
faction's joint admission condition is the AND of its members' rows, so
cross-pruning and expansion are AND-reduces over packed rows rather than
gathers of int8 signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from balancenet.signedgraph import DEFAULT_SIGMA, MIN_MODULE_SIZE, ROW_TILE, Module, SignedGraph

DEFAULT_MAX_SEEDS = 100


@dataclass(frozen=True)
class DetectConfig:
    """Detection parameters: the threshold label and the seed budget."""

    sigma: float = DEFAULT_SIGMA
    max_seeds: int = DEFAULT_MAX_SEEDS

    def __post_init__(self) -> None:
        # detect never tests edges against sigma: the graph is already
        # thresholded, and sigma only labels the returned module.
        if not 0.0 < self.sigma <= 1.0:
            raise ValueError("sigma must lie in (0, 1]")
        if self.max_seeds < 1:
            raise ValueError("max_seeds must be >= 1")


def node_impacts(g: SignedGraph) -> np.ndarray:
    """Per-node count of nonzero incident signs (degree in the signed graph)."""
    out = np.empty(g.n, dtype=np.intp)
    for r in range(0, g.n, ROW_TILE):
        out[r : r + ROW_TILE] = np.count_nonzero(g.signs[r : r + ROW_TILE], axis=1)
    return out


def _as_index_array(nodes: Iterable[int]) -> np.ndarray:
    return np.sort(np.fromiter(nodes, dtype=np.intp))


def _mask(nodes: np.ndarray, nbytes: int) -> np.ndarray:
    """Packed membership mask of ``nodes``, ``nbytes`` long."""
    member = np.zeros(8 * nbytes, dtype=bool)
    member[nodes] = True
    return np.packbits(member, bitorder="little")


def _covering(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Which packed ``rows`` have every bit of ``mask`` set; ``rows`` is overwritten."""
    rows &= mask
    return (rows == mask).all(axis=1)


def _and_rows(planes: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Per plane, the AND of the ``nodes`` rows; all ones when there are none."""
    out = np.bitwise_and.reduce(planes[:, nodes[:ROW_TILE]], axis=1, initial=0xFF)
    for r in range(ROW_TILE, nodes.size, ROW_TILE):
        out &= np.bitwise_and.reduce(planes[:, nodes[r : r + ROW_TILE]], axis=1)
    return out


def _intra_prune(members: np.ndarray, faction: np.ndarray, pos_bits: np.ndarray) -> np.ndarray:
    """Keep the members whose ties to every later member are +1.

    ``members`` must be sorted and ``faction`` is their packed mask.  The
    last member always survives, and any other survivor must be +1 to its
    successor, so only those members are tested.  For a candidate u the
    faction bits outside u's +1 row include u itself (the diagonal is 0),
    and u survives iff it is the highest of them.
    """
    if members.size < 2:
        return members
    succ = members[1:]
    next_ok = (pos_bits[members[:-1], succ >> 3] >> (succ & 7)) & 1 == 1
    cand = members[:-1][next_ok]
    bad = pos_bits[cand]
    np.invert(bad, out=bad)
    bad &= faction
    words = bad.view("<u8")  # node v is bit v % 64 of word v // 64
    top = words.shape[1] - 1 - (words[:, ::-1] != 0).argmax(axis=1)
    top_word = words[np.arange(cand.size), top]
    keep = (top == cand >> 6) & (top_word >> (cand & 63).astype(np.uint64) == 1)
    return np.concatenate((cand[keep], members[-1:]))


def _cross_prune(
    a: np.ndarray, b: np.ndarray, neg_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop members whose tie to any opposite-faction node is not -1.

    An A member stays iff its packed -1 row covers B's mask; then a B member
    stays iff its -1 row covers the surviving A's mask, matching the two
    removal statements' order.  Within a side the outcome is scan-order
    independent because the condition only looks across factions.
    """
    if a.size == 0 or b.size == 0:
        return a, b
    a = a[_covering(neg_bits[a], _mask(b, neg_bits.shape[1]))]
    if a.size == 0:
        return a, b
    return a, b[_covering(neg_bits[b], _mask(a, neg_bits.shape[1]))]


def _prune(
    a: np.ndarray, b: np.ndarray, a_mask: np.ndarray, b_mask: np.ndarray, planes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = _intra_prune(a, a_mask, planes[0])
    b = _intra_prune(b, b_mask, planes[0])
    return _cross_prune(a, b, planes[1])


def prune_factions(
    a: Iterable[int], b: Iterable[int], g: SignedGraph
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prune two disjoint factions to the deterministic fixed point.

    Within each faction of size >= 2 every surviving pair is +1; if both
    pruned factions are nonempty every surviving cross pair is -1.  Removal
    order is ascending node index, intra-faction (A then B) before cross.
    """
    a_idx = _as_index_array(a)
    b_idx = _as_index_array(b)
    if np.intersect1d(a_idx, b_idx).size:
        raise ValueError("factions must be disjoint")
    planes = g.bit_rows()
    nbytes = planes.shape[2]
    a_idx, b_idx = _prune(a_idx, b_idx, _mask(a_idx, nbytes), _mask(b_idx, nbytes), planes)
    return tuple(a_idx.tolist()), tuple(b_idx.tolist())


def expand(
    a: Iterable[int],
    b: Iterable[int],
    g: SignedGraph,
    candidates: Sequence[int],
    *,
    planes: np.ndarray | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single ascending sweep admitting candidates into a faction.

    A candidate joins A iff its sign is +1 to every current member of A and
    -1 to every current member of B; it joins B under the mirror condition.
    Factions grow during the sweep, so later candidates are checked against
    earlier admissions too.  There is no second sweep.  Unless both factions
    are empty, current members (zero diagonal) and nodes with a zero tie to
    any member are never admitted, so callers need not filter them out.

    The conditions are two packed flag vectors over all nodes: A's is the
    AND of A's +1 rows and B's -1 rows, B's the mirror, and each admission
    ANDs the newcomer's rows into both.  ``planes`` are the graph's packed
    sign planes, built here when not given.
    """
    if planes is None:
        planes = g.bit_rows()
    a_idx = _as_index_array(a)
    b_idx = _as_index_array(b)
    a_list, b_list = a_idx.tolist(), b_idx.tolist()
    cand = np.bincount(np.asarray(candidates, dtype=np.intp)).nonzero()[0]
    if cand.size == 0:
        return tuple(a_list), tuple(b_list)

    # row 0 flags joining A, row 1 joining B; planes[::-1] swaps the signs
    ok = _and_rows(planes, a_idx) & _and_rows(planes[::-1], b_idx)
    ok_a, ok_b = ok
    # the flags only fall, so no other candidate can join
    live = cand[((ok_a | ok_b)[cand >> 3] >> (cand & 7)) & 1 == 1]
    for node in live.tolist():
        byte, bit = node >> 3, 1 << (node & 7)
        if ok_a[byte] & bit:
            a_list.append(node)
            ok &= planes[:, node]
        elif ok_b[byte] & bit:
            b_list.append(node)
            ok &= planes[::-1, node]
    return tuple(sorted(a_list)), tuple(sorted(b_list))


def detect(g: SignedGraph, cfg: DetectConfig | None = None) -> Module:
    """Run the full seed loop and return the largest module found.

    Seeds are the top min(max_seeds, N) nodes by impact (ties broken by
    ascending index); zero-impact seeds are skipped.  Every node with at
    least as many ties as the pruned module has members is offered to
    :func:`expand`, whose alignment test rejects members and untied nodes.
    Returns the empty module when nothing of size >= MIN_MODULE_SIZE is found.
    """
    if cfg is None:
        cfg = DetectConfig()
    impacts = node_impacts(g)
    order = np.argsort(-impacts, kind="stable")
    planes = g.bit_rows()
    pos, neg = planes

    best_size = 0
    best_a: tuple[int, ...] = ()
    best_b: tuple[int, ...] = ()
    for rank in range(min(cfg.max_seeds, g.n)):
        seed = int(order[rank])
        if impacts[seed] == 0:
            continue
        a_mask = pos[seed].copy()
        a_mask[seed >> 3] |= 1 << (seed & 7)
        b_mask = neg[seed]
        a0 = np.unpackbits(a_mask, bitorder="little").nonzero()[0]
        b0 = np.unpackbits(b_mask, bitorder="little").nonzero()[0]
        a_idx, b_idx = _prune(a0, b0, a_mask, b_mask, planes)
        # a joiner needs a nonzero tie to every member, so at least that many
        cand = (impacts >= a_idx.size + b_idx.size).nonzero()[0]
        a_fin, b_fin = expand(a_idx, b_idx, g, cand, planes=planes)

        size = len(a_fin) + len(b_fin)
        if size > best_size:
            best_size = size
            best_a, best_b = a_fin, b_fin

    if best_size < MIN_MODULE_SIZE:
        return Module.empty(cfg.sigma)
    return Module(best_a, best_b, cfg.sigma).canonical()
