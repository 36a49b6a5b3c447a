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
predicate the intra-faction step computes, over packed +1 adjacency rows.
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
    return np.asarray(sorted(int(v) for v in nodes), dtype=np.intp)


def _intra_prune(
    members: np.ndarray, signs: np.ndarray, pos_bits: np.ndarray
) -> np.ndarray:
    """Keep the members whose ties to every later member are +1.

    ``members`` must be sorted.  A survivor must be +1 to its successor, so
    only those members (and the last one) are tested.  For a candidate u the
    faction bits outside u's +1 row include u itself (the diagonal is 0), and
    u survives iff it is the highest of them.
    """
    if members.size < 2:
        return members
    next_ok = signs[members[:-1], members[1:]] == 1
    cand = np.append(members[:-1][next_ok], members[-1])
    in_faction = np.zeros(signs.shape[0], dtype=bool)
    in_faction[members] = True
    bad = np.packbits(in_faction, bitorder="little") & ~pos_bits[cand]
    top = bad.shape[1] - 1 - np.argmax(bad[:, ::-1] != 0, axis=1)
    top_byte = bad[np.arange(cand.size), top]
    return cand[(top == cand >> 3) & (top_byte >> (cand & 7) == 1)]


def _cross_prune(
    a: np.ndarray, b: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop members whose tie to any opposite-faction node is not -1.

    The A side is filtered against the full B first, then B against the
    surviving A, matching the two removal statements' order.  Within a side
    the outcome is scan-order independent because the condition only looks
    across factions.
    """
    if a.size == 0 or b.size == 0:
        return a, b
    cross = signs[np.ix_(a, b)] == -1
    keep_a = cross.all(axis=1)
    a = a[keep_a]
    if a.size == 0:
        return a, b
    keep_b = cross[keep_a].all(axis=0)
    return a, b[keep_b]


def _prune(
    a: np.ndarray, b: np.ndarray, signs: np.ndarray, pos_bits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    a = _intra_prune(a, signs, pos_bits)
    b = _intra_prune(b, signs, pos_bits)
    return _cross_prune(a, b, signs)


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
    a_idx, b_idx = _prune(a_idx, b_idx, g.signs, g.bit_rows(1))
    return tuple(int(v) for v in a_idx), tuple(int(v) for v in b_idx)


def expand(
    a: Iterable[int],
    b: Iterable[int],
    g: SignedGraph,
    candidates: Sequence[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Single ascending sweep admitting candidates into a faction.

    A candidate joins A iff its sign is +1 to every current member of A and
    -1 to every current member of B; it joins B under the mirror condition.
    Factions grow during the sweep, so later candidates are checked against
    earlier admissions too.  There is no second sweep.  Unless both factions
    are empty, current members (zero diagonal) and nodes with a zero tie to
    any member are never admitted, so callers need not filter them out.
    """
    signs = g.signs
    a_list = sorted(int(v) for v in a)
    b_list = sorted(int(v) for v in b)
    cand = np.flatnonzero(np.bincount(np.asarray(candidates, dtype=np.intp)))
    if cand.size == 0:
        return tuple(a_list), tuple(b_list)

    a_rows = signs[np.ix_(np.asarray(a_list, dtype=np.intp), cand)]
    b_rows = signs[np.ix_(np.asarray(b_list, dtype=np.intp), cand)]
    ok_a = (a_rows == 1).all(axis=0) & (b_rows == -1).all(axis=0)
    ok_b = (a_rows == -1).all(axis=0) & (b_rows == 1).all(axis=0)
    live = ok_a | ok_b  # the flags only fall, so no other candidate can join
    cand, ok_a, ok_b = cand[live], ok_a[live], ok_b[live]

    for pos in range(cand.size):
        joins_a = bool(ok_a[pos])
        if not joins_a and not ok_b[pos]:
            continue
        node = int(cand[pos])
        row = signs[node, cand]
        if joins_a:
            a_list.append(node)
            ok_a &= row == 1
            ok_b &= row == -1
        else:
            b_list.append(node)
            ok_a &= row == -1
            ok_b &= row == 1
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
    signs = g.signs
    impacts = node_impacts(g)
    order = np.argsort(-impacts, kind="stable")
    pos_bits = g.bit_rows(1)

    best_size = 0
    best_a: tuple[int, ...] = ()
    best_b: tuple[int, ...] = ()
    for rank in range(min(cfg.max_seeds, g.n)):
        seed = int(order[rank])
        if impacts[seed] == 0:
            continue
        row = signs[seed]
        a0 = np.flatnonzero(row == 1)
        a0 = np.sort(np.append(a0, seed))
        b0 = np.flatnonzero(row == -1)
        a_idx, b_idx = _prune(a0, b0, signs, pos_bits)
        # a joiner needs a nonzero tie to every member, so at least that many
        cand = np.flatnonzero(impacts >= a_idx.size + b_idx.size)
        a_fin, b_fin = expand(a_idx, b_idx, g, cand)

        size = len(a_fin) + len(b_fin)
        if size > best_size:
            best_size = size
            best_a, best_b = a_fin, b_fin

    if best_size < MIN_MODULE_SIZE:
        return Module.empty(cfg.sigma)
    return Module(best_a, best_b, cfg.sigma).canonical()
