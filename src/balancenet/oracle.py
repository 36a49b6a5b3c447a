"""Exact largest-module computation and per-size counts on small graphs.

One bitmask DFS, ``_search``, enumerates canonical faction assignments:
the lowest node of a candidate module is anchored in faction A, and nodes
are added in ascending order, each constrained to be +1 to its own faction
and -1 to the other.  This visits every complete balanced node set exactly
once, in lexicographic order, and cuts a branch once its size plus its
remaining candidates cannot pass a floor.  ``exact_lscbm`` starts the floor
at MIN_MODULE_SIZE - 1 and raises it to each new best, so it keeps the
first maximum found, the lexicographically smallest.  ``count_scbm(g, s)``
holds the floor at s - 1, caps the depth at s and counts the sets of size s.
"""

from __future__ import annotations

from balancenet.signedgraph import MIN_MODULE_SIZE, Module, SignedGraph, _mask_nodes, _RowInts

MAX_ORACLE_NODES = 22


class EnumerationBudgetError(ValueError):
    """Raised when a graph is too large for exact enumeration."""


def _check_budget(g: SignedGraph) -> None:
    if g.n > MAX_ORACLE_NODES:
        raise EnumerationBudgetError(
            f"exact enumeration supports at most {MAX_ORACLE_NODES} nodes, got {g.n}"
        )


def _search(g: SignedGraph, floor: int, cap: int, climb: bool) -> tuple[int, int, int]:
    """The one DFS: ``(hits, a_mask, b_mask)`` over the balanced sets it reaches.

    A set of size k counts as a hit when k > floor, and ``(a_mask, b_mask)``
    is the split of the last hit.  With ``climb`` the floor rises to each
    hit's size, so hits are strict new bests.  No set grows past ``cap``
    nodes, and a branch is cut once ``size + remaining <= floor``.
    """
    rows = _RowInts(g.bit_rows())  # node -> its +1 and -1 neighbour sets, bit j node j
    hits = 0
    split = (0, 0)

    def grow(a_mask: int, b_mask: int, can_a: int, can_b: int, size: int) -> None:
        nonlocal floor, hits, split
        k = size + 1  # the size of each set made here
        cands = can_a | can_b
        while cands:
            if size + cands.bit_count() <= floor:
                return
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            above = -(low << 1)  # bits strictly greater than v
            pos, neg = rows[v]
            if can_a & low:
                na, nb = a_mask | low, b_mask
                next_a = can_a & pos & above
                next_b = can_b & neg & above
            else:
                na, nb = a_mask, b_mask | low
                next_a = can_a & neg & above
                next_b = can_b & pos & above
            if k > floor:
                hits += 1
                split = (na, nb)
                if climb:
                    floor = k
            if k < cap:
                grow(na, nb, next_a, next_b, k)

    for v0 in range(g.n):
        start = 1 << v0
        above = -(start << 1)
        pos, neg = rows[v0]
        grow(start, 0, pos & above, neg & above, 1)
    return hits, split[0], split[1]


def exact_lscbm(g: SignedGraph) -> Module:
    """Maximum-cardinality balanced module, or the empty module if none.

    Ties are broken toward the lexicographically smallest node set.  Only
    graphs with at most MAX_ORACLE_NODES nodes are accepted.
    """
    _check_budget(g)
    _, a_mask, b_mask = _search(g, MIN_MODULE_SIZE - 1, g.n, climb=True)
    if not a_mask:
        return Module.empty(g.sigma)
    return Module(_mask_nodes(a_mask), _mask_nodes(b_mask), g.sigma).canonical()


def count_scbm(g: SignedGraph, s: int) -> int:
    """Number of node subsets of size s that form a balanced module."""
    _check_budget(g)
    if s < MIN_MODULE_SIZE:
        raise ValueError(f"module size must be >= {MIN_MODULE_SIZE}")
    if s > g.n:
        return 0
    return _search(g, s - 1, s, climb=False)[0]
