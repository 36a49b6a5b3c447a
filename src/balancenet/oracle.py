"""Exact largest-module computation and per-size counts on small graphs.

Subsets are enumerated as bitmask DFS over canonical faction assignments:
the lowest node of a candidate module is anchored in faction A, and nodes
are added in ascending order, each constrained to be +1 to its own faction
and -1 to the other.  This visits every complete balanced node set exactly
once, in lexicographic order, so the first maximum found is the
lexicographically smallest.  A branch-and-bound cut on the remaining
candidate count keeps dense instances (where modules are huge) tractable.
"""

from __future__ import annotations

from balancenet.signedgraph import MIN_MODULE_SIZE, Module, SignedGraph

MAX_ORACLE_NODES = 22


class EnumerationBudgetError(ValueError):
    """Raised when a graph is too large for exact enumeration."""


def _check_budget(g: SignedGraph) -> None:
    if g.n > MAX_ORACLE_NODES:
        raise EnumerationBudgetError(
            f"exact enumeration supports at most {MAX_ORACLE_NODES} nodes, got {g.n}"
        )


def _sign_masks(g: SignedGraph) -> tuple[list[int], list[int]]:
    """Per-node +1 and -1 neighbour sets as Python ints: bit j is node j."""
    pos, neg = ([int.from_bytes(row.tobytes(), "little") for row in plane] for plane in g.bit_rows())
    return pos, neg


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def exact_lscbm(g: SignedGraph, sigma: float | None = None) -> Module:
    """Maximum-cardinality balanced module, or the empty module if none.

    Ties are broken toward the lexicographically smallest node set.  Only
    graphs with at most MAX_ORACLE_NODES nodes are accepted.
    """
    _check_budget(g)
    n = g.n
    pos, neg = _sign_masks(g)

    best_size = 0
    best_split = (0, 0)

    def grow(a_mask: int, b_mask: int, can_a: int, can_b: int, size: int) -> None:
        nonlocal best_size, best_split
        cands = can_a | can_b
        while cands:
            if size + cands.bit_count() <= best_size:
                return
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            above = -(low << 1)  # bits strictly greater than v
            if can_a & low:
                na, nb = a_mask | low, b_mask
                next_a = can_a & pos[v] & above
                next_b = can_b & neg[v] & above
            else:
                na, nb = a_mask, b_mask | low
                next_a = can_a & neg[v] & above
                next_b = can_b & pos[v] & above
            if size + 1 >= MIN_MODULE_SIZE and size + 1 > best_size:
                best_size = size + 1
                best_split = (na, nb)
            grow(na, nb, next_a, next_b, size + 1)

    for v0 in range(n):
        start = 1 << v0
        above = -(start << 1)
        grow(start, 0, pos[v0] & above, neg[v0] & above, 1)

    if best_size < MIN_MODULE_SIZE:
        return Module.empty(sigma)
    return Module(_bits(best_split[0]), _bits(best_split[1]), sigma).canonical()


def count_scbm(g: SignedGraph, s: int) -> int:
    """Number of node subsets of size s that form a balanced module."""
    _check_budget(g)
    if s < MIN_MODULE_SIZE:
        raise ValueError(f"module size must be >= {MIN_MODULE_SIZE}")
    n = g.n
    if s > n:
        return 0
    pos, neg = _sign_masks(g)
    count = 0

    def grow(can_a: int, can_b: int, size: int) -> None:
        nonlocal count
        if size == s:
            count += 1
            return
        cands = can_a | can_b
        while cands:
            if size + cands.bit_count() < s:
                return
            low = cands & -cands
            cands ^= low
            v = low.bit_length() - 1
            above = -(low << 1)
            if can_a & low:
                grow(can_a & pos[v] & above, can_b & neg[v] & above, size + 1)
            else:
                grow(can_a & neg[v] & above, can_b & pos[v] & above, size + 1)

    for v0 in range(n):
        start = 1 << v0
        above = -(start << 1)
        grow(pos[v0] & above, neg[v0] & above, 1)
    return count

