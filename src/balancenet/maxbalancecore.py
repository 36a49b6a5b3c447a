"""Greedy seed-and-grow detection of the largest balanced module.

For each of the highest-impact seed nodes the search partitions the seed's
strong neighbors into a positive faction A (seed included) and a negative
faction B, prunes both factions until every within-faction pair is +1 and
every cross pair is -1, then sweeps the other nodes once, admitting each
node whose signs align uniformly with one faction and against the other.
That alignment test is the only admission test: members fail it on their
zero diagonal and untied nodes on a zero tie.  The largest module over all
seeds wins; ties keep the earlier seed, and the loop stops once no later
seed can win (see :func:`detect`).

Pruning removes, repeatedly, the lowest-index member with a non-(+1) tie to
the rest of its living faction.  A member whose ties to all later members
are +1 is never removed: an earlier member with a bad tie to it violates
too and goes first.  A member with a bad tie to a later member always is:
that later member cannot go while it lives.  So the survivors are exactly
the members with only +1 ties to every later member, which is the one
predicate the intra-faction step computes.

Every kernel works on the packed sign planes of :meth:`SignedGraph.bit_rows`,
the +1 rows and the -1 rows.  They are the graph's one stored form, so no
call builds them, and node impacts are popcounts of their rows.  Signs are
symmetric, so "u is -1 to all of a set" is u's bit in the AND of the set's
-1 rows: cross-pruning and the admission flags are AND-reduces over packed
rows.  Each node's highest 64-bit word of conflicts, nodes without a +1 tie
to it, is found once per call; one word test against it settles almost
every intra-prune candidate without gathering its row.  Seeds go in chunks
that fit ``_CHUNK_BYTES`` of gathered rows; one pass of each kernel prunes
and flags all factions of a chunk, carried as one list of (faction, node)
pairs, so the per-call cost is paid per chunk, not per seed.  From about
4,100 nodes up a chunk is one seed.

Only the admission sweep runs seed by seed, on each seed's two flag
bitsets as Python ints.  It never visits a node it does not admit: the
flags only fall, so the next node admitted is always the lowest set flag,
and each step jumps to it (see :func:`_sweep`).  The rows it ANDs in are
converted to ints once per call, on first use, and shared by the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from balancenet.signedgraph import MIN_MODULE_SIZE, ROW_TILE, Module, SignedGraph, _check_nodes, _RowInts

DEFAULT_MAX_SEEDS = 100
# packed-row bytes one chunk of seeds may gather, counted as n rows per seed,
# so a chunk is this // plane bytes seeds.  It does not bound what a chunk
# holds per (faction, node) pair, up to n pairs per seed: several 8-byte
# index arrays, and a byte per node and faction while the masks are
# unpacked.  The conflict-word index leaves few rows to gather, so the
# budget can be large enough to share numpy's per-call cost among seeds.
_CHUNK_BYTES = 4 * 1024 * 1024
_ONES = ~np.uint64(0)


@dataclass(frozen=True)
class DetectConfig:
    """Detection parameters: the seed budget."""

    max_seeds: int = DEFAULT_MAX_SEEDS

    def __post_init__(self) -> None:
        if self.max_seeds < 1:
            raise ValueError("max_seeds must be >= 1")


def node_impacts(g: SignedGraph) -> np.ndarray:
    """Per-node count of nonzero incident signs (degree in the signed graph):
    the popcount of each row of ``P | N``, a row tile at a time."""
    pos, neg = g.bit_rows()
    out = np.empty(g.n, dtype=np.intp)
    for r in range(0, g.n, ROW_TILE):
        either = (pos[r : r + ROW_TILE] | neg[r : r + ROW_TILE]).view("<u8")
        out[r : r + ROW_TILE] = np.bitwise_count(either).sum(axis=1)
    return out


def _members(masks: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bits set in packed ``masks`` as ``(rows, nodes, at)``: pairs sorted by
    row, then node, with row r's pairs at ``at[r]:at[r + 1]``."""
    bits = np.unpackbits(masks, axis=1, bitorder="little")
    width = bits.shape[1]
    flat = bits.ravel().nonzero()[0]
    at = flat.searchsorted(np.arange(0, (masks.shape[0] + 1) * width, width))
    rows = np.arange(masks.shape[0]).repeat(at[1:] - at[:-1])
    return rows, flat - rows * width, at


def _kept(pairs: tuple[np.ndarray, ...], keep: np.ndarray) -> tuple[np.ndarray, ...]:
    rows, nodes, at = pairs
    rows = rows[keep]
    return rows, nodes[keep], rows.searchsorted(np.arange(at.size))


def _and_rows(planes: np.ndarray, nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Per plane and row, the AND of the plane rows of the row's nodes (all ones
    for none), gathered ``ROW_TILE`` nodes at a time so each tile stays in cache."""
    width = (at[1:] - at[:-1]).max(initial=0)
    # one padded row of positions per row; the padding repeats its last node
    grid = nodes[np.minimum(at[:-1, None] + np.arange(width), at[1:, None] - 1)]
    out = np.bitwise_and.reduce(planes[:, grid[:, :ROW_TILE]], axis=2, initial=0xFF)
    for t in range(ROW_TILE, width, ROW_TILE):
        out &= np.bitwise_and.reduce(planes[:, grid[:, t : t + ROW_TILE]], axis=2)
    out[:, at[1:] == at[:-1]] = 0xFF
    return out


def _last_conflicts(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node u, the highest 64-bit word of u's conflicts, the nodes v < n
    with no +1 tie to u, as its index and the word itself (node v is bit
    v % 64 of word v // 64).  u is a conflict of its own, since the diagonal
    is 0, so the index is never below u's own word u // 64.  One pass over
    the +1 rows ``pos``, a row tile at a time; the padding bits past n never
    count."""
    n, width = pos.shape
    real = np.packbits(np.arange(8 * width) < n, bitorder="little").view("<u8")
    top = np.empty(n, dtype=np.intp)
    word = np.empty(n, dtype=np.uint64)
    for r in range(0, n, ROW_TILE):
        bad = ~pos[r : r + ROW_TILE].view("<u8") & real
        top[r : r + ROW_TILE] = high = bad.shape[1] - 1 - (bad[:, ::-1] != 0).argmax(axis=1)
        word[r : r + ROW_TILE] = bad[np.arange(bad.shape[0]), high]
    return top, word


def _intra_prune(pairs: tuple[np.ndarray, ...], masks: np.ndarray, pos: np.ndarray, conflicts: tuple) -> tuple:
    """Keep the members whose ties to every later member of their row are +1.

    ``masks`` are the rows' packed factions and ``conflicts`` is
    :func:`_last_conflicts` of the +1 rows ``pos``.  A row's last member
    always survives, and any other survivor must be +1 to its successor, so
    only those members are candidates.  Most are settled by one 64-bit word:
    a candidate u goes if its faction holds a conflict above u in u's
    highest conflict word, and survives if it holds none there and that word
    is u's own, since no conflict lies in a later word.  For the rest the
    faction bits outside u's +1 row include u itself (the diagonal is 0),
    and u survives iff it is the highest of them.
    """
    rows, nodes, at = pairs
    keep = np.ones(nodes.size, dtype=bool)
    keep[:-1] = rows[1:] != rows[:-1]
    succ = nodes[1:]
    cand = (~keep[:-1] & ((pos[nodes[:-1], succ >> 3] >> (succ & 7)) & 1 == 1)).nonzero()[0]
    u = nodes[cand]
    top, word = conflicts[0][u], conflicts[1][u]
    own = top == u >> 6
    above = np.where(own, _ONES << (u & 63).astype(np.uint64) << 1, _ONES)  # the bits of word top above u
    clear = masks.view("<u8")[rows[cand], top] & word & above == 0
    keep[cand] = own & clear
    cand = cand[~own & clear]
    u = nodes[cand]
    bad = pos[u]
    np.invert(bad, out=bad)
    cut = cand.searchsorted(at).tolist()
    for mask, lo, hi in zip(masks, cut, cut[1:]):
        if lo < hi:
            bad[lo:hi] &= mask  # one broadcast per faction, not one gather per member
    words = bad.view("<u8")
    high = words.shape[1] - 1 - (words[:, ::-1] != 0).argmax(axis=1)
    high_word = words[np.arange(cand.size), high]
    keep[cand] = (high == u >> 6) & (high_word >> (u & 63).astype(np.uint64) == 1)
    return _kept(pairs, keep)


def _prune(masks: np.ndarray, planes: np.ndarray, conflicts: tuple) -> tuple:
    """Prune c seeds' factions, packed as each seed's A and then each B, to the
    fixed point: the surviving A and B as :func:`_members` pairs, and per seed
    the AND of B's rows in each plane.  ``conflicts`` is
    :func:`_last_conflicts` of the +1 plane.  An A member stays iff it is -1
    to all of its B.  The B members -1 to all of the surviving A stay next,
    and by symmetry that is all of B."""
    c = masks.shape[0] // 2
    rows, nodes, at = _intra_prune(_members(masks), masks, planes[0], conflicts)
    a = rows[: at[c]], nodes[: at[c]], at[: c + 1]
    b = rows[at[c] :] - c, nodes[at[c] :], at[c:] - at[c]
    b_and = _and_rows(planes, *b[1:])
    neg_b = np.unpackbits(b_and[1], axis=1, bitorder="little")
    return _kept(a, neg_b[a[0], a[1]] == 1), b, b_and


def _sweep(ok_a: int, ok_b: int, rows: _RowInts) -> tuple[list[int], list[int]]:
    """The nodes admitted to A and to B, each ascending, from the flags ``ok_a``
    for joining A and ``ok_b`` for joining B, bit v for node v.

    A node is admitted where its flag is set when the ascending sweep reaches
    it, and its rows are ANDed into both flags, clearing its own bits since
    the diagonal is 0.  The flags only fall, so no flag at or below an
    admitted node is ever set again, and the next node admitted is always the
    lowest set flag: the sweep jumps from one admission to the next and never
    steps through the nodes between them.
    """
    a, b = [], []
    while either := ok_a | ok_b:
        low = either & -either
        node = low.bit_length() - 1
        pos, neg = rows[node]
        if ok_a & low:
            a.append(node)
            ok_a &= pos
            ok_b &= neg
        else:
            b.append(node)
            ok_a &= neg
            ok_b &= pos
    return a, b


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

    The conditions are two flag bitsets over the candidates: A's is the AND
    of A's +1 rows and B's -1 rows, B's the mirror, each row read as an int,
    and each admission ANDs the newcomer's rows into both (see
    :func:`_sweep`).  Raises ValueError naming a node that is not in ``g``.
    """
    rows = _RowInts(g.bit_rows())
    a_list = sorted(_check_nodes(g, a))
    b_list = sorted(_check_nodes(g, b))
    ok_a = ok_b = sum(1 << v for v in set(_check_nodes(g, candidates)))
    for v in a_list:
        pos, neg = rows[v]
        ok_a, ok_b = ok_a & pos, ok_b & neg
    for v in b_list:
        pos, neg = rows[v]
        ok_a, ok_b = ok_a & neg, ok_b & pos
    fa, fb = _sweep(ok_a, ok_b, rows)
    return tuple(sorted(a_list + fa)), tuple(sorted(b_list + fb))


def detect(g: SignedGraph, cfg: DetectConfig | None = None) -> Module:
    """Run the full seed loop and return the largest module found.

    Seeds are the top min(max_seeds, N) nodes by impact (ties broken by
    ascending index); zero-impact seeds are skipped.  Each seed's pruned
    factions are swept as :func:`expand` sweeps them, over every node;
    the sweep is skipped when the factions and the nodes whose flags are set
    after pruning cannot beat the best so far.  Returns the empty module
    when nothing of size >= MIN_MODULE_SIZE is found.

    The loop stops early without changing the result.  A seed is never
    pruned: it is +1 to the rest of A, its +1 row, and -1 to all of B, its
    -1 row.  Every joiner needs a nonzero tie to it, so its module has at
    most ``impacts[seed] + 1`` nodes.  Seeds come in descending impact and a
    tie keeps the earlier module, so from the first seed with
    ``impacts[seed] + 1 <= best`` on, none can win.
    """
    impacts = node_impacts(g)
    seeds = np.argsort(-impacts, kind="stable")[: min((cfg or DetectConfig()).max_seeds, g.n)]
    seeds = seeds[impacts[seeds] > 0]
    planes = g.bit_rows()
    conflicts = _last_conflicts(planes[0])
    rows = _RowInts(planes)  # shared by the seeds, whose modules overlap
    chunk = max(1, _CHUNK_BYTES // max(planes[0].nbytes, 1))

    best_size, best_a, best_b = 0, [], []
    for first in range(0, seeds.size, chunk):
        part = seeds[first : first + chunk]
        if impacts[part[0]] + 1 <= best_size:
            break
        # A starts as each seed's +1 row and the seed, B as its -1 row
        masks = planes[:, part].reshape(2 * part.size, -1)
        masks[np.arange(part.size), part >> 3] |= (1 << (part & 7)).astype(np.uint8)
        a, b, b_and = _prune(masks, planes, conflicts)
        ok = _and_rows(planes, *a[1:]) & b_and[::-1]
        pruned = np.diff(a[2]) + np.diff(b[2])
        flagged = np.bitwise_count(ok[0] | ok[1]).sum(axis=1, dtype=np.intp)
        for i, (seed, size, bound) in enumerate(zip(part.tolist(), pruned.tolist(), (pruned + flagged).tolist())):
            if impacts[seed] + 1 <= best_size:
                break
            if bound <= best_size:
                continue
            fa, fb = _sweep(int.from_bytes(ok[0, i], "little"), int.from_bytes(ok[1, i], "little"), rows)
            if size + len(fa) + len(fb) > best_size:
                best_size = size + len(fa) + len(fb)
                best_a = a[1][a[2][i] : a[2][i + 1]].tolist() + fa
                best_b = b[1][b[2][i] : b[2][i + 1]].tolist() + fb

    if best_size < MIN_MODULE_SIZE:
        return Module.empty(g.sigma)
    return Module(tuple(best_a), tuple(best_b), g.sigma).canonical()
