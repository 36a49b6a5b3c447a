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
rows.  Seeds go in chunks that
fit ``_CHUNK_BYTES`` of gathered rows; one pass of each kernel prunes and
flags all factions of a chunk, carried as one list of (faction, node) pairs,
so small graphs pay numpy's per-call cost per chunk, not per seed.  Only the
admission sweep runs seed by seed.  From a few hundred nodes up a chunk is one seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from balancenet.signedgraph import MIN_MODULE_SIZE, ROW_TILE, Module, SignedGraph

DEFAULT_MAX_SEEDS = 100
# packed-row bytes that one chunk of seeds may gather, up to n rows per seed
_CHUNK_BYTES = 32 * 1024


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


def _intra_prune(pairs: tuple[np.ndarray, ...], masks: np.ndarray, pos: np.ndarray) -> tuple:
    """Keep the members whose ties to every later member of their row are +1.

    ``masks`` are the rows' packed factions.  A row's last member always
    survives, and any other survivor must be +1 to its successor, so only
    those members are tested.  For a candidate u the faction bits outside
    u's +1 row include u itself (the diagonal is 0), and u survives iff it is
    the highest of them.
    """
    rows, nodes, at = pairs
    keep = np.ones(nodes.size, dtype=bool)
    keep[:-1] = rows[1:] != rows[:-1]
    succ = nodes[1:]
    cand = (~keep[:-1] & ((pos[nodes[:-1], succ >> 3] >> (succ & 7)) & 1 == 1)).nonzero()[0]
    u = nodes[cand]
    bad = pos[u]
    np.invert(bad, out=bad)
    cut = cand.searchsorted(at).tolist()
    for mask, lo, hi in zip(masks, cut, cut[1:]):
        bad[lo:hi] &= mask  # one broadcast per faction, not one gather per member
    words = bad.view("<u8")  # node v is bit v % 64 of word v // 64
    top = words.shape[1] - 1 - (words[:, ::-1] != 0).argmax(axis=1)
    top_word = words[np.arange(cand.size), top]
    keep[cand] = (top == u >> 6) & (top_word >> (u & 63).astype(np.uint64) == 1)
    return _kept(pairs, keep)


def _prune(masks: np.ndarray, planes: np.ndarray) -> tuple:
    """Prune c seeds' factions, packed as each seed's A and then each B, to the
    fixed point: the surviving A and B as :func:`_members` pairs, and per seed
    the AND of B's rows in each plane.  An A member stays iff it is -1 to all
    of its B.  The B members -1 to all of the surviving A stay next, and by
    symmetry that is all of B."""
    c = masks.shape[0] // 2
    rows, nodes, at = _intra_prune(_members(masks), masks, planes[0])
    a = rows[: at[c]], nodes[: at[c]], at[: c + 1]
    b = rows[at[c] :] - c, nodes[at[c] :], at[c:] - at[c]
    b_and = _and_rows(planes, *b[1:])
    neg_b = np.unpackbits(b_and[1], axis=1, bitorder="little")
    return _kept(a, neg_b[a[0], a[1]] == 1), b, b_and


def _sweep(a: list, b: list, ok: np.ndarray, live: list, planes: np.ndarray) -> tuple:
    """Admit the ascending ``live`` nodes to ``a`` or ``b`` while their flags in
    ``ok`` hold, ANDing each newcomer's rows into the flags."""
    ok_a, ok_b = ok
    for node in live:
        byte, bit = node >> 3, 1 << (node & 7)
        if ok_a[byte] & bit:
            a.append(node)
            ok &= planes[:, node]
        elif ok_b[byte] & bit:
            b.append(node)
            ok &= planes[::-1, node]
    return a, b


def prune_factions(
    a: Iterable[int], b: Iterable[int], g: SignedGraph
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prune two disjoint factions to the deterministic fixed point.

    Within each faction of size >= 2 every surviving pair is +1; if both
    pruned factions are nonempty every surviving cross pair is -1.  Removal
    order is ascending node index, intra-faction (A then B) before cross.
    """
    a_idx = np.fromiter(a, dtype=np.intp)
    b_idx = np.fromiter(b, dtype=np.intp)
    if np.intersect1d(a_idx, b_idx).size:
        raise ValueError("factions must be disjoint")
    planes = g.bit_rows()
    member = np.zeros((2, 8 * planes.shape[2]), dtype=bool)
    member[0, a_idx] = member[1, b_idx] = True
    a_out, b_out, _ = _prune(np.packbits(member, axis=1, bitorder="little"), planes)
    return tuple(a_out[1].tolist()), tuple(b_out[1].tolist())


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

    The conditions are two packed flag vectors over all nodes: A's is the
    AND of A's +1 rows and B's -1 rows, B's the mirror, and each admission
    ANDs the newcomer's rows into both.
    """
    planes = g.bit_rows()
    a_list = sorted(np.fromiter(a, dtype=np.intp).tolist())
    b_list = sorted(np.fromiter(b, dtype=np.intp).tolist())
    cand = np.bincount(np.asarray(candidates, dtype=np.intp)).nonzero()[0]
    if cand.size == 0:
        return tuple(a_list), tuple(b_list)

    at = np.array([0, len(a_list), len(a_list) + len(b_list)])
    ands = _and_rows(planes, np.array(a_list + b_list, dtype=np.intp), at)
    ok = ands[:, 0] & ands[::-1, 1]  # row 0 flags joining A, row 1 joining B
    # the flags only fall, so no other candidate can join
    live = cand[((ok[0] | ok[1])[cand >> 3] >> (cand & 7)) & 1 == 1]
    _sweep(a_list, b_list, ok, live.tolist(), planes)
    return tuple(sorted(a_list)), tuple(sorted(b_list))


def detect(g: SignedGraph, cfg: DetectConfig | None = None) -> Module:
    """Run the full seed loop and return the largest module found.

    Seeds are the top min(max_seeds, N) nodes by impact (ties broken by
    ascending index); zero-impact seeds are skipped.  Each seed's pruned
    factions are swept as :func:`expand` sweeps them, over the nodes whose
    flags are set after pruning; the sweep is skipped when those nodes and
    the factions cannot beat the best so far.  Returns the empty module when
    nothing of size >= MIN_MODULE_SIZE is found.

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
    chunk = max(1, _CHUNK_BYTES // max(planes[0].nbytes, 1))

    best_size, best_a, best_b = 0, [], []
    for first in range(0, seeds.size, chunk):
        part = seeds[first : first + chunk]
        if impacts[part[0]] + 1 <= best_size:
            break
        # A starts as each seed's +1 row and the seed, B as its -1 row
        masks = planes[:, part].reshape(2 * part.size, -1)
        masks[np.arange(part.size), part >> 3] |= (1 << (part & 7)).astype(np.uint8)
        a, b, b_and = _prune(masks, planes)
        ok = _and_rows(planes, *a[1:]) & b_and[::-1]
        live = _members(ok[0] | ok[1])
        # each seed's A, B and live nodes as lists, for the sweep
        a_rows, b_rows, live_rows = (
            [nodes[x:y] for x, y in zip(at, at[1:])]
            for nodes, at in ((p[1].tolist(), p[2].tolist()) for p in (a, b, live))
        )
        for i, seed in enumerate(part.tolist()):
            if impacts[seed] + 1 <= best_size:
                break
            if len(a_rows[i]) + len(b_rows[i]) + len(live_rows[i]) <= best_size:
                continue
            fa, fb = _sweep(a_rows[i], b_rows[i], ok[:, i].copy(), live_rows[i], planes)
            if len(fa) + len(fb) > best_size:
                best_size, best_a, best_b = len(fa) + len(fb), fa, fb

    if best_size < MIN_MODULE_SIZE:
        return Module.empty(g.sigma)
    return Module(tuple(best_a), tuple(best_b), g.sigma).canonical()
