"""Seeded random signed graphs and planted-module benchmark instances.

Per-pair randomness is counter-based: the value for pair (i, j) is a 64-bit
hash of (seed, stream, i*n + j), so the sample is independent of generation
order and safe to produce in parallel.  The mixing function is the
SplitMix64 finalizer, applied twice to decorrelate the seed from the pair
counter.  One loop, ``_upper_blocks``, hashes the upper triangle in
8-aligned blocks of rows, from the diagonal on, in buffers reused from
block to block; both generators consume it.  Both cut the raw 64-bit sign
words at integer limits (``_word_limit``), building no float uniform to pick
a sign.  ``sample_signed`` hands each block's sign bits to
``signedgraph._write_upper``, which packs them into the upper part of the
planes; the graph mirrors them once, when it is built.
``plant_lscbm`` turns its weight words into float uniforms, gives the core
pairs their signs in the same block, and hands its nonzero entries to
``corrnet._append_upper``, which appends them to the edge list.
``pair_uniform`` computes one pair's uniform in pure Python, the scalar
reference both generators agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from balancenet.corrnet import EDGE_DTYPE, ValidatedCorrMatrix, _append_upper
from balancenet.signedgraph import SignedGraph, _mapped_zeros, _valid_sigma, _write_upper, _zero_planes

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT_A = 0xBF58476D1CE4E5B9
_MULT_B = 0x94D049BB133111EB

# stream tags keep the sign draw and the weak-weight draw independent
_STREAM_SIGN = 0
_STREAM_WEIGHT = 1

# planted weak-sector edge law: absent / weakly positive / weakly negative
_P_ABSENT = 0.30
_P_WEAK_POS = 0.35

# cells hashed per block of rows; a larger block raises peak RSS
_BLOCK_CELLS = 1 << 16


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MULT_A) & _MASK
    z = ((z ^ (z >> 27)) * _MULT_B) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive an independent 63-bit sub-seed from a master seed and indices."""
    h = _mix64_int(seed)
    for p in path:
        h = _mix64_int(h ^ _mix64_int((p + 1) * _GAMMA))
    return h >> 1


def _mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of uint64 ``z``, in place; ``scratch`` has z's shape."""
    for shift, mult in ((30, _MULT_A), (27, _MULT_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _stream_base(seed: int, stream: int) -> int:
    return _mix64_int(seed ^ _mix64_int((stream + 1) * _GAMMA))


def pair_uniform(seed: int, i: int, j: int, n: int, stream: int = _STREAM_SIGN) -> float:
    """The [0, 1) uniform used for the unordered pair (i, j) of an n-node graph.

    Computed one pair at a time, apart from the block loop the generators
    share, so tests can confirm that samples are a pure function of
    (seed, i, j) regardless of how generation was batched.
    """
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("pair indices must lie in [0, n)")
    if i == j:
        raise ValueError("pair requires two distinct nodes")
    if i > j:
        i, j = j, i
    return (_mix64_int(_stream_base(seed, stream) + (i * n + j) * _GAMMA) >> 11) * 0.5**53


def _word_limit(x: float) -> np.uint64:
    """The largest word w whose uniform (w >> 11) * 2**-53 is below x > 0: m * 2**-53
    < x iff m < t = ceil(x * 2**53), the scaling being exact, and m = w >> 11 < t
    iff w <= (t - 1) << 11 | 0x7FF.  The cap covers alpha + beta above 1 by rounding."""
    return np.uint64((min(math.ceil(x * 2.0**53), 1 << 53) - 1) << 11 | 0x7FF)


def _upper_blocks(n: int, seed: int, streams: tuple[int, ...]):
    """Yield ``(r0, r1, words)`` over the upper triangle of an n x n pair grid.

    Each block is rows r0..r1 - 1 by columns r0..n - 1, with r0 a multiple
    of 8; ``words[s]`` holds the hashes of the keys i*n + j on
    ``streams[s]``.  The streams share ``_BLOCK_CELLS``, and the buffers
    are reused from block to block, so a consumer must be done with a block
    before it asks for the next.
    """
    # the key i*n + j hashes from base + i*n*GAMMA plus j*GAMMA, mod 2**64
    row_terms = np.arange(n, dtype=np.uint64) * np.uint64(n * _GAMMA & _MASK)
    rows = [row_terms + np.uint64(_stream_base(seed, s)) for s in streams]
    cols = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
    cells = min(n * n, max(_BLOCK_CELLS // len(streams), 8 * n))
    words = np.empty((len(streams), cells), dtype=np.uint64)
    scratch = np.empty(cells, dtype=np.uint64)
    r0 = 0
    while r0 < n:
        r1 = min(n, r0 + max(8, cells // (n - r0) // 8 * 8))
        shape = (r1 - r0, n - r0)
        block = words[:, : shape[0] * shape[1]].reshape(len(streams), *shape)
        for z, terms in zip(block, rows):
            np.add(terms[r0:r1, None], cols[r0:], out=z)
            _mix64_inplace(z, scratch[: z.size].reshape(shape))
        yield r0, r1, block
        r0 = r1


@dataclass(frozen=True)
class SignedModelParams:
    """Edge law for the random signed graph: +1 w.p. alpha, -1 w.p. beta."""

    n: int
    alpha_edge: float
    beta_edge: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.alpha_edge <= 1.0:
            raise ValueError("alpha_edge must lie in (0, 1]")
        if not 0.0 <= self.beta_edge < 1.0:
            raise ValueError("beta_edge must lie in [0, 1)")
        if self.alpha_edge + self.beta_edge > 1.0 + 1e-15:
            raise ValueError("alpha_edge + beta_edge must not exceed 1")


@dataclass(frozen=True)
class PlantedInstance:
    """Synthetic validated matrix with a known ground-truth module.

    Core edges are exactly +1 inside factions and -1 across; every pair
    touching the remainder set is strictly weaker than ``sigma`` in absolute
    value, so the planted core is the unique largest balanced module.
    """

    matrix: ValidatedCorrMatrix
    truth_a: tuple[int, ...]
    truth_b: tuple[int, ...]
    sigma: float

    @property
    def truth_nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.truth_a + self.truth_b))


def sample_signed(params: SignedModelParams) -> SignedGraph:
    """Draw a random signed graph under the given edge law.

    Each unordered pair independently becomes +1 with probability alpha,
    -1 with probability beta, and 0 otherwise.  Identical parameters and
    seed always reproduce the identical graph.
    """
    n = params.n
    limits = [_word_limit(x) for x in (params.alpha_edge, params.alpha_edge + params.beta_edge)]
    planes = _zero_planes(n)
    for r0, r1, (z,) in _upper_blocks(n, params.seed, (_STREAM_SIGN,)):
        bits = np.empty((2, *z.shape), dtype=bool)
        for plane, limit in zip(bits, limits):
            np.less_equal(z, limit, out=plane)
        bits[1] ^= bits[0]  # -1 where m lies in [t_alpha, t_both)
        _write_upper(planes, r0, bits)
    return SignedGraph._from_upper(planes)


def plant_lscbm(
    n: int, n_a: int, n_b: int, sigma: float, seed: int
) -> PlantedInstance:
    """Build a validated matrix whose largest balanced module is known.

    A random subset of n_a + n_b nodes is split into factions A and B with
    +1 edges inside each faction and -1 edges across.  Every pair touching
    the remaining nodes is absent with probability 0.3, weakly positive with
    probability 0.35, or weakly negative with probability 0.35, with weak
    magnitudes drawn from the open interval (0, sigma).
    """
    if n_a < 0 or n_b < 0 or n_a + n_b > n:
        raise ValueError("faction sizes must be nonnegative and fit in n")
    core = n_a + n_b
    if core != 0 and core < 3:
        raise ValueError("planted core needs at least 3 nodes (or none at all)")
    if not _valid_sigma(sigma):
        raise ValueError("sigma must lie in (0, 1]")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    truth_a = np.sort(perm[:n_a])
    truth_b = np.sort(perm[n_a:core])

    # weak weights must stay strictly inside (-sigma, sigma)
    top = np.nextafter(sigma, 0.0)
    absent, weak_pos = _word_limit(_P_ABSENT), _word_limit(_P_ABSENT + _P_WEAK_POS)
    side = np.zeros(n)
    side[truth_a], side[truth_b] = 1.0, -1.0
    core = np.flatnonzero(side)
    # room for every pair in a mapping of its own, of which only the pages
    # the edges fill become resident
    edges = _mapped_zeros((n * (n - 1) // 2,), EDGE_DTYPE)
    count = 0
    for r0, r1, (cat, mag) in _upper_blocks(n, seed, (_STREAM_SIGN, _STREAM_WEIGHT)):
        # grid midpoints, never 0; from 1/2 up, m + 0.5 rounds to even, so 1.0
        # can occur and the clip keeps the weight below sigma
        u_mag = ((mag >> np.uint64(11)).astype(np.float64) + 0.5) * 0.5**53
        weak = np.clip(u_mag * sigma, np.nextafter(0.0, 1.0), top)
        block = np.where(cat <= weak_pos, weak, -weak)
        kept = cat > absent  # a weak weight is never 0, so these are the nonzero cells
        # a core pair is +1 inside a faction and -1 across, the product of its sides
        rows = core[(r0 <= core) & (core < r1)]
        if rows.size:
            cols = core[core >= r0]
            pairs = np.ix_(rows - r0, cols - r0)
            block[pairs] = np.multiply.outer(side[rows], side[cols])
            kept[pairs] = True
        edges, count = _append_upper(edges, count, r0, block, kept)

    matrix = ValidatedCorrMatrix(n, edges[:count])
    return PlantedInstance(
        matrix=matrix,
        truth_a=tuple(int(v) for v in truth_a),
        truth_b=tuple(int(v) for v in truth_b),
        sigma=sigma,
    )
