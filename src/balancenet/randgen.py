"""Seeded random signed graphs and planted-module benchmark instances.

Per-pair randomness is counter-based: the value for pair (i, j) is a 64-bit
hash of (seed, stream, i*n + j), so the sample is independent of generation
order and safe to produce in parallel.  The mixing function is the
SplitMix64 finalizer, applied twice to decorrelate the seed from the pair
counter.  Both generators hash a block of rows at a time, from the diagonal
on, and write the block and its mirror.  ``sample_signed`` writes the
graph's packed sign planes directly: it hashes 8-aligned row blocks in one
reused buffer, compares the raw 64-bit words with integer thresholds, so it
builds no float uniforms, packs each block along its rows, and mirrors it
by 8 x 8 bit transposes of the packed bytes.  ``plant_lscbm`` builds its
float matrix with ``_symmetric``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from balancenet.corrnet import ValidatedCorrMatrix
from balancenet.signedgraph import SignedGraph, _mapped_zeros, _transpose_bits, _zero_planes

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


def _stream_base(seed: int, stream: int) -> np.uint64:
    return np.uint64(_mix64_int(seed ^ _mix64_int((stream + 1) * _GAMMA)))


def _pair_words(seed: int, stream: int, keys: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = _stream_base(seed, stream) + keys.astype(np.uint64) * np.uint64(_GAMMA)
    return _mix64_inplace(z, np.empty_like(z))


def _pair_u01(seed: int, stream: int, keys: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) with 53-bit resolution, one per key."""
    words = _pair_words(seed, stream, keys)
    return (words >> np.uint64(11)).astype(np.float64) * (0.5**53)


def _pair_u01_open(seed: int, stream: int, keys: np.ndarray) -> np.ndarray:
    """Uniforms on the open interval (0, 1): grid midpoints, never 0 or 1."""
    words = _pair_words(seed, stream, keys)
    return ((words >> np.uint64(11)).astype(np.float64) + 0.5) * (0.5**53)


def pair_uniform(seed: int, i: int, j: int, n: int, stream: int = _STREAM_SIGN) -> float:
    """The [0, 1) uniform used for the unordered pair (i, j) of an n-node graph.

    Exposed so tests can confirm that samples are a pure function of
    (seed, i, j) regardless of how generation was batched.
    """
    if i == j:
        raise ValueError("pair requires two distinct nodes")
    if i > j:
        i, j = j, i
    keys = np.asarray([i * n + j], dtype=np.uint64)
    return float(_pair_u01(seed, stream, keys)[0])


def _symmetric(n: int, dtype: type, cells) -> np.ndarray:
    """The n x n zero-diagonal matrix holding ``cells(keys)`` at (i, j) and (j, i).

    ``keys`` is a 2-D block of counter keys i*n + j, rows r0..r1 - 1 by
    columns r0 + 1..n - 1; ``cells`` maps it element by element.  The block's
    upper triangle (j > i) is written above the diagonal, and its transpose
    added below, where the block's own rows hold zeros from ``np.triu``.
    """
    out = _mapped_zeros((n, n), dtype)
    r0 = 0
    while r0 < n - 1:
        r1 = min(n - 1, r0 + max(1, _BLOCK_CELLS // (n - 1 - r0)))
        rows = np.arange(r0, r1, dtype=np.uint64)[:, None] * np.uint64(n)
        block = np.triu(cells(rows + np.arange(r0 + 1, n, dtype=np.uint64)))
        out[r0:r1, r0 + 1 :] = block
        out[r0 + 1 :, r0:r1] += block.T
        r0 = r1
    return out


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
    # m * 2**-53 < x  <=>  m < t = ceil(x * 2**53), the scaling being exact; the
    # cap covers alpha + beta, which may exceed 1 by rounding.  On the word w,
    # m = w >> 11 < t  <=>  w <= (t - 1) << 11 | 0x7FF, and t >= 1.
    limits = [
        np.uint64((min(math.ceil(x * 2.0**53), 1 << 53) - 1) << 11 | 0x7FF)
        for x in (params.alpha_edge, params.alpha_edge + params.beta_edge)
    ]
    planes = _zero_planes(n)
    with np.errstate(over="ignore"):
        # the key i*n + j hashes from base + i*n*GAMMA plus j*GAMMA, mod 2**64
        row_terms = np.arange(n, dtype=np.uint64) * np.uint64(n * _GAMMA & _MASK)
        row_terms += _stream_base(params.seed, _STREAM_SIGN)
        col_terms = np.arange(n, dtype=np.uint64) * np.uint64(_GAMMA)
    words = np.empty(min(n * n, max(_BLOCK_CELLS, 8 * n)), dtype=np.uint64)
    scratch = np.empty_like(words)
    r0 = 0
    while r0 < n:
        # rows r0..r1 - 1 by columns r0..n - 1; r0 stays a multiple of 8
        r1 = min(n, r0 + max(8, _BLOCK_CELLS // (n - r0) // 8 * 8))
        shape = (r1 - r0, n - r0)
        z = words[: shape[0] * shape[1]].reshape(shape)
        np.add(row_terms[r0:r1, None], col_terms[r0:], out=z)
        _mix64_inplace(z, scratch[: z.size].reshape(shape))
        bits = np.empty((2, *shape), dtype=bool)
        for plane, limit in zip(bits, limits):
            np.less_equal(z, limit, out=plane)
        bits[1] ^= bits[0]  # -1 where m lies in [t_alpha, t_both)
        bits[:, :, : shape[0]] &= np.triu(np.ones((shape[0],) * 2, dtype=bool), 1)
        block = np.packbits(bits, axis=2, bitorder="little")
        planes[:, r0:r1, r0 // 8 : r0 // 8 + block.shape[2]] = block
        planes[:, r0:, r0 // 8 : (r1 + 7) // 8] |= _transpose_bits(block)[:, : n - r0]
        r0 = r1
    return SignedGraph._from_planes(planes)


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
    if not 0.0 < sigma <= 1.0:
        raise ValueError("sigma must lie in (0, 1]")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(n)
    truth_a = np.sort(perm[:n_a])
    truth_b = np.sort(perm[n_a:core])

    # weak weights must stay strictly inside (-sigma, sigma)
    top = np.nextafter(sigma, 0.0)

    def cells(keys: np.ndarray) -> np.ndarray:
        u_cat = _pair_u01(seed, _STREAM_SIGN, keys)
        u_mag = _pair_u01_open(seed, _STREAM_WEIGHT, keys)
        mag = np.clip(u_mag * sigma, np.nextafter(0.0, 1.0), top)
        weak = np.where(u_cat < _P_ABSENT + _P_WEAK_POS, mag, -mag)
        return np.where(u_cat < _P_ABSENT, 0.0, weak)

    values = _symmetric(n, np.float64, cells)
    side = np.repeat([1.0, -1.0], (n_a, n_b))  # factions A then B, as drawn from perm
    values[np.ix_(perm[:core], perm[:core])] = np.outer(side, side)
    np.fill_diagonal(values, 1.0)

    matrix = ValidatedCorrMatrix(values=values, t_len=None, alpha_level=None)
    return PlantedInstance(
        matrix=matrix,
        truth_a=tuple(int(v) for v in truth_a),
        truth_b=tuple(int(v) for v in truth_b),
        sigma=sigma,
    )
