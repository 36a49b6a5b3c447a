"""Golden corpus: reports and generated bytes on fixed seeded inputs.

Module node sets and the oracle's per-size counts are the contract a
refactor of ``detect`` or of the oracle must keep, the balance checkers'
verdicts and splits the contract a refactor of ``is_scbm`` or
``bipartition`` must keep, the generators' and the threshold's array bytes
are the contract a refactor of ``randgen`` or ``to_signed`` must keep, and
the simulation reports are the contract a refactor of ``experiments`` must
keep.  Each family below hashes what it builds; the literals were computed
once and must only change together with a deliberate change of behaviour.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from balancenet.corrnet import ValidatedCorrMatrix
from balancenet.experiments import regime_edge_law, run_accuracy, run_nonempty_check, run_scaling
from balancenet.maxbalancecore import detect
from balancenet.oracle import count_scbm, exact_lscbm
from balancenet.randgen import SignedModelParams, derive_seed, plant_lscbm, sample_signed
from balancenet.signedgraph import bipartition, is_scbm, to_signed

CORPUS_SEED = 20260

SMALL_EDGE_LAWS = ((0.6, 0.3), (0.3, 0.6), (0.8, 0.15), (0.45, 0.45), (0.9, 0.05))


def _sampled(regime, n, k):
    alpha, beta = regime_edge_law(regime, n)
    return sample_signed(
        SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=derive_seed(CORPUS_SEED, n, k))
    )


def _general():
    return [_sampled("general", n, k) for n in (40, 300, 1500) for k in range(2)]


def _dense():
    return [_sampled("dense", n, k) for n in (40, 300, 800) for k in range(2)]


def _negative():
    return [_sampled("negative", n, k) for n in (40, 300, 1500) for k in range(2)]


def _planted():
    return [
        to_signed(plant_lscbm(n, n_a, n_b, 0.7, derive_seed(CORPUS_SEED, n, n_a)).matrix, 0.7)
        for n, n_a, n_b in ((30, 4, 3), (200, 12, 8), (600, 40, 20), (600, 30, 0))
    ]


def _small():
    graphs = []
    for k in range(60):
        alpha, beta = SMALL_EDGE_LAWS[k % len(SMALL_EDGE_LAWS)]
        n = 6 + k % 17
        graphs.append(
            sample_signed(
                SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=derive_seed(CORPUS_SEED, 7, k))
            )
        )
    return graphs


def _digest(reports):
    text = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    return hashlib.sha256(text.encode()).hexdigest()


FAMILIES = {
    "general": (_general, False),
    "dense": (_dense, False),
    "negative": (_negative, False),
    "planted": (_planted, False),
    "small": (_small, True),
}

GOLDEN = {
    "general/detect": "2dd1b873d7ae0c8bb176a93911ab81643fae3066e3cd4e4c2e7ada646c4eb05a",
    "dense/detect": "488a3a0e7dbe799056443aedc107f516b93c14b7aee093b925d69f0d76f91807",
    "negative/detect": "88e50c449f850ae49ad538ea6e6f7370d59f6582bda0b7433ef0bd64b3a85b9b",
    "planted/detect": "de8faef7683de20597a2e568be9889ec557b49595eb6fc7dd55e268a84408220",
    "small/detect": "ccf2259a79efeb346775a746c74606c2eb719b3f93d79919e4e1a40b5a0a3944",
    "small/exact_lscbm": "e37ce65481e8d97b0fdf583dbac45518d928150fc90e799e9e1c05a4a1b4770a",
    "small/count_scbm": "51512ddda13c768a9b6e829b7f51e5501560e1faa9345d249f1f883a5e0cf869",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_corpus_reports(family):
    build, with_oracle = FAMILIES[family]
    graphs = build()
    assert _digest(detect(g).to_report() for g in graphs) == GOLDEN[f"{family}/detect"]
    if with_oracle:
        best = [exact_lscbm(g) for g in graphs]
        assert _digest(b.to_report() for b in best) == GOLDEN[f"{family}/exact_lscbm"]
        # every size from 3 up to one past the optimum, where the count is 0
        counts = [[count_scbm(g, s) for s in range(3, b.size + 2)] for g, b in zip(graphs, best)]
        assert _digest(counts) == GOLDEN[f"{family}/count_scbm"]


# ---------------------------------------------------------------- balance checks


def _split(g, nodes):
    try:
        return bipartition(g, nodes)
    except ValueError:  # some pair has no edge
        return "incomplete"


def _balance_reports():
    """``is_scbm`` and ``bipartition`` of every golden graph on three node sets:
    the detected module, the module plus its lowest-index outside node, and
    the first min(n, 12) nodes."""
    reports = []
    for family in sorted(FAMILIES):
        for g in FAMILIES[family][0]():
            module = list(detect(g).nodes)
            outside = sorted(set(range(g.n)) - set(module))[:1]
            for nodes in (module, module + outside, list(range(min(g.n, 12)))):
                reports.append([family, g.n, bool(is_scbm(g, nodes)), _split(g, nodes)])
    return reports


GOLDEN_BALANCE = "13af2465dd0ada9999e57bacc67e6740942433667a3d5707e5abe1725b32fe86"


def test_golden_corpus_balance():
    assert _digest(_balance_reports()) == GOLDEN_BALANCE


# ---------------------------------------------------------------- generated bytes

BYTE_SIZES = (1, 2, 3, 40, 301)
THRESHOLDS = (0.05, 0.3, 0.7, 1.0)
PLANTS = ((30, 4, 3), (200, 12, 8), (600, 30, 0), (40, 0, 0), (40, 0, 12))


def _sample_bytes(regime):
    # b = 2 needs n > 2, so the two smallest graphs take the n = 3 dense law
    h = hashlib.sha256()
    for n in BYTE_SIZES:
        alpha, beta = regime_edge_law(regime, max(n, 3) if regime == "dense" else n)
        params = SignedModelParams(n=n, alpha_edge=alpha, beta_edge=beta, seed=derive_seed(CORPUS_SEED, 3, n))
        h.update(sample_signed(params).signs.tobytes())
    return h.hexdigest()


def _plant(n, n_a, n_b, sigma=0.7):
    return plant_lscbm(n, n_a, n_b, sigma, derive_seed(CORPUS_SEED, 5, n, n_a, n_b))


def _plant_bytes(sigmas=(0.7,)):
    h = hashlib.sha256()
    for sigma in sigmas:
        for n, n_a, n_b in PLANTS:
            inst = _plant(n, n_a, n_b, sigma)
            h.update(inst.matrix.values.tobytes())
            h.update(json.dumps([inst.truth_a, inst.truth_b]).encode())
    return h.hexdigest()


def _boundary_matrix():
    """Symmetric matrix holding, for every threshold, entries at and one ulp inside it."""
    entries = [0.0, -0.0]
    for sigma in THRESHOLDS:
        inside = np.nextafter(sigma, 0.0)
        entries += [sigma, -sigma, inside, -inside]
    n = 7  # 21 pairs hold the 18 entries
    values = np.eye(n)
    iu, ju = np.triu_indices(n, k=1)
    upper = np.resize(entries, iu.size)
    values[iu, ju] = upper
    values[ju, iu] = upper
    return ValidatedCorrMatrix.from_values(values)


def _threshold_bytes():
    h = hashlib.sha256()
    for matrix in (_plant(200, 12, 8).matrix, _boundary_matrix()):
        for sigma in THRESHOLDS:
            h.update(to_signed(matrix, sigma).signs.tobytes())
    return h.hexdigest()


BYTE_FAMILIES = {
    "sample_signed/general": lambda: _sample_bytes("general"),
    "sample_signed/dense": lambda: _sample_bytes("dense"),
    "sample_signed/negative": lambda: _sample_bytes("negative"),
    "plant_lscbm": _plant_bytes,
    # the weak-weight clip and scale at a low threshold and at the top one
    "plant_lscbm/sigma": lambda: _plant_bytes((0.3, 1.0)),
    "to_signed": _threshold_bytes,
}

GOLDEN_BYTES = {
    "plant_lscbm": "c1f66568b854337456f48f76c5351c063d6a9497c30d7e6211213e9af25a2ede",
    "plant_lscbm/sigma": "6879c3ba553c5e0c00e44a4e06dc309a6b9fbb9af4b56fae4aa181375ae63407",
    "sample_signed/dense": "9e09a8fc5ef13c01fe9e9f9947b3f1a931b241921b1b87c39c32c70dd4e735f2",
    "sample_signed/general": "43ecb446b162869ab5fc72ace933cc9331744e2da113dda762a7e972aafaeeac",
    "sample_signed/negative": "1fafbf798c57823584a74bd7279c53ba2eba15c6102444bd9f9d5a2783ad0552",
    "to_signed": "eeef83a44610a24349eab0c66501f532f26254e378a632ee6a3b95ddcd5f0e82",
}


@pytest.mark.parametrize("family", sorted(BYTE_FAMILIES))
def test_golden_corpus_bytes(family):
    assert BYTE_FAMILIES[family]() == GOLDEN_BYTES[family]


# ---------------------------------------------------------------- simulation reports


def _harness_reports():
    reports = [
        run_scaling("general", [60, 120, 300], trials=4, seed=CORPUS_SEED),
        run_scaling("dense", [60, 200], trials=4, seed=CORPUS_SEED),
        run_scaling("negative", [100, 400], trials=4, seed=CORPUS_SEED),
        run_accuracy(300, 20, 30, trials=3, seed=CORPUS_SEED),
        run_nonempty_check(15, 0.1, 0.1, trials=8, seed=CORPUS_SEED),
        run_nonempty_check(40, 0.06, 0.04, trials=8, seed=CORPUS_SEED),
    ]
    dicts = [dataclasses.asdict(r) for r in reports]
    for d in dicts:
        d.pop("mean_runtime_s", None)  # wall time is not a pure function of the seed
    return dicts


GOLDEN_HARNESS = "d4577561bb6d6bb4752fa04f1e4b0c8c8a4c61735b490d4a1471ac3d4f038632"


def test_golden_corpus_harness():
    assert _digest(_harness_reports()) == GOLDEN_HARNESS
