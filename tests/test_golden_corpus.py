"""Golden corpus: the detector's and the oracle's reports on fixed seeded graphs.

Module node sets are the contract a refactor of ``detect`` or of the oracle
must keep.  Each family below hashes the JSON report of every graph it
builds; the literals were computed once and must only change together with
a deliberate change of behaviour.
"""

import hashlib
import json

import pytest

from balancenet.experiments import regime_edge_law
from balancenet.maxbalancecore import detect
from balancenet.oracle import exact_lscbm
from balancenet.randgen import SignedModelParams, derive_seed, plant_lscbm, sample_signed
from balancenet.signedgraph import to_signed

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
    "general/detect": "c453de01581261fad6db43addba50c04dc22429ae66d82eab40cb1ea5f61a2a1",
    "dense/detect": "85b7a09cef98271484ebcf7141baee7fb413255c3c6c628c4e7f4e57850cde60",
    "negative/detect": "747431cbd2048d3a5ec6fd716af71dad3d7d3f6568e9b17104674e63fccd2249",
    "planted/detect": "de8faef7683de20597a2e568be9889ec557b49595eb6fc7dd55e268a84408220",
    "small/detect": "b564bdc12485085e3c31dc9039faa599b66e295e96019804bb3234c04fb51799",
    "small/exact_lscbm": "e37ce65481e8d97b0fdf583dbac45518d928150fc90e799e9e1c05a4a1b4770a",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_golden_corpus_reports(family):
    build, with_oracle = FAMILIES[family]
    graphs = build()
    assert _digest(detect(g).to_report() for g in graphs) == GOLDEN[f"{family}/detect"]
    if with_oracle:
        assert _digest(exact_lscbm(g).to_report() for g in graphs) == GOLDEN[f"{family}/exact_lscbm"]
