"""Tests of the benchmark's own machinery, at tiny sizes.

    python3 -m pytest perfbench -q

They test the harness (metric names, checkers, tracing), not the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402
from balancenet import Module, SignedGraph, plant_lscbm  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): bench.measure(name, seed=3, seconds=0, trace=trace, sizes=workloads.TINY)
        for name in NAMES
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_emitted_with_its_unit(results, name, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    result = results[name, trace]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0, result["failures"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_runs_give_the_same_module_digest(results, name):
    assert results[name, True]["digest"] == results[name, False]["digest"]


def test_workload_names_match_the_harness():
    assert NAMES == list(workloads.WORKLOADS)


def _graph(edges: dict[tuple[int, int], int], n: int) -> SignedGraph:
    signs = np.zeros((n, n), dtype=np.int8)
    for (i, j), s in edges.items():
        signs[i, j] = signs[j, i] = s
    return SignedGraph(signs)


def test_balanced_checker_flags_an_unbalanced_module():
    # triangle 0-1-2 with sign product -1: no split puts + inside and - across
    g = _graph({(0, 1): 1, (0, 2): 1, (1, 2): -1}, 3)
    assert not workloads.balanced(g, Module((0, 1, 2), ()))
    assert not workloads.balanced(g, Module((0, 1), (2,)))


def test_balanced_checker_flags_wrong_factions_and_missing_edges():
    g = _graph({(0, 1): 1, (0, 2): -1, (1, 2): -1, (0, 3): 1}, 4)
    assert workloads.balanced(g, Module((0, 1), (2,)))
    assert workloads.balanced(g, Module((2,), (0, 1)))
    assert not workloads.balanced(g, Module((0,), (1, 2)))
    assert not workloads.balanced(g, Module((0, 1, 3), (2,)))  # pair 1-3 has no edge
    assert workloads.balanced(g, Module((), ()))


def test_planted_checker_flags_a_wrong_planted_set():
    inst = plant_lscbm(40, 4, 3, 0.7, seed=5)
    exact = Module(inst.truth_a, inst.truth_b)
    assert workloads.planted_recovered(exact, inst)
    assert workloads.planted_recovered(Module(inst.truth_b, inst.truth_a), inst)
    outsider = next(v for v in range(40) if v not in inst.truth_nodes)
    assert not workloads.planted_recovered(Module(inst.truth_a[1:] + (outsider,), inst.truth_b), inst)
    assert not workloads.planted_recovered(Module(inst.truth_a[1:], inst.truth_b + inst.truth_a[:1]), inst)


def test_checks_count_attempts_and_failures():
    checks = workloads.Checks()
    checks.expect(True, "fine")
    checks.expect(False, "broken")
    assert (checks.attempted, checks.failures) == (2, ["broken"])
