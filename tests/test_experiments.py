"""Tests for the simulation harness."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from balancenet.experiments import (
    GRID_LARGE,
    GRID_SMALL,
    regime_edge_law,
    run_accuracy,
    run_multiplicity,
    run_nonempty_check,
    run_scaling,
    scaling_constant,
    theoretical_size,
)


# ---------------------------------------------------------------- predictions


def test_scaling_constant_branches():
    assert scaling_constant(0.6, 0.3) == pytest.approx(0.5 * abs(math.log(0.6)))
    assert scaling_constant(0.2, 0.5) == pytest.approx(
        0.25 * (abs(math.log(0.2)) + abs(math.log(0.5)))
    )
    # both branches agree where they meet
    alpha = 0.37
    assert 0.5 * abs(math.log(alpha)) == pytest.approx(
        0.25 * (abs(math.log(alpha)) + abs(math.log(alpha)))
    )


def test_theoretical_size_general():
    got = theoretical_size("general", 1000, alpha_edge=0.6, beta_edge=0.3)
    assert got == pytest.approx(math.log(1000) / (0.5 * abs(math.log(0.6))), rel=1e-12)
    assert got == pytest.approx(27.04, abs=0.01)


def test_theoretical_size_dense():
    got = theoretical_size("dense", 3000, b=2.0)
    assert got == pytest.approx(3000 * math.log(2.0) / 2.0, rel=1e-12)
    assert got == pytest.approx(1039.7, abs=0.1)


def test_theoretical_size_negative_is_two_under_root_n_law():
    for n in (300, 1200, 6000):
        alpha, _ = regime_edge_law("negative", n)
        assert theoretical_size("negative", n, alpha_edge=alpha) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(regime="general", n=100),  # missing probabilities
        dict(regime="general", n=100, alpha_edge=1.0, beta_edge=0.0),
        dict(regime="general", n=100, alpha_edge=0.7, beta_edge=0.5),
        dict(regime="dense", n=100, b=1.0),
        dict(regime="negative", n=100, alpha_edge=1.5),
        dict(regime="bogus", n=100),
    ],
)
def test_theoretical_size_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        theoretical_size(**kwargs)


def test_regime_edge_law():
    assert regime_edge_law("general", 500, alpha_edge=0.6, beta_edge=0.3) == (0.6, 0.3)
    alpha, beta = regime_edge_law("dense", 400, b=2.0)
    assert alpha == pytest.approx(1 - 2 / 400)
    assert beta == pytest.approx(2 / 400)
    alpha, beta = regime_edge_law("negative", 400)
    assert alpha == pytest.approx(1 / 20)
    assert beta == pytest.approx(1 - 1 / 20)


def test_grid_presets():
    assert GRID_SMALL[0] == 10 and GRID_SMALL[-1] == 200
    assert GRID_LARGE[0] == 300 and GRID_LARGE[-1] == 6000


# ---------------------------------------------------------------- accuracy


def test_run_accuracy_small_planted():
    report = run_accuracy(120, 12, 24, trials=5, seed=1)
    assert report.accuracy == 1.0
    assert report.mean_runtime_s > 0.0
    assert asdict(report)["n_a"] == 12


def test_run_accuracy_empty_truth():
    report = run_accuracy(30, 0, 0, trials=3, seed=2)
    assert report.accuracy == 1.0


def test_run_accuracy_reproducible():
    one = run_accuracy(60, 6, 9, trials=4, seed=5)
    two = run_accuracy(60, 6, 9, trials=4, seed=5)
    assert one.accuracy == two.accuracy
    assert one.trials == 4 and one.seed == 5


def test_run_accuracy_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_accuracy(30, 3, 3, trials=0, seed=0)


# ---------------------------------------------------------------- scaling


def test_run_scaling_normalization_identity():
    report = run_scaling("general", [40, 80, 120], trials=3, seed=3)
    normalized = [row.normalized_ratio for row in report.rows]
    assert np.mean(normalized) == pytest.approx(1.0, abs=1e-12)
    assert [row.n for row in report.rows] == [40, 80, 120]
    assert report.lambda_value == pytest.approx(scaling_constant(0.6, 0.3))


def test_run_scaling_rows_reproducible():
    a = run_scaling("negative", [60, 120], trials=3, seed=9)
    b = run_scaling("negative", [60, 120], trials=3, seed=9)
    assert a.rows == b.rows
    assert a.lambda_value is None


def test_run_scaling_dense_rows():
    report = run_scaling("dense", [80, 160], trials=2, seed=11, b=2.0)
    for row in report.rows:
        assert row.prediction == pytest.approx(row.n * math.log(2.0) / 2.0)
        assert 0.0 <= row.all_positive_fraction <= 1.0


def test_run_scaling_params_name_only_the_laws_sampled():
    assert run_scaling("general", [40], trials=1, seed=2).params == {"alpha_edge": 0.6, "beta_edge": 0.3}
    dense = run_scaling("dense", [40], trials=1, seed=2, b=3.0)
    assert "alpha_edge" not in dense.params
    assert dense.params == {"b": 3.0}
    assert run_scaling("negative", [40], trials=1, seed=2).params == {}


def test_run_scaling_validates_grid():
    with pytest.raises(ValueError):
        run_scaling("general", [], trials=2, seed=0)
    with pytest.raises(ValueError):
        run_scaling("general", [2], trials=2, seed=0)


# ---------------------------------------------------------------- existence


def test_nonempty_complete_positive_graph():
    report = run_nonempty_check(10, 1.0, 0.0, trials=5, seed=4)
    assert report.fraction == 1.0
    assert report.method == "oracle"


def test_nonempty_method_switches_with_size():
    small = run_nonempty_check(12, 0.4, 0.3, trials=3, seed=5)
    large = run_nonempty_check(30, 0.4, 0.3, trials=3, seed=5)
    assert small.method == "oracle"
    assert large.method == "detect"


# ---------------------------------------------------------------- multiplicity


def test_multiplicity_probe_regression_locked():
    """Frequencies of seeing >= 2 maximum-size modules, frozen under a fixed
    seed.  The asymptotic expectation is that they approach 1 as n grows; no
    fixed-n value is asserted beyond this regression lock."""
    report = run_multiplicity([8, 10, 12, 14], alpha_edge=0.6, beta_edge=0.3, trials=40, seed=2024)
    observed = {row["n"]: row["multiple_fraction"] for row in report.rows}
    assert all(row["nonempty_trials"] == 40 for row in report.rows)
    assert observed == {8: 0.7, 10: 0.9, 12: 0.875, 14: 0.8}


def test_run_multiplicity_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_multiplicity([8], trials=0, seed=0)
