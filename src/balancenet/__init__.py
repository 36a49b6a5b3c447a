"""Signed correlation networks and balanced core module detection.

The pipeline: load price histories, compute log returns, build a Pearson
correlation matrix, keep only statistically significant entries, threshold
the result into a signed graph, and search that graph for the largest
balanced module (a complete signed subgraph whose every triangle has a
positive sign product).  A brute-force oracle, a seeded random-graph
generator, and a simulation harness support validation of the detector
and of the size scaling laws it is expected to follow.
"""

from balancenet.ingest import PriceTable, ReturnMatrix, load_prices, log_returns
from balancenet.corrnet import (
    CorrMatrix,
    NetworkStats,
    ValidatedCorrMatrix,
    critical_correlation,
    load_validated,
    network_stats,
    pearson_matrix,
    save_validated,
    student_t_cdf,
    t_critical,
    t_statistic,
    validate,
)
from balancenet.signedgraph import (
    Module,
    SignedGraph,
    bipartition,
    is_balanced_triangle,
    is_scbm,
    to_signed,
)
from balancenet.maxbalancecore import DetectConfig, detect, expand, node_impacts, prune_factions
from balancenet.randgen import (
    PlantedInstance,
    SignedModelParams,
    derive_seed,
    pair_uniform,
    plant_lscbm,
    sample_signed,
)
from balancenet.oracle import EnumerationBudgetError, count_scbm, exact_lscbm
from balancenet.experiments import (
    AccuracyReport,
    MultiplicityReport,
    NonemptyReport,
    ScalingReport,
    ScalingRow,
    run_accuracy,
    run_multiplicity,
    run_nonempty_check,
    run_scaling,
    theoretical_size,
)

__version__ = "0.1.0"

__all__ = [
    "PriceTable",
    "ReturnMatrix",
    "load_prices",
    "log_returns",
    "CorrMatrix",
    "ValidatedCorrMatrix",
    "NetworkStats",
    "pearson_matrix",
    "t_statistic",
    "t_critical",
    "student_t_cdf",
    "critical_correlation",
    "validate",
    "network_stats",
    "save_validated",
    "load_validated",
    "SignedGraph",
    "Module",
    "to_signed",
    "is_balanced_triangle",
    "is_scbm",
    "bipartition",
    "DetectConfig",
    "node_impacts",
    "prune_factions",
    "expand",
    "detect",
    "SignedModelParams",
    "PlantedInstance",
    "sample_signed",
    "plant_lscbm",
    "derive_seed",
    "pair_uniform",
    "EnumerationBudgetError",
    "exact_lscbm",
    "count_scbm",
    "AccuracyReport",
    "ScalingRow",
    "ScalingReport",
    "NonemptyReport",
    "MultiplicityReport",
    "run_accuracy",
    "run_scaling",
    "run_nonempty_check",
    "run_multiplicity",
    "theoretical_size",
]
