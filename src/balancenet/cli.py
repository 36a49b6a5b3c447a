"""Command-line surface for the network pipeline and the simulation harness.

Every subcommand writes its primary outputs atomically (temp file + rename)
and prints a one-line summary.  Commands that consume randomness take an
explicit --rng-seed; when omitted, a seed is drawn from the system entropy
pool and printed so the run can be replayed.

Exit codes: 0 success, 2 usage error, 3 input error, 4 enumeration budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from balancenet import __version__
from balancenet.corrnet import (
    DEFAULT_ALPHA_LEVEL,
    ValidatedCorrMatrix,
    _atomic_write,
    _save_edges,
    load_validated,
    network_stats,
    pearson_matrix,
    save_validated,
    validate,
)
from balancenet.experiments import (
    GRID_LARGE,
    GRID_SMALL,
    run_accuracy,
    run_scaling,
)
from balancenet.ingest import load_prices, log_returns
from balancenet.maxbalancecore import DEFAULT_MAX_SEEDS, DetectConfig, detect, node_impacts
from balancenet.oracle import EnumerationBudgetError, exact_lscbm
from balancenet.randgen import SignedModelParams, plant_lscbm, sample_signed
from balancenet.signedgraph import DEFAULT_SIGMA, MIN_MODULE_SIZE, Module, _valid_sigma, bipartition, to_signed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4


def _pick_seed(value: int | None) -> int:
    if value is not None:
        return value
    seed = random.SystemRandom().randrange(2**63)
    print(f"rng-seed: {seed}")
    return seed


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _dump_tsv(obj) -> str:
    rows = obj if isinstance(obj, list) else [obj]
    if not rows:
        return "\n"
    header = list(rows[0].keys())
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join("" if row[k] is None else str(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def _write_report(obj, out: Path, fmt: str) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    text = _dump_json(obj) if fmt == "json" else _dump_tsv(obj)
    _atomic_write(out, text)


def _load_module(path: Path, v: ValidatedCorrMatrix, sigma: float) -> Module:
    """The module report at ``path``, checked to be empty or a balanced module of
    ``v`` with its factions, at the report's sigma or, when that is null, ``sigma``."""
    try:
        module = Module.from_report(json.loads(path.read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if module.nodes and (module.nodes[0] < 0 or module.nodes[-1] >= v.n):
        raise ValueError(f"{path}: module node index outside 0..{v.n - 1}")
    if module.size == 0:
        return module
    cut = sigma if module.sigma is None else module.sigma
    g = to_signed(v, cut)
    try:
        split = bipartition(g, module.nodes)
    except ValueError:  # some pair of the module has no edge at cut
        split = None
    factions = module.faction_a, module.faction_b
    if module.size < MIN_MODULE_SIZE or split not in (factions, factions[::-1]):
        raise ValueError(f"{path}: not a balanced module of the network at sigma={cut}")
    return module


def _cmd_build_net(args: argparse.Namespace) -> int:
    table = load_prices(args.input)
    returns = log_returns(table)
    corr = pearson_matrix(returns)
    validated = validate(
        corr, t_len=returns.t_len, alpha_level=args.alpha_level, tickers=table.tickers
    )
    save_validated(validated, args.out)
    print(
        f"build-net: n={validated.n} t_len={returns.t_len} "
        f"alpha_level={args.alpha_level} edges={validated.edges.size} "
        f"dropped={len(table.drop_log)} -> {args.out}"
    )
    for ticker, reason in table.drop_log:
        print(f"  dropped {ticker}: {reason}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    v = load_validated(args.net)
    if args.module:
        module = _load_module(Path(args.module), v, args.sigma)
    else:
        module = detect(to_signed(v, args.sigma), DetectConfig(max_seeds=args.max_seeds))
    stats = network_stats(v, module)
    _write_report(asdict(stats), Path(args.out), args.format)
    print(
        f"stats: n={v.n} xi_plus={stats.xi_plus:.4f} xi_minus={stats.xi_minus:.6f} "
        f"lscbm_size={stats.lscbm_size} varsigma={stats.varsigma:.4f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    v = load_validated(args.net)
    module = detect(to_signed(v, args.sigma), DetectConfig(max_seeds=args.max_seeds))
    _write_report(module.to_report(), Path(args.out), args.format)
    print(f"detect: sigma={args.sigma} size={module.size} -> {args.out}")
    return EXIT_OK


def _cmd_gen_random(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.rng_seed)
    params = SignedModelParams(
        n=args.n, alpha_edge=args.alpha_edge, beta_edge=args.beta_edge, seed=seed
    )
    g = sample_signed(params)
    edges = int(node_impacts(g).sum()) // 2
    _save_edges(args.out, g.n, edges, g.edge_tiles())
    print(
        f"gen-random: n={args.n} alpha_edge={args.alpha_edge} "
        f"beta_edge={args.beta_edge} edges={edges} rng-seed={seed} -> {args.out}"
    )
    return EXIT_OK


def _cmd_plant(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.rng_seed)
    inst = plant_lscbm(args.n, args.n_a, args.n_b, args.sigma, seed)
    out = Path(args.out)
    save_validated(inst.matrix, out)
    truth = {
        "truth_a": list(inst.truth_a),
        "truth_b": list(inst.truth_b),
        "sigma": inst.sigma,
    }
    _atomic_write(out / "truth.json", _dump_json(truth))
    print(
        f"plant: n={args.n} n_a={args.n_a} n_b={args.n_b} sigma={args.sigma} "
        f"rng-seed={seed} -> {out}"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    v = load_validated(args.net)
    module = exact_lscbm(to_signed(v, args.sigma))
    _write_report(module.to_report(), Path(args.out), args.format)
    print(f"oracle: sigma={args.sigma} size={module.size} -> {args.out}")
    return EXIT_OK


def _cmd_sim_accuracy(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.rng_seed)
    report = run_accuracy(
        n=args.n,
        n_a=args.n_a,
        n_b=args.n_b,
        sigma=args.sigma,
        trials=args.trials,
        seed=seed,
        max_seeds=args.max_seeds,
    )
    _write_report(asdict(report), Path(args.out), args.format)
    print(
        f"sim-accuracy: n={args.n} n_a={args.n_a} n_b={args.n_b} "
        f"trials={args.trials} accuracy={report.accuracy:.4f} "
        f"mean_runtime_s={report.mean_runtime_s:.3f} rng-seed={seed} -> {args.out}"
    )
    return EXIT_OK


def _parse_grid(args: argparse.Namespace) -> list[int]:
    if args.n_grid:
        try:
            grid = [int(v) for v in args.n_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise ValueError(f"bad --n-grid value: {exc}") from exc
        if not grid:
            raise ValueError("--n-grid must list at least one n")
        return grid
    return list(GRID_SMALL if args.grid == "small" else GRID_LARGE)


def _cmd_sim_scaling(args: argparse.Namespace) -> int:
    seed = _pick_seed(args.rng_seed)
    grid = _parse_grid(args)
    report = run_scaling(
        args.regime,
        grid,
        trials=args.trials,
        seed=seed,
        alpha_edge=args.alpha_edge,
        beta_edge=args.beta_edge,
        b=args.b,
        max_seeds=args.max_seeds,
    )
    payload = asdict(report) if args.format == "json" else [asdict(r) for r in report.rows]
    _write_report(payload, Path(args.out), args.format)
    print(
        f"sim-scaling: regime={args.regime} grid={grid[0]}..{grid[-1]} "
        f"trials={args.trials} rng-seed={seed} -> {args.out}"
    )
    return EXIT_OK


def _cmd_sigma_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    if not (_valid_sigma(args.sigma_min) and _valid_sigma(args.sigma_max)):
        raise ValueError("--sigma-min and --sigma-max must lie in (0, 1]")
    v = load_validated(args.net)
    sigmas = np.linspace(args.sigma_min, args.sigma_max, args.steps)
    rows = []
    for sigma in sigmas:
        sigma = float(round(sigma, 12))
        module = detect(to_signed(v, sigma), DetectConfig(max_seeds=args.max_seeds))
        rows.append(
            {"sigma": sigma, "size": module.size, "varsigma": module.size / v.n}
        )
    _write_report(rows, Path(args.out), args.format)
    print(
        f"sigma-sweep: n={v.n} sigma={args.sigma_min}..{args.sigma_max} "
        f"steps={args.steps} -> {args.out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancenet",
        description="Signed correlation networks and balanced core module detection.",
    )
    parser.add_argument("--version", action="version", version=f"balancenet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, seeded: bool = False, report: bool = True) -> None:
        p.add_argument("--out", required=True, help="output file or directory")
        if report:
            p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
        if seeded:
            p.add_argument("--rng-seed", type=int, default=None, help="omit to draw and print one")

    p = sub.add_parser("build-net", help="prices CSV -> validated correlation network")
    p.add_argument("--in", dest="input", required=True, help="wide CSV of prices")
    p.add_argument("--alpha-level", type=float, default=DEFAULT_ALPHA_LEVEL)
    add_common(p, report=False)
    p.set_defaults(fn=_cmd_build_net)

    p = sub.add_parser("stats", help="network summary statistics")
    p.add_argument("--net", required=True, help="network directory")
    p.add_argument("--module", default=None, help="module JSON; detected when omitted")
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--max-seeds", type=int, default=DEFAULT_MAX_SEEDS)
    add_common(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("detect", help="find the largest balanced module")
    p.add_argument("--net", required=True)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--max-seeds", type=int, default=DEFAULT_MAX_SEEDS)
    add_common(p)
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("gen-random", help="sample a random signed graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-edge", type=float, required=True)
    p.add_argument("--beta-edge", type=float, required=True)
    add_common(p, seeded=True, report=False)
    p.set_defaults(fn=_cmd_gen_random)

    p = sub.add_parser("plant", help="generate a planted-module benchmark instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-a", type=int, required=True)
    p.add_argument("--n-b", type=int, required=True)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    add_common(p, seeded=True, report=False)
    p.set_defaults(fn=_cmd_plant)

    p = sub.add_parser("oracle", help="exact largest module by enumeration (n <= 22)")
    p.add_argument("--net", required=True)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    add_common(p)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("sim-accuracy", help="planted-recovery accuracy simulation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-a", type=int, required=True)
    p.add_argument("--n-b", type=int, required=True)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--max-seeds", type=int, default=DEFAULT_MAX_SEEDS)
    add_common(p, seeded=True)
    p.set_defaults(fn=_cmd_sim_accuracy)

    p = sub.add_parser("sim-scaling", help="size-scaling verification over an N grid")
    p.add_argument("--regime", choices=("general", "dense", "negative"), required=True)
    p.add_argument("--grid", choices=("small", "large"), default="large")
    p.add_argument("--n-grid", default=None, help="comma-separated N values; overrides --grid")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--alpha-edge", type=float, default=0.6)
    p.add_argument("--beta-edge", type=float, default=0.3)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--max-seeds", type=int, default=DEFAULT_MAX_SEEDS)
    add_common(p, seeded=True)
    p.set_defaults(fn=_cmd_sim_scaling)

    p = sub.add_parser("sigma-sweep", help="module coverage against the strength threshold")
    p.add_argument("--net", required=True)
    p.add_argument("--sigma-min", type=float, default=0.4)
    p.add_argument("--sigma-max", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--max-seeds", type=int, default=DEFAULT_MAX_SEEDS)
    add_common(p)
    p.set_defaults(fn=_cmd_sigma_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
