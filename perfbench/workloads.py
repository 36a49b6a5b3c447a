"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Why these three (see README.md for the measurements behind them):

- ``pricenet`` is the user's real path, ``build-net -> detect -> stats
  --module`` on a price panel, each command its own process.  CSV parsing
  and edge-file save/load dominate it and ``detect`` is a small part, so a
  detector change should leave it unchanged.
- ``sim-general`` is general-regime scaling (alpha=0.6, beta=0.3), the
  per-trial sequence of ``run_scaling``: ``derive_seed`` -> ``sample_signed``
  -> ``detect``.  ``detect`` is most of it, and most of ``detect`` is the
  dense intra-prune path.
- ``sim-mixed`` runs the same layers where they behave differently: planted
  recovery (``plant_lscbm`` + ``to_signed`` + ``detect``), the dense (b=2)
  and negative regimes, which take the other prune paths, cross-prune and
  ``expand``, and a batch of small graphs where ``detect`` is compared with
  the exact oracle.  A kernel tuned for ``sim-general`` that costs these
  paths shows here.

The harness adds only the trial loop.  Every package call is looked up as a
module attribute at call time, so a traced pass (see ``spans.py``) records
spans around exactly the calls an untraced pass makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import balancenet.maxbalancecore as maxbalancecore
import balancenet.oracle as oracle
import balancenet.randgen as randgen
import balancenet.signedgraph as signedgraph
from balancenet.corrnet import EDGE_FILE, META_FILE, load_validated
from balancenet.experiments import regime_edge_law
from balancenet.maxbalancecore import DetectConfig
from balancenet.randgen import SignedModelParams, derive_seed
from balancenet.signedgraph import DEFAULT_SIGMA, MIN_MODULE_SIZE, Module, SignedGraph, bipartition

from panel import price_panel, write_csv
from spans import IN_PROCESS, Tracer, installed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_TIMEOUT_S = 150
GENERAL_LAW = (0.6, 0.3)
DENSE_B = 2.0
# the small-graph batch cycles through these edge laws and n = 6..22
SMALL_LAWS = ((0.6, 0.3), (0.8, 0.15), (0.3, 0.6))
SMALL_N = range(6, 23)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one pass of each workload."""

    tickers: int = 1500
    days: int = 500
    general_grid: tuple[int, ...] = (1000, 2000, 3000)
    general_trials: int = 2
    planted_n: int = 4000
    dense_grid: tuple[int, ...] = (2000, 4000)
    negative_grid: tuple[int, ...] = (3000, 6000)
    small_graphs: int = 400


FULL = Sizes()
# for the benchmark's own tests: every code path, a fraction of a second each
TINY = Sizes(
    tickers=60, days=80, general_grid=(80, 120), general_trials=2,
    planted_n=100, dense_grid=(60,), negative_grid=(80,), small_graphs=9,
)


class Checks:
    """Output checks of one run: each is attempted once and may fail."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def balanced(g: SignedGraph, module: Module) -> bool:
    """True when the module is empty or is a balanced module of g with its factions."""
    if module.size == 0:
        return True
    if module.size < MIN_MODULE_SIZE:
        return False
    try:
        split = bipartition(g, module.nodes)
    except ValueError:  # some pair has no edge
        return False
    return split is not None and {split[0], split[1]} == {module.faction_a, module.faction_b}


def planted_recovered(module: Module, inst: randgen.PlantedInstance) -> bool:
    """True when the module is exactly the planted core with the planted factions."""
    return {module.faction_a, module.faction_b} == {inst.truth_a, inst.truth_b}


@dataclass
class PassResult:
    wall_s: float
    module_nodes: int
    digest: str  # sha256 of every module node set and report of the pass
    gap_nodes: int = 0


class Stopwatch:
    """Adds up the timed sections of a pass; checks run between them, untimed."""

    def __init__(self) -> None:
        self.total = 0.0

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.total += time.perf_counter() - start


def _part(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(f"part.{name}")


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _modules_digest(modules: list[Module]) -> str:
    return _digest([json.dumps([m.to_report() for m in modules], sort_keys=True).encode()])


def cli_env() -> dict:
    """Environment for child processes: the checkout's package first on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class Workload:
    name = ""

    def __init__(self, sizes: Sizes) -> None:
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path):
        """Make the inputs of every pass from the seed."""
        return seed

    def run_pass(self, inputs, tracer: Tracer | None, checks: Checks, pass_dir: Path) -> PassResult:
        raise NotImplementedError

    def finish(self, inputs, pass_dir: Path, checks: Checks) -> None:
        """Checks on the first pass's outputs that need not run after every pass."""


class PriceNet(Workload):
    name = "pricenet"

    def setup(self, seed: int, workdir: Path) -> Path:
        csv = workdir / "prices.csv"
        write_csv(csv, *price_panel(seed, self.sizes.tickers, self.sizes.days))
        return csv

    def run_pass(self, csv: Path, tracer: Tracer | None, checks: Checks, pass_dir: Path) -> PassResult:
        net, module, stats = pass_dir / "net", pass_dir / "module.json", pass_dir / "stats.json"
        commands = (
            ("build-net", "--in", str(csv), "--out", str(net)),
            ("detect", "--net", str(net), "--out", str(module)),
            ("stats", "--net", str(net), "--module", str(module), "--out", str(stats)),
        )
        sw = Stopwatch()
        with _part(tracer, "pricenet"):
            for argv in commands:
                if not self._command([*argv, "--threads", "1"], tracer, sw, checks, pass_dir):
                    return PassResult(sw.total, 0, "failed")
        report = module.read_bytes()
        size = json.loads(report)["size"]
        stats_size = json.loads(stats.read_text())["lscbm_size"]
        checks.expect(stats_size == size, f"stats lscbm_size {stats_size} != detected size {size}")
        outputs = (net / EDGE_FILE, net / META_FILE, module, stats)
        return PassResult(sw.total, size, _digest(p.read_bytes() for p in outputs))

    def _command(self, argv, tracer, sw, checks, pass_dir) -> bool:
        if tracer is None:
            cmd = [sys.executable, "-m", "balancenet.cli", *argv]
            span = nullcontext({})
        else:
            spans_file = pass_dir / f"spans-{argv[0]}.jsonl"
            cmd = [sys.executable, str(HERE / "tracedcli.py"), str(spans_file), *argv]
            span = tracer.span(f"cli.{argv[0]}")
        try:
            with sw.timed(), span as rec:
                proc = subprocess.run(cmd, env=cli_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            checks.expect(False, f"{argv[0]} did not finish within {CLI_TIMEOUT_S} s")
            return False
        ok = proc.returncode == 0
        checks.expect(ok, f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if ok and tracer is not None:
            tracer.adopt([json.loads(line) for line in spans_file.read_text().splitlines()], rec)
        return ok

    def finish(self, csv: Path, pass_dir: Path, checks: Checks) -> None:
        if not (pass_dir / "module.json").is_file():
            return
        module = Module.from_report(json.loads((pass_dir / "module.json").read_text()))
        g = signedgraph.to_signed(load_validated(pass_dir / "net"), module.sigma)
        checks.expect(balanced(g, module), "pricenet module is not balanced")


class SimGeneral(Workload):
    name = "sim-general"

    def run_pass(self, seed: int, tracer: Tracer | None, checks: Checks, pass_dir: Path) -> PassResult:
        s = self.sizes
        sw = Stopwatch()
        modules = []
        cfg = DetectConfig()
        with nullcontext() if tracer is None else installed(tracer, IN_PROCESS):
            for gi, n in enumerate(s.general_grid):
                for t in range(s.general_trials):
                    params = SignedModelParams(n, *GENERAL_LAW, seed=derive_seed(seed, gi, t))
                    with sw.timed(), _part(tracer, "general"):
                        g = randgen.sample_signed(params)
                        m = maxbalancecore.detect(g, cfg)
                    checks.expect(balanced(g, m), f"general n={n} trial={t}: module not balanced")
                    modules.append(m)
        return PassResult(sw.total, sum(m.size for m in modules), _modules_digest(modules))


class SimMixed(Workload):
    name = "sim-mixed"

    def run_pass(self, seed: int, tracer: Tracer | None, checks: Checks, pass_dir: Path) -> PassResult:
        s = self.sizes
        sw = Stopwatch()
        detected = []
        exact = []
        gap = 0
        cfg = DetectConfig()
        with nullcontext() if tracer is None else installed(tracer, IN_PROCESS):
            n = s.planted_n
            with sw.timed(), _part(tracer, "planted"):
                inst = randgen.plant_lscbm(n, n // 10, n // 5, DEFAULT_SIGMA, derive_seed(seed, 0))
                g = signedgraph.to_signed(inst.matrix, DEFAULT_SIGMA)
                m = maxbalancecore.detect(g, cfg)
            checks.expect(planted_recovered(m, inst), f"planted n={n}: core not recovered exactly")
            checks.expect(balanced(g, m), f"planted n={n}: module not balanced")
            detected.append(m)
            del inst, g

            for part, regime, grid in ((1, "dense", s.dense_grid), (2, "negative", s.negative_grid)):
                for gi, n in enumerate(grid):
                    alpha, beta = regime_edge_law(regime, n, b=DENSE_B)
                    params = SignedModelParams(n, alpha, beta, seed=derive_seed(seed, part, gi))
                    with sw.timed(), _part(tracer, regime):
                        g = randgen.sample_signed(params)
                        m = maxbalancecore.detect(g, cfg)
                    checks.expect(balanced(g, m), f"{regime} n={n}: module not balanced")
                    detected.append(m)

            for k in range(s.small_graphs):
                n = SMALL_N[k % len(SMALL_N)]
                alpha, beta = SMALL_LAWS[k % len(SMALL_LAWS)]
                params = SignedModelParams(n, alpha, beta, seed=derive_seed(seed, 3, k))
                with sw.timed(), _part(tracer, "small"):
                    g = randgen.sample_signed(params)
                    m = maxbalancecore.detect(g, cfg)
                    best = oracle.exact_lscbm(g)
                    count = oracle.count_scbm(g, best.size) if best.size else 0
                checks.expect(balanced(g, m), f"small graph {k}: module not balanced")
                checks.expect(m.size <= best.size, f"small graph {k}: detected {m.size} > exact {best.size}")
                checks.expect(balanced(g, best) and (count >= 1) == (best.size > 0),
                              f"small graph {k}: oracle optimum inconsistent")
                gap += best.size - m.size
                detected.append(m)
                exact.append(best)
        digest = _modules_digest(detected + exact)
        return PassResult(sw.total, sum(m.size for m in detected), digest, gap)


WORKLOADS = {w.name: w for w in (PriceNet, SimGeneral, SimMixed)}
