"""In-memory spans around the package's public calls, and the per-layer metrics
derived from them.

A span is (id, name, start, end, parent, run) plus optional count attributes.
Spans live in memory and are written as JSON lines only when a run ends.
Tracing is installed by replacing module attributes that callers look up at
call time (``balancenet.maxbalancecore.expand`` is looked up by ``detect``,
``balancenet.cli.detect`` by the CLI commands); untraced passes run the
package untouched.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np


class Tracer:
    """Collects spans for one process; span ids are unique within it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def adopt(self, child_spans: list[dict], parent: dict) -> None:
        """Attach spans recorded by a child process under ``parent``."""
        offset = len(self.spans)
        for rec in child_spans:
            rec = dict(rec)
            rec["id"] += offset
            rec["parent"] = parent["id"] if rec["parent"] is None else rec["parent"] + offset
            rec["run"] = parent["run"]
            self.spans.append(rec)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# Counts recorded after a span closes, so their cost is not in the span.
def _expand_counts(args, kwargs, result) -> dict:
    before = len(args[0]) + len(args[1])
    return {
        "candidates": int(np.unique(np.asarray(args[3], dtype=np.intp)).size),
        "admitted": len(result[0]) + len(result[1]) - before,
    }


def _validate_counts(args, kwargs, result) -> dict:
    n = result.n
    return {"kept_pairs": int(np.count_nonzero(np.triu(result.values, k=1))), "pairs": _pairs(n)}


def _save_counts(args, kwargs, result) -> dict:
    from balancenet.corrnet import EDGE_FILE

    return {"edge_bytes": (Path(args[1]) / EDGE_FILE).stat().st_size}


COUNTERS: dict[str, Callable] = {
    "ingest.load_prices": lambda a, k, r: {"csv_bytes": Path(a[0]).stat().st_size},
    "corrnet.validate": _validate_counts,
    "corrnet.save_validated": _save_counts,
    "signedgraph.to_signed": lambda a, k, r: {"signed_edges": int(np.count_nonzero(r.signs)) // 2},
    "randgen.sample_signed": lambda a, k, r: {"pairs": _pairs(a[0].n)},
    "randgen.plant_lscbm": lambda a, k, r: {"pairs": _pairs(a[0])},
    "maxbalancecore.expand": _expand_counts,
}

# (module, attribute, span name) for calls made inside the benchmark process.
IN_PROCESS = (
    ("balancenet.randgen", "sample_signed", "randgen.sample_signed"),
    ("balancenet.randgen", "plant_lscbm", "randgen.plant_lscbm"),
    ("balancenet.signedgraph", "to_signed", "signedgraph.to_signed"),
    ("balancenet.maxbalancecore", "detect", "maxbalancecore.detect"),
    ("balancenet.maxbalancecore", "node_impacts", "maxbalancecore.node_impacts"),
    ("balancenet.maxbalancecore", "expand", "maxbalancecore.expand"),
    ("balancenet.oracle", "exact_lscbm", "oracle.exact_lscbm"),
    ("balancenet.oracle", "count_scbm", "oracle.count_scbm"),
)

# The same layers as the CLI commands look them up.
CLI = (
    ("balancenet.cli", "load_prices", "ingest.load_prices"),
    ("balancenet.cli", "log_returns", "ingest.log_returns"),
    ("balancenet.cli", "pearson_matrix", "corrnet.pearson_matrix"),
    ("balancenet.cli", "validate", "corrnet.validate"),
    ("balancenet.cli", "save_validated", "corrnet.save_validated"),
    ("balancenet.cli", "load_validated", "corrnet.load_validated"),
    ("balancenet.cli", "network_stats", "corrnet.network_stats"),
    ("balancenet.cli", "to_signed", "signedgraph.to_signed"),
    ("balancenet.cli", "detect", "maxbalancecore.detect"),
    ("balancenet.maxbalancecore", "node_impacts", "maxbalancecore.node_impacts"),
    ("balancenet.maxbalancecore", "expand", "maxbalancecore.expand"),
)


def _wrap(tracer: Tracer, fn: Callable, name: str) -> Callable:
    counter = COUNTERS.get(name)

    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
        if counter is not None:
            rec["counts"] = counter(args, kwargs, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, targets: Iterable[tuple[str, str, str]]) -> Iterator[None]:
    """Replace each target attribute with a span-recording wrapper, then restore."""
    saved = []
    try:
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans (children never overlap)."""
    dur = {s["id"]: (s["end"] - s["start"]) / 1e9 for s in spans}
    own = dict(dur)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= dur[s["id"]]
    return own


PARTS = ("general", "dense", "negative", "planted", "small", "pricenet")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "ingest.load_prices_s": "s",
    "ingest.csv_mb_per_s": "MB/s",
    "ingest.log_returns_s": "s",
    "corrnet.pearson_matrix_s": "s",
    "corrnet.validate_s": "s",
    "corrnet.validate.kept_frac": "frac",
    "corrnet.save_validated_s": "s",
    "corrnet.load_validated_s": "s",
    "corrnet.edge_file_mb": "MB",
    "corrnet.network_stats_s": "s",
    "cli.build_net_s": "s",
    "cli.detect_s": "s",
    "cli.stats_s": "s",
    "cli.self_s": "s",
    "randgen.sample_signed_s": "s",
    "randgen.plant_lscbm_s": "s",
    "randgen.pairs_per_s": "1/s",
    "signedgraph.to_signed_s": "s",
    "signedgraph.signed_edges": "count",
    **{f"maxbalancecore.detect_s.{p}": "s" for p in PARTS},
    "maxbalancecore.node_impacts_s": "s",
    "maxbalancecore.expand_s": "s",
    "maxbalancecore.detect.self_s": "s",
    "maxbalancecore.seeds": "count",
    "maxbalancecore.expand.admit_frac": "frac",
    "oracle.exact_lscbm_s": "s",
    "oracle.count_scbm_s": "s",
    "oracle.graphs": "count",
    "oracle.detect_gap_nodes": "count",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass; a layer the pass never calls reads 0.

    ``oracle.detect_gap_nodes`` and ``trace.overhead_s`` come from the pass
    results, not the spans, and are filled in by the caller.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    total: dict[str, float] = {}
    own_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    detect_by_part = dict.fromkeys(PARTS, 0.0)
    for s in spans:
        name = s["name"]
        d = (s["end"] - s["start"]) / 1e9
        total[name] = total.get(name, 0.0) + d
        own_total[name] = own_total.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for key, value in s.get("counts", {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "maxbalancecore.detect":
            up = s
            while not up["name"].startswith("part."):
                up = by_id[up["parent"]]  # every pass wraps its calls in a part span
            detect_by_part[up["name"][len("part."):]] += d

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    gen_s = t("randgen.sample_signed") + t("randgen.plant_lscbm")
    out = {
        "ingest.load_prices_s": t("ingest.load_prices"),
        "ingest.csv_mb_per_s": _ratio(c("ingest.load_prices.csv_bytes") / 1e6, t("ingest.load_prices")),
        "ingest.log_returns_s": t("ingest.log_returns"),
        "corrnet.pearson_matrix_s": t("corrnet.pearson_matrix"),
        "corrnet.validate_s": t("corrnet.validate"),
        "corrnet.validate.kept_frac": _ratio(c("corrnet.validate.kept_pairs"), c("corrnet.validate.pairs")),
        "corrnet.save_validated_s": t("corrnet.save_validated"),
        "corrnet.load_validated_s": t("corrnet.load_validated"),
        "corrnet.edge_file_mb": c("corrnet.save_validated.edge_bytes") / 1e6,
        "corrnet.network_stats_s": t("corrnet.network_stats"),
        "cli.build_net_s": t("cli.build-net"),
        "cli.detect_s": t("cli.detect"),
        "cli.stats_s": t("cli.stats"),
        "cli.self_s": sum((v for k, v in own_total.items() if k.startswith("cli.")), 0.0),
        "randgen.sample_signed_s": t("randgen.sample_signed"),
        "randgen.plant_lscbm_s": t("randgen.plant_lscbm"),
        "randgen.pairs_per_s": _ratio(
            c("randgen.sample_signed.pairs") + c("randgen.plant_lscbm.pairs"), gen_s
        ),
        "signedgraph.to_signed_s": t("signedgraph.to_signed"),
        "signedgraph.signed_edges": c("signedgraph.to_signed.signed_edges"),
        **{f"maxbalancecore.detect_s.{p}": detect_by_part[p] for p in PARTS},
        "maxbalancecore.node_impacts_s": t("maxbalancecore.node_impacts"),
        "maxbalancecore.expand_s": t("maxbalancecore.expand"),
        "maxbalancecore.detect.self_s": own_total.get("maxbalancecore.detect", 0.0),
        "maxbalancecore.seeds": calls.get("maxbalancecore.expand", 0),
        "maxbalancecore.expand.admit_frac": _ratio(
            c("maxbalancecore.expand.admitted"), c("maxbalancecore.expand.candidates")
        ),
        "oracle.exact_lscbm_s": t("oracle.exact_lscbm"),
        "oracle.count_scbm_s": t("oracle.count_scbm"),
        "oracle.graphs": calls.get("oracle.exact_lscbm", 0),
    }
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
