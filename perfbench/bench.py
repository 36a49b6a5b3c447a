"""One benchmark run: set up, repeat passes for the given seconds, check, summarise.

An untraced run reports the end-to-end metrics.  A traced run alternates
untraced and traced passes; it reports the per-layer metrics of the traced
passes and, as ``trace.overhead_s``, how much longer a traced pass took
than an untraced one.  Both kinds of pass must give byte-identical outputs.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from spans import LAYER_UNITS, Tracer, layer_metrics, median_metrics

ROOT = workloads.HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 5
MIN_PASSES = 2  # a repeat is needed for the byte-identity check

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "module_nodes": "count"}


def _import_in_fresh_interpreter() -> None:
    """Start an interpreter that imports the package, as each CLI call does."""
    subprocess.run([sys.executable, "-c", "import balancenet"], env=workloads.cli_env(), check=True)


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    mem_kb = next(
        (line.split()[1] for line in _read("/proc/meminfo").splitlines() if line.startswith("MemTotal:")),
        None,
    )
    return {
        "nproc": os.cpu_count(),
        "ram_gb": round(int(mem_kb) / 2**20, 1) if mem_kb else None,
        "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL) -> dict:
    """Run one workload and return its result record (see ``run.py`` for the printout)."""
    wl = workloads.WORKLOADS[name](sizes)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            _import_in_fresh_interpreter()
            inputs = wl.setup(seed, tmp)
            setup_s.append(time.perf_counter() - start)

        checks = workloads.Checks()
        tracer = Tracer()
        passes: list[tuple[bool, workloads.PassResult]] = []
        traced_runs: list[str] = []
        start = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            k = len(passes)
            traced = trace and k % 2 == 1
            tracer.run_id = f"{name}/seed={seed}/pass={k}"
            if traced:
                traced_runs.append(tracer.run_id)
            pass_dir = tmp / f"pass{k}"
            pass_dir.mkdir()
            passes.append((traced, wl.run_pass(inputs, tracer if traced else None, checks, pass_dir)))
            if k:
                shutil.rmtree(pass_dir)
        first = passes[0][1]
        for k, (traced, res) in enumerate(passes[1:], start=1):
            kind = "traced" if traced else "untraced"
            checks.expect(res.digest == first.digest, f"pass {k} ({kind}) outputs differ from pass 0")
        wl.finish(inputs, tmp / "pass0", checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [res.wall_s for traced, res in passes if not traced]
    q1, q3 = _quartiles(plain)
    result = {
        "workload": name,
        "trace": trace,
        "env": environment(seed),
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures,
        "digest": first.digest,
        "notes": {
            "wall_s": f"median of {len(plain)} untraced passes, q1 {q1:.4f} q3 {q3:.4f}; "
            + " ".join(f"{w:.3f}" for w in plain),
            "setup_s": f"median of {SETUP_REPS} set-ups",
        },
        "extra": {
            "fail_frac": (len(checks.failures) / checks.attempted, "frac"),
        },
    }
    if name == "sim-mixed":
        result["extra"]["detect_gap_nodes"] = (first.gap_nodes, "count")

    if not trace:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": _peak_rss_mb(),
            "module_nodes": first.module_nodes,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        return result

    per_pass = [layer_metrics([s for s in tracer.spans if s["run"] == run]) for run in traced_runs]
    values = median_metrics(per_pass)
    values["oracle.detect_gap_nodes"] = first.gap_nodes
    traced_walls = [res.wall_s for traced, res in passes if traced]
    values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    spans_file = WORK / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_jsonl(spans_file)
    result["notes"]["spans"] = f"{len(tracer.spans)} spans of {len(traced_walls)} traced passes in {spans_file}"
    return result
