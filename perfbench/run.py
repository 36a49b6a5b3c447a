"""balancenet benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload sim-general --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is taken from ``src/`` there,
nothing is installed.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload untraced and then traced, each in its
own process so that peak memory is per workload, and ends with one JSON
object whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("pricenet", "sim-general", "sim-mixed")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    p.add_argument("--seed", type=int, default=1, help="workload seed; the same seed gives the same inputs")
    p.add_argument("--seconds", type=int, default=30, help="how long one run repeats its timed pass")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result: dict) -> None:
    print(f"== {result['workload']} trace={int(result['trace'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    notes = result["notes"]
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:36s} {_fmt(m['value']):>14s} {m['unit']}{note}")
    for name, (value, unit) in result["extra"].items():
        print(f"{name:36s} {_fmt(value):>14s} {unit}")
    print(f"checks: {result['failed']} failed of {result['attempted']}")
    for what in result["failures"][:20]:
        print(f"  FAILED {what}")
    print(f"module_digest sha256:{result['digest']}")
    if "spans" in notes:
        print(notes["spans"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            combined["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "balancenet" / "__init__.py").is_file():
        print(f"error: no balancenet package at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    import bench

    print_result(bench.measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
