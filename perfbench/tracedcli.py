"""Run one ``balancenet`` CLI command with layer spans, as its own process.

Usage: python3 perfbench/tracedcli.py SPANS_JSONL COMMAND [ARGS...]

The command runs exactly as ``balancenet COMMAND ARGS...`` would; the spans
recorded around the package calls it makes are written to SPANS_JSONL when
it returns.  The parent benchmark process adopts them under its own span
for the command.
"""

from __future__ import annotations

import sys
from pathlib import Path

from balancenet import cli
from spans import CLI, Tracer, installed


def main(argv: list[str]) -> int:
    spans_path = Path(argv[0])
    tracer = Tracer()
    with installed(tracer, CLI):
        code = cli.main(argv[1:])
    tracer.write_jsonl(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
