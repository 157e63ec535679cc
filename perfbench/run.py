"""bipbc benchmark entry point.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Imports bipbc from the `src/` directory next to this one, runs the workload
(see perfbench/README.md) and prints three JSON lines on stdout: provenance,
detail, and last the result `{"correct", "attempted", "failed", "metrics"}`.
Output checks that fail are listed on stderr. Artifacts, CSVs, spans and
layer reports go to perfbench/out/. Exits with 2 and prints no result when
the bipbc sources are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("certify", "nominal", "sweep", "user-plant")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bipbc" / "__init__.py").is_file():
        print(f"error: bipbc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import bipbc

    if not Path(bipbc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bipbc from {bipbc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench.harness import import_seconds, run_benchmark

    OUT.mkdir(parents=True, exist_ok=True)
    # the import is part of set-up; it is timed in fresh interpreters
    import_s = import_seconds(SRC) if args.trace == 0 else ((0.0, 0.0),)
    run_benchmark(args.workload, args.seed, args.seconds, args.trace, OUT, import_s=import_s)
    return 0


if __name__ == "__main__":
    sys.exit(main())
