"""Capture perfbench/goldens.json from the code as it stands.

    python3 perfbench/capture_goldens.py

Goldens pin the outputs of the published starts, so capture them only at a
commit whose outputs are the reference, never to make a later change pass.
The capturing revision is recorded in the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import GOLDENS_JSON, capture_goldens, environment  # noqa: E402
from perfbench.run import OUT  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    goldens = {"captured_at": environment(), "workloads": {}}
    for name in WORKLOADS:
        print(f"capturing {name}", file=sys.stderr, flush=True)
        goldens["workloads"][name] = capture_goldens(name, OUT)
    GOLDENS_JSON.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
