"""CLI artifacts against goldens captured before the certificate pipeline was
consolidated.

Each case reruns one small `cli.run` and compares every JSON artifact it
writes among `constants.json`, `bounds.json` and `summary.json` with
`tests/data/artifact_goldens.json`: floats within 1e-12 relative, keys, ints,
strings, booleans and nulls exact. The goldens are a fixed record of the
earlier code's output; a mismatch is a behaviour change, not a reason to
recapture them. They were written by

    PYTHONPATH=src python tests/test_artifact_goldens.py

which refuses to overwrite an existing file.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from bipbc.cli import RunSpec, run

GOLDENS = Path(__file__).parent / "data" / "artifact_goldens.json"
ARTIFACTS = ("constants.json", "bounds.json", "summary.json")
REL_TOL = 1e-12

CASES = {
    "bound/ball-beam": dict(command="bound", benchmark="ball-beam", samples=200),
    "bound/vtol-nonsmooth": dict(command="bound", benchmark="vtol-nonsmooth", samples=100),
    "bound/vtol-two-phase": dict(command="bound", benchmark="vtol-two-phase", samples=100),
    "bound-hd0/ball-beam": dict(command="bound", benchmark="ball-beam", samples=200, hd0=0.5),
    "bound-hd0/vtol-nonsmooth": dict(command="bound", benchmark="vtol-nonsmooth",
                                     samples=100, hd0=40.0),
    "simulate/ball-beam": dict(command="simulate", benchmark="ball-beam", samples=200,
                               dt=2e-3, t_end=2.0, record_stride=5),
    # past the phase switch at t = 1.756 s
    "simulate/vtol-two-phase": dict(command="simulate", benchmark="vtol-two-phase",
                                    samples=100, dt=2e-3, t_end=2.2, record_stride=5),
}


def run_case(name: str, out: Path) -> dict:
    """Exit code and every compared artifact of one case."""
    out = out / name.replace("/", "_")
    code = run(RunSpec(out=str(out), **CASES[name]))
    artifacts = {
        artifact: json.loads((out / artifact).read_text())
        for artifact in ARTIFACTS
        if (out / artifact).exists()
    }
    return {"exit_code": code, "artifacts": artifacts}


def mismatches(got, want, path: str = "") -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}, "
                    f"golden {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: got {got!r}, golden {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        same = (math.isnan(want) and math.isnan(got)) or math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=0.0)
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{path}: got {got!r}, golden {want!r}"]


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text())


def test_goldens_cover_every_case(goldens):
    assert set(goldens) == set(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_artifacts_match_goldens(name, goldens, tmp_path):
    assert mismatches(run_case(name, tmp_path), goldens[name], name) == []


if __name__ == "__main__":
    if GOLDENS.exists():
        sys.exit(f"{GOLDENS} exists; goldens are captured once and never regenerated")
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        captured = {name: run_case(name, Path(tmp)) for name in CASES}
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(json.dumps(captured, indent=1, sort_keys=True) + "\n")
