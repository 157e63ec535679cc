"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import pace, probe  # noqa: E402
from perfbench.harness import BENCHMARK_JSON, capture_goldens, run_benchmark  # noqa: E402
from perfbench.tracing import traced_attributes  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    ball_beam_starts,
    round_rng,
    vtol_starts,
)

TINY = {
    "certify": WORKLOADS["certify"].Params(benchmarks=("ball-beam",), samples=200),
    "nominal": WORKLOADS["nominal"].Params(ball_beam_t_end=0.05, two_phase_t_end=1.8,
                                           samples=100, phase2_samples=50),
    "sweep": WORKLOADS["sweep"].Params(ball_beam_starts=1, vtol_starts=1, ball_beam_t_end=0.1,
                                       vtol_t_end=0.2, ball_beam_samples=100, vtol_samples=50),
    "user-plant": WORKLOADS["user-plant"].Params(verify_samples=50, starts=1, t_end=0.1,
                                                 samples=30),
}
SPEC = json.loads(BENCHMARK_JSON.read_text())


@pytest.fixture(scope="module")
def tiny_goldens(tmp_path_factory):
    out = tmp_path_factory.mktemp("capture")
    return {"workloads": {name: capture_goldens(name, out, params)
                          for name, params in TINY.items()}}


@pytest.fixture(scope="module")
def baseline_rows():
    """The baseline table, measured once for all traced runs here (it takes ~13 s)."""
    return probe.baseline_table()


def run_tiny(name, goldens, out, capsys, trace=0):
    result = run_benchmark(name, 7, 0, trace, out, params=TINY[name], goldens=goldens)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    return result, json.loads(lines[0])["provenance"], json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_metric_with_unit(name, tiny_goldens, tmp_path, capsys):
    result, about, detail = run_tiny(name, tiny_goldens, tmp_path, capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert about["seed"] == 7 and about["workload"] == name and about["why"]
    assert detail["fail_frac"] == 0.0


COUNT_UNITS = ("count", "bytes", "calls/step")


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_repeats_its_counts(name, tiny_goldens, tmp_path,
                                                               capsys, baseline_rows,
                                                               monkeypatch):
    monkeypatch.setattr(probe, "baseline_table", lambda: dict(baseline_rows))
    before = traced_attributes()
    first, _, detail = run_tiny(name, tiny_goldens, tmp_path, capsys, trace=1)
    second, _, _ = run_tiny(name, tiny_goldens, tmp_path, capsys, trace=1)
    after = traced_attributes()
    assert all(after[k] is before[k] for k in before)
    assert first["correct"] and second["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert all(v > 0 for v in calls.values()), calls
    counts = [{k: v["value"] for k, v in run["metrics"].items() if v["unit"] in COUNT_UNITS}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert (tmp_path / f"spans-{name}-seed7.npz").is_file()
    assert first["metrics"]["trace.overhead_s"]["value"] == pytest.approx(
        detail["spans"] * detail["wrapper_cost_us"] * 1e-6)
    assert detail["spans"] > 0 and detail["wrapper_cost_us"] > 0


def test_untraced_run_leaves_wrapped_attributes_untouched(tiny_goldens, tmp_path, capsys):
    import bipbc.phcore

    before = traced_attributes()
    run_tiny("user-plant", tiny_goldens, tmp_path, capsys)
    after = traced_attributes()
    assert all(after[k] is before[k] for k in before)
    assert after["bipbc.simulate:open_loop_field_raw"] is bipbc.phcore.open_loop_field_raw


@pytest.mark.parametrize("path", [("ball-beam", "final_q", 0), ("vtol-two-phase", "phase1_q", 2)])
def test_perturbed_golden_raises_fail_frac(path, tiny_goldens, tmp_path, capsys):
    goldens = copy.deepcopy(tiny_goldens)
    op, key, index = path
    goldens["workloads"]["nominal"]["ops"][op][key][index] *= 1.0 + 1e-6
    result, _, detail = run_tiny("nominal", goldens, tmp_path, capsys)
    assert not result["correct"] and result["failed"] >= 1
    assert detail["fail_frac"] > 0


def test_switch_time_off_its_reference_raises_fail_frac(tiny_goldens, tmp_path, capsys):
    goldens = copy.deepcopy(tiny_goldens)
    goldens["workloads"]["nominal"]["references"]["vtol-two-phase"]["switch_time"] += 0.01
    result, _, detail = run_tiny("nominal", goldens, tmp_path, capsys)
    assert not result["correct"] and detail["fail_frac"] > 0


def test_paced_times_rescale_to_the_reference_speed_also_when_the_block_raises():
    ref = pace.REF_KERNEL_S
    assert pace.to_ref(3.0, ref, ref) == pytest.approx(3.0)
    assert pace.to_ref(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.6)
    handler = signal.getsignal(signal.SIGALRM)
    timing = pace.Paced()
    with pytest.raises(ZeroDivisionError):
        with timing:
            sum(range(3_000_000)) / 0
    assert timing.wall_s > 0 and timing.ref_s > 0 and len(timing.readings_s) >= 2
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_seeded_starts_follow_the_sweep_distributions():
    import bipbc.bench

    box = bipbc.bench.get_benchmark("ball-beam").system.workspace
    a = ball_beam_starts(round_rng(5, 0), box, 200)
    b = ball_beam_starts(round_rng(5, 0), box, 200)
    c = ball_beam_starts(round_rng(6, 0), box, 200)
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][0], c[0][0])
    qs = np.array([q for q, _ in a])
    assert np.all(np.abs(qs) <= 0.8 * box.upper)
    assert np.all(np.linalg.norm([p for _, p in a], axis=1) <= 0.5)
    vq = np.array([q for q, p in vtol_starts(round_rng(5, 1), 200)])
    assert np.all(np.abs(vq) <= [25, 15, 1.2])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
