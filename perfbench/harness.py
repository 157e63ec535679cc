"""Runs one workload: set-up, timed rounds or the traced run, checks, metrics.

Untraced run: bipbc's import is timed in IMPORT_REPEATS fresh interpreters
and set-up is repeated SETUP_REPEATS times; then rounds run for at most
`seconds` (at least one round). Only each operation's `execute` is timed;
output checks run between operations. Every timed call is also given in
reference seconds, its wall time rescaled to a fixed host speed (pace.py).

    setup_s      median import + median set-up, in reference seconds
    wall_ref_s   mean time of one round (timed operations only), in reference seconds
    peak_rss_mb  peak resident set of the process

The detail line adds the same times in wall seconds (`wall_s`, `setup_wall_s`)
and the rates over all rounds in wall seconds: `ops_per_s` (checked
operations), and `steps_per_s` or `points_per_s` where the workload has them.

Traced run: set-up once, then with the tracer installed the set-up again,
round 0 and the coverage pass, then the untraced baseline table. Each layer
row sums those three traced phases; `layers-<workload>-seed<n>.json` next to
the spans file splits it by phase. `trace.overhead_s` is the number of spans
times the cost of one wrapper, measured in the same process on a no-op.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import probe
from perfbench.pace import REF_KERNEL_S, Paced, to_ref
from perfbench.tracing import PHASES, Tracer, wrapper_cost_s
from perfbench.workloads import WORKLOADS, compare

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDENS_JSON = Path(__file__).resolve().parent / "goldens.json"
SETUP_REPEATS = 4
IMPORT_REPEATS = 11
#: prints the import's seconds and the host-speed readings taken in the same
#: interpreter right before (after a warm-up call) and right after it. numpy is
#: imported first and untimed: it is a dependency bipbc cannot make faster, and
#: its import (dynamic libraries, ~0.1 s) drifted with the host state far more
#: than the readings follow, by up to 55 % between sets of runs an hour apart
IMPORT_READINGS = 3
IMPORT_BIPBC = ("import time, numpy; from perfbench import pace; pace.kernel(); "
                f"r = [pace.kernel_s() for _ in range({IMPORT_READINGS})]; "
                "t0 = time.perf_counter(); import bipbc, bipbc.bench, bipbc.cli; "
                "t = time.perf_counter() - t0; "
                f"print(t, *r, *(pace.kernel_s() for _ in range({IMPORT_READINGS})))")


@dataclasses.dataclass
class RoundStats:
    exec_s: float = 0.0
    ref_s: float = 0.0
    ops: int = 0
    failed: int = 0
    work: Counter = dataclasses.field(default_factory=Counter)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def environment() -> dict:
    """Code and platform identity: git revision (None outside git), sources, versions."""
    src = ROOT / "src" / "bipbc"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            revision = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def provenance(workload, seconds: float, trace: int) -> dict:
    return {
        **environment(),
        "workload": workload.name,
        "why": workload.why,
        "params": workload.record(),
        "seed": workload.seed,
        "seconds": seconds,
        "trace": trace,
    }


def load_goldens(workload, goldens=None) -> dict:
    if goldens is None:
        goldens = json.loads(GOLDENS_JSON.read_text())
    golden = goldens["workloads"][workload.name]
    params = workload.record()
    if golden["params"] != params:
        raise ValueError(f"goldens of {workload.name} were captured with parameters "
                         f"{golden['params']}, not {params}")
    return golden


def check_op(op, out, golden_ops: dict) -> tuple:
    """(problems, work counts) of one executed operation."""
    try:
        problems = list(op.invariants(out))
        if op.observe is not None:
            if op.key in golden_ops:
                problems += compare(op.observe(out), golden_ops[op.key], op.key)
            else:
                problems.append(f"no golden for {op.key}")
        return problems, op.work(out)
    except Exception:
        return [f"check raised:\n{traceback.format_exc()}"], {}


def run_round(workload, round_index: int, golden_ops: dict, tracer=None) -> RoundStats:
    stats = RoundStats()
    for op in workload.ops(round_index):
        stats.ops += 1
        if tracer is not None:
            tracer.begin_op(op.key)
        timing = Paced()
        try:
            with timing:
                out = op.execute()
        except Exception:
            stats.failed += 1
            log(f"FAIL {workload.name} {op.key}: raised\n{traceback.format_exc()}")
            continue
        finally:
            stats.exec_s += timing.wall_s
            stats.ref_s += timing.ref_s
        with tracer.paused() if tracer is not None else nullcontext():
            problems, work = check_op(op, out, golden_ops)
        stats.work.update(work)
        if problems:
            stats.failed += 1
            for problem in problems[:5]:
                log(f"FAIL {workload.name} {op.key}: {problem}")
    return stats


def timed_setup(workload, golden: dict) -> tuple:
    """(wall seconds, reference seconds, failed) of one set-up; the set-up values
    are golden-checked."""
    with Paced() as timing:
        values = workload.setup()
    problems = compare(values, golden["setup"], "setup")
    for problem in problems[:5]:
        log(f"FAIL {workload.name} setup: {problem}")
    return timing.wall_s, timing.ref_s, int(bool(problems))


def import_seconds(src: Path) -> list:
    """(wall, reference) seconds to import bipbc (with bench and cli), each in a
    fresh interpreter that has imported numpy already.

    The host speed is read in the child around the import: on another core
    than this process, the speed can differ from the one read here.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(ROOT)))}
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_BIPBC], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        wall, *readings = (float(v) for v in done.stdout.split())
        times.append((wall, to_ref(wall, *readings)))
    return times


def select(section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json names in `section`, each with its unit."""
    spec = json.loads(BENCHMARK_JSON.read_text())[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def layer_values(tracer: Tracer, table: dict) -> dict:
    values = {}
    for name, phases in table.items():
        for key in phases["setup"]:
            if key != "total_s":
                values[f"{name}.{key}"] = sum(phases[p][key] for p in PHASES)
    simulate = table["simulate.simulate"]
    steps = sum(simulate[p]["steps"] for p in PHASES)
    values["simulate.step_us"] = 1e6 * sum(simulate[p]["total_s"] for p in PHASES) / steps
    values["controller.calls_per_step"] = tracer.control_evals_in_simulate() / steps
    return values


def timed_rounds(workload, seconds: float, golden: dict) -> tuple:
    """(end-to-end values, detail, rounds) of rounds run for at most `seconds`."""
    rounds = []
    begin = perf_counter()
    while True:
        start = perf_counter()
        rounds.append(run_round(workload, len(rounds), golden["ops"]))
        now = perf_counter()
        # start another round only if, at this round's pace, it ends in time
        if now - begin + (now - start) > seconds:
            break
    exec_s = sum(r.exec_s for r in rounds)
    values = {
        # the mean over the run's rounds: with few rounds, this spreads less
        # across runs than the median round does
        "wall_ref_s": sum(r.ref_s for r in rounds) / len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    work = sum((r.work for r in rounds), Counter(ops=sum(r.ops for r in rounds)))
    detail = {"wall_s": exec_s / len(rounds)}
    detail.update({f"{unit}_per_s": count / exec_s for unit, count in work.items()})
    detail["round_s"] = [r.exec_s for r in rounds]
    detail["round_ref_s"] = [r.ref_s for r in rounds]
    return values, detail, rounds


def traced_round(workload, golden: dict, out_dir: Path) -> tuple:
    """(per-layer values, detail, rounds) of the traced set-up, round 0 and coverage."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_phase("setup")
        workload.setup()
        tracer.set_phase("round")
        traced = run_round(workload, 0, golden["ops"], tracer)
        tracer.set_phase("coverage")
        tracer.begin_op("coverage")
        probe.coverage_pass(workload.out)
    finally:
        tracer.uninstall()
    table = tracer.layer_table()
    values = layer_values(tracer, table)
    values.update(probe.baseline_table())
    cost_s = wrapper_cost_s()
    values["trace.overhead_s"] = len(tracer.start) * cost_s
    stem = f"{workload.name}-seed{workload.seed}"
    tracer.write(out_dir / f"spans-{stem}.npz")
    report = out_dir / f"layers-{stem}.json"
    report.write_text(json.dumps(table, indent=1) + "\n")
    detail = {"spans": len(tracer.start), "wrapper_cost_us": 1e6 * cost_s,
              "traced_round_s": traced.exec_s, "report": str(report)}
    return values, detail, [traced]


def run_benchmark(name: str, seed: int, seconds: float, trace: int, out_dir: Path,
                  import_s: tuple = ((0.0, 0.0),), params=None, goldens=None) -> dict:
    """Run one workload, print provenance, detail and result lines; return the result.

    `import_s` holds the (wall, reference) import times whose median goes into
    `setup_s`.
    """
    workload = WORKLOADS[name](seed, out_dir, params)
    golden = load_goldens(workload, goldens)
    workload.references.update(golden["references"])
    print(json.dumps({"provenance": provenance(workload, seconds, trace)}), flush=True)
    setups = [timed_setup(workload, golden) for _ in range(1 if trace else SETUP_REPEATS)]
    setup_times = [t for t, _, _ in setups]
    if trace:
        values, detail, rounds = traced_round(workload, golden, out_dir)
    else:
        values, detail, rounds = timed_rounds(workload, seconds, golden)
        values["setup_s"] = (statistics.median(r for _, r in import_s)
                             + statistics.median(r for _, r, _ in setups))
        detail["setup_wall_s"] = (statistics.median(w for w, _ in import_s)
                                  + statistics.median(setup_times))
        detail["import_s"] = [w for w, _ in import_s]
        detail["ref_kernel_s"] = REF_KERNEL_S
    attempted = 1 + sum(r.ops for r in rounds)
    failed = max(f for _, _, f in setups) + sum(r.failed for r in rounds)
    detail.update(workload=name, seed=seed, setup_times_s=setup_times, rounds=len(rounds),
                  fail_frac=failed / attempted)
    print(json.dumps({"detail": detail}), flush=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": select("per_layer" if trace else "end_to_end", values)}
    print(json.dumps(result), flush=True)
    return result


def capture_goldens(name: str, out_dir: Path, params=None) -> dict:
    """Golden values of one workload's round 0, refused if any invariant fails."""
    workload = WORKLOADS[name](0, out_dir, params)
    golden = {"params": workload.record(), "setup": workload.setup(), "ops": {},
              "references": workload.references}
    for op in workload.ops(0):
        out = op.execute()
        if op.reference is not None:
            workload.references[op.key] = op.reference(out)
        problems = op.invariants(out)
        if problems:
            raise RuntimeError(f"{name} {op.key} fails its invariants: {problems}")
        if op.observe is not None:
            golden["ops"][op.key] = op.observe(out)
    return golden

