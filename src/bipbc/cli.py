"""Command-line front end: verify / bound / simulate / benchmark pipelines.

Each command resolves a benchmark (or a JSON config), runs the requested
pipeline, and drops machine-readable artifacts into the output directory:

    verify     -> matching.json
    bound      -> constants.json, bounds.json
    simulate   -> trajectory.csv, summary.json (plus bounds.json)
    benchmark  -> all of the above

The process exit status is 0 on success, 1 if any soundness violation was
detected (energy increase beyond tolerance, momentum or control outside the
strict certificate) or the simulated run ended early (a "blowup" or
"domain_exit" event), and 2 for usage or configuration errors, a bad numeric
option included. A two-phase run is checked on its phase-2 records only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bench import BENCHMARK_NAMES, Benchmark, get_benchmark
from .bounds import validate_constants
from .matching import verify_matching
from .simulate import HD_TOL, SimConfig, bound_exceedances, check_hd_decrease, simulate

COMMANDS = ("verify", "bound", "simulate", "benchmark")


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified pipeline invocation (JSON round-trippable)."""

    command: str
    benchmark: str
    params: dict = field(default_factory=dict)
    dt: Optional[float] = None
    t_end: Optional[float] = None
    record_stride: int = 1
    samples: int = 1000
    mu: float = 1e-6
    seed: int = 0
    hd0: Optional[float] = None
    out: str = "."

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}")
        if self.benchmark not in BENCHMARK_NAMES:
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        for name in ("record_stride", "samples", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer")
        # a JSON true is an int, so it would pass every range check below as 1
        for name in ("dt", "t_end", "mu", "hd0"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, not a boolean")
        for name, low in (("samples", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0.0 < self.mu < float("inf"):
            raise ValueError("mu must be positive and finite")
        if self.hd0 is not None and not 0.0 <= self.hd0 < float("inf"):
            raise ValueError("hd0 must be nonnegative and finite")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
        known = {f.name for f in dataclasses.fields(RunSpec)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return RunSpec(**payload)

    @staticmethod
    def from_file(path) -> "RunSpec":
        return RunSpec.from_json(Path(path).read_text())


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _sim_config(bench: Benchmark, spec: RunSpec) -> SimConfig:
    """The run's integration settings; SimConfig rejects bad numeric options."""
    base = bench.default_sim()
    # the secondary design's energy is a Lyapunov function only after the
    # switch, so two-phase runs are checked post hoc on phase 2
    monitors = ("phase_switch",) if bench.two_phase else (
        "energy_decrease", "momentum_bound", "control_bound")
    return SimConfig(
        dt=spec.dt if spec.dt is not None else base.dt,
        t_end=spec.t_end if spec.t_end is not None else base.t_end,
        record_stride=spec.record_stride,
        monitors=monitors,
    )


def _violations(traj, report, start: int) -> dict:
    """Records from `start` on outside the strict and the published certificate."""
    out = {}
    for suffix, c_p, c_ptilde, tau_upper in (
        ("", report.c_p_strict, report.c_ptilde_strict, report.tau_upper_strict),
        ("_published", report.c_p, report.c_ptilde, report.tau_upper),
    ):
        over_p, over_pt, over_tau = bound_exceedances(
            traj, c_p, c_ptilde, report.tau_center, tau_upper, start)
        out["momentum" + suffix] = int(np.sum(over_p) + np.sum(over_pt))
        out["control" + suffix] = int(np.sum(over_tau))
    return out


def _bound_payload(bench: Benchmark, constants, report) -> dict:
    return {
        "benchmark": bench.name,
        "hd_t0": report.hd_t0,
        "constants": constants,
        "report": report,
        **bench.extra_artifacts(constants, report),
    }


def run(spec: RunSpec) -> int:
    """Execute a pipeline; writes artifacts and returns the exit status."""
    bench = get_benchmark(spec.benchmark, **spec.params)
    return _run(spec, bench, _sim_config(bench, spec))


def _run(spec: RunSpec, bench: Benchmark, cfg: SimConfig) -> int:
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    exit_code = 0

    if spec.command in ("verify", "benchmark"):
        matching = verify_matching(
            bench.system, bench.target, samples=spec.samples, region=bench.residual_box
        )
        _write_json(out / "matching.json", {"benchmark": bench.name, "report": matching})
        if not matching.passes(tol=1e-6):
            exit_code = 1
        if spec.command == "verify":
            return exit_code

    constants, report = bench.certificate(samples=spec.samples, mu=spec.mu)
    if spec.hd0 is not None:
        report = bench.report(constants, hd0=spec.hd0)
    _write_json(out / "bounds.json", _bound_payload(bench, constants, report))

    if spec.command in ("bound", "benchmark"):
        violations = validate_constants(
            bench.system,
            bench.target,
            constants,
            samples=min(spec.samples * 10, 10_000),
            seed=spec.seed + 1,
            region=bench.certification_region(),
        )
        _write_json(out / "constants.json", {"benchmark": bench.name, "constants": constants,
                                             "validation_violations": violations})
        if violations:
            exit_code = 1
        if spec.command == "bound":
            return exit_code

    # simulate / benchmark
    two_phase = bench.two_phase
    traj = simulate(
        bench.system,
        bench.make_controller(),
        bench.initial_state,
        cfg,
        target=bench.target,
        bound_report=None if two_phase else report,
    )
    traj.to_csv(out / "trajectory.csv")

    # the certified part of the run: all of it, or the phase-2 records of a
    # two-phase run (none if it never switched)
    start = 0
    if two_phase:
        phase2 = np.flatnonzero(traj.phase == 2)
        start = int(phase2[0]) if phase2.size else len(traj)
    hd_violations = check_hd_decrease(traj, HD_TOL, start_index=start)
    summary = {
        "benchmark": bench.name,
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "hd_t0": float(traj.hd[0]),
        "hd_end": float(traj.hd[-1]),
        "final_q": traj.q[-1],
        "peak_p_norm": float(np.max(traj.p_norm)),
        "peak_ptilde_norm": float(np.nanmax(traj.ptilde_norm)),
        "peak_tau_abs": np.max(np.abs(traj.tau), axis=0),
        "hd_decrease_violations": len(hd_violations),
        "events": [(t, kind) for t, kind, _ in traj.events],
    }
    scan = {}
    if two_phase:
        summary["switch_time"] = traj.switch_time
        if start:
            dev = np.max(np.abs(traj.tau[:start] - report.tau_center), axis=0)
            summary["phase1_peak_tau1_dev"] = float(dev[0])
            summary["phase1_peak_tau2"] = float(dev[1])
        if traj.switch_state is not None:
            _, report2 = bench.certificate(
                s0=traj.switch_state, samples=spec.samples, mu=spec.mu)
            summary["hd_at_switch"] = report2.hd_t0
            summary["phase2_certificate"] = {
                "tau_center": report2.tau_center,
                "tau_upper": report2.tau_upper,
            }
            scan = summary["phase2_violations"] = _violations(traj, report2, start)
    else:
        scan = summary["violations"] = _violations(traj, report, start)
        summary["bounds"] = {
            "c_p": report.c_p,
            "c_ptilde": report.c_ptilde,
            "c_p_strict": report.c_p_strict,
            "c_ptilde_strict": report.c_ptilde_strict,
            "tau_center": report.tau_center,
            "tau_upper": report.tau_upper,
            "tau_upper_strict": report.tau_upper_strict,
        }
    ended_early = any(kind in ("blowup", "domain_exit") for _, kind, _ in traj.events)
    if scan.get("momentum") or scan.get("control") or hd_violations or ended_early:
        exit_code = 1
    summary["exit_code"] = exit_code
    _write_json(out / "summary.json", summary)
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipbc",
        description="Bounded-input IDA-PBC: verify designs, certify bounds, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--benchmark", choices=BENCHMARK_NAMES)
        group.add_argument("--config", type=str, help="JSON RunSpec file")
        p.add_argument("--dt", type=float, default=None)
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--record-stride", type=int, default=1)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--mu", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--hd0", type=float, default=None,
                       help="override H_d(t0) for the certificate")
        p.add_argument("--out", type=str, default=".")
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    if args.config:
        spec = RunSpec.from_file(args.config)
        if spec.command != args.command:
            spec = dataclasses.replace(spec, command=args.command)
        return spec
    return RunSpec(
        command=args.command,
        benchmark=args.benchmark,
        dt=args.dt,
        t_end=args.t_end,
        record_stride=args.record_stride,
        samples=args.samples,
        mu=args.mu,
        seed=args.seed,
        hd0=args.hd0,
        out=args.out,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = spec_from_args(args)
        # a missing field or a parameter the benchmark does not take raises
        # TypeError, an out-of-range value ValueError
        bench = get_benchmark(spec.benchmark, **spec.params)
        cfg = _sim_config(bench, spec)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run(spec, bench, cfg)


if __name__ == "__main__":
    sys.exit(main())
