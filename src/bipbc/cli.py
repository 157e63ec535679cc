"""Command-line front end: verify / bound / simulate / benchmark pipelines.

Each command resolves a benchmark (or a JSON config), runs the requested
pipeline, and drops machine-readable artifacts into the output directory:

    verify     -> matching.json
    bound      -> constants.json, bounds.json
    simulate   -> trajectory.csv, summary.json (plus bounds.json)
    benchmark  -> all of the above

The process exit status is 0 on success, 1 if any soundness violation was
detected (energy increase beyond tolerance, momentum or control outside the
strict certificate), and 2 for usage or configuration errors.
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
from .controller import target_energy
from .matching import verify_matching
from .simulate import SimConfig, Trajectory, check_hd_decrease, simulate

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


def _sim_config(bench, spec: RunSpec, monitors) -> SimConfig:
    base = bench.default_sim()
    return SimConfig(
        dt=spec.dt if spec.dt is not None else base.dt,
        t_end=spec.t_end if spec.t_end is not None else base.t_end,
        record_stride=spec.record_stride,
        monitors=monitors,
    )


def _scan_violations(traj: Trajectory, report, phase: Optional[int] = None) -> dict:
    """Post-hoc strict-certificate scan, optionally restricted to one phase."""
    mask = np.ones(len(traj), dtype=bool) if phase is None else traj.phase == phase
    out = {"momentum": 0, "momentum_published": 0, "control": 0, "control_published": 0}
    if not np.any(mask):
        return out
    pn = traj.p_norm[mask]
    ptn = traj.ptilde_norm[mask]
    out["momentum"] = int(np.sum(pn > report.c_p_strict) + np.sum(ptn > report.c_ptilde_strict))
    out["momentum_published"] = int(np.sum(pn > report.c_p) + np.sum(ptn > report.c_ptilde))
    dev = np.abs(traj.tau[mask] - report.tau_center)
    out["control"] = int(np.sum(np.any(dev > report.tau_upper_strict, axis=1)))
    out["control_published"] = int(np.sum(np.any(dev > report.tau_upper, axis=1)))
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
    return _run(spec, get_benchmark(spec.benchmark, **spec.params))


def _run(spec: RunSpec, bench: Benchmark) -> int:
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
        _write_json(out / "bounds.json", _bound_payload(bench, constants, report))
        if violations:
            exit_code = 1
        if spec.command == "bound":
            return exit_code

    # simulate / benchmark
    two_phase = bench.two_phase
    controller = bench.make_controller()
    # the secondary design's energy is a Lyapunov function only after the
    # switch, so two-phase runs check the decrease post hoc on phase 2
    monitors = ("phase_switch",) if two_phase else (
        "energy_decrease", "momentum_bound", "control_bound")
    cfg = _sim_config(bench, spec, monitors)
    traj = simulate(
        bench.system,
        controller,
        bench.initial_state,
        cfg,
        target=bench.target,
        bound_report=None if two_phase else report,
    )
    traj.to_csv(out / "trajectory.csv")
    _write_json(out / "bounds.json", _bound_payload(bench, constants, report))

    hd_start = int(np.argmax(traj.phase == 2)) if two_phase and np.any(traj.phase == 2) else 0
    hd_violations = check_hd_decrease(traj, cfg.hd_tol, start_index=hd_start)
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
    if two_phase:
        switch_time = getattr(controller, "switch_time", None)
        summary["switch_time"] = switch_time
        pr = bench.params
        phase1 = traj.phase == 1
        if np.any(phase1):
            summary["phase1_peak_tau1_dev"] = float(
                np.max(np.abs(traj.tau[phase1, 0] - pr.g))
            )
            summary["phase1_peak_tau2"] = float(np.max(np.abs(traj.tau[phase1, 1])))
        if switch_time is not None:
            sw = controller.switch_state
            hd_sw = target_energy(bench.target, sw).total
            constants2, report2 = bench.certificate(s0=sw, samples=spec.samples, mu=spec.mu)
            summary["hd_at_switch"] = hd_sw
            summary["phase2_certificate"] = {
                "tau_center": report2.tau_center,
                "tau_upper": report2.tau_upper,
            }
            scan = _scan_violations(traj, report2, phase=2)
            summary["phase2_violations"] = scan
            if scan["momentum"] or scan["control"]:
                exit_code = 1
    else:
        scan = _scan_violations(traj, report)
        summary["violations"] = scan
        summary["bounds"] = {
            "c_p": report.c_p,
            "c_ptilde": report.c_ptilde,
            "c_p_strict": report.c_p_strict,
            "c_ptilde_strict": report.c_ptilde_strict,
            "tau_center": report.tau_center,
            "tau_upper": report.tau_upper,
            "tau_upper_strict": report.tau_upper_strict,
        }
        if scan["momentum"] or scan["control"]:
            exit_code = 1
    if hd_violations:
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
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run(spec, bench)


if __name__ == "__main__":
    sys.exit(main())
