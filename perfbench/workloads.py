"""The benchmark's four workloads, their seeded inputs and their output checks.

Each workload drives bipbc's public API the way a user does. `setup` builds
the benchmarks and does the one-time precomputation; `ops(r)` returns the
operations of round `r`. An operation's `execute` is the timed call into
bipbc; `observe` extracts the values compared against goldens captured at
the seed code, and `invariants` returns the checks that need no golden.
`reference` extracts values captured with the goldens that an invariant
compares against with its own tolerance (`Workload.references`).
Module functions are looked up at call time (`sim.simulate`, `cli.run`)
so that a traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from bipbc import ConfigState, SimConfig

bench = import_module("bipbc.bench")
bounds = import_module("bipbc.bounds")
cli = import_module("bipbc.cli")
controller = import_module("bipbc.controller")
matching = import_module("bipbc.matching")
sim = import_module("bipbc.simulate")

#: goldens are met when |observed - golden| <= GOLDEN_TOL * max(1, |golden|)
GOLDEN_TOL = 1e-9
#: energy-rise tolerance per unit time, as in SimConfig.hd_tol
HD_TOL = 1e-6
#: user-plant vs analytic-plant agreement (finite-difference gradients);
#: the largest gaps over 15 seeded starts were 5e-12 in q, 3e-11 in p, 9e-9 in tau
USER_PLANT_TOL = {"q": 1e-9, "p": 1e-9, "tau": 1e-7}

# published step sizes, fixed for every run and recorded with the parameters
NOMINAL_BALL_BEAM_DT = 1e-3
TWO_PHASE_DT = 2e-3
SWEEP_BALL_BEAM_DT = 2e-3
SWEEP_VTOL_DT = 5e-3
USER_PLANT_DT = 2e-3

MATCHING_KEYS = (
    "kinetic_residual_max",
    "potential_residual_max",
    "r2_min_eig",
    "condition5_min_eig",
    "equilibrium_ok",
    "samples",
)
REPORT_KEYS = (
    "hd_t0",
    "c_p1",
    "c_ptilde1",
    "c_p2",
    "c_ptilde2",
    "c_p",
    "c_ptilde",
    "c_p_strict",
    "c_ptilde_strict",
    "tau_center",
    "tau_upper",
    "tau_upper_strict",
)


def plain(value):
    """numpy scalars and arrays, tuples and dataclasses as JSON-ready values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [plain(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def compare(observed, golden, path: str = "") -> list:
    """Mismatches of `observed` against `golden`; floats within GOLDEN_TOL."""
    if isinstance(golden, dict):
        if not isinstance(observed, dict):
            return [f"{path}: expected a mapping, got {observed!r}"]
        problems = []
        for key, want in golden.items():
            if key not in observed:
                problems.append(f"{path}/{key}: missing")
            else:
                problems += compare(observed[key], want, f"{path}/{key}")
        return problems
    if isinstance(golden, list):
        if not isinstance(observed, list) or len(observed) != len(golden):
            return [f"{path}: expected {len(golden)} entries, got {observed!r}"]
        problems = []
        for i, (got, want) in enumerate(zip(observed, golden)):
            problems += compare(got, want, f"{path}[{i}]")
        return problems
    if isinstance(golden, float) and isinstance(observed, (int, float)) and not isinstance(
        observed, bool
    ):
        ok = abs(observed - golden) <= GOLDEN_TOL * max(1.0, abs(golden))
    else:
        ok = type(observed) is type(golden) and observed == golden
    return [] if ok else [f"{path}: got {observed!r}, golden {golden!r}"]


@dataclass
class Op:
    """One checked operation: `execute` is timed, the checks are not."""

    key: str
    execute: Callable[[], Any]
    invariants: Callable[[Any], list] = lambda out: []
    observe: Optional[Callable[[Any], dict]] = None
    work: Callable[[Any], dict] = lambda out: {}
    reference: Optional[Callable[[Any], dict]] = None


def ball_beam_starts(rng: np.random.Generator, workspace, count: int) -> list:
    """Ball-beam starts as in the test suite's soundness sweep.

    q uniform in 0.8x the workspace box; p in a random direction with norm
    uniform in [0, 0.5].
    """
    starts = []
    for _ in range(count):
        q = rng.uniform(0.8 * workspace.lower, 0.8 * workspace.upper)
        p = rng.standard_normal(2)
        p *= rng.uniform(0.0, 0.5) / np.linalg.norm(p)
        starts.append((q, p))
    return starts


def vtol_starts(rng: np.random.Generator, count: int) -> list:
    """VTOL starts at rest with x in [-25, 25], y in [-15, 15], |roll| <= 1.2."""
    return [
        (np.array([rng.uniform(-25, 25), rng.uniform(-15, 15), rng.uniform(-1.2, 1.2)]),
         np.zeros(3))
        for _ in range(count)
    ]


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Inputs of round r depend only on (seed, r), so any round can be replayed."""
    return np.random.default_rng([seed, round_index])


def csv_rows(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def strict_bounds(report) -> tuple:
    """(c_p, c_ptilde, tau_center, tau_upper) of a report's strict certificate."""
    return (report.c_p_strict, report.c_ptilde_strict, report.tau_center,
            report.tau_upper_strict)


def strict_problems(traj, c_p, c_ptilde, center, tau_upper, start: int = 0) -> list:
    """Records from `start` on that leave the strict momentum or effort bounds."""
    problems = []
    peak_p = float(np.max(traj.p_norm[start:]))
    peak_pt = float(np.max(traj.ptilde_norm[start:]))
    if peak_p > c_p:
        problems.append(f"||p|| peak {peak_p:.6g} above strict bound {c_p:.6g}")
    if peak_pt > c_ptilde:
        problems.append(f"||ptilde|| peak {peak_pt:.6g} above strict bound {c_ptilde:.6g}")
    dev = np.max(np.abs(traj.tau[start:] - np.asarray(center)), axis=0)
    if np.any(dev > tau_upper):
        problems.append(f"|tau - center| peak {dev} above strict bound {tau_upper}")
    return problems


def hd_rise_problems(traj, start: int = 0) -> list:
    rises = sim.check_hd_decrease(traj, HD_TOL, start_index=start)
    return [f"H_d rose at {len(rises)} steps, first at t={rises[0][0]}"] if rises else []


def report_view(report) -> dict:
    return plain({key: getattr(report, key) for key in REPORT_KEYS})


def start_certificate(benchmark, constants, s0):
    """hd0 and the bound report of one start, the way the CLI builds it."""
    hd0 = controller.target_energy(benchmark.target, s0).total
    pt0 = controller.mass_d_solve(benchmark.target, s0.q, s0.p)
    report = bounds.bound_report(
        constants, hd0, float(np.linalg.norm(s0.p)), float(np.linalg.norm(pt0))
    )
    return hd0, report


class Workload:
    name = ""
    why = ""
    Params: type
    #: fixed step sizes, recorded next to the parameters
    step_sizes: dict = {}

    def __init__(self, seed: int, out_dir: Path, params=None):
        self.seed = seed
        self.params = params if params is not None else self.Params()
        self.references = {}  # op key -> reference values captured with the goldens
        self.out = Path(out_dir) / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def record(self) -> dict:
        """Parameters and step sizes, as recorded in provenance and goldens."""
        return plain({**dataclasses.asdict(self.params), **self.step_sizes})

    def setup(self) -> dict:
        """Build everything the rounds need; returns the golden-checked setup values."""
        raise NotImplementedError

    def ops(self, round_index: int) -> list:
        raise NotImplementedError


class Certify(Workload):
    name = "certify"
    why = ("The certificate path a user waits on: verify and bound on all three "
           "benchmarks at the CLI defaults plus the K_v advisory, no simulation.")

    @dataclass(frozen=True)
    class Params:
        benchmarks: tuple = ("ball-beam", "vtol-nonsmooth", "vtol-two-phase")
        samples: int = 1000

    def setup(self) -> dict:
        self.ball_beam = bench.get_benchmark("ball-beam")
        self.specs = [
            cli.RunSpec(command=command, benchmark=name, samples=self.params.samples,
                        out=str(self.out / f"{name}-{command}"))
            for name in self.params.benchmarks
            for command in ("verify", "bound")
        ]
        return {}

    def ops(self, round_index: int) -> list:
        ops = []
        for spec in self.specs:
            shutil.rmtree(spec.out, ignore_errors=True)
            observe = self._observe_verify if spec.command == "verify" else self._observe_bound
            ops.append(Op(
                key=f"{spec.command}/{spec.benchmark}",
                execute=partial(self._run, spec),
                invariants=partial(self._check, spec),
                observe=partial(observe, Path(spec.out)),
                work=partial(self._points, spec),
            ))
        if "ball-beam" in self.params.benchmarks:
            constants_json = self.out / "ball-beam-bound" / "constants.json"
            ops.append(Op("kv_advisory/ball-beam", partial(self._advisory, constants_json),
                          observe=plain))
        return ops

    @staticmethod
    def _run(spec) -> int:
        return cli.run(spec)

    @staticmethod
    def _check(spec, code: int) -> list:
        problems = [] if code == 0 else [f"exit code {code}"]
        if spec.command == "bound":
            payload = json.loads((Path(spec.out) / "constants.json").read_text())
            if payload["validation_violations"]:
                problems.append(f"{payload['validation_violations']} constant-validation "
                                "violations")
        return problems

    @staticmethod
    def _observe_verify(out_dir: Path, code: int) -> dict:
        report = json.loads((out_dir / "matching.json").read_text())["report"]
        return {"exit_code": code, "report": {k: report[k] for k in MATCHING_KEYS}}

    @staticmethod
    def _observe_bound(out_dir: Path, code: int) -> dict:
        constants = json.loads((out_dir / "constants.json").read_text())
        payload = json.loads((out_dir / "bounds.json").read_text())
        return {
            "exit_code": code,
            "constants": constants["constants"],
            "validation_violations": constants["validation_violations"],
            "report": {k: payload["report"][k] for k in REPORT_KEYS},
        }

    @staticmethod
    def _points(spec, code: int) -> dict:
        if spec.command == "verify":
            return {"points": spec.samples}
        constants = json.loads((Path(spec.out) / "constants.json").read_text())
        return {"points": constants["constants"]["samples"] + min(spec.samples * 10, 10_000)}

    def _advisory(self, constants_json: Path):
        """K_v advisory from the constants the bound pipeline just wrote."""
        fields = json.loads(constants_json.read_text())["constants"]
        constants = bounds.BoundConstants(
            **{k: np.asarray(v) if isinstance(v, list) else v for k, v in fields.items()}
        )
        return bounds.kv_advisory(self.ball_beam.system, self.ball_beam.target, constants)


class Nominal(Workload):
    name = "nominal"
    why = ("One long trajectory at a time from the published starts at the published "
           "steps, every step recorded and written as CSV.")

    step_sizes = {"ball_beam_dt": NOMINAL_BALL_BEAM_DT, "two_phase_dt": TWO_PHASE_DT}

    @dataclass(frozen=True)
    class Params:
        ball_beam_t_end: float = 10.0
        two_phase_t_end: float = 4.0
        samples: int = 1000
        phase2_samples: int = 200

    def setup(self) -> dict:
        self.ball_beam = bench.get_benchmark("ball-beam")
        _, self.report = self.ball_beam.certificate(samples=self.params.samples)
        self.two_phase = bench.get_benchmark("vtol-two-phase")
        self._phase2_checked = {}
        return {"ball-beam-certificate": report_view(self.report)}

    def ops(self, round_index: int) -> list:
        return [
            Op("ball-beam", self._run_ball_beam, self._check_ball_beam,
               self._observe_ball_beam, self._steps),
            Op("vtol-two-phase", self._run_two_phase, self._check_two_phase,
               self._observe_two_phase, self._steps, self._switch_reference),
        ]

    @staticmethod
    def _steps(out) -> dict:
        traj, _ = out
        return {"steps": len(traj) - 1}

    def _run_ball_beam(self):
        bb, pr = self.ball_beam, self.params
        cfg = SimConfig(dt=NOMINAL_BALL_BEAM_DT, t_end=pr.ball_beam_t_end,
                        monitors=("energy_decrease", "momentum_bound", "control_bound"))
        traj = sim.simulate(bb.system, bb.make_controller(), bb.initial_state, cfg,
                            target=bb.target, bound_report=self.report)
        path = self.out / "ball-beam.csv"
        traj.to_csv(path)
        return traj, path

    def _observe_ball_beam(self, out) -> dict:
        traj, path = out
        return plain({
            "records": len(traj),
            "csv_rows": csv_rows(path),
            "final_q": traj.q[-1],
            "final_p": traj.p[-1],
            "final_tau": traj.tau[-1],
            "hd_start": traj.hd[0],
            "hd_end": traj.hd[-1],
            "peak_p_norm": np.max(traj.p_norm),
            "peak_ptilde_norm": np.max(traj.ptilde_norm),
            "peak_tau_abs": np.max(np.abs(traj.tau), axis=0),
        })

    def _check_ball_beam(self, out) -> list:
        traj, _ = out
        problems = [f"monitor event {kind} at t={t}" for t, kind, _ in traj.events[:3]]
        return problems + strict_problems(traj, *strict_bounds(self.report))

    def _run_two_phase(self):
        vt = self.two_phase
        cfg = SimConfig(dt=TWO_PHASE_DT, t_end=self.params.two_phase_t_end,
                        monitors=("phase_switch",))
        traj = sim.simulate(vt.system, vt.make_controller(), vt.initial_state, cfg,
                            target=vt.target)
        path = self.out / "vtol-two-phase.csv"
        traj.to_csv(path)
        return traj, path

    @staticmethod
    def _switches(traj) -> list:
        return [t for t, kind, _ in traj.events if kind == "phase_switch"]

    def _switch_reference(self, out) -> dict:
        """The switch time, captured with the goldens from the phase_switch event."""
        traj, _ = out
        return {"switch_time": self._switches(traj)[0]}

    def _switch_time(self) -> float:
        return self.references["vtol-two-phase"]["switch_time"]

    def _phase1_cut(self) -> int:
        """Last record gated on goldens: two steps before the reference switch, so
        it is phase 1 whichever RK4 stage latches the switch."""
        return int(round(self._switch_time() / TWO_PHASE_DT)) - 2

    def _observe_two_phase(self, out) -> dict:
        traj, path = out
        cut = self._phase1_cut()
        g = self.two_phase.params.g
        return plain({
            "records": len(traj),
            "csv_rows": csv_rows(path),
            "phase1_t": traj.times[cut],
            "phase1_q": traj.q[cut],
            "phase1_p": traj.p[cut],
            "phase1_tau": traj.tau[cut],
            "phase1_hd": traj.hd[cut],
            "phase1_peak_tau1_dev": np.max(np.abs(traj.tau[: cut + 1, 0] - g)),
            "phase1_peak_tau2": np.max(np.abs(traj.tau[: cut + 1, 1])),
        })

    def _check_two_phase(self, out) -> list:
        """Post-switch invariants; none depends on which RK4 stage latched the switch."""
        traj, _ = out
        switches = self._switches(traj)
        if len(switches) != 1:
            return [f"expected one phase switch, got {len(switches)}"]
        problems = []
        switch_time = self._switch_time()
        if abs(switches[0] - switch_time) > TWO_PHASE_DT + 1e-12:
            problems.append(f"switch at t={switches[0]}, not within a step of {switch_time}")
        cut = self._phase1_cut()
        if np.any(traj.phase[: cut + 1] != 1) or np.any(np.diff(traj.phase) < 0):
            problems.append("phase sequence is not 1...1 then 2...2")
        if traj.phase[-1] != 2:
            return problems + ["run ends before phase 2"]
        first2 = int(np.argmax(traj.phase == 2))
        problems += hd_rise_problems(traj, start=first2)
        # the phase-2 certificate starts from the first accepted phase-2 state
        key = (traj.q[first2].tobytes(), traj.p[first2].tobytes())
        if key not in self._phase2_checked:
            s2 = ConfigState(q=traj.q[first2], p=traj.p[first2])
            _, r2 = self.two_phase.certificate(s0=s2, samples=self.params.phase2_samples)
            self._phase2_checked[key] = strict_bounds(r2)
        return problems + strict_problems(traj, *self._phase2_checked[key], start=first2)


class Sweep(Workload):
    name = "sweep"
    why = ("Many short certified runs from seeded random starts, the soundness "
           "sweep that batched RK4 is meant to grow.")

    step_sizes = {"ball_beam_dt": SWEEP_BALL_BEAM_DT, "vtol_dt": SWEEP_VTOL_DT}

    @dataclass(frozen=True)
    class Params:
        ball_beam_starts: int = 2
        vtol_starts: int = 2
        ball_beam_t_end: float = 6.0
        vtol_t_end: float = 8.0
        ball_beam_samples: int = 1000
        vtol_samples: int = 300

    def setup(self) -> dict:
        pr = self.params
        self.ball_beam = bench.get_benchmark("ball-beam")
        self.bb_constants, _ = self.ball_beam.certificate(samples=pr.ball_beam_samples)
        self.vtol = bench.get_benchmark("vtol-nonsmooth")
        self.vt_constants, _ = self.vtol.certificate(samples=pr.vtol_samples)
        return {"ball-beam-constants": plain(self.bb_constants),
                "vtol-constants": plain(self.vt_constants)}

    def ops(self, round_index: int) -> list:
        pr = self.params
        rng = round_rng(self.seed, round_index)
        bb = ball_beam_starts(rng, self.ball_beam.system.workspace, pr.ball_beam_starts)
        vt = vtol_starts(rng, pr.vtol_starts)
        return [
            Op(f"{kind}/{round_index}.{i}", partial(run, q, p), self._check, work=self._steps)
            for kind, run, starts in (("ball-beam", self._run_ball_beam, bb),
                                      ("vtol", self._run_vtol, vt))
            for i, (q, p) in enumerate(starts)
        ]

    @staticmethod
    def _steps(out) -> dict:
        return {"steps": len(out[-1]) - 1}

    def _run_ball_beam(self, q, p):
        bb, pr = self.ball_beam, self.params
        s0 = ConfigState(q=q, p=p)
        _, report = start_certificate(bb, self.bb_constants, s0)
        traj = sim.simulate(bb.system, bb.make_controller(), s0,
                            SimConfig(dt=SWEEP_BALL_BEAM_DT, t_end=pr.ball_beam_t_end),
                            target=bb.target)
        return strict_bounds(report), int(round(pr.ball_beam_t_end / SWEEP_BALL_BEAM_DT)), traj

    def _run_vtol(self, q, p):
        vt, pr = self.vtol, self.params
        s0 = ConfigState(q=q, p=p)
        hd0, report = start_certificate(vt, self.vt_constants, s0)
        conf = vt.roll_confinement(hd0)
        theta = min(max(abs(conf.lower), abs(conf.upper)), vt.params.theta_box)
        effort = vt.effort_certificate(theta)
        traj = sim.simulate(vt.system, vt.make_controller(), s0,
                            SimConfig(dt=SWEEP_VTOL_DT, t_end=pr.vtol_t_end), target=vt.target)
        bound = (report.c_p_strict, report.c_ptilde_strict, effort["tau_center"],
                 effort["tau_upper"])
        return bound, int(round(pr.vtol_t_end / SWEEP_VTOL_DT)), traj

    @staticmethod
    def _check(out) -> list:
        bound, steps, traj = out
        problems = [f"run truncated: {kind} at t={t}" for t, kind, _ in traj.events]
        if len(traj) != steps + 1:
            problems.append(f"{len(traj)} records, expected {steps + 1}")
        return problems + hd_rise_problems(traj) + strict_problems(traj, *bound)


class UserPlant(Workload):
    name = "user-plant"
    why = ("The ball-beam rebuilt without analytic kinetic gradients or annihilator, "
           "the finite-difference and SVD path that custom plants take.")

    step_sizes = {"dt": USER_PLANT_DT}

    @dataclass(frozen=True)
    class Params:
        verify_samples: int = 1000
        starts: int = 3
        t_end: float = 2.0
        samples: int = 200

    def setup(self) -> dict:
        bb = bench.get_benchmark("ball-beam")
        system = dataclasses.replace(bb.system, kinetic_grad=None, annihilator=None)
        target = dataclasses.replace(bb.target, kinetic_d_grad=None)
        self.analytic = bb
        self.user = dataclasses.replace(bb, system=system, target=target)
        self.constants = bounds.estimate_constants(system, target, samples=self.params.samples)
        return {"constants": plain(self.constants)}

    def ops(self, round_index: int) -> list:
        ops = [Op("verify_matching", self._verify, self._check_matching,
                  lambda out: plain({k: getattr(out, k) for k in MATCHING_KEYS}),
                  lambda out: {"points": out.samples})]
        starts = ball_beam_starts(round_rng(self.seed, round_index),
                                  self.user.system.workspace, self.params.starts)
        for i, (q, p) in enumerate(starts):
            ops.append(Op(f"start/{round_index}.{i}", partial(self._run, q, p), self._check_run,
                          work=lambda out: {"steps": len(out[1]) - 1}))
        return ops

    def _verify(self):
        return matching.verify_matching(self.user.system, self.user.target,
                                        samples=self.params.verify_samples,
                                        region=self.user.residual_box)

    @staticmethod
    def _check_matching(report) -> list:
        return [] if report.passes(tol=1e-6) else [f"matching fails: {report}"]

    def _config(self) -> SimConfig:
        return SimConfig(dt=USER_PLANT_DT, t_end=self.params.t_end)

    def _run(self, q, p):
        user = self.user
        s0 = ConfigState(q=q, p=p)
        _, report = start_certificate(user, self.constants, s0)
        traj = sim.simulate(user.system, user.make_controller(), s0, self._config(),
                            target=user.target)
        return report, traj, s0

    def _check_run(self, out) -> list:
        report, traj, s0 = out
        bb = self.analytic
        ref = sim.simulate(bb.system, bb.make_controller(), s0, self._config(), target=bb.target)
        if len(ref) != len(traj):
            return [f"{len(traj)} records, analytic plant gives {len(ref)}"]
        problems = [f"run truncated: {kind} at t={t}" for t, kind, _ in traj.events]
        for field, tol in USER_PLANT_TOL.items():
            gap = float(np.max(np.abs(getattr(traj, field) - getattr(ref, field))))
            if gap > tol:
                problems.append(f"{field} differs from the analytic plant by {gap:.3g} > {tol}")
        return problems + hd_rise_problems(traj) + strict_problems(traj, *strict_bounds(report))


WORKLOADS = {w.name: w for w in (Certify, Nominal, Sweep, UserPlant)}
