"""Fixed-step RK4 simulation with per-step energy and bound monitoring.

The integrated state is (q, p), i.e. momentum rather than velocity, which
keeps the Hamiltonian structure of the model exact in code. The integrator
is the classical 4th-order Runge-Kutta scheme with a fixed step; controls
are re-evaluated at every stage. Identical inputs produce bit-identical
trajectories.

One simulation per thread; independent runs may execute in parallel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .controller import TargetDynamics, mass_d_solve
from .errors import SingularMass
from .phcore import ConfigState, MechanicalSystem, open_loop_field_raw
from .smalllinalg import solve_checked

Controller = Union[None, Callable[[float, np.ndarray, np.ndarray], np.ndarray]]

#: monitor names accepted by SimConfig
MONITORS = ("energy_decrease", "momentum_bound", "control_bound", "phase_switch")


@dataclass(frozen=True)
class SimConfig:
    """Integration settings and active monitors."""

    dt: float = 1e-3
    t_end: float = 10.0
    record_stride: int = 1
    monitors: Tuple[str, ...] = ()
    hd_tol: float = 1e-6
    blowup_limit: float = 1e9

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.dt > self.t_end:
            raise ValueError("need 0 < dt <= t_end")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        unknown = set(self.monitors) - set(MONITORS)
        if unknown:
            raise ValueError(f"unknown monitors: {sorted(unknown)}")


@dataclass
class Trajectory:
    """Sampled closed- or open-loop run.

    `hd` holds the closed-loop energy H_d when a target design was supplied
    to `simulate`, otherwise the open-loop total energy. `ptilde_norm` is
    NaN without a target. `phase` is 1/2 for two-phase controllers and 0
    otherwise. `events` is a list of (time, kind, payload).
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    tau: np.ndarray
    hd: np.ndarray
    p_norm: np.ndarray
    ptilde_norm: np.ndarray
    phase: np.ndarray
    events: List[tuple] = field(default_factory=list)

    def __len__(self) -> int:
        return self.times.size

    def to_csv(self, path) -> None:
        """Write the fixed column schema: t, q_*, p_*, tau_*, H_d, norms, phase."""
        n = self.q.shape[1]
        m = self.tau.shape[1]
        header = (
            ["t"]
            + [f"q_{i + 1}" for i in range(n)]
            + [f"p_{i + 1}" for i in range(n)]
            + [f"tau_{i + 1}" for i in range(m)]
            + ["H_d", "norm_p", "norm_ptilde", "phase"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                row = (
                    [repr(float(self.times[k]))]
                    + [repr(float(x)) for x in self.q[k]]
                    + [repr(float(x)) for x in self.p[k]]
                    + [repr(float(x)) for x in self.tau[k]]
                    + [
                        repr(float(self.hd[k])),
                        repr(float(self.p_norm[k])),
                        repr(float(self.ptilde_norm[k])),
                        str(int(self.phase[k])),
                    ]
                )
                writer.writerow(row)


def _control_of(controller: Controller, m: int):
    if controller is None:
        zero = np.zeros(m)
        return lambda t, q, p: zero
    return controller


def simulate(
    sys: MechanicalSystem,
    controller: Controller,
    s0: ConfigState,
    cfg: SimConfig,
    target: Optional[TargetDynamics] = None,
    bound_report=None,
) -> Trajectory:
    """Integrate the plant under a feedback law.

    Args:
        controller: callable (t, q, p) -> tau, a TwoPhaseController, or None
            for the unforced plant.
        target: closed-loop design used to record H_d and ptilde norms.
        bound_report: BoundReport supplying c_p / c_ptilde / tau bounds for
            the momentum_bound and control_bound monitors.

    The run truncates (with a "blowup" event) if any state component leaves
    [-blowup_limit, blowup_limit] or becomes non-finite.
    """
    control = _control_of(controller, sys.m)
    n = sys.n
    x = np.concatenate([s0.q, s0.p]).astype(float)
    steps = int(round(cfg.t_end / cfg.dt))
    n_records = steps // cfg.record_stride + 1

    times = np.empty(n_records)
    qs = np.empty((n_records, n))
    ps = np.empty((n_records, n))
    taus = np.empty((n_records, sys.m))
    hds = np.empty(n_records)
    p_norms = np.empty(n_records)
    pt_norms = np.empty(n_records)
    phases = np.empty(n_records, dtype=int)
    events: List[tuple] = []

    def field_at(t: float, xv: np.ndarray) -> np.ndarray:
        q, p = xv[:n], xv[n:]
        tau = np.atleast_1d(np.asarray(control(t, q, p), dtype=float))
        return open_loop_field_raw(sys, q, p, tau)

    def record(idx: int, t: float, xv: np.ndarray) -> None:
        q, p = xv[:n].copy(), xv[n:].copy()
        tau = np.atleast_1d(np.asarray(control(t, q, p), dtype=float))
        times[idx] = t
        qs[idx] = q
        ps[idx] = p
        taus[idx] = tau
        p_norms[idx] = np.linalg.norm(p)
        if target is not None:
            pt = mass_d_solve(target, q, p)
            hds[idx] = 0.5 * float(p @ pt) + float(target.potential_d(q))
            pt_norms[idx] = np.linalg.norm(pt)
        else:
            hds[idx] = 0.5 * float(p @ solve_checked(sys.mass_matrix(q), p, SingularMass)) + float(
                sys.potential(q)
            )
            pt_norms[idx] = np.nan
        phases[idx] = getattr(controller, "phase", 0)

    switch_seen = getattr(controller, "switched", False)
    record(0, 0.0, x)
    rec = 1
    dt = cfg.dt
    for k in range(steps):
        t = k * dt
        k1 = field_at(t, x)
        k2 = field_at(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = field_at(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = field_at(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > cfg.blowup_limit:
            events.append((t + dt, "blowup", {"state": x.copy()}))
            break
        if not switch_seen and getattr(controller, "switched", False):
            switch_seen = True
            if "phase_switch" in cfg.monitors:
                events.append(
                    (getattr(controller, "switch_time", t + dt), "phase_switch", {})
                )
        if (k + 1) % cfg.record_stride == 0:
            record(rec, (k + 1) * dt, x)
            rec += 1

    traj = Trajectory(
        times=times[:rec],
        q=qs[:rec],
        p=ps[:rec],
        tau=taus[:rec],
        hd=hds[:rec],
        p_norm=p_norms[:rec],
        ptilde_norm=pt_norms[:rec],
        phase=phases[:rec],
        events=events,
    )
    _run_monitors(traj, cfg, bound_report)
    return traj


def _run_monitors(traj: Trajectory, cfg: SimConfig, bound_report) -> None:
    if "energy_decrease" in cfg.monitors:
        for t, rise in check_hd_decrease(traj, cfg.hd_tol):
            traj.events.append((t, "energy_decrease", {"rise": rise}))
    if bound_report is None:
        return
    if "momentum_bound" in cfg.monitors:
        for k in range(len(traj)):
            if traj.p_norm[k] > bound_report.c_p:
                traj.events.append(
                    (traj.times[k], "momentum_bound", {"norm_p": float(traj.p_norm[k])})
                )
            if np.isfinite(traj.ptilde_norm[k]) and traj.ptilde_norm[k] > bound_report.c_ptilde:
                traj.events.append(
                    (
                        traj.times[k],
                        "momentum_bound",
                        {"norm_ptilde": float(traj.ptilde_norm[k])},
                    )
                )
    if "control_bound" in cfg.monitors:
        center = getattr(bound_report, "tau_center", None)
        upper = np.asarray(bound_report.tau_upper, dtype=float)
        offset = np.zeros(upper.size) if center is None else np.asarray(center, dtype=float)
        for k in range(len(traj)):
            exceed = np.abs(traj.tau[k] - offset) - upper
            if np.any(exceed > 0):
                traj.events.append(
                    (traj.times[k], "control_bound", {"tau": traj.tau[k].copy()})
                )


def check_hd_decrease(
    traj: Trajectory, tol: float, start_index: int = 0
) -> List[Tuple[float, float]]:
    """Steps at which H_d rose by more than tol * (time step).

    Returns (time, rise) pairs for every recorded step where
    hd[k+1] - hd[k] > tol * (t[k+1] - t[k]). `start_index` skips early
    samples, e.g. the primary phase of a two-phase run, where the target
    energy is not yet a Lyapunov function.
    """
    out: List[Tuple[float, float]] = []
    for k in range(start_index, len(traj) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        rise = traj.hd[k + 1] - traj.hd[k]
        if rise > tol * dt:
            out.append((float(traj.times[k + 1]), float(rise)))
    return out
