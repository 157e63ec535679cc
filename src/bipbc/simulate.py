"""Fixed-step RK4 simulation and the run verdict against a certificate.

The integrated state is (q, p), i.e. momentum rather than velocity, which
keeps the Hamiltonian structure of the model exact in code. The integrator
is the classical 4th-order Runge-Kutta scheme with a fixed step; the
control is evaluated at every stage, the first stage reusing the value
recorded at the accepted state. Identical inputs produce bit-identical
trajectories.

A run is checked against its certificate after it ends, on the recorded
samples, by two array functions: `check_hd_decrease` (H_d does not rise)
and `bound_exceedances` (the records outside a momentum or effort bound).
The monitors of `SimConfig`, the CLI's violation counts and the test
sweeps all read them.

One simulation per thread; independent runs may execute in parallel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .controller import TargetDynamics, TwoPhaseController, mass_d_solve
from .errors import SingularMass, ToolkitError
from .phcore import ConfigState, MechanicalSystem, open_loop_field_raw
from .smalllinalg import solve_checked

Controller = Union[None, TwoPhaseController, Callable[[float, np.ndarray, np.ndarray], np.ndarray]]

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
    otherwise. `events` is a list of (time, kind, payload). `switch_time` and
    `switch_state` give the accepted state at which a two-phase run entered
    phase 2 (None without a switch).
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
    switch_time: Optional[float] = None
    switch_state: Optional[ConfigState] = None

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


def _law_of(controller: Controller, m: int):
    """The control law as a function of (t, q, p, phase)."""
    if isinstance(controller, TwoPhaseController):
        return controller.control
    if controller is None:
        zero = np.zeros(m)
        return lambda t, q, p, phase: zero
    return lambda t, q, p, phase: controller(t, q, p)


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

    The monitors run on the finished trajectory and append their events
    after those of the run: "energy_decrease" (time, {"rise"}) for each
    rise of `check_hd_decrease`, "momentum_bound" (time, {"norm_p"} or
    {"norm_ptilde"}) and "control_bound" (time, {"tau"}) for each record
    that `bound_exceedances` flags against the published bounds, in record
    order.

    The control is evaluated once at each accepted state (the start and the
    end of each step): that value is recorded and drives the step's first
    RK4 stage. A TwoPhaseController starts in phase 1; its switch predicate
    is tested at each accepted state, and the first state where it holds
    and every later one are in phase 2, so each step integrates under one
    law. That state and its time are `Trajectory.switch_state` and
    `switch_time`.

    The run ends at the last accepted state with a "blowup" event if any
    state component leaves [-blowup_limit, blowup_limit] or becomes
    non-finite, and with a "domain_exit" event if evaluating the plant,
    target or controller after the start raises ValueError or ToolkitError.
    Such errors at the start state propagate.
    """
    law = _law_of(controller, sys.m)
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

    def tau_at(t: float, xv: np.ndarray, phase: int) -> np.ndarray:
        return np.atleast_1d(np.asarray(law(t, xv[:n], xv[n:], phase), dtype=float))

    def field_at(t: float, xv: np.ndarray, phase: int) -> np.ndarray:
        return open_loop_field_raw(sys, xv[:n], xv[n:], tau_at(t, xv, phase))

    def accept(t: float, xv: np.ndarray, phase: int):
        """(phase, tau) at an accepted state, switching to phase 2 if due."""
        if phase == 1 and controller.switch_predicate(xv[:n], xv[n:]):
            phase = 2
        return phase, tau_at(t, xv, phase)

    def record(idx: int, t: float, xv: np.ndarray, tau: np.ndarray, phase: int) -> None:
        q, p = xv[:n].copy(), xv[n:].copy()
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
        phases[idx] = phase

    switch_time: Optional[float] = None
    switch_state: Optional[ConfigState] = None

    def switch(t: float, xv: np.ndarray) -> None:
        nonlocal switch_time, switch_state
        switch_time = t
        switch_state = ConfigState(q=xv[:n].copy(), p=xv[n:].copy())
        if "phase_switch" in cfg.monitors:
            events.append((t, "phase_switch", {}))

    phase, tau = accept(0.0, x, 1 if isinstance(controller, TwoPhaseController) else 0)
    if phase == 2:
        switch(0.0, x)
    record(0, 0.0, x, tau, phase)
    rec = 1
    dt = cfg.dt
    for k in range(steps):
        t = k * dt
        t_next = (k + 1) * dt
        recorded = (k + 1) % cfg.record_stride == 0
        try:
            k1 = open_loop_field_raw(sys, x[:n], x[n:], tau)
            k2 = field_at(t + 0.5 * dt, x + 0.5 * dt * k1, phase)
            k3 = field_at(t + 0.5 * dt, x + 0.5 * dt * k2, phase)
            k4 = field_at(t + dt, x + dt * k3, phase)
            x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(x_next)) or np.max(np.abs(x_next)) > cfg.blowup_limit:
                events.append((t + dt, "blowup", {"state": x_next.copy()}))
                break
            phase_next, tau = accept(t_next, x_next, phase)
            if recorded:
                record(rec, t_next, x_next, tau, phase_next)
        except (ValueError, ToolkitError) as exc:
            events.append((t + dt, "domain_exit", {"error": str(exc)}))
            break
        x = x_next
        if phase_next != phase:
            phase = phase_next
            switch(t_next, x)
        if recorded:
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
        switch_time=switch_time,
        switch_state=switch_state,
    )
    _run_monitors(traj, cfg, bound_report)
    return traj


def _run_monitors(traj: Trajectory, cfg: SimConfig, bound_report) -> None:
    if "energy_decrease" in cfg.monitors:
        rises = check_hd_decrease(traj, cfg.hd_tol)
        traj.events.extend((t, "energy_decrease", {"rise": rise}) for t, rise in rises)
    if bound_report is None:
        return
    r = bound_report
    over_p, over_pt, over_tau = bound_exceedances(
        traj, r.c_p, r.c_ptilde, r.tau_center, r.tau_upper
    )
    if "momentum_bound" in cfg.monitors:
        for k in np.flatnonzero(over_p | over_pt):
            if over_p[k]:
                traj.events.append(
                    (traj.times[k], "momentum_bound", {"norm_p": float(traj.p_norm[k])})
                )
            if over_pt[k]:
                traj.events.append(
                    (traj.times[k], "momentum_bound", {"norm_ptilde": float(traj.ptilde_norm[k])})
                )
    if "control_bound" in cfg.monitors:
        traj.events.extend(
            (traj.times[k], "control_bound", {"tau": traj.tau[k].copy()})
            for k in np.flatnonzero(over_tau)
        )


def bound_exceedances(
    traj: Trajectory, c_p: float, c_ptilde: float, tau_center, tau_upper, start_index: int = 0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-record masks of the records that leave a momentum or effort certificate.

    Returns three boolean arrays of length len(traj): ||p|| > c_p,
    ||ptilde|| > c_ptilde (a NaN norm, recorded without a target, never
    exceeds) and |tau_i - tau_center_i| > tau_upper_i for some i. Records
    before `start_index`, e.g. the primary phase of a two-phase run, are
    False.
    """
    certified = np.arange(len(traj)) >= start_index
    dev = np.abs(traj.tau - np.asarray(tau_center, dtype=float))
    return (
        certified & (traj.p_norm > c_p),
        certified & (traj.ptilde_norm > c_ptilde),
        certified & np.any(dev > np.asarray(tau_upper, dtype=float), axis=1),
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
    rise = np.diff(traj.hd[start_index:])
    up = np.flatnonzero(rise > tol * np.diff(traj.times[start_index:]))
    return list(zip(traj.times[start_index + 1 + up].tolist(), rise[up].tolist()))
