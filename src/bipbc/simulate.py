"""Fixed-step RK4 simulation and the run verdict against a certificate.

The integrated state is (q, p), i.e. momentum rather than velocity, which
keeps the Hamiltonian structure of the model exact in code. The integrator
is the classical 4th-order Runge-Kutta scheme with a fixed step; the
control and the field under it are evaluated together at every stage, the
first stage reusing those of the accepted state, whose tau is recorded. An
`IdaPbcLaw` on the simulated plant gives tau, the field and ptilde from one
plant evaluation; a law of formulas and constants gives them from its
generated straight-line function (see `controller.IdaPbcLaw`), bit for bit
the law it replaces, which takes the state's float entries. The state, its
RK4 stage states, the step's combination x + dt/6 (k1 + 2 k2 + 2 k3 + k4)
and the blowup test are Python floats, associated and so rounded as the
numpy expressions. Identical inputs produce bit-identical trajectories.

A run is checked against its certificate after it ends, on the recorded
samples, by two array functions: `check_hd_decrease` (H_d does not rise)
and `bound_exceedances` (the records outside a momentum or effort bound).
The monitors of `SimConfig`, the CLI's violation counts and the test
sweeps all read them.

One simulation per thread; independent runs may execute in parallel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .controller import IdaPbcLaw, TargetDynamics, TwoPhaseController, mass_d_solve
from .errors import ToolkitError
from .phcore import ConfigState, MechanicalSystem, open_loop_field_raw
# solve_checked is unused here; perfbench's tracer wraps this attribute
from .smalllinalg import solve_checked  # noqa: F401

Controller = Union[None, TwoPhaseController, Callable[[float, np.ndarray, np.ndarray], np.ndarray]]

#: monitor names accepted by SimConfig
MONITORS = ("energy_decrease", "momentum_bound", "control_bound", "phase_switch")
#: H_d may rise by at most HD_TOL per unit time before "energy_decrease" flags it
HD_TOL = 1e-6
#: a run ends with a "blowup" event once a state component leaves [-BLOWUP_LIMIT, BLOWUP_LIMIT]
BLOWUP_LIMIT = 1e9
#: records per write of `Trajectory.to_csv`, which bounds its temporaries
_CSV_BLOCK = 16


@dataclass(frozen=True)
class SimConfig:
    """Integration settings and active monitors."""

    dt: float = 1e-3
    t_end: float = 10.0
    record_stride: int = 1
    monitors: Tuple[str, ...] = ()

    def __post_init__(self):
        if any(isinstance(v, bool) for v in (self.dt, self.t_end, self.record_stride)):
            raise ValueError("dt, t_end and record_stride must be numbers, not booleans")
        if not 0.0 < self.dt <= self.t_end < float("inf"):
            raise ValueError("need 0 < dt <= t_end, both finite")
        if not isinstance(self.record_stride, numbers.Integral) or self.record_stride < 1:
            raise ValueError("record_stride must be an integer >= 1")
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
        """Write the fixed column schema: t, q_*, p_*, tau_*, H_d, norms, phase.

        Floats are written as their repr, the phase as an integer, with
        "\r\n" line ends, `_CSV_BLOCK` records at a time: each block's float
        columns are stacked and converted to Python floats at once.
        """
        n = self.q.shape[1]
        m = self.tau.shape[1]
        header = (
            ["t"]
            + [f"q_{i + 1}" for i in range(n)]
            + [f"p_{i + 1}" for i in range(n)]
            + [f"tau_{i + 1}" for i in range(m)]
            + ["H_d", "norm_p", "norm_ptilde", "phase"]
        )
        columns = (self.times[:, None], self.q, self.p, self.tau, self.hd[:, None],
                   self.p_norm[:, None], self.ptilde_norm[:, None])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for start in range(0, len(self), _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                rows = np.hstack([c[block] for c in columns]).tolist()
                fh.writelines(f"{','.join(map(repr, row))},{int(phase)}\r\n"
                              for row, phase in zip(rows, self.phase[block].tolist()))


def _evaluator(sys: MechanicalSystem, law, target, tau_of):
    """(t, xs) -> (tau, field, ptilde or None) entries at the state's entries `xs`.

    An IdaPbcLaw on `sys` gives all three from one plant evaluation (`_fast`),
    ptilde None unless `target` is its own. Any other law is `tau_of` on arrays,
    of m entries, and the open-loop field under it.
    """
    n, m = sys.n, sys.m
    if isinstance(law, IdaPbcLaw) and law.sys is sys:
        own = law.tgt is target

        def fused(t, xs):
            tau, field, pt = law._fast(xs)
            return tau, field, pt if own else None

        return fused

    def plain(t, xs):
        q, p = np.array(xs[:n]), np.array(xs[n:])
        tau = np.atleast_1d(np.asarray(tau_of(t, q, p), dtype=float))
        if tau.shape != (m,):
            raise TypeError(f"the controller returned tau of shape {tau.shape}, not ({m},)")
        return tau.tolist(), open_loop_field_raw(sys, q, p, tau).tolist(), None

    return plain


def simulate(sys: MechanicalSystem, controller: Controller, s0: ConfigState, cfg: SimConfig,
             target: Optional[TargetDynamics] = None, bound_report=None) -> Trajectory:
    """Integrate the plant under a feedback law.

    Args:
        controller: callable (t, q, p) -> tau (such as an IdaPbcLaw), a
            TwoPhaseController, or None for the unforced plant.
        target: closed-loop design used to record H_d and ptilde norms.
        bound_report: BoundReport supplying c_p / c_ptilde / tau bounds for
            the momentum_bound and control_bound monitors.

    The monitors run on the finished trajectory and append their events
    after those of the run: "energy_decrease" (time, {"rise"}) for each
    rise of `check_hd_decrease`, "momentum_bound" (time, {"norm_p"} or
    {"norm_ptilde"}) and "control_bound" (time, {"tau"}) for each record
    that `bound_exceedances` flags against the published bounds, in record
    order.

    The control and the field under it are evaluated together, once at each
    accepted state (the start and the end of each step) and at each interior
    RK4 stage (k2 to k4): the accepted state's tau is recorded and its field
    is the next step's k1. A TwoPhaseController starts in phase 1; its switch
    predicate is tested at each accepted state, and the first state where it
    holds and every later one are in phase 2, so each step integrates under
    one law. That state and its time are `Trajectory.switch_state` and
    `switch_time`. A phase ruled by an `IdaPbcLaw` on `sys` takes tau, the
    field and, when `target` is the law's own, the recorded ptilde from one
    evaluation (`IdaPbcLaw._fast`, on the state's float entries). Any other
    law's tau, of m entries (TypeError otherwise), goes to the open-loop
    field. Without a `target`, the recorded open-loop energy takes M^-1 p from
    the first n entries of k1.

    The start state must have the plant's n coordinates (ValueError
    otherwise). The run ends at the last accepted state with a "blowup" event
    if any state component leaves [-BLOWUP_LIMIT, BLOWUP_LIMIT] or becomes
    non-finite, and with a "domain_exit" event, that state unrecorded, if
    evaluating the plant, target or controller after the start raises
    ValueError or ToolkitError. Such errors at the start state propagate.
    """
    if s0.q.size != sys.n:
        raise ValueError(f"the start state has {s0.q.size} coordinates, the plant {sys.n}")
    if isinstance(controller, TwoPhaseController):
        evaluators = {ph: _evaluator(sys, law, target, partial(controller.control, phase=ph))
                      for ph, law in ((1, controller.primary_law), (2, controller.secondary_law))}
    else:
        zero = np.zeros(sys.m)
        tau_of = (lambda t, q, p: zero) if controller is None else controller
        evaluators = {0: _evaluator(sys, controller, target, tau_of)}
    n = sys.n
    x = np.concatenate([s0.q, s0.p]).astype(float).tolist()
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

    def accept(t: float, xs: list, phase: int):
        """(phase, tau, k1, ptilde) at an accepted state, switching to phase 2 if due."""
        if phase == 1 and controller.switch_predicate(np.array(xs[:n]), np.array(xs[n:])):
            phase = 2
        return (phase, *evaluators[phase](t, xs))

    def record(idx: int, t: float, xs: list, tau, phase: int, pt, k1) -> None:
        times[idx] = t
        qs[idx], ps[idx] = xs[:n], xs[n:]
        taus[idx] = tau
        q, p = qs[idx], ps[idx]
        p_norms[idx] = math.sqrt(float(p @ p))
        if target is not None:
            pt = mass_d_solve(target, q, p) if pt is None else np.array(pt)
            hds[idx] = 0.5 * float(p @ pt) + float(target.potential_d(q))
            pt_norms[idx] = math.sqrt(float(pt @ pt))
        else:  # qdot = M^-1 p, the first n entries of the field
            hds[idx] = 0.5 * float(p @ k1[:n]) + float(sys.potential(q))
            pt_norms[idx] = np.nan
        phases[idx] = phase

    switch_time: Optional[float] = None
    switch_state: Optional[ConfigState] = None

    def switch(t: float, xs: list) -> None:
        nonlocal switch_time, switch_state
        switch_time = t
        switch_state = ConfigState(q=xs[:n], p=xs[n:])
        if "phase_switch" in cfg.monitors:
            events.append((t, "phase_switch", {}))

    phase, tau, k1, pt = accept(0.0, x, 1 if isinstance(controller, TwoPhaseController) else 0)
    if phase == 2:
        switch(0.0, x)
    record(0, 0.0, x, tau, phase, pt, k1)
    rec = 1
    dt = cfg.dt
    half, dt6 = 0.5 * dt, dt / 6.0
    for k in range(steps):
        t = k * dt
        t_next = (k + 1) * dt
        recorded = (k + 1) % cfg.record_stride == 0
        try:
            stage = evaluators[phase]
            # x + (dt/2) k, x + dt k and x + dt/6 (k1 + 2 k2 + 2 k3 + k4), associated as numpy's
            k2 = stage(t + half, [xi + half * a for xi, a in zip(x, k1)])[1]
            k3 = stage(t + half, [xi + half * a for xi, a in zip(x, k2)])[1]
            k4 = stage(t + dt, [xi + dt * a for xi, a in zip(x, k3)])[1]
            x_next = [xi + dt6 * (a + 2.0 * b + 2.0 * c + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
            # NaN fails the comparison and +-inf exceeds the limit
            if not all(abs(v) <= BLOWUP_LIMIT for v in x_next):
                events.append((t + dt, "blowup", {"state": np.array(x_next)}))
                break
            phase_next, tau, k1, pt = accept(t_next, x_next, phase)
            if recorded:
                record(rec, t_next, x_next, tau, phase_next, pt, k1)
        except (ValueError, ToolkitError) as exc:
            events.append((t + dt, "domain_exit", {"error": str(exc)}))
            break
        x = x_next
        if phase_next != phase:
            phase = phase_next
            switch(t_next, x)
        if recorded:
            rec += 1

    traj = Trajectory(times[:rec], qs[:rec], ps[:rec], taus[:rec], hds[:rec], p_norms[:rec],
                      pt_norms[:rec], phases[:rec], events, switch_time, switch_state)
    _run_monitors(traj, cfg, bound_report)
    return traj


def _run_monitors(traj: Trajectory, cfg: SimConfig, bound_report) -> None:
    if "energy_decrease" in cfg.monitors:
        rises = check_hd_decrease(traj, HD_TOL)
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
