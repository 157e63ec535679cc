"""Integrator: order, determinism, monitors, CSV export."""

import csv
import math

import numpy as np
import pytest

from bipbc import Box, ConfigState, MechanicalSystem, SimConfig, check_hd_decrease, simulate
from bipbc.bounds import BoundReport


def particle(n=1, spring=0.0):
    return MechanicalSystem(
        n=n,
        m=n,
        mass_matrix=lambda q: np.eye(n),
        potential=lambda q: 0.5 * spring * float(q @ q),
        potential_grad=lambda q: spring * q,
        input_coupling=lambda q: np.eye(n),
        damping=lambda q: np.zeros((n, n)),
        workspace=Box(lower=-100 * np.ones(n), upper=100 * np.ones(n)),
        kinetic_grad=lambda q, p: np.zeros(n),
    )


def test_free_particle_exact_flow():
    sys = particle()
    traj = simulate(
        sys, None, ConfigState(q=np.zeros(1), p=np.ones(1)), SimConfig(dt=1e-3, t_end=1.0)
    )
    assert traj.q[-1][0] == pytest.approx(1.0, abs=1e-9)
    assert traj.p[-1][0] == pytest.approx(1.0, abs=1e-12)


def oscillator_endpoint_error(dt):
    # unit oscillator: q(t) = cos t from (1, 0)
    sys = particle(spring=1.0)
    traj = simulate(
        sys, None, ConfigState(q=np.ones(1), p=np.zeros(1)), SimConfig(dt=dt, t_end=2.0)
    )
    exact_q = math.cos(2.0)
    exact_p = -math.sin(2.0)
    return math.hypot(traj.q[-1][0] - exact_q, traj.p[-1][0] - exact_p)


def test_rk4_fourth_order():
    e1 = oscillator_endpoint_error(2e-3)
    e2 = oscillator_endpoint_error(1e-3)
    assert e1 / e2 >= 14.0


def test_determinism_bit_identical(ball_beam):
    cfg = SimConfig(dt=2e-3, t_end=1.0)
    a = simulate(ball_beam.system, ball_beam.make_controller(), ball_beam.initial_state,
                 cfg, target=ball_beam.target)
    b = simulate(ball_beam.system, ball_beam.make_controller(), ball_beam.initial_state,
                 cfg, target=ball_beam.target)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
    assert np.array_equal(a.tau, b.tau) and np.array_equal(a.hd, b.hd)


def test_open_loop_conservation_per_step():
    sys = particle(spring=1.0)
    traj = simulate(
        sys, None, ConfigState(q=np.ones(1), p=np.zeros(1)), SimConfig(dt=1e-3, t_end=1.0)
    )
    assert np.max(np.abs(np.diff(traj.hd))) < 1e-9


def test_hd_decrease_clean_run(ball_beam):
    s0 = ConfigState(q=np.array([0.3, -0.05]), p=np.array([0.05, 0.0]))
    traj = simulate(ball_beam.system, ball_beam.make_controller(), s0,
                    SimConfig(dt=1e-3, t_end=3.0), target=ball_beam.target)
    assert check_hd_decrease(traj, tol=1e-6) == []


def test_hd_decrease_injected_fault(ball_beam, bb_trajectory):
    hd = bb_trajectory.hd.copy()
    hd[100] += 1e-3
    import dataclasses

    broken = dataclasses.replace(bb_trajectory, hd=hd)
    violations = check_hd_decrease(broken, tol=1e-6)
    assert len(violations) == 1
    assert violations[0][0] == pytest.approx(bb_trajectory.times[100])


def test_blowup_truncates_with_event():
    n = 1
    unstable = MechanicalSystem(
        n=n,
        m=n,
        mass_matrix=lambda q: np.eye(n),
        potential=lambda q: -0.5 * 1e6 * float(q @ q),
        potential_grad=lambda q: -1e6 * q,
        input_coupling=lambda q: np.eye(n),
        damping=lambda q: np.zeros((n, n)),
        workspace=Box(lower=-np.ones(n) * 1e12, upper=np.ones(n) * 1e12),
        kinetic_grad=lambda q, p: np.zeros(n),
    )
    traj = simulate(unstable, None, ConfigState(q=np.ones(1), p=np.zeros(1)),
                    SimConfig(dt=1e-2, t_end=10.0, blowup_limit=1e6))
    kinds = [kind for _, kind, _ in traj.events]
    assert "blowup" in kinds
    assert traj.times[-1] < 10.0
    assert np.all(np.isfinite(traj.q))


def test_record_stride():
    sys = particle()
    traj = simulate(sys, None, ConfigState(q=np.zeros(1), p=np.ones(1)),
                    SimConfig(dt=1e-3, t_end=1.0, record_stride=10))
    assert len(traj) == 101
    assert traj.times[1] == pytest.approx(0.01)


def test_momentum_and_control_monitors_sound(ball_beam):
    # artificially tight bounds: every event must be recomputable from the sample
    report = BoundReport(
        c_p1=0.05, c_ptilde1=0.01, c_p2=None, c_ptilde2=None,
        c_p=0.05, c_ptilde=0.01, c_p_strict=0.07, c_ptilde_strict=0.014,
        tau_upper=np.array([0.5]), tau_lower=None, tau_center=np.zeros(1),
        tau_upper_strict=np.array([0.7]), hd_t0=0.24,
    )
    traj = simulate(
        ball_beam.system,
        ball_beam.make_controller(),
        ball_beam.initial_state,
        SimConfig(dt=2e-3, t_end=0.5, monitors=("momentum_bound", "control_bound")),
        target=ball_beam.target,
        bound_report=report,
    )
    momentum_events = [e for e in traj.events if e[1] == "momentum_bound"]
    control_events = [e for e in traj.events if e[1] == "control_bound"]
    assert momentum_events and control_events
    times = list(traj.times)
    for t, kind, payload in momentum_events:
        k = times.index(t)
        if "norm_p" in payload:
            assert payload["norm_p"] == pytest.approx(traj.p_norm[k])
            assert traj.p_norm[k] > report.c_p
        else:
            assert traj.ptilde_norm[k] > report.c_ptilde
    for t, kind, payload in control_events:
        k = times.index(t)
        assert np.any(np.abs(traj.tau[k]) > report.tau_upper)


def test_phase_switch_event(vtol_tp_run):
    ctrl, traj = vtol_tp_run
    kinds = [kind for _, kind, _ in traj.events]
    assert "phase_switch" in kinds
    t_switch = [t for t, kind, _ in traj.events if kind == "phase_switch"][0]
    assert t_switch == pytest.approx(ctrl.switch_time)
    assert np.any(traj.phase == 1) and np.any(traj.phase == 2)


def test_csv_schema_and_values(tmp_path, ball_beam):
    s0 = ball_beam.initial_state
    traj = simulate(ball_beam.system, ball_beam.make_controller(), s0,
                    SimConfig(dt=2e-3, t_end=0.2), target=ball_beam.target)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "q_1", "q_2", "p_1", "p_2", "tau_1",
                       "H_d", "norm_p", "norm_ptilde", "phase"]
    assert len(rows) == len(traj) + 1
    # repr round-trip: the stored floats parse back exactly
    k = len(traj) // 2
    parsed = [float(v) for v in rows[k + 1][:-1]]
    assert parsed[0] == traj.times[k]
    assert parsed[1] == traj.q[k][0]
    assert parsed[5] == traj.tau[k][0]
    assert parsed[6] == traj.hd[k]


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ValueError):
        SimConfig(record_stride=0)
    with pytest.raises(ValueError):
        SimConfig(monitors=("bogus",))
