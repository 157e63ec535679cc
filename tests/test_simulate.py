"""Integrator: order, determinism, monitors, CSV export."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from bipbc import (
    Box,
    ConfigState,
    MechanicalSystem,
    SimConfig,
    TargetDynamics,
    TwoPhaseController,
    check_hd_decrease,
    simulate,
)
from bipbc.bounds import BoundReport
from bipbc.simulate import _run_monitors, bound_exceedances


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


def reference_run_monitors(traj, cfg, bound_report):
    """The per-record loops the vectorized monitors replaced."""
    if "energy_decrease" in cfg.monitors:
        for t, rise in reference_check_hd_decrease(traj, cfg.hd_tol):
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
                    (traj.times[k], "momentum_bound", {"norm_ptilde": float(traj.ptilde_norm[k])})
                )
    if "control_bound" in cfg.monitors:
        upper = np.asarray(bound_report.tau_upper, dtype=float)
        center = np.asarray(bound_report.tau_center, dtype=float)
        for k in range(len(traj)):
            if np.any(np.abs(traj.tau[k] - center) - upper > 0):
                traj.events.append((traj.times[k], "control_bound", {"tau": traj.tau[k].copy()}))


def reference_check_hd_decrease(traj, tol, start_index=0):
    out = []
    for k in range(start_index, len(traj) - 1):
        rise = traj.hd[k + 1] - traj.hd[k]
        if rise > tol * (traj.times[k + 1] - traj.times[k]):
            out.append((float(traj.times[k + 1]), float(rise)))
    return out


def assert_same_events(got, want):
    assert len(got) == len(want)
    for (t, kind, payload), (t_ref, kind_ref, payload_ref) in zip(got, want):
        assert (type(t), t, kind) == (type(t_ref), t_ref, kind_ref)
        assert payload.keys() == payload_ref.keys()
        for key, value in payload.items():
            assert type(value) is type(payload_ref[key])
            assert np.array_equal(value, payload_ref[key])


@pytest.fixture(scope="module")
def tight_bound_run(ball_beam):
    """Ball-beam run with every monitor on and bounds near the median norms,
    so that records leave the p bound, the ptilde bound, both or neither."""
    report = BoundReport(
        c_p1=0.9, c_ptilde1=0.2, c_p2=None, c_ptilde2=None,
        c_p=0.9, c_ptilde=0.2, c_p_strict=1.3, c_ptilde_strict=0.3,
        tau_upper=np.array([1.0]), tau_lower=None, tau_center=np.array([3.5]),
        tau_upper_strict=np.array([1.5]), hd_t0=0.24,
    )
    cfg = SimConfig(dt=2e-3, t_end=3.0,
                    monitors=("energy_decrease", "momentum_bound", "control_bound"))
    traj = simulate(ball_beam.system, ball_beam.make_controller(), ball_beam.initial_state,
                    cfg, target=ball_beam.target, bound_report=report)
    return traj, cfg, report


def test_monitors_equal_reference_loops(tight_bound_run):
    traj, cfg, report = tight_bound_run
    kinds = {kind for _, kind, _ in traj.events}
    assert kinds == {"momentum_bound", "control_bound"}
    one_of_two = (traj.p_norm > report.c_p) != (traj.ptilde_norm > report.c_ptilde)
    assert np.any(one_of_two) and np.any(traj.p_norm <= report.c_p)
    clean = dataclasses.replace(traj, events=[])
    reference_run_monitors(clean, cfg, report)
    assert_same_events(traj.events, clean.events)
    # with a rise of H_d injected every 97 records, energy_decrease fires too
    hd = traj.hd.copy()
    hd[5::97] += 1e-3
    got, want = (dataclasses.replace(traj, hd=hd, events=[]) for _ in range(2))
    _run_monitors(got, cfg, report)
    reference_run_monitors(want, cfg, report)
    assert sum(kind == "energy_decrease" for _, kind, _ in got.events) == len(hd[5::97])
    assert_same_events(got.events, want.events)


@pytest.mark.parametrize("start_index", [0, 700, 1499, 5000])
def test_check_hd_decrease_equals_reference_loop(tight_bound_run, start_index):
    traj, _, _ = tight_bound_run
    hd = traj.hd.copy()
    hd[5::97] += 1e-3
    broken = dataclasses.replace(traj, hd=hd)
    got = check_hd_decrease(broken, 1e-6, start_index)
    assert got == reference_check_hd_decrease(broken, 1e-6, start_index)
    assert all(type(t) is float and type(rise) is float for t, rise in got)
    if start_index < 1400:
        assert got


def test_bound_exceedances_masks():
    traj = simulate(particle(n=2), None, ConfigState(q=np.zeros(2), p=np.array([0.0, 1.0])),
                    SimConfig(dt=0.1, t_end=0.3))
    traj.p_norm[:] = [0.5, 2.0, 3.0, 1.0]
    traj.tau[:] = [[0.0, 0.0], [1.5, 0.0], [1.0, -0.9], [1.0, 1.0]]
    over_p, over_pt, over_tau = bound_exceedances(traj, 1.0, 0.1, [1.0, 0.0], [0.4, 0.8], 1)
    assert over_p.tolist() == [False, True, True, False]
    # no target: the NaN ptilde norm never exceeds
    assert np.all(np.isnan(traj.ptilde_norm)) and not np.any(over_pt)
    assert over_tau.tolist() == [False, True, True, True]
    assert not any(np.any(m) for m in bound_exceedances(traj, 1.0, 0.1, [0, 0], [9, 9], 4))


def test_phase_switch_event(vtol_tp_run):
    traj = vtol_tp_run
    switches = [t for t, kind, _ in traj.events if kind == "phase_switch"]
    assert switches == [traj.switch_time]
    assert np.any(traj.phase == 1) and np.any(traj.phase == 2)


def test_two_phase_switch_on_accepted_state(vtol_two_phase):
    # at dt = 3e-3 the predicate first holds inside step 585; a stage-level
    # test would switch there and mix both laws within one step
    bench = vtol_two_phase
    ctrl = bench.make_controller()
    cfg = SimConfig(dt=3e-3, t_end=2.2)
    traj = simulate(bench.system, ctrl, bench.initial_state, cfg, target=bench.target)
    k = int(round(traj.switch_time / cfg.dt))
    assert k == 586 and traj.switch_time == k * cfg.dt == traj.times[k]
    assert np.array_equal(traj.switch_state.q, traj.q[k])
    assert np.array_equal(traj.switch_state.p, traj.p[k])
    assert np.all(traj.phase[:k] == 1) and np.all(traj.phase[k:] == 2)
    primary = simulate(bench.system, ctrl.primary_law, bench.initial_state, cfg,
                       target=bench.target)
    for name in ("times", "q", "p", "hd"):
        assert np.array_equal(getattr(traj, name)[: k + 1], getattr(primary, name)[: k + 1])
    assert np.array_equal(traj.tau[:k], primary.tau[:k])


def test_two_phase_controller_reusable(vtol_two_phase):
    bench = vtol_two_phase
    ctrl = bench.make_controller()
    cfg = SimConfig(dt=9e-3, t_end=2.0, monitors=("phase_switch",))
    a, b = (simulate(bench.system, ctrl, bench.initial_state, cfg, target=bench.target)
            for _ in range(2))
    for name in ("times", "q", "p", "tau", "hd", "phase"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert [e[:2] for e in a.events] == [e[:2] for e in b.events]
    assert a.switch_time is not None and a.switch_time == b.switch_time


def test_two_phase_switch_is_one_shot():
    # a particle coasting at unit speed meets the predicate on 0.3 < q < 0.5;
    # the phase-2 spring then carries it back out of that window and beyond
    sys = particle()
    target = TargetDynamics(
        mass_d=lambda q: np.eye(1),
        potential_d=lambda q: 0.5 * float(q @ q),
        potential_d_grad=lambda q: q.copy(),
        j2=lambda q, pt: np.zeros((1, 1)),
        damping_gain=np.zeros((1, 1)),
        equilibrium=np.zeros(1),
        kinetic_d_grad=lambda q, p: np.zeros(1),
    )

    def window(q, p):
        return 0.3 < q[0] < 0.5

    ctrl = TwoPhaseController(primary_law=lambda t, q, p: np.zeros(1),
                              switch_predicate=window, sys=sys, target=target,
                              damping_mode="linear")
    traj = simulate(sys, ctrl, ConfigState(q=np.zeros(1), p=np.ones(1)),
                    SimConfig(dt=1e-2, t_end=4.0, monitors=("phase_switch",)))
    k = int(np.argmax(traj.phase == 2))
    assert traj.switch_time == traj.times[k] and window(traj.q[k], traj.p[k])
    assert np.all(traj.phase[:k] == 1) and np.all(traj.phase[k:] == 2)
    outside = [not window(q, p) for q, p in zip(traj.q[k:], traj.p[k:])]
    assert any(outside) and np.min(traj.q[k:, 0]) < 0.0
    assert [kind for _, kind, _ in traj.events] == ["phase_switch"]


def test_domain_error_truncates_with_event(vtol):
    # the roll rate carries the aircraft across the barrier within one step
    s0 = ConfigState(q=np.array([0.0, 0.0, 1.3]), p=np.array([0.0, 0.0, 20.0]))
    cfg = SimConfig(dt=2e-2, t_end=1.0)
    traj = simulate(vtol.system, vtol.make_controller(), s0, cfg, target=vtol.target)
    assert [kind for _, kind, _ in traj.events] == ["domain_exit"]
    t_exit, _, payload = traj.events[0]
    assert "barrier" in payload["error"]
    assert t_exit == pytest.approx(traj.times[-1] + cfg.dt)
    assert traj.times[-1] < cfg.t_end and np.all(np.isfinite(traj.hd))
    # at the start state the same error still propagates
    beyond = ConfigState(q=np.array([0.0, 0.0, 1.5]), p=np.zeros(3))
    with pytest.raises(ValueError, match="barrier"):
        simulate(vtol.system, vtol.make_controller(), beyond, cfg, target=vtol.target)


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
