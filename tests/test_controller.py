"""Control-law layer: feedback evaluation, shaping terms, two-phase scheme."""

import math

import numpy as np
import pytest

from bipbc import (
    BoundedShaping,
    ConfigState,
    RankDeficientG,
    ShapingTerm,
    TwoPhaseController,
    bounded_vdh,
    ida_pbc_control,
    tanh_saturation,
    target_energy,
)
from bipbc.controller import log_cosh, pseudo_inverse_apply


def test_equilibrium_zero_control(ball_beam):
    s = ConfigState(q=np.zeros(2), p=np.zeros(2))
    tau = ida_pbc_control(ball_beam.system, ball_beam.target, s)
    assert np.allclose(tau, 0.0, atol=1e-14)


def test_zero_velocity_reduction(ball_beam):
    # tau(q, 0) must equal the potential-only expression exactly
    sys, tgt = ball_beam.system, ball_beam.target
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform([-2, -1], [2, 1])
        tau = ida_pbc_control(sys, tgt, ConfigState(q=q, p=np.zeros(2)))
        g = sys.input_coupling(q)
        lam = tgt.mass_d(q) @ np.linalg.inv(sys.mass_matrix(q))
        expected = np.linalg.pinv(g) @ (sys.potential_grad(q) - lam @ tgt.potential_d_grad(q))
        assert np.allclose(tau, expected, rtol=0, atol=1e-12)


def test_nominal_start_control_moderate(ball_beam):
    tau = ida_pbc_control(ball_beam.system, ball_beam.target, ball_beam.initial_state)
    assert abs(tau[0]) < 15.0


def test_saturated_damping_mode(vtol):
    sys, tgt = vtol.system, vtol.target
    rng = np.random.default_rng(8)
    sat = tanh_saturation()
    for _ in range(20):
        q = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1.2, 1.2)])
        p = rng.standard_normal(3)
        s = ConfigState(q=q, p=p)
        tau_lin = ida_pbc_control(sys, tgt, s, damping_mode="linear")
        tau_sat = ida_pbc_control(sys, tgt, s, damping_mode="saturated")
        y = sys.input_coupling(q).T @ np.linalg.solve(tgt.mass_d(q), p)
        delta = tgt.damping_gain @ (y - np.array([sat.eval(v) for v in y]))
        assert np.allclose(tau_sat - tau_lin, delta, atol=1e-12)
        assert np.all(np.abs(tau_sat - tau_lin) <= np.abs(y - np.tanh(y)) @ np.abs(tgt.damping_gain) + 1e-12)


def test_unknown_damping_mode(ball_beam):
    with pytest.raises(ValueError):
        ida_pbc_control(ball_beam.system, ball_beam.target, ball_beam.initial_state,
                        damping_mode="bogus")


def test_rank_deficient_g_raises():
    with pytest.raises(RankDeficientG):
        pseudo_inverse_apply(np.array([[1e-12], [0.0]]), np.ones(2))


def test_saturation_contract():
    sat = tanh_saturation()
    xs = np.linspace(-10, 10, 2001)
    vals = np.array([sat.eval(x) for x in xs])
    assert sat.eval(0.0) == 0.0
    assert np.all(np.abs(vals) <= 1.0)
    assert np.all(np.diff(vals) > 0.0)  # strictly increasing on the grid
    # curvature nonzero away from the origin
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    away = np.abs(xs[1:-1]) > 1e-3
    interior = np.abs(xs[1:-1]) < 8.0  # tanh'' underflows in the far tails
    mask = away & interior
    assert np.all(second[mask] != 0.0)


def test_log_cosh_stable_and_correct():
    for x in (-700.0, -3.2, -0.5, 0.0, 0.5, 3.2, 700.0):
        if abs(x) < 20:
            assert log_cosh(x) == pytest.approx(math.log(math.cosh(x)), abs=1e-12)
        else:
            assert log_cosh(x) == pytest.approx(abs(x) - math.log(2.0), abs=1e-12)


def test_bounded_vdh_zero_at_star():
    shaping = BoundedShaping(
        terms=[
            ShapingTerm(
                gain=2.0,
                value=lambda q: float(q[0]),
                grad=lambda q: np.array([1.0, 0.0]),
                value_at_star=0.0,
            )
        ],
        sat=tanh_saturation(),
    )
    value, contribs = bounded_vdh(shaping, np.zeros(2))
    assert value == 0.0
    assert np.allclose(contribs[0], 0.0)


def test_bounded_vdh_tanh_closed_form_and_quadrature():
    # single term, S = tanh, f = q1, q* = 0:
    # value = k ln cosh(q1), gradient = k tanh(q1)
    k = 1.7
    shaping = BoundedShaping(
        terms=[
            ShapingTerm(
                gain=k,
                value=lambda q: float(q[0]),
                grad=lambda q: np.array([1.0]),
                value_at_star=0.0,
            )
        ],
        sat=tanh_saturation(),
    )
    for x in (-2.0, -0.3, 0.9, 2.4):
        value, contribs = bounded_vdh(shaping, np.array([x]))
        assert value == pytest.approx(k * math.log(math.cosh(x)), rel=1e-12)
        assert contribs[0][0] == pytest.approx(k * math.tanh(x), rel=1e-12)
        # independent quadrature of the defining integral int S(f) df
        grid = np.linspace(0.0, x, 4001)
        quad = np.trapezoid(np.tanh(grid), grid)
        assert value == pytest.approx(k * quad, abs=1e-6)


def test_bounded_vdh_gradient_bound_property():
    rng = np.random.default_rng(12)
    shaping = BoundedShaping(
        terms=[
            ShapingTerm(
                gain=3.0,
                value=lambda q: float(np.sin(q[0]) + q[1] ** 2),
                grad=lambda q: np.array([np.cos(q[0]), 2 * q[1]]),
                value_at_star=0.0,
            ),
            ShapingTerm(
                gain=0.5,
                value=lambda q: float(q[0] * q[1]),
                grad=lambda q: np.array([q[1], q[0]]),
                value_at_star=0.0,
            ),
        ],
        sat=tanh_saturation(),
    )
    for _ in range(1000):
        q = rng.uniform(-3, 3, size=2)
        _, contribs = bounded_vdh(shaping, q)
        for term, contrib in zip(shaping.terms, contribs):
            assert np.linalg.norm(contrib) <= term.gain * np.linalg.norm(term.grad(q)) + 1e-12


def test_shaping_term_requires_positive_gain():
    with pytest.raises(ValueError):
        ShapingTerm(gain=0.0, value=lambda q: 0.0, grad=lambda q: np.zeros(1), value_at_star=0.0)


def test_j2_skew_and_homogeneous(ball_beam, vtol):
    rng = np.random.default_rng(4)
    for bench in (ball_beam, vtol):
        tgt = bench.target
        n = bench.system.n
        for _ in range(100):
            q = rng.uniform(0.9 * bench.system.workspace.lower, 0.9 * bench.system.workspace.upper)
            pt = rng.standard_normal(n)
            j = tgt.j2(q, pt)
            assert np.max(np.abs(j + j.T)) <= 1e-12
            assert np.allclose(tgt.j2(q, 2.0 * pt), 2.0 * j, atol=1e-12)


def test_two_phase_never_switches(vtol_two_phase):
    bench = vtol_two_phase
    ctrl = TwoPhaseController(
        primary_law=lambda t, q, p: np.array([1.0, 2.0]),
        switch_predicate=lambda q, p: False,
        sys=bench.system,
        target=bench.target,
    )
    rng = np.random.default_rng(9)
    for k in range(50):
        q = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1.0, 1.0)])
        tau, phase = ctrl.control(0.1 * k, q, np.zeros(3))
        assert phase == 1
        assert np.allclose(tau, [1.0, 2.0])
    assert ctrl.switch_time is None


def test_two_phase_one_shot_latch(vtol_two_phase):
    bench = vtol_two_phase
    ctrl = bench.make_controller()
    far = np.array([1.0, 1.0, 1.0])
    near = np.array([1.0, 1.0, 0.01])
    rest = np.zeros(3)
    _, phase = ctrl.control(0.0, far, rest)
    assert phase == 1 and not ctrl.switched
    _, phase = ctrl.control(1.0, near, rest)
    assert phase == 2 and ctrl.switch_time == 1.0
    # once latched, even states failing the predicate stay in phase 2
    _, phase = ctrl.control(2.0, far, rest)
    assert phase == 2 and ctrl.switch_time == 1.0
    ctrl.reset()
    assert not ctrl.switched


def test_vtol_primary_bounds_by_construction(vtol_two_phase):
    bench = vtol_two_phase
    ctrl = bench.make_controller()
    g = bench.params.g
    rng = np.random.default_rng(10)
    for _ in range(200):
        q = np.array([rng.uniform(-30, 30), rng.uniform(-20, 20), rng.uniform(-1.3, 1.3)])
        p = 5.0 * rng.standard_normal(3)
        tau = np.asarray(ctrl.primary_law(0.0, q, p))
        assert abs(tau[0] - g) <= 8.0 + 1e-12 <= 10.0
        assert abs(tau[1]) <= 8.0 + 1e-12 < 10.0


def test_target_energy_components(ball_beam):
    rec = target_energy(ball_beam.target, ball_beam.initial_state)
    assert rec.total == pytest.approx(rec.kinetic + rec.potential)
    assert rec.kinetic > 0.0
