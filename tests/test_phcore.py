"""Plant-model layer: energies, vector field, gradients, invariants."""

import math

import numpy as np
import pytest

from bipbc import (
    Box,
    ConfigState,
    MechanicalSystem,
    SimConfig,
    SingularMass,
    simulate,
    total_energy,
)
from bipbc.phcore import fd_gradient, kinetic_energy_grad, open_loop_field_raw


def make_free_particle(n=2, potential=None, potential_grad=None, damping=0.0):
    pot = potential or (lambda q: 0.0)
    grad = potential_grad or (lambda q: np.zeros(n))
    return MechanicalSystem(
        m=n,
        mass_matrix=lambda q: np.eye(n),
        potential=pot,
        potential_grad=grad,
        input_coupling=lambda q: np.eye(n),
        damping=lambda q: damping * np.eye(n),
        workspace=Box(lower=-5 * np.ones(n), upper=5 * np.ones(n)),
        kinetic_grad=lambda q, p: np.zeros(n),
    )


def test_total_energy_zero_state(ball_beam):
    rec = total_energy(ball_beam.system, ConfigState(q=np.zeros(2), p=np.zeros(2)))
    assert rec.kinetic == 0.0
    assert rec.potential == 0.0
    assert rec.total == 0.0


def test_total_energy_identity_mass():
    sys = make_free_particle()
    rec = total_energy(sys, ConfigState(q=np.array([3.0, -1.0]), p=np.array([3.0, 4.0])))
    assert rec.kinetic == pytest.approx(12.5)
    assert rec.total == pytest.approx(12.5)
    assert rec.total == rec.kinetic + rec.potential


def test_total_energy_singular_mass():
    sys = make_free_particle()
    bad = MechanicalSystem(
        m=2,
        mass_matrix=lambda q: np.array([[1.0, 1.0], [1.0, 1.0]]),
        potential=sys.potential,
        potential_grad=sys.potential_grad,
        input_coupling=sys.input_coupling,
        damping=sys.damping,
        workspace=sys.workspace,
    )
    with pytest.raises(SingularMass):
        total_energy(bad, ConfigState(q=np.zeros(2), p=np.ones(2)))


def test_open_loop_free_particle():
    sys = make_free_particle()
    field = open_loop_field_raw(sys, np.zeros(2), np.array([1.0, 0.0]), np.zeros(2))
    assert np.allclose(field, [1.0, 0.0, 0.0, 0.0])


def test_open_loop_ballbeam_gravity_and_damping(ball_beam):
    # hand evaluation of the unactuated momentum rate at the nominal start:
    # pdot_1 = -g sin(q2) - r1 * p1
    field = open_loop_field_raw(ball_beam.system, np.array([0.5, -0.1]), np.array([0.1, 0.0]),
                                np.zeros(1))
    expected = -9.81 * math.sin(-0.1) - 0.2 * 0.1
    assert field[2] == pytest.approx(expected, rel=1e-12)


def test_open_loop_matches_fd_hamiltonian(ball_beam):
    # pdot against central differences of H in q, at a generic state
    sys = ball_beam.system
    q = np.array([0.31, -0.42])
    p = np.array([0.8, -1.1])
    field = open_loop_field_raw(sys, q, p, np.zeros(1))

    def h_of(qq):
        return total_energy(sys, ConfigState(q=qq, p=p)).total

    grad_h = fd_gradient(h_of, q)
    qdot = np.linalg.solve(sys.mass_matrix(q), p)
    expected_pdot = -grad_h - sys.damping(q) @ qdot
    assert np.allclose(field[2:], expected_pdot, atol=1e-6)


def test_gradient_consistency_1000_points(ball_beam, vtol):
    rng = np.random.default_rng(3)
    for bench, p_scale in ((ball_beam, 2.0), (vtol, 2.0)):
        sys = bench.system
        box = sys.workspace
        for _ in range(500):
            q = rng.uniform(0.95 * box.lower, 0.95 * box.upper)
            p = p_scale * rng.standard_normal(sys.n)
            gv = np.asarray(sys.potential_grad(q))
            gv_fd = fd_gradient(sys.potential, q)
            assert np.max(np.abs(gv - gv_fd)) < 1e-4 * (1.0 + np.max(np.abs(gv)))
            gk = kinetic_energy_grad(sys, q, p)
            def kin(qq, pp=p):
                return 0.5 * float(pp @ np.linalg.solve(sys.mass_matrix(qq), pp))
            gk_fd = fd_gradient(kin, q)
            assert np.max(np.abs(gk - gk_fd)) < 1e-4 * (1.0 + np.max(np.abs(gk)))


def test_energy_balance_conservative(ball_beam):
    # R = 0, tau = 0: |H(t) - H(0)| within the integrator budget 1e-6 per unit time
    from bipbc.bench import get_benchmark

    frictionless = get_benchmark("ball-beam", r1=0.0, r2=0.0)
    s0 = ConfigState(q=np.array([0.2, 0.05]), p=np.array([0.1, 0.0]))
    traj = simulate(frictionless.system, None, s0, SimConfig(dt=1e-3, t_end=2.0))
    assert np.max(np.abs(traj.hd - traj.hd[0])) < 1e-6 * 2.0


def test_passivity_damped(ball_beam):
    s0 = ConfigState(q=np.array([0.2, 0.05]), p=np.array([0.3, 0.0]))
    traj = simulate(ball_beam.system, None, s0, SimConfig(dt=1e-3, t_end=2.0))
    assert np.all(np.diff(traj.hd) <= 1e-9)


def test_configstate_validation():
    with pytest.raises(ValueError):
        ConfigState(q=np.zeros(2), p=np.zeros(3))
    with pytest.raises(ValueError):
        ConfigState(q=np.array([np.nan, 0.0]), p=np.zeros(2))


def test_mechanical_system_validation():
    with pytest.raises(ValueError):
        make_free_particle().__class__(
            m=3,
            mass_matrix=lambda q: np.eye(2),
            potential=lambda q: 0.0,
            potential_grad=lambda q: np.zeros(2),
            input_coupling=lambda q: np.eye(2),
            damping=lambda q: np.zeros((2, 2)),
            workspace=Box(lower=-np.ones(2), upper=np.ones(2)),
        )
