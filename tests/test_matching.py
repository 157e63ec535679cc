"""Matching-condition verification: residual oracles and field identities."""

import numpy as np
import pytest

from bipbc import (
    Box,
    ConfigState,
    MechanicalSystem,
    TargetDynamics,
    annihilator,
    build_r2,
    closed_loop_vector_field,
    hd_rate,
    kinetic_pde_residual,
    potential_pde_residual,
    verify_matching,
)
from bipbc.bench import get_benchmark
from bipbc.controller import IdaPbcLaw, kinetic_d_grad, mass_d_solve
from bipbc.matching import MatchingReport, equilibrium_check
from bipbc.phcore import kinetic_energy_grad, mass_solve, open_loop_field_raw
from bipbc.sampling import ball_sample


def fully_actuated_system():
    n = 2
    return MechanicalSystem(
        m=n,
        mass_matrix=lambda q: np.eye(n),
        potential=lambda q: 0.5 * float(q @ q),
        potential_grad=lambda q: q.copy(),
        input_coupling=lambda q: np.eye(n),
        damping=lambda q: np.zeros((n, n)),
        workspace=Box(lower=-np.ones(n), upper=np.ones(n)),
        kinetic_grad=lambda q, p: np.zeros(n),
    )


def identity_target(sys):
    return TargetDynamics(
        mass_d=sys.mass_matrix,
        potential_d=sys.potential,
        potential_d_grad=sys.potential_grad,
        j2=lambda q, pt: np.zeros((sys.n, sys.n)),
        damping_gain=np.zeros((sys.m, sys.m)),
        equilibrium=np.zeros(sys.n),
        kinetic_d_grad=sys.kinetic_grad,
    )


def test_fully_actuated_residual_is_empty():
    sys = fully_actuated_system()
    tgt = identity_target(sys)
    res = kinetic_pde_residual(sys, tgt, np.zeros(2), np.ones(2))
    assert res.shape == (0,)
    res = potential_pde_residual(sys, tgt, np.ones(2) * 0.3)
    assert res.shape == (0,)


def test_fully_actuated_sweep_has_no_residuals():
    # with m = n, verify_matching reads only R_2 from the block's M and M_d
    sys = fully_actuated_system()
    report = verify_matching(sys, identity_target(sys), samples=70)
    assert (report.kinetic_residual_max, report.potential_residual_max) == (0.0, 0.0)
    assert report.r2_min_eig == 0.0 and report.condition5_min_eig == 0.0


def test_identity_shaping_zero_potential_residual(ball_beam):
    sys = ball_beam.system
    tgt = identity_target(sys)
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = rng.uniform([-2, -1], [2, 1])
        assert np.allclose(potential_pde_residual(sys, tgt, q), 0.0, atol=1e-14)


def test_ballbeam_residuals_small(ball_beam):
    rng = np.random.default_rng(2)
    sys, tgt = ball_beam.system, ball_beam.target
    for _ in range(200):
        q = rng.uniform([-2, -1], [2, 1])
        p = rng.standard_normal(2)
        p *= 2.0 * rng.random() / np.linalg.norm(p)
        assert np.linalg.norm(kinetic_pde_residual(sys, tgt, q, p)) < 1e-6
        assert np.linalg.norm(potential_pde_residual(sys, tgt, q)) < 1e-6


def test_corrupted_j2_residual_large(ball_beam):
    # negative control: dropping J_2 must blow the kinetic residual well
    # above threshold at generic states
    sys = ball_beam.system
    broken = TargetDynamics(
        mass_d=ball_beam.target.mass_d,
        potential_d=ball_beam.target.potential_d,
        potential_d_grad=ball_beam.target.potential_d_grad,
        j2=lambda q, pt: np.zeros((2, 2)),
        damping_gain=ball_beam.target.damping_gain,
        equilibrium=ball_beam.target.equilibrium,
        kinetic_d_grad=ball_beam.target.kinetic_d_grad,
    )
    res = kinetic_pde_residual(sys, broken, np.array([0.5, 0.2]), np.array([1.0, 0.5]))
    assert np.linalg.norm(res) > 1e-2


def test_vtol_potential_residual(vtol):
    rng = np.random.default_rng(3)
    for _ in range(300):
        q = np.array([rng.uniform(-30, 30), rng.uniform(-20, 20), rng.uniform(-1.33, 1.33)])
        assert np.linalg.norm(potential_pde_residual(vtol.system, vtol.target, q)) < 1e-6


def test_vtol_kinetic_residual_trivially_zero(vtol):
    res = kinetic_pde_residual(
        vtol.system, vtol.target, np.array([1.0, 2.0, 0.5]), np.array([1.0, -1.0, 2.0])
    )
    assert np.allclose(res, 0.0)


def test_build_r2_zero_without_damping():
    bench = get_benchmark("ball-beam", r1=0.0, r2=0.0, k_v=0.0)
    r2 = build_r2(bench.system, bench.target, np.array([0.3, -0.2]))
    assert np.allclose(r2, 0.0)


def test_build_r2_symmetric_pd_at_origin(ball_beam):
    r2 = build_r2(ball_beam.system, ball_beam.target, np.zeros(2))
    assert np.allclose(r2, r2.T)
    assert np.min(np.linalg.eigvalsh(r2)) > 0.0


def test_condition5_positive_for_ballbeam(ball_beam):
    report = verify_matching(ball_beam.system, ball_beam.target, samples=100,
                             region=ball_beam.residual_box)
    assert report.condition5_min_eig > 0.0
    assert report.r2_min_eig > 0.0
    assert report.equilibrium_ok
    assert report.passes(tol=1e-6)


def test_annihilator_orthogonality(ball_beam, vtol):
    rng = np.random.default_rng(6)
    for bench in (ball_beam, vtol):
        sys = bench.system
        for _ in range(100):
            q = rng.uniform(0.9 * sys.workspace.lower, 0.9 * sys.workspace.upper)
            gperp = annihilator(sys, q)
            g = sys.input_coupling(q)
            assert np.max(np.abs(gperp @ g)) <= 1e-12
            assert np.allclose(gperp @ gperp.T, np.eye(sys.n - sys.m), atol=1e-12)


def test_annihilator_svd_matches_closed_form(vtol):
    # the SVD null-space basis must span the same line as the closed form
    sys = vtol.system
    generic = MechanicalSystem(
        m=sys.m,
        mass_matrix=sys.mass_matrix,
        potential=sys.potential,
        potential_grad=sys.potential_grad,
        input_coupling=sys.input_coupling,
        damping=sys.damping,
        workspace=sys.workspace,
        kinetic_grad=sys.kinetic_grad,
        annihilator=None,
    )
    for th in np.linspace(-1.3, 1.3, 17):
        q = np.array([0.0, 0.0, th])
        a_svd = annihilator(generic, q)
        a_closed = annihilator(sys, q)
        cos = abs((a_svd @ a_closed.T).item())
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_matching_identity_100_states(ball_beam):
    # plugging the feedback into the plant reproduces the target field
    sys, tgt = ball_beam.system, ball_beam.target
    law = IdaPbcLaw(sys, tgt, "linear")
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform([-2, -1], [2, 1])
        p = rng.standard_normal(2)
        f_open = open_loop_field_raw(sys, q, p, law(0.0, q, p))
        f_closed = closed_loop_vector_field(sys, tgt, ConfigState(q=q, p=p))
        worst = max(worst, float(np.max(np.abs(f_open - f_closed))))
    assert worst < 1e-8


def test_closed_loop_zero_at_equilibrium(ball_beam):
    field = closed_loop_vector_field(
        ball_beam.system, ball_beam.target, ConfigState(q=np.zeros(2), p=np.zeros(2))
    )
    assert np.allclose(field, 0.0)


def test_hd_rate_identity_1e9(ball_beam):
    # Hd_dot along the closed-loop field equals -ptilde^T R_2 ptilde
    sys, tgt = ball_beam.system, ball_beam.target
    rng = np.random.default_rng(8)
    for _ in range(100):
        q = rng.uniform([-2, -1], [2, 1])
        p = rng.standard_normal(2)
        s = ConfigState(q=q, p=p)
        f = closed_loop_vector_field(sys, tgt, s)
        grad_q = tgt.potential_d_grad(q) + kinetic_d_grad(tgt, q, p)
        grad_p = mass_d_solve(tgt, q, p)
        dirdev = float(grad_q @ f[:2] + grad_p @ f[2:])
        assert abs(dirdev - hd_rate(sys, tgt, s)) < 1e-9


def test_fd_fallback_residuals(ball_beam):
    # user systems without analytic kinetic gradients ride the
    # finite-difference path, which carries the looser 1e-3 threshold
    sys = ball_beam.system
    fd_sys = MechanicalSystem(
        m=sys.m,
        mass_matrix=sys.mass_matrix,
        potential=sys.potential,
        potential_grad=sys.potential_grad,
        input_coupling=sys.input_coupling,
        damping=sys.damping,
        workspace=sys.workspace,
        kinetic_grad=None,
        annihilator=sys.annihilator,
    )
    tgt = ball_beam.target
    fd_tgt = TargetDynamics(
        mass_d=tgt.mass_d,
        potential_d=tgt.potential_d,
        potential_d_grad=tgt.potential_d_grad,
        j2=tgt.j2,
        damping_gain=tgt.damping_gain,
        equilibrium=tgt.equilibrium,
        kinetic_d_grad=None,
    )
    fd_law, law = IdaPbcLaw(fd_sys, fd_tgt), IdaPbcLaw(sys, tgt)
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.uniform([-2, -1], [2, 1])
        p = rng.standard_normal(2)
        assert np.linalg.norm(kinetic_pde_residual(fd_sys, fd_tgt, q, p)) < 1e-3
        tau_fd = fd_law(0.0, q, p)
        tau = law(0.0, q, p)
        assert np.allclose(tau_fd, tau, atol=1e-4)


def test_equilibrium_check_rejects_shifted_minimum(ball_beam):
    shifted = TargetDynamics(
        mass_d=ball_beam.target.mass_d,
        potential_d=ball_beam.target.potential_d,
        potential_d_grad=ball_beam.target.potential_d_grad,
        j2=ball_beam.target.j2,
        damping_gain=ball_beam.target.damping_gain,
        equilibrium=np.array([0.3, 0.1]),
        kinetic_d_grad=ball_beam.target.kinetic_d_grad,
    )
    assert not equilibrium_check(shifted)
    assert equilibrium_check(ball_beam.target)


def reference_matching_report(sys, tgt, samples, region, momentum_cap=2.0):
    """`verify_matching` written out one sample at a time from the PDEs.

    Each residual, R_2 and condition 5 is formed from its own formula, with
    no term shared between them.
    """
    qs = (region if region is not None else sys.workspace).sample(samples)
    ps = ball_sample(samples, sys.n, momentum_cap, skip=samples)
    kin_max = pot_max = 0.0
    r2_min = cond5_min = np.inf
    for q, p in zip(qs, ps):
        gperp = annihilator(sys, q)
        md = tgt.mass_d(q)
        transfer = np.asarray(sys.damping(q), dtype=float) @ mass_solve(sys, q, md)
        if gperp.shape[0]:
            pt = mass_d_solve(tgt, q, p)
            kin = gperp @ (
                2.0 * kinetic_energy_grad(sys, q, p)
                - md @ mass_solve(sys, q, 2.0 * kinetic_d_grad(tgt, q, p))
                + 2.0 * tgt.j2(q, pt) @ pt
            )
            pot = gperp @ (
                np.asarray(sys.potential_grad(q), dtype=float)
                - md @ mass_solve(sys, q, np.asarray(tgt.potential_d_grad(q), dtype=float))
            )
            kin_max = max(kin_max, float(np.linalg.norm(kin)))
            pot_max = max(pot_max, float(np.linalg.norm(pot)))
            cond5 = gperp @ (transfer + transfer.T) @ gperp.T
            cond5_min = min(cond5_min, float(np.min(np.linalg.eigvalsh(cond5))))
        g = np.asarray(sys.input_coupling(q), dtype=float)
        r2 = 0.5 * (transfer + transfer.T) + g @ tgt.damping_gain @ g.T
        r2_min = min(r2_min, float(np.min(np.linalg.eigvalsh(0.5 * (r2 + r2.T)))))
    return MatchingReport(
        kinetic_residual_max=kin_max,
        potential_residual_max=pot_max,
        r2_min_eig=float(r2_min),
        condition5_min_eig=float(cond5_min) if np.isfinite(cond5_min) else 0.0,
        equilibrium_ok=equilibrium_check(tgt),
        samples=samples,
    )


@pytest.mark.parametrize("plant", ["ball-beam", "vtol-nonsmooth", "ball-beam-fd"])
def test_verify_matching_equals_pointwise_reference(plant, ball_beam, vtol, fd_ball_beam):
    # exact: the report is a max/min over the same per-point values
    bench = vtol if plant == "vtol-nonsmooth" else ball_beam
    sys, tgt = fd_ball_beam if plant == "ball-beam-fd" else (bench.system, bench.target)
    samples = 100 if plant == "ball-beam-fd" else 300
    report = verify_matching(sys, tgt, samples=samples, region=bench.residual_box)
    assert report == reference_matching_report(sys, tgt, samples, bench.residual_box)
