"""Certificate layer: constant estimation, momentum/effort bounds, confinement."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bipbc import (
    BoundConstants,
    Box,
    EmptyWorkspace,
    MechanicalSystem,
    NonpositiveEigenvalue,
    TargetDynamics,
    control_bound_general_g,
    control_upper_bound,
    empirical_constants,
    estimate_constants,
    kv_advisory,
    levelset_confinement,
    bound_report,
    momentum_bounds,
    ultimate_bounds,
    validate_constants,
    verify_matching,
)
from bipbc.bounds import unit_input_rows


def make_constants(**overrides) -> BoundConstants:
    base = dict(
        c_V=np.array([10.0]),
        c_Vd=2.0,
        c_M=np.array([0.1]),
        c_Md=0.2,
        c_J=1.0,
        c_Lambda=np.array([5.0]),
        lam_min_MdInv=0.06,
        lam_max_MdInv=0.82,
        lam_min_Md=1.2,
        lam_max_Md=17.0,
        lam_min_R2=0.5,
        lam_max_Kv=5.0,
        G_M=1.0,
        G_m=1.0,
        sigma=np.array([0.0]),
        mu=1e-6,
        unit_structure=True,
        samples=1,
    )
    base.update(overrides)
    return BoundConstants(**base)


def test_momentum_bounds_published_values():
    # hd0 = 0.24 with lam_min{M_d^-1} = 0.06 gives exactly 2.0
    constants = make_constants()
    c_p1, c_pt1 = momentum_bounds(constants, 0.24)
    assert c_p1 == pytest.approx(2.0, abs=1e-12)
    assert c_pt1 == pytest.approx(math.sqrt(0.24 / 1.2), abs=1e-12)


def test_momentum_bounds_zero_start():
    c_p1, c_pt1 = momentum_bounds(make_constants(), 0.0)
    assert c_p1 == 0.0 and c_pt1 == 0.0


def test_momentum_bounds_rejects_nonpositive_eigenvalue():
    with pytest.raises(NonpositiveEigenvalue):
        momentum_bounds(make_constants(lam_min_MdInv=0.0), 0.24)
    with pytest.raises(ValueError):
        momentum_bounds(make_constants(), -1.0)
    with pytest.raises(ValueError):
        momentum_bounds(make_constants(), math.nan)


def test_scale_coherence_sqrt():
    constants = make_constants()
    c1, _ = momentum_bounds(constants, 0.24)
    c2, _ = momentum_bounds(constants, 0.48)
    assert c2 == pytest.approx(math.sqrt(2.0) * c1, rel=1e-14)


def test_ultimate_absent_without_pd_r2():
    assert ultimate_bounds(make_constants(lam_min_R2=0.0)) is None
    assert ultimate_bounds(make_constants(lam_min_R2=-1e-12)) is None


def test_ultimate_bounds_formulas():
    constants = make_constants()
    c_p2, c_pt2 = ultimate_bounds(constants)
    li, la = constants.lam_min_MdInv, constants.lam_max_MdInv
    expected_p = math.sqrt(la / li) * constants.c_Vd * la / (li**2 * constants.lam_min_R2 + constants.mu)
    expected_pt = (
        math.sqrt(constants.lam_max_Md / constants.lam_min_Md)
        * constants.c_Vd
        / (constants.lam_min_R2 + constants.mu)
    )
    assert c_p2 == pytest.approx(expected_p, rel=1e-14)
    assert c_pt2 == pytest.approx(expected_pt, rel=1e-14)


def test_ultimate_bounds_decrease_with_damping():
    rng = np.random.default_rng(0)
    for _ in range(100):
        lam = rng.uniform(0.01, 2.0)
        base = make_constants(lam_min_R2=lam)
        more = make_constants(lam_min_R2=lam * rng.uniform(1.01, 3.0))
        p_a, pt_a = ultimate_bounds(base)
        p_b, pt_b = ultimate_bounds(more)
        assert p_b < p_a
        assert pt_b < pt_a


def test_selection_rule():
    constants = make_constants(lam_min_R2=5.0, c_Vd=0.5)
    report = bound_report(constants, 10.0, 0.0, 0.0)
    assert report.c_p2 is not None
    assert report.c_p == min(report.c_p1, report.c_p2)
    # initial momentum outside the ultimate bound falls back to the level set
    far = bound_report(constants, 10.0, 1e9, 0.0)
    assert far.c_p == far.c_p1
    none_case = bound_report(make_constants(lam_min_R2=0.0), 10.0)
    assert none_case.c_p2 is None and none_case.c_ptilde2 is None
    assert none_case.c_p == none_case.c_p1 and none_case.c_ptilde == none_case.c_ptilde1


def test_strict_selection_scales_level_set_only():
    # hd0 = 0.24 with lam_min{M_d^-1} = 0.06 gives c_p1 = 2.0, no ultimate bound
    report = bound_report(make_constants(lam_min_R2=0.0), 0.24)
    assert report.c_p1 == pytest.approx(2.0, abs=1e-12)
    assert report.c_p_strict == pytest.approx(2.0 * math.sqrt(2.0))
    assert report.c_ptilde_strict == pytest.approx(report.c_ptilde1 * math.sqrt(2.0))
    # a start inside the ultimate bound: the ultimate branch carries no factor
    report = bound_report(make_constants(lam_min_R2=500.0), 10.0, 0.5, 0.0)
    assert 0.5 <= report.c_p2 < report.c_p1
    assert report.c_p_strict == report.c_p == report.c_p2
    assert report.c_ptilde_strict == report.c_ptilde == report.c_ptilde2


def test_control_upper_bound_potential_only_reduction():
    constants = make_constants(c_M=np.array([0.0]), c_Md=0.0, c_J=0.0, lam_max_Kv=0.0)
    bound = control_upper_bound(constants, 2.0, 0.44)
    assert bound[0] == pytest.approx(constants.c_V[0] + constants.c_Lambda[0] * constants.c_Vd)


def test_effort_bound_from_reference_constants():
    # the quoted study constants plug into ~50.6, not the stated 20
    constants = make_constants(
        c_V=np.array([10.4]),
        c_Vd=2.4,
        c_M=np.array([0.0]),
        c_Md=0.9,
        c_J=10.4,
        c_Lambda=np.array([6.0]),
        lam_max_Kv=5.0,
    )
    bound = control_upper_bound(constants, 2.0, 0.44)
    assert bound[0] == pytest.approx(50.61344, abs=1e-6)
    assert abs(bound[0] - 20.0) > 30.0  # the stated aggregate is not reproducible


def test_general_g_collapses_to_sharp_form_for_orthonormal_columns():
    constants = make_constants(G_M=1.0, G_m=1.0)
    sharp = control_upper_bound(constants, 2.0, 0.44)
    general, lower = control_bound_general_g(constants, 2.0, 0.44)
    assert np.allclose(general, sharp)
    assert lower is not None


def test_sharp_effort_is_its_written_sum_bit_for_bit(bb_certificate, vtol_certificate):
    # the sharp form is the general-G upper bound at G_M = G_m = 1, whose
    # products by 1.0 are exact: it keeps the bits of the sum written out
    rng = np.random.default_rng(25)
    for constants, _ in (bb_certificate, vtol_certificate):
        for c_p, c_pt in rng.uniform(0.0, 10.0, (2000, 2)).tolist():
            want = (constants.c_V + constants.c_Lambda * constants.c_Vd
                    + (constants.c_M + constants.c_Lambda * constants.c_Md) * c_p**2
                    + constants.c_J * c_pt**2 + constants.lam_max_Kv * c_pt)
            assert control_upper_bound(constants, c_p, c_pt).tobytes() == want.tobytes()


def test_general_g_at_least_sharp_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        constants = make_constants(
            c_V=np.array([rng.uniform(0, 10)]),
            c_Vd=rng.uniform(0, 5),
            c_M=np.array([rng.uniform(0, 1)]),
            c_Md=rng.uniform(0, 1),
            c_J=rng.uniform(0, 5),
            c_Lambda=np.array([rng.uniform(0, 8)]),
            lam_max_Kv=rng.uniform(0, 5),
            G_M=1.0 + rng.uniform(0, 2),
            G_m=1.0 + rng.uniform(0, 2),
        )
        c_p, c_pt = rng.uniform(0, 3), rng.uniform(0, 1)
        sharp = control_upper_bound(constants, c_p, c_pt)
        general, _ = control_bound_general_g(constants, c_p, c_pt)
        assert np.all(general >= sharp - 1e-12)


def test_orthonormal_g_norms_are_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(a)
        g = q[:, :2]
        assert np.linalg.norm(np.linalg.pinv(g), 2) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(g, 2) == pytest.approx(1.0, abs=1e-10)


def test_unit_input_rows_detection():
    assert unit_input_rows(np.array([[0.0], [1.0]]))[0] == 1
    rows = unit_input_rows(np.array([[0, 1], [1, 0], [0, 0]], dtype=float))
    assert list(rows) == [1, 0]
    assert unit_input_rows(np.array([[0.5], [1.0]])) is None
    assert unit_input_rows(np.array([[1.0], [1.0]])) is None


def test_estimated_constants_vanish_for_constant_masses(vtol, vtol_certificate):
    constants, _ = vtol_certificate
    assert np.allclose(constants.c_M, 0.0)
    assert constants.c_Md == 0.0
    assert constants.c_J == 0.0  # J_2 = 0 for this design
    assert not constants.unit_structure


def test_constants_validation_zero_violations(ball_beam, bb_certificate):
    constants, _ = bb_certificate
    bad = validate_constants(ball_beam.system, ball_beam.target, constants,
                             samples=2000, seed=3)
    assert bad == 0


def test_validate_constants_catches_understated_bound(ball_beam, bb_certificate):
    constants, _ = bb_certificate
    crippled = dataclasses.replace(constants, c_Vd=constants.c_Vd * 0.2)
    bad = validate_constants(ball_beam.system, ball_beam.target, crippled,
                             samples=2000, seed=3)
    assert bad > 0


def test_validate_constants_rejects_an_empty_set(ball_beam, bb_certificate):
    # zero samples would report zero violations; the other sweeps raise here too
    constants, _ = bb_certificate
    for samples in (0, -1):
        with pytest.raises(EmptyWorkspace):
            validate_constants(ball_beam.system, ball_beam.target, constants, samples=samples)


def test_mu_must_be_positive(bb_certificate):
    constants, _ = bb_certificate
    for mu in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be positive"):
            dataclasses.replace(constants, mu=mu)
    assert dataclasses.replace(constants, mu=1e-3).mu == 1e-3


def test_mu_must_not_be_a_boolean():
    # bool is an Integral and 0 < True, so mu=True used to construct
    for mu in (True, False):
        with pytest.raises(ValueError, match="mu must be positive"):
            make_constants(mu=mu)
    assert make_constants(mu=1).mu == 1


def test_levelset_zero_budget_degenerate(ball_beam):
    conf = levelset_confinement(ball_beam.target, 0.0, 0, ball_beam.system.workspace)
    assert conf.lower == conf.upper == 0.0
    assert not conf.clipped_lower and not conf.clipped_upper


def test_levelset_rejects_negative_or_nan_budget(ball_beam):
    for hd in (-1.0, math.nan):
        with pytest.raises(ValueError, match="hd_t0 must be nonnegative"):
            levelset_confinement(ball_beam.target, hd, 0, ball_beam.system.workspace)


def test_levelset_monotone_in_budget(ball_beam):
    box = ball_beam.residual_box
    widths = []
    for hd in (0.05, 0.1, 0.2, 0.24, 0.3):
        conf = levelset_confinement(ball_beam.target, hd, 0, box)
        widths.append(conf.upper - conf.lower)
        # the crossing really sits on the level set
        q = ball_beam.target.equilibrium.copy()
        q[0] = conf.upper
        assert ball_beam.target.potential_d(q) == pytest.approx(hd, rel=1e-6)
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_levelset_clipped_flag(ball_beam):
    conf = levelset_confinement(ball_beam.target, 1e6, 0, ball_beam.system.workspace)
    assert conf.clipped_lower and conf.clipped_upper
    assert conf.upper == ball_beam.system.workspace.upper[0]


def test_kv_advisory_small_kv_branch():
    # R > 0 with identity masses: the symmetric product is PD everywhere
    from bipbc import Box, MechanicalSystem, TargetDynamics

    n = 2
    sys = MechanicalSystem(
        m=1,
        mass_matrix=lambda q: np.eye(n),
        potential=lambda q: 0.5 * float(q @ q),
        potential_grad=lambda q: q.copy(),
        input_coupling=lambda q: np.array([[1.0], [0.0]]),
        damping=lambda q: np.eye(n),
        workspace=Box(lower=-np.ones(n), upper=np.ones(n)),
        kinetic_grad=lambda q, p: np.zeros(n),
    )
    tgt = TargetDynamics(
        mass_d=lambda q: np.eye(n),
        potential_d=lambda q: 0.5 * float(q @ q),
        potential_d_grad=lambda q: q.copy(),
        j2=lambda q, pt: np.zeros((n, n)),
        damping_gain=np.array([[1.0]]),
        equilibrium=np.zeros(n),
        kinetic_d_grad=lambda q, p: np.zeros(n),
    )
    adv = kv_advisory(sys, tgt, make_constants(), samples=20)
    assert adv.branch == "small_kv"
    assert adv.sym_min_eig > 0.0
    assert adv.fraction_limit_small < 1.0


def test_kv_advisory_structural_zero_branch(vtol, vtol_certificate):
    constants, _ = vtol_certificate
    adv = kv_advisory(vtol.system, vtol.target, constants, samples=20)
    assert adv.branch == "kv_for_r2"
    assert adv.kappa_for_pd is None  # unactuated directions stay undamped


def test_kv_advisory_ballbeam_fraction_table(ball_beam, bb_certificate):
    constants, _ = bb_certificate
    adv = kv_advisory(ball_beam.system, ball_beam.target, constants, samples=60)
    assert set(adv.fraction) == {0.1, 1.0, 5.0, 50.0}
    assert all(v > 0 for v in adv.fraction.values())
    assert adv.branch == "kv_for_r2"
    assert adv.kappa_for_pd is not None and adv.kappa_for_pd > 0.0


def test_nan_samples_propagate_through_the_folds(ball_beam):
    # Python min/max drop NaN (min(inf, nan) is inf): a block with one NaN
    # sample used to lose every sample of the block, and lam_min_R2 came out
    # infinite, which made the ultimate bounds (0, 0) and c_p = 0
    sys, tgt = ball_beam.system, ball_beam.target
    nominal, broken = np.diag([0.2, 0.1]), np.diag([0.2, np.nan])
    leaky = dataclasses.replace(sys, damping=lambda q: broken if q[0] > 0.5 else nominal)
    constants = estimate_constants(leaky, tgt, samples=200)
    assert math.isnan(constants.lam_min_R2)
    report = bound_report(constants, 0.2, 0.0, 0.0)
    assert report.c_p == report.c_p1 == pytest.approx(1.853, abs=1e-3)
    assert report.c_ptilde == report.c_ptilde1 > 0.0
    assert math.isnan(verify_matching(leaky, tgt, samples=200).r2_min_eig)

    grad_vd = tgt.potential_d_grad
    bad_vd = dataclasses.replace(
        tgt, potential_d_grad=lambda q: grad_vd(q) * (np.nan if q[0] > 0.5 else 1.0))
    assert math.isnan(estimate_constants(sys, bad_vd, samples=50).c_Vd)
    qs = np.array([[0.0, 0.1], [0.6, 0.0], [0.2, -0.1]])
    traj = SimpleNamespace(q=qs, p=np.ones_like(qs), p_norm=np.ones(3), ptilde_norm=np.ones(3))
    assert math.isnan(empirical_constants(sys, bad_vd, traj)["c_Vd"])


def test_empirical_kinetic_constant_for_configuration_dependent_g():
    # K = p1^2 / (2 (1 + q2^2)) + p2^2 / (2 (2 + sin q1)), G(q) = [cos q1, 1 + sin(q2) / 2]^T
    def kinetic_grad(q, p):
        return np.array([-0.5 * p[1] ** 2 * math.cos(q[0]) / (2.0 + math.sin(q[0])) ** 2,
                         -p[0] ** 2 * q[1] / (1.0 + q[1] ** 2) ** 2])

    def input_coupling(q):
        return np.array([[math.cos(q[0])], [1.0 + 0.5 * math.sin(q[1])]])

    sys = MechanicalSystem(
        m=1,
        mass_matrix=lambda q: np.diag([1.0 + q[1] ** 2, 2.0 + math.sin(q[0])]),
        potential=lambda q: float(q[0] ** 2),
        potential_grad=lambda q: np.array([2.0 * q[0], 0.0]),
        input_coupling=input_coupling,
        damping=lambda q: np.zeros((2, 2)),
        workspace=Box(lower=-np.ones(2), upper=np.ones(2)),
        kinetic_grad=kinetic_grad,
    )
    tgt = TargetDynamics(
        mass_d=lambda q: 2.0 * np.eye(2),
        potential_d=lambda q: float(q @ q),
        potential_d_grad=lambda q: 2.0 * q,
        j2=lambda q, pt: np.zeros((2, 2)),
        damping_gain=np.eye(1),
        equilibrium=np.zeros(2),
    )
    qs = np.array([[0.3, -0.2], [-0.7, 0.5], [0.1, 0.9]])
    ps = np.array([[0.4, 1.1], [-0.8, 0.3], [1.5, -0.6]])
    traj = SimpleNamespace(q=qs, p=ps, p_norm=np.linalg.norm(ps, axis=1),
                           ptilde_norm=np.linalg.norm(ps, axis=1) / 2.0)
    expected = 0.0
    for q, p in zip(qs, ps):
        g = input_coupling(q)[:, 0]
        expected = max(expected, abs(g @ kinetic_grad(q, p)) / (g @ g) / (p @ p))
    emp = empirical_constants(sys, tgt, traj)
    assert expected > 0.01
    assert emp["c_M"][0] == pytest.approx(expected, rel=1e-12)


def test_empirical_constants_recover_run_values(ball_beam, bb_trajectory):
    emp = empirical_constants(ball_beam.system, ball_beam.target, bb_trajectory)
    assert emp["c_Vd"] == pytest.approx(2.402, abs=0.01)
    assert emp["p_norm_max"] == pytest.approx(1.637, abs=0.01)
    assert emp["c_M"][0] == 0.0
    # the workspace estimate dominates every trajectory value
    constants, _ = ball_beam.certificate(samples=400)
    assert constants.c_Vd >= emp["c_Vd"]
    assert constants.c_J >= emp["c_J"]
    assert np.all(constants.c_V >= emp["c_V"] - 1e-9)
