"""Control-law layer: feedback evaluation and the two-phase scheme."""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bipbc import (
    Box,
    ConfigState,
    MechanicalSystem,
    RankDeficientG,
    SimConfig,
    SingularMass,
    SingularMassD,
    TargetDynamics,
    TwoPhaseController,
    simulate,
    target_energy,
)
from bipbc.controller import (
    SIGMA_MIN_LIMIT,
    IdaPbcLaw,
    ida_pbc_control_raw,
    log_cosh,
    pseudo_inverse_apply,
)
from bipbc.phcore import mass_solve, open_loop_field_raw
from bipbc.smalllinalg import smallest_singular_value
from bipbc.stacking import _matvec, _pull_back


def test_equilibrium_zero_control(ball_beam):
    tau = IdaPbcLaw(ball_beam.system, ball_beam.target)(0.0, np.zeros(2), np.zeros(2))
    assert np.allclose(tau, 0.0, atol=1e-14)


def test_zero_velocity_reduction(ball_beam):
    # tau(q, 0) must equal the potential-only expression exactly
    sys, tgt = ball_beam.system, ball_beam.target
    law = IdaPbcLaw(sys, tgt)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform([-2, -1], [2, 1])
        tau = law(0.0, q, np.zeros(2))
        g = sys.input_coupling(q)
        lam = tgt.mass_d(q) @ np.linalg.inv(sys.mass_matrix(q))
        expected = np.linalg.pinv(g) @ (sys.potential_grad(q) - lam @ tgt.potential_d_grad(q))
        assert np.allclose(tau, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("plant", ["ball-beam", "vtol-nonsmooth", "ball-beam-fd"])
def test_control_at_rest_is_the_potential_pull_back(plant, ball_beam, vtol, fd_ball_beam):
    # at p = 0 the kinetic, J_2 and damping terms are exactly zero, so the
    # law is pinv(G) (grad V - M_d M^-1 grad V_d) to the last bit
    bench = vtol if plant == "vtol-nonsmooth" else ball_beam
    sys, tgt = fd_ball_beam if plant == "ball-beam-fd" else (bench.system, bench.target)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.uniform(0.9 * sys.workspace.lower, 0.9 * sys.workspace.upper)
        potential = sys.potential_grad(q) - tgt.mass_d(q) @ mass_solve(
            sys, q, tgt.potential_d_grad(q))
        expected = pseudo_inverse_apply(sys.input_coupling(q), potential)
        for mode in ("linear", "saturated"):
            tau = ida_pbc_control_raw(sys, tgt, q, np.zeros(sys.n), mode)
            assert np.array_equal(tau, expected)


@pytest.mark.parametrize("plant", ["ball-beam", "vtol-nonsmooth", "ball-beam-fd"])
def test_law_field_is_the_open_loop_field_under_the_law(plant, ball_beam, vtol, fd_ball_beam):
    # the field reuses the law's evaluation of M, grad V, grad_q K and G and
    # must not move a bit (vtol-nonsmooth: saturated damping)
    bench = vtol if plant == "vtol-nonsmooth" else ball_beam
    sys, tgt = fd_ball_beam if plant == "ball-beam-fd" else (bench.system, bench.target)
    law = IdaPbcLaw(sys, tgt, bench.damping_mode)
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = rng.uniform(0.9 * sys.workspace.lower, 0.9 * sys.workspace.upper)
        p = 2.0 * rng.standard_normal(sys.n)
        assert np.array_equal(law.field(q, p), open_loop_field_raw(sys, q, p, law(0.0, q, p)))


#: (q, p, tau, field, ptilde) of `IdaPbcLaw.evaluate` at seeded states
#: (default_rng(16), q uniform in 0.9 x the workspace, p = 2 N(0, I)), captured
#: before the law's elementwise terms moved from numpy to Python floats
LAW_CAPTURE = {
    "ball-beam": [
        (
            [0.11563229758354288, -0.02368550224235652],
            [2.078708246447515, 2.0618434890770967],
            [3.01619245429212],
            [2.078708246447515, 0.5137435779835475, -0.15288947976118217, 1.830783430006428],
            [0.9536745907918595, -0.15527979029908165],
        ),
        (
            [0.20996761832181388, -0.16359398891151303],
            [1.0883543775053606, -0.7324433637144733],
            [10.129500960214887],
            [1.0883543775053606, -0.1811146674758907, 1.3869247333249295, 8.11533164407035],
            [0.9464911495752042, -0.39648987098645544],
        ),
        (
            [-0.5446739609507256, 0.0669033788953192],
            [0.2723246769065234, -1.8303494582798405],
            [-7.436351166447308],
            [0.2723246769065234, -0.42599258867111284, -0.8091393812461952, -2.0624542537004817],
            [0.6117884386053228, -0.3540175099052949],
        ),
    ],
    "ball-beam-fd": [
        (
            [0.11563229758354288, -0.02368550224235652],
            [2.078708246447515, 2.0618434890770967],
            [3.01619245219135],
            [2.078708246447515, 0.5137435779835475, -0.15288948065162083, 1.8307834279056578],
            [0.9536745907918595, -0.15527979029908165],
        ),
        (
            [0.20996761832181388, -0.16359398891151303],
            [1.0883543775053606, -0.7324433637144733],
            [10.129500962667262],
            [1.0883543775053606, -0.1811146674758907, 1.3869247332469004, 8.115331646522725],
            [0.9464911495752042, -0.39648987098645544],
        ),
        (
            [-0.5446739609507256, 0.0669033788953192],
            [0.2723246769065234, -1.8303494582798405],
            [-7.436351165806126],
            [0.2723246769065234, -0.42599258867111284, -0.8091393811806856, -2.0624542530593004],
            [0.6117884386053228, -0.3540175099052949],
        ),
    ],
    "vtol-nonsmooth": [
        (
            [7.227018598971426, -3.11651345294165, -1.0229339598369582],
            [2.0618434890770967, 3.6356921974578866, -0.770378761700477],
            [21.426910911252836, 9.339071070497711],
            [2.0618434890770967, 3.6356921974578866, -0.770378761700477, 19.50696147193802,
             -0.6425518348981392, 9.339071070497711],
            [6.380464629325263, 3.6356921974578866, -23.65494919031793],
        ),
        (
            [40.46029681811807, 15.932228918712397, -1.1483533762135223],
            [-0.7324433637144733, -2.8496970260126706, -1.4077182410777433],
            [23.987496058504686, 10.764463515033937],
            [-0.7324433637144733, -2.8496970260126706, -1.4077182410777433, 22.982087387691177,
             -2.429909815306459, 10.764463515033937],
            [4.458963582367816, -2.8496970260126706, -25.224591366696973],
        ),
        (
            [-37.259972474508, 8.622889019246994, 1.1557572542823393],
            [2.2405001514958207, 1.140903381517121, 1.1446873103611819],
            [28.76423722077171, -12.566877830713072],
            [2.2405001514958207, 1.140903381517121, 1.1446873103611819, -27.588991749125665,
             -1.086509969613136, -12.566877830713072],
            [-0.9939489990514141, 1.140903381517121, 13.931745601240353],
        ),
    ],
    "vtol-two-phase": [
        (
            [7.227018598971426, -3.11651345294165, -1.0229339598369582],
            [2.0618434890770967, 3.6356921974578866, -0.770378761700477],
            [21.53059615597073, 9.539221120125529],
            [2.0618434890770967, 3.6356921974578866, -0.770378761700477, 19.621534053938486,
             -0.6312599761568833, 9.539221120125529],
            [0.4253643086216842, 3.6356921974578866, -8.76719838855898],
        ),
        (
            [40.46029681811807, 15.932228918712397, -1.1483533762135223],
            [-0.7324433637144733, -2.8496970260126706, -1.4077182410777433],
            [25.85081060131811, 11.042130010625312],
            [-0.7324433637144733, -2.8496970260126706, -1.4077182410777433, 24.710058206676226,
             -1.7292839509041311, 11.042130010625312],
            [0.2972642388245211, -2.8496970260126706, -14.820343007838737],
        ),
        (
            [-37.259972474508, 8.622889019246994, 1.1557572542823393],
            [2.2405001514958207, 1.140903381517121, 1.1446873103611819],
            [29.322017007186677, -12.844304784162953],
            [2.2405001514958207, 1.140903381517121, 1.1446873103611819, -28.12738276586538,
             -0.9250672231567592, -12.844304784162953],
            [-0.0662632666034276, 1.140903381517121, 11.612531270120387],
        ),
    ],
}


@pytest.mark.parametrize("design", sorted(LAW_CAPTURE))
def test_law_values_equal_their_capture(design, ball_beam, fd_ball_beam, vtol, vtol_two_phase):
    bench = {"ball-beam": ball_beam, "ball-beam-fd": ball_beam, "vtol-nonsmooth": vtol,
             "vtol-two-phase": vtol_two_phase}[design]
    sys, tgt = fd_ball_beam if design == "ball-beam-fd" else (bench.system, bench.target)
    law = IdaPbcLaw(sys, tgt, bench.damping_mode)
    for q, p, tau, field, pt in LAW_CAPTURE[design]:
        q, p = np.array(q), np.array(p)
        got = law.evaluate(q, p)
        for name, value, want in zip(("tau", "field", "ptilde"), got, (tau, field, pt)):
            assert np.array_equal(value, want), name
        assert np.array_equal(law.field(q, p), field)
        assert np.array_equal(law(0.0, q, p), tau)


def test_nominal_start_control_moderate(ball_beam):
    s = ball_beam.initial_state
    tau = IdaPbcLaw(ball_beam.system, ball_beam.target)(0.0, s.q, s.p)
    assert abs(tau[0]) < 15.0


def test_saturated_damping_mode(vtol):
    sys, tgt = vtol.system, vtol.target
    linear, saturated = IdaPbcLaw(sys, tgt, "linear"), IdaPbcLaw(sys, tgt, "saturated")
    rng = np.random.default_rng(8)
    for _ in range(20):
        q = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1.2, 1.2)])
        p = rng.standard_normal(3)
        tau_lin = linear(0.0, q, p)
        tau_sat = saturated(0.0, q, p)
        y = sys.input_coupling(q).T @ np.linalg.solve(tgt.mass_d(q), p)
        delta = tgt.damping_gain @ (y - np.array([math.tanh(v) for v in y]))
        assert np.allclose(tau_sat - tau_lin, delta, atol=1e-12)
        assert np.all(np.abs(tau_sat - tau_lin) <= np.abs(y - np.tanh(y)) @ np.abs(tgt.damping_gain) + 1e-12)


def test_unknown_damping_mode(ball_beam):
    s = ball_beam.initial_state
    with pytest.raises(ValueError):
        ida_pbc_control_raw(ball_beam.system, ball_beam.target, s.q, s.p, damping_mode="bogus")
    with pytest.raises(ValueError):
        IdaPbcLaw(ball_beam.system, ball_beam.target, "bogus")


def toy_design(mass, mass_d, potential_grad=lambda q: q.copy(),
               kinetic_grad=lambda q, p: np.zeros(2)):
    """Fully actuated 2-DOF plant and target with the given M(q), M_d(q), grad_q V
    and grad_q K; V_d = |q|^2 / 2, J_2 = 0, K_v = I."""
    sys = MechanicalSystem(m=2, mass_matrix=mass, potential=lambda q: 0.5 * float(q @ q),
                           potential_grad=potential_grad, input_coupling=lambda q: np.eye(2),
                           damping=lambda q: np.zeros((2, 2)),
                           workspace=Box(lower=-np.ones(2), upper=np.ones(2)),
                           kinetic_grad=kinetic_grad)
    tgt = TargetDynamics(mass_d=mass_d, potential_d=lambda q: 0.5 * float(q @ q),
                         potential_d_grad=lambda q: q.copy(), j2=lambda q, pt: np.zeros((2, 2)),
                         damping_gain=np.eye(2), equilibrium=np.zeros(2),
                         kinetic_d_grad=lambda q, p: np.zeros(2))
    return sys, tgt


def raising(message):
    def fn(*args):
        raise ValueError(message)
    return fn


EYE, ZERO = (lambda q: np.eye(2)), (lambda q: np.zeros((2, 2)))


@pytest.mark.parametrize("mass, mass_d, grads, want", [
    (EYE, ZERO, {}, SingularMassD),
    (ZERO, EYE, {}, SingularMass),
    (ZERO, ZERO, {}, SingularMassD),
    # M is guarded after grad_q V and grad_q V_d and before grad_q K
    (ZERO, EYE, {"potential_grad": raising("grad V")}, ValueError),
    (ZERO, EYE, {"kinetic_grad": raising("grad K")}, SingularMass),
])
def test_law_raises_in_its_order_of_evaluation(mass, mass_d, grads, want):
    # recorded from the law that solved against M once per right-hand side:
    # M_d is solved first, and M is looked at where grad_q V_d is solved
    law = IdaPbcLaw(*toy_design(mass, mass_d, **grads))
    q, p = np.array([0.1, 0.2]), np.array([0.3, -0.4])
    for call in (lambda: law(0.0, q, p), lambda: law.evaluate(q, p), lambda: law.field(q, p)):
        with pytest.raises(want) as info:
            call()
        assert type(info.value) is want
        assert str(info.value) == ("singular 2x2 matrix" if want is not ValueError else "grad V")


def test_mass_singular_mid_run_ends_in_domain_exit():
    # M = (1 - q_1) I reaches zero inside an RK4 step; the time, message and
    # last record are those of the law that solved against M once per
    # right-hand side
    sys, tgt = toy_design(lambda q: max(0.0, 1.0 - q[0]) * np.eye(2), EYE)
    s0 = ConfigState(q=np.array([0.4, 0.0]), p=np.array([5.0, 0.0]))
    traj = simulate(sys, IdaPbcLaw(sys, tgt), s0, SimConfig(dt=1e-2, t_end=1.0), target=tgt)
    assert traj.events == [(0.04, "domain_exit", {"error": "singular 2x2 matrix"})]
    assert len(traj) == 4
    assert traj.q[-1].tolist() == [0.7443963392790826, 0.0]
    assert traj.p[-1].tolist() == [4.812369492409299, 0.0]
    assert traj.tau[-1].tolist() == [-6.980280188090316, 0.0]


def test_rank_deficient_g_raises():
    with pytest.raises(RankDeficientG):
        pseudo_inverse_apply(np.array([[1e-12], [0.0]]), np.ones(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_non_finite_g_raises(m, bad, capfd):
    # sigma_min of such a G is NaN or inf, which a bare `< 1e-9` lets through;
    # for m >= 3 LAPACK's SVD would fail on it and print to stderr
    for n in range(m, 5):
        for i, j in itertools.product(range(n), range(m)):
            g = np.eye(n, m)
            g[i, j] = bad
            with pytest.raises(RankDeficientG):
                pseudo_inverse_apply(g, np.ones(n))
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("m", [1, 2])
def test_rank_guard_agrees_with_smallest_singular_value(m):
    # the guard reads sigma_min off the pull-back's own factorization: sqrt(g^T g)
    # for m = 1, r11 r22 / sigma_max(R) for m = 2. On G = U diag(s) V^T with
    # sigma_min swept across 1e-9 and cond(G) up to 1e10, it raises exactly where
    # smallest_singular_value is below 1e-9, except within a relative band of
    # 1e-4 around it (both estimates are accurate to about eps cond(G) = 2e-6)
    rng = np.random.default_rng(21)
    scales = SIGMA_MIN_LIMIT * np.concatenate([np.logspace(-1.0, 1.0, 21),
                                               1.0 + np.linspace(-1e-2, 1e-2, 41)])
    checked = collections.Counter()
    for n in range(m, 5):
        for scale in scales:
            for _ in range(5):
                u, _ = np.linalg.qr(rng.standard_normal((n, m)))
                w, _ = np.linalg.qr(rng.standard_normal((m, m)))
                g = (u * np.array([10.0 ** rng.uniform(-1.0, 1.0), scale])[-m:]) @ w.T
                sigma = smallest_singular_value(g)
                if abs(sigma / SIGMA_MIN_LIMIT - 1.0) < 1e-4:
                    continue
                below = sigma < SIGMA_MIN_LIMIT
                checked[below] += 1
                try:
                    pseudo_inverse_apply(g, rng.standard_normal(n))
                except RankDeficientG:
                    assert below, (n, sigma)
                else:
                    assert not below, (n, sigma)
    assert min(checked.values()) > 100


def exact_least_squares(g, v):
    """(x, r): the normal equations G^T G x = G^T v in rationals, r = v - G x."""
    n, m = g.shape
    gf = [[Fraction(e) for e in row] for row in g.tolist()]
    vf = [Fraction(e) for e in v.tolist()]
    a = [[sum(gf[k][i] * gf[k][j] for k in range(n)) for j in range(m)] +
         [sum(gf[k][i] * vf[k] for k in range(n))] for i in range(m)]
    for i in range(m):  # G^T G is positive definite: no pivoting
        for row in a[i + 1:]:
            f = row[i] / a[i][i]
            row[i:] = [x - f * y for x, y in zip(row[i:], a[i][i:])]
    x = [Fraction(0)] * m
    for i in reversed(range(m)):
        x[i] = (a[i][m] - sum(a[i][j] * x[j] for j in range(i + 1, m))) / a[i][i]
    return x, [vf[k] - sum(gf[k][j] * x[j] for j in range(m)) for k in range(n)]


def conditioned_cases(seed):
    """(G, v) with G = U diag(s) V^T, cond(G) = 1..1e8, m = 1..3 and n = max(m, 2)..4,
    and v = G x0 plus a small residual."""
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3):
        for log_kappa in range(9):
            for _ in range(12):
                n = int(rng.integers(max(m, 2), 5))
                u, _ = np.linalg.qr(rng.standard_normal((n, m)))
                w, _ = np.linalg.qr(rng.standard_normal((m, m)))
                s = np.logspace(0.0, -log_kappa, m) * 10.0 ** rng.uniform(0.0, 2.0)
                g = (u * s) @ w.T
                yield g, g @ rng.standard_normal(m) + 1e-6 * rng.standard_normal(n)


def assert_backward_stable(g, v, got):
    """|x - x*| / |x*| <= 16 eps k (1 + k |r| / (|G| |x*|)) with k = cond(G), the
    accuracy of Householder QR, for the pull-back `got` of v."""
    eps = np.finfo(float).eps
    x, r = exact_least_squares(g, v)
    sv = np.linalg.svd(g, compute_uv=False)
    kappa = sv[0] / sv[-1]
    x_norm = math.sqrt(sum(e * e for e in x))
    r_norm = math.sqrt(sum(e * e for e in r))
    err = math.sqrt(sum((Fraction(a) - b) ** 2 for a, b in zip(got.tolist(), x))) / x_norm
    bound = 16.0 * eps * kappa * (1.0 + kappa * r_norm / (sv[0] * x_norm))
    assert err <= bound, (g.shape, kappa, err / bound)


def test_pull_back_is_backward_stable():
    # the adjugate of G^T G, whose error grows with cond(G)^2, fails it from cond(G) = 1e2
    for g, v in conditioned_cases(17):
        assert_backward_stable(g, v, pseudo_inverse_apply(g, v))


def test_stacked_pull_back_is_backward_stable():
    # the sweeps' pull-back, one stack per shape of G, meets the same bound row by row
    shapes = collections.defaultdict(list)
    for g, v in conditioned_cases(18):
        shapes[g.shape].append((g, v))
    for cases in shapes.values():
        gs, vs = map(np.stack, zip(*cases))
        for g, v, x in zip(gs, vs, _matvec(_pull_back(gs), vs)):
            assert_backward_stable(g, v, x)


def test_pull_back_of_unit_structure_g_selects_its_rows():
    # per point, as `test_pinv_of_unit_structure_g_is_its_transpose` on
    # stacks: on a 0/1 unit-structure G the pull-back is G's actuated rows
    rng = np.random.default_rng(6)
    for n in range(1, 5):
        for m in range(1, min(n, 2) + 1):
            for rows in itertools.permutations(range(n), m):
                g = np.zeros((n, m))
                g[rows, range(m)] = 1.0
                v = rng.standard_normal(n)
                assert np.array_equal(pseudo_inverse_apply(g, v), v[list(rows)]), rows


def test_saturation_contract(vtol):
    # the VTOL law's only momentum dependence is its saturated damping, so
    # along p = s p0 each input moves monotonically, starts at the undamped
    # value, and never departs from it by more than lam_max{K_v}
    sys, tgt = vtol.system, vtol.target
    law = IdaPbcLaw(sys, tgt, "saturated")
    kv = float(np.max(np.linalg.eigvalsh(tgt.damping_gain)))
    rng = np.random.default_rng(6)
    scales = np.linspace(-50.0, 50.0, 401)
    for _ in range(10):
        q = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1.2, 1.2)])
        p0 = rng.standard_normal(3)
        rest = law(0.0, q, np.zeros(3))
        taus = np.array([law(0.0, q, s * p0) for s in scales])
        share = taus - rest
        assert np.all(np.abs(share) <= kv + 1e-12)
        assert np.array_equal(taus[scales == 0.0][0], rest)
        for i in range(2):
            steps = np.diff(share[:, i])
            assert np.all(steps <= 1e-12) or np.all(steps >= -1e-12)


def test_log_cosh_stable_and_correct():
    for x in (-700.0, -3.2, -0.5, 0.0, 0.5, 3.2, 700.0):
        if abs(x) < 20:
            assert log_cosh(x) == pytest.approx(math.log(math.cosh(x)), abs=1e-12)
        else:
            assert log_cosh(x) == pytest.approx(abs(x) - math.log(2.0), abs=1e-12)


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
        secondary_law=bench.make_controller().secondary_law,
    )
    rng = np.random.default_rng(9)
    for k in range(50):
        q = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1.0, 1.0)])
        assert np.array_equal(ctrl.control(0.1 * k, q, np.zeros(3), 1), [1.0, 2.0])
    traj = simulate(bench.system, ctrl, bench.initial_state,
                    SimConfig(dt=1e-2, t_end=0.5, monitors=("phase_switch",)))
    assert np.all(traj.phase == 1)
    assert traj.switch_time is None and traj.switch_state is None
    assert traj.events == []


def test_two_phase_secondary_is_the_single_phase_law(vtol_two_phase):
    bench = vtol_two_phase
    ctrl = bench.make_controller()
    rng = np.random.default_rng(11)
    for k in range(100):
        q = np.array([rng.uniform(-30, 30), rng.uniform(-20, 20), rng.uniform(-1.3, 1.3)])
        p = 5.0 * rng.standard_normal(3)
        want = ida_pbc_control_raw(bench.system, bench.target, q, p, damping_mode="saturated")
        assert np.array_equal(ctrl.control(0.1 * k, q, p, 2), want)


def test_rank_guard_catches_nearly_parallel_columns():
    # sigma_min = 4.7e-12: the Gram eigenvalue half_trace - disc cancels to 1.05e-8
    g = np.array([[-0.5442589828573099, -0.8004875493516173],
                  [-0.31630015636915454, -0.46520929375231407],
                  [0.4116305363741328, 0.6054197168711769]])
    want = np.linalg.svd(g, compute_uv=False)[-1]
    assert smallest_singular_value(g) == pytest.approx(want, rel=1e-3)
    with pytest.raises(RankDeficientG):
        pseudo_inverse_apply(g, np.array([1.0, 0.0, 0.0]))


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
