"""Block-stacked certificate sweeps against point-by-point reference loops.

The sweeps in `bipbc.bounds` and `bipbc.matching` evaluate the plant over
blocks of points (per point for these plants, which carry no row-batched
twins) and run the linear algebra once per block. The loops below are the
point-at-a-time form of the same arithmetic; every result must agree
exactly, not within a tolerance. They take pinv(G) and spectral norms from the
sweeps' own closed forms applied to one matrix at a time; the closed forms are
held to numpy's SVD within stated tolerances below.

`estimate_constants` takes the momentum terms on unit directions from
polarized probes. Its exact reference is a point loop of that computation;
a second loop calls the terms directly on every direction, and the two
agree within stated rounding tolerances.
"""

import collections
import dataclasses
import itertools
import math
import warnings
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from bipbc import (
    BoundConstants,
    Box,
    MechanicalSystem,
    RankDeficientG,
    SimConfig,
    SingularMass,
    TargetDynamics,
    ToolkitError,
    empirical_constants,
    estimate_constants,
    kv_advisory,
    simulate,
    validate_constants,
    verify_matching,
)
from bipbc.bounds import INFLATION, KvAdvisory, _sup_vd_grad, _unit_directions, unit_input_rows
from bipbc.controller import kinetic_d_grad, mass_d_solve, matching_terms
from bipbc.matching import (MATCHING_MOMENTUM_CAP, MatchingReport, annihilator, build_r2,
                            damping_transfer, equilibrium_check)
from bipbc.sampling import ball_sample
from bipbc.phcore import kinetic_energy_grad, mass_solve
from bipbc.stacking import _BLOCK, _eigvalsh, _pull_back, _spectral_norms, _swap


# -- point-by-point references -------------------------------------------------


def one(stacked, a):
    """A stacked operation applied to the one matrix `a`, as a stack of one."""
    return stacked(np.asarray(a, dtype=float)[None])[0]


def ref_unit_rows(g_ref, gs):
    rows = unit_input_rows(g_ref)
    if rows is None:
        return None
    for g in gs:
        other = unit_input_rows(g)
        if other is None or not np.array_equal(other, rows):
            return None
    return rows


def ref_actuated_terms(sys, tgt, q, kinetic, rows, pinv_g=None):
    """Actuated magnitudes at q for the kinetic gradients `kinetic` (K, n)."""
    grad_v = np.asarray(sys.potential_grad(q), dtype=float)
    lam = tgt.mass_d(q) @ np.linalg.inv(sys.mass_matrix(q))
    if rows is not None:
        return np.abs(grad_v[rows]), np.linalg.norm(lam[rows], axis=1), np.abs(kinetic[:, rows])
    if pinv_g is None:
        pinv_g = one(_pull_back, sys.input_coupling(q))
    kinetic = np.abs([pinv_g @ gk for gk in kinetic])
    return np.abs(pinv_g @ grad_v), np.linalg.norm(pinv_g @ lam, axis=1), kinetic


def ref_polarized(fn, q, directions, degree):
    """fn(q, u) on every direction u from its values at the polarization probes.

    A quadratic f(u) = sum_jk u_j u_k A_jk is fixed by F_j = f(e_j) = A_jj and
    F_jk = f(e_j + e_k) = A_jj + A_kk + 2 A_jk (j < k), so
    f(u) = sum_j u_j (2 u_j - sum_k u_k) F_j + sum_{j<k} u_j u_k F_jk; a linear
    f(u) = sum_j u_j f(e_j).
    """
    n = q.size
    eye = np.eye(n)
    probes, weights = list(eye), [directions[:, j] for j in range(n)]
    if degree == 2:
        total = directions.sum(axis=1)
        weights = [w * (2.0 * w - total) for w in weights]
        for j in range(n):
            for k in range(j + 1, n):
                probes.append(eye[j] + eye[k])
                weights.append(directions[:, j] * directions[:, k])
    values = np.array([np.asarray(fn(q, u), dtype=float) for u in probes])
    flat = np.stack(weights, axis=1) @ values.reshape(len(probes), -1)
    return flat.reshape((len(directions),) + values.shape[1:])


def ref_direct(fn, q, directions, degree):
    """fn(q, u) called on every direction u."""
    return np.array([np.asarray(fn(q, u), dtype=float) for u in directions])


def ref_estimate_constants(sys, tgt, samples, inflation=1.05, mu=1e-6, momentum=ref_polarized):
    box = sys.workspace
    qs = np.vstack([box.sample(samples), box.corners(), box.center()[None, :]])
    n, m = sys.n, sys.m
    directions = _unit_directions(n, max(64, 8 * n))
    rows = ref_unit_rows(
        np.asarray(sys.input_coupling(box.center()), dtype=float),
        [np.asarray(sys.input_coupling(q), dtype=float) for q in qs],
    )
    c_v, c_lam, c_m = np.zeros(m), np.zeros(m), np.zeros(m)
    c_md = c_j = g_cap = g_pinv_cap = 0.0
    sigma = np.full(m, np.inf)
    lam_min_md, lam_max_md, lam_min_r2 = np.inf, -np.inf, np.inf
    for q in qs:
        g = np.asarray(sys.input_coupling(q), dtype=float)
        md = tgt.mass_d(q)
        lam = md @ np.linalg.inv(sys.mass_matrix(q))
        grad_v = np.asarray(sys.potential_grad(q), dtype=float)
        grad_vd = np.asarray(tgt.potential_d_grad(q), dtype=float)
        pinv_g = one(_pull_back, g)
        eigs = np.linalg.eigvalsh(0.5 * (md + md.T))
        lam_min_md = min(lam_min_md, float(eigs[0]))
        lam_max_md = max(lam_max_md, float(eigs[-1]))
        lam_min_r2 = min(lam_min_r2, float(np.min(np.linalg.eigvalsh(build_r2(sys, tgt, q)))))
        g_cap = max(g_cap, float(one(_spectral_norms, g)))
        g_pinv_cap = max(g_pinv_cap, float(one(_spectral_norms, pinv_g)))
        sigma = np.minimum(sigma, pinv_g @ (grad_v - lam @ grad_vd))
        kinetic = momentum(partial(kinetic_energy_grad, sys), q, directions, 2)
        v_q, lam_q, kinetic_q = ref_actuated_terms(sys, tgt, q, kinetic, rows, pinv_g)
        c_v = np.maximum(c_v, v_q)
        c_lam = np.maximum(c_lam, lam_q)
        c_m = np.maximum(c_m, np.max(kinetic_q, axis=0))
        for gkd in momentum(partial(kinetic_d_grad, tgt), q, directions, 2):
            c_md = max(c_md, float(np.linalg.norm(gkd)))
        for j2 in momentum(tgt.j2, q, directions, 1):
            c_j = max(c_j, float(one(_spectral_norms, j2)))
    c_vd = 0.0
    for q in np.vstack([box.sample(samples, skip=7 * samples), box.corners()]):
        c_vd = max(c_vd, float(np.linalg.norm(tgt.potential_d_grad(q))))
    kv = tgt.damping_gain
    return BoundConstants(
        c_V=inflation * c_v,
        c_Vd=inflation * c_vd,
        c_M=inflation * c_m,
        c_Md=inflation * c_md,
        c_J=inflation * c_j,
        c_Lambda=inflation * c_lam,
        lam_min_MdInv=1.0 / lam_max_md,
        lam_max_MdInv=1.0 / lam_min_md,
        lam_min_Md=lam_min_md,
        lam_max_Md=lam_max_md,
        lam_min_R2=float(lam_min_r2),
        lam_max_Kv=float(np.max(np.linalg.eigvalsh(0.5 * (kv + kv.T)))),
        G_M=inflation * g_pinv_cap,
        G_m=inflation * g_cap,
        sigma=sigma,
        mu=mu,
        unit_structure=rows is not None,
        samples=int(qs.shape[0]),
    )


def ref_validate_constants(sys, tgt, constants, momentum_cap=2.0, samples=10_000, seed=1):
    box = sys.workspace
    rng = np.random.default_rng(seed)
    qs = box.lower + rng.random((samples, sys.n)) * (box.upper - box.lower)
    ps = rng.standard_normal((samples, sys.n))
    ps *= (momentum_cap * rng.random((samples, 1)) ** (1.0 / sys.n)) / np.linalg.norm(
        ps, axis=1, keepdims=True
    )
    rows = None
    if constants.unit_structure:
        rows = ref_unit_rows(
            np.asarray(sys.input_coupling(box.center()), dtype=float),
            [np.asarray(sys.input_coupling(q), dtype=float) for q in qs],
        )
    tol = 1e-9
    bad = 0
    for q, p in zip(qs, ps):
        pn2 = float(p @ p)
        pt = mass_d_solve(tgt, q, p)
        gk = kinetic_energy_grad(sys, q, p)[None]
        v_rows, lam_rows, (gk_rows,) = ref_actuated_terms(sys, tgt, q, gk, rows)
        ok = (
            np.all(gk_rows <= constants.c_M * pn2 + tol)
            and float(np.linalg.norm(kinetic_d_grad(tgt, q, p))) <= constants.c_Md * pn2 + tol
            and float(one(_spectral_norms, tgt.j2(q, pt)))
            <= constants.c_J * float(np.linalg.norm(pt)) + tol
            and np.all(lam_rows <= constants.c_Lambda + tol)
            and np.all(v_rows <= constants.c_V + tol)
            and float(np.linalg.norm(tgt.potential_d_grad(q))) <= constants.c_Vd + tol
        )
        bad += not ok
    return bad


def ref_empirical_constants(sys, tgt, traj):
    rows = ref_unit_rows(
        np.asarray(sys.input_coupling(tgt.equilibrium), dtype=float),
        [np.asarray(sys.input_coupling(q), dtype=float) for q in traj.q],
    )
    m = sys.m
    out = {"c_V": np.zeros(m), "c_Vd": 0.0, "c_M": np.zeros(m), "c_Md": 0.0, "c_J": 0.0,
           "c_Lambda": np.zeros(m), "p_norm_max": float(np.max(traj.p_norm)),
           "ptilde_norm_max": float(np.nanmax(traj.ptilde_norm))}
    for q, p in zip(traj.q, traj.p):
        gk = kinetic_energy_grad(sys, q, p)[None]
        v_q, lam_q, (kinetic_q,) = ref_actuated_terms(sys, tgt, q, gk, rows)
        out["c_V"] = np.maximum(out["c_V"], v_q)
        out["c_Lambda"] = np.maximum(out["c_Lambda"], lam_q)
        out["c_Vd"] = max(out["c_Vd"], float(np.linalg.norm(tgt.potential_d_grad(q))))
        pn2 = float(p @ p)
        if pn2 > 1e-12:
            pt = mass_d_solve(tgt, q, p)
            ptn = float(np.linalg.norm(pt))
            out["c_M"] = np.maximum(out["c_M"], kinetic_q / pn2)
            out["c_Md"] = max(out["c_Md"], float(np.linalg.norm(kinetic_d_grad(tgt, q, p))) / pn2)
            if ptn > 1e-9:
                out["c_J"] = max(out["c_J"], float(one(_spectral_norms, tgt.j2(q, pt))) / ptn)
    return out


def ref_kv_advisory(sys, tgt, constants, kappas=(0.1, 1.0, 5.0, 50.0), samples=200):
    box = sys.workspace
    qs = np.vstack([box.sample(samples), box.corners(), box.center()[None, :]])

    def transfer(q):
        return np.asarray(sys.damping(q), dtype=float) @ mass_solve(sys, q, tgt.mass_d(q))

    def r2_min_with(kappa):
        worst = np.inf
        kv = kappa * np.eye(sys.m)
        for q in qs:
            s = transfer(q)
            g = np.asarray(sys.input_coupling(q), dtype=float)
            worst = min(worst, float(np.min(np.linalg.eigvalsh(0.5 * (s + s.T) + g @ kv @ g.T))))
        return worst

    sym = min(float(np.min(np.linalg.eigvalsh(transfer(q) + transfer(q).T))) for q in qs)
    branch = "small_kv" if sym > 0 else "kv_for_r2"
    kappa_for_pd = None
    if branch == "kv_for_r2" and r2_min_with(1e6) > 0:
        lo, hi = 0.0, 1e6
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if r2_min_with(mid) > 0:
                hi = mid
            else:
                lo = mid
        kappa_for_pd = hi
    prefix = math.sqrt(constants.lam_max_Md / constants.lam_min_Md) * constants.c_Vd

    def fraction_at(kappa):
        return kappa * prefix / (max(r2_min_with(kappa), 0.0) + constants.mu)

    fraction = {kappa: fraction_at(kappa) for kappa in kappas}
    below = next((kappa for kappa, value in fraction.items() if value < 1.0), None)
    return KvAdvisory(branch, sym, kappa_for_pd, fraction, fraction_at(1e-9),
                      fraction_at(1e9), below)


def ref_verify_matching(sys, tgt, samples=1000, region=None):
    box = region if region is not None else sys.workspace
    qs = box.sample(samples)
    ps = ball_sample(samples, sys.n, MATCHING_MOMENTUM_CAP, skip=samples)
    kin_max = pot_max = 0.0
    r2_min = cond5_min = np.inf
    for q, p in zip(qs, ps):
        transfer = damping_transfer(sys, tgt, q)
        r2_min = min(r2_min, float(np.min(np.linalg.eigvalsh(build_r2(sys, tgt, q)))))
        gperp = annihilator(sys, q)
        if gperp.shape[0]:
            potential, kinetic, _ = matching_terms(sys, tgt, q, p)
            kin_max = max(kin_max, float(np.linalg.norm(gperp @ (2.0 * kinetic))))
            pot_max = max(pot_max, float(np.linalg.norm(gperp @ potential)))
            cond5 = gperp @ (transfer + transfer.T) @ gperp.T
            cond5_min = min(cond5_min, float(np.min(np.linalg.eigvalsh(cond5))))
    return MatchingReport(kin_max, pot_max, r2_min, 0.0 if cond5_min == np.inf else cond5_min,
                          equilibrium_check(tgt), samples)


# -- plants ---------------------------------------------------------------------


def configuration_dependent_plant():
    """2-DOF toy with q-dependent M, G = [cos q1, 1 + sin(q2) / 2]^T (the pinv path),
    q-dependent M_d and J_2, natural damping, and a finite-difference K_d."""

    def kinetic_grad(q, p):
        return np.array([-0.5 * p[1] ** 2 * math.cos(q[0]) / (2.0 + math.sin(q[0])) ** 2,
                         -p[0] ** 2 * q[1] / (1.0 + q[1] ** 2) ** 2])

    sys = MechanicalSystem(
        m=1,
        mass_matrix=lambda q: np.diag([1.0 + q[1] ** 2, 2.0 + math.sin(q[0])]),
        potential=lambda q: float(q[0] ** 2),
        potential_grad=lambda q: np.array([2.0 * q[0], 0.0]),
        input_coupling=lambda q: np.array([[math.cos(q[0])], [1.0 + 0.5 * math.sin(q[1])]]),
        damping=lambda q: np.diag([0.1, 0.2]),
        workspace=Box(lower=-np.ones(2), upper=np.ones(2)),
        kinetic_grad=kinetic_grad,
    )
    tgt = TargetDynamics(
        mass_d=lambda q: np.array([[2.0, 0.3 * q[0]], [0.3 * q[0], 2.0]]),
        potential_d=lambda q: float(q @ q),
        potential_d_grad=lambda q: 2.0 * q,
        j2=lambda q, pt: np.array([[0.0, q[1] * pt[0]], [-q[1] * pt[0], 0.0]]),
        damping_gain=np.eye(1),
        equilibrium=np.zeros(2),
    )
    return sys, tgt


def finite_difference_plant(ball_beam):
    """Ball-beam without analytic kinetic gradients or annihilator."""
    sys = dataclasses.replace(ball_beam.system, kinetic_grad=None, annihilator=None)
    return sys, dataclasses.replace(ball_beam.target, kinetic_d_grad=None)


def switching_rows_plant():
    """G selects q1 for q1 >= 0 and q2 for q1 < 0; grad V = (0, 5)."""
    def zeros(q, p):
        return np.zeros(2)

    def input_coupling(q):
        return np.array([[1.0], [0.0]]) if q[0] >= 0 else np.array([[0.0], [1.0]])

    sys = MechanicalSystem(
        m=1,
        mass_matrix=lambda q: np.eye(2),
        potential=lambda q: 5.0 * float(q[1]),
        potential_grad=lambda q: np.array([0.0, 5.0]),
        input_coupling=input_coupling,
        damping=lambda q: np.zeros((2, 2)),
        workspace=Box(lower=-np.ones(2), upper=np.ones(2)),
        kinetic_grad=zeros,
    )
    tgt = TargetDynamics(
        mass_d=lambda q: np.eye(2),
        potential_d=lambda q: 0.5 * float(q @ q),
        potential_d_grad=lambda q: q.copy(),
        j2=lambda q, pt: np.zeros((2, 2)),
        damping_gain=np.eye(1),
        equilibrium=np.zeros(2),
        kinetic_d_grad=zeros,
    )
    return sys, tgt


def three_dof_plant():
    """3-DOF toy, every momentum term nonzero: q-dependent diagonal M with FD grad K,
    a full q-dependent M_d with FD grad K_d, and a J_2 that uses all of ptilde."""

    def j2(q, pt):
        a, b, c = (1.0 + q[0]) * pt[1], q[1] * pt[2] - pt[0], q[2] * pt[0] + 0.5 * pt[1]
        return np.array([[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]])

    sys = MechanicalSystem(
        m=2,
        mass_matrix=lambda q: np.diag([1.0 + q[0] ** 2, 2.0 + math.sin(q[1]), 1.5 + q[0] * q[2]]),
        potential=lambda q: float(q @ q),
        potential_grad=lambda q: 2.0 * q,
        input_coupling=lambda q: np.array([[1.0, 0.0], [0.0, math.cos(q[2])], [0.0, 1.0]]),
        damping=lambda q: 0.1 * np.eye(3),
        workspace=Box(lower=-0.8 * np.ones(3), upper=np.ones(3)),
    )
    tgt = TargetDynamics(
        mass_d=lambda q: np.array([[3.0, 0.2 * q[1], 0.1],
                                   [0.2 * q[1], 2.0 + q[0] ** 2, 0.3 * q[2]],
                                   [0.1, 0.3 * q[2], 2.5]]),
        potential_d=lambda q: float(q @ q),
        potential_d_grad=lambda q: 2.0 * q,
        j2=j2,
        damping_gain=np.eye(2),
        equilibrium=np.zeros(3),
    )
    return sys, tgt


def four_dof_plant():
    """4-DOF, 3-input toy with q-dependent, non-diagonal M and M_d, FD grad K and
    grad K_d, and a skew J_2 that uses all of ptilde: n > 3 solves with numpy,
    whose solve of a matrix right-hand side is not that of its columns one by one."""

    def coupling_row(q):  # G = [I_3; r^T]
        return np.array([0.2 * math.sin(q[0]), 0.1, 0.3 * q[1]])

    def annihilator(q):
        # [-r^T, 1] / sqrt(1 + r^T r), C-contiguous as in the sweep's stack: for n = 4 the
        # point loop's product with the transposed view of the SVD annihilator rounds
        # otherwise than the sweep's product with its contiguous copy
        r = coupling_row(q)
        return np.append(-r, 1.0)[None] / math.sqrt(1.0 + float(r @ r))

    def j2(q, pt):
        a, b, c = q[0] * pt[1] + pt[2], 0.5 * pt[3] - q[2] * pt[0], pt[0] + q[1] * pt[3]
        d, e, f = q[3] * pt[2], 0.3 * pt[1] - pt[3], q[0] * pt[0] + 0.2 * pt[2]
        return np.array([[0.0, a, b, c], [-a, 0.0, d, e], [-b, -d, 0.0, f], [-c, -e, -f, 0.0]])

    sys = MechanicalSystem(
        m=3,
        mass_matrix=lambda q: np.array([
            [2.0 + math.sin(q[0]), 0.3 * q[1], 0.1, 0.2 * q[3]],
            [0.3 * q[1], 2.5 + q[2] ** 2, 0.2 * q[0], 0.1],
            [0.1, 0.2 * q[0], 3.0, 0.3 * math.cos(q[1])],
            [0.2 * q[3], 0.1, 0.3 * math.cos(q[1]), 2.0 + 0.5 * q[3] ** 2]]),
        potential=lambda q: float(q @ q),
        potential_grad=lambda q: 2.0 * q,
        input_coupling=lambda q: np.vstack([np.eye(3), coupling_row(q)]),
        damping=lambda q: np.diag([0.1, 0.2, 0.1, 0.3 + 0.1 * q[2]]),
        workspace=Box(lower=-0.8 * np.ones(4), upper=np.ones(4)),
        annihilator=annihilator,
    )
    tgt = TargetDynamics(
        mass_d=lambda q: np.array([[3.0, 0.2 * q[1], 0.1, 0.4 * q[0]],
                                   [0.2 * q[1], 2.0 + q[0] ** 2, 0.3 * q[2], 0.2],
                                   [0.1, 0.3 * q[2], 2.5, 0.1 * q[3]],
                                   [0.4 * q[0], 0.2, 0.1 * q[3], 3.5 + math.sin(q[1])]]),
        potential_d=lambda q: float(q @ q),
        potential_d_grad=lambda q: 2.0 * q,
        j2=j2,
        damping_gain=np.eye(3),
        equilibrium=np.zeros(4),
    )
    return sys, tgt


def gaps(got, want):
    """Largest |got - want| / max(|want|) of every BoundConstants field."""
    out = {}
    for f in dataclasses.fields(BoundConstants):
        a, b = np.asarray(getattr(got, f.name), float), np.asarray(getattr(want, f.name), float)
        out[f.name] = float(np.max(np.abs(a - b)) / max(float(np.max(np.abs(b))), 1e-300))
    return out


def assert_constants_equal(got, want):
    for f in dataclasses.fields(BoundConstants):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b), f"{f.name}: {a!r} != {b!r}"


# -- equivalence ------------------------------------------------------------------

# estimation points are samples + 2^n corners + the center; n = 2 here
EDGE_SAMPLES = (1, _BLOCK + 1 - 5)


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_configuration_dependent_g_sweeps_match_point_loop(samples):
    sys, tgt = configuration_dependent_plant()
    constants = estimate_constants(sys, tgt, samples=samples)
    assert not constants.unit_structure
    assert constants.samples in (6, _BLOCK + 1)
    assert_constants_equal(constants, ref_estimate_constants(sys, tgt, samples))
    crippled = dataclasses.replace(constants, c_M=0.5 * constants.c_M, c_J=0.5 * constants.c_J)
    for count in (1, _BLOCK + 1, 3 * _BLOCK):
        for c in (constants, crippled):
            got = validate_constants(sys, tgt, c, samples=count, seed=4)
            assert got == ref_validate_constants(sys, tgt, c, samples=count, seed=4)
    assert validate_constants(sys, tgt, crippled, samples=3 * _BLOCK, seed=4) > 0


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_three_dof_sweep_matches_point_loop(samples):
    # n = 3: six probes for each quadratic term, three for J_2
    sys, tgt = three_dof_plant()
    constants = estimate_constants(sys, tgt, samples=samples)
    assert constants.c_Md > 0 and constants.c_J > 0 and np.all(constants.c_M > 0)
    assert_constants_equal(constants, ref_estimate_constants(sys, tgt, samples))


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_four_dof_sweeps_match_point_loop(samples):
    # n = 4: 16 corners, numpy's solves, pull-back and spectral norms
    sys, tgt = four_dof_plant()
    constants = estimate_constants(sys, tgt, samples=samples)
    assert constants.c_Md > 0 and constants.c_J > 0 and np.all(constants.c_M > 0)
    assert_constants_equal(constants, ref_estimate_constants(sys, tgt, samples))
    for count in (1, _BLOCK + 1):
        got = validate_constants(sys, tgt, constants, samples=count, seed=3)
        assert got == ref_validate_constants(sys, tgt, constants, samples=count, seed=3)


@pytest.mark.parametrize("samples", EDGE_SAMPLES)
def test_finite_difference_plant_sweeps_match_point_loop(ball_beam, samples):
    sys, tgt = finite_difference_plant(ball_beam)
    constants = estimate_constants(sys, tgt, samples=samples)
    assert constants.unit_structure
    assert_constants_equal(constants, ref_estimate_constants(sys, tgt, samples))
    crippled = dataclasses.replace(constants, c_Vd=0.5 * constants.c_Vd)
    for count in (1, _BLOCK + 1):
        for c in (constants, crippled):
            got = validate_constants(sys, tgt, c, samples=count, seed=2)
            assert got == ref_validate_constants(sys, tgt, c, samples=count, seed=2)


def test_vd_grad_supremum_matches_point_loop(vtol):
    box = vtol.certification_region(vtol.hd())
    qs = np.vstack([box.sample(_BLOCK, skip=7 * _BLOCK), box.corners()])
    want = max(float(np.linalg.norm(vtol.target.potential_d_grad(q))) for q in qs)
    assert _sup_vd_grad(vtol.target, box, _BLOCK) == want


def test_empirical_constants_match_point_loop(ball_beam):
    traj = simulate(ball_beam.system, ball_beam.make_controller(), ball_beam.initial_state,
                    SimConfig(dt=1e-3, t_end=0.2), target=ball_beam.target)
    got = empirical_constants(ball_beam.system, ball_beam.target, traj)
    want = ref_empirical_constants(ball_beam.system, ball_beam.target, traj)
    assert got.keys() == want.keys()
    assert all(np.array_equal(got[k], want[k]) for k in got)

    sys, tgt = configuration_dependent_plant()
    rng = np.random.default_rng(7)
    ps = rng.standard_normal((_BLOCK + 1, 2))
    ps[3] = 0.0  # a state at rest adds no kinetic ratio
    toy = SimpleNamespace(q=rng.uniform(-1, 1, (_BLOCK + 1, 2)), p=ps,
                          p_norm=np.linalg.norm(ps, axis=1),
                          ptilde_norm=np.linalg.norm(ps, axis=1) / 2.0)
    got = empirical_constants(sys, tgt, toy)
    want = ref_empirical_constants(sys, tgt, toy)
    assert all(np.array_equal(got[k], want[k]) for k in got)


@pytest.mark.parametrize("name", ["ball-beam", "vtol-nonsmooth", "four-dof"])
def test_kv_advisory_matches_point_loop(name, bb_certificate, vtol_certificate):
    from bipbc.bench import get_benchmark

    if name == "four-dof":
        sys, tgt = four_dof_plant()
        constants = estimate_constants(sys, tgt, samples=EDGE_SAMPLES[1])
    else:
        benchmark = get_benchmark(name)
        sys, tgt = benchmark.system, benchmark.target
        constants = (bb_certificate if name == "ball-beam" else vtol_certificate)[0]
    assert kv_advisory(sys, tgt, constants) == ref_kv_advisory(sys, tgt, constants)


@pytest.mark.parametrize("plant", ["ball-beam", "vtol", "finite-difference",
                                   "configuration-dependent", "three-dof", "four-dof"])
def test_verify_matching_matches_point_loop(ball_beam, vtol, plant):
    # the block form applies controller._shaping to stacks; the reference calls it per point
    sys, tgt = {
        "ball-beam": lambda: (ball_beam.system, ball_beam.target),
        "vtol": lambda: (vtol.system, vtol.target),
        "finite-difference": lambda: finite_difference_plant(ball_beam),
        "configuration-dependent": configuration_dependent_plant,
        "three-dof": three_dof_plant,
        "four-dof": four_dof_plant,
    }[plant]()
    for samples in (1, _BLOCK + 3):
        assert verify_matching(sys, tgt, samples) == ref_verify_matching(sys, tgt, samples)


def counted_masses(bench, counts):
    """(system, target) of `bench` whose M and M_d count their calls in `counts`
    (the wrappers carry no row-batched twins, so the sweeps call them per point)."""

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    return (dataclasses.replace(bench.system, mass_matrix=counted("M", bench.system.mass_matrix)),
            dataclasses.replace(bench.target, mass_d=counted("M_d", bench.target.mass_d)))


def test_estimate_constants_evaluates_m_and_md_once_per_sample(ball_beam):
    # R M^-1 M_d comes from the stacked M and M_d of the sample, not from new calls
    counts = collections.Counter()
    sys, tgt = counted_masses(ball_beam, counts)
    constants = estimate_constants(sys, tgt, samples=1000)
    assert constants.samples == 1005
    assert counts == {"M": 1005, "M_d": 1005}
    assert_constants_equal(constants, estimate_constants(ball_beam.system, ball_beam.target,
                                                         samples=1000))


def test_verify_matching_evaluates_m_and_md_once_per_sample(ball_beam):
    # R M^-1 M_d comes from the M and M_d that controller._shaping stacks for the residuals
    counts = collections.Counter()
    sys, tgt = counted_masses(ball_beam, counts)
    report = verify_matching(sys, tgt, samples=1000)
    assert counts == {"M": 1000, "M_d": 1000}
    assert report == verify_matching(ball_beam.system, ball_beam.target, samples=1000)


# -- closed forms -----------------------------------------------------------------


SHAPES = [(2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("shape, skew", [(shape, False) for shape in SHAPES] + [((3, 3), True)],
                         ids=[f"shape{i}" for i in range(len(SHAPES))] + ["skew"])
def test_spectral_norms_match_lapack(shape, skew):
    # 10^4 matrices scaled over 10^+-100, ten of them zero; a tenth of them rank 1,
    # or all skew (J_2's contract, which takes the closed form)
    rng = np.random.default_rng(sum(shape) + skew)
    count = 10_000
    a = rng.standard_normal((count,) + shape)
    if skew:
        a -= _swap(a)
    else:
        a[:1000] = rng.standard_normal((1000, shape[0], 1)) @ rng.standard_normal((1000, 1, shape[1]))
    a[1000:1010] = 0.0
    a *= 10.0 ** rng.uniform(-100.0, 100.0, (count, 1, 1))
    got, want = _spectral_norms(a), np.linalg.norm(a, 2, axis=(-2, -1))
    assert np.array_equal(got[1000:1010], want[1000:1010])
    assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * want)


def gram_norms(a):
    """Spectral norms of a stack by the eigvalsh-and-Frobenius formula of the general path."""
    return np.minimum(np.sqrt(np.linalg.eigvalsh(_swap(a) @ a)[..., -1]),
                      np.sqrt(np.sum(a * a, axis=(-2, -1))))


def test_spectral_norms_take_the_closed_form_on_exactly_skew_stacks(monkeypatch):
    # the closed form is chosen per stack: an exactly skew stack makes no eigvalsh
    # call; one entry of one item moved by one ulp sends the whole stack to the
    # general path, item by item; a NaN item is NaN there, and the others keep their values
    calls = collections.Counter()
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls["eigvalsh"] += 1
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(18)
    for shape in ((200,), (64, 70)):  # _sample_terms' and estimate_constants' J_2 stacks
        a = rng.standard_normal(shape + (3, 3))
        a -= _swap(a)
        calls.clear()
        got = _spectral_norms(a)
        a01, a02, a12 = a[..., 0, 1], a[..., 0, 2], a[..., 1, 2]
        assert calls["eigvalsh"] == 0
        assert np.array_equal(got, np.sqrt(a01 * a01 + a02 * a02 + a12 * a12))
        item = (3,) * len(shape)
        for entry in ((0, 1), (2, 0), (1, 2), (2, 2)):  # each pair and a diagonal entry
            nudged = a.copy()
            nudged[item + entry] = np.nextafter(nudged[item + entry], np.inf)
            calls.clear()
            got = _spectral_norms(nudged)
            assert calls["eigvalsh"] > 0
            assert np.array_equal(got, gram_norms(nudged)), entry
        nan = a.copy()
        nan[item + (0, 1)] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spectral_norms(nan)
        nan[item] = 0.0
        want = gram_norms(nan)
        want[item] = np.nan
        assert np.array_equal(got, want, equal_nan=True)


def test_pull_back_rank_guard():
    # RankDeficientG where a finite G has sigma_min below 1e-9, raised before any
    # division (no RuntimeWarning); a G with a NaN entry pulls back to NaN
    full = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    deficient = [[[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]],  # zero first column
                 [[1.0, 0.0], [2.0, 0.0], [1.0, 0.0]],  # zero second column
                 [[1.0, 2.0], [2.0, 4.0], [1.0, 2.0 + 1e-12]],  # sigma_min 4e-13
                 1e-10 * full]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in deficient + [np.zeros((3, 1)), 1e-10 * full[:, :1]]:
            with pytest.raises(RankDeficientG):
                _pull_back(np.stack([full[:, :len(g[0])], g]))
        nan = full.copy()
        nan[1, 1] = np.nan
        for gs in (np.stack([full, nan]), np.stack([full, nan])[..., 1:]):
            pinv_g = _pull_back(gs)
            assert np.all(np.isnan(pinv_g[1])) and np.all(np.isfinite(pinv_g[0]))


def test_nan_or_vanishing_g_in_the_sweeps(ball_beam):
    # a NaN G at some samples makes every constant pulled back through it NaN
    # (numpy's SVD raised LinAlgError); a G that vanishes at some samples, where
    # the law raises RankDeficientG, gives no certificate (SVD's cut-off gave G_M = 1.05)
    def input_coupling(value):
        g = ball_beam.system.input_coupling
        return lambda q: np.full((2, 1), value) if q[0] > 0.5 else g(q)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = dataclasses.replace(ball_beam.system, input_coupling=input_coupling(np.nan))
        constants = estimate_constants(sys, ball_beam.target, samples=200)
        for name in ("c_V", "c_M", "c_Lambda", "lam_min_R2", "G_M", "G_m", "sigma"):
            assert np.all(np.isnan(getattr(constants, name))), name
        assert not constants.unit_structure
        for value in (0.0, 1e-10):
            sys = dataclasses.replace(ball_beam.system, input_coupling=input_coupling(value))
            with pytest.raises(RankDeficientG):
                estimate_constants(sys, ball_beam.target, samples=200)


def test_nan_g_or_j2_in_the_vtol_sweeps(vtol):
    # a NaN in the VTOL's 3 x 2 G or 3 x 3 J_2 at some samples makes the constants
    # taken through it NaN; the 3-row spectral norms raised LinAlgError (eigvalsh
    # did not converge) on the NaN Gram matrices of pinv(G) and J_2
    plain = estimate_constants(vtol.system, vtol.target, samples=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = dataclasses.replace(vtol.system,
                                  input_coupling=nan_beyond(vtol.system.input_coupling, (2, 1), 40.0))
        constants = estimate_constants(sys, vtol.target, samples=200)
        for name in ("c_V", "c_M", "c_Lambda", "lam_min_R2", "G_M", "G_m", "sigma"):
            assert np.all(np.isnan(getattr(constants, name))), name
        tgt = dataclasses.replace(vtol.target, j2=nan_beyond(vtol.target.j2, (0, 1), 40.0))
        constants = estimate_constants(vtol.system, tgt, samples=200)
    assert math.isnan(constants.c_J)
    assert_constants_equal(dataclasses.replace(constants, c_J=plain.c_J), plain)


def nan_beyond(fn, entry, beyond):
    """`fn` with a NaN at `entry` of its value where q[0] > `beyond`."""
    def with_nan(q, *p):
        out = np.array(fn(q, *p), dtype=float)
        if q[0] > beyond:
            out[entry] = np.nan
        return out
    return with_nan


def test_eigvalsh_of_a_nan_item_is_nan():
    # eigvalsh gives a 2 x 2 identity with a NaN at (0, 0) eigenvalues 0 and -0
    # and fails to converge on a 3 x 3 one; the sweeps' helper makes the
    # eigenvalues of an item with a NaN or infinite entry NaN, without a
    # warning, and leaves the others' bits
    for n in (2, 3):
        a = np.stack([np.eye(n), np.diag([-0.0] + [1.0] * (n - 1)), np.eye(n), np.eye(n)])
        a[2, 0, 0], a[3, n - 1, 0] = np.nan, -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eigs = _eigvalsh(a)
        assert np.all(np.isnan(eigs[2:]))
        assert np.array_equal(eigs[:2], np.linalg.eigvalsh(a[:2]))
        assert np.signbit(eigs[:2]).tolist() == np.signbit(np.linalg.eigvalsh(a[:2])).tolist()


def test_nan_matrices_make_the_eigenvalue_extremes_nan(ball_beam, vtol, vtol_certificate):
    # "a NaN sample makes its constants NaN": a ball-beam M_d with a NaN (0, 0)
    # entry at some samples raised NonpositiveEigenvalue, and a VTOL R with a
    # NaN entry at some samples made eigvalsh fail to converge (LinAlgError) in
    # estimate_constants, verify_matching and kv_advisory
    tgt = dataclasses.replace(ball_beam.target,
                              mass_d=nan_beyond(ball_beam.target.mass_d, (0, 0), 0.9))
    constants = estimate_constants(ball_beam.system, tgt, samples=200)
    for name in ("lam_min_Md", "lam_max_Md", "lam_min_MdInv", "lam_max_MdInv", "lam_min_R2"):
        assert math.isnan(getattr(constants, name)), name
    for entry in ((0, 0), (0, 1)):
        sys = dataclasses.replace(vtol.system, damping=nan_beyond(vtol.system.damping, entry, 40.0))
        assert math.isnan(estimate_constants(sys, vtol.target, samples=200).lam_min_R2)
        report = verify_matching(sys, vtol.target, samples=200)
        assert math.isnan(report.r2_min_eig) and math.isnan(report.condition5_min_eig)
        assert math.isnan(kv_advisory(sys, vtol.target, vtol_certificate[0]).sym_min_eig)


def states(qs):
    """Records of a run through the configurations `qs`, at unit momentum."""
    ps = np.ones_like(qs)
    norms = np.linalg.norm(ps, axis=1)
    return SimpleNamespace(q=qs, p=ps, p_norm=norms, ptilde_norm=norms)


def test_singular_mass_in_the_sweeps_raises_singular_mass(ball_beam, bb_certificate):
    # M = diag(1, q1^2) is singular at the workspace centre and wherever q1 = 0, and
    # diag(1, 0) everywhere: each sweep raises SingularMass from M's guarded
    # factorization, not numpy's LinAlgError from the inverse of M it takes for Lambda
    tgt = ball_beam.target
    sys = dataclasses.replace(ball_beam.system, mass_matrix=lambda q: np.diag([1.0, q[1] ** 2]))
    with pytest.raises(SingularMass, match="singular 2x2 matrix"):
        estimate_constants(sys, tgt, samples=200)
    through_zero = np.stack([np.full(5, 0.1), np.linspace(-0.2, 0.2, 5)], axis=1)
    with pytest.raises(SingularMass, match="singular 2x2 matrix"):
        empirical_constants(sys, tgt, states(through_zero))
    sys = dataclasses.replace(ball_beam.system, mass_matrix=lambda q: np.diag([1.0, 0.0]))
    with pytest.raises(SingularMass, match="singular 2x2 matrix"):
        validate_constants(sys, tgt, bb_certificate[0], samples=50)


def test_ill_conditioned_mass_in_the_sweeps_raises_singular_mass(ball_beam, bb_certificate):
    # M = diag(1, 1e-15) has condition estimate 1e15: estimate_constants rejected it,
    # while validate_constants counted 50 violations of 50 samples and
    # empirical_constants returned a c_Lambda of order 1e16
    tgt = ball_beam.target
    sys = dataclasses.replace(ball_beam.system, mass_matrix=lambda q: np.diag([1.0, 1e-15]))
    qs = sys.workspace.sample(50)
    for sweep in (partial(estimate_constants, samples=50),
                  partial(validate_constants, constants=bb_certificate[0], samples=50),
                  partial(empirical_constants, traj=states(qs))):
        with pytest.raises(SingularMass, match="condition estimate exceeds 1e12"):
            sweep(sys, tgt)


# -- unit structure -------------------------------------------------------------


def test_pinv_of_unit_structure_g_is_its_transpose():
    # the sweeps pull every term back through the stacked pull-back; on a 0/1
    # unit-structure G that must be G^T bit for bit, so that the pull-back
    # selects G's actuated rows exactly (`ref_actuated_terms` with rows)
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        for m in range(1, n + 1):
            choices = list(itertools.permutations(range(n), m))
            gs = np.zeros((len(choices), n, m))
            for g, rows in zip(gs, choices):
                g[rows, range(m)] = 1.0
            pinv_g = _pull_back(gs)
            assert np.array_equal(pinv_g, np.swapaxes(gs, 1, 2)), (n, m)
            x = rng.standard_normal((len(choices), n))
            picked = np.array([xi[list(rows)] for xi, rows in zip(x, choices)])
            assert np.array_equal((pinv_g @ x[..., None])[..., 0], picked), (n, m)


def test_unit_structure_needs_the_same_rows_at_every_sample():
    # the center picks row 0, half the box picks row 1 where grad V = 5
    sys, tgt = switching_rows_plant()
    constants = estimate_constants(sys, tgt, samples=50)
    assert not constants.unit_structure
    assert constants.c_V[0] == pytest.approx(1.05 * 5.0, rel=1e-12)
    assert validate_constants(sys, tgt, constants, samples=500) == 0
    # constants taken on the center's rows alone understate c_V
    center_rows = dataclasses.replace(constants, unit_structure=True, c_V=np.array([0.0]))
    assert validate_constants(sys, tgt, center_rows, samples=500) > 0



# -- momentum forms ---------------------------------------------------------------

#: largest relative gap of any BoundConstants field between the polarized
#: constants and direct calls on every direction. Analytic terms differ by the
#: rounding of the polarization (seen: 2.9e-16 on the ball-beam c_Md). A finite
#: difference of K or K_d is quadratic in p only up to its cancellation error
#: (seen: 4.4e-10 on the finite-difference ball-beam c_Md, 2.0e-10 on the
#: configuration-dependent toy, 6.5e-12 on the 3-DOF toy).
ANALYTIC_TOL = 1e-14
FINITE_DIFFERENCE_TOL = 1e-8


@pytest.mark.parametrize("plant, tol", [
    ("analytic", ANALYTIC_TOL),
    ("finite-difference", FINITE_DIFFERENCE_TOL),
    ("configuration-dependent", FINITE_DIFFERENCE_TOL),
    ("three-dof", FINITE_DIFFERENCE_TOL),
])
def test_polarized_constants_agree_with_direct_calls(ball_beam, plant, tol):
    sys, tgt = {
        "analytic": lambda: (ball_beam.system, ball_beam.target),
        "finite-difference": lambda: finite_difference_plant(ball_beam),
        "configuration-dependent": configuration_dependent_plant,
        "three-dof": three_dof_plant,
    }[plant]()
    samples = EDGE_SAMPLES[1]
    got = estimate_constants(sys, tgt, samples=samples)
    direct = ref_estimate_constants(sys, tgt, samples, momentum=ref_direct)
    assert max(gaps(got, direct).values()) <= tol


def test_momentum_terms_that_are_not_forms_raise():
    # each replacement is homogeneous of the right degree, but not linear or quadratic;
    # the q1-scaled ones vanish at the box center, so only a check away from it sees them
    sys, tgt = configuration_dependent_plant()
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cases = [
        ("j2", sys, dataclasses.replace(tgt, j2=lambda q, pt: float(np.linalg.norm(pt)) * skew)),
        ("j2", sys, dataclasses.replace(
            tgt, j2=lambda q, pt: q[0] * float(np.linalg.norm(pt)) * skew)),
        ("kinetic_d_grad", sys, dataclasses.replace(tgt, kinetic_d_grad=lambda q, p: abs(p) * p)),
        ("kinetic_d_grad", sys, dataclasses.replace(
            tgt, kinetic_d_grad=lambda q, p: q[0] * abs(p) * p)),
        ("kinetic_grad", dataclasses.replace(
            sys, kinetic_grad=lambda q, p: np.array([p[0] ** 3 / np.linalg.norm(p), 0.0])), tgt),
    ]
    for name, s, t in cases:
        with pytest.raises(ToolkitError, match=f"^{name} is not"):
            estimate_constants(s, t, samples=5)


def recovered_forms(fn, q):
    """A (n, n, ...) with fn(q, u) = sum_jk u_j u_k A[j, k], by polarization."""
    eye = np.eye(q.size)
    diag = [np.asarray(fn(q, e), dtype=float) for e in eye]
    forms = np.empty((q.size, q.size) + diag[0].shape)
    for j in range(q.size):
        forms[j, j] = diag[j]
        for k in range(j + 1, q.size):
            both = np.asarray(fn(q, eye[j] + eye[k]), dtype=float)
            forms[j, k] = forms[k, j] = 0.5 * (both - diag[j] - diag[k])
    return forms


def test_direction_gap_of_momentum_constants(ball_beam):
    """The exact unit-p supremum at the estimation points lies between the
    sampled maximum over the unit directions and the shipped (inflated) constant.

    Per point, a component u^T A_i u has supremum max |eig(A_i)| over unit u,
    and sqrt(sum_i max |eig(A_i)|^2) bounds the norm of the vector of forms.
    The ball-beam J_2 is [[0, j], [-j, 0]] with j linear in ptilde, so
    sup ||J_2(u)|| is the norm of j's coefficients. Sampled values may sit on
    the exact ones (an axis direction), up to the last bits of an SVD.
    """
    sys, tgt = ball_beam.system, ball_beam.target
    samples = 1000
    shipped = estimate_constants(sys, tgt, samples=samples)
    box = sys.workspace
    rows = unit_input_rows(sys.input_coupling(box.center()))
    exact_m, exact_md, exact_j = np.zeros(sys.m), 0.0, 0.0
    for q in np.vstack([box.sample(samples), box.corners(), box.center()[None, :]]):
        gk = np.moveaxis(recovered_forms(partial(kinetic_energy_grad, sys), q), -1, 0)
        exact_m = np.maximum(exact_m, np.max(np.abs(np.linalg.eigvalsh(gk[rows])), axis=1))
        gkd = np.moveaxis(recovered_forms(partial(kinetic_d_grad, tgt), q), -1, 0)
        tops = np.max(np.abs(np.linalg.eigvalsh(gkd)), axis=1)
        exact_md = max(exact_md, math.sqrt(float(tops @ tops)))
        exact_j = max(exact_j, math.hypot(*(tgt.j2(q, e)[0, 1] for e in np.eye(2))))
    assert exact_md > 0 and exact_j > 0
    for field, exact in (("c_M", exact_m), ("c_Md", exact_md), ("c_J", exact_j)):
        high = getattr(shipped, field)
        low = high / INFLATION  # the sampled maximum, up to one rounding
        assert np.all(low <= exact * (1 + 1e-12)), field
        assert np.all(exact <= high), field
    # the 68 directions leave c_Md well inside the 1.05 inflation
    assert exact_md / (shipped.c_Md / INFLATION) - 1.0 < 1e-3
