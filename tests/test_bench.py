"""Benchmark definitions: published values, design well-posedness, barriers."""

import math

import numpy as np
import pytest

from bipbc import target_energy
from bipbc.bench import BENCHMARK_NAMES, BallBeamParams, get_benchmark
from bipbc.bench.vtol import THETA_SINGULAR, VtolParams
from bipbc.matching import equilibrium_check
from bipbc.phcore import ConfigState, fd_hessian


def test_benchmark_registry():
    for name in BENCHMARK_NAMES:
        bench = get_benchmark(name)
        assert bench.name == name
    with pytest.raises(KeyError):
        get_benchmark("acrobot")


def test_ballbeam_hd0(ball_beam):
    assert ball_beam.hd() == pytest.approx(0.24, abs=0.01)


def test_ballbeam_equilibrium_design(ball_beam):
    tgt = ball_beam.target
    assert np.allclose(tgt.potential_d_grad(tgt.equilibrium), 0.0, atol=1e-14)
    hess = fd_hessian(tgt.potential_d, tgt.equilibrium)
    assert np.min(np.linalg.eigvalsh(hess)) > 0.0
    assert equilibrium_check(tgt)


def test_ballbeam_mass_matrices_pd(ball_beam):
    for q1 in np.linspace(-2, 2, 21):
        q = np.array([q1, 0.3])
        assert np.min(np.linalg.eigvalsh(ball_beam.system.mass_matrix(q))) > 0.0
        md = ball_beam.target.mass_d(q)
        assert np.allclose(md, md.T)
        assert np.min(np.linalg.eigvalsh(md)) > 0.0


def test_ballbeam_initial_state_is_published(ball_beam):
    assert np.allclose(ball_beam.initial_state.q, [0.5, -0.1])
    assert np.allclose(ball_beam.initial_state.p, [0.1, 0.0])


def test_ballbeam_reference_constants_carried(ball_beam):
    ref = ball_beam.reference_constants
    assert ref["c_V_2"] == 10.4 and ref["stated_tau_bound"] == 20.0


def test_vtol_equilibrium_design(vtol):
    tgt = vtol.target
    assert np.allclose(tgt.potential_d_grad(tgt.equilibrium), 0.0, atol=1e-12)
    hess = fd_hessian(tgt.potential_d, tgt.equilibrium)
    assert np.min(np.linalg.eigvalsh(hess)) > 0.0
    assert float(tgt.potential_d(tgt.equilibrium)) == pytest.approx(0.0, abs=1e-12)


def test_vtol_md_constant_pd(vtol):
    md = vtol.target.mass_d(np.zeros(3))
    assert np.allclose(md, vtol.target.mass_d(np.array([5.0, -3.0, 1.0])))
    assert np.min(np.linalg.eigvalsh(md)) > 0.0


def test_vtol_g_full_rank_everywhere(vtol):
    for th in np.linspace(-1.4, 1.4, 29):
        g = vtol.system.input_coupling(np.array([0.0, 0.0, th]))
        s = np.linalg.svd(g, compute_uv=False)
        assert s[-1] > 0.5


def test_vtol_bound_ingredients_within_quoted_caps(vtol):
    # at the default coupling the quoted ingredient caps hold with margin
    cert = vtol.effort_certificate(1.33)
    assert cert["max_row1"] <= 10.0
    assert cert["max_row2"] <= 2.25 + 1e-6
    assert cert["pinv_md_norm"] <= 1.75
    assert math.isfinite(cert["c_Vd"]) and cert["c_Vd"] > 0
    assert np.all(cert["tau_upper"] > 0)
    assert np.allclose(cert["tau_center"], [vtol.params.g, 0.0])


def test_vtol_vd_gradient_diverges_at_barrier(vtol):
    tgt = vtol.target
    inside = np.linalg.norm(tgt.potential_d_grad(np.array([0.0, 0.0, 1.33])))
    near = np.linalg.norm(tgt.potential_d_grad(np.array([0.0, 0.0, 1.465])))
    assert math.isfinite(inside)
    assert near > 20.0 * inside
    with pytest.raises(ValueError):
        tgt.potential_d(np.array([0.0, 0.0, THETA_SINGULAR + 1e-3]))


def test_vtol_roll_confinement_published(vtol):
    conf = vtol.roll_confinement()
    assert max(abs(conf.lower), abs(conf.upper)) == pytest.approx(1.33, abs=0.05)
    assert not conf.clipped_upper
    # confinement stays strictly inside the barrier
    assert abs(conf.upper) < THETA_SINGULAR


def test_vtol_potential_pde_exact_constants():
    # the arctanh argument sqrt(11/9) rounds to the quoted 1.1055 literal
    assert math.sqrt(11.0 / 9.0) == pytest.approx(1.1055, abs=5e-5)
    # and the quoted 0.1 coefficient is the rounding of the exact value
    beta = 2.0 * 0.05 / (0.9 * math.sqrt(11.0 / 9.0))
    assert beta == pytest.approx(0.1, abs=6e-4)


def test_vtol_params_validation():
    with pytest.raises(ValueError):
        VtolParams(epsilon=0.0)
    with pytest.raises(ValueError):
        VtolParams(epsilon=1.5)
    # an empty workspace, a malformed xy_box or a roll box reaching the V_d barrier
    for bad in ({"xy_box": (-1.0, 25.0)}, {"xy_box": (60.0, -0.5)}, {"xy_box": (60.0,)},
                {"xy_box": (60.0, 25.0, 1.0)}, {"theta_box": -0.1},
                {"theta_box": THETA_SINGULAR}, {"theta_box": 1.5}):
        with pytest.raises(ValueError, match=r"xy_box must be .*, theta_box in \[0, acos\(0.1\)\)"):
            VtolParams(**bad)
    VtolParams(xy_box=(0.0, 0.0), theta_box=np.nextafter(THETA_SINGULAR, 0.0))


def test_ballbeam_params_validation():
    for bad in ({"q1_max": -0.1}, {"q2_max": -0.1}, {"L": 0.0}, {"L": -2.0}):
        with pytest.raises(ValueError, match="L must be positive, q1_max and q2_max nonnegative"):
            BallBeamParams(**bad)
    BallBeamParams(q1_max=0.0, q2_max=0.0)


def test_vtol_two_phase_secondary_mass(vtol_two_phase, vtol):
    md_tp = vtol_two_phase.target.mass_d(np.zeros(3))
    md = vtol.target.mass_d(np.zeros(3))
    assert md_tp[0, 0] == pytest.approx(8.0 * md[0, 0])
    assert md_tp[2, 2] == md[2, 2]


def test_vtol_initial_state_is_published(vtol):
    assert np.allclose(vtol.initial_state.q, [20.0, -15.0, 1.3])
    assert np.allclose(vtol.initial_state.p, 0.0)


def test_hd_normalization_zero_at_equilibrium(ball_beam, vtol):
    for bench in (ball_beam, vtol):
        rest = ConfigState(q=bench.target.equilibrium, p=np.zeros(bench.system.n))
        assert target_energy(bench.target, rest).total == pytest.approx(0.0, abs=1e-12)


def test_parameter_overrides_flow_through():
    bench = get_benchmark("ball-beam", k_p=6.0, q1_max=1.2)
    assert bench.params.k_p == 6.0
    assert bench.system.workspace.upper[0] == 1.2
    vt = get_benchmark("vtol-nonsmooth", epsilon=0.3)
    assert vt.params.epsilon == 0.3
    # the design still solves the potential PDE at the new coupling
    from bipbc import potential_pde_residual

    rng = np.random.default_rng(0)
    for _ in range(50):
        q = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-1.3, 1.3)])
        assert np.linalg.norm(potential_pde_residual(vt.system, vt.target, q)) < 1e-6
