"""Shared fixtures: benchmarks, certificates, and the expensive nominal runs."""

import numpy as np
import pytest

from bipbc import SimConfig, simulate
from bipbc.bench import get_benchmark


@pytest.fixture(scope="session")
def ball_beam():
    return get_benchmark("ball-beam")


@pytest.fixture(scope="session")
def vtol():
    return get_benchmark("vtol-nonsmooth")


@pytest.fixture(scope="session")
def vtol_two_phase():
    return get_benchmark("vtol-two-phase")


@pytest.fixture(scope="session")
def bb_certificate(ball_beam):
    return ball_beam.certificate(samples=1000)


@pytest.fixture(scope="session")
def bb_trajectory(ball_beam):
    """Nominal ball-and-beam closed loop from the published start."""
    return simulate(
        ball_beam.system,
        ball_beam.make_controller(),
        ball_beam.initial_state,
        SimConfig(dt=1e-3, t_end=20.0),
        target=ball_beam.target,
    )


@pytest.fixture(scope="session")
def vtol_certificate(vtol):
    return vtol.certificate(samples=300)


@pytest.fixture(scope="session")
def vtol_trajectory(vtol):
    """Nominal single-phase VTOL run from (20, -15, 1.3) at rest."""
    return simulate(
        vtol.system,
        vtol.make_controller(),
        vtol.initial_state,
        SimConfig(dt=5e-3, t_end=200.0, record_stride=5),
        target=vtol.target,
    )


@pytest.fixture(scope="session")
def vtol_tp_run(vtol_two_phase):
    """Two-phase VTOL run from the published start."""
    return simulate(
        vtol_two_phase.system,
        vtol_two_phase.make_controller(),
        vtol_two_phase.initial_state,
        SimConfig(dt=2e-3, t_end=60.0, record_stride=5, monitors=("phase_switch",)),
        target=vtol_two_phase.target,
    )


@pytest.fixture(scope="session")
def random_sweep(ball_beam, vtol, bb_certificate, vtol_certificate):
    """50 random initial conditions across both benchmarks.

    Every run recomputes its own certificate from H_d(t0) and records the
    energy-decrease violations plus momentum/control compliance against the
    published-form and the strict (sqrt(2)-complete) bounds. Shared by the
    Lyapunov-decrease and bound-soundness checks.
    """
    from bipbc.phcore import ConfigState
    from bipbc.simulate import bound_exceedances, check_hd_decrease

    rng = np.random.default_rng(2024)
    runs = []
    bb_constants, _ = bb_certificate
    vt_constants, _ = vtol_certificate

    def run_case(bench, constants, s0, cfg):
        report = bench.report(constants, s0)
        traj = simulate(bench.system, bench.make_controller(), s0, cfg, target=bench.target)
        case = {
            "benchmark": bench.name,
            "hd0": report.hd_t0,
            "hd_violations": len(check_hd_decrease(traj, 1e-6)),
        }
        for form, c_p, c_pt, tau_upper in (
            ("published", report.c_p, report.c_ptilde, report.tau_upper),
            ("strict", report.c_p_strict, report.c_ptilde_strict, report.tau_upper_strict),
        ):
            over = bound_exceedances(traj, c_p, c_pt, report.tau_center, tau_upper)
            for name, mask in zip(("p", "pt", "tau"), over):
                case[f"{name}_ok_{form}"] = not np.any(mask)
        runs.append(case)

    box = ball_beam.system.workspace
    for _ in range(25):
        q = rng.uniform(0.8 * box.lower, 0.8 * box.upper)
        p = rng.standard_normal(2)
        p *= rng.uniform(0.0, 0.5) / np.linalg.norm(p)
        run_case(ball_beam, bb_constants, ConfigState(q=q, p=p), SimConfig(dt=2e-3, t_end=6.0))

    for _ in range(25):
        q = np.array([rng.uniform(-25, 25), rng.uniform(-15, 15), rng.uniform(-1.2, 1.2)])
        run_case(vtol, vt_constants, ConfigState(q=q, p=np.zeros(3)), SimConfig(dt=5e-3, t_end=8.0))
    return runs
