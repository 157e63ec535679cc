"""Layer probe of the traced run.

`baseline_table` times, with tracing off, the layers of the ROADMAP
baseline table (medians of repeated calls). `coverage_pass` makes one small
call through every traced layer, so that each layer row of a traced run
holds a measured reading even on a workload that never reaches the layer.
"""

from __future__ import annotations

import dataclasses
import statistics
from importlib import import_module
from pathlib import Path
from time import perf_counter

import numpy as np

from bipbc import SimConfig

bench = import_module("bipbc.bench")
bounds = import_module("bipbc.bounds")
cli = import_module("bipbc.cli")
controller = import_module("bipbc.controller")
matching = import_module("bipbc.matching")
phcore = import_module("bipbc.phcore")
sampling = import_module("bipbc.sampling")
sim = import_module("bipbc.simulate")

#: states with nonzero momentum, so the control law takes its full path
EVAL_STATES = {
    "ball-beam": (np.array([0.5, -0.1]), np.array([0.1, 0.0])),
    "vtol-nonsmooth": (np.array([10.0, -5.0, 0.5]), np.array([0.5, -0.2, 0.1])),
}
HEAVY_REPEATS = 3
LIGHT_REPEATS = 5
CALLS_PER_REPEAT = 200
RK4_STEPS = 200


def _median_s(fn, repeats: int, per: int = 1) -> tuple:
    """(median seconds per call, last result) of `repeats` timed calls of `fn`."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append((perf_counter() - t0) / per)
    return statistics.median(times), result


def _loop(fn, count: int):
    def run():
        for _ in range(count):
            fn()
    return run


def baseline_table() -> dict:
    """Median time of each ROADMAP baseline row, in the row's unit."""
    rows = {}
    for name, (q, p) in EVAL_STATES.items():
        b = bench.get_benchmark(name)
        sys_, tgt = b.system, b.target
        tau = controller.ida_pbc_control_raw(sys_, tgt, q, p, damping_mode=b.damping_mode)
        seconds, _ = _median_s(_loop(lambda: controller.ida_pbc_control_raw(
            sys_, tgt, q, p, damping_mode=b.damping_mode), CALLS_PER_REPEAT),
            LIGHT_REPEATS, CALLS_PER_REPEAT)
        rows[f"baseline.control_eval_us.{name}"] = 1e6 * seconds
        seconds, _ = _median_s(_loop(lambda: phcore.open_loop_field_raw(sys_, q, p, tau),
                                     CALLS_PER_REPEAT), LIGHT_REPEATS, CALLS_PER_REPEAT)
        rows[f"baseline.open_loop_field_us.{name}"] = 1e6 * seconds
        dt = b.default_sim().dt
        cfg = SimConfig(dt=dt, t_end=RK4_STEPS * dt)
        seconds, _ = _median_s(lambda: sim.simulate(sys_, b.make_controller(), b.initial_state,
                                                    cfg, target=tgt), LIGHT_REPEATS, RK4_STEPS)
        rows[f"baseline.rk4_step_us.{name}"] = 1e6 * seconds
        rows[f"baseline.estimate_constants_s.{name}"], constants = _median_s(
            lambda: bounds.estimate_constants(sys_, tgt, samples=200), HEAVY_REPEATS)
        rows[f"baseline.verify_matching_s.{name}"], _ = _median_s(
            lambda: matching.verify_matching(sys_, tgt, samples=1000,
                                             region=getattr(b, "residual_box", None)),
            HEAVY_REPEATS)
        if name == "ball-beam":
            rows["baseline.validate_constants_s.ball-beam"], _ = _median_s(
                lambda: bounds.validate_constants(sys_, tgt, constants, samples=10_000),
                HEAVY_REPEATS)
            rows["baseline.kv_advisory_s.ball-beam"], _ = _median_s(
                lambda: bounds.kv_advisory(sys_, tgt, constants), HEAVY_REPEATS)
        else:
            rows[f"baseline.confinement_s.{name}"], _ = _median_s(b.roll_confinement,
                                                                  LIGHT_REPEATS)
    rows["baseline.halton_s"], _ = _median_s(lambda: sampling.halton(10_000, 3), LIGHT_REPEATS)
    return rows


def coverage_pass(out_dir: Path) -> None:
    """One small call through every traced layer."""
    bb = bench.get_benchmark("ball-beam")
    cli.run(cli.RunSpec(command="verify", benchmark="ball-beam", samples=50,
                        out=str(out_dir / "coverage")))
    constants, _ = bb.certificate(samples=20)
    bounds.validate_constants(bb.system, bb.target, constants, samples=50)
    bounds.kv_advisory(bb.system, bb.target, constants, samples=10)
    bench.get_benchmark("vtol-nonsmooth").certificate(samples=20)
    traj = sim.simulate(bb.system, bb.make_controller(), bb.initial_state,
                        SimConfig(dt=1e-3, t_end=0.02), target=bb.target)
    traj.to_csv(out_dir / "coverage" / "trajectory.csv")
    tp = bench.get_benchmark("vtol-two-phase")
    sim.simulate(tp.system, tp.make_controller(), tp.initial_state,
                 SimConfig(dt=2e-3, t_end=0.02), target=tp.target)
    user = dataclasses.replace(bb.system, kinetic_grad=None)
    q, p = EVAL_STATES["ball-beam"]
    phcore.open_loop_field_raw(user, q, p, np.zeros(1))
