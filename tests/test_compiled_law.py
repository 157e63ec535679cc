"""The IDA-PBC law compiled from its formulas: bit for bit the reference law."""

import collections
import dataclasses
import math

import numpy as np
import pytest

import bipbc.controller
from bipbc import ConfigState, RankDeficientG, SimConfig, SingularMassD, simulate
from bipbc.bench.vtol import THETA_SINGULAR
from bipbc.controller import IdaPbcLaw, ida_pbc_control_raw
from bipbc.stacking import plant_function

PLANT = ("mass_matrix", "potential_grad", "kinetic_grad", "input_coupling", "damping")
TARGET = ("mass_d", "potential_d_grad", "kinetic_d_grad", "j2")


def opaque(sys, tgt):
    """(sys, tgt) with each of the law's callables wrapped: neither a formula
    nor a constant, so the law takes its reference path."""
    def wrap(fn):
        return lambda *args: fn(*args)

    return (dataclasses.replace(sys, **{f: wrap(getattr(sys, f)) for f in PLANT}),
            dataclasses.replace(tgt, **{f: wrap(getattr(tgt, f)) for f in TARGET}))


def compiled(law, q, p):
    """The law's generated function after a first evaluation at (q, p)."""
    law.evaluate(q, p)
    assert callable(law._generated), "the law did not compile"
    return law._generated


def seeded_states(bench, count, seed):
    """(q, p) uniform in the workspace, p = 2 N(0, I); VTOL rolls reach
    +-nextafter(THETA_SINGULAR, 0), past the workspace's theta_box."""
    rng = np.random.default_rng(seed)
    box = bench.system.workspace
    qs = rng.uniform(box.lower, box.upper, (count, bench.system.n))
    if bench.system.n == 3:
        edge = math.nextafter(THETA_SINGULAR, 0.0)
        qs[:, 2] = rng.uniform(-edge, edge, count)
        qs[:4, 2] = [edge, -edge, math.nextafter(edge, 0.0), 1.4]
    return qs, 2.0 * rng.standard_normal((count, bench.system.n))


@pytest.mark.parametrize("design", ["ball-beam", "vtol-nonsmooth", "vtol-two-phase"])
def test_generated_law_equals_the_reference_bit_for_bit(design, ball_beam, vtol, vtol_two_phase):
    bench = {"ball-beam": ball_beam, "vtol-nonsmooth": vtol,
             "vtol-two-phase": vtol_two_phase}[design]
    sys, tgt, mode = bench.system, bench.target, bench.damping_mode
    run = compiled(IdaPbcLaw(sys, tgt, mode), bench.initial_state.q, bench.initial_state.p)
    qs, ps = seeded_states(bench, 10_000, 31)
    outcomes = collections.Counter()
    for q, p in zip(qs, ps):
        got = run(*q.tolist(), *p.tolist())
        try:
            want = ida_pbc_control_raw(sys, tgt, q, p, mode, with_field=True)
        except ValueError as err:  # past the roll barrier in floating point
            assert got is None and "barrier" in str(err)
            outcomes["declined"] += 1
            continue
        assert got is not None, (q, p)
        for name, a, b in zip(("tau", "field", "ptilde"), got, want):
            assert np.array(a).tobytes() == b.tobytes(), (name, q, p)
        outcomes["equal"] += 1
    assert outcomes["equal"] >= 9_990, outcomes


def ball_beam_with(bench, **formulas):
    """Ball-beam's plant and target with some callables replaced by formulas."""
    sys, tgt = bench.system, bench.target
    return (dataclasses.replace(sys, **{k: v for k, v in formulas.items() if k in PLANT}),
            dataclasses.replace(tgt, **{k: v for k, v in formulas.items() if k in TARGET}))


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("q1, want", [
    (0.0, SingularMassD),  # M_d singular and G rank-deficient: M_d is solved first
    (1e-13, SingularMassD),  # M_d past its condition limit
    (1e-5, RankDeficientG),
])
def test_declined_points_raise_as_the_reference(ball_beam, q1, want):
    # M_d = diag(q1^2, 1) and G = [q1^2, 1e-30]^T, both singular at q1 = 0
    sys, tgt = ball_beam_with(
        ball_beam,
        mass_d=plant_function((2, 2), lambda m, q: (q[0] * q[0], 0.0, 0.0, 1.0)),
        input_coupling=plant_function((2, 1), lambda m, q: (q[0] * q[0], 1e-30)),
    )
    law = IdaPbcLaw(sys, tgt)
    compiled(law, np.array([0.5, 0.1]), np.array([0.2, -0.3]))
    q, p = np.array([q1, 0.1]), np.array([0.2, -0.3])
    reference = raised(lambda: ida_pbc_control_raw(sys, tgt, q, p, with_field=True))
    assert reference[0] is want
    for call in (lambda: law(0.0, q, p), lambda: law.evaluate(q, p), lambda: law.field(q, p)):
        assert raised(call) == reference
    assert callable(law._generated)


def test_roll_past_the_barrier_raises_as_the_reference(vtol):
    law = vtol.make_controller()
    compiled(law, vtol.initial_state.q, vtol.initial_state.p)
    q, p = np.array([1.0, 2.0, 1.5]), np.array([0.1, 0.2, 0.3])
    reference = raised(lambda: ida_pbc_control_raw(vtol.system, vtol.target, q, p, "saturated"))
    assert reference[0] is ValueError and "barrier" in reference[1]
    for call in (lambda: law(0.0, q, p), lambda: law.evaluate(q, p), lambda: law.field(q, p)):
        assert raised(call) == reference


def test_shipped_designs_run_compiled(ball_beam, vtol, vtol_two_phase, monkeypatch):
    # after the first evaluation a run makes no reference law calls
    calls = collections.Counter()
    reference = bipbc.controller.ida_pbc_control_raw

    def counted(*args, **kwargs):
        calls["law"] += 1
        return reference(*args, **kwargs)

    monkeypatch.setattr(bipbc.controller, "ida_pbc_control_raw", counted)
    for bench in (ball_beam, vtol, vtol_two_phase):
        controller = bench.make_controller()
        law = controller.secondary_law if bench.two_phase else controller
        dt = bench.default_sim().dt
        calls.clear()
        simulate(bench.system, law, bench.initial_state, SimConfig(dt=dt, t_end=50 * dt),
                 target=bench.target)
        assert callable(law._generated), bench.name
        assert calls["law"] == 1, bench.name


def test_a_formula_that_branches_on_a_value_takes_the_reference(ball_beam):
    def potential_grad(m, q):
        scale = 9.81 if q[0] > 0.0 else 9.81  # a branch on a traced value
        return scale * m.sin(q[1]), scale * q[0] * m.cos(q[1])

    sys, tgt = ball_beam_with(ball_beam, potential_grad=plant_function((2,), potential_grad))
    law = IdaPbcLaw(sys, tgt)
    q, p = ball_beam.initial_state.q, np.array([0.3, -0.2])
    got = law.evaluate(q, p)
    assert law._generated is False
    want = IdaPbcLaw(*opaque(sys, tgt)).evaluate(q, p)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_generated_law_that_differs_is_discarded(ball_beam, monkeypatch):
    monkeypatch.setattr(bipbc.controller, "_generated_law",
                        lambda *args: lambda *x: ((0.0,), (0.0,) * 4, (0.0, 0.0)))
    law = ball_beam.make_controller()
    q, p = ball_beam.initial_state.q, ball_beam.initial_state.p
    tau = law(0.0, q, p)
    assert law._generated is False
    assert np.array_equal(tau, ida_pbc_control_raw(ball_beam.system, ball_beam.target, q, p))


def assert_same_run(a, b):
    for name in ("times", "q", "p", "tau", "hd", "p_norm", "ptilde_norm", "phase"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert [e[:2] for e in a.events] == [e[:2] for e in b.events]
    assert a.switch_time == b.switch_time


def test_runs_equal_the_runs_of_opaque_callables(ball_beam, vtol, vtol_two_phase):
    bb = ball_beam
    sys, tgt = opaque(bb.system, bb.target)
    md = bb.target.mass_d
    other = dataclasses.replace(bb.target, mass_d=lambda q: 2.0 * md(q))  # ptilde from mass_d_solve
    for cfg, compiled_target, opaque_target in (
        (SimConfig(dt=1e-3, t_end=2.0), bb.target, tgt),
        (SimConfig(dt=1e-3, t_end=1.0, record_stride=7), bb.target, tgt),
        (SimConfig(dt=2e-3, t_end=1.0), None, None),
        (SimConfig(dt=2e-3, t_end=1.0), other, other),
    ):
        assert_same_run(
            simulate(bb.system, bb.make_controller(), bb.initial_state, cfg, target=compiled_target),
            simulate(sys, IdaPbcLaw(sys, tgt), bb.initial_state, cfg, target=opaque_target))
    # the roll rate carries the aircraft across the barrier within one step
    s0 = ConfigState(q=np.array([0.0, 0.0, 1.3]), p=np.array([0.0, 0.0, 20.0]))
    cfg = SimConfig(dt=2e-2, t_end=1.0)
    sys, tgt = opaque(vtol.system, vtol.target)
    run = simulate(vtol.system, vtol.make_controller(), s0, cfg, target=vtol.target)
    reference = simulate(sys, IdaPbcLaw(sys, tgt, vtol.damping_mode), s0, cfg, target=tgt)
    assert [kind for _, kind, _ in run.events] == ["domain_exit"]
    assert_same_run(run, reference)
    assert run.events[0][2] == reference.events[0][2]
    tp = vtol_two_phase
    cfg = SimConfig(dt=2e-3, t_end=3.0)  # the switch comes at 1.756 s
    sys, tgt = opaque(tp.system, tp.target)
    controller = tp.make_controller()
    wrapped = dataclasses.replace(controller, secondary_law=IdaPbcLaw(sys, tgt, tp.damping_mode))
    run = simulate(tp.system, controller, tp.initial_state, cfg, target=tp.target)
    assert run.switch_time is not None and callable(controller.secondary_law._generated)
    assert_same_run(run, simulate(sys, wrapped, tp.initial_state, cfg, target=tgt))


def test_compiled_run_stays_on_floats(ball_beam, vtol, monkeypatch):
    # every RK4 stage calls the generated law on the state's floats: no array
    # method after the start state's evaluate, whose bit check is the one
    # reference law call
    calls = collections.Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__call__", "evaluate", "field"):
        monkeypatch.setattr(IdaPbcLaw, name, counted(name, getattr(IdaPbcLaw, name)))
    monkeypatch.setattr(bipbc.controller, "ida_pbc_control_raw",
                        counted("ida_pbc_control_raw", bipbc.controller.ida_pbc_control_raw))
    for bench in (ball_beam, vtol):
        dt = bench.default_sim().dt
        calls.clear()
        simulate(bench.system, bench.make_controller(), bench.initial_state,
                 SimConfig(dt=dt, t_end=50 * dt), target=bench.target)
        assert calls == {"evaluate": 1, "ida_pbc_control_raw": 1}, bench.name


def test_a_callable_that_returns_a_list_is_named(ball_beam):
    # it aborted a run with AttributeError: 'list' object has no attribute 'tolist'
    grad = ball_beam.system.potential_grad
    sys, tgt = ball_beam_with(ball_beam, potential_grad=lambda q: grad(q).tolist())
    s0 = ball_beam.initial_state
    for call in (lambda: IdaPbcLaw(sys, tgt)(0.0, s0.q, s0.p),
                 lambda: IdaPbcLaw(sys, tgt).evaluate(s0.q, s0.p),
                 lambda: IdaPbcLaw(sys, tgt).field(s0.q, s0.p),
                 lambda: simulate(sys, IdaPbcLaw(sys, tgt), s0, SimConfig(dt=1e-3, t_end=0.01))):
        with pytest.raises(TypeError, match="potential_grad returned list, not a numpy array"):
            call()
