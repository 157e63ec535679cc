"""Row forms (twins) of the shipped plants, and the sweeps that use them.

`plant_function` and `constant` derive a callable and its row form from one
formula. A row form must equal its per-point callable bit for bit, so a sweep
gives the same numbers with the row forms as with plain per-point callables.
"""

import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from bipbc import (empirical_constants, estimate_constants, kv_advisory, simulate,
                   validate_constants, verify_matching, SimConfig)
from bipbc.bench import get_benchmark
from bipbc.bench.vtol import THETA_SINGULAR
from bipbc.errors import SingularMass
from bipbc.controller import _COLUMNS
from bipbc.smalllinalg import _apply, _guard, _inverse, _inverse_checked, solve_checked
from bipbc.stacking import _BLOCK, _stack, constant, plant_function

PLANT = ("mass_matrix", "potential_grad", "kinetic_grad", "input_coupling", "damping",
         "annihilator")
TARGET = ("mass_d", "potential_d_grad", "kinetic_d_grad", "j2")
POINTS = 10_000


def twinned(benchmark):
    """(owner, field name, callable) of every callable with a twin."""
    return ([(benchmark.system, name, getattr(benchmark.system, name)) for name in PLANT]
            + [(benchmark.target, name, getattr(benchmark.target, name)) for name in TARGET])


def per_point(fn, *args):
    return np.array([np.asarray(fn(*row), dtype=float) for row in zip(*args)])


def pin_points(name):
    """Seeded (q, p) rows: the ball-beam in its workspace and in a box three times
    as large; the VTOL up to its roll barrier."""
    benchmark = get_benchmark(name)
    box = benchmark.system.workspace
    rng = np.random.default_rng(14)
    if name == "ball-beam":
        inside = box.lower + rng.random((POINTS, 2)) * (box.upper - box.lower)
        outside = 3.0 * box.lower + rng.random((POINTS, 2)) * 3.0 * (box.upper - box.lower)
        qs = np.vstack([inside, outside])
    else:
        qs = box.lower + rng.random((POINTS, 3)) * (box.upper - box.lower)
        qs[:, 2] = rng.uniform(-1.0, 1.0, POINTS) * np.nextafter(THETA_SINGULAR, 0.0)
    return benchmark, qs, 4.0 * rng.standard_normal(qs.shape)


@pytest.mark.parametrize("name", ["ball-beam", "vtol-nonsmooth"])
def test_twins_equal_their_closures(name):
    benchmark, qs, ps = pin_points(name)
    for _, field, fn in twinned(benchmark):
        args = (qs, ps) if len(inspect.signature(fn).parameters) == 2 else (qs,)
        want = per_point(fn, *args)
        got = np.asarray(fn.batched(*args), dtype=float)
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), f"{field}: {np.count_nonzero(got != want)} entries differ"


@pytest.mark.parametrize("name", ["ball-beam", "vtol-nonsmooth"])
def test_shipped_callables_come_from_one_formula(name):
    # each callable is derived by plant_function or constant, the VTOL grad V_d too
    for _, field, fn in twinned(get_benchmark(name)):
        assert fn.__qualname__.split(".<locals>")[0] in ("plant_function", "constant"), field


def toy_formulas():
    """A (q) and a (q, p) formula that call every function of the math backend."""

    def one(m, q):
        s = m.sin(q[0])
        return (m.sqrt(1.0 + q[1] * q[1]) + m.tan(q[0] / 3.0), s * m.cos(q[1]) + m.tanh(q[1]),
                m.asinh(q[0] / 3.0) + m.atanh(0.9 * s), m.pow(s, 3) - m.log(1.0 + q[1] * q[1]))

    def two(m, q, p):
        c = m.cos(q[1]) / m.pow(1.5 + m.sin(q[0]), 2)
        return (c * m.pow(p[0], 2) + m.asinh(p[1]) + m.tanh(p[0]),
                m.sqrt(2.0 + p[0] * p[0]) * q[0] + m.log(1.0 + 0.01 * p[1] * p[1]))

    return plant_function((2, 2), one), plant_function((2, 1), two)


def assert_rows_equal_points(fn, rng):
    qs = 3.0 * rng.standard_normal((3000, 2))
    args = (qs, 3.0 * rng.standard_normal(qs.shape))[:len(inspect.signature(fn).parameters)]
    got = np.asarray(fn.batched(*args), dtype=float)
    assert np.array_equal(got, per_point(fn, *args))
    assert np.array_equal(_stack(fn, *args), got)


def test_plant_function_and_constant_contract(ball_beam):
    rng = np.random.default_rng(17)
    one, two = toy_formulas()
    assert str(inspect.signature(one)) == "(q)" and str(inspect.signature(two)) == "(q, p)"
    assert one(np.zeros(2)).shape == (2, 2) and two(np.zeros(2), np.zeros(2)).shape == (2, 1)
    for fn in (one, two):
        assert_rows_equal_points(fn, rng)

    value = [[1.0, 2.0], [3.0, 4.0]]
    fixed = constant(value)
    assert not fixed(np.zeros(2)).flags.writeable
    assert np.array_equal(fixed(np.zeros(2), np.zeros(2)), value)
    view = fixed.batched(np.zeros((5, 2)))
    assert view.strides[0] == 0 and np.array_equal(view, np.broadcast_to(value, (5, 2, 2)))

    # a wrapper set by dataclasses.replace has no row form: the sweeps call it per point
    calls = []

    def plain(q):
        calls.append(q)
        return one(q)

    sys = dataclasses.replace(ball_beam.system, mass_matrix=plain)
    assert not hasattr(sys.mass_matrix, "batched")
    qs = rng.standard_normal((7, 2))
    assert np.array_equal(_stack(sys.mass_matrix, qs), one.batched(qs)) and len(calls) == 7


def test_readme_example_derives_equal_forms():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Adding a benchmark", 1)[1]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    rng = np.random.default_rng(18)
    derived = [fn for fn in namespace.values() if hasattr(fn, "batched")]
    assert len(derived) == 3
    for fn in derived:
        assert_rows_equal_points(fn, rng)


def test_vtol_grad_vd_twin_raises_where_the_closure_raises(vtol):
    grad_vd = vtol.target.potential_d_grad
    rng = np.random.default_rng(15)
    qs = np.zeros((400, 3))
    qs[:, :2] = rng.uniform(-10.0, 10.0, (400, 2))
    qs[:, 2] = np.linspace(-1.6, 1.6, 400)
    qs[[1, -2], 2] = -np.inf, np.inf  # math's domain error names the barrier too
    for q in qs:
        try:
            want = grad_vd(q)
        except ValueError as err:
            assert "barrier" in str(err)
            with pytest.raises(ValueError, match="barrier"):
                grad_vd.batched(q[None])
            with pytest.raises(ValueError, match="barrier"):
                grad_vd.batched(np.vstack([np.zeros(3), q]))
        else:
            assert np.array_equal(grad_vd.batched(q[None])[0], want)
    assert abs(qs[0, 2]) > THETA_SINGULAR  # the sweep reaches past the barrier


def test_stack_copies_a_twin_to_a_c_contiguous_array(vtol):
    # VTOL's constant twins return np.broadcast_to views, whose stride-0 stacks
    # would reach numpy's non-BLAS matmul loop
    qs = np.zeros((5, 3))
    view = vtol.target.mass_d.batched(qs)
    assert view.strides[0] == 0
    stack = _stack(vtol.target.mass_d, qs)
    assert stack.flags.c_contiguous and stack.strides[0] > 0
    assert np.array_equal(stack, view)


def without_twins(benchmark):
    """The benchmark with each twinned callable behind a plain wrapper."""
    def plain(fn):
        return lambda *args: fn(*args)

    system = dataclasses.replace(
        benchmark.system, **{name: plain(getattr(benchmark.system, name)) for name in PLANT})
    target = dataclasses.replace(
        benchmark.target, **{name: plain(getattr(benchmark.target, name)) for name in TARGET})
    return dataclasses.replace(benchmark, system=system, target=target)


def sweep_results(benchmark, traj):
    sys, tgt = benchmark.system, benchmark.target
    region = None if benchmark.name == "ball-beam" else benchmark.certification_region()
    constants = estimate_constants(sys, tgt, samples=300, region=region)
    out = {
        "constants": dataclasses.asdict(constants),
        "violations": validate_constants(sys, tgt, constants, samples=2000),
        "matching": verify_matching(sys, tgt, samples=500, region=benchmark.residual_box),
        "advisory": kv_advisory(sys, tgt, constants),
        "empirical": empirical_constants(sys, tgt, traj),
    }
    if benchmark.name != "ball-beam":
        out["effort"] = benchmark.effort_certificate(benchmark.roll_limit())
    return out


def assert_same(got, want, path=""):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for key in want:
            assert_same(got[key], want[key], f"{path}/{key}")
    elif dataclasses.is_dataclass(want):
        assert_same(dataclasses.asdict(got), dataclasses.asdict(want), path)
    else:
        assert np.array_equal(got, want), f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", ["ball-beam", "vtol-nonsmooth", "vtol-two-phase"])
def test_sweeps_are_the_same_with_and_without_twins(name):
    benchmark = get_benchmark(name)
    traj = simulate(benchmark.system, benchmark.make_controller(), benchmark.initial_state,
                    SimConfig(dt=benchmark.default_sim().dt, t_end=0.5), target=benchmark.target)
    assert_same(sweep_results(benchmark, traj), sweep_results(without_twins(benchmark), traj))


def column_solve(a, rhs):
    """A^-1 b of every item from the sweeps' one stacked solve, the factorization
    of `_COLUMNS`: A on its (B,) columns, b as (B,) columns or (B, k) rows."""
    inverse = _COLUMNS.inverse(_COLUMNS.rows(a), SingularMass)
    return np.stack(inverse(list(np.swapaxes(rhs, 0, 1))), axis=1)


def test_stacked_solve_is_the_point_solve_item_by_item():
    # vector and matrix right-hand sides; for n > 3 numpy's solve of a matrix is not
    # that of its columns one by one, so each item's is solved whole
    rng = np.random.default_rng(16)
    for n in (1, 2, 3, 4):
        a = rng.standard_normal((3 * _BLOCK, n, n)) + 2.0 * np.eye(n)
        for rhs in (rng.standard_normal((3 * _BLOCK, n)), rng.standard_normal((3 * _BLOCK, n, n))):
            want = np.array([solve_checked(ai, bi, SingularMass) for ai, bi in zip(a, rhs)])
            assert np.array_equal(column_solve(a, rhs), want), n
        a[7] = 0.0
        with pytest.raises(SingularMass):
            column_solve(a, rhs)


def test_point_solve_on_floats_is_the_numpy_scalar_solve():
    # solve_checked reads the entries as Python floats; the same adjugate on
    # numpy scalars must give the same bits
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for _ in range(2000):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.standard_normal(n)
            scalars = [[a[i, j] for j in range(n)] for i in range(n)]
            want = np.array(_apply(_inverse(scalars, _guard, SingularMass), list(b)))
            assert np.array_equal(solve_checked(a, b, SingularMass), want)


def test_one_factorization_applies_as_the_point_solve():
    # the law factorizes M once and applies it to several right-hand sides
    rng = np.random.default_rng(18)
    for n in (1, 2, 3, 4):
        for _ in range(200):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
            inverse = _inverse_checked(a, SingularMass)
            for b in rng.standard_normal((3, n)):
                assert inverse(b.tolist()) == solve_checked(a, b, SingularMass).tolist()
        with pytest.raises(SingularMass):
            _inverse_checked(np.zeros((n, n)), SingularMass)


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_point_solve_rejects_singular_and_non_finite_matrices(bad):
    for n in (1, 2, 3):
        a = np.full((n, n), bad)
        with pytest.raises(SingularMass):
            solve_checked(a, np.ones(n), SingularMass)
        with pytest.raises(SingularMass), np.errstate(invalid="ignore"):
            column_solve(a[None], np.ones((1, n)))
