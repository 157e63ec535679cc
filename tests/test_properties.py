"""Property tests: small solves, the rank guard, workspace boxes, RunSpec round-trip.

Hypothesis runs derandomized with a fixed example budget, so every run of
the suite checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipbc import Box, SingularMass
from bipbc.bench import BENCHMARK_NAMES
from bipbc.cli import COMMANDS, RunSpec
from bipbc.controller import SIGMA_MIN_LIMIT
from bipbc.smalllinalg import smallest_singular_value, solve_checked

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def dominant_systems(draw):
    """A strictly diagonally dominant n x n matrix (n = 1..3) and a rhs."""
    n = draw(st.integers(1, 3))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n))
    scale = draw(st.floats(1e-3, 1e3))
    a = scale * (np.array(entries).reshape(n, n) + (n + 1) * np.eye(n))
    rhs = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return a, rhs


@PROPERTY
@given(dominant_systems())
def test_solve_checked_matches_numpy(system):
    a, rhs = system
    expected = np.linalg.solve(a, rhs)
    got = solve_checked(a, rhs, SingularMass)
    assert got.shape == expected.shape
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-10 * np.max(np.abs(expected)))


@PROPERTY
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n),
    st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
def test_solve_checked_rejects_rank_one(vectors):
    u, v = (np.array(x, dtype=float) for x in vectors)
    with pytest.raises(SingularMass):
        solve_checked(np.outer(u, v), np.ones(u.size), SingularMass)


@st.composite
def nearly_rank_deficient(draw):
    """A tall n x m G (m = 1..3) = U diag(s) V^T whose smallest singular value
    is 10^-12..10^-6 and the others 0.1..10, with U and V orthonormal."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(max(m, 2), m + 2))
    unit = st.floats(-1.0, 1.0)
    u, _ = np.linalg.qr(np.array(draw(st.lists(unit, min_size=n * m, max_size=n * m)))
                        .reshape(n, m) + np.eye(n, m))
    v, _ = np.linalg.qr(np.array(draw(st.lists(unit, min_size=m * m, max_size=m * m)))
                        .reshape(m, m) + 2.0 * np.eye(m))
    large = draw(st.lists(st.floats(0.1, 10.0), min_size=m - 1, max_size=m - 1))
    s = np.array(large + [10.0 ** draw(st.floats(-12.0, -6.0))])
    return (u * s) @ v.T


@PROPERTY
@given(nearly_rank_deficient())
def test_rank_guard_agrees_with_svd(g):
    sigma = np.linalg.svd(g, compute_uv=False)[-1]
    assume(not 0.5 * SIGMA_MIN_LIMIT <= sigma <= 2.0 * SIGMA_MIN_LIMIT)
    assert (smallest_singular_value(g) < SIGMA_MIN_LIMIT) == (sigma < SIGMA_MIN_LIMIT)


@st.composite
def boxes(draw):
    dim = draw(st.integers(1, 4))
    lower = np.array(draw(st.lists(finite, min_size=dim, max_size=dim)))
    widths = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=dim, max_size=dim)))
    return Box(lower=lower, upper=lower + widths)


@PROPERTY
@given(boxes(), st.integers(1, 50), st.integers(0, 200))
def test_box_contains_its_samples_and_corners(box, count, skip):
    points = box.sample(count, skip=skip)
    assert points.shape == (count, box.dim)
    assert all(box.contains(q) for q in points)
    assert all(box.contains(q) for q in box.corners())
    assert box.contains(box.center())


optional_positive = st.none() | st.floats(1e-6, 1e3)
specs = st.builds(
    RunSpec,
    command=st.sampled_from(COMMANDS),
    benchmark=st.sampled_from(BENCHMARK_NAMES),
    params=st.dictionaries(st.text(min_size=1, max_size=8), finite, max_size=3),
    dt=optional_positive,
    t_end=optional_positive,
    record_stride=st.integers(1, 100),
    samples=st.integers(1, 10_000),
    mu=st.floats(0.0, 1.0, exclude_min=True),
    seed=st.integers(0, 2**31 - 1),
    hd0=st.none() | st.floats(0.0, 1e3),
    out=st.text(max_size=16),
)


@PROPERTY
@given(specs)
def test_runspec_json_roundtrip(spec):
    assert RunSpec.from_json(spec.to_json()) == spec
