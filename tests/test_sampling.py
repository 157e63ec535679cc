"""Workspace boxes and the deterministic sampling helpers."""

import numpy as np
import pytest

from bipbc import Box, EmptyWorkspace
from bipbc.sampling import _PRIMES, ball_sample, halton


def _radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i in `base`; the scalar form of `halton`."""
    inv = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        i, digit = divmod(i, base)
        inv += digit / denom
    return inv


def test_box_basics():
    box = Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
    assert box.dim == 2
    assert box.contains(np.array([0.5, 1.0]))
    assert not box.contains(np.array([1.5, 1.0]))
    assert box.contains(np.array([1.0 + 1e-9, 1.0]), atol=1e-6)
    assert np.allclose(box.center(), [0.0, 1.0])
    corners = box.corners()
    assert corners.shape == (4, 2)
    assert {tuple(c) for c in corners} == {(-1, 0), (-1, 2), (1, 0), (1, 2)}


def test_box_validation():
    with pytest.raises(EmptyWorkspace):
        Box(lower=np.array([1.0]), upper=np.array([0.0]))
    with pytest.raises(ValueError):
        Box(lower=np.zeros((2, 2)), upper=np.zeros((2, 2)))


def test_box_sample_inside_and_deterministic():
    box = Box(lower=np.array([-2.0, 1.0]), upper=np.array([2.0, 3.0]))
    pts = box.sample(200)
    assert pts.shape == (200, 2)
    assert all(box.contains(p) for p in pts)
    assert np.array_equal(pts, box.sample(200))
    shifted = box.sample(200, skip=200)
    assert not np.array_equal(pts, shifted)


def test_halton_spread():
    pts = halton(512, 2)
    assert np.all((pts >= 0) & (pts < 1))
    # equidistribution sanity: each quadrant gets roughly a quarter
    for qx in (0, 1):
        for qy in (0, 1):
            count = np.sum(
                (pts[:, 0] >= 0.5 * qx) & (pts[:, 0] < 0.5 * (qx + 1))
                & (pts[:, 1] >= 0.5 * qy) & (pts[:, 1] < 0.5 * (qy + 1))
            )
            assert 100 <= count <= 156


@pytest.mark.parametrize(
    "count, dim, skip",
    [(1, 1, 0), (0, 3, 0), (257, 2, 0), (1000, 3, 7000), (300, 12, 0), (40, 12, 123_456)],
)
def test_halton_equals_radical_inverse(count, dim, skip):
    want = np.array(
        [[_radical_inverse(k + skip + 1, _PRIMES[d]) for d in range(dim)] for k in range(count)]
    ).reshape(count, dim)
    assert np.array_equal(halton(count, dim, skip=skip), want)


def test_ball_sample_radius():
    pts = ball_sample(300, 3, radius=2.0)
    norms = np.linalg.norm(pts, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)
    assert np.max(norms) > 1.5  # actually fills the ball
