"""Checked linear solves sized for 1-3 DOF mechanical systems.

The simulation inner loop solves against M(q) and M_d(q) at every integrator
stage; generic LAPACK calls plus an SVD-based condition number would dominate
the runtime there. For n <= 3 the solves use closed-form adjugate formulas
with a Frobenius condition estimate (cond_F = ||A||_F ||A^-1||_F, which
brackets the spectral condition number within a factor n), factorized and
guarded once by `_inverse` and applied by `_apply`, so that the IDA-PBC law
solves three right-hand sides against one factorization of M
(`_inverse_checked`). Larger systems fall back to numpy. `_inverse_columns`
is the same factorization of a stack of matrices, their entries as (B,)
columns, each item guarded: the one stacked solve of the sampled sweeps.
`_product` is the matrix-vector product of the point law, a sum of products
added left to right, the same on floats, on (B,) columns and on expression
nodes.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from operator import add, mul
from typing import Callable

import numpy as np

COND_LIMIT = 1e12
#: smallest singular value of G below which the pull-back raises RankDeficientG
SIGMA_MIN_LIMIT = 1e-9


def _dot(a, b):
    """a_0 b_0 + a_1 b_1 + ..., added left to right with each product and sum
    rounded on its own: no fused multiply-add, so no BLAS kernel moves a bit."""
    return reduce(add, map(mul, a, b))


def _product(a, x) -> list:
    """Rows of A x, each a `_dot`, for A's rows `a` and x's entries `x`
    (written out for two and three entries)."""
    if len(x) == 2:
        x0, x1 = x
        return [r0 * x0 + r1 * x1 for r0, r1 in a]
    if len(x) == 3:
        x0, x1, x2 = x
        return [r0 * x0 + r1 * x1 + r2 * x2 for r0, r1, r2 in a]
    return [_dot(row, x) for row in a]


def _guard(det: float, cond: float, n: int, exc: type) -> None:
    """Raise `exc` unless det A is finite and nonzero and cond_F <= 1e12.

    cond_F = ||A||_F ||adj A||_F / |det A|, with `cond` its numerator: |A| for
    n = 1 (cond_F = 1), ||A||_F^2 for n = 2 (where ||adj A||_F = ||A||_F),
    and for n = 3 its square, ||A||_F^2 ||adj A||_F^2.
    """
    if det == 0.0 or not math.isfinite(det):
        raise exc(f"singular {n}x{n} matrix")
    if (math.sqrt(cond) if n == 3 else cond) / abs(det) > COND_LIMIT:
        raise exc(f"{n}x{n} matrix condition estimate exceeds 1e12")


def _guard_each(det: np.ndarray, cond: np.ndarray, n: int, exc: type) -> None:
    """`_guard` on every item of a stack."""
    for d, c in zip(det.ravel().tolist(), cond.ravel().tolist()):
        _guard(d, c, n, exc)


def _inverse(a, guard: Callable, exc: type) -> tuple:
    """A's factorization for n <= 3, as `_apply` reads it: a00, or A's entries
    and det A for n = 2, or the nine cofactors and det A for n = 3.

    `a` holds A's entries row by row: floats, or arrays that broadcast item by
    item over a stack, with the same arithmetic. `guard` runs here, once,
    before any division, however many right-hand sides the factorization is
    applied to.
    """
    n = len(a)
    if n == 1:
        ((a00,),) = a
        guard(a00, abs(a00), 1, exc)
        return (a00,)
    if n == 2:
        (a00, a01), (a10, a11) = a
        det = a00 * a11 - a01 * a10
        guard(det, a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11, 2, exc)
        return a00, a01, a10, a11, det
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c00 = a11 * a22 - a12 * a21
    c01 = a12 * a20 - a10 * a22
    c02 = a10 * a21 - a11 * a20
    c10 = a02 * a21 - a01 * a22
    c11 = a00 * a22 - a02 * a20
    c12 = a01 * a20 - a00 * a21
    c20 = a01 * a12 - a02 * a11
    c21 = a02 * a10 - a00 * a12
    c22 = a00 * a11 - a01 * a10
    det = a00 * c00 + a01 * c01 + a02 * c02
    fro = (
        a00 * a00 + a01 * a01 + a02 * a02
        + a10 * a10 + a11 * a11 + a12 * a12
        + a20 * a20 + a21 * a21 + a22 * a22
    )
    adj_fro = (
        c00 * c00 + c01 * c01 + c02 * c02
        + c10 * c10 + c11 * c11 + c12 * c12
        + c20 * c20 + c21 * c21 + c22 * c22
    )
    guard(det, fro * adj_fro, 3, exc)
    return c00, c01, c02, c10, c11, c12, c20, c21, c22, det


def _apply(inverse: tuple, b) -> list:
    """Rows of A^-1 b = adj(A) b / det A from A's `_inverse`, for the rows of
    one right-hand side `b`."""
    if len(inverse) == 1:
        return [b[0] / inverse[0]]
    if len(inverse) == 5:
        a00, a01, a10, a11, det = inverse
        b0, b1 = b
        return [(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det]
    c00, c01, c02, c10, c11, c12, c20, c21, c22, det = inverse
    b0, b1, b2 = b
    return [
        (c00 * b0 + c10 * b1 + c20 * b2) / det,
        (c01 * b0 + c11 * b1 + c21 * b2) / det,
        (c02 * b0 + c12 * b1 + c22 * b2) / det,
    ]


def _check_large(a: np.ndarray, exc: type) -> None:
    """The guard for n > 3: finite entries and a LAPACK condition number <= 1e12."""
    if not np.all(np.isfinite(a)) or np.linalg.cond(a) > COND_LIMIT:
        raise exc("matrix condition estimate exceeds 1e12")


def _inverse_checked(a, exc: type) -> Callable:
    """A^-1 as a map from a right-hand side's floats to those of A^-1 b, for
    A's rows `a` (lists of floats, or an array), with A guarded once, here, as
    `solve_checked` guards it.

    Each application equals solve_checked(A, b, exc) bit for bit: for n <= 3
    it applies the one `_inverse` of A, and larger systems check the
    condition once and solve with numpy.
    """
    if len(a) <= 3:
        return partial(_apply, _inverse(a, _guard, exc))
    a = np.asarray(a, dtype=float)
    _check_large(a, exc)
    return lambda b: np.linalg.solve(a, b).tolist()


def _inverse_columns(a, exc: type) -> Callable:
    """`_inverse_checked` of every item of a stack, A's rows `a` as (B,) columns.

    It maps the rows of a right-hand side, (B,) columns or (B, k) rows, to
    those of A^-1 b, item by item solve_checked(A, b, exc) bit for bit: for
    n > 3 each item's whole right-hand side is solved at once, since numpy's
    solve of a matrix is not that of its columns one by one.
    """
    if len(a) > 3:
        a = np.stack([np.stack(row, axis=-1) for row in a], axis=1)
        for item in a:
            _check_large(item, exc)
        return lambda b: list(np.moveaxis(
            np.stack([np.linalg.solve(ai, bi) for ai, bi in zip(a, np.stack(b, axis=1))]), 1, 0))
    inverse = _inverse(a, _guard_each, exc)
    # a matrix right-hand side comes as (B, k) rows, over which (B, 1) entries broadcast
    return lambda b: _apply(inverse if b[0].ndim == 1 else [x[:, None] for x in inverse], b)


def solve_checked(a: np.ndarray, rhs: np.ndarray, exc: type) -> np.ndarray:
    """a^-1 rhs with a singularity guard; raises `exc` when cond > 1e12.

    For n <= 3 the entries of `a` and of a 1-D `rhs` are read as Python floats
    (the IEEE operations of numpy scalars, at a fraction of the cost); a 2-D
    `rhs` stays an array.
    """
    if a.shape[0] <= 3:
        rhs = np.asarray(rhs)
        return np.array(_apply(_inverse(a.tolist(), _guard, exc),
                               rhs.tolist() if rhs.ndim == 1 else rhs))
    _check_large(a, exc)
    return np.linalg.solve(a, rhs)


def smallest_singular_value(g) -> float:
    """sigma_min of a tall (n x m) matrix, an array or its rows as lists, closed
    form for m <= 2.

    For m = 1 it is sqrt(g^T g), the root of the `_dot` that the one-input
    pull-back divides by. For m = 2, the Gram eigenvalues are det / largest and
    largest, with det G^T G summed from the 2 x 2 minors (Lagrange identity):
    half_trace - disc would cancel.
    For m >= 3 a non-finite entry gives NaN without calling LAPACK, whose SVD
    would fail on it.
    """
    rows = g.tolist() if isinstance(g, np.ndarray) else g
    if len(rows[0]) == 1:
        col = [row[0] for row in rows]
        return math.sqrt(_dot(col, col))
    if len(rows[0]) == 2:
        a, b = [row[0] for row in rows], [row[1] for row in rows]
        trace = math.fsum(x * x for x in a + b)
        det = math.fsum((a[i] * b[j] - a[j] * b[i]) ** 2
                        for i in range(len(a)) for j in range(i + 1, len(a)))
        largest = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
        return math.sqrt(det / largest) if largest else 0.0
    g = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(g)):
        return math.nan
    return float(np.linalg.svd(g, compute_uv=False)[-1])
