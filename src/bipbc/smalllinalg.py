"""Checked linear solves sized for 1-3 DOF mechanical systems.

The simulation inner loop solves against M(q) and M_d(q) several times per
integrator stage; generic LAPACK calls plus an SVD-based condition number
dominate the runtime there. For n <= 3 the solves use closed-form adjugate
formulas with a Frobenius condition estimate (cond_F = ||A||_F ||A^-1||_F,
which brackets the spectral condition number within a factor n). Larger
systems fall back to numpy.
"""

from __future__ import annotations

import math

import numpy as np

COND_LIMIT = 1e12


def solve_checked(a: np.ndarray, rhs: np.ndarray, exc: type) -> np.ndarray:
    """a^-1 rhs with a singularity guard; raises `exc` when cond > 1e12."""
    n = a.shape[0]
    if n == 1:
        a00 = a[0, 0]
        if a00 == 0.0 or not math.isfinite(a00):
            raise exc("singular 1x1 matrix")
        return rhs / a00
    if n == 2:
        a00, a01 = a[0, 0], a[0, 1]
        a10, a11 = a[1, 0], a[1, 1]
        det = a00 * a11 - a01 * a10
        fro2 = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
        if det == 0.0 or not math.isfinite(det) or fro2 / abs(det) > COND_LIMIT:
            raise exc("2x2 matrix condition estimate exceeds 1e12")
        b0, b1 = rhs[0], rhs[1]
        return np.array([(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det])
    if n == 3:
        a00, a01, a02 = a[0]
        a10, a11, a12 = a[1]
        a20, a21, a22 = a[2]
        c00 = a11 * a22 - a12 * a21
        c01 = a12 * a20 - a10 * a22
        c02 = a10 * a21 - a11 * a20
        det = a00 * c00 + a01 * c01 + a02 * c02
        if det == 0.0 or not math.isfinite(det):
            raise exc("singular 3x3 matrix")
        c10 = a02 * a21 - a01 * a22
        c11 = a00 * a22 - a02 * a20
        c12 = a01 * a20 - a00 * a21
        c20 = a01 * a12 - a02 * a11
        c21 = a02 * a10 - a00 * a12
        c22 = a00 * a11 - a01 * a10
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
        if math.sqrt(fro * adj_fro) / abs(det) > COND_LIMIT:
            raise exc("3x3 matrix condition estimate exceeds 1e12")
        b0, b1, b2 = rhs[0], rhs[1], rhs[2]
        return np.array(
            [
                (c00 * b0 + c10 * b1 + c20 * b2) / det,
                (c01 * b0 + c11 * b1 + c21 * b2) / det,
                (c02 * b0 + c12 * b1 + c22 * b2) / det,
            ]
        )
    if not np.all(np.isfinite(a)) or np.linalg.cond(a) > COND_LIMIT:
        raise exc("matrix condition estimate exceeds 1e12")
    return np.linalg.solve(a, rhs)


def smallest_singular_value(g: np.ndarray) -> float:
    """sigma_min of a tall (n x m) matrix, closed form for m <= 2.

    For m = 2, the Gram eigenvalues are det / largest and largest, with det G^T G
    summed from the 2 x 2 minors (Lagrange identity): half_trace - disc would cancel.
    For m >= 3 a non-finite entry gives NaN without calling LAPACK, whose SVD
    would fail on it.
    """
    m = g.shape[1]
    if m == 1:
        return float(np.linalg.norm(g[:, 0]))
    if m == 2:
        a, b = g[:, 0].tolist(), g[:, 1].tolist()
        trace = math.fsum(x * x for x in a + b)
        det = math.fsum((a[i] * b[j] - a[j] * b[i]) ** 2
                        for i in range(len(a)) for j in range(i + 1, len(a)))
        largest = 0.5 * (trace + math.sqrt(max(trace * trace - 4.0 * det, 0.0)))
        return math.sqrt(det / largest) if largest else 0.0
    if not np.all(np.isfinite(g)):
        return math.nan
    return float(np.linalg.svd(g, compute_uv=False)[-1])
