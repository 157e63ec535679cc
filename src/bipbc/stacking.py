"""Plant callables over blocks of points, and stacked linear algebra.

The sampled sweeps evaluate the plant and target over blocks of at most
`_BLOCK` points (whole-sweep stacks of the per-direction values would cost tens
of MB for no speed) and run the linear algebra (solves, inv, eigvalsh, matmul,
pinv and 2-norms, no SVD up to 3 x 3) once per block. `_stack` is the one
adaptor: a callable with a row form (`.batched`, see `plant_function`) is
called once per block, any other callable once per point. Batched operations
go item by item in the order of one point, so the results are those of a
point-by-point loop.

A formula runs on three carriers: Python floats (`math`, the point
callable), (B,) columns (`_ROWS`, the row form) and the expression nodes of
`bipbc.traced`, which compiles an IDA-PBC law of formulas (`_traceable`)
into one straight-line function. So does the law's shaping rule, on (B,)
columns through `controller._COLUMNS`: the sweeps evaluate the law's terms.
"""

from __future__ import annotations

import inspect
import math
from itertools import combinations, repeat
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import RankDeficientG
from .smalllinalg import SIGMA_MIN_LIMIT

_BLOCK = 64


def _blocks(count: int):
    """Slices of at most `_BLOCK` consecutive points covering `count` points."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


def _per_item(fn: Callable) -> Callable:
    """`fn` over a (B,) column, item by item on Python floats; any further
    arguments go to every call."""

    def column(x: np.ndarray, *args) -> np.ndarray:
        return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, len(x))

    return column


#: The math backend of a row form, on (B,) columns: numpy's `sqrt` and arithmetic, and
#: `math` item by item for the rest, since numpy's `tan`, `tanh`, `arcsinh`, `arctanh`,
#: `log` and `**` can differ from `math` in the last bit (its sin and cos agree on the
#: tested hosts, but are kernels the point path never loads); domain errors raise alike.
_ROWS = SimpleNamespace(sqrt=np.sqrt, **{name: _per_item(getattr(math, name)) for name in (
    "sin", "cos", "tan", "tanh", "asinh", "atanh", "log", "pow")})


def plant_function(shape: tuple, formula: Callable) -> Callable:
    """The plant or target callable of `formula`, with its row form as `.batched`.

    `formula(m, q)` or `formula(m, q, p)` returns the entries of one output of `shape` in
    C order, computed through the math backend `m` (the functions of `_ROWS`, `pow` for
    integer powers) and arithmetic. The callable takes (q) or (q, p) arrays and runs the
    formula on their Python floats with `math`; `.batched` takes them stacked as (B, n)
    rows, runs it once on their (B,) columns and returns the B outputs stacked on axis 0,
    each equal to the point call bit for bit. `.formula` and `.shape` are kept for
    `bipbc.traced`.
    """

    def rows(entries, count: int) -> np.ndarray:
        out = np.zeros((count, len(entries)))
        for i, entry in enumerate(entries):
            out[:, i] = entry
        return out.reshape((count,) + shape)

    if len(inspect.signature(formula).parameters) == 2:
        def fn(q):
            out = np.array(formula(math, q.tolist()))
            out.shape = shape
            return out

        fn.batched = lambda q: rows(formula(_ROWS, q.T), len(q))
    else:
        def fn(q, p):
            out = np.array(formula(math, q.tolist(), p.tolist()))
            out.shape = shape
            return out

        fn.batched = lambda q, p: rows(formula(_ROWS, q.T, p.T), len(q))
    fn.formula, fn.shape = formula, shape
    return fn


def constant(value) -> Callable:
    """The plant or target callable, of (q) or (q, p), that returns `value` as a
    read-only float array at every point, with a stride-0 view as its row form
    and the array as `.value`."""
    value = np.array(value, dtype=float)
    value.setflags(write=False)

    def fn(q, p=None):
        return value

    fn.batched = lambda q, p=None: np.broadcast_to(value, (len(q),) + value.shape)
    fn.value = value
    return fn


def _traceable(fn) -> bool:
    """Whether `fn` is a `plant_function` or a `constant`."""
    return hasattr(fn, "formula") or hasattr(fn, "value")


def _stack(fn: Callable, *args: np.ndarray) -> np.ndarray:
    """`fn` called on the zipped rows of `args`, its outputs stacked on axis 0.

    The row form of `fn` (`fn.batched`, see `plant_function`) is called once,
    and its result made a C-contiguous float array, copied only when it is not
    one (a stride-0 view would reach numpy's non-BLAS matmul loop). Otherwise
    `fn` is called per point, each output copied into the stack as it comes,
    so no list of per-point arrays is held.
    """
    twin = getattr(fn, "batched", None)
    if twin is not None:
        return np.ascontiguousarray(twin(*args), dtype=float)
    rows = zip(*args)
    first = np.asarray(fn(*next(rows)), dtype=float)
    out = np.empty((len(args[0]),) + first.shape)
    out[0] = first
    for i, row in enumerate(rows, start=1):
        out[i] = fn(*row)
    return out


def _stack_pairs(fn: Callable, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """`fn(q, p)` for each q of `qs` (B, n) and each p of `ps` (K, n), (B, K, ...)."""
    out = _stack(fn, np.repeat(qs, len(ps), axis=0), np.tile(ps, (len(qs), 1)))
    return out.reshape((len(qs), len(ps)) + out.shape[1:])


def _momentum_form(fn: Callable, directions: np.ndarray, degree: int) -> Callable:
    """qs -> `_stack_pairs(fn, qs, directions)` for `fn` linear (`degree` 1) or
    quadratic (2) in its second argument, from n or n(n+1)/2 calls per point.

    The probes are the axes e_j, and e_j + e_k (j < k) when quadratic. With F_j
    and F_jk the values there, fn(u) = sum_j u_j (2 u_j - sum_k u_k) F_j
    + sum_{j<k} u_j u_k F_jk (polarization).
    """
    n = directions.shape[1]
    probes, weights = np.eye(n), directions
    if degree == 2:
        j, k = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
        probes = np.vstack([probes, probes[j] + probes[k]])
        weights = np.hstack([directions * (2.0 * directions - directions.sum(1, keepdims=True)),
                             directions[:, j] * directions[:, k]])

    def on_directions(qs: np.ndarray) -> np.ndarray:
        values = _stack_pairs(fn, qs, probes)
        flat = weights @ values.reshape(values.shape[:2] + (-1,))
        return flat.reshape(flat.shape[:2] + values.shape[2:])

    return on_directions


def _fold(pick: Callable, acc: float, value: float) -> float:
    """pick(acc, value) of min or max, NaN if either is: a bare min or max skips a NaN value."""
    return value if math.isnan(value) else pick(acc, value)


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over stacks, one matrix-vector product per item."""
    return (a @ x[..., None])[..., 0]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y along the last axis, one vector dot product per item."""
    return (x[..., None, :] @ y[..., None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, as np.linalg.norm of each vector.

    np.linalg.norm(x, axis=-1) sums the squares in another way and can
    differ from the per-vector norm in the last bit.
    """
    return np.sqrt(_dots(x, x))


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of every symmetric matrix of a stack, all NaN for an item with
    a NaN or infinite entry.

    eigvalsh gives such an item finite numbers (a 2 x 2 identity with a NaN at
    (0, 0) has eigenvalues 0 and -0) or fails to converge on it (3 x 3), so a
    non-finite sample would slip past the sweeps' NaN folds or abort them.
    """
    if math.isfinite(float(a.sum())):  # every entry finite: the common case, one reduction
        return np.linalg.eigvalsh(a)
    finite = np.isfinite(a)
    eigs = np.linalg.eigvalsh(np.where(finite, a, 0.0))
    eigs[~finite.all(axis=(-2, -1))] = np.nan
    return eigs


def _sigma_max(a, b, c, d) -> np.ndarray:
    """Largest singular value of [[a, b], [c, d]], entry by entry."""
    s, t, u, v = a + d, b - c, a - d, b + c
    return 0.5 * (np.sqrt(s * s + t * t) + np.sqrt(u * u + v * v))


def _skew3(a: np.ndarray) -> bool:
    """Whether every matrix of a (..., 3, 3) stack is exactly skew (a NaN entry is not),
    compared on entry views without a negated copy of the stack."""
    return (all(np.all(a[..., i, i] == 0.0) for i in range(3))
            and all(np.all(a[..., i, j] == -a[..., j, i]) for i, j in ((0, 1), (0, 2), (1, 2))))


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a stack, without SVD up to 3 x 3.

    A stack of exactly skew 3 x 3 matrices (J_2's contract) takes the closed form
    sqrt(a01^2 + a02^2 + a12^2): the singular values of such a matrix are |w|,
    |w| and 0. Any other 3-row or 3-column stack takes the root of the largest
    eigenvalue of a^T a, through `_eigvalsh`, so an item with a NaN or infinite
    entry gives NaN; the Frobenius norm, which bounds it, caps its rounding.
    """
    if a.shape[-2:] == (3, 3) and _skew3(a):
        out = a[..., 0, 1] * a[..., 0, 1]  # summed in place: the (64, 70) stacks are large
        out += a[..., 0, 2] * a[..., 0, 2]
        out += a[..., 1, 2] * a[..., 1, 2]
        return np.sqrt(out)
    if a.ndim > 3 and len(a) > 8:  # in eighths, so that the temporaries stay small
        return np.concatenate([_general_norms(c) for c in np.array_split(a, 8)])
    return _general_norms(a)


def _general_norms(a: np.ndarray) -> np.ndarray:
    """`_spectral_norms` of a stack taken without the skew closed form."""
    shape, flat = a.shape[-2:], a.reshape(a.shape[:-2] + (-1,))
    if 1 in shape:
        return _norms(flat)
    if shape == (2, 2):
        return _sigma_max(a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1])
    if max(shape) == 3:
        return np.minimum(np.sqrt(_eigvalsh(_swap(a) @ a)[..., -1]), _norms(flat))
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _pull_back(g: np.ndarray) -> np.ndarray:
    """pinv(G) of every G of a (B, n, m) stack, as (B, m, n): for m <= 2, R^-1 Q^T from the
    QR of `pseudo_inverse_apply` on (B, n) columns, G^T on a 0/1 unit-structure G.
    Raises RankDeficientG, before dividing, where sigma_min(G) is below 1e-9."""
    if g.shape[-1] > 2:
        return np.linalg.pinv(g)
    a = g[..., 0]
    r11 = _norms(a)
    if np.any(r11 < SIGMA_MIN_LIMIT):  # NaN passes, and pulls back to NaN
        raise RankDeficientG("smallest singular value of G below 1e-9")
    if g.shape[-1] == 1:
        return (a / _dots(a, a)[..., None])[..., None, :]
    q1, w, r12 = a / r11[..., None], g[..., 1], 0.0
    for _ in range(2):  # Gram-Schmidt with one reorthogonalization
        c = _dots(q1, w)
        r12, w = r12 + c, w - c[..., None] * q1
    r22 = _norms(w)
    if np.any(r11 * r22 < SIGMA_MIN_LIMIT * _sigma_max(r11, r12, 0.0, r22)):  # det R / sigma_max
        raise RankDeficientG("smallest singular value of G below 1e-9")
    row2 = w / r22[..., None] / r22[..., None]
    return np.stack([(q1 - r12[..., None] * row2) / r11[..., None], row2], axis=-2)
