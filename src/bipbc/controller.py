"""IDA-PBC control law and two-phase control.

The energy-shaping feedback matches the plant to a target port-Hamiltonian
system with desired mass matrix M_d, desired potential V_d, interconnection
J_2, and injected damping K_v:

    tau = (G^T G)^-1 G^T (grad_q V - M_d M^-1 grad_q V_d
                          + grad_q K - M_d M^-1 grad_q K_d + J_2 ptilde)
          - K_v G^T ptilde                 (linear damping)
    or    - K_v tanh(G^T ptilde)           (saturated damping, elementwise)

with ptilde = M_d^-1 p. `_shaping` is the one place that forms the bracket at
a point, as a potential part grad_q V - M_d M^-1 grad_q V_d and a kinetic
part grad_q K - M_d M^-1 grad_q K_d + J_2 ptilde: the law is pinv(G) applied
to their sum, and the matching residuals of `matching` are Gperp applied to
each part (`matching_terms`). The pseudo-inverse is evaluated through a QR
factorization, in closed form for one and two inputs and by numpy for more,
and its rank guard reads sigma_min(G) off that factorization; the damping term
is applied after the projection, which is algebraically identical because
(G^T G)^-1 G^T G = I.

Each evaluation factorizes M once: the adjugate, its determinant and the
singularity guard of `smalllinalg`, applied to grad_q V_d, grad_q K_d and, for
the field, p (`_shaping`); M_d keeps its own solve for ptilde, which comes
first. No step calls BLAS for n <= 3: every matrix-vector product is a
`smalllinalg._product`, products summed left to right, and everything else
(the two parts of the shaping vector and their sum, tau = pinv(G) v - K_v y,
and the field (qdot, pdot) of `hamiltonian_field`) is Python float
arithmetic in a fixed order, so the law's value does not depend on the BLAS
kernel. The law is written once on a carrier `m`: `_FLOATS` (the plant
callables' outputs as nested float lists, `math`, and guards that raise) or
the expression nodes of `traced`, which record it; its shaping rule also runs
on `_COLUMNS`, the (B,) columns of the sampled sweeps.

`IdaPbcLaw` is the law as a controller (t, q, p) -> tau whose `evaluate` and
`field` return the plant's closed-loop field from the law's own plant
evaluation. A law whose callables are all formulas or constants runs as one
generated straight-line function (`_generated_law`), bit for bit the law
above, which hands any point where a guard fails or `math` raises to
`ida_pbc_control_raw`; `simulate` calls it on the state's float entries at
accepted states and interior RK4 stages.

Controllers are pure functions of the state, so one instance can serve any
number of simulations.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial
from operator import mul
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import traced
from .errors import RankDeficientG, SingularMass, SingularMassD, ToolkitError
from .phcore import (
    ConfigState,
    EnergyRecord,
    MechanicalSystem,
    fd_gradient,
    hamiltonian_field,
    kinetic_energy_grad,
)
from .smalllinalg import (
    SIGMA_MIN_LIMIT,
    _dot,
    _inverse_checked,
    _inverse_columns,
    _product,
    smallest_singular_value,
    solve_checked,
)
from .stacking import _traceable


def log_cosh(x: float) -> float:
    """Overflow-safe ln(cosh(x))."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class TargetDynamics:
    """Closed-loop design data for IDA-PBC.

    Attributes:
        mass_d: q -> (n, n) desired mass matrix, SPD on the workspace.
        potential_d: q -> scalar desired potential, minimal at `equilibrium`.
        potential_d_grad: q -> (n,) grad_q V_d.
        j2: (q, ptilde) -> (n, n) skew-symmetric, linear in ptilde.
        damping_gain: (m, m) constant symmetric PSD K_v.
        equilibrium: (n,) desired configuration q*.
        kinetic_d_grad: optional (q, p) -> grad_q K_d with
            K_d = 1/2 p^T M_d^-1 p; finite differences when absent.
    """

    mass_d: Callable[[np.ndarray], np.ndarray]
    potential_d: Callable[[np.ndarray], float]
    potential_d_grad: Callable[[np.ndarray], np.ndarray]
    j2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    damping_gain: np.ndarray
    equilibrium: np.ndarray
    kinetic_d_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "damping_gain", np.atleast_2d(np.asarray(self.damping_gain, dtype=float))
        )
        object.__setattr__(
            self, "equilibrium", np.atleast_1d(np.asarray(self.equilibrium, dtype=float))
        )


def mass_d_solve(tgt: TargetDynamics, q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M_d(q)^-1 rhs via a linear solve."""
    return solve_checked(tgt.mass_d(q), rhs, SingularMassD)


def kinetic_d_energy(tgt: TargetDynamics, q: np.ndarray, p: np.ndarray) -> float:
    return 0.5 * float(p @ mass_d_solve(tgt, q, p))


def kinetic_d_grad(tgt: TargetDynamics, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    if tgt.kinetic_d_grad is not None:
        return np.asarray(tgt.kinetic_d_grad(q, p), dtype=float)
    return fd_gradient(lambda qq: kinetic_d_energy(tgt, qq, p), q)


def target_energy(tgt: TargetDynamics, s: ConfigState) -> EnergyRecord:
    """Closed-loop energy H_d = 1/2 p^T M_d^-1 p + V_d."""
    k = kinetic_d_energy(tgt, s.q, s.p)
    v = float(tgt.potential_d(s.q))
    return EnergyRecord(kinetic=k, potential=v, total=k + v)


def _rank_deficient(sigma: float) -> bool:
    """The rank guard: sigma_min(G) below 1e-9 or not finite."""
    return not SIGMA_MIN_LIMIT <= sigma < math.inf


def _rank_guard(sigma: float) -> None:
    if _rank_deficient(sigma):
        raise RankDeficientG("smallest singular value of G below 1e-9 or not finite")


#: The carrier of the point law: `rows` of a callable's output or of (q, p) as
#: nested float lists, `vec` back to an argument, `math`, and guards that raise.
_FLOATS = SimpleNamespace(
    rows=np.ndarray.tolist, vec=np.array, inverse=_inverse_checked, sqrt=math.sqrt,
    tanh=math.tanh, fsum=math.fsum, rank_guard=_rank_guard,
    sigma_min=lambda g: smallest_singular_value(g))

#: The carrier of the shaping rule on a block of points: `rows` of a (B, n) or (B, n, k)
#: stack as (B,) columns nested as one item's rows, `vec` back to a (B, n) argument, and
#: the guarded factorization of every item (`_inverse_columns`), the sweeps' one stacked solve.
_COLUMNS = SimpleNamespace(
    rows=lambda a: list(a.T) if a.ndim == 2 else [list(r) for r in a.transpose(1, 2, 0)],
    vec=partial(np.stack, axis=1), inverse=_inverse_columns)


def _pinv_rows(m, g: list, v: list) -> list:
    """(G^T G)^-1 G^T v for G's rows `g` and v's entries `v`, on the carrier `m`.

    One input is g^T v / g^T g, guarded by `m.sigma_min`; two are the QR of
    `pseudo_inverse_apply`. More inputs take numpy's QR, on floats only.
    """
    if len(g[0]) > 2:
        return pseudo_inverse_apply(np.array(g), np.array(v)).tolist()
    a = [row[0] for row in g]
    if len(g[0]) == 1:
        m.rank_guard(m.sigma_min(g))
        return [_dot(a, v) / _dot(a, a)]
    b = [row[1] for row in g]
    r11 = m.sqrt(m.fsum(map(mul, a, a)))
    m.rank_guard(r11)  # sigma_min <= r11
    q1 = [x / r11 for x in a]
    r12 = m.fsum(map(mul, q1, b))
    w = [y - r12 * x for x, y in zip(q1, b)]
    c = m.fsum(map(mul, q1, w))
    r12 += c
    w = [y - c * x for x, y in zip(q1, w)]
    r22 = m.sqrt(m.fsum(map(mul, w, w)))
    s, d = r11 + r22, r11 - r22
    sigma_max = 0.5 * (m.sqrt(s * s + r12 * r12) + m.sqrt(d * d + r12 * r12))
    m.rank_guard(r11 * r22 / sigma_max)
    y1 = m.fsum(map(mul, q1, v))
    y2 = m.fsum([x / r22 * (y - y1 * z) for x, y, z in zip(w, v, q1)])
    x2 = y2 / r22
    return [(y1 - r12 * x2) / r11, x2]


def pseudo_inverse_apply(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(G^T G)^-1 G^T v = R^-1 Q^T v from a thin QR factorization G = Q R.

    Raises RankDeficientG when sigma_min(G) is below 1e-9 or not finite (a NaN
    or infinite entry of G), before the division it guards. For m = 2 the guard
    reads sigma_min off the factorization, r11 and then det R / sigma_max(R),
    without a second pass over G; otherwise it is `smallest_singular_value`,
    for m = 1 the root of the divisor g^T g. m = 1 is g^T v / g^T g, each dot
    summed left to right. For m = 2, Q = [q1, w / r22] comes from Gram-Schmidt
    with one reorthogonalization, in Python floats with fsum dot products: as
    accurate as Householder QR, where the adjugate of G^T G loses accuracy with
    cond(G)^2. Larger m uses numpy's QR.
    """
    if g.shape[1] <= 2:
        return np.array(_pinv_rows(_FLOATS, g.tolist(), v.tolist()))
    _rank_guard(smallest_singular_value(g))
    qmat, rmat = np.linalg.qr(g)
    return np.linalg.solve(rmat, qmat.T @ v)


def _momentum_grads(sys: MechanicalSystem, tgt: TargetDynamics) -> tuple[Callable, Callable]:
    """grad_q K and grad_q K_d as (q, p) callables: the plant's own, so that
    its row form and its formula are used, or else finite differences."""
    return (sys.kinetic_grad if sys.kinetic_grad is not None else partial(kinetic_energy_grad, sys),
            tgt.kinetic_d_grad if tgt.kinetic_d_grad is not None else partial(kinetic_d_grad, tgt))


def _shaping(sys: MechanicalSystem, tgt: TargetDynamics, q, p, m=_FLOATS):
    """(M^-1, grad_q V, grad_q K, potential, kinetic, ptilde) at (q, p): the two
    parts of the shaping vector from one factorization of M, as entry lists.

    ptilde = M_d^-1 p is solved first, so a singular M_d raises SingularMassD
    before M is looked at; M is factorized and guarded after grad_q V_d is
    evaluated and before grad_q K. M^-1 maps a right-hand side's entries to
    those of M^-1 b. On `_COLUMNS`, with (sys, tgt) callables that take and
    return stacks, it is the same rule on a block of points, item by item the
    point values bit for bit.
    """
    mass = m.rows(sys.mass_matrix(q))
    md = m.rows(tgt.mass_d(q))
    pt = m.inverse(md, SingularMassD)(m.rows(p))
    grad_v = m.rows(sys.potential_grad(q))
    grad_vd = m.rows(tgt.potential_d_grad(q))
    inverse = m.inverse(mass, SingularMass)
    potential = [v - w for v, w in zip(grad_v, _product(md, inverse(grad_vd)))]
    k_grad, kd_grad = _momentum_grads(sys, tgt)
    grad_k = m.rows(k_grad(q, p))
    y = _product(md, inverse(m.rows(kd_grad(q, p))))
    z = _product(m.rows(tgt.j2(q, m.vec(pt))), pt)
    kinetic = [(k - w) + j for k, w, j in zip(grad_k, y, z)]
    return inverse, grad_v, grad_k, potential, kinetic, pt


def matching_terms(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray,
                   p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(potential, kinetic, ptilde) at (q, p): the two parts of the shaping vector.

    potential = grad_q V - M_d M^-1 grad_q V_d and
    kinetic = grad_q K - M_d M^-1 grad_q K_d + J_2 ptilde, with ptilde = M_d^-1 p.
    The kinetic part is quadratic in p, so it vanishes at p = 0.
    """
    _, _, _, potential, kinetic, pt = _shaping(sys, tgt, q, p)
    return np.array(potential), np.array(kinetic), np.array(pt)


def _check_mode(damping_mode: str) -> None:
    if damping_mode not in ("linear", "saturated"):
        raise ValueError(f"unknown damping_mode {damping_mode!r}")


def _law(sys, tgt, q, p, damping_mode, with_field, m=_FLOATS):
    """tau = pinv(G) (potential + kinetic) minus the damping on G^T ptilde, or
    with `with_field` (tau, (qdot, pdot) of the plant under tau, ptilde), as
    entry lists on the carrier `m`."""
    inverse, grad_v, grad_k, potential, kinetic, pt = _shaping(sys, tgt, q, p, m)
    g = m.rows(sys.input_coupling(q))
    y = _product(zip(*g), pt)  # G^T ptilde
    if damping_mode == "saturated":
        y = [m.tanh(yi) for yi in y]
    u = _pinv_rows(m, g, [a + b for a, b in zip(potential, kinetic)])
    tau = [a - b for a, b in zip(u, _product(tgt.damping_gain.tolist(), y))]
    if not with_field:
        return tau
    return tau, hamiltonian_field(inverse(m.rows(p)), grad_v, grad_k,
                                  m.rows(sys.damping(q)), _product(g, tau)), pt


def ida_pbc_control_raw(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray,
                        p: np.ndarray, damping_mode: str = "linear", *, with_field: bool = False):
    """IDA-PBC feedback at (q, p), the law that calling an `IdaPbcLaw` evaluates.

    Args:
        damping_mode: "linear" for -K_v G^T ptilde, "saturated" for
            -K_v tanh(G^T ptilde) applied elementwise.
        with_field: return (tau, field, ptilde) from the same evaluation, field
            being open_loop_field_raw(sys, q, p, tau) bit for bit.

    Raises:
        RankDeficientG: G(q) lost column rank.
        SingularMass / SingularMassD: mass matrices numerically singular.
    """
    _check_mode(damping_mode)
    if not with_field:
        return np.array(_law(sys, tgt, q, p, damping_mode, False))
    tau, field, pt = _law(sys, tgt, q, p, damping_mode, True)
    return np.array(tau), np.array(field), np.array(pt)


#: the law's plant and target callables: of q, or of (q, p) for the last two of each
_PLANT_FIELDS = ("mass_matrix", "potential_grad", "input_coupling", "damping", "kinetic_grad")
_TARGET_FIELDS = ("mass_d", "potential_d_grad", "kinetic_d_grad", "j2")


def _check_arrays(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray,
                  p: np.ndarray) -> None:
    """Raise TypeError naming the first of the law's callables whose output at
    (q, p) is not a numpy array. One that raises is left to the law, which
    raises in its own order."""
    for owner, names in ((sys, _PLANT_FIELDS), (tgt, _TARGET_FIELDS)):
        for name in names:
            fn = getattr(owner, name)
            if fn is None:
                continue
            try:
                out = fn(q, p) if name in ("kinetic_grad", "kinetic_d_grad", "j2") else fn(q)
            except (ArithmeticError, ValueError, ToolkitError):
                continue
            if not isinstance(out, np.ndarray):
                raise TypeError(f"{name} returned {type(out).__name__}, not a numpy array")


#: (sys, tgt) weak references and generated law, by the identity of (sys, tgt), the
#: damping mode and K_v: laws of one design share one trace and compile
_GENERATED: dict = {}


def _generated_law(sys: MechanicalSystem, tgt: TargetDynamics, damping_mode: str):
    """The law of (sys, tgt) as one straight-line function (q0.., p0..) ->
    (tau, field, ptilde) entry tuples, or None where a guard fails or `math`
    raises; None in its place when a callable is not a formula or constant,
    n > 3, m > 2, or the formulas do not trace. Made once while sys and tgt
    live."""
    key = (id(sys), id(tgt), damping_mode, tgt.damping_gain.tobytes())
    made = _GENERATED.get(key)
    if made and made[0]() is sys and made[1]() is tgt:
        return made[2]
    callables = ([getattr(sys, f) for f in _PLANT_FIELDS]
                 + [getattr(tgt, f) for f in _TARGET_FIELDS])
    run = None
    if sys.n <= 3 and sys.m <= 2 and all(map(_traceable, callables)):
        try:
            run = traced._law_function(sys, tgt, damping_mode)
        except Exception:  # any failure to trace (a branch on a value, ...) keeps the law
            pass

    def forget(_):
        _GENERATED.pop(key, None)

    _GENERATED[key] = (weakref.ref(sys, forget), weakref.ref(tgt, forget), run)
    return run


def _same_bits(got: tuple, want: tuple) -> bool:
    return all(np.array(a).tobytes() == b.tobytes() for a, b in zip(got, want))


@dataclass(frozen=True)
class IdaPbcLaw:
    """The IDA-PBC law of (sys, tgt) as a controller (t, q, p) -> tau.

    Calling it is `ida_pbc_control_raw`. `evaluate(q, p)` (tau, field, ptilde),
    a law call, and `field(q, p)` each take one evaluation of M, M_d, grad_q V,
    grad_q K and G at (q, p); the field equals open_loop_field_raw(sys, q, p,
    law(t, q, p)) bit for bit. The three are array wrappers around `_fast`,
    which `simulate` calls on the state's float entries.

    When all nine callables are `plant_function` formulas or `constant`s,
    n <= 3 and m <= 2, the law is traced on expression nodes and compiled into
    one straight-line function (`_generated_law`, once per (sys, tgt)) when
    the law is made. The first evaluation checks that every callable returns
    a numpy array (TypeError naming it otherwise) and keeps the function if
    its outputs equal `ida_pbc_control_raw`'s at that point bit for bit. Later
    evaluations call it, and hand a point where it declines (a guard fails,
    `math` raises) to `ida_pbc_control_raw`, which raises as the law raises.
    """

    sys: MechanicalSystem
    tgt: TargetDynamics
    damping_mode: str = "linear"

    def __post_init__(self):
        _check_mode(self.damping_mode)
        # traced when made, before a run allocates its records; kept at the first evaluation
        object.__setattr__(self, "_candidate", _generated_law(self.sys, self.tgt, self.damping_mode))
        object.__setattr__(self, "_generated", None)

    def _fast(self, xs):
        """(tau, field, ptilde) entry tuples of the generated law at the state's entries
        `xs`, or a false value where the array methods answer (`_floats` decides the law)."""
        run = self._generated
        return run and run(*xs)

    def _floats(self, q: np.ndarray, p: np.ndarray):
        if self._generated is not None:  # no entry list on the reference path
            return self._generated and self._fast([*q.tolist(), *p.tolist()])
        _check_arrays(self.sys, self.tgt, q, p)
        run = self._candidate
        if run is None:
            object.__setattr__(self, "_generated", False)
            return None
        try:
            want = ida_pbc_control_raw(self.sys, self.tgt, q, p, self.damping_mode,
                                       with_field=True)
        except (ArithmeticError, ValueError, ToolkitError):
            return None  # undecided: the caller's reference evaluation raises or answers
        got = run(*q.tolist(), *p.tolist())
        same = got is not None and _same_bits(got, want)
        object.__setattr__(self, "_generated", run if same else False)
        return got if same else None

    def __call__(self, t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        out = self._floats(q, p)
        if out:
            return np.array(out[0])
        return ida_pbc_control_raw(self.sys, self.tgt, q, p, self.damping_mode)

    def evaluate(self, q: np.ndarray, p: np.ndarray):
        """(tau, field, ptilde) at (q, p), with ptilde = M_d^-1 p."""
        out = self._floats(q, p)
        if out:
            return np.array(out[0]), np.array(out[1]), np.array(out[2])
        return ida_pbc_control_raw(self.sys, self.tgt, q, p, self.damping_mode, with_field=True)

    def field(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(qdot, pdot) of the plant under the law at (q, p)."""
        out = self._floats(q, p)
        if out:
            return np.array(out[1])
        return np.array(_law(self.sys, self.tgt, q, p, self.damping_mode, True)[1])


@dataclass(frozen=True)
class TwoPhaseController:
    """Primary law in phase 1, secondary law in phase 2.

    A pure function of (t, q, p, phase). `simulate` holds the phase: it
    tests `switch_predicate` on accepted states only and moves to phase 2,
    for good, at the first state where it holds.
    """

    primary_law: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    switch_predicate: Callable[[np.ndarray, np.ndarray], bool]
    secondary_law: Callable[[float, np.ndarray, np.ndarray], np.ndarray]

    def control(self, t: float, q: np.ndarray, p: np.ndarray, phase: int) -> np.ndarray:
        """tau of the law that rules `phase` (1: primary, 2: secondary)."""
        if phase == 2:
            return self.secondary_law(t, q, p)
        return np.asarray(self.primary_law(t, q, p), dtype=float)
