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
first. The matrix-vector products are numpy `.dot`, the same BLAS gemv as `@`
at half its call cost: BLAS rounds them with fused multiply-adds, so a Python
sum of products would differ in the last bit. Everything elementwise (the two
parts of the shaping vector and their sum, tau = pinv(G) v - K_v y, and the
field (qdot, pdot) of `hamiltonian_field`) is in Python floats, associated as
the numpy expressions of the formulas above, each operation rounded as numpy
rounds it, so every value is that of the numpy expression bit for bit.

`IdaPbcLaw` is the law as a controller (t, q, p) -> tau whose `evaluate` and
`field` return the plant's closed-loop field from the law's own plant
evaluation; `simulate` takes them at accepted states and interior RK4 stages.

Controllers are pure functions of the state, so one instance can serve any
number of simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

import numpy as np

from .errors import RankDeficientG, SingularMass, SingularMassD
from .phcore import (
    ConfigState,
    EnergyRecord,
    MechanicalSystem,
    fd_gradient,
    hamiltonian_field,
    kinetic_energy_grad,
)
from .smalllinalg import _inverse_checked, smallest_singular_value, solve_checked

SIGMA_MIN_LIMIT = 1e-9


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


def _rank_guard(sigma: float) -> None:
    if not SIGMA_MIN_LIMIT <= sigma < math.inf:
        raise RankDeficientG("smallest singular value of G below 1e-9 or not finite")


def pseudo_inverse_apply(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(G^T G)^-1 G^T v = R^-1 Q^T v from a thin QR factorization G = Q R.

    Raises RankDeficientG when sigma_min(G) is below 1e-9 or not finite (a NaN
    or infinite entry of G), before the division it guards. For m = 2 the guard
    reads sigma_min off the factorization, r11 and then det R / sigma_max(R),
    without a second pass over G; otherwise it is `smallest_singular_value`,
    for m = 1 the root of the divisor g^T g. m = 1 is g^T v / g^T g. For m = 2,
    Q = [q1, w / r22] comes from Gram-Schmidt with one reorthogonalization, in
    Python floats with fsum dot products: as accurate as Householder QR, where
    the adjugate of G^T G loses accuracy with cond(G)^2. Larger m uses numpy's
    QR.
    """
    m = g.shape[1]
    if m == 2:
        (a, b), v = g.T.tolist(), v.tolist()
        r11 = math.sqrt(math.fsum(map(mul, a, a)))
        _rank_guard(r11)  # sigma_min <= r11
        q1 = [x / r11 for x in a]
        r12 = math.fsum(map(mul, q1, b))
        w = [y - r12 * x for x, y in zip(q1, b)]
        c = math.fsum(map(mul, q1, w))
        r12 += c
        w = [y - c * x for x, y in zip(q1, w)]
        r22 = math.sqrt(math.fsum(map(mul, w, w)))
        s, d = r11 + r22, r11 - r22
        sigma_max = 0.5 * (math.sqrt(s * s + r12 * r12) + math.sqrt(d * d + r12 * r12))
        _rank_guard(r11 * r22 / sigma_max)
        y1 = math.fsum(map(mul, q1, v))
        y2 = math.fsum(x / r22 * (y - y1 * z) for x, y, z in zip(w, v, q1))
        x2 = y2 / r22
        return np.array([(y1 - r12 * x2) / r11, x2])
    _rank_guard(smallest_singular_value(g))
    if m == 1:
        col = g[:, 0]
        return np.array([float(col.dot(v)) / float(col.dot(col))])
    qmat, rmat = np.linalg.qr(g)
    return np.linalg.solve(rmat, qmat.T @ v)


def _shaping(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray, p: np.ndarray):
    """(M^-1, grad_q V, grad_q K, potential, kinetic, ptilde) at (q, p): the two
    parts of the shaping vector from one factorization of M, as float lists.

    ptilde = M_d^-1 p is solved first, so a singular M_d raises SingularMassD
    before M is looked at; M is factorized and guarded after grad_q V_d is
    evaluated and before grad_q K. M^-1 maps a right-hand side's floats to
    those of M^-1 b. `matching._block_terms` is the same rule on blocks of
    points, with arrays and `@`.
    """
    mass = sys.mass_matrix(q)
    md = tgt.mass_d(q)
    pt = solve_checked(md, p, SingularMassD)
    grad_v = sys.potential_grad(q).tolist()
    grad_vd = tgt.potential_d_grad(q)
    inverse = _inverse_checked(mass, SingularMass)
    x = md.dot(inverse(grad_vd.tolist())).tolist()
    potential = [v - w for v, w in zip(grad_v, x)]
    grad_k = kinetic_energy_grad(sys, q, p).tolist()
    y = md.dot(inverse(kinetic_d_grad(tgt, q, p).tolist())).tolist()
    z = tgt.j2(q, pt).dot(pt).tolist()
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
    return np.array(potential), np.array(kinetic), pt


def _check_mode(damping_mode: str) -> None:
    if damping_mode not in ("linear", "saturated"):
        raise ValueError(f"unknown damping_mode {damping_mode!r}")


def _law(sys, tgt, q, p, damping_mode, with_field):
    """tau = pinv(G) (potential + kinetic) minus the damping on G^T ptilde, or
    with `with_field` (tau, (qdot, pdot) of the plant under tau, ptilde)."""
    inverse, grad_v, grad_k, potential, kinetic, pt = _shaping(sys, tgt, q, p)
    g = sys.input_coupling(q)
    y = g.T.dot(pt)
    if damping_mode == "saturated":
        # math.tanh per entry: np.tanh may differ in the last bit
        y = [math.tanh(yi) for yi in y.tolist()]
    u = pseudo_inverse_apply(g, np.array([a + b for a, b in zip(potential, kinetic)]))
    tau = np.array([a - b for a, b in zip(u.tolist(), tgt.damping_gain.dot(y).tolist())])
    if not with_field:
        return tau
    return tau, hamiltonian_field(inverse(p.tolist()), grad_v, grad_k, sys.damping(q),
                                  g.dot(tau)), pt


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
    return _law(sys, tgt, q, p, damping_mode, with_field)


@dataclass(frozen=True)
class IdaPbcLaw:
    """The IDA-PBC law of (sys, tgt) as a controller (t, q, p) -> tau.

    Calling it is `ida_pbc_control_raw`. `evaluate(q, p)` (tau, field, ptilde),
    a law call, and `field(q, p)` each take one evaluation of M, M_d, grad_q V,
    grad_q K and G at (q, p); the field equals open_loop_field_raw(sys, q, p,
    law(t, q, p)) bit for bit. `simulate` takes them at accepted states and
    interior RK4 stages.
    """

    sys: MechanicalSystem
    tgt: TargetDynamics
    damping_mode: str = "linear"

    def __post_init__(self):
        _check_mode(self.damping_mode)

    def __call__(self, t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        return ida_pbc_control_raw(self.sys, self.tgt, q, p, self.damping_mode)

    def evaluate(self, q: np.ndarray, p: np.ndarray):
        """(tau, field, ptilde) at (q, p), with ptilde = M_d^-1 p."""
        return ida_pbc_control_raw(self.sys, self.tgt, q, p, self.damping_mode, with_field=True)

    def field(self, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """(qdot, pdot) of the plant under the law at (q, p)."""
        return _law(self.sys, self.tgt, q, p, self.damping_mode, True)[1]


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
