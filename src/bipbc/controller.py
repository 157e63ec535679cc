"""IDA-PBC control law, bounded potential shaping, and two-phase control.

The energy-shaping feedback matches the plant to a target port-Hamiltonian
system with desired mass matrix M_d, desired potential V_d, interconnection
J_2, and injected damping K_v:

    tau = (G^T G)^-1 G^T (grad_q V - M_d M^-1 grad_q V_d
                          + grad_q K - M_d M^-1 grad_q K_d + J_2 ptilde)
          - K_v G^T ptilde                 (linear damping)
    or    - K_v S(G^T ptilde)              (saturated damping, elementwise)

with ptilde = M_d^-1 p. The pseudo-inverse is evaluated through a QR
factorization; the damping term is applied after the projection, which is
algebraically identical because (G^T G)^-1 G^T G = I.

Controllers are immutable and shareable, except TwoPhaseController which
carries a one-shot phase latch and is therefore confined to one simulation
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import RankDeficientG, SingularMass, SingularMassD
from .phcore import (
    ConfigState,
    EnergyRecord,
    MechanicalSystem,
    fd_gradient,
    kinetic_energy_grad,
)
from .smalllinalg import smallest_singular_value, solve_checked

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
        j2: (q, ptilde) -> (n, n) skew-symmetric, degree-1 homogeneous in
            ptilde.
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
    name: str = field(default="target")

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


def ptilde(tgt: TargetDynamics, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """ptilde = M_d(q)^-1 p."""
    return mass_d_solve(tgt, q, p)


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


@dataclass(frozen=True)
class SaturationFunction:
    """Scalar saturation S with S(0) = 0, |S| <= 1, strictly increasing.

    `antiderivative` is the primitive of S with value 0 at 0, used to build
    bounded homogeneous potential terms.
    """

    eval: Callable[[float], float]
    antiderivative: Callable[[float], float]
    slope_at_zero: float = 1.0


def tanh_saturation() -> SaturationFunction:
    """The shipped default: S = tanh, antiderivative ln(cosh)."""
    return SaturationFunction(eval=math.tanh, antiderivative=log_cosh, slope_at_zero=1.0)


@dataclass(frozen=True)
class ShapingTerm:
    """One bounded homogeneous shaping term k * int S(f - f*) df."""

    gain: float
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    value_at_star: float

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("shaping gain must be positive")


@dataclass(frozen=True)
class BoundedShaping:
    """Homogeneous part of V_d built from saturated shaping terms."""

    terms: Sequence[ShapingTerm]
    sat: SaturationFunction


def bounded_vdh(shaping: BoundedShaping, q: np.ndarray):
    """Value and per-term gradient contributions of the bounded V_dh.

    The i-th gradient contribution is k_i * S(f_i(q) - f_i*) * grad f_i(q),
    so its magnitude never exceeds k_i * ||grad f_i(q)||.

    Returns:
        (value, contributions): total value and a list of n-vectors.
    """
    q = np.asarray(q, dtype=float)
    value = 0.0
    contributions = []
    for term in shaping.terms:
        offset = term.value(q) - term.value_at_star
        value += term.gain * shaping.sat.antiderivative(offset)
        contributions.append(
            term.gain * shaping.sat.eval(offset) * np.asarray(term.grad(q), dtype=float)
        )
    return value, contributions


def pseudo_inverse_apply(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(G^T G)^-1 G^T v through QR, guarding against rank loss."""
    if smallest_singular_value(g) < SIGMA_MIN_LIMIT:
        raise RankDeficientG("smallest singular value of G below 1e-9")
    if g.shape[1] == 1:
        col = g[:, 0]
        return np.array([float(col @ v) / float(col @ col)])
    qmat, rmat = np.linalg.qr(g)
    return np.linalg.solve(rmat, qmat.T @ v)


def ida_pbc_control_raw(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    q: np.ndarray,
    p: np.ndarray,
    damping_mode: str = "linear",
    saturation: Optional[SaturationFunction] = None,
) -> np.ndarray:
    """IDA-PBC feedback on raw arrays; the hot path behind ida_pbc_control."""
    if damping_mode not in ("linear", "saturated"):
        raise ValueError(f"unknown damping_mode {damping_mode!r}")
    g = sys.input_coupling(q)
    mass = sys.mass_matrix(q)
    md = tgt.mass_d(q)

    grad_v = sys.potential_grad(q)
    grad_vd = tgt.potential_d_grad(q)
    terms = grad_v - md @ solve_checked(mass, grad_vd, SingularMass)
    if not np.any(p):
        # p = 0: kinetic and damping terms vanish exactly
        return pseudo_inverse_apply(g, terms)
    pt = solve_checked(md, p, SingularMassD)
    terms = (
        terms
        + kinetic_energy_grad(sys, q, p)
        - md @ solve_checked(mass, kinetic_d_grad(tgt, q, p), SingularMass)
        + tgt.j2(q, pt) @ pt
    )
    tau = pseudo_inverse_apply(g, terms)
    y = g.T @ pt
    if damping_mode == "saturated":
        sat = saturation or tanh_saturation()
        return tau - tgt.damping_gain @ np.array([sat.eval(yi) for yi in y])
    return tau - tgt.damping_gain @ y


def ida_pbc_control(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    s: ConfigState,
    damping_mode: str = "linear",
    saturation: Optional[SaturationFunction] = None,
) -> np.ndarray:
    """Evaluate the IDA-PBC feedback at a state.

    Args:
        damping_mode: "linear" for -K_v G^T ptilde, "saturated" for
            -K_v S(G^T ptilde) applied elementwise.
        saturation: saturation function for the saturated mode (default tanh).

    Raises:
        RankDeficientG: G(q) lost column rank.
        SingularMass / SingularMassD: mass matrices numerically singular.
    """
    return ida_pbc_control_raw(sys, tgt, s.q, s.p, damping_mode, saturation)


@dataclass
class TwoPhaseController:
    """Primary hand-designed law until a one-shot switch, then IDA-PBC.

    The switch predicate is evaluated on the current state only; once it
    fires the controller stays in the secondary phase forever and records
    the switch time for downstream H_d(t0) certificates. The latch makes an
    instance stateful: confine it to a single simulation.
    """

    primary_law: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    switch_predicate: Callable[[np.ndarray, np.ndarray], bool]
    sys: MechanicalSystem
    target: TargetDynamics
    damping_mode: str = "saturated"
    saturation: Optional[SaturationFunction] = None
    switched: bool = field(default=False)
    switch_time: Optional[float] = field(default=None)
    switch_state: Optional[ConfigState] = field(default=None)

    @property
    def phase(self) -> int:
        return 2 if self.switched else 1

    def __call__(self, t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
        tau, _ = self.control(t, q, p)
        return tau

    def control(self, t: float, q: np.ndarray, p: np.ndarray):
        """Return (tau, phase) at time t, latching the switch if due."""
        if not self.switched and self.switch_predicate(q, p):
            self.switched = True
            self.switch_time = t
            self.switch_state = ConfigState(q=q.copy(), p=p.copy())
        if self.switched:
            tau = ida_pbc_control_raw(
                self.sys,
                self.target,
                q,
                p,
                damping_mode=self.damping_mode,
                saturation=self.saturation,
            )
            return tau, 2
        return np.asarray(self.primary_law(t, q, p), dtype=float), 1

    def reset(self):
        self.switched = False
        self.switch_time = None
        self.switch_state = None
