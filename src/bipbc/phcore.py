"""Port-Hamiltonian plant model: domain types and energy evaluation.

A mechanical system is described in (q, p) coordinates with total energy
H(q, p) = 1/2 p^T M(q)^-1 p + V(q) and dynamics

    qdot = grad_p H = M(q)^-1 p
    pdot = -grad_q H - R(q) M(q)^-1 p + G(q) tau

where G maps the m actuator inputs into configuration-space forces and R is
the (positive semi-definite) natural damping. System definitions are plain
callables closing over their parameters; they are immutable after
construction and safe to share across threads. Every operation here is a
pure function of its arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import SingularMass
from .sampling import Box
from .smalllinalg import _product, solve_checked

#: relative step for central finite differences, with an absolute floor
FD_REL_STEP = 1e-6
FD_ABS_FLOOR = 1e-8
#: step of the central-difference Hessian of `fd_hessian`
FD_HESSIAN_STEP = 1e-4


@dataclass(frozen=True)
class ConfigState:
    """Point in phase space: generalized positions q and momenta p = M(q) qdot."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("state entries must be finite")


@dataclass(frozen=True)
class MechanicalSystem:
    """Open-loop plant: mass matrix, potential, input coupling, damping.

    Fields are callables of q (numpy vector in, numpy array out). Analytic
    gradients are optional; operations fall back to central finite
    differences when they are absent.

    Attributes:
        m: number of actuator inputs (m <= n).
        mass_matrix: q -> (n, n) symmetric positive definite M(q).
        potential: q -> scalar V(q).
        potential_grad: q -> (n,) grad_q V.
        input_coupling: q -> (n, m) G(q), full column rank on the workspace.
        damping: q -> (n, n) symmetric positive semi-definite R(q).
        workspace: box over which workspace suprema / eigen extremes are taken;
            its dimension is the number of degrees of freedom `n`.
        kinetic_grad: optional (q, p) -> grad_q K with K = 1/2 p^T M^-1 p.
        annihilator: optional q -> (n-m, n) left annihilator of G (rows span
            the left null space). When absent an SVD-based basis is used.
    """

    m: int
    mass_matrix: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], float]
    potential_grad: Callable[[np.ndarray], np.ndarray]
    input_coupling: Callable[[np.ndarray], np.ndarray]
    damping: Callable[[np.ndarray], np.ndarray]
    workspace: Box
    kinetic_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    annihilator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (0 < self.m <= self.n):
            raise ValueError("need 0 < m <= n")

    @property
    def n(self) -> int:
        """Degrees of freedom, the dimension of the workspace."""
        return self.workspace.dim


@dataclass(frozen=True)
class EnergyRecord:
    """Kinetic, potential, and total energy at a state."""

    kinetic: float
    potential: float
    total: float


def fd_gradient(f: Callable[[np.ndarray], float], q: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar function of q."""
    q = np.asarray(q, dtype=float)
    g = np.empty_like(q)
    for i in range(q.size):
        h = max(FD_REL_STEP * abs(q[i]), FD_ABS_FLOOR)
        qp = q.copy()
        qm = q.copy()
        qp[i] += h
        qm[i] -= h
        g[i] = (f(qp) - f(qm)) / (2.0 * h)
    return g


def fd_hessian(f: Callable[[np.ndarray], float], q: np.ndarray) -> np.ndarray:
    """Central-difference Hessian, used for equilibrium curvature checks."""
    h = FD_HESSIAN_STEP
    q = np.asarray(q, dtype=float)
    n = q.size
    hess = np.empty((n, n))
    f0 = f(q)
    for i in range(n):
        for j in range(i, n):
            qpp = q.copy()
            qpm = q.copy()
            qmp = q.copy()
            qmm = q.copy()
            if i == j:
                qpp[i] += h
                qmm[i] -= h
                hess[i, i] = (f(qpp) - 2.0 * f0 + f(qmm)) / h**2
            else:
                qpp[[i, j]] += h
                qmm[[i, j]] -= h
                qpm[i] += h
                qpm[j] -= h
                qmp[i] -= h
                qmp[j] += h
                hess[i, j] = hess[j, i] = (f(qpp) - f(qpm) - f(qmp) + f(qmm)) / (4.0 * h**2)
    return hess


def mass_solve(sys: MechanicalSystem, q: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M(q)^-1 rhs via a linear solve (never an explicit inverse)."""
    return solve_checked(sys.mass_matrix(q), rhs, SingularMass)


def kinetic_energy(sys: MechanicalSystem, q: np.ndarray, p: np.ndarray) -> float:
    return 0.5 * float(p @ mass_solve(sys, q, p))


def kinetic_energy_grad(sys: MechanicalSystem, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """grad_q K with K = 1/2 p^T M(q)^-1 p; analytic when supplied, else FD."""
    if sys.kinetic_grad is not None:
        return np.asarray(sys.kinetic_grad(q, p), dtype=float)
    return fd_gradient(lambda qq: kinetic_energy(sys, qq, p), q)


def total_energy(sys: MechanicalSystem, s: ConfigState) -> EnergyRecord:
    """Total energy H = K + V at a state.

    The kinetic part is computed through a linear solve against M(q).

    Raises:
        SingularMass: if M(q) has condition estimate above 1e12.
    """
    k = kinetic_energy(sys, s.q, s.p)
    v = float(sys.potential(s.q))
    return EnergyRecord(kinetic=k, potential=v, total=k + v)


def open_loop_field_raw(
    sys: MechanicalSystem, q: np.ndarray, p: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """(qdot, pdot) of the open-loop plant under input tau, as a 2n vector.

    Arguments are not validated: tau must have length m. The simulation inner
    loop lives here.
    """
    qdot = solve_checked(sys.mass_matrix(q), p, SingularMass).tolist()
    grad_v = sys.potential_grad(q).tolist()
    grad_k = kinetic_energy_grad(sys, q, p).tolist()
    damping = sys.damping(q).tolist()
    force = _product(sys.input_coupling(q).tolist(), np.asarray(tau, dtype=float).tolist())
    return np.array(hamiltonian_field(qdot, grad_v, grad_k, damping, force))


def hamiltonian_field(qdot: list, grad_v: list, grad_k: list, damping: list,
                      force: list) -> list:
    """(qdot, pdot) with pdot = -(grad_q V + grad_q K) - R qdot + G tau, given
    the entries of qdot = M^-1 p, grad_q V, grad_q K, R's rows and G tau.

    The one assembly of the field, for `open_loop_field_raw` and the IDA-PBC
    law, which takes qdot from the factorization of M it already holds. Every
    operation is a float operation in a fixed order (R qdot is a
    `smalllinalg._product`), so the same code runs on expression nodes.
    """
    pdot = [-(v + k) - r + f for v, k, r, f in zip(grad_v, grad_k, _product(damping, qdot),
                                                   force)]
    return qdot + pdot
