"""Numerical verification of the IDA-PBC matching conditions.

A candidate target design (M_d, V_d, J_2) is achievable exactly when the
kinetic and potential matching PDEs hold on the unactuated directions:

    Gperp { grad_q(p^T M^-1 p) - M_d M^-1 grad_q(p^T M_d^-1 p)
            + 2 J_2 M_d^-1 p } = 0
    Gperp { grad_q V - M_d M^-1 grad_q V_d } = 0

with Gperp a left annihilator of G. The bracketed vectors are twice the
kinetic part and the potential part of `controller.matching_terms`, whose
sum the IDA-PBC law pulls back through pinv(G): the residuals are Gperp
applied to those parts. This module evaluates them on deterministic sample
sweeps, assembles the closed-loop damping matrix

    R_2 = 1/2 (R M^-1 M_d + M_d M^-1 R) + G K_v G^T,

checks the positivity condition Gperp (R M^-1 M_d + M_d M^-1 R) Gperp^T > 0,
and exposes the closed-loop vector field.

Note on physical damping: only the symmetric part of the damping transfer
R M^-1 M_d enters R_2; the skew remainder
J_R = 1/2 (M_d M^-1 R - R M^-1 M_d) lands in the interconnection, where it
cancels out of the energy rate. The closed-loop field here includes J_R so
that, whenever the two PDE residuals vanish, it coincides exactly with the
open-loop field driven by the IDA-PBC law. The energy identity
Hd_dot = -ptilde^T R_2 ptilde holds either way because skew terms drop out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .controller import (
    _COLUMNS, TargetDynamics, _momentum_grads, _shaping, kinetic_d_grad, mass_d_solve,
    matching_terms)
from .phcore import ConfigState, MechanicalSystem, fd_hessian, mass_solve
from .sampling import Box, ball_sample
from .stacking import _blocks, _eigvalsh, _fold, _matvec, _norms, _stack, _swap

EQUILIBRIUM_GRAD_TOL = 1e-8
MATCHING_MOMENTUM_CAP = 2.0  # radius of the momentum ball of `verify_matching`


def annihilator(sys: MechanicalSystem, q: np.ndarray) -> np.ndarray:
    """Orthonormal left annihilator Gperp(q), shape (n - m, n).

    Uses the system's closed-form annihilator when supplied, otherwise the
    left null space of G(q) from an SVD, C-contiguous so that products with
    it round as the sweeps' do. Rows satisfy Gperp G = 0 and Gperp Gperp^T = I.
    """
    if sys.annihilator is not None:
        return np.atleast_2d(np.asarray(sys.annihilator(q), dtype=float))
    g = np.asarray(sys.input_coupling(q), dtype=float)
    u, _, _ = np.linalg.svd(g, full_matrices=True)
    return np.ascontiguousarray(u[:, sys.m :].T)


def kinetic_pde_residual(
    sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Residual of the kinetic matching PDE at (q, p), an (n-m,) vector."""
    q = np.asarray(q, dtype=float)
    _, kinetic, _ = matching_terms(sys, tgt, q, np.asarray(p, dtype=float))
    return annihilator(sys, q) @ (2.0 * kinetic)


def potential_pde_residual(
    sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray
) -> np.ndarray:
    """Residual of the potential matching PDE at q, an (n-m,) vector."""
    q = np.asarray(q, dtype=float)
    potential, _, _ = matching_terms(sys, tgt, q, np.zeros_like(q))
    return annihilator(sys, q) @ potential


def damping_transfer(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray) -> np.ndarray:
    """R M^-1 M_d at q, the damping transfer of the matching conditions."""
    return np.asarray(sys.damping(q), dtype=float) @ mass_solve(sys, q, tgt.mass_d(q))


def _transfers(sys: MechanicalSystem, qs: np.ndarray, inverse: Callable,
               md: np.ndarray) -> np.ndarray:
    """R M^-1 M_d at the points `qs` from the factorization `inverse` of their M
    (`controller._COLUMNS`) and their stacked M_d, each item `damping_transfer`
    bit for bit."""
    return _stack(sys.damping, qs) @ np.stack(inverse(list(np.swapaxes(md, 0, 1))), axis=1)


def _r2(transfer: np.ndarray, g: np.ndarray, damping_gain: np.ndarray) -> np.ndarray:
    """R_2 = sym(R M^-1 M_d) + G K_v G^T, symmetrized, at one point or over a stack."""
    r2 = 0.5 * (transfer + _swap(transfer)) + g @ damping_gain @ _swap(g)
    return 0.5 * (r2 + _swap(r2))


def build_r2(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray) -> np.ndarray:
    """Closed-loop damping matrix R_2(q), symmetrized after assembly."""
    q = np.asarray(q, dtype=float)
    g = np.asarray(sys.input_coupling(q), dtype=float)
    return _r2(damping_transfer(sys, tgt, q), g, tgt.damping_gain)


def closed_loop_vector_field(
    sys: MechanicalSystem, tgt: TargetDynamics, s: ConfigState
) -> np.ndarray:
    """(qdot, pdot) of the target closed loop, as a 2n vector.

    qdot uses the identity M^-1 M_d grad_p H_d = M^-1 p; pdot is
    -M_d M^-1 grad_q H_d + (J_2 + J_R - R_2) ptilde with
    J_R = 1/2 (M_d M^-1 R - R M^-1 M_d) the skew part of the damping
    transfer (see module docstring).
    """
    q, p = s.q, s.p
    qdot = mass_solve(sys, q, p)
    pt = mass_d_solve(tgt, q, p)
    grad_hd = np.asarray(tgt.potential_d_grad(q), dtype=float) + kinetic_d_grad(tgt, q, p)
    md = tgt.mass_d(q)
    transfer = damping_transfer(sys, tgt, q)
    g = np.asarray(sys.input_coupling(q), dtype=float)
    interconnection = (
        tgt.j2(q, pt) + 0.5 * (transfer.T - transfer) - _r2(transfer, g, tgt.damping_gain)
    )
    pdot = -md @ mass_solve(sys, q, grad_hd) + interconnection @ pt
    return np.concatenate([qdot, pdot])


def hd_rate(sys: MechanicalSystem, tgt: TargetDynamics, s: ConfigState) -> float:
    """-ptilde^T R_2 ptilde, the closed-loop energy rate under linear damping."""
    pt = mass_d_solve(tgt, s.q, s.p)
    return -float(pt @ build_r2(sys, tgt, s.q) @ pt)


@dataclass(frozen=True)
class MatchingReport:
    """Aggregate result of a matching verification sweep."""

    kinetic_residual_max: float
    potential_residual_max: float
    r2_min_eig: float
    condition5_min_eig: float
    equilibrium_ok: bool
    samples: int

    def passes(self, tol: float = 1e-6) -> bool:
        return (
            self.kinetic_residual_max < tol
            and self.potential_residual_max < tol
            and self.equilibrium_ok
        )


def equilibrium_check(tgt: TargetDynamics) -> bool:
    """grad V_d(q*) vanishes and the finite-difference Hessian is PD."""
    grad = _stack(tgt.potential_d_grad, tgt.equilibrium[None])[0]
    if np.linalg.norm(grad) >= EQUILIBRIUM_GRAD_TOL:
        return False
    hess = fd_hessian(tgt.potential_d, tgt.equilibrium)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (hess + hess.T))) > 0.0)


def _on_block(sys: MechanicalSystem, tgt: TargetDynamics, mass: np.ndarray,
              md: np.ndarray) -> tuple[SimpleNamespace, SimpleNamespace]:
    """(sys, tgt) as `controller._shaping` reads them on a block of points: M
    and M_d its stacks `mass` and `md`, each other callable stacked over the
    block by `_stack`."""
    k_grad, kd_grad = _momentum_grads(sys, tgt)
    return (SimpleNamespace(mass_matrix=lambda q: mass, kinetic_grad=partial(_stack, k_grad),
                            potential_grad=partial(_stack, sys.potential_grad)),
            SimpleNamespace(mass_d=lambda q: md, kinetic_d_grad=partial(_stack, kd_grad),
                            potential_d_grad=partial(_stack, tgt.potential_d_grad),
                            j2=partial(_stack, tgt.j2)))


def verify_matching(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    samples: int = 1000,
    *,
    region: Box | None = None,
) -> MatchingReport:
    """Sweep residuals, R_2 spectra, and the equilibrium over a sample set.

    Sampling is a deterministic low-discrepancy sequence over
    region x {momentum ball of radius MATCHING_MOMENTUM_CAP}. The samples are
    taken in blocks (see `bipbc.stacking`): the residuals are Gperp applied
    to the two parts of the shaping vector, which the law's own rule
    (`controller._shaping`) evaluates on the block's (B,) columns; its one
    guarded factorization of M also gives R M^-1 M_d, with one eigvalsh per
    block for R_2 and for condition 5. Every value equals that of the sample
    on its own.
    """
    box = region if region is not None else sys.workspace
    qs = box.sample(samples)
    ps = ball_sample(samples, sys.n, MATCHING_MOMENTUM_CAP, skip=samples)
    gperp_at = sys.annihilator if sys.annihilator is not None else partial(annihilator, sys)
    kin_max = pot_max = 0.0
    r2_min = cond5_min = np.inf
    for block in _blocks(samples):
        qb = qs[block]
        mass, md = _stack(sys.mass_matrix, qb), _stack(tgt.mass_d, qb)
        inverse, _, _, potential, kinetic, _ = _shaping(*_on_block(sys, tgt, mass, md), qb,
                                                        ps[block], _COLUMNS)
        transfer = _transfers(sys, qb, inverse, md)
        r2 = _r2(transfer, _stack(sys.input_coupling, qb), tgt.damping_gain)
        r2_min = _fold(min, r2_min, float(np.min(_eigvalsh(r2))))
        if sys.m == sys.n:
            continue
        gperp = _stack(gperp_at, qb).reshape(len(qb), sys.n - sys.m, sys.n)
        kinetic, potential = 2.0 * _COLUMNS.vec(kinetic), _COLUMNS.vec(potential)
        kin_max = _fold(max, kin_max, float(np.max(_norms(_matvec(gperp, kinetic)))))
        pot_max = _fold(max, pot_max, float(np.max(_norms(_matvec(gperp, potential)))))
        cond5 = gperp @ (transfer + _swap(transfer)) @ _swap(gperp)
        cond5_min = _fold(min, cond5_min, float(np.min(_eigvalsh(cond5))))
    return MatchingReport(
        kinetic_residual_max=kin_max,
        potential_residual_max=pot_max,
        r2_min_eig=float(r2_min),
        condition5_min_eig=0.0 if cond5_min == np.inf else cond5_min,
        equilibrium_ok=equilibrium_check(tgt),
        samples=samples,
    )
