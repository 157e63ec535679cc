"""Numerical verification of the IDA-PBC matching conditions.

A candidate target design (M_d, V_d, J_2) is achievable exactly when the
kinetic and potential matching PDEs hold on the unactuated directions:

    Gperp { grad_q(p^T M^-1 p) - M_d M^-1 grad_q(p^T M_d^-1 p)
            + 2 J_2 M_d^-1 p } = 0
    Gperp { grad_q V - M_d M^-1 grad_q V_d } = 0

with Gperp a left annihilator of G. This module evaluates those residuals
on deterministic sample sweeps, assembles the closed-loop damping matrix

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

import numpy as np

from .controller import TargetDynamics, kinetic_d_grad, mass_d_solve, ptilde
from .phcore import (
    ConfigState,
    MechanicalSystem,
    fd_hessian,
    kinetic_energy_grad,
    mass_solve,
)
from .sampling import Box, ball_sample

EQUILIBRIUM_GRAD_TOL = 1e-8


def annihilator(sys: MechanicalSystem, q: np.ndarray) -> np.ndarray:
    """Orthonormal left annihilator Gperp(q), shape (n - m, n).

    Uses the system's closed-form annihilator when supplied, otherwise the
    left null space of G(q) from an SVD. Rows satisfy Gperp G = 0 and
    Gperp Gperp^T = I.
    """
    if sys.annihilator is not None:
        return np.atleast_2d(np.asarray(sys.annihilator(q), dtype=float))
    g = np.asarray(sys.input_coupling(q), dtype=float)
    u, _, _ = np.linalg.svd(g, full_matrices=True)
    return u[:, sys.m :].T


def kinetic_pde_residual(
    sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """Residual of the kinetic matching PDE at (q, p), an (n-m,) vector."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    gperp = annihilator(sys, q)
    if gperp.shape[0] == 0:
        return np.zeros(0)
    md = tgt.mass_d(q)
    pt = mass_d_solve(tgt, q, p)
    expr = (
        2.0 * kinetic_energy_grad(sys, q, p)
        - md @ mass_solve(sys, q, 2.0 * kinetic_d_grad(tgt, q, p))
        + 2.0 * tgt.j2(q, pt) @ pt
    )
    return gperp @ expr


def potential_pde_residual(
    sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray
) -> np.ndarray:
    """Residual of the potential matching PDE at q, an (n-m,) vector."""
    q = np.asarray(q, dtype=float)
    gperp = annihilator(sys, q)
    if gperp.shape[0] == 0:
        return np.zeros(0)
    md = tgt.mass_d(q)
    expr = np.asarray(sys.potential_grad(q), dtype=float) - md @ mass_solve(
        sys, q, np.asarray(tgt.potential_d_grad(q), dtype=float)
    )
    return gperp @ expr


def damping_transfer(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray) -> np.ndarray:
    """R M^-1 M_d at q, the damping transfer of the matching conditions."""
    return np.asarray(sys.damping(q), dtype=float) @ mass_solve(sys, q, tgt.mass_d(q))


def build_r2(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray) -> np.ndarray:
    """Closed-loop damping matrix R_2(q), symmetrized after assembly."""
    q = np.asarray(q, dtype=float)
    g = np.asarray(sys.input_coupling(q), dtype=float)
    rm_inv_md = damping_transfer(sys, tgt, q)
    r2 = 0.5 * (rm_inv_md + rm_inv_md.T) + g @ tgt.damping_gain @ g.T
    return 0.5 * (r2 + r2.T)


def damping_skew(sys: MechanicalSystem, tgt: TargetDynamics, q: np.ndarray) -> np.ndarray:
    """J_R = 1/2 (M_d M^-1 R - R M^-1 M_d), the skew part of the damping transfer."""
    rm_inv_md = damping_transfer(sys, tgt, q)
    return 0.5 * (rm_inv_md.T - rm_inv_md)


def closed_loop_vector_field(
    sys: MechanicalSystem, tgt: TargetDynamics, s: ConfigState
) -> np.ndarray:
    """(qdot, pdot) of the target closed loop, as a 2n vector.

    qdot uses the identity M^-1 M_d grad_p H_d = M^-1 p; pdot is
    -M_d M^-1 grad_q H_d + (J_2 + J_R - R_2) ptilde with J_R the
    damping-transfer skew term (see module docstring).
    """
    q, p = s.q, s.p
    qdot = mass_solve(sys, q, p)
    pt = ptilde(tgt, q, p)
    grad_hd = np.asarray(tgt.potential_d_grad(q), dtype=float) + kinetic_d_grad(tgt, q, p)
    md = tgt.mass_d(q)
    interconnection = tgt.j2(q, pt) + damping_skew(sys, tgt, q) - build_r2(sys, tgt, q)
    pdot = -md @ mass_solve(sys, q, grad_hd) + interconnection @ pt
    return np.concatenate([qdot, pdot])


def hd_rate(sys: MechanicalSystem, tgt: TargetDynamics, s: ConfigState) -> float:
    """-ptilde^T R_2 ptilde, the closed-loop energy rate under linear damping."""
    pt = ptilde(tgt, s.q, s.p)
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
    grad = np.asarray(tgt.potential_d_grad(tgt.equilibrium), dtype=float)
    if np.linalg.norm(grad) >= EQUILIBRIUM_GRAD_TOL:
        return False
    hess = fd_hessian(tgt.potential_d, tgt.equilibrium)
    return bool(np.min(np.linalg.eigvalsh(0.5 * (hess + hess.T))) > 0.0)


def verify_matching(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    samples: int = 1000,
    momentum_cap: float = 2.0,
    region: Box | None = None,
) -> MatchingReport:
    """Sweep residuals, R_2 spectra, and the equilibrium over a sample set.

    Sampling is a deterministic low-discrepancy sequence over
    region x {momentum ball of radius momentum_cap}.
    """
    box = region if region is not None else sys.workspace
    qs = box.sample(samples)
    ps = ball_sample(samples, sys.n, momentum_cap, skip=samples)
    kin_max = 0.0
    pot_max = 0.0
    r2_min = np.inf
    cond5_min = np.inf
    for q, p in zip(qs, ps):
        kin = kinetic_pde_residual(sys, tgt, q, p)
        pot = potential_pde_residual(sys, tgt, q)
        if kin.size:
            kin_max = max(kin_max, float(np.linalg.norm(kin)))
            pot_max = max(pot_max, float(np.linalg.norm(pot)))
        r2_min = min(r2_min, float(np.min(np.linalg.eigvalsh(build_r2(sys, tgt, q)))))
        gperp = annihilator(sys, q)
        if gperp.shape[0]:
            sym = damping_transfer(sys, tgt, q)
            sym = sym + sym.T
            cond5 = gperp @ sym @ gperp.T
            cond5_min = min(cond5_min, float(np.min(np.linalg.eigvalsh(cond5))))
    return MatchingReport(
        kinetic_residual_max=kin_max,
        potential_residual_max=pot_max,
        r2_min_eig=float(r2_min),
        condition5_min_eig=float(cond5_min) if np.isfinite(cond5_min) else 0.0,
        equilibrium_ok=equilibrium_check(tgt),
        samples=samples,
    )
