"""Certified momentum and control-effort bounds for IDA-PBC loops.

Starting from the closed-loop energy H_d as a Lyapunov function, the level
set {H_d <= H_d(t0)} traps the trajectory, which bounds the momenta:

    ||p||      <= sqrt(H_d(t0) / lam_min{M_d^-1})      = c_p1
    ||ptilde|| <= sqrt(H_d(t0) / lam_min{M_d})          = c_ptilde1

When R_2 is positive definite there are also ultimate bounds c_p2 and
c_ptilde2 driven by the dissipation rate. Each actuator's effort is then
bounded by summing the worst case of every term of the control law:

    |tau_i| <= c_V_i + c_Lambda_i c_Vd
               + (c_M_i + c_Lambda_i c_Md) c_p^2
               + c_J c_ptilde^2 + lam_max{K_v} c_ptilde

where the c_* constants dominate the gravity gradient, the desired-potential
gradient, the (quadratic-in-p) kinetic shaping terms, the interconnection
J_2, and the damping injection over the certification workspace. A more
conservative variant covers configuration-dependent G through
G_M >= ||(G^T G)^-1 G^T|| and G_m >= ||G||, and a minimum sigma of the
potential terms gives per-actuator lower bounds (tension-only actuators).

Constants are estimated by sampling the defining ratios over the declared
workspace box (plus its corners and center) and taking maxima, with a
configurable safety inflation on the suprema. Eigenvalue extremes are raw
per-sample extremes; this is a practical certificate, not interval
arithmetic, so the workspace declaration is part of the contract.

Every sampled sweep follows one rule: the plant and target callables are
called point by point, their outputs are stacked over a block of points, and
the linear algebra (inv, pinv, eigvalsh, 2-norms, matmul) runs once per
block on the stacks. Extremes are folded across blocks and violations are
summed. The block is bounded (`_BLOCK` points) because the per-direction
stacks of `estimate_constants` grow with points x directions; a whole-sweep
stack would cost tens of MB for no speed. Each batched operation is applied
item by item in the same order as on one point, so the results are those of
a point-by-point loop. All reports are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .controller import TargetDynamics, kinetic_d_grad, mass_d_solve, target_energy
from .errors import NonpositiveEigenvalue
from .matching import build_r2, damping_transfer
from .phcore import ConfigState, MechanicalSystem, kinetic_energy_grad
from .sampling import Box


def unit_input_rows(g: np.ndarray, tol: float = 1e-12) -> Optional[np.ndarray]:
    """Actuated-row indices when G is a permutation-selected [I_m; 0] block.

    Returns the row index carrying the 1 of each column, or None when G is
    not of that 0/1 unit structure.
    """
    g = np.asarray(g, dtype=float)
    rows = np.full(g.shape[1], -1, dtype=int)
    for j in range(g.shape[1]):
        col = g[:, j]
        ones = np.flatnonzero(np.abs(col - 1.0) <= tol)
        zeros = np.flatnonzero(np.abs(col) <= tol)
        if ones.size != 1 or ones.size + zeros.size != col.size:
            return None
        rows[j] = ones[0]
    if np.unique(rows).size != rows.size:
        return None
    return rows


#: Points per block of a sampled sweep (see the module docstring).
_BLOCK = 64


def _blocks(count: int):
    """Slices of at most `_BLOCK` consecutive points covering `count` points."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


def _stack(fn: Callable, *args: np.ndarray) -> np.ndarray:
    """`fn` called on the zipped rows of `args`, its outputs stacked on axis 0.

    Each output is copied into the stack as it comes, so no list of
    per-point arrays is held.
    """
    rows = zip(*args)
    first = np.asarray(fn(*next(rows)), dtype=float)
    out = np.empty((len(args[0]),) + first.shape)
    out[0] = first
    for i, row in enumerate(rows, start=1):
        out[i] = fn(*row)
    return out


def _stack_pairs(fn: Callable, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """`fn(q, p)` for each q of `qs` (B, n) and each p of its `ps` (B, K, n) row."""
    b, k, n = ps.shape
    out = _stack(fn, np.repeat(qs, k, axis=0), ps.reshape(b * k, n))
    return out.reshape((b, k) + out.shape[1:])


def _swap(a: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x over stacks, one matrix-vector product per item."""
    return (a @ x[..., None])[..., 0]


def _dots(x: np.ndarray) -> np.ndarray:
    """x @ x along the last axis, one vector dot product per item."""
    return (x[..., None, :] @ x[..., None])[..., 0, 0]


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, as np.linalg.norm of each vector.

    np.linalg.norm(x, axis=-1) sums the squares in another way and can
    differ from the per-vector norm in the last bit.
    """
    return np.sqrt(_dots(x))


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix of a stack."""
    return np.linalg.norm(a, 2, axis=(-2, -1))


def _shared_unit_rows(
    sys: MechanicalSystem, g_ref: np.ndarray, qs: np.ndarray
) -> Optional[np.ndarray]:
    """Unit-structure rows of `g_ref` when G(q) has them at every q of `qs`.

    A sweep takes one row convention for all its points: the actuated rows
    of `g_ref` (see `unit_input_rows`) only if each sampled G is that same
    0/1 matrix, else None, the general-G pull-back through pinv(G).
    """
    rows = unit_input_rows(g_ref)
    if rows is None:
        return None
    unit = np.zeros_like(g_ref)
    unit[rows, np.arange(rows.size)] = 1.0
    for block in _blocks(qs.shape[0]):
        if not np.all(np.abs(_stack(sys.input_coupling, qs[block]) - unit) <= 1e-12):
            return None
    return rows


class _PlantStack(NamedTuple):
    """Plant and target outputs at a block of points, stacked on axis 0."""

    grad_v: np.ndarray  # (B, n) grad_q V
    md: np.ndarray  # (B, n, n) M_d
    lam: np.ndarray  # (B, n, n) Lambda = M_d M^-1
    g: Optional[np.ndarray]  # (B, n, m) G, for the general-G pull-back
    pinv_g: Optional[np.ndarray]  # (B, m, n) pinv(G), likewise


def _plant_stack(
    sys: MechanicalSystem, tgt: TargetDynamics, qs: np.ndarray, general_g: bool
) -> _PlantStack:
    """Plant and target outputs at `qs`; G and pinv(G) only with `general_g`."""
    md = _stack(tgt.mass_d, qs)
    g = _stack(sys.input_coupling, qs) if general_g else None
    return _PlantStack(
        grad_v=_stack(sys.potential_grad, qs),
        md=md,
        lam=md @ np.linalg.inv(_stack(sys.mass_matrix, qs)),
        g=g,
        pinv_g=None if g is None else np.linalg.pinv(g),
    )


def actuated_terms(
    sys: MechanicalSystem,
    qs: np.ndarray,
    ps: np.ndarray,
    rows: Optional[np.ndarray],
    stack: _PlantStack,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-actuator magnitudes of the terms the effort bound dominates.

    At each point of `qs` (B, n) returns |grad_q V| (B, m), the row norms of
    Lambda = M_d M^-1 (B, m), and |grad_q K(q, p)| (B, K, m) for each of the
    K momenta of that point in `ps` (B, K, n). With `rows` (a unit-structure
    G, see `unit_input_rows`) these are the actuated rows; otherwise each
    term is pulled back through pinv(G(q)). `stack` is the `_plant_stack`
    of `qs`, which carries pinv(G) unless `rows` is given.
    """
    kinetic = _stack_pairs(partial(kinetic_energy_grad, sys), qs, ps)
    if rows is not None:
        return (
            np.abs(stack.grad_v[:, rows]),
            np.linalg.norm(stack.lam[:, rows], axis=2),
            np.abs(kinetic[:, :, rows]),
        )
    pinv_g = stack.pinv_g
    return (
        np.abs(_matvec(pinv_g, stack.grad_v)),
        np.linalg.norm(pinv_g @ stack.lam, axis=2),
        np.abs(_matvec(pinv_g[:, None], kinetic)),
    )


@dataclass(frozen=True)
class BoundConstants:
    """Workspace constants of the bounding assumptions.

    `c_V`, `c_M`, `c_Lambda`, `sigma` are per-actuator vectors. For plants
    whose G is a 0/1 unit-structure matrix they dominate the actuated rows
    of grad V, grad K, and M_d M^-1; for configuration-dependent G they
    dominate the same quantities pulled back through (G^T G)^-1 G^T (the
    form the general-G bound uses directly). `unit_structure` records which
    convention applies.
    """

    c_V: np.ndarray
    c_Vd: float
    c_M: np.ndarray
    c_Md: float
    c_J: float
    c_Lambda: np.ndarray
    lam_min_MdInv: float
    lam_max_MdInv: float
    lam_min_Md: float
    lam_max_Md: float
    lam_min_R2: float
    lam_max_Kv: float
    G_M: float
    G_m: float
    sigma: np.ndarray
    mu: float = 1e-6
    unit_structure: bool = True
    samples: int = 0

    def with_mu(self, mu: float) -> "BoundConstants":
        if mu <= 0:
            raise ValueError("mu must be positive")
        return replace(self, mu=mu)


def estimate_constants(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    samples: int = 1000,
    inflation: float = 1.05,
    mu: float = 1e-6,
    region: Box | None = None,
    vd_grad_region: Box | None = None,
) -> BoundConstants:
    """Estimate every bounding constant over the certification workspace.

    The kinetic-term and interconnection constants exploit homogeneity in p:
    grad_q K and grad_q K_d are quadratic in p and J_2 is linear in ptilde,
    so their defining ratios are evaluated on unit momenta only. Suprema get
    multiplied by `inflation` (grid maxima under-estimate the true suprema);
    eigenvalue extremes are reported raw. The unit-structure convention
    (`unit_structure`) holds only when G has the center's 0/1 rows at every
    sample; otherwise all terms are pulled back through pinv(G).

    Args:
        region: overrides the system workspace for all constants.
        vd_grad_region: separate region for the grad V_d supremum, for
            designs whose grad V_d is confined by a level-set argument to a
            smaller region than the full workspace.
    """
    box = region if region is not None else sys.workspace
    qs = np.vstack([box.sample(samples), box.corners(), box.center()[None, :]])
    n, m = sys.n, sys.m

    directions = _unit_directions(n, max(64, 8 * n))

    # decide the row convention up front so the whole sweep uses one of them
    rows = _shared_unit_rows(sys, np.asarray(sys.input_coupling(box.center()), dtype=float), qs)

    c_v = np.zeros(m)
    c_lam = np.zeros(m)
    c_m = np.zeros(m)
    c_md = 0.0
    c_j = 0.0
    g_cap = 0.0
    g_pinv_cap = 0.0
    sigma = np.full(m, np.inf)
    lam_min_md = np.inf
    lam_max_md = -np.inf
    lam_min_r2 = np.inf

    for block in _blocks(qs.shape[0]):
        qb = qs[block]
        stack = _plant_stack(sys, tgt, qb, general_g=True)
        grad_vd = _stack(tgt.potential_d_grad, qb)

        eigs = np.linalg.eigvalsh(0.5 * (stack.md + _swap(stack.md)))
        lam_min_md = min(lam_min_md, float(np.min(eigs[:, 0])))
        lam_max_md = max(lam_max_md, float(np.max(eigs[:, -1])))
        r2 = _stack(partial(build_r2, sys, tgt), qb)
        lam_min_r2 = min(lam_min_r2, float(np.min(np.linalg.eigvalsh(r2))))
        g_cap = max(g_cap, float(np.max(_spectral_norms(stack.g))))
        g_pinv_cap = max(g_pinv_cap, float(np.max(_spectral_norms(stack.pinv_g))))
        sigma_q = _matvec(stack.pinv_g, stack.grad_v - _matvec(stack.lam, grad_vd))
        sigma = np.minimum(sigma, np.min(sigma_q, axis=0))

        units = np.broadcast_to(directions, (qb.shape[0],) + directions.shape)
        v_q, lam_q, kinetic_q = actuated_terms(sys, qb, units, rows, stack)
        c_v = np.maximum(c_v, np.max(v_q, axis=0))
        c_lam = np.maximum(c_lam, np.max(lam_q, axis=0))
        c_m = np.maximum(c_m, np.max(kinetic_q, axis=(0, 1)))

        gkd = _stack_pairs(partial(kinetic_d_grad, tgt), qb, units)
        c_md = max(c_md, float(np.max(_norms(gkd))))
        c_j = max(c_j, float(np.max(_spectral_norms(_stack_pairs(tgt.j2, qb, units)))))

    c_vd = _sup_vd_grad(tgt, vd_grad_region if vd_grad_region is not None else box, samples)

    if lam_min_md <= 0:
        raise NonpositiveEigenvalue("M_d not positive definite on the workspace")

    kv = tgt.damping_gain
    lam_max_kv = float(np.max(np.linalg.eigvalsh(0.5 * (kv + kv.T))))

    return BoundConstants(
        c_V=inflation * c_v,
        c_Vd=inflation * c_vd,
        c_M=inflation * c_m,
        c_Md=inflation * c_md,
        c_J=inflation * c_j,
        c_Lambda=inflation * c_lam,
        lam_min_MdInv=1.0 / lam_max_md,
        lam_max_MdInv=1.0 / lam_min_md,
        lam_min_Md=lam_min_md,
        lam_max_Md=lam_max_md,
        lam_min_R2=float(lam_min_r2),
        lam_max_Kv=lam_max_kv,
        G_M=inflation * g_pinv_cap,
        G_m=inflation * g_cap,
        sigma=sigma,
        mu=mu,
        unit_structure=rows is not None,
        samples=int(qs.shape[0]),
    )


def _unit_directions(dim: int, count: int) -> np.ndarray:
    """Deterministic spread of unit vectors, axes included."""
    rng = np.random.default_rng(20250817)
    raw = rng.standard_normal((count, dim))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    return np.vstack([axes, raw])


def _sup_vd_grad(tgt: TargetDynamics, box: Box, samples: int) -> float:
    qs = np.vstack([box.sample(samples, skip=7 * samples), box.corners()])
    best = 0.0
    for block in _blocks(qs.shape[0]):
        best = max(best, float(np.max(_norms(_stack(tgt.potential_d_grad, qs[block])))))
    return best


def validate_constants(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    constants: BoundConstants,
    momentum_cap: float = 2.0,
    samples: int = 10_000,
    seed: int = 1,
    region: Box | None = None,
) -> int:
    """Brute-force recheck of the bounding inequalities on fresh samples.

    Draws a validation set disjoint from the estimation sweep and counts
    violations of

        |(grad_q K)_i| <= c_M_i ||p||^2,   ||grad_q K_d|| <= c_Md ||p||^2,
        ||J_2(q, ptilde)|| <= c_J ||ptilde||,   row bounds on Lambda,
        |(grad_q V)_i| <= c_V_i,   ||grad_q V_d|| <= c_Vd.

    Constants of unit-structure G are checked on the center's actuated rows
    only when every validation sample's G has those rows; otherwise each
    term is pulled back through pinv(G) at its sample.

    Returns the number of violating samples (0 means the certificate holds
    on the validation set).
    """
    box = region if region is not None else sys.workspace
    rng = np.random.default_rng(seed)
    qs = box.lower + rng.random((samples, sys.n)) * (box.upper - box.lower)
    ps = rng.standard_normal((samples, sys.n))
    ps *= (momentum_cap * rng.random((samples, 1)) ** (1.0 / sys.n)) / np.linalg.norm(
        ps, axis=1, keepdims=True
    )
    rows = None
    if constants.unit_structure:
        center_g = np.asarray(sys.input_coupling(box.center()), dtype=float)
        rows = _shared_unit_rows(sys, center_g, qs)
    tol = 1e-9
    bad = 0
    for block in _blocks(samples):
        qb, pb = qs[block], ps[block]
        stack = _plant_stack(sys, tgt, qb, general_g=rows is None)
        pn2 = _dots(pb)
        pt = _stack(partial(mass_d_solve, tgt), qb, pb)
        v_rows, lam_rows, gk_rows = actuated_terms(sys, qb, pb[:, None], rows, stack)
        gkd = _stack(partial(kinetic_d_grad, tgt), qb, pb)
        grad_vd = _stack(tgt.potential_d_grad, qb)
        j2_norms = _spectral_norms(_stack(tgt.j2, qb, pt))
        ok = (
            np.all(gk_rows[:, 0] <= constants.c_M * pn2[:, None] + tol, axis=1)
            & (_norms(gkd) <= constants.c_Md * pn2 + tol)
            & (j2_norms <= constants.c_J * _norms(pt) + tol)
            & np.all(lam_rows <= constants.c_Lambda + tol, axis=1)
            & np.all(v_rows <= constants.c_V + tol, axis=1)
            & (_norms(grad_vd) <= constants.c_Vd + tol)
        )
        bad += int(np.count_nonzero(~ok))
    return bad


#: The level-set argument K_d = p^T M_d^-1 p / 2 <= H_d(t0) yields
#: ||p|| <= sqrt(2 H_d(t0) / lam_min{M_d^-1}); the published arithmetic drops
#: the factor 2 and trajectories with a kinetic-heavy start can exceed the
#: factor-free value by up to sqrt(2). `momentum_bounds` reproduces the
#: published form; STRICT_FACTOR restores the complete bound for soundness
#: certification.
STRICT_FACTOR = math.sqrt(2.0)


def empirical_constants(sys: MechanicalSystem, tgt: TargetDynamics, traj) -> dict:
    """Maxima of the defining ratios along a simulated trajectory.

    A diagnostic counterpart to `estimate_constants`: instead of the
    declared workspace box, the supremum region is the set of states the
    closed loop actually visited. Useful for judging how conservative the
    workspace certificate is, and for reproducing constants that were
    quoted for a specific run rather than for a region. The actuated rows
    of G(q*) are used only when G has them at every visited state.
    """
    qs = np.asarray(traj.q, dtype=float)
    ps = np.asarray(traj.p, dtype=float)
    rows = _shared_unit_rows(
        sys, np.asarray(sys.input_coupling(tgt.equilibrium), dtype=float), qs
    )
    m = sys.m
    out = {
        "c_V": np.zeros(m),
        "c_Vd": 0.0,
        "c_M": np.zeros(m),
        "c_Md": 0.0,
        "c_J": 0.0,
        "c_Lambda": np.zeros(m),
        "p_norm_max": float(np.max(traj.p_norm)),
        "ptilde_norm_max": float(np.nanmax(traj.ptilde_norm)),
    }
    for block in _blocks(qs.shape[0]):
        qb, pb = qs[block], ps[block]
        stack = _plant_stack(sys, tgt, qb, general_g=rows is None)
        grad_vd = _stack(tgt.potential_d_grad, qb)
        v_q, lam_q, kinetic_q = actuated_terms(sys, qb, pb[:, None], rows, stack)
        out["c_V"] = np.maximum(out["c_V"], np.max(v_q, axis=0))
        out["c_Lambda"] = np.maximum(out["c_Lambda"], np.max(lam_q, axis=0))
        out["c_Vd"] = max(out["c_Vd"], float(np.max(_norms(grad_vd))))
        pn2 = _dots(pb)
        moving = pn2 > 1e-12
        if not np.any(moving):
            continue
        qm, pm, pn2 = qb[moving], pb[moving], pn2[moving]
        gkd = _stack(partial(kinetic_d_grad, tgt), qm, pm)
        pt = _stack(partial(mass_d_solve, tgt), qm, pm)
        ptn = _norms(pt)
        out["c_M"] = np.maximum(out["c_M"], np.max(kinetic_q[moving, 0] / pn2[:, None], axis=0))
        out["c_Md"] = max(out["c_Md"], float(np.max(_norms(gkd) / pn2)))
        turning = ptn > 1e-9
        if np.any(turning):
            j2_norms = _spectral_norms(_stack(tgt.j2, qm[turning], pt[turning]))
            out["c_J"] = max(out["c_J"], float(np.max(j2_norms / ptn[turning])))
    return out


def momentum_bounds(constants: BoundConstants, hd_t0: float) -> Tuple[float, float]:
    """Level-set momentum bounds (c_p1, c_ptilde1) from H_d(t0), as published.

    Raises:
        NonpositiveEigenvalue: a required eigenvalue extreme is <= 0.
    """
    if hd_t0 < 0:
        raise ValueError("hd_t0 must be nonnegative")
    if constants.lam_min_MdInv <= 0 or constants.lam_min_Md <= 0:
        raise NonpositiveEigenvalue("momentum bounds need positive lam_min extremes")
    c_p1 = math.sqrt(hd_t0 / constants.lam_min_MdInv)
    c_pt1 = math.sqrt(hd_t0 / constants.lam_min_Md)
    return c_p1, c_pt1


def ultimate_bounds(constants: BoundConstants) -> Optional[Tuple[float, float]]:
    """Dissipation-driven ultimate bounds (c_p2, c_ptilde2).

    Returns None when lam_min{R_2} <= 0 on the workspace (the positivity
    condition fails and this part of the certificate is not applicable).
    """
    if constants.lam_min_R2 <= 0:
        return None
    li, la = constants.lam_min_MdInv, constants.lam_max_MdInv
    c_p2 = math.sqrt(la / li) * constants.c_Vd * la / (li**2 * constants.lam_min_R2 + constants.mu)
    c_pt2 = (
        math.sqrt(constants.lam_max_Md / constants.lam_min_Md)
        * constants.c_Vd
        / (constants.lam_min_R2 + constants.mu)
    )
    return c_p2, c_pt2


def _select(level_set: float, ultimate: Optional[float], start_norm: float) -> float:
    """The ultimate bound tightens the level-set one for starts already inside it."""
    if ultimate is not None and start_norm <= ultimate:
        return min(level_set, ultimate)
    return level_set


def control_upper_bound(
    constants: BoundConstants, c_p: float, c_ptilde: float
) -> np.ndarray:
    """Per-actuator effort bound for unit-structure G (the sharp form)."""
    return (
        constants.c_V
        + constants.c_Lambda * constants.c_Vd
        + (constants.c_M + constants.c_Lambda * constants.c_Md) * c_p**2
        + constants.c_J * c_ptilde**2
        + constants.lam_max_Kv * c_ptilde
    )


def control_bound_general_g(
    constants: BoundConstants, c_p: float, c_ptilde: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Conservative (upper, lower) effort bounds for configuration-dependent G.

    upper_i = G_M (c_V_i + c_Lambda_i c_Vd + (c_M_i + c_Lambda_i c_Md) c_p^2
                   + c_J c_ptilde^2) + G_m lam_max{K_v} c_ptilde
    lower_i = sigma_i - G_M ((c_M_i + c_Lambda_i c_Md) c_p^2 + c_J c_ptilde^2)
                   - G_m lam_max{K_v} c_ptilde

    A positive lower bound certifies tension-only feasibility (cable robots).
    """
    kinetic = (constants.c_M + constants.c_Lambda * constants.c_Md) * c_p**2
    damping = constants.G_m * constants.lam_max_Kv * c_ptilde
    upper = (
        constants.G_M
        * (constants.c_V + constants.c_Lambda * constants.c_Vd + kinetic + constants.c_J * c_ptilde**2)
        + damping
    )
    lower = constants.sigma - constants.G_M * (kinetic + constants.c_J * c_ptilde**2) - damping
    return upper, lower


@dataclass(frozen=True)
class BoundReport:
    """Certified momentum and per-actuator control bounds.

    `c_p1` / `c_p` follow the published factor-free arithmetic; the
    `*_strict` fields carry the complete level-set bounds (sqrt(2) larger on
    the level-set branch) that every trajectory provably respects.
    `tau_center` shifts the control certificate: the guarantee is
    |tau_i - tau_center_i| <= tau_upper_i (nonzero for designs that carry a
    constant feedforward such as gravity compensation). `tau_upper_strict`
    is the same certificate evaluated at the strict momentum bounds.
    """

    c_p1: float
    c_ptilde1: float
    c_p2: Optional[float]
    c_ptilde2: Optional[float]
    c_p: float
    c_ptilde: float
    c_p_strict: float
    c_ptilde_strict: float
    tau_upper: np.ndarray
    tau_lower: Optional[np.ndarray]
    tau_center: np.ndarray
    tau_upper_strict: np.ndarray
    hd_t0: float


def bound_report(
    constants: BoundConstants,
    hd_t0: float,
    p0_norm: float = 0.0,
    ptilde0_norm: float = 0.0,
    effort: Optional[Callable[[float, float], tuple]] = None,
    tau_center: Optional[np.ndarray] = None,
) -> BoundReport:
    """Assemble the full certificate for a run starting at energy hd_t0.

    The selection rule picks each momentum bound: the level-set bound, or
    min(level set, ultimate) when the ultimate bound exists and the start
    norm already sits inside it (ultimate entries are None when
    lam_min{R_2} <= 0). The published bounds use the factor-free level set,
    the strict ones the complete level set, STRICT_FACTOR larger; the
    ultimate bounds carry no factor (the half cancels in the class-K
    sandwich). `effort(c_p, c_ptilde)` gives the per-actuator (upper, lower)
    effort bounds at each. By default it is the sharp unit-G form or the
    conservative general-G form, following `constants.unit_structure`; a
    design with its own effort certificate passes that instead.
    """
    c_p1, c_pt1 = momentum_bounds(constants, hd_t0)
    c_p2, c_pt2 = ultimate_bounds(constants) or (None, None)
    c_p, c_pt = _select(c_p1, c_p2, p0_norm), _select(c_pt1, c_pt2, ptilde0_norm)
    c_p_strict = _select(STRICT_FACTOR * c_p1, c_p2, p0_norm)
    c_pt_strict = _select(STRICT_FACTOR * c_pt1, c_pt2, ptilde0_norm)
    if effort is None and constants.unit_structure:

        def effort(c_p, c_ptilde):
            return control_upper_bound(constants, c_p, c_ptilde), None
    elif effort is None:
        effort = partial(control_bound_general_g, constants)
    upper, lower = effort(c_p, c_pt)
    upper_strict, _ = effort(c_p_strict, c_pt_strict)
    center = np.zeros(upper.size) if tau_center is None else np.asarray(tau_center, dtype=float)
    return BoundReport(
        c_p1=c_p1,
        c_ptilde1=c_pt1,
        c_p2=c_p2,
        c_ptilde2=c_pt2,
        c_p=c_p,
        c_ptilde=c_pt,
        c_p_strict=c_p_strict,
        c_ptilde_strict=c_pt_strict,
        tau_upper=upper,
        tau_lower=lower,
        tau_center=center,
        tau_upper_strict=upper_strict,
        hd_t0=hd_t0,
    )


def start_budget(tgt: TargetDynamics, s0: Optional[ConfigState], hd0: Optional[float] = None):
    """(H_d(t0), ||p0||, ||ptilde0||), the leading arguments of `bound_report`.

    `hd0` overrides the energy of `s0`; a bare budget without a state is
    taken as a start at rest.
    """
    if s0 is None:
        return hd0, 0.0, 0.0
    hd_t0 = target_energy(tgt, s0).total if hd0 is None else hd0
    pt0 = mass_d_solve(tgt, s0.q, s0.p)
    return hd_t0, float(np.linalg.norm(s0.p)), float(np.linalg.norm(pt0))


@dataclass(frozen=True)
class ConfinementInterval:
    """Level-set confinement of one coordinate: q_i stays in [lower, upper].

    `clipped_*` flag sides where no level crossing was found inside the
    workspace box (the interval is then clipped to the box edge)."""

    coordinate: int
    lower: float
    upper: float
    clipped_lower: bool
    clipped_upper: bool


def levelset_confinement(
    tgt: TargetDynamics,
    hd_t0: float,
    coordinate: int,
    box: Box,
    tol: float = 1e-10,
) -> ConfinementInterval:
    """Excursion interval of q_i on the level set {V_d <= hd_t0}.

    All other coordinates are pinned at q*; the crossing V_d = hd_t0 is
    located by outward bracketing plus bisection in each direction. Used to
    restrict the supremum of non-smooth grad V_d terms to the region the
    trajectory can actually reach.
    """
    if hd_t0 < 0:
        raise ValueError("hd_t0 must be nonnegative")
    qstar = tgt.equilibrium
    base = float(tgt.potential_d(qstar))

    def excess(x: float) -> float:
        q = qstar.copy()
        q[coordinate] = x
        return float(tgt.potential_d(q)) - base - hd_t0

    if hd_t0 == 0.0:
        x0 = float(qstar[coordinate])
        return ConfinementInterval(coordinate, x0, x0, False, False)

    def solve_direction(limit: float) -> Tuple[float, bool]:
        x0 = float(qstar[coordinate])
        if limit == x0:
            return x0, False
        if excess(limit) < 0:
            return limit, True
        # walk outward with doubling steps until the level set is crossed
        sign = math.copysign(1.0, limit - x0)
        step = max(1e-3 * abs(limit - x0), 1e-9)
        lo = x0
        hi = limit
        x = x0
        while True:
            nxt = x + sign * step
            if (nxt - limit) * sign >= 0:
                lo = x
                break
            if excess(nxt) >= 0:
                lo, hi = x, nxt
                break
            lo = x = nxt
            step *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) >= 0:
                hi = mid
            else:
                lo = mid
            if abs(hi - lo) < tol * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi), False

    upper, clip_hi = solve_direction(float(box.upper[coordinate]))
    lower, clip_lo = solve_direction(float(box.lower[coordinate]))
    return ConfinementInterval(
        coordinate=coordinate,
        lower=min(lower, upper),
        upper=max(lower, upper),
        clipped_lower=clip_lo,
        clipped_upper=clip_hi,
    )


@dataclass(frozen=True)
class KvAdvisory:
    """Guidance on choosing the damping-injection gain K_v.

    `branch` is "small_kv" when R M^-1 M_d + M_d M^-1 R is PD on the
    workspace (natural damping already makes R_2 PD, keep K_v small), else
    "kv_for_r2" (K_v must provide the positivity, if G's range allows it).
    `kappa_for_pd` is the smallest scalar kappa with K_v = kappa I making
    R_2 PD over the workspace, or None when no kappa can (unactuated
    directions stay undamped). `fraction` evaluates the damping-term ratio
    sqrt(lam_max{M_d}/lam_min{M_d}) * c_Vd * lam_max{K_v} / (lam_min{R_2}+mu)
    at sample gains; `kappa_below_one` reports whether some sampled kappa
    brings it under 1.
    """

    branch: str
    sym_min_eig: float
    kappa_for_pd: Optional[float]
    fraction: dict
    fraction_limit_small: float
    fraction_limit_large: float
    kappa_below_one: Optional[float]


def kv_advisory(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    constants: BoundConstants,
    kappas: Tuple[float, ...] = (0.1, 1.0, 5.0, 50.0),
    samples: int = 200,
) -> KvAdvisory:
    """Classify the design and tabulate the damping-term ratio over kappa."""
    box = sys.workspace
    qs = np.vstack([box.sample(samples), box.corners(), box.center()[None, :]])

    # R M^-1 M_d and G at every point, stacked once for all the kappas below
    s = _stack(partial(damping_transfer, sys, tgt), qs)
    g = _stack(sys.input_coupling, qs)
    s_sym = 0.5 * (s + _swap(s))

    def r2_min_with(kappa: float) -> float:
        kv = kappa * np.eye(sys.m)
        return float(np.min(np.linalg.eigvalsh(s_sym + g @ kv @ _swap(g))))

    sym = float(np.min(np.linalg.eigvalsh(s + _swap(s))))
    branch = "small_kv" if sym > 0 else "kv_for_r2"

    kappa_for_pd: Optional[float] = None
    if branch == "kv_for_r2":
        if r2_min_with(1e6) > 0:
            lo, hi = 0.0, 1e6
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if r2_min_with(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            kappa_for_pd = hi

    ratio_prefix = math.sqrt(constants.lam_max_Md / constants.lam_min_Md) * constants.c_Vd

    def fraction_at(kappa: float) -> float:
        return kappa * ratio_prefix / (max(r2_min_with(kappa), 0.0) + constants.mu)

    fraction = {kappa: fraction_at(kappa) for kappa in kappas}
    small = fraction_at(1e-9)
    large = fraction_at(1e9)
    below = None
    for kappa, value in fraction.items():
        if value < 1.0:
            below = kappa
            break
    return KvAdvisory(
        branch=branch,
        sym_min_eig=sym,
        kappa_for_pd=kappa_for_pd,
        fraction=fraction,
        fraction_limit_small=small,
        fraction_limit_large=large,
        kappa_below_one=below,
    )
