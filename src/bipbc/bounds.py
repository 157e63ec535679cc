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
fixed safety inflation (INFLATION) on the suprema. Eigenvalue extremes are raw
per-sample extremes; this is a practical certificate, not interval
arithmetic, so the workspace declaration is part of the contract.

The sampled sweeps evaluate the plant over blocks of points, through the row
forms of its callables where they have them and point by point otherwise,
and run the linear algebra once per block (see `bipbc.stacking`); extremes
are folded across blocks and violations are summed. All reports are
immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .controller import _COLUMNS, TargetDynamics, _momentum_grads, mass_d_solve, target_energy
from .errors import (EmptyWorkspace, NonpositiveEigenvalue, SingularMass, SingularMassD,
                     ToolkitError)
from .matching import _r2, _transfers
from .phcore import ConfigState, MechanicalSystem
from .sampling import Box
from .stacking import (_blocks, _dots, _eigvalsh, _fold, _matvec, _momentum_form, _norms,
                       _pull_back, _spectral_norms, _stack, _stack_pairs, _swap)

UNIT_TOL = 1e-12  # entrywise tolerance of a 0/1 unit-structure G
INFLATION = 1.05  # safety factor on the sampled suprema of `estimate_constants`
VALIDATION_MOMENTUM_CAP = 2.0  # radius of the momentum ball of `validate_constants`
ADVISORY_KAPPAS = (0.1, 1.0, 5.0, 50.0)  # the K_v = kappa I that `kv_advisory` tabulates
CONFINEMENT_TOL = 1e-10  # relative bracket width that ends `levelset_confinement`


def unit_input_rows(g: np.ndarray) -> Optional[np.ndarray]:
    """Actuated-row indices when G is a permutation-selected [I_m; 0] block.

    Returns the row index carrying the 1 of each column, or None when G is
    not of that 0/1 unit structure (entries within UNIT_TOL).
    """
    g = np.asarray(g, dtype=float)
    rows = np.full(g.shape[1], -1, dtype=int)
    for j in range(g.shape[1]):
        col = g[:, j]
        ones = np.flatnonzero(np.abs(col - 1.0) <= UNIT_TOL)
        zeros = np.flatnonzero(np.abs(col) <= UNIT_TOL)
        if ones.size != 1 or ones.size + zeros.size != col.size:
            return None
        rows[j] = ones[0]
    if np.unique(rows).size != rows.size:
        return None
    return rows


class _PlantStack(NamedTuple):
    """Plant and target outputs at a block of points, stacked on axis 0."""

    grad_v: np.ndarray  # (B, n) grad_q V
    grad_vd: np.ndarray  # (B, n) grad_q V_d
    mass_inverse: Callable  # M^-1 of every item: M's guarded factorization (`_COLUMNS`)
    md: np.ndarray  # (B, n, n) M_d
    lam: np.ndarray  # (B, n, n) Lambda = M_d M^-1, M^-1 from `mass_inverse` of the identity
    g: np.ndarray  # (B, n, m) G
    pinv_g: np.ndarray  # (B, m, n) pinv(G) = (G^T G)^-1 G^T, the pull-back (`_pull_back`)


def _plant_stack(sys: MechanicalSystem, tgt: TargetDynamics, qs: np.ndarray) -> _PlantStack:
    """Plant and target outputs at `qs`. M is factorized and guarded once, as the
    law does, and Lambda's items are M_d @ mass_solve(sys, q, I) bit for bit."""
    mass = _stack(sys.mass_matrix, qs)
    md = _stack(tgt.mass_d, qs)
    g = _stack(sys.input_coupling, qs)
    inverse = _COLUMNS.inverse(_COLUMNS.rows(mass), SingularMass)
    eye = np.eye(sys.n)[:, None].repeat(len(qs), axis=1)  # the identity's rows, (B, n) each
    return _PlantStack(
        grad_v=_stack(sys.potential_grad, qs),
        grad_vd=_stack(tgt.potential_d_grad, qs),
        mass_inverse=inverse,
        md=md,
        lam=md @ np.stack(inverse(list(eye)), axis=1),
        g=g,
        pinv_g=_pull_back(g),
    )


def actuated_terms(
    kinetic: np.ndarray, stack: _PlantStack
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-actuator magnitudes of the terms the effort bound dominates.

    At each of the B points of `stack` (a `_plant_stack`) returns
    |pinv(G) grad_q V| (B, m), the row norms of pinv(G) Lambda with
    Lambda = M_d M^-1 (B, m), and |pinv(G) grad_q K| (B, K, m) for the K
    kinetic gradients of that point in `kinetic` (B, K, n). pinv(G) (closed form
    for m <= 2) is the only pull-back into actuator coordinates; for a 0/1
    unit-structure G it is exactly G^T, so the terms are G's actuated rows.
    """
    pinv_g = stack.pinv_g
    return (
        np.abs(_matvec(pinv_g, stack.grad_v)),
        np.linalg.norm(pinv_g @ stack.lam, axis=2),
        np.abs(_matvec(pinv_g[:, None], kinetic)),
    )


@dataclass(frozen=True)
class BoundConstants:
    """Workspace constants of the bounding assumptions.

    `c_V`, `c_M`, `c_Lambda`, `sigma` are per-actuator vectors: they dominate
    grad V, grad K and M_d M^-1 pulled back through pinv(G) = (G^T G)^-1 G^T,
    which for a 0/1 unit-structure G are its actuated rows. `unit_structure`
    records that G is the center's 0/1 matrix at every sample, so that
    `bound_report` may use the sharp effort form. `mu` must be positive and
    finite.
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

    def __post_init__(self):
        if isinstance(self.mu, bool) or not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be positive and finite")


def estimate_constants(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    samples: int = 1000,
    *,
    mu: float = 1e-6,
    region: Box | None = None,
) -> BoundConstants:
    """Estimate every bounding constant over the certification workspace.

    grad_q K and grad_q K_d are quadratic in p and J_2 is linear in ptilde,
    so their defining ratios are taken on unit momenta, from a few probe
    momenta per point (`_momentum_form`). At each term's witness, the sample
    where its largest value on the directions peaks, a term that differs
    from its probes' form on the directions raises ToolkitError.
    Suprema get multiplied by INFLATION (grid maxima under-estimate the
    true suprema); eigenvalue extremes are reported raw. Every term is pulled
    back through pinv(G) (`actuated_terms`); `unit_structure` is set when G
    is the center's 0/1 matrix at every sample. A NaN sample makes its constants NaN.

    Args:
        region: overrides the system workspace for all constants.
    """
    box = region if region is not None else sys.workspace
    center = box.center()[None, :]
    qs = np.vstack([box.sample(samples), box.corners(), center])
    n, m = sys.n, sys.m

    directions = _unit_directions(n, max(64, 8 * n))
    grad_k, grad_kd = _momentum_grads(sys, tgt)
    terms = {"kinetic_grad": (grad_k, 2), "kinetic_d_grad": (grad_kd, 2), "j2": (tgt.j2, 1)}
    forms = {name: _momentum_form(fn, directions, degree) for name, (fn, degree) in terms.items()}
    witness = dict.fromkeys(terms, (0.0, 0))  # per term: (largest value on the directions, point)

    rows = unit_input_rows(_stack(sys.input_coupling, center)[0])
    unit = None if rows is None else np.eye(n)[:, rows]  # G's exact 0/1 matrix at the center

    c_v, c_lam, c_m = np.zeros(m), np.zeros(m), np.zeros(m)
    g_cap = g_pinv_cap = 0.0
    sigma = np.full(m, np.inf)
    lam_min_md, lam_max_md, lam_min_r2 = np.inf, -np.inf, np.inf

    for block in _blocks(qs.shape[0]):
        qb = qs[block]
        stack = _plant_stack(sys, tgt, qb)
        if unit is not None and not np.all(np.abs(stack.g - unit) <= UNIT_TOL):
            unit = None

        eigs = _eigvalsh(0.5 * (stack.md + _swap(stack.md)))
        lam_min_md = _fold(min, lam_min_md, float(np.min(eigs[:, 0])))
        lam_max_md = _fold(max, lam_max_md, float(np.max(eigs[:, -1])))
        r2 = _r2(_transfers(sys, qb, stack.mass_inverse, stack.md), stack.g, tgt.damping_gain)
        lam_min_r2 = _fold(min, lam_min_r2, float(np.min(_eigvalsh(r2))))
        g_cap = _fold(max, g_cap, float(np.max(_spectral_norms(stack.g))))
        g_pinv_cap = _fold(max, g_pinv_cap, float(np.max(_spectral_norms(stack.pinv_g))))
        sigma_q = _matvec(stack.pinv_g, stack.grad_v - _matvec(stack.lam, stack.grad_vd))
        sigma = np.minimum(sigma, np.min(sigma_q, axis=0))

        kinetic = forms["kinetic_grad"](qb)
        v_q, lam_q, kinetic_q = actuated_terms(kinetic, stack)
        c_v = np.maximum(c_v, np.max(v_q, axis=0))
        c_lam = np.maximum(c_lam, np.max(lam_q, axis=0))
        c_m = np.maximum(c_m, np.max(kinetic_q, axis=(0, 1)))
        for name, peak in (("kinetic_grad", np.max(_norms(kinetic), axis=1)),
                           ("kinetic_d_grad", np.max(_norms(forms["kinetic_d_grad"](qb)), axis=1)),
                           ("j2", np.max(_spectral_norms(forms["j2"](qb)), axis=1))):
            # NaN ranks above every number, so a NaN peak becomes the term's value
            witness[name] = max(witness[name], *zip(peak.tolist(), range(block.start, block.stop)),
                                key=lambda w: (math.isnan(w[0]), w))

    # each term's form against direct calls at its witness, the point where the term peaks
    for name, (fn, degree) in terms.items():
        q = qs[None, witness[name][1]]
        want = _stack_pairs(fn, q, directions)
        if np.any(np.abs(forms[name](q) - want) > 1e-6 * np.max(np.abs(want))):
            kind = ("linear", "quadratic")[degree - 1]
            raise ToolkitError(f"{name} is not {kind} in the momentum at q = {q[0]}")

    if lam_min_md <= 0:
        raise NonpositiveEigenvalue("M_d not positive definite on the workspace")

    kv = tgt.damping_gain
    lam_max_kv = float(np.max(np.linalg.eigvalsh(0.5 * (kv + kv.T))))

    return BoundConstants(
        c_V=INFLATION * c_v,
        c_Vd=INFLATION * _sup_vd_grad(tgt, box, samples),
        c_M=INFLATION * c_m,
        c_Md=INFLATION * witness["kinetic_d_grad"][0],
        c_J=INFLATION * witness["j2"][0],
        c_Lambda=INFLATION * c_lam,
        lam_min_MdInv=1.0 / lam_max_md,
        lam_max_MdInv=1.0 / lam_min_md,
        lam_min_Md=lam_min_md,
        lam_max_Md=lam_max_md,
        lam_min_R2=float(lam_min_r2),
        lam_max_Kv=lam_max_kv,
        G_M=INFLATION * g_pinv_cap,
        G_m=INFLATION * g_cap,
        sigma=sigma,
        mu=mu,
        unit_structure=unit is not None,
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
        best = _fold(max, best, float(np.max(_norms(_stack(tgt.potential_d_grad, qs[block])))))
    return best


def _sample_terms(sys: MechanicalSystem, tgt: TargetDynamics, qs: np.ndarray, ps: np.ndarray):
    """Magnitudes of the bounded terms at each state (q, p) of a block.

    Evaluates the plant and target at each state and returns
    |pinv(G) grad_q V| (B, m), the row norms of pinv(G) M_d M^-1 (B, m),
    |pinv(G) grad_q K| (B, m), ||grad_q K_d||, ||J_2(q, ptilde)||,
    ||grad_q V_d||, ||p||^2 and ||ptilde|| (each (B,)).
    """
    stack = _plant_stack(sys, tgt, qs)
    pt = _COLUMNS.vec(_COLUMNS.inverse(_COLUMNS.rows(stack.md), SingularMassD)(_COLUMNS.rows(ps)))
    grad_k, grad_kd = _momentum_grads(sys, tgt)
    v, lam, k = actuated_terms(_stack(grad_k, qs, ps)[:, None], stack)
    return (v, lam, k[:, 0], _norms(_stack(grad_kd, qs, ps)),
            _spectral_norms(_stack(tgt.j2, qs, pt)), _norms(stack.grad_vd), _dots(ps, ps), _norms(pt))


def validate_constants(
    sys: MechanicalSystem,
    tgt: TargetDynamics,
    constants: BoundConstants,
    *,
    samples: int = 10_000,
    seed: int = 1,
    region: Box | None = None,
) -> int:
    """Brute-force recheck of the bounding inequalities on fresh samples.

    Draws a validation set disjoint from the estimation sweep and counts
    violations of

        |(grad_q K)_i| <= c_M_i ||p||^2,   ||grad_q K_d|| <= c_Md ||p||^2,
        ||J_2(q, ptilde)|| <= c_J ||ptilde||,   row bounds on Lambda,
        |(grad_q V)_i| <= c_V_i,   ||grad_q V_d|| <= c_Vd,

    with each per-actuator term pulled back through pinv(G) at its sample,
    whatever `constants.unit_structure` says.

    Returns the number of violating samples (0 means the certificate holds
    on the validation set).

    Raises:
        EmptyWorkspace: `samples` is below 1, as for the other sampled sweeps.
        SingularMass: a sampled M is singular or its condition estimate exceeds 1e12.
    """
    if samples < 1:
        raise EmptyWorkspace("requested an empty sample set")
    box = region if region is not None else sys.workspace
    rng = np.random.default_rng(seed)
    qs = box.lower + rng.random((samples, sys.n)) * (box.upper - box.lower)
    ps = rng.standard_normal((samples, sys.n))
    radii = VALIDATION_MOMENTUM_CAP * rng.random((samples, 1)) ** (1.0 / sys.n)
    tol = 1e-9
    bad = 0
    for block in _blocks(samples):
        # each direction scaled to its radius block by block: no sweep-sized temporaries
        pb = ps[block] * (radii[block] / np.linalg.norm(ps[block], axis=1, keepdims=True))
        v, lam, k, kd, j2, vd, pn2, ptn = _sample_terms(sys, tgt, qs[block], pb)
        ok = (
            np.all(k <= constants.c_M * pn2[:, None] + tol, axis=1)
            & (kd <= constants.c_Md * pn2 + tol)
            & (j2 <= constants.c_J * ptn + tol)
            & np.all(lam <= constants.c_Lambda + tol, axis=1)
            & np.all(v <= constants.c_V + tol, axis=1)
            & (vd <= constants.c_Vd + tol)
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
    quoted for a specific run rather than for a region. The per-actuator
    terms are pulled back through pinv(G) at each visited state.
    """
    qs = np.asarray(traj.q, dtype=float)
    ps = np.asarray(traj.p, dtype=float)
    m = sys.m
    out = {"c_V": np.zeros(m), "c_Vd": 0.0, "c_M": np.zeros(m), "c_Md": 0.0, "c_J": 0.0,
           "c_Lambda": np.zeros(m), "p_norm_max": float(np.max(traj.p_norm)),
           "ptilde_norm_max": float(np.nanmax(traj.ptilde_norm))}
    for block in _blocks(qs.shape[0]):
        v, lam, k, kd, j2, vd, pn2, ptn = _sample_terms(sys, tgt, qs[block], ps[block])
        out["c_V"] = np.maximum(out["c_V"], np.max(v, axis=0))
        out["c_Lambda"] = np.maximum(out["c_Lambda"], np.max(lam, axis=0))
        out["c_Vd"] = _fold(max, out["c_Vd"], float(np.max(vd)))
        moving = pn2 > 1e-12
        if not np.any(moving):
            continue
        out["c_M"] = np.maximum(out["c_M"], np.max(k[moving] / pn2[moving, None], axis=0))
        out["c_Md"] = _fold(max, out["c_Md"], float(np.max(kd[moving] / pn2[moving])))
        turning = moving & (ptn > 1e-9)
        if np.any(turning):
            out["c_J"] = _fold(max, out["c_J"], float(np.max(j2[turning] / ptn[turning])))
    return out


def momentum_bounds(constants: BoundConstants, hd_t0: float) -> Tuple[float, float]:
    """Level-set momentum bounds (c_p1, c_ptilde1) from H_d(t0), as published.

    Raises:
        NonpositiveEigenvalue: a required eigenvalue extreme is <= 0.
    """
    if not hd_t0 >= 0:
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
    """Per-actuator effort bound for unit-structure G (the sharp form): the
    upper bound of `control_bound_general_g` at G_M = G_m = 1."""
    return control_bound_general_g(replace(constants, G_M=1.0, G_m=1.0), c_p, c_ptilde)[0]


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
) -> ConfinementInterval:
    """Excursion interval of q_i on the level set {V_d <= hd_t0}.

    All other coordinates are pinned at q*; the crossing V_d = hd_t0 is
    located by outward bracketing plus bisection in each direction. Used to
    restrict the supremum of non-smooth grad V_d terms to the region the
    trajectory can actually reach.
    """
    if not hd_t0 >= 0:
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
            if abs(hi - lo) < CONFINEMENT_TOL * max(1.0, abs(hi)):
                break
        return 0.5 * (lo + hi), False

    upper, clip_hi = solve_direction(float(box.upper[coordinate]))
    lower, clip_lo = solve_direction(float(box.lower[coordinate]))
    return ConfinementInterval(coordinate, min(lower, upper), max(lower, upper), clip_lo, clip_hi)


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
    samples: int = 200,
) -> KvAdvisory:
    """Classify the design and tabulate the damping-term ratio over kappa."""
    box = sys.workspace
    qs = np.vstack([box.sample(samples), box.corners(), box.center()[None, :]])

    # R M^-1 M_d and G at every point, stacked once for all the kappas below
    mass, md = _stack(sys.mass_matrix, qs), _stack(tgt.mass_d, qs)
    s = _transfers(sys, qs, _COLUMNS.inverse(_COLUMNS.rows(mass), SingularMass), md)
    g = _stack(sys.input_coupling, qs)

    def r2_min_with(kappa: float) -> float:
        return float(np.min(_eigvalsh(_r2(s, g, kappa * np.eye(sys.m)))))

    sym = float(np.min(_eigvalsh(s + _swap(s))))
    branch = "small_kv" if sym > 0 else "kv_for_r2"

    kappa_for_pd: Optional[float] = None
    if branch == "kv_for_r2" and r2_min_with(1e6) > 0:
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

    fraction = {kappa: fraction_at(kappa) for kappa in ADVISORY_KAPPAS}
    return KvAdvisory(
        branch=branch,
        sym_min_eig=sym,
        kappa_for_pd=kappa_for_pd,
        fraction=fraction,
        fraction_limit_small=fraction_at(1e-9),
        fraction_limit_large=fraction_at(1e9),
        kappa_below_one=next((kappa for kappa, value in fraction.items() if value < 1.0), None),
    )
