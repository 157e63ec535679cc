"""Ball-and-beam benchmark: ball position q1 on a beam actuated in angle q2.

Plant (b := L^2 + q1^2):

    M = diag(1, b),  V = g q1 sin(q2),  G = [0, 1]^T,  R = diag(r1, r2)

Energy-shaping design (a := sqrt(2 b), z := q2 - arcsinh(q1/L)/sqrt(2)):

    M_d = [[a, b], [b, a b]]
    V_d = g (1 - cos q2) + (k_p / 2) z^2
    J_2 = [[0, j], [-j, 0]] with j = -q1 b ptilde_2
    K_v = k_v

Both matching PDEs hold identically for this design, so the residual sweep
is an exact zero up to rounding. All gradients below are analytic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..bounds import (
    BoundConstants,
    BoundReport,
    bound_report,
    control_upper_bound,
    estimate_constants,
    start_budget,
)
from ..controller import TargetDynamics, ida_pbc_control_raw, target_energy
from ..phcore import ConfigState, MechanicalSystem
from ..sampling import Box
from ..simulate import SimConfig

# Per-constant reference values quoted for this design in the literature,
# kept as data so reports can surface the gap between the quoted numbers and
# what the estimator recovers (their stated aggregate effort bound of 20 is
# not consistent with their own constants, which plug into ~50.6).
REFERENCE_CONSTANTS = {
    "c_V_2": 10.4,
    "c_Vd": 2.4,
    "c_Lambda_2": 6.0,
    "c_M_2": 0.0,
    "c_Md": 0.9,
    "c_J": 10.4,
    "lam_max_MdInv": 0.82,
    "lam_min_MdInv": 0.06,
    "stated_tau_bound": 20.0,
}
#: the momentum bounds quoted with those constants
REFERENCE_MOMENTA = {"c_p": 2.0, "c_ptilde": 0.44}


@dataclass(frozen=True)
class BallBeamParams:
    """Published model and gain values; the certification box is ours.

    The certification box is the region the constants are taken over. The
    source study never states one; this box covers the level set
    {H_d <= H_d(0)} of the nominal start (coordinate confinement 0.91 in q1
    and 0.18 in q2) with a small margin, so the certificate covers every
    trajectory whose initial energy stays below the nominal budget.
    """

    L: float = 2.0
    g: float = 9.81
    r1: float = 0.2
    r2: float = 0.1
    k_p: float = 5.0
    k_v: float = 5.0
    q1_max: float = 0.96
    q2_max: float = 0.19


@dataclass
class BallBeamBenchmark:
    name: str
    params: BallBeamParams
    system: MechanicalSystem
    target: TargetDynamics
    initial_state: ConfigState
    residual_box: Box
    reference_constants: dict = field(default_factory=lambda: dict(REFERENCE_CONSTANTS))
    damping_mode: ClassVar[str] = "linear"
    two_phase: ClassVar[bool] = False

    def make_controller(self):
        sys, tgt, mode = self.system, self.target, self.damping_mode

        def control(t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
            return ida_pbc_control_raw(sys, tgt, q, p, damping_mode=mode)

        return control

    def default_sim(self) -> SimConfig:
        return SimConfig(dt=1e-3, t_end=20.0)

    def hd(self, s: Optional[ConfigState] = None) -> float:
        state = s if s is not None else self.initial_state
        return target_energy(self.target, state).total

    def certification_region(self, hd_t0: Optional[float] = None) -> Box:
        return self.system.workspace

    def certificate(
        self,
        s0: Optional[ConfigState] = None,
        samples: int = 1000,
        mu: float = 1e-6,
    ) -> Tuple[BoundConstants, BoundReport]:
        """Estimate constants and assemble the bound report for a start state."""
        constants = estimate_constants(self.system, self.target, samples=samples, mu=mu)
        return constants, self.report(constants, s0)

    def report(
        self,
        constants: BoundConstants,
        s0: Optional[ConfigState] = None,
        hd0: Optional[float] = None,
    ) -> BoundReport:
        """Bound report for start `s0` (default: the published start), or for
        a bare energy budget `hd0` (see `start_budget`)."""
        if s0 is None and hd0 is None:
            s0 = self.initial_state
        return bound_report(constants, *start_budget(self.target, s0, hd0))

    def extra_artifacts(self, constants: BoundConstants, report: BoundReport) -> dict:
        """The effort bound the original study's quoted constants give, next to
        its stated bound: a plug-in cross-check, reported, not reconciled."""
        ref = self.reference_constants
        quoted = dataclasses.replace(
            constants, c_V=np.array([ref["c_V_2"]]), c_Vd=ref["c_Vd"],
            c_M=np.array([ref["c_M_2"]]), c_Md=ref["c_Md"], c_J=ref["c_J"],
            c_Lambda=np.array([ref["c_Lambda_2"]]))
        value = float(control_upper_bound(quoted, **REFERENCE_MOMENTA)[0])
        stated = ref["stated_tau_bound"]
        note = ("plugging the quoted constants into the effort-bound formula "
                f"gives {value:.1f}, not the stated {stated:.0f}; the discrepancy "
                "is in the source arithmetic and is reported, not reconciled")
        return {"reference": {"constants": ref, "effort_bound_from_reference_constants": value,
                              "stated_effort_bound": stated, "note": note}}


def make_ball_beam(params: BallBeamParams = BallBeamParams()) -> BallBeamBenchmark:
    L, g, k_p, k_v = params.L, params.g, params.k_p, params.k_v
    r_diag = np.array([params.r1, params.r2])
    l2 = L * L

    def b_of(q1: float) -> float:
        return l2 + q1 * q1

    def mass_matrix(q):
        return np.array([[1.0, 0.0], [0.0, b_of(q[0])]])

    def potential(q):
        return g * q[0] * math.sin(q[1])

    def potential_grad(q):
        return np.array([g * math.sin(q[1]), g * q[0] * math.cos(q[1])])

    def kinetic_grad(q, p):
        # K = (p1^2 + p2^2 / b) / 2, so only dK/dq1 is nonzero
        b = b_of(q[0])
        return np.array([-q[0] * p[1] ** 2 / b**2, 0.0])

    def input_coupling(q):
        return np.array([[0.0], [1.0]])

    def damping(q):
        return np.diag(r_diag)

    def annihilator(q):
        return np.array([[1.0, 0.0]])

    def mass_d(q):
        b = b_of(q[0])
        a = math.sqrt(2.0 * b)
        return np.array([[a, b], [b, a * b]])

    def shaping_offset(q1: float) -> float:
        return math.asinh(q1 / L) / math.sqrt(2.0)

    def potential_d(q):
        z = q[1] - shaping_offset(q[0])
        return g * (1.0 - math.cos(q[1])) + 0.5 * k_p * z * z

    def potential_d_grad(q):
        b = b_of(q[0])
        a = math.sqrt(2.0 * b)
        z = q[1] - shaping_offset(q[0])
        return np.array([-k_p * z / a, g * math.sin(q[1]) + k_p * z])

    def kinetic_d_grad(q, p):
        # d/dq1 of p^T M_d^-1 p / 2; the q2 derivative vanishes
        b = b_of(q[0])
        a = math.sqrt(2.0 * b)
        quad = (a / b**2) * p[0] ** 2 - (4.0 / b**2) * p[0] * p[1] + (3.0 * a / b**3) * p[1] ** 2
        return np.array([-0.5 * q[0] * quad, 0.0])

    def j2(q, pt):
        j = -q[0] * b_of(q[0]) * pt[1]
        return np.array([[0.0, j], [-j, 0.0]])

    workspace = Box(
        lower=np.array([-params.q1_max, -params.q2_max]),
        upper=np.array([params.q1_max, params.q2_max]),
    )
    system = MechanicalSystem(
        n=2,
        m=1,
        mass_matrix=mass_matrix,
        potential=potential,
        potential_grad=potential_grad,
        input_coupling=input_coupling,
        damping=damping,
        workspace=workspace,
        kinetic_grad=kinetic_grad,
        annihilator=annihilator,
        name="ball-beam",
    )
    target = TargetDynamics(
        mass_d=mass_d,
        potential_d=potential_d,
        potential_d_grad=potential_d_grad,
        j2=j2,
        damping_gain=np.array([[k_v]]),
        equilibrium=np.zeros(2),
        kinetic_d_grad=kinetic_d_grad,
        name="ball-beam-target",
    )
    return BallBeamBenchmark(
        name="ball-beam",
        params=params,
        system=system,
        target=target,
        initial_state=ConfigState(q=np.array([0.5, -0.1]), p=np.array([0.1, 0.0])),
        residual_box=Box(lower=np.array([-2.0, -1.0]), upper=np.array([2.0, 1.0])),
    )
