"""Planar VTOL aircraft benchmark: 3 DOF (x, y, roll), 2 inputs.

Plant:

    M = I,  V = g y,  G(q) = [[-sin t, e cos t], [cos t, e sin t], [0, 1]]

with t the roll angle and e the slopped-wing coupling. The energy-shaping
design uses a constant desired mass matrix and a non-smooth desired
potential built from saturated (ln cosh) terms plus logarithmic barriers:

    M_d = [[m11, 0, e], [0, 1, 0], [e, 0, 0.1]],  J_2 = 0
    A = e (y - y*) + ln(e (cos t - 0.1))
    B = (e / m11)(x - x*) - t - beta arctanh(c tan(t/2))
    V_d = k1 lncosh(A) + k2 lncosh(B) - k1 e tanh(ln 0.9e) (y - y*)
          - (g + k1 e tanh(ln 0.9e)) / e * ln(e (cos t - 0.1)) - rho

The potential matching PDE holds identically iff c = sqrt(11/9) and
beta = 2 (0.1 - e^2/m11) / (0.9 c); the commonly quoted literals 1.1055 and
0.1 are 5- and 1-digit roundings of these (for m11 = 20 e^2), and using the
rounded values leaves an O(1e-3) residual, so the exact values are used.
rho normalizes V_d(q*) = 0, making H_d a true Lyapunov function. The
arctanh and log terms confine the roll angle strictly inside
|t| < arccos(0.1); their gradients blow up at that barrier, which is what
the level-set confinement certificate quantifies.

The damping injection is saturated: -K_v tanh(G^T ptilde) elementwise, so each
input's damping share never exceeds lam_max{K_v}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..bounds import (
    BoundConstants,
    BoundReport,
    ConfinementInterval,
    bound_report,
    estimate_constants,
    levelset_confinement,
    start_budget,
)
from ..controller import (
    ConfigState,
    TargetDynamics,
    ida_pbc_control_raw,
    log_cosh,
    target_energy,
    TwoPhaseController,
)
from ..phcore import MechanicalSystem
from ..sampling import Box
from ..simulate import SimConfig

#: roll angle at which the barrier terms become singular (cos t = 0.1)
THETA_SINGULAR = math.acos(0.1)


@dataclass(frozen=True)
class VtolParams:
    """Design gains as published; epsilon and g are not stated there.

    epsilon trades off roll-coupling authority against the strength of the
    saturated altitude loop, the two-phase and effort numbers are re-derived
    at whatever value is configured here.
    """

    epsilon: float = 0.25
    g: float = 9.81
    k1: float = 4.0
    k2: float = 5.0
    kv: float = 1.0
    m11_scale: float = 1.0  # m11 = m11_scale * 20 epsilon^2
    # two-phase primary gains and switch thresholds
    sat_gain_y: float = 8.0
    sat_gain_roll: float = 8.0
    kappa1: float = 30.0
    kappa2: float = 20.0
    kappa3: float = 80.0
    kappa4: float = 30.0
    switch_roll: float = 0.05
    switch_roll_rate: float = 0.05
    x_star: float = 0.0
    y_star: float = 0.0
    theta_box: float = 1.40
    xy_box: Tuple[float, float] = (60.0, 25.0)

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")


@dataclass
class VtolBenchmark:
    name: str
    params: VtolParams
    system: MechanicalSystem
    target: TargetDynamics
    initial_state: ConfigState
    two_phase: bool
    damping_mode: ClassVar[str] = "saturated"
    #: the matching residuals are checked over the whole workspace
    residual_box: ClassVar[Optional[Box]] = None

    def make_controller(self):
        if self.two_phase:
            return self._make_two_phase()
        sys, tgt, mode = self.system, self.target, self.damping_mode

        def control(t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
            return ida_pbc_control_raw(sys, tgt, q, p, damping_mode=mode)

        return control

    def _make_two_phase(self) -> TwoPhaseController:
        pr = self.params
        g = pr.g

        def primary(t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
            tau1 = g - pr.sat_gain_y * math.tanh(
                pr.kappa1 * (q[1] - pr.y_star) + pr.kappa2 * p[1]
            )
            tau2 = -pr.sat_gain_roll * math.tanh(pr.kappa3 * q[2] + pr.kappa4 * p[2])
            return np.array([tau1, tau2])

        def switch(q: np.ndarray, p: np.ndarray) -> bool:
            return abs(q[2]) < pr.switch_roll and abs(p[2]) < pr.switch_roll_rate

        return TwoPhaseController(
            primary_law=primary,
            switch_predicate=switch,
            sys=self.system,
            target=self.target,
            damping_mode=self.damping_mode,
        )

    def default_sim(self) -> SimConfig:
        # the single-phase run needs the long horizon: the saturated
        # altitude loop recovers the 15 m drop at a terminal-velocity creep
        if self.two_phase:
            return SimConfig(dt=2e-3, t_end=60.0)
        return SimConfig(dt=5e-3, t_end=200.0)

    def hd(self, s: Optional[ConfigState] = None) -> float:
        state = s if s is not None else self.initial_state
        return target_energy(self.target, state).total

    def roll_confinement(self, hd_t0: Optional[float] = None) -> ConfinementInterval:
        """Level-set excursion bound for the roll angle."""
        budget = self.hd() if hd_t0 is None else hd_t0
        return levelset_confinement(self.target, budget, 2, self.system.workspace)

    def roll_limit(self, hd_t0: Optional[float] = None) -> float:
        """Largest confined |roll|, capped at the workspace's theta_box."""
        conf = self.roll_confinement(hd_t0)
        return min(max(abs(conf.lower), abs(conf.upper)), self.params.theta_box)

    def certification_region(self, hd_t0: Optional[float] = None) -> Box:
        """Workspace box with the roll range cut down to the confined excursion."""
        theta = self.roll_limit(hd_t0)
        box = self.system.workspace
        return Box(
            lower=np.array([box.lower[0], box.lower[1], -theta]),
            upper=np.array([box.upper[0], box.upper[1], theta]),
        )

    def effort_certificate(self, theta_max: float) -> dict:
        """Sharp per-input effort bounds over the confined roll range.

        With M = I the control law is tau = pinv(G)(grad V - M_d grad V_d)
        - K_v tanh(G^T ptilde), so

            |tau_1 - g| <= max |g - (pinv(G) grad V)_1|
                           + max ||pinv(G) M_d|| c_Vd + lam_max{K_v}
            |tau_2|      <= max |(pinv(G) grad V)_2| + same tail

        with every maximum taken over |roll| <= theta_max and c_Vd the
        saturated-worst-case gradient bound over that range.
        """
        pr = self.params
        qs = np.zeros((1201, 3))
        qs[:, 2] = np.linspace(-theta_max, theta_max, 1201)
        pinv = np.linalg.pinv(np.array([self.system.input_coupling(q) for q in qs]))
        grad_v = np.array([self.system.potential_grad(q) for q in qs])
        gv = (pinv @ grad_v[..., None])[..., 0]
        md = np.array([self.target.mass_d(q) for q in qs])
        max1 = float(np.max(np.abs(pr.g - gv[:, 0])))
        max2 = float(np.max(np.abs(gv[:, 1])))
        nrm = float(np.max(np.linalg.norm(pinv @ md, 2, axis=(1, 2))))
        c_vd = self.vd_grad_sup(theta_max)
        kv_term = pr.kv
        ub = np.array([max1 + nrm * c_vd + kv_term, max2 + nrm * c_vd + kv_term])
        return {
            "max_row1": max1,
            "max_row2": max2,
            "pinv_md_norm": nrm,
            "c_Vd": c_vd,
            "tau_center": np.array([pr.g, 0.0]),
            "tau_upper": ub,
            "theta_max": theta_max,
        }

    def vd_grad_sup(self, theta_max: float) -> float:
        """Worst-case ||grad V_d|| over |roll| <= theta_max, any (x, y).

        The x and y components saturate (|tanh| <= 1); the roll component is
        maximized by aligning the saturated signs with the barrier term.
        """
        pr = self.params
        eps = pr.epsilon
        m11 = pr.m11_scale * 20.0 * eps * eps
        gamma = eps / m11
        t0 = math.tanh(math.log(0.9 * eps))
        cc = (pr.g + pr.k1 * eps * t0) / eps
        c_arg = math.sqrt(11.0 / 9.0)
        beta = 2.0 * (0.1 - eps * eps / m11) / (0.9 * c_arg)
        vx = pr.k2 * gamma
        vy = pr.k1 * eps * (1.0 + abs(t0))
        best = 0.0
        for th in np.linspace(0.0, theta_max, 601):
            d = -math.sin(th) / (math.cos(th) - 0.1)
            t = math.tan(0.5 * th)
            btheta = -1.0 - 0.5 * beta * c_arg * (1.0 + t * t) / (1.0 - c_arg**2 * t * t)
            vtheta = (pr.k1 + abs(cc)) * abs(d) + pr.k2 * abs(btheta)
            best = max(best, math.hypot(vx, math.hypot(vy, vtheta)))
        return best

    def certificate(
        self,
        s0: Optional[ConfigState] = None,
        samples: int = 400,
        mu: float = 1e-6,
    ) -> Tuple[BoundConstants, BoundReport]:
        """Constants over the certification region and the report for a start state."""
        region = self.certification_region(self.hd(s0))
        constants = estimate_constants(
            self.system, self.target, samples=samples, mu=mu, region=region
        )
        return constants, self.report(constants, s0)

    def report(
        self,
        constants: BoundConstants,
        s0: Optional[ConfigState] = None,
        hd0: Optional[float] = None,
    ) -> BoundReport:
        """Momentum bounds from the M_d extremes plus the sharp effort bounds.

        The effort part replaces the conservative general-G bound with the
        per-input certificate over the roll range confined by H_d(t0). `s0`
        defaults to the published start; a bare `hd0` is an energy budget
        (see `start_budget`).
        """
        if s0 is None and hd0 is None:
            s0 = self.initial_state
        budget = start_budget(self.target, s0, hd0)
        sharp = self.effort_certificate(self.roll_limit(budget[0]))
        return bound_report(
            constants,
            *budget,
            effort=lambda c_p, c_ptilde: (sharp["tau_upper"], None),
            tau_center=sharp["tau_center"],
        )

    def extra_artifacts(self, constants: BoundConstants, report: BoundReport) -> dict:
        """The roll excursion the report's energy budget allows."""
        return {"roll_confinement": self.roll_confinement(report.hd_t0)}


def make_vtol(params: VtolParams = VtolParams(), two_phase: bool = False) -> VtolBenchmark:
    eps, g, k1, k2 = params.epsilon, params.g, params.k1, params.k2
    m11 = params.m11_scale * 20.0 * eps * eps
    gamma = eps / m11
    c_arg = math.sqrt(11.0 / 9.0)
    beta = 2.0 * (0.1 - eps * eps / m11) / (0.9 * c_arg)
    t0 = math.tanh(math.log(0.9 * eps))
    cc = (g + k1 * eps * t0) / eps
    x_star, y_star = params.x_star, params.y_star

    def mass_matrix(q):
        return np.eye(3)

    def potential(q):
        return g * q[1]

    def potential_grad(q):
        return np.array([0.0, g, 0.0])

    def kinetic_grad(q, p):
        return np.zeros(3)

    def input_coupling(q):
        th = q[2]
        s, c = math.sin(th), math.cos(th)
        return np.array([[-s, eps * c], [c, eps * s], [0.0, 1.0]])

    def annihilator(q):
        th = q[2]
        s, c = math.sin(th), math.cos(th)
        scale = 1.0 / math.sqrt(1.0 + eps * eps)
        return np.array([[c * scale, s * scale, -eps * scale]])

    def damping(q):
        return np.zeros((3, 3))

    md_const = np.array([[m11, 0.0, eps], [0.0, 1.0, 0.0], [eps, 0.0, 0.1]])

    def mass_d(q):
        return md_const

    def kinetic_d_grad(q, p):
        return np.zeros(3)

    def j2(q, pt):
        return np.zeros((3, 3))

    def barrier(th: float) -> float:
        arg = eps * (math.cos(th) - 0.1)
        if arg <= 0.0:
            raise ValueError("roll angle beyond the barrier (cos(theta) <= 0.1)")
        return math.log(arg)

    def b_term(q) -> float:
        th = q[2]
        u = c_arg * math.tan(0.5 * th)
        if abs(u) >= 1.0:
            raise ValueError("roll angle beyond the arctanh barrier")
        return gamma * (q[0] - x_star) - th - beta * math.atanh(u)

    def v_d_raw(q) -> float:
        a_term = eps * (q[1] - y_star) + barrier(q[2])
        return (
            k1 * log_cosh(a_term)
            + k2 * log_cosh(b_term(q))
            - k1 * eps * t0 * (q[1] - y_star)
            - cc * barrier(q[2])
        )

    rho = v_d_raw(np.array([x_star, y_star, 0.0]))

    def potential_d(q):
        return v_d_raw(q) - rho

    def potential_d_grad(q):
        th = q[2]
        t_a = math.tanh(eps * (q[1] - y_star) + barrier(th))
        t_b = math.tanh(b_term(q))
        d = -math.sin(th) / (math.cos(th) - 0.1)
        t = math.tan(0.5 * th)
        btheta = -1.0 - 0.5 * beta * c_arg * (1.0 + t * t) / (1.0 - c_arg**2 * t * t)
        return np.array(
            [
                k2 * gamma * t_b,
                k1 * eps * (t_a - t0),
                (k1 * t_a - cc) * d + k2 * t_b * btheta,
            ]
        )

    workspace = Box(
        lower=np.array([-params.xy_box[0], -params.xy_box[1], -params.theta_box]),
        upper=np.array([params.xy_box[0], params.xy_box[1], params.theta_box]),
    )
    system = MechanicalSystem(
        n=3,
        m=2,
        mass_matrix=mass_matrix,
        potential=potential,
        potential_grad=potential_grad,
        input_coupling=input_coupling,
        damping=damping,
        workspace=workspace,
        kinetic_grad=kinetic_grad,
        annihilator=annihilator,
        name="vtol",
    )
    target = TargetDynamics(
        mass_d=mass_d,
        potential_d=potential_d,
        potential_d_grad=potential_d_grad,
        j2=j2,
        damping_gain=params.kv * np.eye(2),
        equilibrium=np.array([x_star, y_star, 0.0]),
        kinetic_d_grad=kinetic_d_grad,
        name="vtol-target",
    )
    return VtolBenchmark(
        name="vtol-two-phase" if two_phase else "vtol-nonsmooth",
        params=params,
        system=system,
        target=target,
        initial_state=ConfigState(q=np.array([20.0, -15.0, 1.3]), p=np.zeros(3)),
        two_phase=two_phase,
    )
