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
from dataclasses import astuple, dataclass
from typing import Callable, ClassVar, Optional, Tuple

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
# ida_pbc_control_raw is unused here; perfbench's tracer wraps this attribute
from ..controller import (  # noqa: F401
    ConfigState,
    IdaPbcLaw,
    TargetDynamics,
    ida_pbc_control_raw,
    log_cosh,
    target_energy,
    TwoPhaseController,
)
from ..phcore import MechanicalSystem
from ..sampling import Box
from ..simulate import SimConfig
from ..stacking import _matvec, _pull_back, _spectral_norms, _stack, constant, plant_function

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
        flat = [x for v in astuple(self) for x in (v if isinstance(v, (tuple, list)) else [v])]
        if any(isinstance(v, bool) for v in flat):
            raise ValueError("VTOL parameters must be numbers, not booleans")
        if not all(map(math.isfinite, flat)):
            raise ValueError("VTOL parameters must be finite")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not (len(self.xy_box) == 2 and min(self.xy_box) >= 0.0
                and 0.0 <= self.theta_box < THETA_SINGULAR):
            raise ValueError("xy_box must be two half-widths >= 0, theta_box in [0, acos(0.1))")


@dataclass
class VtolBenchmark:
    name: str
    params: VtolParams
    system: MechanicalSystem
    target: TargetDynamics
    initial_state: ConfigState
    two_phase: bool
    #: theta_max -> worst-case ||grad V_d|| over |roll| <= theta_max (see make_vtol)
    vd_grad_sup: Callable[[float], float]
    damping_mode: ClassVar[str] = "saturated"
    #: the matching residuals are checked over the whole workspace
    residual_box: ClassVar[Optional[Box]] = None

    def make_controller(self):
        """The IDA-PBC law, or for two-phase runs a primary law before it."""
        control = IdaPbcLaw(self.system, self.target, self.damping_mode)
        if not self.two_phase:
            return control
        pr = self.params

        def primary(t: float, q: np.ndarray, p: np.ndarray) -> np.ndarray:
            tau1 = pr.g - pr.sat_gain_y * math.tanh(pr.kappa1 * (q[1] - pr.y_star)
                                                    + pr.kappa2 * p[1])
            tau2 = -pr.sat_gain_roll * math.tanh(pr.kappa3 * q[2] + pr.kappa4 * p[2])
            return np.array([tau1, tau2])

        def switch(q: np.ndarray, p: np.ndarray) -> bool:
            return abs(q[2]) < pr.switch_roll and abs(p[2]) < pr.switch_roll_rate

        return TwoPhaseController(primary_law=primary, switch_predicate=switch,
                                  secondary_law=control)

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
        pinv = _pull_back(_stack(self.system.input_coupling, qs))
        gv = _matvec(pinv, _stack(self.system.potential_grad, qs))
        max1 = float(np.max(np.abs(pr.g - gv[:, 0])))
        max2 = float(np.max(np.abs(gv[:, 1])))
        nrm = float(np.max(_spectral_norms(pinv @ _stack(self.target.mass_d, qs))))
        c_vd = self.vd_grad_sup(theta_max)
        ub = np.array([max1 + nrm * c_vd + pr.kv, max2 + nrm * c_vd + pr.kv])
        return {
            "max_row1": max1,
            "max_row2": max2,
            "pinv_md_norm": nrm,
            "c_Vd": c_vd,
            "tau_center": np.array([pr.g, 0.0]),
            "tau_upper": ub,
            "theta_max": theta_max,
        }

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
    scale = 1.0 / math.sqrt(1.0 + eps * eps)

    # Each formula gives its output's entries through the math backend m, on
    # floats for the point callable and on (B,) columns for its row form.
    def input_coupling(m, q):
        s, c = m.sin(q[2]), m.cos(q[2])
        return -s, eps * c, c, eps * s, 0.0, 1.0

    def annihilator(m, q):
        return m.cos(q[2]) * scale, m.sin(q[2]) * scale, -eps * scale

    def potential(q):
        return g * q[1]

    def barriers(m, q):  # ln(e (cos t - 0.1)) and B
        try:
            return (m.log(eps * (m.cos(q[2]) - 0.1)),
                    gamma * (q[0] - x_star) - q[2] - beta * m.atanh(c_arg * m.tan(0.5 * q[2])))
        except ValueError as err:  # math's domain error, past the barrier, on either form
            raise ValueError("roll angle beyond the barrier (cos(theta) <= 0.1)") from err

    def v_d_raw(q) -> float:
        log_term, b_term = barriers(math, q)
        return (
            k1 * log_cosh(eps * (q[1] - y_star) + log_term)
            + k2 * log_cosh(b_term)
            - k1 * eps * t0 * (q[1] - y_star)
            - cc * log_term
        )

    rho = v_d_raw(np.array([x_star, y_star, 0.0]))

    def potential_d(q):
        return v_d_raw(q) - rho

    def roll_factors(m, th):
        # d = -sin t / (cos t - 0.1), the roll slope of ln(e (cos t - 0.1)), and dB/dt
        t = m.tan(0.5 * th)
        btheta = -1.0 - 0.5 * beta * c_arg * (1.0 + t * t) / (1.0 - c_arg**2 * t * t)
        return -m.sin(th) / (m.cos(th) - 0.1), btheta

    def potential_d_grad(m, q):
        log_term, b_term = barriers(m, q)
        t_a, t_b = m.tanh(eps * (q[1] - y_star) + log_term), m.tanh(b_term)
        d, btheta = roll_factors(m, q[2])
        return k2 * gamma * t_b, k1 * eps * (t_a - t0), (k1 * t_a - cc) * d + k2 * t_b * btheta

    def vd_grad_sup(theta_max: float) -> float:
        """Worst-case ||grad V_d|| over |roll| <= theta_max, any (x, y).

        The x and y components saturate (|tanh| <= 1); the roll component is
        maximized by aligning the saturated signs with the barrier term.
        """
        vx = k2 * gamma
        vy = k1 * eps * (1.0 + abs(t0))
        best = 0.0
        for th in np.linspace(0.0, theta_max, 601):
            d, btheta = roll_factors(math, th)
            vtheta = (k1 + abs(cc)) * abs(d) + k2 * abs(btheta)
            best = max(best, math.hypot(vx, math.hypot(vy, vtheta)))
        return best

    workspace = Box(
        lower=np.array([-params.xy_box[0], -params.xy_box[1], -params.theta_box]),
        upper=np.array([params.xy_box[0], params.xy_box[1], params.theta_box]),
    )
    system = MechanicalSystem(
        m=2,
        mass_matrix=constant(np.eye(3)),
        potential=potential,
        potential_grad=constant([0.0, g, 0.0]),
        input_coupling=plant_function((3, 2), input_coupling),
        damping=constant(np.zeros((3, 3))),
        workspace=workspace,
        kinetic_grad=constant(np.zeros(3)),
        annihilator=plant_function((1, 3), annihilator),
    )
    target = TargetDynamics(
        mass_d=constant([[m11, 0.0, eps], [0.0, 1.0, 0.0], [eps, 0.0, 0.1]]),
        potential_d=potential_d,
        potential_d_grad=plant_function((3,), potential_d_grad),
        j2=constant(np.zeros((3, 3))),
        damping_gain=params.kv * np.eye(2),
        equilibrium=np.array([x_star, y_star, 0.0]),
        kinetic_d_grad=constant(np.zeros(3)),
    )
    return VtolBenchmark(
        name="vtol-two-phase" if two_phase else "vtol-nonsmooth",
        params=params,
        system=system,
        target=target,
        initial_state=ConfigState(q=np.array([20.0, -15.0, 1.3]), p=np.zeros(3)),
        two_phase=two_phase,
        vd_grad_sup=vd_grad_sup,
    )
