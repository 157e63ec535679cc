"""Bounded-input IDA-PBC toolkit.

Synthesis and evaluation of interconnection-and-damping-assignment
passivity-based control for underactuated mechanical systems, numerical
verification of the matching conditions, certified momentum and
control-effort bounds, and fixed-step closed-loop simulation, with two
benchmark plants (ball-and-beam, planar VTOL) wired end to end.
"""

from .bounds import (
    STRICT_FACTOR,
    BoundConstants,
    BoundReport,
    ConfinementInterval,
    bound_report,
    control_bound_general_g,
    control_upper_bound,
    empirical_constants,
    estimate_constants,
    kv_advisory,
    levelset_confinement,
    momentum_bounds,
    ultimate_bounds,
    validate_constants,
)
from .controller import (
    IdaPbcLaw,
    TargetDynamics,
    TwoPhaseController,
    target_energy,
)
from .errors import (
    EmptyWorkspace,
    NonpositiveEigenvalue,
    RankDeficientG,
    SingularMass,
    SingularMassD,
    ToolkitError,
)
from .matching import (
    MatchingReport,
    annihilator,
    build_r2,
    closed_loop_vector_field,
    hd_rate,
    kinetic_pde_residual,
    potential_pde_residual,
    verify_matching,
)
from .phcore import (
    ConfigState,
    EnergyRecord,
    MechanicalSystem,
    total_energy,
)
from .sampling import Box
from .simulate import SimConfig, Trajectory, check_hd_decrease, simulate

__version__ = "0.1.0"

__all__ = [
    "STRICT_FACTOR",
    "BoundConstants",
    "BoundReport",
    "Box",
    "ConfigState",
    "ConfinementInterval",
    "EmptyWorkspace",
    "EnergyRecord",
    "IdaPbcLaw",
    "MatchingReport",
    "MechanicalSystem",
    "NonpositiveEigenvalue",
    "RankDeficientG",
    "SimConfig",
    "SingularMass",
    "SingularMassD",
    "TargetDynamics",
    "ToolkitError",
    "Trajectory",
    "TwoPhaseController",
    "annihilator",
    "bound_report",
    "build_r2",
    "check_hd_decrease",
    "closed_loop_vector_field",
    "control_bound_general_g",
    "control_upper_bound",
    "empirical_constants",
    "estimate_constants",
    "hd_rate",
    "kinetic_pde_residual",
    "kv_advisory",
    "levelset_confinement",
    "momentum_bounds",
    "potential_pde_residual",
    "simulate",
    "target_energy",
    "total_energy",
    "ultimate_bounds",
    "validate_constants",
    "verify_matching",
]
