"""Benchmark systems wired for every toolkit operation.

Benchmarks are addressable by name:

    ball-beam        ball on an actuated beam, 2 DOF, 1 input
    vtol-nonsmooth   planar VTOL aircraft, 3 DOF, 2 inputs, non-smooth V_d
    vtol-two-phase   same plant under the two-phase scheme (saturated
                     primary law, then the energy-shaping law)
"""

from __future__ import annotations

from typing import Any, Optional, Protocol, Tuple

from ..bounds import BoundConstants, BoundReport
from ..controller import TargetDynamics
from ..phcore import ConfigState, MechanicalSystem
from ..sampling import Box
from ..simulate import Controller, SimConfig
from .ballbeam import BallBeamBenchmark, BallBeamParams, make_ball_beam
from .vtol import VtolBenchmark, VtolParams, make_vtol

BENCHMARK_NAMES = ("ball-beam", "vtol-nonsmooth", "vtol-two-phase")


class Benchmark(Protocol):
    """What the CLI pipelines use of a benchmark.

    `certificate` estimates the constants and passes them to `report`, which
    builds the bound report for a start state or a bare energy budget.
    `extra_artifacts` returns design-specific entries of bounds.json.
    `residual_box` is the region of the matching check (None: the
    workspace). `two_phase` marks designs whose `make_controller` returns a
    `TwoPhaseController`; `simulate` decides its switch and reports it in
    `Trajectory.switch_time` and `switch_state`, and the CLI checks their
    energy and their certificate, rebuilt at the switch state, on the
    phase-2 records only (none if the run never switches). Controllers are
    pure, so one can serve several runs.
    """

    name: str
    params: Any
    system: MechanicalSystem
    target: TargetDynamics
    initial_state: ConfigState
    residual_box: Optional[Box]
    two_phase: bool

    def certificate(self, s0: Optional[ConfigState] = None, samples: int = ...,
                    mu: float = ...) -> Tuple[BoundConstants, BoundReport]: ...

    def report(self, constants: BoundConstants, s0: Optional[ConfigState] = None,
               hd0: Optional[float] = None) -> BoundReport: ...

    def certification_region(self, hd_t0: Optional[float] = None) -> Box: ...

    def default_sim(self) -> SimConfig: ...

    def make_controller(self) -> Controller: ...

    def extra_artifacts(self, constants: BoundConstants, report: BoundReport) -> dict: ...


def get_benchmark(name: str, **overrides) -> Benchmark:
    """Instantiate a benchmark by CLI name, with parameter overrides."""
    if name == "ball-beam":
        return make_ball_beam(BallBeamParams(**overrides))
    if name == "vtol-nonsmooth":
        return make_vtol(VtolParams(**overrides), two_phase=False)
    if name == "vtol-two-phase":
        # the secondary design carries a larger M_d(1, 1) so the phase-1
        # drift momentum enters phase 2 with a modest H_d(t0)
        overrides.setdefault("m11_scale", 8.0)
        return make_vtol(VtolParams(**overrides), two_phase=True)
    raise KeyError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}")


__all__ = [
    "BENCHMARK_NAMES",
    "BallBeamBenchmark",
    "BallBeamParams",
    "Benchmark",
    "VtolBenchmark",
    "VtolParams",
    "get_benchmark",
    "make_ball_beam",
    "make_vtol",
]
