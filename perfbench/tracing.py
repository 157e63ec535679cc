"""Span tracing of bipbc's layers from outside the package.

`Tracer.install` replaces each traced function at every module or class
attribute its callers look it up through (for example
`bipbc.bench.ballbeam.ida_pbc_control_raw` and
`bipbc.simulate.open_loop_field_raw`) with a timing wrapper, and
`Tracer.uninstall` puts the original objects back. bipbc itself is not
modified; an untraced run never touches these attributes.

Each call through a wrapper records one span (layer, start, end, parent
span, op id, phase) in flat in-memory arrays, plus the layer's work counters
(points, steps, records, bytes). A layer's self time is its span durations
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _simulate_counts(args, kwargs, traj):
    cfg = _arg(args, kwargs, 3, "cfg")
    return {"steps": (len(traj) - 1) * cfg.record_stride, "records": len(traj)}


#: layer name -> (attribute lookups "module:attr" or "module:Class.attr", counter)
LAYERS = {
    "sampling.halton": (
        ("bipbc.sampling:halton",),
        lambda a, k, r: {"points": _arg(a, k, 0, "count")},
    ),
    "bounds.estimate_constants": (
        ("bipbc.bounds:estimate_constants", "bipbc.bench.ballbeam:estimate_constants",
         "bipbc.bench.vtol:estimate_constants"),
        lambda a, k, r: {"points": r.samples},
    ),
    "bounds.validate_constants": (
        ("bipbc.bounds:validate_constants", "bipbc.cli:validate_constants"),
        lambda a, k, r: {"points": _arg(a, k, 4, "samples", 10_000)},
    ),
    "bounds.kv_advisory": (("bipbc.bounds:kv_advisory",), None),
    "bounds.levelset_confinement": (
        ("bipbc.bounds:levelset_confinement", "bipbc.bench.vtol:levelset_confinement"),
        None,
    ),
    "bounds.bound_report": (
        ("bipbc.bounds:bound_report", "bipbc.bench.ballbeam:bound_report"),
        None,
    ),
    "bench.certificate": (
        ("bipbc.bench.ballbeam:BallBeamBenchmark.certificate",
         "bipbc.bench.vtol:VtolBenchmark.certificate"),
        None,
    ),
    "bench.effort_certificate": (("bipbc.bench.vtol:VtolBenchmark.effort_certificate",), None),
    "cli.run": (("bipbc.cli:run",), None),
    "matching.verify_matching": (
        ("bipbc.matching:verify_matching", "bipbc.cli:verify_matching"),
        lambda a, k, r: {"points": r.samples},
    ),
    "simulate.simulate": (("bipbc.simulate:simulate", "bipbc.cli:simulate"), _simulate_counts),
    "simulate.to_csv": (
        ("bipbc.simulate:Trajectory.to_csv",),
        lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    ),
    "controller.ida_pbc_control_raw": (
        ("bipbc.controller:ida_pbc_control_raw", "bipbc.bench.ballbeam:ida_pbc_control_raw",
         "bipbc.bench.vtol:ida_pbc_control_raw"),
        None,
    ),
    "controller.TwoPhaseController.control": (
        ("bipbc.controller:TwoPhaseController.control",),
        None,
    ),
    "phcore.open_loop_field_raw": (
        ("bipbc.phcore:open_loop_field_raw", "bipbc.simulate:open_loop_field_raw"),
        None,
    ),
    "smalllinalg.solve_checked": (
        ("bipbc.phcore:solve_checked", "bipbc.controller:solve_checked",
         "bipbc.simulate:solve_checked"),
        None,
    ),
    "smalllinalg.smallest_singular_value": (
        ("bipbc.controller:smallest_singular_value",),
        None,
    ),
    "phcore.fd_gradient": (("bipbc.phcore:fd_gradient", "bipbc.controller:fd_gradient"), None),
}

PHASES = ("setup", "round", "coverage")


def resolve(lookup: str):
    """(owner, attribute, current object) for a "module:attr" or "module:Class.attr"."""
    module_name, path = lookup.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    current = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, current


def traced_attributes() -> dict:
    """Current object at every attribute the tracer replaces, keyed by lookup."""
    return {
        lookup: resolve(lookup)[2]
        for lookups, _ in LAYERS.values()
        for lookup in lookups
    }


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names = list(LAYERS)
        self.layer = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.phase_of = array("B")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}  # (layer index, phase index, counter) -> total
        self.op_keys = []
        self.op_id = -1
        self.phase = 0
        self.enabled = True
        self._stack = []
        self._saved = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer_id, (name, (lookups, counter)) in enumerate(LAYERS.items()):
            for lookup in lookups:
                owner, attr, original = resolve(lookup)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer_id, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, layer_id, counter):
        tracer = self
        layer, parent, op, phase_of = self.layer, self.parent, self.op, self.phase_of
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            phase_of.append(tracer.phase)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    slot = (layer_id, tracer.phase, key)
                    tracer.counts[slot] = tracer.counts.get(slot, 0) + value
            return result

        return wrapper

    # -- run structure ---------------------------------------------------
    def set_phase(self, name: str) -> None:
        self.phase = PHASES.index(name)

    def begin_op(self, key: str) -> None:
        self.op_id = len(self.op_keys)
        self.op_keys.append(key)

    @contextmanager
    def paused(self):
        """Calls made inside (output checks) record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- results ---------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "layer": np.array(self.layer, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "phase": np.array(self.phase_of, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_table(self) -> dict:
        """Per layer and phase: calls, inclusive and self seconds, counters."""
        a = self.arrays()
        n = a["layer"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - child
        table = {}
        for layer_id, name in enumerate(self.names):
            keys = sorted({key for lid, _, key in self.counts if lid == layer_id})
            rows = {}
            for phase_id, phase in enumerate(PHASES):
                mask = (a["layer"] == layer_id) & (a["phase"] == phase_id)
                rows[phase] = {
                    "calls": int(np.count_nonzero(mask)),
                    "total_s": float(dur[mask].sum()),
                    "self_s": float(self_s[mask].sum()),
                    **{key: int(self.counts.get((layer_id, phase_id, key), 0)) for key in keys},
                }
            table[name] = rows
        return table

    def control_evals_in_simulate(self) -> int:
        """Control-law evaluations made inside `simulate` spans.

        A two-phase controller's `control` span counts once, whether or not
        it calls the IDA-PBC law beneath it.
        """
        a = self.arrays()
        sim = self.names.index("simulate.simulate")
        two_phase = self.names.index("controller.TwoPhaseController.control")
        law = self.names.index("controller.ida_pbc_control_raw")
        inside = np.zeros(a["layer"].size, dtype=bool)
        layer, parent = a["layer"], a["parent"]
        for i in range(layer.size):  # parents always precede their children
            p = parent[i]
            inside[i] = p >= 0 and (inside[p] or layer[p] == sim)
        law_alone = (layer == law) & ~((parent >= 0) & (layer[np.maximum(parent, 0)] == two_phase))
        return int(np.count_nonzero(inside & ((layer == two_phase) | law_alone)))

    def write(self, path: Path) -> None:
        """Write every span (arrays plus layer names and op keys) as .npz."""
        np.savez(path, names=np.array(self.names), op_keys=np.array(self.op_keys, dtype=str),
                 phases=np.array(PHASES), **self.arrays())


WRAPPER_CALLS = 20_000
WRAPPER_REPEATS = 7


def wrapper_cost_s() -> float:
    """Median seconds one call through a tracing wrapper adds to a direct call.

    Times WRAPPER_CALLS direct calls of a no-op, then as many calls of it
    through `Tracer._wrap` of a scratch tracer, WRAPPER_REPEATS times.
    """

    def noop(a, b, c=None):
        return a

    wrapped = Tracer()._wrap(noop, 0, None)
    costs = []
    for _ in range(WRAPPER_REPEATS):
        t0 = perf_counter()
        for _ in range(WRAPPER_CALLS):
            noop(1, 2, c=3)
        t1 = perf_counter()
        for _ in range(WRAPPER_CALLS):
            wrapped(1, 2, c=3)
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / WRAPPER_CALLS)
    return statistics.median(costs)
