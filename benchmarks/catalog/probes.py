"""Per-layer probes of the catalog benchmark's traced run.

The library is not modified: the traced run wraps the public entry
points of each layer from here, for the duration of one pass, and reads
the existing :mod:`repro.telemetry` counters as they are.

A wrapper replaces *every* reference to the wrapped function that a
``repro`` module holds -- the defining module, package re-exports and
each ``from ... import name`` binding (templates and the Kolmogorov
bounds, for instance, import ``extremal_trajectory`` by name) -- so each
caller reaches the probe through the name it actually resolves.  Methods
are wrapped on their class.  Everything is restored on exit.

Each probe records calls, inclusive seconds, rows (for batch kernels)
and self seconds: a probe's duration minus the time covered by the
probes it called.  A probe re-entered while already active (a batch
extremizer entry point calling another) is transparent, so calls are
counted at the outermost entry only.

:data:`METRICS` is the per-layer metric table.  Each entry names the
end-to-end metric and the workloads it should move; on those workloads
the probe must read non-zero (a silent zero means a probe fell off the
path it claims to measure).  Failure counters are the exception: zero
is their correct reading.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Probe", "PROBES", "Metric", "METRICS", "Stat", "LayerSample",
           "LayerTracer", "Context", "layer_metrics", "silent_zeros"]

T, S, E = ("transient",), ("steady-finite",), ("ensemble-pooled",)
TS, ALL_WORKLOADS = T + S, T + S + E


def _question_kind(args, kwargs) -> str:
    question = args[1] if len(args) > 1 else kwargs["question"]
    return question.kind


def _rows(index: int) -> Callable:
    """Rows of a batch call: the leading extent of positional ``index``."""
    def rows(args, kwargs) -> int:
        shape = getattr(args[index], "shape", None) if len(args) > index \
            else None
        return int(shape[0]) if shape and len(shape) > 1 else 1
    return rows


def _pooled_payload_bytes(args, kwargs) -> int:
    """Pickled payload bytes a pooled ``map_shards`` call ships out."""
    processes = args[2] if len(args) > 2 else kwargs.get("processes")
    if not processes or processes <= 1:
        return 0
    return sum(len(pickle.dumps(p)) for p in args[1])


@dataclass(frozen=True)
class Probe:
    """One layer entry point (or several sharing one name)."""

    name: str
    targets: Tuple[str, ...]                  # "module:attr" / "module:Cls.meth"
    rows: Optional[Callable] = None           # (args, kwargs) -> rows
    split: Optional[Callable] = None          # (args, kwargs) -> key suffix


PROBES: Tuple[Probe, ...] = (
    Probe("scenarios.question", ("repro.scenarios.runner:run_question",),
          split=_question_kind),
    Probe("scenarios.cache.store", ("repro.scenarios.cache:store_result",)),
    Probe("bounds.lanes",
          ("repro.bounds.pontryagin:extremal_trajectories_batch",)),
    Probe("bounds.scalar_sweep",
          ("repro.bounds.pontryagin:extremal_trajectory",)),
    Probe("bounds.envelope", ("repro.bounds.sweep:uncertain_envelope",)),
    Probe("bounds.hull", ("repro.bounds.hull:differential_hull_bounds",)),
    Probe("bounds.templates",
          ("repro.bounds.templates:template_reachable_bounds",)),
    # The lane engine integrates its costates with its own lockstep RK4
    # loop rather than through rk4_integrate_batch, so both count here.
    Probe("ode.rk4_batch", ("repro.ode.batch:rk4_integrate_batch",
                            "repro.bounds.pontryagin:_costate_sweep_batch")),
    Probe("ode.rk4_controlled_batch",
          ("repro.ode.batch:rk4_integrate_controlled_batch",)),
    Probe("ode.dopri_batch", ("repro.ode.batch:dopri_batch",)),
    Probe("ode.solve_ode", ("repro.ode.integrators:solve_ode",)),
    Probe("ode.fixed_point", ("repro.ode.integrators:find_fixed_point",
                              "repro.ode.batch:find_fixed_point_batch")),
    Probe("inclusion.extremizer",
          ("repro.inclusion.extremizers:DriftExtremizer."
           "maximize_direction_batch",
           "repro.inclusion.extremizers:DriftExtremizer."
           "velocity_envelope_batch"),
          rows=_rows(1)),
    Probe("population.drift_batch",
          ("repro.population.model:PopulationModel.drift_batch",),
          rows=_rows(1)),
    Probe("population.jacobian_batch",
          ("repro.population.model:PopulationModel.jacobian_x_batch",),
          rows=_rows(1)),
    Probe("population.drift",
          ("repro.population.model:PopulationModel.drift",)),
    Probe("steadystate.birkhoff",
          ("repro.steadystate.birkhoff:birkhoff_centre_2d",)),
    Probe("steadystate.hull_rect",
          ("repro.steadystate.hullbox:hull_steady_rectangle",)),
    Probe("steadystate.fixed_points",
          ("repro.steadystate.birkhoff:uncertain_fixed_points",)),
    Probe("ctmc.enumerate", ("repro.ctmc.enumeration:enumerate_lattice",)),
    Probe("ctmc.credal",
          ("repro.ctmc.interval_dtmc:IntervalDTMC.extreme_rows_batch",
           "repro.ctmc.interval_dtmc:IntervalDTMC.upper_operator_batch",
           "repro.ctmc.interval_dtmc:IntervalDTMC.uniformized_bounds",
           "repro.ctmc.interval_dtmc:IntervalDTMC."
           "stationary_expectation_bounds")),
    Probe("ctmc.kolmogorov",
          ("repro.ctmc.kolmogorov:imprecise_reward_bounds",)),
    Probe("engine.ensemble", ("repro.engine.vectorized:simulate_ensemble",)),
    Probe("engine.map_shards", ("repro.engine.sharding:map_shards",),
          rows=_pooled_payload_bytes),
)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


class LayerTracer:
    """Self-time accounting over the probes while :meth:`installed`."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        self._stack: List[List[float]] = []   # per active probe: [child_s]

    def _stat(self, key: str) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, probe: Probe, original: Callable,
              depth: List[int]) -> Callable:
        """The timing wrapper; ``depth`` is shared by the probe's targets.

        Kept lean: it runs on every drift evaluation of the lane engine.
        """
        stack, clock = self._stack, time.perf_counter
        split, rows_of = probe.split, probe.rows
        fixed = None if split is not None else self._stat(probe.name)

        @functools.wraps(original)
        def probed(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            stat = fixed if fixed is not None else \
                self._stat(f"{probe.name}.{split(args, kwargs)}")
            if rows_of is not None:
                stat.rows += rows_of(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[0] = 1
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] = 0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]

        return probed

    @contextmanager
    def installed(self):
        """Wrap every probe target for the duration of the block."""
        for probe in PROBES:
            for target in probe.targets:
                importlib.import_module(target.partition(":")[0])
        undo = []
        try:
            for probe in PROBES:
                depth = [0]
                for target in probe.targets:
                    undo.extend(self._install(probe, target, depth))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, probe: Probe, target: str, depth: List[int]):
        module_name, _, path = target.partition(":")
        module = sys.modules[module_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(probe, original, depth))
            return [(cls, meth, original)]
        original = getattr(module, path)
        wrapper = self._wrap(probe, original, depth)
        undo = []
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, original))
        if not undo:
            raise RuntimeError(f"probe target {target} is referenced nowhere")
        return undo


@dataclass
class LayerSample:
    """What one traced pass recorded."""

    wall_s: float
    stats: Dict[str, Stat]
    counters: Dict[str, float]

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def counter(self, name: str) -> float:
        return float(self.counters.get(name, 0))

    def question_s(self) -> float:
        return sum(s.total_s for k, s in self.stats.items()
                   if k.startswith("scenarios.question."))


@dataclass
class Context:
    """Inputs of the per-layer metrics of one traced round."""

    layer: LayerSample                 # the layer split (serial pass)
    pool: Optional[LayerSample]        # parent side of a pooled pass
    processes: int
    overhead_frac: float


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    value: Callable[[Context], float]
    moves: str = "wall_s"              # the end-to-end metric it should move
    workloads: Tuple[str, ...] = ()    # where it should move it
    zero_ok: bool = False              # zero is a correct reading

    def rationale(self) -> str:
        if not self.workloads:
            return "moves nothing"
        return f"-> {self.moves} @ {', '.join(self.workloads)}"


def _calls(probe):
    return lambda c: float(c.layer.stat(probe).calls)


def _self_s(probe):
    return lambda c: c.layer.stat(probe).self_s


def _total_s(key):
    return lambda c: c.layer.stat(key).total_s


def _rows_per_call(probe):
    def value(c):
        stat = c.layer.stat(probe)
        return stat.rows / stat.calls if stat.calls else 0.0
    return value


def _counter(name):
    return lambda c: c.layer.counter(name)


def _accept_ratio(c):
    accepted = c.layer.counter("ode.dopri.steps_accepted")
    tried = accepted + c.layer.counter("ode.dopri.steps_rejected")
    return accepted / tried if tried else 0.0


def _events_per_s(c):
    seconds = c.layer.stat("engine.ensemble").total_s
    return c.layer.counter("engine.ssa.events") / seconds if seconds else 0.0


def _pool(c) -> LayerSample:
    return c.pool if c.pool is not None else c.layer


def _parallel_efficiency(c):
    """Serial question-seconds over ``processes x`` pooled wall time."""
    if c.pool is None or c.processes <= 1:
        return 0.0
    return c.layer.question_s() / (c.processes * c.pool.wall_s)


METRICS: Tuple[Metric, ...] = tuple(
    Metric(*row) for row in (
        # scenarios: inclusive seconds per question kind
        ("scenarios.question_s.envelope", "s", "lower",
         _total_s("scenarios.question.envelope"), "wall_s", T),
        ("scenarios.question_s.pontryagin", "s", "lower",
         _total_s("scenarios.question.pontryagin"), "wall_s", T),
        ("scenarios.question_s.hull", "s", "lower",
         _total_s("scenarios.question.hull"), "wall_s", T),
        ("scenarios.question_s.template", "s", "lower",
         _total_s("scenarios.question.template"), "wall_s", S),
        ("scenarios.question_s.steadystate", "s", "lower",
         _total_s("scenarios.question.steadystate"), "wall_s", S),
        ("scenarios.question_s.dtmc_reward", "s", "lower",
         _total_s("scenarios.question.dtmc_reward"), "wall_s", S),
        ("scenarios.question_s.ensemble", "s", "lower",
         _total_s("scenarios.question.ensemble"), "wall_s", E),
        ("scenarios.cache.store_s", "s", "lower",
         _total_s("scenarios.cache.store"), "wall_s", E),
        # bounds
        ("bounds.lanes.calls", "count", "lower",
         _calls("bounds.lanes"), "wall_s", T),
        ("bounds.lanes.self_s", "s", "lower",
         _self_s("bounds.lanes"), "wall_s", T),
        ("bounds.envelope.self_s", "s", "lower",
         _self_s("bounds.envelope"), "wall_s", T),
        ("envelope.theta_solves", "count", "lower",
         _counter("envelope.theta_solves"), "wall_s", T),
        ("bounds.hull.self_s", "s", "lower",
         _self_s("bounds.hull"), "wall_s", T),
        ("hull.rhs_evals", "count", "lower",
         _counter("hull.rhs_evals"), "wall_s", T),
        ("bounds.scalar_sweep.calls", "count", "lower",
         _calls("bounds.scalar_sweep"), "wall_s", S),
        ("bounds.scalar_sweep.self_s", "s", "lower",
         _self_s("bounds.scalar_sweep"), "wall_s", S),
        ("bounds.templates.self_s", "s", "lower",
         _self_s("bounds.templates"), "wall_s", S),
        ("pontryagin.iterations", "count", "lower",
         _counter("pontryagin.iterations"), "wall_s", TS),
        # ode
        ("ode.rk4.steps", "count", "lower",
         _counter("ode.rk4.steps"), "wall_s", T),
        ("ode.rk4.rhs_evals", "count", "lower",
         _counter("ode.rk4.rhs_evals"), "wall_s", T),
        ("ode.rk4_batch.self_s", "s", "lower",
         _self_s("ode.rk4_batch"), "wall_s", T),
        ("ode.rk4_controlled_batch.self_s", "s", "lower",
         _self_s("ode.rk4_controlled_batch"), "wall_s", T),
        ("ode.dopri.rhs_evals", "count", "lower",
         _counter("ode.dopri.rhs_evals"), "wall_s", TS),
        ("ode.dopri.accept_ratio", "ratio", "higher",
         _accept_ratio, "wall_s", TS),
        ("ode.dopri_batch.self_s", "s", "lower",
         _self_s("ode.dopri_batch"), "wall_s", TS),
        ("ode.solve_ode.calls", "count", "lower",
         _calls("ode.solve_ode"), "wall_s", S),
        ("ode.solve_ode.self_s", "s", "lower",
         _self_s("ode.solve_ode"), "wall_s", S),
        ("ode.fixed_point.calls", "count", "lower",
         _calls("ode.fixed_point"), "wall_s", S),
        ("ode.fixed_point.self_s", "s", "lower",
         _self_s("ode.fixed_point"), "wall_s", S),
        # inclusion
        ("inclusion.extremizer.calls", "count", "lower",
         _calls("inclusion.extremizer"), "wall_s", TS),
        ("inclusion.extremizer.rows_per_call", "rows/call", "higher",
         _rows_per_call("inclusion.extremizer"), "wall_s", TS),
        ("inclusion.extremizer.self_s", "s", "lower",
         _self_s("inclusion.extremizer"), "wall_s", TS),
        # population
        ("population.drift_batch.calls", "count", "lower",
         _calls("population.drift_batch"), "wall_s", T),
        ("population.drift_batch.rows_per_call", "rows/call", "higher",
         _rows_per_call("population.drift_batch"), "wall_s", T),
        ("population.drift_batch.self_s", "s", "lower",
         _self_s("population.drift_batch"), "wall_s", T),
        ("population.jacobian_batch.calls", "count", "lower",
         _calls("population.jacobian_batch"), "wall_s", T),
        ("population.jacobian_batch.self_s", "s", "lower",
         _self_s("population.jacobian_batch"), "wall_s", T),
        ("population.drift.calls", "count", "lower",
         _calls("population.drift"), "wall_s", S),
        ("population.drift.self_s", "s", "lower",
         _self_s("population.drift"), "wall_s", S),
        # steadystate
        ("steadystate.birkhoff.self_s", "s", "lower",
         _self_s("steadystate.birkhoff"), "wall_s", S),
        ("steadystate.hull_rect.self_s", "s", "lower",
         _self_s("steadystate.hull_rect"), "wall_s", S),
        ("steadystate.fixed_points.self_s", "s", "lower",
         _self_s("steadystate.fixed_points"), "wall_s", S),
        # ctmc
        ("ctmc.enumerate.self_s", "s", "lower",
         _self_s("ctmc.enumerate"), "wall_s", S),
        ("ctmc.credal.operator_calls", "count", "lower",
         _counter("ctmc.credal.operator_calls"), "wall_s", S),
        ("ctmc.credal.knapsack_rows", "count", "lower",
         _counter("ctmc.credal.knapsack_rows"), "wall_s", S),
        ("ctmc.credal.self_s", "s", "lower",
         _self_s("ctmc.credal"), "wall_s", S),
        ("ctmc.kolmogorov.self_s", "s", "lower",
         _self_s("ctmc.kolmogorov"), "wall_s", S),
        # engine
        ("engine.ssa.events", "count", "lower",
         _counter("engine.ssa.events"), "wall_s", E),
        ("engine.ssa.events_per_s", "1/s", "higher",
         _events_per_s, "wall_s", E),
        ("engine.ensemble.self_s", "s", "lower",
         _self_s("engine.ensemble"), "wall_s", E),
        ("engine.map_shards.s", "s", "lower",
         lambda c: _pool(c).stat("engine.map_shards").total_s,
         "wall_s, cpu_s", E),
        ("engine.shard.payload_bytes", "bytes", "lower",
         lambda c: float(_pool(c).stat("engine.map_shards").rows),
         "wall_s, cpu_s", E),
        ("engine.pool.parallel_efficiency", "ratio", "higher",
         _parallel_efficiency, "wall_s, cpu_s", E),
        # resilience: failures, so zero is the correct reading
        ("resilience.shard.retries", "count", "lower",
         lambda c: _pool(c).counter("resilience.shard.retries"),
         "fail_frac", ALL_WORKLOADS, True),
        ("resilience.shard.failures", "count", "lower",
         lambda c: _pool(c).counter("resilience.shard.failures"),
         "fail_frac", ALL_WORKLOADS, True),
        ("resilience.question_failures", "count", "lower",
         lambda c: (c.layer.counter("resilience.question_failures")
                    + (c.pool.counter("resilience.question_failures")
                       if c.pool is not None else 0.0)),
         "fail_frac", ALL_WORKLOADS, True),
        # telemetry: validates the traced run, moves nothing
        ("trace.overhead_frac", "ratio", "lower",
         lambda c: c.overhead_frac, "", (), True),
    )
)


def layer_metrics(ctx: Context) -> Dict[str, float]:
    """Every per-layer metric of one traced round, by name."""
    return {m.name: float(m.value(ctx)) for m in METRICS}


def silent_zeros(values: Dict[str, float], workload: str) -> List[str]:
    """Metrics listed under ``workload`` that read zero there."""
    return [m.name for m in METRICS
            if workload in m.workloads and not m.zero_ok
            and not values[m.name] > 0.0]
