"""Workloads of the catalog benchmark: question-kind selections over the registry.

Each workload is an :class:`~repro.scenarios.AnalysisPlan` kind selection
applied to every registered scenario that has at least one question of
those kinds.  Together the three workloads cover every question kind of
the catalog:

``transient``
    the ``envelope``/``pontryagin``/``hull`` questions, serial, cache
    bypassed -- the lane engine (batched RK4, extremizer re-max,
    ``drift_batch``/``jacobian_x_batch``) carries the load.
``steady-finite``
    the ``template``/``steadystate``/``dtmc_reward`` questions, serial,
    cache bypassed -- the scalar Pontryagin sweep, scipy-backed Birkhoff
    integrations, hull-rectangle fixed points and credal operators.
``ensemble-pooled``
    every question of the scenarios carrying an ``ensemble`` question,
    fanned over ``min(2, nproc)`` pool workers into a fresh cache
    directory per pass -- the vectorized SSA engine, the shard pool and
    cache writes.

Seed 0 runs the catalog exactly as registered.  Any other seed draws,
per scenario, model-kwarg overrides inside the spec's declared
``validity`` ranges plus fresh ensemble seeds.  The kwarg draw is
confined to a window of :data:`OVERRIDE_WINDOW` of the range width
around the registered value (clipped to the range), so every seed asks
a comparable amount of work and the seed-to-seed spread of the timings
measures noise rather than a different workload: the forward-backward
sweep count is sensitive to the parameters, and a 2% window already
moved the Pontryagin iterations of ``transient`` across 589-839.
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.scenarios import AnalysisPlan, Question, ScenarioSpec, list_scenarios

__all__ = ["Workload", "WORKLOADS", "OVERRIDE_WINDOW", "workload_specs",
           "seeded_spec", "plan_for"]

#: Half-width of the seeded kwarg window, as a share of the validity range.
OVERRIDE_WINDOW = 0.002


@dataclass(frozen=True)
class Workload:
    """One question-kind selection over the registered catalog."""

    name: str
    kinds: Optional[Tuple[str, ...]]   # AnalysisPlan.kinds (None: all)
    requires: Tuple[str, ...]          # a scenario joins if it has one of these
    pooled: bool                       # process pool + fresh cache per pass


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("transient", ("envelope", "pontryagin", "hull"),
                 ("envelope", "pontryagin", "hull"), False),
        Workload("steady-finite", ("template", "steadystate", "dtmc_reward"),
                 ("template", "steadystate", "dtmc_reward"), False),
        Workload("ensemble-pooled", None, ("ensemble",), True),
    )
}


def _registered_value(spec: ScenarioSpec, key: str) -> float:
    """The kwarg value the registered spec builds its model with."""
    kwargs = spec.kwargs
    if key in kwargs:
        return float(kwargs[key])
    return float(inspect.signature(spec.model_factory).parameters[key].default)


def seeded_spec(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """The spec as the workload seed asks for it (seed 0: as registered).

    The draw depends only on ``(seed, spec.name)``, so a scenario that
    appears in several workloads gets the same overrides in each.
    """
    if seed == 0:
        return spec
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    overrides = {}
    for key, (low, high) in sorted(spec.validity_ranges.items()):
        low, high = float(low), float(high)
        centre = min(max(_registered_value(spec, key), low), high)
        half = OVERRIDE_WINDOW * (high - low)
        overrides[key] = float(rng.uniform(max(low, centre - half),
                                           min(high, centre + half)))
    questions = tuple(
        Question(q.kind, options={**q.opts,
                                  "seed": int(rng.integers(1, 2**31 - 1))},
                 label=q.label)
        if q.kind == "ensemble" else q
        for q in spec.questions
    )
    changes = {"questions": questions}
    if overrides:
        changes["model_kwargs"] = overrides
    return spec.with_overrides(**changes)


def workload_specs(workload: Workload, seed: int,
                   limit: Optional[int] = None) -> List[ScenarioSpec]:
    """The (seeded) registered specs a workload runs, sorted by name."""
    specs = [s for s in list_scenarios()
             if any(q.kind in workload.requires for q in s.questions)]
    if limit is not None:
        specs = specs[:limit]
    return [seeded_spec(s, seed) for s in specs]


def plan_for(workload: Workload, processes: int,
             cache_dir: Optional[str]) -> AnalysisPlan:
    """The execution plan of one workload pass (failures isolated)."""
    return AnalysisPlan(
        use_cache=workload.pooled,
        cache_dir=cache_dir,
        processes=processes if workload.pooled else None,
        kinds=workload.kinds,
        on_error="partial",
    )
