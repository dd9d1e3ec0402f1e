"""High-throughput ensemble simulation of finite-``N`` imprecise chains.

``repro.engine`` is the scale layer above the scalar SSA kernel of
:mod:`repro.simulation`:

- :func:`simulate_ensemble` — the vectorized multi-trajectory engine:
  all ``n_runs`` trajectories step together as ``(n_runs, d)`` arrays,
  with batched rate evaluation, batched exponential clocks/event
  selection from a single generator, and per-row policy state held in
  vectorized :mod:`~repro.engine.lanes`.
- :func:`sweep_constant_ensembles` — multiprocessing sharding of
  parameter sweeps, one vectorized ensemble per ``theta`` grid point.

:func:`~repro.simulation.batch_simulate` delegates every ensemble of
more than one run here.
"""

from repro.engine.lanes import PolicyLane, build_lane
from repro.engine.sharding import map_shards, sweep_constant_ensembles
from repro.engine.vectorized import simulate_ensemble

__all__ = [
    "simulate_ensemble",
    "sweep_constant_ensembles",
    "map_shards",
    "PolicyLane",
    "build_lane",
]
