"""High-throughput ensemble simulation of finite-``N`` imprecise chains.

- :func:`simulate_ensemble` — the library's one SSA kernel: all
  ``n_runs`` trajectories step together as ``(n_runs, d)`` arrays,
  with batched rate evaluation, batched exponential clocks/event
  selection from a single generator, and per-row policy state held in
  vectorized :mod:`~repro.engine.lanes`.
  :func:`~repro.simulation.batch_simulate` is an ensemble view of it
  and :func:`~repro.simulation.simulate` a one-row view.
- :func:`sweep_constant_ensembles` — multiprocessing sharding of
  parameter sweeps, one vectorized ensemble per ``theta`` grid point.
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
