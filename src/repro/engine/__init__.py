"""High-throughput ensemble simulation of finite-``N`` imprecise chains.

- :func:`simulate_ensemble` — the library's one SSA kernel: all
  ``n_runs`` trajectories step together as ``(n_runs, d)`` arrays,
  with batched rate evaluation, batched exponential clocks/event
  selection from a single generator, and per-row policy state held in
  the :class:`~repro.simulation.ControlPolicy` as arrays.
  :func:`~repro.simulation.simulate` is a one-row view of it.
- :func:`sweep_constant_ensembles` — multiprocessing sharding of
  parameter sweeps, one vectorized ensemble per ``theta`` grid point.
"""

from repro.engine.sharding import map_shards, sweep_constant_ensembles
from repro.engine.vectorized import simulate_ensemble

__all__ = [
    "simulate_ensemble",
    "sweep_constant_ensembles",
    "map_shards",
]
