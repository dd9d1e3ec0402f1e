"""High-throughput ensemble simulation of finite-``N`` imprecise chains.

- :func:`simulate_ensemble` — the library's one SSA kernel: all
  ``n_runs`` trajectories step together as ``(n_runs, d)`` arrays,
  with batched rate evaluation, batched exponential clocks/event
  selection from one generator per block of rows, and per-row policy
  state held in the :class:`~repro.simulation.ControlPolicy` as arrays.
  :func:`~repro.simulation.simulate` is a one-row view of it.
- :func:`sweep_constant_ensembles` — parameter sweeps, one ensemble per
  ``theta`` grid point on its own stream, run as chunks of consecutive
  points (one per worker process), each chunk as the row blocks of one
  :func:`simulate_ensemble` call.
"""

from repro.engine.sharding import map_shards, sweep_constant_ensembles
from repro.engine.vectorized import simulate_ensemble

__all__ = [
    "simulate_ensemble",
    "sweep_constant_ensembles",
    "map_shards",
]
