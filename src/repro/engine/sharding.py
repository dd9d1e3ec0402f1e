"""The library's one fan-out primitive, and sharded ensemble sweeps.

:func:`map_shards` maps a function over picklable payloads, in-process
or over a process pool, results in input order, under one execution
policy, ``on_error`` (see :mod:`repro.resilience.execution`).  The
ensemble sweep below and the scenario runner's questions shard through
it.

The vectorized engine removes the per-event Python overhead *within*
one ensemble; parameter sweeps (one ensemble per ``theta`` grid point,
the uncertain-scenario workload of Definition 2) are embarrassingly
parallel *across* ensembles.  :func:`sweep_constant_ensembles` splits
its grid into chunks of consecutive points, one :func:`map_shards` task
per chunk (one chunk per worker), and a task runs its chunk as the row
blocks of a single :func:`~repro.engine.simulate_ensemble` call, so the
engine steps every point of the chunk in each loop iteration.

Each grid point keeps its own stream: point ``i`` draws from the
``i``-th spawn of one :class:`numpy.random.SeedSequence`, and its block
reproduces the standalone ensemble on that stream bit for bit, so the
sweep is reproducible for a fixed ``seed`` regardless of how the points
are chunked or how many processes run them.

Because population models carry closures (rate lambdas) they do not
pickle; each worker therefore rebuilds the model from a *module-level
factory* (``make_sir_model`` et al.) plus keyword arguments, which is
also what keeps the sharding compatible with spawn start methods.
"""

from __future__ import annotations

import pickle
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.engine.vectorized import simulate_ensemble
from repro.resilience.execution import run_shards
from repro.simulation.batch import BatchResult, as_count
from repro.simulation.policies import ControlPolicy

__all__ = ["map_shards", "sweep_constant_ensembles"]


def _meter_payloads(payloads: Sequence, initializer: Optional[Callable],
                    initargs: tuple) -> None:
    """Pickled payload sizes (and the once-per-worker context size)
    onto the telemetry registry; a no-op while telemetry is off."""
    payload_hist = telemetry.live_histogram("engine.shard.payload_bytes")
    if payload_hist is None:
        return
    shared_hist = telemetry.live_histogram("engine.shard.shared_bytes")
    unpicklable = telemetry.live_counter("engine.shard.unpicklable_payloads")
    if initializer is not None:
        try:
            shared_hist.observe(len(pickle.dumps(initargs)))
        except Exception:
            unpicklable.inc()
    for p in payloads:
        try:
            size = len(pickle.dumps(p))
        except Exception:
            # The serial path never required picklable payloads;
            # observability must not start requiring it either — the
            # skip is stamped on a counter and size metering stops.
            unpicklable.inc()
            break
        payload_hist.observe(size)


def map_shards(fn: Callable, payloads: Sequence,
               processes: Optional[int] = None,
               initializer: Optional[Callable] = None,
               initargs: tuple = (),
               on_error: str = "raise") -> List:
    """Map ``fn`` over picklable payloads, optionally across a process pool.

    The one fan-out primitive of the library: results come back in
    input order, and ``processes`` of ``None`` / ``1`` (or a single
    payload) runs the shards in-process with no pool.  Both the
    ensemble parameter sweep below and the scenario runner
    (:func:`repro.scenarios.run_scenario`) shard through here, so
    worker-count invariance is tested once for all of them: ``fn`` must
    be deterministic per payload (any randomness derived from a seed
    carried *inside* the payload).

    ``initializer`` / ``initargs`` follow the
    :class:`concurrent.futures.ProcessPoolExecutor` contract:
    shard-invariant context (a model factory, a frozen sweep
    configuration) is pickled **once per worker** instead of once per
    payload, which is what keeps per-shard payloads small on wide
    sweeps.  The serial path calls the initializer once in-process, so
    ``fn`` sees the same worker-context protocol either way.

    Each shard runs once.  ``on_error="raise"`` (the default) propagates
    the error of the lowest-index failing shard, on either path;
    ``on_error="partial"`` leaves a typed
    :class:`~repro.resilience.ShardFailure` in each failed slot instead
    of aborting the fan-out (see :mod:`repro.resilience.execution`).

    With telemetry enabled, per-shard wall time and pickled payload
    size land on the registry as the ``engine.shard.seconds`` /
    ``engine.shard.payload_bytes`` histograms, and the one-time worker
    context size on the ``engine.shard.shared_bytes`` histogram.
    """
    if on_error not in ("raise", "partial"):
        raise ValueError(
            f"on_error must be 'raise' or 'partial', got {on_error!r}"
        )
    payloads = list(payloads)
    serial = processes is None or processes <= 1 or len(payloads) <= 1
    with telemetry.span("engine.map_shards", shards=len(payloads),
                        processes=1 if serial else processes):
        _meter_payloads(payloads, initializer, initargs)
        return run_shards(fn, payloads, None if serial else processes,
                          on_error, initializer, initargs)


#: Per-worker sweep context installed by :func:`_init_sweep_worker`:
#: ``(population, sweep_config)``.  Module-global by necessity —
#: a pool worker has no other channel from the initializer to the task
#: function — and rebuilt wholesale by the next sweep's initializer.
_SWEEP_CONTEXT = None


def _init_sweep_worker(shared) -> None:
    """Build the shard-invariant sweep state once per worker process.

    ``shared`` carries the model factory, every shard-invariant sweep
    argument, the grid and the spawned seed sequences.  The factory
    runs *here*, so each worker constructs (and each pool pickles) the
    model exactly once, no matter how many chunks it processes;
    per-shard payloads shrink to a ``(start, stop)`` range of grid
    points.
    """
    global _SWEEP_CONTEXT
    (model_factory, model_kwargs, x0, population_size, *_) = shared
    model = model_factory(**model_kwargs)
    population = model.instantiate(population_size, x0)
    _SWEEP_CONTEXT = (population, shared)


class _GridPolicy(ControlPolicy):
    """Grid point ``r // n_runs`` frozen on row ``r``: one constant
    ``theta`` per block of ``n_runs`` rows."""

    def __init__(self, grid: np.ndarray, n_runs: int):
        self._grid = grid
        self._n_runs = n_runs

    def theta(self, rows, t, x):
        return self._grid[rows // self._n_runs]


def _run_chunk(span) -> List[BatchResult]:
    """Grid points ``start`` to ``stop`` as the blocks of one ensemble,
    point ``i`` on its own spawned stream; one result per point."""
    start, stop = span
    population, shared = _SWEEP_CONTEXT
    (*_, t_final, n_runs, n_samples, t_start, max_events, grid,
     seed_seqs) = shared
    try:
        batch = simulate_ensemble(
            population,
            _GridPolicy(grid[start:stop], n_runs),
            t_final,
            n_runs=(stop - start) * n_runs,
            rng=[np.random.default_rng(s) for s in seed_seqs[start:stop]],
            n_samples=n_samples,
            t_start=t_start,
            max_events=max_events,
        )
    except RuntimeError as exc:
        if not start:
            raise
        # The engine numbers this call's blocks from 0.
        raise RuntimeError(
            f"{exc} (block b is grid point {start} + b)"
        ) from exc
    return [batch.runs(k * n_runs, (k + 1) * n_runs)
            for k in range(stop - start)]


def sweep_constant_ensembles(
    model_factory: Callable,
    x0,
    population_size: int,
    thetas,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
    processes: Optional[int] = None,
    model_kwargs: Optional[dict] = None,
) -> List[BatchResult]:
    """Run one vectorized ensemble per ``theta`` grid point.

    The grid is split into ``min(processes or 1, n_points)`` chunks of
    consecutive points, one :func:`map_shards` task each; a task runs
    its chunk as the row blocks of one
    :func:`~repro.engine.simulate_ensemble` call, each point's block on
    that point's own stream.  A failing grid point raises, whatever
    ``processes`` is; a scenario isolates it per question
    (``run_scenario(..., on_error="partial")``).

    Parameters
    ----------
    model_factory:
        Module-level model constructor (e.g. ``make_sir_model``); called
        as ``model_factory(**model_kwargs)`` inside each worker.
    x0, population_size:
        Initial density and chain size shared by all shards.
    thetas:
        Grid of frozen parameters, shape ``(n_points, p)`` — typically
        ``model.theta_set.grid(resolution)``.  A 1-D sequence is
        interpreted as ``n_points`` *scalar* grid points (shape
        ``(n_points, 1)``); multi-dimensional parameter sets must pass
        the 2-D form.
    t_final, n_runs, n_samples, t_start, max_events:
        Forwarded to :func:`~repro.engine.simulate_ensemble`; ``n_runs``
        rows per grid point.
    seed:
        Root seed (or a pre-built :class:`numpy.random.SeedSequence`);
        grid point ``i`` draws from the ``i``-th spawn of the root
        sequence, so its ensemble equals a standalone
        ``simulate_ensemble`` call on that stream bit for bit, and for
        a fixed seed the results are identical regardless of
        ``processes``.
    processes:
        ``None`` or ``1`` runs the whole grid in-process as one chunk
        (no pool overhead — the right choice on single-core boxes and
        inside tests); larger values fan the chunks out over a pool.

    Returns
    -------
    One :class:`~repro.simulation.BatchResult` per grid point, in input
    order.
    """
    theta_grid = np.asarray(thetas, dtype=float)
    if theta_grid.ndim == 1:
        # A flat sequence is a list of scalar grid points, not a single
        # multi-dimensional point.
        theta_grid = theta_grid[:, None]
    if theta_grid.ndim != 2:
        raise ValueError(
            f"thetas must be (n_points, p) or a 1-D sequence of scalars, "
            f"got shape {theta_grid.shape}"
        )
    n_points = theta_grid.shape[0]
    if n_points == 0:
        raise ValueError("thetas must contain at least one grid point")
    if not callable(model_factory):
        raise TypeError("model_factory must be callable")
    counts = [as_count(name, value) for name, value in (
        ("population_size", population_size), ("n_runs", n_runs),
        ("n_samples", n_samples), ("max_events", max_events))]
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    shared = (model_factory, dict(model_kwargs or {}),
              np.asarray(x0, dtype=float), counts[0], float(t_final),
              counts[1], counts[2], float(t_start), counts[3], theta_grid,
              tuple(root.spawn(n_points)))
    n_chunks = min(max(processes or 1, 1), n_points)
    cuts = [n_points * k // n_chunks for k in range(n_chunks + 1)]
    spans = list(zip(cuts, cuts[1:]))
    chunks = map_shards(_run_chunk, spans, processes,
                        initializer=_init_sweep_worker, initargs=(shared,))
    return [result for chunk in chunks for result in chunk]
