"""Multiprocessing sharding for ensemble parameter sweeps.

The vectorized engine removes the per-event Python overhead *within*
one ensemble; parameter sweeps (one ensemble per ``theta`` grid point,
the uncertain-scenario workload of Definition 2) are embarrassingly
parallel *across* ensembles.  :func:`sweep_constant_ensembles` shards a
sweep one-grid-point-per-task through :func:`map_shards`.

Because population models carry closures (rate lambdas) they do not
pickle; each shard therefore rebuilds its model in the worker from a
*module-level factory* (``make_sir_model`` et al.) plus keyword
arguments, which is also what keeps the sharding compatible with spawn
start methods.  Shard seeds are spawned from one
:class:`numpy.random.SeedSequence`, so streams are independent and the
sweep is reproducible for a fixed ``seed`` regardless of process count.
"""

from __future__ import annotations

import operator
import pickle
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import telemetry
from repro.engine.vectorized import simulate_ensemble
from repro.resilience.execution import run_shards
from repro.resilience.policy import RetryPolicy
from repro.simulation.batch import BatchResult
from repro.simulation.policies import ConstantPolicy

__all__ = ["FAIL_FAST", "map_shards", "sweep_constant_ensembles"]

#: :func:`map_shards`' default policy: one attempt per shard, and the
#: first shard error propagates to the caller.
FAIL_FAST = RetryPolicy(max_attempts=1, on_error="raise")


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
               policy: Optional[RetryPolicy] = None) -> List:
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

    ``policy`` (a :class:`repro.resilience.RetryPolicy`, default
    :data:`FAIL_FAST`) governs execution: bounded retries with
    deterministic backoff, per-shard timeouts, worker-death recovery,
    and — under ``on_error="partial"`` — typed
    :class:`~repro.resilience.ShardFailure` records in the failed slots
    instead of an aborted fan-out (see :mod:`repro.resilience.execution`).

    With telemetry enabled, per-shard wall time and pickled payload
    size land on the registry as the ``engine.shard.seconds`` /
    ``engine.shard.payload_bytes`` histograms, and the one-time worker
    context size on the ``engine.shard.shared_bytes`` histogram.
    """
    payloads = list(payloads)
    serial = processes is None or processes <= 1 or len(payloads) <= 1
    with telemetry.span("engine.map_shards", shards=len(payloads),
                        processes=1 if serial else processes):
        _meter_payloads(payloads, initializer, initargs)
        return run_shards(fn, payloads, None if serial else processes,
                          policy or FAIL_FAST, initializer, initargs)


#: Per-worker sweep context installed by :func:`_init_sweep_worker`:
#: ``(population, sweep_config)``.  Module-global by necessity —
#: a pool worker has no other channel from the initializer to the task
#: function — and rebuilt wholesale by the next sweep's initializer.
_SWEEP_CONTEXT = None


def _init_sweep_worker(shared) -> None:
    """Build the shard-invariant sweep state once per worker process.

    ``shared`` carries the model factory and every shard-invariant
    sweep argument.  The factory runs *here*, so each worker constructs
    (and each pool pickles) the model exactly once, no matter how many
    ``theta`` grid points it processes; per-shard payloads shrink to
    ``(theta, seed_seq)``.
    """
    global _SWEEP_CONTEXT
    (model_factory, model_kwargs, x0, population_size, *_) = shared
    model = model_factory(**model_kwargs)
    population = model.instantiate(population_size, x0)
    _SWEEP_CONTEXT = (population, shared)


def _run_shard(payload) -> BatchResult:
    theta, seed_seq = payload
    population, shared = _SWEEP_CONTEXT
    (_, _, _, _, t_final, n_runs, n_samples, t_start, max_events) = shared
    return simulate_ensemble(
        population,
        ConstantPolicy(theta),
        t_final,
        n_runs=n_runs,
        rng=np.random.default_rng(seed_seq),
        n_samples=n_samples,
        t_start=t_start,
        max_events=max_events,
    )


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
    policy: Optional[RetryPolicy] = None,
) -> List[BatchResult]:
    """Run one vectorized ensemble per ``theta`` grid point.

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
        Forwarded to :func:`~repro.engine.simulate_ensemble` per shard.
    seed:
        Root seed (or a pre-built :class:`numpy.random.SeedSequence`);
        shard ``i`` draws from the ``i``-th spawn of the root sequence,
        so for a fixed seed the per-shard streams — and therefore the
        results — are identical regardless of ``processes``.
    processes:
        ``None`` or ``1`` runs the shards serially in-process (no pool
        overhead — the right choice on single-core boxes and inside
        tests); larger values fan the shards out over a pool.
    policy:
        Optional :class:`repro.resilience.RetryPolicy` handed to
        :func:`map_shards` (default :data:`FAIL_FAST`); with
        ``on_error="partial"`` failed grid points come back as
        :class:`~repro.resilience.ShardFailure` records in their slots.

    Returns
    -------
    One :class:`~repro.simulation.BatchResult` per grid point, in input
    order.
    """
    theta_grid = np.asarray(thetas, dtype=float)
    if theta_grid.ndim == 1:
        # A flat sequence is a list of scalar grid points, one shard
        # each — not a single multi-dimensional point.
        theta_grid = theta_grid[:, None]
    if theta_grid.ndim != 2:
        raise ValueError(
            f"thetas must be (n_points, p) or a 1-D sequence of scalars, "
            f"got shape {theta_grid.shape}"
        )
    if theta_grid.shape[0] == 0:
        raise ValueError("thetas must contain at least one grid point")
    if not callable(model_factory):
        raise TypeError("model_factory must be callable")
    counts = []
    for name, value in (("population_size", population_size),
                        ("n_runs", n_runs), ("n_samples", n_samples),
                        ("max_events", max_events)):
        try:  # a fractional count raises instead of being truncated
            counts.append(operator.index(value))
        except TypeError as exc:
            raise TypeError(f"{name} must be an integer, got {value!r}") from exc
    root = (seed if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed))
    seed_seqs = root.spawn(theta_grid.shape[0])
    shared = (model_factory, dict(model_kwargs or {}),
              np.asarray(x0, dtype=float), counts[0], float(t_final),
              counts[1], counts[2], float(t_start), counts[3])
    payloads = [
        (theta_grid[i], seed_seqs[i]) for i in range(theta_grid.shape[0])
    ]
    return map_shards(_run_shard, payloads, processes,
                      initializer=_init_sweep_worker, initargs=(shared,),
                      policy=policy)
