"""The shard executor behind :func:`repro.engine.map_shards`.

:func:`run_shards` maps a function over payloads and returns the
results in input order, in-process or over a
:class:`concurrent.futures.ProcessPoolExecutor`:

- **Every shard submitted up front.**  The pool path submits all
  payloads at once, then reads the futures in input order.  A worker
  starts its next shard without a round trip through the parent, and
  the parent sleeps in ``Future.result()`` while the workers run.
- **One execution policy, ``on_error``.**  Under ``"raise"`` the error
  of the lowest-index failing shard propagates, so the error raised
  does not depend on which shard finishes first and is the one the
  serial path raises.  Under ``"partial"`` a raising shard leaves a
  :class:`~repro.resilience.ShardFailure` of kind ``"error"`` in its
  slot, and every other slot keeps its result.
- **Worker death.**  A worker that dies (OOM kill, segfault,
  ``os._exit``) breaks the pool.  Under ``"partial"`` every slot
  without a result gets a ``"pool-crash"`` failure; under ``"raise"``
  the ``BrokenProcessPool`` propagates.
- **Teardown.**  The workers are killed once the last result is read,
  or as soon as an error propagates, so no worker outlives the call.

Each shard runs once.  When no pool can be built (a host without
``/dev/shm`` or semaphores), the shards run serially after a
once-per-process warning.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro import telemetry
from repro.resilience.failures import ShardFailure

__all__ = ["run_shards"]

#: Pool-unavailable warnings fire once per process, not once per sweep.
_pool_warned = False


def _warn_pool_unavailable(exc: BaseException) -> None:
    """Stamp + warn (once) that shards degrade to the serial path."""
    global _pool_warned
    telemetry.inc("engine.shard.pool_unavailable")
    if not _pool_warned:
        _pool_warned = True
        warnings.warn(
            f"process pool unavailable ({exc}); running shards serially",
            RuntimeWarning, stacklevel=3,
        )


def _timed(fn: Callable, payload):
    """One shard in a worker: ``(seconds, result)``.  The telemetry
    registry is process-local, so the worker's wall time rides back
    with the result."""
    start = time.perf_counter()
    result = fn(payload)
    return time.perf_counter() - start, result


def _new_executor(pool_size: int, initializer,
                  initargs) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=pool_size,
                               initializer=initializer, initargs=initargs)


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down *now*: workers still running a shard (of a
    fan-out an error aborts) are killed, not joined."""
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.kill()
    executor.shutdown(wait=False, cancel_futures=True)


def _failure(index: int, exc: BaseException, kind: str, on_error: str,
             elapsed: float) -> ShardFailure:
    """The slot of a failed shard; under ``"raise"`` its error instead."""
    if on_error == "raise":
        raise exc
    telemetry.inc("resilience.shard.failures")
    return ShardFailure(index=index, error_type=type(exc).__name__,
                        message=str(exc), kind=kind,
                        elapsed_seconds=elapsed)


def _record(shard_seconds: List[float]) -> None:
    if telemetry.enabled():
        telemetry.inc("engine.shard.calls", len(shard_seconds))
        telemetry.observe_many("engine.shard.seconds", shard_seconds)


def run_shards(fn: Callable, payloads: Sequence, processes: Optional[int],
               on_error: str, initializer: Optional[Callable],
               initargs: tuple) -> List:
    """Run ``fn`` over ``payloads``, results in input order.

    ``processes`` of ``None`` runs the shards in-process; otherwise a
    pool of ``min(processes, len(payloads))`` workers does.  Under
    ``on_error="partial"`` the returned list may hold
    :class:`ShardFailure` records in the slots of failed shards.
    """
    if processes is not None:
        try:
            executor = _new_executor(min(processes, len(payloads)),
                                     initializer, initargs)
        except (OSError, ImportError) as exc:
            # Hosts without /dev/shm or semaphores fail at executor
            # construction; run serially rather than crash.
            _warn_pool_unavailable(exc)
        else:
            return _run_pool(executor, fn, payloads, on_error)
    return _run_serial(fn, payloads, on_error, initializer, initargs)


def _run_serial(fn, payloads, on_error, initializer, initargs) -> List:
    if initializer is not None:
        initializer(*initargs)
    errors = telemetry.live_counter("resilience.shard.errors")
    results: List = []
    shard_seconds: List[float] = []
    for idx, payload in enumerate(payloads):
        start = time.perf_counter()
        try:
            value = fn(payload)
        except Exception as exc:
            if errors is not None:
                errors.inc()
            value = _failure(idx, exc, "error", on_error,
                             time.perf_counter() - start)
        else:
            shard_seconds.append(time.perf_counter() - start)
        results.append(value)
    _record(shard_seconds)
    return results


def _run_pool(executor, fn, payloads, on_error) -> List:
    errors = telemetry.live_counter("resilience.shard.errors")
    results: List = []
    shard_seconds: List[float] = []
    submitted = time.monotonic()
    try:
        futures = []
        broken: Optional[BrokenProcessPool] = None
        try:
            for payload in payloads:
                futures.append(executor.submit(_timed, fn, payload))
        except BrokenProcessPool as exc:
            # A worker died before every shard was handed out.
            broken = exc
        for idx, future in enumerate(futures):
            try:
                seconds, value = future.result()
            except BrokenProcessPool as exc:
                value = _failure(idx, exc, "pool-crash", on_error,
                                 time.monotonic() - submitted)
            except Exception as exc:
                if errors is not None:
                    errors.inc()
                value = _failure(idx, exc, "error", on_error,
                                 time.monotonic() - submitted)
            else:
                shard_seconds.append(seconds)
            results.append(value)
        for idx in range(len(futures), len(payloads)):
            results.append(_failure(idx, broken, "pool-crash", on_error,
                                    time.monotonic() - submitted))
    finally:
        _kill_executor(executor)
    _record(shard_seconds)
    return results
