"""The shard executor behind :func:`repro.engine.map_shards`.

A plain ``Pool.map`` has all-or-nothing semantics: one raising
payload, one hung worker or one OOM kill aborts the whole fan-out and
discards every finished shard.  :func:`run_shards` runs every fan-out
of the library under a :class:`~repro.resilience.RetryPolicy` instead
(``map_shards`` defaults to one attempt with ``on_error="raise"``):

- **Async submission, per-task collection.**  Shards go through a
  :class:`concurrent.futures.ProcessPoolExecutor` one task per shard,
  at most one task per worker in flight, so each shard has its own
  wall-clock deadline and its own retry budget.
- **Typed failures, not aborts.**  Under ``on_error="partial"`` a shard
  that exhausts its attempts yields a
  :class:`~repro.resilience.ShardFailure` in its result slot; every
  other slot keeps its real result.  Under ``on_error="raise"`` the
  final error propagates (after any retries).
- **Pool death recovery.**  A crashed/OOM-killed worker surfaces as
  ``BrokenProcessPool``; the executor is rebuilt and outstanding shards
  resubmitted.  Blame is only assigned when exactly one task was in
  flight — otherwise nobody is charged an attempt and the pool enters
  *quarantine* (one worker, one task in flight) where the next death
  identifies the culprit exactly.  Rebuilds are bounded by
  ``policy.max_pool_rebuilds``.
- **Timeout reclamation.**  A shard past ``policy.timeout_seconds`` is
  charged a ``timeout`` attempt and its worker killed (the only way to
  preempt arbitrary Python); innocent shards interrupted by the pool
  kill get their attempt refunded, which also keeps fault injection —
  keyed on ``(index, attempt)`` — deterministic across rebuilds.
- **Determinism.**  Backoff is the policy's pure schedule, fault
  decisions are pure in ``(index, attempt)``, and results keep input
  order — a recovered sweep is reproducible on any worker count.

The serial path mirrors the retry/backoff/partial semantics in-process;
it cannot preempt a running payload, so ``timeout_seconds`` is ignored
there (documented on :class:`~repro.resilience.RetryPolicy`).
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, CancelledError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

from repro import telemetry
from repro.resilience import faults
from repro.resilience.policy import RetryPolicy, ShardFailure

__all__ = ["run_shards"]

#: Seam for tests: the one sleep primitive of the resilience layer
#: (serial backoff and idle waits).  Monkeypatching ``execution._sleep``
#: captures the exact deterministic backoff schedule without waiting.
_sleep = time.sleep

#: Pool-unavailable warnings fire once per process, not once per sweep.
_pool_warned = False


class _PoolUnavailable(RuntimeError):
    """Process-pool creation failed (sandboxed env, missing semaphores)."""


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


class _ShardTask:
    """Picklable per-attempt wrapper executed inside the worker.

    Carries the parent's fault plan across the pool boundary and
    re-arms it (:func:`repro.resilience.faults.activate`) so seams
    inside the payload — and the shard-level fault itself — behave
    identically to the serial path.  Returns ``(seconds, result)``:
    the telemetry registry is process-local, so worker-side wall time
    must ride back with the result.
    """

    __slots__ = ("fn", "plan")

    def __init__(self, fn: Callable, plan) -> None:
        self.fn = fn
        self.plan = plan

    def __call__(self, pack):
        index, attempt, payload = pack
        with faults.activate(self.plan) as plan:
            if plan is not None:
                faults.apply_shard_fault(plan, index, attempt)
            start = time.perf_counter()
            result = self.fn(payload)
            return time.perf_counter() - start, result


def _new_executor(pool_size: int, initializer,
                  initargs) -> ProcessPoolExecutor:
    try:
        return ProcessPoolExecutor(max_workers=pool_size,
                                   initializer=initializer,
                                   initargs=initargs)
    except (OSError, ImportError) as exc:
        raise _PoolUnavailable(str(exc)) from exc


def _kill_executor(executor: ProcessPoolExecutor) -> None:
    """Tear an executor down *now*: hung or doomed workers get killed,
    not joined (joining a worker asleep in an injected hang — or a real
    one — would wait the hang out, defeating the timeout)."""
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.kill()
    executor.shutdown(wait=False, cancel_futures=True)


def run_shards(fn: Callable, payloads: Sequence, processes: Optional[int],
               policy: RetryPolicy, initializer: Optional[Callable],
               initargs: tuple) -> List:
    """Run ``fn`` over ``payloads`` under ``policy``, results in input order.

    ``processes`` of ``None`` runs the shards in-process; otherwise a
    pool of ``min(processes, len(payloads))`` workers does.  Under
    ``policy.on_error="partial"`` the returned list may contain
    :class:`ShardFailure` records in the slots of shards that exhausted
    their attempts.
    """
    plan = faults.active_plan()
    if processes is None:
        return _run_serial(fn, payloads, policy, initializer, initargs,
                           plan)
    try:
        return _run_pool(fn, payloads, min(processes, len(payloads)),
                         policy, initializer, initargs, plan)
    except _PoolUnavailable as exc:
        # Sandboxed environments (no /dev/shm, no semaphores) fail at
        # executor construction; degrade to the serial path rather than
        # crash the sweep.  fn is deterministic per payload, so a rerun
        # from scratch is safe.
        _warn_pool_unavailable(exc.__cause__ or exc)
        return _run_serial(fn, payloads, policy, initializer, initargs,
                           plan)


def _run_serial(fn, payloads, policy, initializer, initargs,
                plan) -> List:
    if initializer is not None:
        initializer(*initargs)
    retries_c = telemetry.live_counter("resilience.shard.retries")
    errors_c = telemetry.live_counter("resilience.shard.errors")
    failures_c = telemetry.live_counter("resilience.shard.failures")
    results: List = [None] * len(payloads)
    seconds_list: List[float] = []
    for idx, payload in enumerate(payloads):
        started = time.monotonic()
        last_exc: Optional[BaseException] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                t0 = time.perf_counter()
                if plan is not None:
                    faults.apply_shard_fault(plan, idx, attempt)
                value = fn(payload)
            except Exception as exc:
                last_exc = exc
                if errors_c is not None:
                    errors_c.inc()
                if attempt < policy.max_attempts:
                    if retries_c is not None:
                        retries_c.inc()
                    _sleep(policy.backoff_delay(attempt))
                continue
            results[idx] = value
            seconds_list.append(time.perf_counter() - t0)
            break
        else:
            if policy.on_error == "raise":
                raise last_exc
            if failures_c is not None:
                failures_c.inc()
            results[idx] = ShardFailure(
                index=idx, error_type=type(last_exc).__name__,
                message=str(last_exc), kind="error",
                attempts=policy.max_attempts,
                elapsed_seconds=time.monotonic() - started,
            )
    if telemetry.enabled():
        telemetry.inc("engine.shard.calls", len(seconds_list))
        telemetry.observe_many("engine.shard.seconds", seconds_list)
    return results


def _run_pool(fn, payloads, pool_size, policy, initializer, initargs,
              plan) -> List:
    n = len(payloads)
    retries_c = telemetry.live_counter("resilience.shard.retries")
    errors_c = telemetry.live_counter("resilience.shard.errors")
    timeouts_c = telemetry.live_counter("resilience.shard.timeouts")
    crashes_c = telemetry.live_counter("resilience.shard.pool_crashes")
    rebuilds_c = telemetry.live_counter("resilience.shard.pool_rebuilds")
    failures_c = telemetry.live_counter("resilience.shard.failures")

    results: List = [None] * n
    outstanding = set(range(n))
    attempts = [0] * n
    started: List[Optional[float]] = [None] * n
    next_eligible = [0.0] * n
    shard_seconds: List[float] = []
    in_flight: dict = {}
    rebuilds = 0
    quarantine = False
    # Set when on_error="raise" meets a terminal failure: (kind, exc,
    # message).  Deferred so the raise happens outside any except
    # handler, after executor cleanup.
    fatal: Optional[tuple] = None

    task = _ShardTask(fn, plan)
    executor = _new_executor(pool_size, initializer, initargs)

    def charge(idx: int, kind: str, error_type: str, message: str,
               exc: Optional[BaseException]) -> None:
        """Charge shard ``idx`` one failed attempt of ``kind``."""
        nonlocal fatal
        now = time.monotonic()
        if attempts[idx] >= policy.max_attempts:
            if policy.on_error == "raise":
                fatal = (kind, exc,
                         f"shard {idx} failed ({kind}) after "
                         f"{attempts[idx]} attempt(s): {error_type}: "
                         f"{message}")
                return
            if failures_c is not None:
                failures_c.inc()
            results[idx] = ShardFailure(
                index=idx, error_type=error_type, message=message,
                kind=kind, attempts=attempts[idx],
                elapsed_seconds=now - (started[idx] or now),
            )
            outstanding.discard(idx)
        else:
            if retries_c is not None:
                retries_c.inc()
            next_eligible[idx] = now + policy.backoff_delay(attempts[idx])

    def rebuild() -> ProcessPoolExecutor:
        nonlocal rebuilds
        rebuilds += 1
        if rebuilds > policy.max_pool_rebuilds:
            raise RuntimeError(
                f"process pool died or timed out {rebuilds} times "
                f"(max_pool_rebuilds={policy.max_pool_rebuilds}); "
                "giving up on this fan-out"
            )
        if rebuilds_c is not None:
            rebuilds_c.inc()
        _kill_executor(executor)
        return _new_executor(1 if quarantine else pool_size,
                             initializer, initargs)

    def refund_in_flight() -> None:
        """The pool died under these shards through no fault of their
        own: give the attempt back, so the resubmission replays the
        same ``(index, attempt)`` — the key fault injection and the
        backoff schedule are deterministic in."""
        for other_idx, _, _ in in_flight.values():
            attempts[other_idx] -= 1
        in_flight.clear()

    try:
        while outstanding and fatal is None:
            now = time.monotonic()
            broke_on_submit = False
            busy = {meta[0] for meta in in_flight.values()}
            for idx in sorted(outstanding - busy):
                if len(in_flight) >= (1 if quarantine else pool_size):
                    break
                if next_eligible[idx] > now:
                    continue
                attempts[idx] += 1
                if started[idx] is None:
                    started[idx] = now
                try:
                    fut = executor.submit(
                        task, (idx, attempts[idx], payloads[idx])
                    )
                except BrokenProcessPool:
                    # A worker died between the last wait() and this
                    # submit; this shard never ran, so its attempt goes
                    # back and the death is processed like any other
                    # pool break (the doomed futures are still in
                    # in_flight).
                    attempts[idx] -= 1
                    broke_on_submit = True
                    break
                in_flight[fut] = (idx, attempts[idx], time.monotonic())

            if broke_on_submit:
                if crashes_c is not None:
                    crashes_c.inc()
                victims = [m[0] for m in in_flight.values()]
                if len(victims) == 1:
                    # Exactly one task was running: blame is certain,
                    # and its consumed attempt stands.
                    in_flight.clear()
                    charge(victims[0], "pool-crash", "BrokenProcessPool",
                           "worker process died abruptly", None)
                else:
                    refund_in_flight()
                    quarantine = True
                executor = rebuild()
                continue

            if not in_flight:
                # Everyone left is backing off; sleep to the earliest
                # eligibility instead of spinning.
                delay = min(next_eligible[i] for i in outstanding)
                delay -= time.monotonic()
                if delay > 0:
                    _sleep(delay)
                continue

            deadlines = [next_eligible[i]
                         for i in outstanding
                         if i not in {m[0] for m in in_flight.values()}]
            if policy.timeout_seconds is not None:
                deadlines.extend(t0 + policy.timeout_seconds
                                 for _, _, t0 in in_flight.values())
            timeout = (max(0.0, min(deadlines) - time.monotonic())
                       if deadlines else None)
            done, _ = wait(set(in_flight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broken: List[int] = []
            for fut in done:
                idx, attempt, t0 = in_flight.pop(fut)
                try:
                    seconds, value = fut.result()
                except BrokenProcessPool:
                    broken.append(idx)
                    continue
                except CancelledError:
                    attempts[idx] -= 1  # never ran; refund the attempt
                    continue
                except Exception as exc:
                    if errors_c is not None:
                        errors_c.inc()
                    charge(idx, "error", type(exc).__name__, str(exc),
                           exc)
                    continue
                results[idx] = value
                outstanding.discard(idx)
                shard_seconds.append(seconds)

            if broken:
                # Pool death poisons every in-flight future, not just
                # the task whose worker died; the survivors still in
                # in_flight are equally doomed.
                if crashes_c is not None:
                    crashes_c.inc()
                victims = broken + [m[0] for m in in_flight.values()]
                refund_in_flight()
                if len(victims) == 1:
                    # Exactly one task was running: blame is certain.
                    charge(victims[0], "pool-crash", "BrokenProcessPool",
                           "worker process died abruptly", None)
                else:
                    # Ambiguous blame: refund everyone (broken
                    # included) and quarantine — one worker, one task
                    # in flight — so the next death is attributable.
                    for idx in broken:
                        attempts[idx] -= 1
                    quarantine = True
                executor = rebuild()
                continue

            if policy.timeout_seconds is not None and in_flight:
                now = time.monotonic()
                expired = [
                    (fut, meta) for fut, meta in in_flight.items()
                    if now - meta[2] >= policy.timeout_seconds
                ]
                if expired:
                    for fut, (idx, attempt, t0) in expired:
                        del in_flight[fut]
                        if timeouts_c is not None:
                            timeouts_c.inc()
                        charge(idx, "timeout", "TimeoutError",
                               f"shard exceeded "
                               f"{policy.timeout_seconds:g}s wall-clock "
                               f"budget", None)
                    # Killing the pool is the only way to preempt the
                    # hung worker; shards merely sharing the pool get
                    # their attempt refunded.
                    refund_in_flight()
                    executor = rebuild()
    finally:
        _kill_executor(executor)

    if fatal is not None:
        kind, exc, message = fatal
        if exc is not None:
            raise exc
        if kind == "timeout":
            raise TimeoutError(message)
        raise RuntimeError(message)

    if telemetry.enabled():
        telemetry.inc("engine.shard.calls", len(shard_seconds))
        telemetry.observe_many("engine.shard.seconds", shard_seconds)
    return results
