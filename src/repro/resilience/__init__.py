"""``repro.resilience`` — fault tolerance for the execution layer.

The reproduction fans hot workloads over process pools
(:func:`repro.engine.map_shards`), multi-question scenario runs and
long Pontryagin/dopri iterations; without this package one crashed
worker, hung shard, raising question backend or NaN-poisoned lane
aborts the entire run and discards every already-computed result.
ROADMAP item 2 (bounds-as-a-service) needs better-than-all-or-nothing
failure semantics, and this package supplies them:

- :class:`RetryPolicy` — bounded retries, deterministic exponential
  backoff, per-shard wall-clock timeouts, ``on_error="raise"|"partial"``;
- :class:`ShardFailure` / :class:`QuestionFailure` — failures as typed
  *values* in result slots, next to everything that survived;
- :mod:`repro.resilience.execution` — the async-submission pool
  executor with worker-death recovery that runs every
  :func:`~repro.engine.map_shards` fan-out;
- :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (off by default at provably zero cost, same op-tally
  discipline as :mod:`repro.telemetry`) that lets the chaos suite prove
  each recovery path fires.

Everything here depends only on the standard library and
:mod:`repro.telemetry`, so any layer of the stack may import it without
cycles.
"""

from repro.resilience import faults
from repro.resilience.policy import (FAILURE_KINDS, QuestionFailure,
                                     RetryPolicy, ShardFailure)

__all__ = [
    "FAILURE_KINDS",
    "QuestionFailure",
    "RetryPolicy",
    "ShardFailure",
    "faults",
]
