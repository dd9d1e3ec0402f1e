"""``repro.resilience`` — failure isolation for the execution layer.

Every fan-out of the library (:func:`repro.engine.map_shards`: the
ensemble parameter sweep's chunks and the scenario runner's questions)
runs under one policy, ``on_error``.  ``"raise"`` propagates the
lowest-index failing shard's error; ``"partial"`` keeps every shard
that succeeded and reports the others as typed records.  The sweep
always raises; the runner takes ``on_error`` from its caller:

- :class:`ShardFailure` / :class:`QuestionFailure` — failures as typed
  *values* in result slots, next to everything that survived;
- :mod:`repro.resilience.execution` — the executor behind every
  :func:`~repro.engine.map_shards` fan-out, serial or over a process
  pool.

Everything here depends only on the standard library and
:mod:`repro.telemetry`, so any layer of the stack may import it without
cycles.
"""

from repro.resilience.failures import (FAILURE_KINDS, QuestionFailure,
                                       ShardFailure)

__all__ = [
    "FAILURE_KINDS",
    "QuestionFailure",
    "ShardFailure",
]
