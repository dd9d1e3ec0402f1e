"""Typed failure records for isolated execution.

Under ``on_error="partial"`` a failure comes back as a *value* — a
:class:`ShardFailure` in a :func:`~repro.engine.map_shards` result
slot, a :class:`QuestionFailure` on a
:class:`~repro.scenarios.ScenarioRun` — so callers can merge what
succeeded and report what did not, instead of losing everything to one
bad shard.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ShardFailure", "QuestionFailure", "FAILURE_KINDS"]

#: The ways a shard can fail: a raising payload function, or the death
#: of a pool worker (OOM kill, segfault, ``os._exit``), which fails
#: every shard of the fan-out that has no result yet.
FAILURE_KINDS = ("error", "pool-crash")


@dataclass(frozen=True)
class ShardFailure:
    """One shard's failure, in its :func:`map_shards` slot.

    Attributes
    ----------
    index:
        The payload index the failure belongs to (results keep input
        order, so this is also the slot the record occupies).
    error_type, message:
        Exception class name and message of the failure.
    kind:
        One of :data:`FAILURE_KINDS`.
    elapsed_seconds:
        Wall clock from the shard's submission until its failure was
        collected (in-process: the shard's own run time).
    """

    index: int
    error_type: str
    message: str
    kind: str
    elapsed_seconds: float

    def __post_init__(self):
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )

    def describe(self) -> str:
        return (f"shard {self.index} failed ({self.kind}) in "
                f"{self.elapsed_seconds:.3f}s: "
                f"{self.error_type}: {self.message}")


@dataclass(frozen=True)
class QuestionFailure:
    """One scenario question's failure (``on_error="partial"``).

    The scenario-level twin of :class:`ShardFailure`: identifies the
    question by kind/label, carries the exception type and message, and
    rides on :class:`~repro.scenarios.ScenarioRun` next to the outcomes
    that survived.
    """

    scenario: str
    kind: str
    label: str
    error_type: str
    message: str
    elapsed_seconds: float

    @property
    def question(self) -> str:
        """``kind`` or ``kind[label]`` — the question's display name."""
        return f"{self.kind}[{self.label}]" if self.label else self.kind

    def describe(self) -> str:
        return (f"question {self.question} of {self.scenario} failed in "
                f"{self.elapsed_seconds:.3f}s: "
                f"{self.error_type}: {self.message}")
