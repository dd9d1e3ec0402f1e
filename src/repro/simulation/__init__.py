"""Stochastic simulation of finite-``N`` imprecise population processes.

The imprecise chain of Definition 1 couples the Markovian race of the
population events with an adversarial/environmental parameter signal
``theta_t`` adapted to the process.  The simulator represents that signal
as a :class:`ControlPolicy` — a (possibly stateful, possibly random)
rule producing ``theta`` as a function of time and state, with optional
autonomous jump events that enter the SSA race.

Policies provided (Section V-E of the paper uses the last two):

- :class:`ConstantPolicy` — the uncertain scenario (frozen ``theta``).
- :class:`PiecewiseConstantPolicy` — a deterministic schedule.
- :class:`FeedbackPolicy` — deterministic state feedback
  ``theta = g(t, x)`` (a Markovian control policy).
- :class:`HysteresisPolicy` — the paper's ``theta_1``: oscillates between
  two parameter values with switching thresholds on one coordinate.
- :class:`RandomJumpPolicy` — the paper's ``theta_2``: re-draws ``theta``
  uniformly at state-dependent rate (an autonomous event in the race).

Simulation
----------
:func:`batch_simulate` runs ``n_runs`` independent replications and
aggregates them into a :class:`BatchResult`; :func:`simulate` runs one
trajectory into a :class:`SimulationResult`.  Both are views of the one
exact direct-method kernel, :func:`repro.engine.simulate_ensemble`,
whose module documents the scheme and why it is exact.
"""

from repro.simulation.adversarial import (
    policy_from_controls,
    validate_bound_by_simulation,
)
from repro.simulation.batch import BatchResult, batch_simulate
from repro.simulation.policies import (
    ConstantPolicy,
    ControlPolicy,
    FeedbackPolicy,
    HysteresisPolicy,
    PiecewiseConstantPolicy,
    RandomJumpPolicy,
)
from repro.simulation.ssa import SimulationResult, simulate

__all__ = [
    "ControlPolicy",
    "ConstantPolicy",
    "PiecewiseConstantPolicy",
    "FeedbackPolicy",
    "HysteresisPolicy",
    "RandomJumpPolicy",
    "simulate",
    "SimulationResult",
    "batch_simulate",
    "BatchResult",
    "policy_from_controls",
    "validate_bound_by_simulation",
]
