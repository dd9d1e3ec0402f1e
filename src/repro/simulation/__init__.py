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

The SSA itself (:func:`simulate`) is an exact Gillespie/first-reaction
scheme on the lattice chain of :class:`~repro.population.FinitePopulation`.

Ensembles
---------
:func:`batch_simulate` runs ``n_runs`` independent replications and
aggregates them into a :class:`BatchResult`.  An ensemble delegates to
:func:`repro.engine.simulate_ensemble`, which steps all replications as
``(n_runs, d)`` arrays with batched rate evaluation and per-row clocks
drawn from a single generator; a single run calls :func:`simulate`.

*Why the vectorized engine is still exact.*  Each ensemble row runs its
own direct-method race, asynchronously in its own clock: the row's
holding time is ``Exp(total rate)`` for *that row's* state and policy,
and its event is selected proportionally to *that row's* rates.  Two
properties carry the scalar kernel's exactness argument over unchanged:

1. **memoryless restart at policy switches** — when a row's exponential
   draw crosses the row's next deterministic ``theta`` discontinuity,
   the engine advances that row to the switch and re-draws; by the
   memoryless property of the exponential distribution the restarted
   race has the same law as the conditional continuation, so
   per-row switch handling is exact, not approximate;
2. **per-row clocks** — rows never share holding times or selection
   draws, only the underlying generator stream, so trajectories remain
   mutually independent and each is distributed exactly as a scalar
   SSA run.

Consequently the vectorized engine and a loop of :func:`simulate` are
*statistically* indistinguishable (they consume the random stream in
different orders, so paths differ for a fixed seed);
``tests/test_engine_equivalence.py`` pins them together through CLT
bands and two-sample KS tests.
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
