"""Vectorized multi-trajectory SSA: the one direct-method kernel.

Every stochastic simulation in the library runs here, and
:func:`~repro.simulation.simulate` is a one-row view.
:func:`simulate_ensemble` steps all ``n_runs`` trajectories together as
``(n_runs, d)`` arrays:

- **batched rates** — one call to
  :meth:`~repro.population.FinitePopulation.aggregate_rates_batch`
  evaluates every transition for every row (each rate lambda is invoked
  once per *step*, not once per row);
- **batched clocks** — the per-row exponential holding times and the
  event-selection uniforms are drawn with one vectorized call per block
  of rows (below) and scaled with one array operation;
- **per-row policies** — the :class:`~repro.simulation.ControlPolicy`
  answers ``theta`` / ``jump_rate`` / ``next_switch_after`` for all rows
  at once, keeping per-row internal state (hysteresis modes, current
  random-jump parameters) as arrays;
- **blocks** — ``rng`` may be a sequence of ``B`` generators: the rows
  then form ``B`` equal consecutive blocks, and generator ``b`` makes
  every draw for block ``b``'s rows.  The parameter sweep
  (:func:`~repro.engine.sweep_constant_ensembles`) runs a chunk of its
  grid points this way, one block per point, in one call.

Exactness
---------
Each row runs the direct (first-reaction-equivalent) method on the
lattice chain of :class:`~repro.population.FinitePopulation`, raced
against the autonomous events of its policy, asynchronously in its own
clock:

1. evaluate the row's ``theta`` from its policy, then all aggregate
   event rates;
2. draw the row's holding time ``~ Exp(total rate)``; if the draw
   crosses the row's next deterministic policy switch, advance that row
   to the switch and re-draw — the exponential distribution is
   memoryless, so restarting the race at the switch leaves the law of
   the trajectory unchanged;
3. otherwise pick the row's event proportionally to its rates — either
   a model transition (jump ``change / N``) or an autonomous policy
   re-draw;
4. repeat until the horizon.

Rows never share holding times or selection draws, so they are
independent exact samples of the chain.  A one-row call is the direct
method bit for bit: ``tests/reference_impls.py`` keeps the scalar
Gillespie loop as the oracle, and a one-row ensemble reproduces its
times, states, parameters and event counts for the same generator.  The
rows of a larger ensemble share one generator, so row ``r`` is not the
oracle run of any particular seed; the equivalence tests pin the two
together through ensemble statistics (CLT bands on mean/std, two-sample
KS on final-state clouds).

A block is its standalone ensemble bit for bit: each loop iteration
advances every active row by at most one event, so block ``b``'s active
rows at iteration ``k`` are those of a one-block call with generator
``b`` at its iteration ``k``, and generator ``b`` is asked for the same
holding times, selection uniforms and policy re-draws in the same
order.  Everything else is elementwise per row.

States are recorded on a fixed output grid (piecewise-constant sampling
of the jump process), so memory stays bounded for large ``N`` and long
horizons.  Rows hit their horizons at different step counts; finished
rows leave the active set, so late finishers never pay for early ones.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Union

import numpy as np

from repro import telemetry
from repro.population import FinitePopulation
from repro.simulation.batch import BatchResult, validate_ensemble_args
from repro.simulation.policies import ControlPolicy

__all__ = ["simulate_ensemble"]


def simulate_ensemble(
    population: FinitePopulation,
    policy: ControlPolicy,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    rng: Union[None, np.random.Generator,
               Sequence[np.random.Generator]] = None,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
) -> BatchResult:
    with telemetry.span("engine.ensemble", runs=n_runs) as sp:
        t0 = time.perf_counter()
        batch = _simulate_ensemble_impl(
            population, policy, t_final, n_runs,
            seed=seed, rng=rng, n_samples=n_samples, t_start=t_start,
            max_events=max_events,
        )
        if telemetry.enabled():
            elapsed = time.perf_counter() - t0
            events = batch.n_events + batch.n_policy_jumps
            telemetry.inc("engine.ssa.runs", batch.states.shape[0])
            telemetry.inc("engine.ssa.events", batch.n_events)
            telemetry.inc("engine.ssa.policy_jumps", batch.n_policy_jumps)
            if elapsed > 0.0:
                telemetry.set_gauge("engine.ssa.events_per_sec",
                                    events / elapsed)
            sp.set("events", events)
    return batch


def _block_spans(generators: List[np.random.Generator], edges: np.ndarray,
                 rows: np.ndarray) -> list:
    """``(generator, lo, hi)`` for each block that has rows in the
    sorted row indices ``rows``: ``rows[lo:hi]`` are that block's rows
    and ``generator`` makes every draw for them."""
    cuts = np.searchsorted(rows, edges).tolist()
    return [(g, lo, hi) for g, lo, hi in zip(generators, cuts, cuts[1:])
            if lo < hi]


def _block_draws(generators, edges, rows, draw) -> np.ndarray:
    """One ``draw`` per row of ``rows``, each block filling its own rows
    from its own generator with one call, as a one-block run would."""
    out = np.empty(rows.shape[0])
    for generator, lo, hi in _block_spans(generators, edges, rows):
        draw(generator, out=out[lo:hi])
    return out


def _simulate_ensemble_impl(
    population: FinitePopulation,
    policy: ControlPolicy,
    t_final: float,
    n_runs: int,
    seed: Union[int, np.random.SeedSequence] = 0,
    rng: Union[None, np.random.Generator,
               Sequence[np.random.Generator]] = None,
    n_samples: int = 200,
    t_start: float = 0.0,
    max_events: int = 50_000_000,
) -> BatchResult:
    """Run ``n_runs`` independent SSA trajectories, vectorized across rows.

    Parameters
    ----------
    population:
        The instantiated finite-``N`` chain (all rows start from its
        initial state).
    policy:
        The :class:`~repro.simulation.ControlPolicy` driving every row;
        its ``reset`` rebuilds the state of all rows before the first
        step (it is handed the first generator and draws nothing), so
        one instance may drive several ensembles in turn.
    t_final:
        Simulation horizon.
    n_runs:
        Ensemble size.
    seed:
        Seed (or :class:`numpy.random.SeedSequence`) for the single
        generator driving every row; ignored when ``rng`` is given.
    rng:
        Explicit generator, for callers composing streams; or a sequence
        of ``B`` generators, which splits the rows into ``B`` equal
        consecutive blocks (``n_runs`` must be a multiple of ``B``,
        else ``ValueError``).  Generator ``b`` makes every draw for
        block ``b`` — holding times, selection uniforms and the policy's
        ``on_jump`` re-draws — so rows ``b * n_runs // B`` up to
        ``(b + 1) * n_runs // B`` equal, bit for bit, the ensemble of
        ``n_runs // B`` rows that a call with generator ``b`` alone
        returns (cut it out with
        :meth:`~repro.simulation.BatchResult.runs`).  The policy sees
        the global row indices.
    n_samples:
        Equally spaced output samples on ``[t_start, t_final]`` (an
        integer, at least 2).
    max_events:
        Safety cap on the events of any single row (a positive
        integer); a row that reaches it raises ``RuntimeError`` naming
        its block and its row within the block.

    Returns
    -------
    A :class:`~repro.simulation.BatchResult` with ``states`` of shape
    ``(n_runs, n_samples, d)``, ``thetas`` of shape
    ``(n_runs, n_samples, p)`` and per-run event counts.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    generators = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    n_runs, n_samples, max_events = validate_ensemble_args(
        policy, n_runs, t_final, t_start, n_samples, max_events, generators
    )
    block_runs = n_runs // len(generators)
    # Row index of each block's first row, then one past the last row.
    edges = np.arange(len(generators) + 1) * block_runs

    model = population.model
    dim = model.dim
    n_transitions = len(model.transitions)
    size = population.population_size
    changes = population.change_matrix

    policy.reset(generators[0], population.initial_density, n_runs)

    counts = np.tile(population.initial_counts, (n_runs, 1))
    t = np.full(n_runs, float(t_start))
    sample_times = np.linspace(t_start, t_final, n_samples)
    states = np.empty((n_runs, n_samples, dim))
    thetas = np.empty((n_runs, n_samples, model.theta_set.dim))
    next_sample = np.zeros(n_runs, dtype=np.int64)
    n_events = np.zeros(n_runs, dtype=np.int64)
    n_policy_jumps = np.zeros(n_runs, dtype=np.int64)

    # Hoisted once: None when telemetry is disabled, so the loop body
    # pays a single identity check per iteration.
    chunk_hist = telemetry.live_histogram("engine.ssa.chunk_rows")

    active = np.arange(n_runs)
    iteration = 0
    while active.size:
        rows = active
        if chunk_hist is not None:
            chunk_hist.observe(rows.shape[0])
        # A row gains at most one event per iteration, so none can have
        # reached the cap before iteration max_events.
        if iteration >= max_events:
            done = n_events[rows] + n_policy_jumps[rows]
            if done.max() >= max_events:
                worst = int(rows[np.argmax(done)])
                block, row = divmod(worst, block_runs)
                raise RuntimeError(
                    f"SSA row {row} of block {block} exceeded "
                    f"max_events={max_events} before t_final (reached "
                    f"t={t[worst]:.4g}); raise the cap or shorten the "
                    f"horizon"
                )
        iteration += 1
        t_rows = t[rows]
        x = counts[rows] / size
        theta = model.theta_set.project_batch(policy.theta(rows, t_rows, x))
        rates = population.aggregate_rates_batch(counts[rows], theta)
        policy_rate = policy.jump_rate(rows, t_rows, x)
        total = rates.sum(axis=1) + policy_rate
        switch_at = policy.next_switch_after(rows, t_rows)

        # Per-row holding times; absorbed rows (no enabled event) get an
        # infinite draw, which routes them to their next policy switch
        # or to the horizon.  ``Generator.exponential(scale)`` is
        # ``scale * standard_exponential()``, so this is its draw.
        t_next = np.full(rows.shape[0], np.inf)
        racing = np.flatnonzero(total > 0.0)
        if racing.size:
            t_next[racing] = t_rows[racing] + (1.0 / total[racing]) * (
                _block_draws(generators, edges, rows[racing],
                             np.random.Generator.standard_exponential)
            )

        crosses_switch = t_next > switch_at
        finishes = ~crosses_switch & (t_next > t_final)
        fires = ~crosses_switch & ~finishes

        # Record the pre-jump state and parameter on each row's slice of
        # the shared output grid.  Only rows that actually crossed a grid
        # point do per-row work; with event resolution much finer than
        # the grid this loop is touched rarely.
        record_to = np.where(
            crosses_switch,
            np.minimum(switch_at, t_final),
            np.minimum(t_next, t_final),
        )
        new_next = np.searchsorted(sample_times, record_to, side="right")
        advanced = np.nonzero(new_next > next_sample[rows])[0]
        for i in advanced:
            g = rows[i]
            states[g, next_sample[g]:new_next[i]] = x[i]
            thetas[g, next_sample[g]:new_next[i]] = theta[i]
        next_sample[rows] = np.maximum(next_sample[rows], new_next)

        if fires.any():
            firing = np.nonzero(fires)[0]
            # ``Generator.uniform(0.0, high)`` is ``high * random()``.
            u = total[firing] * _block_draws(
                generators, edges, rows[firing], np.random.Generator.random
            )
            is_policy = u < policy_rate[firing]
            jumping = firing[is_policy]
            if jumping.size:
                for generator, lo, hi in _block_spans(generators, edges,
                                                      rows[jumping]):
                    own = jumping[lo:hi]
                    policy.on_jump(rows[own], t_next[own], x[own], generator)
                n_policy_jumps[rows[jumping]] += 1
            transitioning = firing[~is_policy]
            if transitioning.size:
                residual = u[~is_policy] - policy_rate[transitioning]
                cumulative = np.cumsum(rates[transitioning], axis=1)
                event = np.minimum(
                    (cumulative <= residual[:, None]).sum(axis=1),
                    n_transitions - 1,
                )
                counts[rows[transitioning]] += changes[event]
                n_events[rows[transitioning]] += 1
            t[rows[firing]] = t_next[firing]

        if crosses_switch.any():
            switching = np.nonzero(crosses_switch)[0]
            t[rows[switching]] = switch_at[switching]
        if finishes.any():
            t[rows[np.nonzero(finishes)[0]]] = t_final

        active = rows[t[rows] < t_final]

    return BatchResult(
        times=sample_times,
        states=states,
        thetas=thetas,
        population_size=size,
        events_per_run=n_events,
        policy_jumps_per_run=n_policy_jumps,
    )


simulate_ensemble.__doc__ = _simulate_ensemble_impl.__doc__
