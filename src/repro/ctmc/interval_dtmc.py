"""Discrete-time Markov chains with interval probabilities (Škulj [10]).

The paper's imprecise CTMCs build on Škulj's *interval DTMCs*: chains
whose row distributions are only known to lie in per-entry intervals
``lower[i, j] <= P[i, j] <= upper[i, j]``.  The object of interest is the
**upper (lower) expectation** of a reward after ``k`` steps:

.. math::
    \\overline E_k(r) = \\overline T^k r, \\qquad
    (\\overline T r)_i = \\max \\{ p \\cdot r : p \\in \\mathcal P_i \\}

where ``P_i`` is the credal set of row ``i`` (the interval polytope
intersected with the simplex).  The row maximisation is a fractional
knapsack: fill coordinates in decreasing reward order up to their upper
bounds, starting from the mandatory lower bounds.  The operator is
applied iteratively; it is monotone and contracting on reward ranges,
which is what makes the iteration a sound finite-horizon bound.

The hot path is batched: :meth:`IntervalDTMC.extreme_rows_batch` solves
all ``n`` row knapsacks for a whole stack of reward vectors at once, and
the single-reward operators delegate to it.  The knapsacks run on each
row's *support* — the columns with ``upper > 0``, which is all a
uniformized chain can reach in one step (at most ``K + 1`` entries for
``K`` transition classes).  The constructor lays the supports out once
as an ``(n, s)`` column table padded to the widest row ``s`` (padding
slots point at off-support columns, whose lower bound and room are
zero) and gathers the lower bounds and rooms onto it.  A call with
``m`` rewards makes one ``argsort`` per reward over all ``n``
columns, turns it into column ranks, orders each row's ``s`` slots by
rank, runs the ``np.subtract.accumulate`` slack chain over those slots
and scatters the filled slots into the dense ``(m, n, n)`` rows: cost
``O(m n log n + m n s log s)``, plus the dense row totals and the
dense ``(m, n, n)`` contraction of :meth:`upper_operator_batch`, which
are unchanged.  Off-support entries have zero room, so a fill over all
``n`` columns would only subtract an exact ``0.0`` from the slack
there; dropping them changes no rounding step, and tied rewards keep
the fill order of the one ``argsort``.  The test-suite keeps a
one-row-at-a-time greedy knapsack over every column as the reference
implementation, and the two agree bit for bit (pinned with exact
equality).

:meth:`IntervalDTMC.from_imprecise_ctmc` discretises an imprecise CTMC
through uniformization: ``P(theta) = I + Q(theta) / Lambda``, with the
per-entry interval taken over the corners of ``Theta`` (exact per entry
for affine generators).  The entry-wise relaxation forgets the coupling
between entries induced by the shared ``theta``, so the resulting bounds
are conservative with respect to the exact imprecise-CTMC bounds of
:mod:`repro.ctmc.kolmogorov` — a relationship the test-suite checks.
Caveat: the conservativeness statement is about *time* ``t``, reached
through the Poisson-weighted mixture of step bounds
(:meth:`IntervalDTMC.uniformized_bounds`); the raw ``k``-step power
carries a time-discretization bias of order ``1 / Lambda`` on top of the
relaxation and can land strictly inside the exact bounds.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import telemetry

__all__ = ["IntervalDTMC", "random_interval_dtmc"]

#: A returned row whose total deviates from 1 by more than this is
#: renormalised.  Rows inside the constructor's 1e-9 feasibility
#: tolerance (``sum(lower)`` marginally above 1, ``sum(upper)``
#: marginally below) would otherwise leak out sub-/super-stochastic.
_ROW_SUM_TOL = 1e-12


class IntervalDTMC:
    """A finite DTMC with interval transition probabilities.

    Parameters
    ----------
    lower, upper:
        Entry-wise probability bounds, shape ``(n, n)``, with
        ``0 <= lower <= upper <= 1``, ``sum(lower[i]) <= 1`` and
        ``sum(upper[i]) >= 1`` for every row (non-empty credal sets).
        Every entry must be finite.
    """

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
            raise ValueError("lower must be a square matrix")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same shape")
        # NaN passes every comparison below, so reject it up front.
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("probability bounds must be finite")
        if np.any(lower < -1e-12) or np.any(upper > 1.0 + 1e-12):
            raise ValueError("probability bounds must lie in [0, 1]")
        if np.any(lower > upper + 1e-12):
            raise ValueError("lower bounds exceed upper bounds")
        row_lo = lower.sum(axis=1)
        row_hi = upper.sum(axis=1)
        if np.any(row_lo > 1.0 + 1e-9) or np.any(row_hi < 1.0 - 1e-9):
            raise ValueError(
                "empty credal set: need sum(lower) <= 1 <= sum(upper) per row"
            )
        self.lower = np.clip(lower, 0.0, 1.0)
        # Clipping can flip a within-tolerance inversion into upper <
        # lower; enforce ordered bounds so every room is non-negative.
        self.upper = np.maximum(np.clip(upper, 0.0, 1.0), self.lower)
        # The support tables below are derived from the bounds once;
        # read-only bounds cannot drift away from them.
        self.lower.flags.writeable = False
        self.upper.flags.writeable = False
        # Each row's support (upper > 0) first, in column order, then its
        # off-support columns: the first ``s`` columns of every row are
        # its support padded to the widest row with zero-room slots.
        support = self.upper > 0.0
        width = int(support.sum(axis=1).max(initial=0))
        self._support = np.argsort(~support, axis=1, kind="stable")[:, :width]
        self._support_lower = np.take_along_axis(
            self.lower, self._support, axis=1
        )
        self._support_room = np.take_along_axis(
            self.upper - self.lower, self._support, axis=1
        )
        # Summed over the dense rows, exactly as a one-row loop does.
        self._slack0 = 1.0 - self.lower.sum(axis=1)
        self._slot_base = width * np.arange(lower.shape[0])[:, None]

    @property
    def n_states(self) -> int:
        return self.lower.shape[0]

    # ------------------------------------------------------------------
    # Row credal-set optimisation (fractional knapsack)
    # ------------------------------------------------------------------

    def extreme_rows_batch(self, rewards, maximize: bool = True) -> np.ndarray:
        """All ``n`` extreme rows for a stack of reward vectors at once.

        Parameters
        ----------
        rewards:
            One reward vector of shape ``(n,)`` or a stack ``(m, n)``.
        maximize:
            Extremise upward (the upper-expectation rows) or downward.

        Returns
        -------
        The extremising row distributions — shape ``(n, n)`` for a
        single reward (entry ``[i]`` is the row-``i`` distribution) or
        ``(m, n, n)`` for a stack.

        Each row starts from its mandatory lower bounds and distributes
        the remaining mass ``1 - sum(lower)`` greedily to the coordinates
        with the largest (smallest) reward, capped at the upper bounds.
        All ``m * n`` fractional knapsacks are solved in one pass over
        the rows' support slots (see the module docstring);
        ``np.subtract.accumulate`` reproduces the sequential slack
        updates of a one-row greedy loop rounding step by rounding step.
        Raises ``ValueError`` on a non-finite reward, before any row is
        filled.
        """
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        rewards = np.atleast_2d(rewards)
        n = self.n_states
        if rewards.shape[1] != n:
            raise ValueError(f"rewards must have trailing dimension {n}")
        if not np.all(np.isfinite(rewards)):
            raise ValueError("rewards must be finite")
        m = rewards.shape[0]
        if telemetry.enabled():
            telemetry.inc("ctmc.credal.operator_calls")
            telemetry.inc("ctmc.credal.knapsack_rows", m * n)
        order = np.argsort(-rewards if maximize else rewards, axis=1)
        # rank[k, j]: position of column j in reward k's fill order.
        rank = np.empty_like(order)
        rank[np.arange(m)[:, None], order] = np.arange(n)
        # Every row's support slots in fill order, as flat indices into
        # the (n, s) support tables: (m, n, s).
        slots = (np.argsort(np.take(rank, self._support, axis=1), axis=2)
                 + self._slot_base)
        room = self._support_room.take(slots)
        chain = np.empty((m, n, room.shape[2] + 1))
        chain[:, :, 0] = self._slack0
        chain[:, :, 1:] = room
        # slack_seq[..., j] is the slack left before filling the j-th
        # slot (sequential subtraction, not a cumsum — same rounding as
        # a one-row greedy loop); the final entry is the slack left
        # after exhausting every room.
        slack_seq = np.subtract.accumulate(chain, axis=2)
        take = np.clip(slack_seq[:, :, :-1], 0.0, room)
        # Scatter the filled slots into the dense rows (flat indices).
        rows = np.zeros((m, n, n))
        cols = self._support.take(slots) + n * np.arange(m * n).reshape(m, n, 1)
        rows.reshape(-1)[cols] = self._support_lower.take(slots) + take
        leftover = slack_seq[:, :, -1]
        if np.any(leftover > 1e-9):
            raise RuntimeError("credal set inconsistency: mass left over")
        totals = rows.sum(axis=2)
        bad = np.abs(totals - 1.0) > _ROW_SUM_TOL
        if np.any(bad):
            rows = np.where(bad[:, :, None], rows / totals[:, :, None], rows)
        return rows[0] if single else rows

    def upper_operator_batch(self, rewards) -> np.ndarray:
        """``T̄`` applied to a stack of rewards: ``(m, n) -> (m, n)``.

        Also accepts a single ``(n,)`` vector (returning ``(n,)``).  The
        value contraction is one stacked matrix–vector product, which
        NumPy evaluates slice by slice — bit-identical to a per-reward
        ``rows @ reward``.
        """
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        rows = self.extreme_rows_batch(stack, maximize=True)
        values = np.matmul(rows, stack[:, :, None])[:, :, 0]
        return values[0] if single else values

    def expectation_bounds_batch(self, rewards, steps: int):
        """``(lower, upper)`` expectations of a reward stack after ``steps``.

        Iterates the upper operator on the ``2m``-lane stack
        ``[rewards, -rewards]`` — the lower iteration is the negated
        upper iteration of the negated reward — so every step is a
        single batched knapsack pass for all observables and both bound
        directions.  Shapes mirror the input: ``(m, n)`` arrays for a
        stack, ``(n,)`` vectors for a single reward.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        rewards = np.asarray(rewards, dtype=float)
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        m = stack.shape[0]
        value = np.concatenate([stack, -stack], axis=0)
        for _ in range(steps):
            value = self.upper_operator_batch(value)
        upper = value[:m]
        lower = -value[m:]
        return (lower[0], upper[0]) if single else (lower, upper)

    def upper_operator(self, reward) -> np.ndarray:
        """One application of the upper-expectation operator ``T̄ r``."""
        return self.upper_operator_batch(np.asarray(reward, dtype=float))

    def lower_operator(self, reward) -> np.ndarray:
        """One application of the lower-expectation operator."""
        return -self.upper_operator(-np.asarray(reward, dtype=float))

    # ------------------------------------------------------------------
    # Finite-horizon expectations
    # ------------------------------------------------------------------

    def upper_expectation(self, reward, steps: int) -> np.ndarray:
        """Upper expectation of ``reward`` after ``steps`` transitions.

        Returns the per-starting-state vector ``T̄^k r``.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        value = np.asarray(reward, dtype=float).copy()
        for _ in range(steps):
            value = self.upper_operator(value)
        return value

    def lower_expectation(self, reward, steps: int) -> np.ndarray:
        """Lower expectation of ``reward`` after ``steps`` transitions."""
        return -self.upper_expectation(-np.asarray(reward, dtype=float), steps)

    def expectation_bounds(self, reward, steps: int
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` expectation vectors after ``steps`` steps."""
        return self.expectation_bounds_batch(np.asarray(reward, dtype=float),
                                             steps)

    def stationary_expectation_bounds(
        self, reward, tol: float = 1e-10, max_iter: int = 100_000,
    ) -> Tuple[float, float]:
        """Long-run bounds on the expected reward (Škulj's limit regime).

        Iterates the upper (lower) expectation operator until the value
        vector flattens to a constant: for a regular interval chain the
        iteration ``T̄^k r`` converges to a constant vector whose value
        is the worst-case (best-case) long-run expected reward over all
        admissible transition selections.  Raises ``RuntimeError`` when
        the iteration fails to flatten (periodic or reducible chains).
        """
        if max_iter < 1:
            raise ValueError(
                f"max_iter must be a positive iteration budget, got {max_iter}"
            )
        bounds = []
        for maximize in (False, True):
            value = np.asarray(reward, dtype=float).copy()
            converged = False
            for _ in range(max_iter):
                if maximize:
                    new_value = self.upper_operator(value)
                else:
                    new_value = self.lower_operator(value)
                spread = float(new_value.max() - new_value.min())
                delta = float(np.max(np.abs(new_value - value)))
                value = new_value
                if spread < tol and delta < tol:
                    converged = True
                    break
            if not converged:
                raise RuntimeError(
                    "stationary iteration did not flatten within "
                    f"{max_iter} steps (final spread {spread:.2e}, last "
                    f"step moved {delta:.2e}); the chain may be periodic "
                    "or reducible"
                )
            bounds.append(float(value.mean()))
        return bounds[0], bounds[1]

    def uniformized_bounds(
        self, rewards, horizon: float, rate: float,
        tail_tol: float = 1e-12,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Poisson-mixed reward bounds at CTMC time ``horizon``.

        A chain uniformized at rate ``Lambda`` jumps at ``Poisson(Lambda
        t)`` times regardless of the adversarial parameter signal (the
        self-loops in ``I + Q/Lambda`` absorb the rate variation), and
        conditional on ``k`` jumps the reward lies within the ``k``-step
        interval bounds.  Mixing the step bounds with Poisson weights
        therefore *encloses* the exact imprecise-CTMC bound at time
        ``horizon`` — unlike the raw ``k``-step power
        (:meth:`expectation_bounds` at ``k = ceil(horizon * rate)``),
        whose time-discretization bias of order ``1/rate`` can poke
        inside the exact bounds.  The truncated Poisson tail is
        completed conservatively with the reward range.

        Accepts one reward vector ``(n,)`` or a stack ``(m, n)`` —
        every observable and both directions share one batched value
        iteration.  Returns the ``(lower, upper)`` per-starting-state
        vectors, shaped like the input.
        """
        rewards = np.asarray(rewards, dtype=float)
        # NaN passes every sign comparison, so finiteness is explicit.
        if not np.isfinite(horizon) or horizon < 0:
            raise ValueError(
                f"horizon must be finite and non-negative, got {horizon}"
            )
        if not np.isfinite(rate) or rate <= 0:
            raise ValueError(
                f"uniformization rate must be finite and positive, got {rate}"
            )
        single = rewards.ndim == 1
        stack = np.atleast_2d(rewards)
        m = stack.shape[0]
        mean = rate * horizon
        # Term count: mean + wide safety band (Poisson tail bound),
        # matching the precise-chain uniformization solver.
        n_terms = int(np.ceil(mean + 10.0 * np.sqrt(mean + 1.0) + 10.0))
        value = np.concatenate([stack, -stack], axis=0)
        weight = np.exp(-mean)
        accumulated = weight
        mixed = weight * value
        for k in range(1, n_terms + 1):
            value = self.upper_operator_batch(value)
            weight *= mean / k
            mixed = mixed + weight * value
            accumulated += weight
            if 1.0 - accumulated < tail_tol:
                break
        tail = max(1.0 - accumulated, 0.0)
        # Every iterate stays inside the reward's value range, so the
        # truncated tail is bounded by its extremes.
        upper = mixed[:m] + tail * stack.max(axis=1)[:, None]
        lower = -(mixed[m:] + tail * (-stack).max(axis=1)[:, None])
        return (lower[0], upper[0]) if single else (lower, upper)

    # ------------------------------------------------------------------
    # Construction from imprecise CTMCs
    # ------------------------------------------------------------------

    @classmethod
    def from_imprecise_ctmc(cls, chain, uniformization_rate: Optional[float] = None,
                            safety: float = 1.05) -> Tuple["IntervalDTMC", float]:
        """Uniformize an imprecise CTMC into an interval DTMC.

        ``P(theta) = I + Q(theta) / Lambda`` with ``Lambda`` at least the
        largest total exit rate over the corner parameters (scaled by
        ``safety``).  Entry intervals are taken over the corners of
        ``Theta``, which is exact per entry for affine generators.

        Accepts chains whose ``generator`` returns either a scipy sparse
        matrix or a dense ndarray.

        Returns ``(dtmc, Lambda)`` — one DTMC step corresponds to an
        ``Exp(Lambda)`` holding time of the CTMC, so ``k`` steps
        approximate horizon ``k / Lambda``.
        """
        corners = chain.model.theta_set.corners()
        generators = [_dense(chain.generator(theta)) for theta in corners]
        if uniformization_rate is None:
            max_exit = max(float(-q.diagonal().min()) for q in generators)
            uniformization_rate = safety * max_exit
        if uniformization_rate <= 0:
            raise ValueError("uniformization rate must be positive")
        identity = np.eye(chain.n_states)
        matrices = [identity + q / uniformization_rate for q in generators]
        stack = np.stack(matrices)
        lower = np.clip(stack.min(axis=0), 0.0, 1.0)
        upper = np.clip(stack.max(axis=0), 0.0, 1.0)
        return cls(lower, upper), float(uniformization_rate)

    def __repr__(self) -> str:
        return f"IntervalDTMC({self.n_states} states)"


def _dense(matrix) -> np.ndarray:
    """A dense float array from a sparse matrix or array-like."""
    if hasattr(matrix, "toarray"):
        return matrix.toarray()
    return np.asarray(matrix, dtype=float)


def random_interval_dtmc(n_states: int, rng: np.random.Generator,
                         width: float = 0.08) -> IntervalDTMC:
    """A random non-degenerate interval chain (tests and benchmarks).

    Each row's interval is a band of half-width up to ``width`` around a
    Dirichlet-sampled distribution, clipped to ``[0, 1]`` — the centre
    row is always admissible, so every credal set is non-empty.
    """
    center = rng.dirichlet(np.ones(n_states), size=n_states)
    lower = np.clip(center - width * rng.random((n_states, n_states)), 0.0, 1.0)
    upper = np.clip(center + width * rng.random((n_states, n_states)), 0.0, 1.0)
    return IntervalDTMC(lower, upper)
