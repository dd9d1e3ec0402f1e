"""Control policies: the environmental parameter signal of an imprecise chain.

A policy realises one admissible process ``theta_t`` of Definition 1 on
every row of an SSA ensemble at once (:func:`~repro.simulation.simulate`
runs a one-row ensemble).  :func:`repro.engine.simulate_ensemble`
queries it through five hooks, each answering for a vector of rows:

- :meth:`ControlPolicy.reset` — (re-)build the state of all ``n_runs``
  rows for a fresh ensemble (it draws nothing);
- :meth:`ControlPolicy.theta` — the parameters in force, given ``(t, x)``;
- :meth:`ControlPolicy.jump_rate` — rates of the policy's own autonomous
  re-draw events (zero for deterministic policies); these events join the
  SSA race exactly like model transitions;
- :meth:`ControlPolicy.on_jump` — executed when a policy event fires;
  it makes its draws from ``rng``, the generator of the rows' block
  (a blocked ensemble calls it once per block);
- :meth:`ControlPolicy.next_switch_after` — the next deterministic
  discontinuity of ``theta(t)`` (``inf`` when none), so the SSA can stop
  the exponential race at schedule boundaries and stay exact.

``rows`` are integer arrays of row indices in ``[0, n_runs)``; ``t`` and
``x`` are the matching per-row times ``(len(rows),)`` and states
``(len(rows), d)``.  Per-row state (hysteresis modes, each row's current
random-jump parameter) is held as arrays that ``reset`` rebuilds, so one
instance may drive several ensembles in turn.

All policies must keep ``theta`` inside the model's ``Theta``; the SSA
projects defensively.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, Tuple

import numpy as np

from repro.population.model import checked_rate, probe_states

__all__ = [
    "ControlPolicy",
    "ConstantPolicy",
    "PiecewiseConstantPolicy",
    "HysteresisPolicy",
    "RandomJumpPolicy",
]


class ControlPolicy:
    """Base class: a deterministic policy without state or switches."""

    def reset(self, rng: np.random.Generator, x0: np.ndarray,
              n_runs: int) -> None:
        """Rebuild the state of all ``n_runs`` rows for a fresh ensemble
        starting from ``x0``."""

    def theta(self, rows: np.ndarray, t: np.ndarray,
              x: np.ndarray) -> np.ndarray:
        """Parameters in force on ``rows``, shape ``(len(rows), p)``."""
        raise NotImplementedError

    def jump_rate(self, rows: np.ndarray, t: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
        """Autonomous policy-event rates on ``rows``, shape ``(len(rows),)``."""
        return np.zeros(rows.shape[0])

    def on_jump(self, rows: np.ndarray, t: np.ndarray, x: np.ndarray,
                rng: np.random.Generator) -> None:
        """React to one autonomous policy event on each of ``rows``,
        drawing from ``rng`` (all ``rows`` belong to its block)."""

    def next_switch_after(self, rows: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
        """Next deterministic discontinuity of ``theta`` strictly after
        ``t``, per row (``inf`` when none)."""
        return np.full(rows.shape[0], np.inf)


class ConstantPolicy(ControlPolicy):
    """The uncertain scenario: a frozen parameter for the whole run."""

    def __init__(self, theta):
        self._theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def theta(self, rows, t, x):
        return np.broadcast_to(
            self._theta, (rows.shape[0], self._theta.shape[0])
        )

    def __repr__(self) -> str:
        return f"ConstantPolicy({self._theta.tolist()})"


class PiecewiseConstantPolicy(ControlPolicy):
    """A deterministic schedule of ``(start_time, theta)`` pieces.

    Start times must be finite and sorted, and every piece must have the
    same length; otherwise ``ValueError`` names ``schedule``.
    """

    def __init__(self, schedule: Sequence[Tuple[float, Sequence[float]]]):
        if not schedule:
            raise ValueError("schedule must be non-empty")
        starts = np.array([float(s) for s, _ in schedule])
        if not np.isfinite(starts).all():
            raise ValueError(
                f"schedule start times must be finite, got {starts.tolist()}"
            )
        if np.any(np.diff(starts) < 0.0):
            raise ValueError("schedule start times must be sorted")
        thetas = [np.atleast_1d(np.asarray(th, dtype=float))
                  for _, th in schedule]
        if len({th.shape for th in thetas}) > 1:
            raise ValueError(
                f"schedule pieces must have equal lengths, got "
                f"{[th.shape for th in thetas]}"
            )
        self._starts = starts
        self._thetas = np.stack(thetas)

    def theta(self, rows, t, x):
        index = np.searchsorted(self._starts, t, side="right") - 1
        return self._thetas[np.maximum(index, 0)]

    def next_switch_after(self, rows, t):
        index = np.searchsorted(self._starts, t + 1e-15, side="right")
        out = np.full(rows.shape[0], np.inf)
        has_next = index < self._starts.shape[0]
        out[has_next] = self._starts[index[has_next]]
        return out

    def __repr__(self) -> str:
        return f"PiecewiseConstantPolicy({self._thetas.shape[0]} pieces)"


class HysteresisPolicy(ControlPolicy):
    """The paper's policy ``theta_1`` (Section V-E): threshold switching.

    Watches one state coordinate and oscillates between two parameter
    vectors: in *high* mode, switch to *low* mode when the coordinate
    drops below ``low_threshold``; in *low* mode, switch back when it
    rises above ``high_threshold``.  For the SIR example the coordinate
    is ``X_S``, the modes are ``theta_max``/``theta_min``, and the
    thresholds are 0.5 / 0.85, inducing the near-periodic oscillation of
    Figure 6(a).  Each row keeps its own mode.

    Parameters
    ----------
    theta_low, theta_high:
        Parameter vectors of the two modes, of equal lengths.
    coordinate:
        Index of the watched state coordinate: an integer (else
        ``TypeError``) in ``[0, d)`` (checked when an ensemble starts).
    low_threshold, high_threshold:
        Finite switching thresholds (``low_threshold < high_threshold``).
    start_high:
        Initial mode of every row.
    """

    def __init__(self, theta_low, theta_high, coordinate: int,
                 low_threshold: float, high_threshold: float,
                 start_high: bool = True):
        self._theta_low = np.atleast_1d(np.asarray(theta_low, dtype=float))
        self._theta_high = np.atleast_1d(np.asarray(theta_high, dtype=float))
        if self._theta_low.shape != self._theta_high.shape:
            raise ValueError(
                f"theta_low and theta_high must have equal lengths, got "
                f"{self._theta_low.shape} and {self._theta_high.shape}"
            )
        if not (np.isfinite(low_threshold) and np.isfinite(high_threshold)):
            raise ValueError(
                f"low_threshold and high_threshold must be finite, got "
                f"{low_threshold} and {high_threshold}"
            )
        if low_threshold >= high_threshold:
            raise ValueError("low_threshold must be below high_threshold")
        try:  # a fractional index raises instead of being truncated
            self._coordinate = operator.index(coordinate)
        except TypeError as exc:
            raise TypeError(
                f"coordinate must be an integer, got {coordinate!r}"
            ) from exc
        self._low_threshold = float(low_threshold)
        self._high_threshold = float(high_threshold)
        self._start_high = bool(start_high)
        self._high_mode = np.empty(0, dtype=bool)

    def reset(self, rng, x0, n_runs):
        dim = np.shape(x0)[0]
        if not 0 <= self._coordinate < dim:
            raise ValueError(
                f"coordinate must lie in [0, {dim}) for a {dim}-dimensional "
                f"state, got {self._coordinate}"
            )
        self._high_mode = np.full(n_runs, self._start_high)

    def theta(self, rows, t, x):
        # High rows stay high until the coordinate drops below the low
        # threshold; low rows return once it rises above the high one.
        value = x[:, self._coordinate]
        high = np.where(self._high_mode[rows], value >= self._low_threshold,
                        value > self._high_threshold)
        self._high_mode[rows] = high
        return np.where(high[:, None], self._theta_high, self._theta_low)

    def __repr__(self) -> str:
        return (
            f"HysteresisPolicy(coord={self._coordinate}, "
            f"thresholds=({self._low_threshold}, {self._high_threshold}))"
        )


class RandomJumpPolicy(ControlPolicy):
    """The paper's policy ``theta_2`` (Section V-E): random re-draws.

    The parameter jumps to a fresh value at a state-dependent rate; for
    the SIR example the rate is ``5 * X_I`` and the new value is drawn
    uniformly from ``Theta``.  The jumps are autonomous events competing
    in the SSA race.  Each row keeps its own current parameter.

    Parameters
    ----------
    theta_set:
        The domain to sample from (usually ``model.theta_set``).
    rate_fn:
        State-dependent jump rate ``r(t, x)`` in *absolute* events per
        unit time (the paper's ``5 X_I`` is such a rate: it does not
        scale with ``N``).  The SSA adds it, clamped non-negative, to
        the event race.  Like a transition rate it takes batches: ``t``
        of shape ``(n,)`` and ``x`` of shape ``(d, n)``, so ``x[k]`` is
        coordinate ``k`` of every row, in; ``(n,)`` values or a
        constant out.  It is checked against its per-row values on
        three probe rows when an ensemble starts, and a rate that is
        scalar-only or pools the rows raises ``ValueError``; so does a
        NaN or infinite value during the run.
    initial:
        Starting parameter; defaults to the centre of the domain.
    """

    _CONTRACT = ("jump rates must be coordinate-wise array arithmetic: t of "
                 "shape (n,) and x of shape (d, n) in, (n,) values or a "
                 "constant out")

    def __init__(self, theta_set, rate_fn: Callable, initial=None):
        self._theta_set = theta_set
        if not callable(rate_fn):
            raise TypeError("rate_fn must be callable")
        self._rate_fn = rate_fn
        if initial is None:
            self._initial = theta_set.center()
        else:
            self._initial = np.atleast_1d(np.asarray(initial, dtype=float))
            if not theta_set.contains(self._initial, tol=1e-9):
                raise ValueError("initial theta is outside the domain")
        self._rate = None  # rate_fn once checked, by reset
        self._current = np.empty((0, self._initial.shape[0]))

    def reset(self, rng, x0, n_runs):
        # Three probe states in the unit box, at three distinct times.
        x_probe = probe_states(np.zeros(np.shape(x0)[0]))
        self._rate = checked_rate(self._rate_fn, "RandomJumpPolicy: rate_fn",
                                  (x_probe[:, 0], x_probe.T), self._CONTRACT)
        self._current = np.tile(self._initial, (n_runs, 1))

    def theta(self, rows, t, x):
        return self._current[rows]

    def jump_rate(self, rows, t, x):
        values = np.asarray(self._rate(t, x.T), dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(
                f"RandomJumpPolicy: rate_fn returns the non-finite jump "
                f"rates {values[~np.isfinite(values)].tolist()}"
            )
        return np.maximum(values, 0.0)

    def on_jump(self, rows, t, x, rng):
        self._current[rows] = self._theta_set.sample(rng, rows.shape[0])

    def __repr__(self) -> str:
        return "RandomJumpPolicy(...)"
