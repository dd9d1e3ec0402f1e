"""Vectorized policy lanes: per-row policy state for ensemble SSA.

A :class:`~repro.simulation.ControlPolicy` answers for one trajectory.
The vectorized engine steps ``n_runs`` trajectories at once, so it
needs the same four hooks (``theta``, ``jump_rate``, ``on_jump``,
``next_switch_after``) answered for *vectors of rows* in a single
call.  A :class:`PolicyLane` is that batched view: it owns the
internal state of all rows (e.g. the hysteresis mode bits, or the
current parameter of every random-jump row) as arrays.

Known policy classes get hand-vectorized lanes; anything else —
including *subclasses* of the known classes, whose overridden behaviour
a vectorized lane could silently miss — falls back to
:class:`GenericLane`, which keeps one policy instance per row and loops.
The fallback queries each row's policy exactly as a one-policy
simulation would, just without the batching speedup.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import telemetry
from repro.simulation.policies import (
    ConstantPolicy,
    ControlPolicy,
    HysteresisPolicy,
    PiecewiseConstantPolicy,
    RandomJumpPolicy,
)

__all__ = [
    "PolicyLane",
    "ConstantLane",
    "PiecewiseConstantLane",
    "HysteresisLane",
    "RandomJumpLane",
    "GenericLane",
    "build_lane",
]


class PolicyLane:
    """Batched policy interface over an ensemble of ``n_runs`` rows.

    ``rows`` arguments are integer arrays of global row indices; ``t``
    and ``x`` are the corresponding per-row times ``(len(rows),)`` and
    states ``(len(rows), d)``.
    """

    def __init__(self, n_runs: int):
        self.n_runs = int(n_runs)

    def reset(self, rng: np.random.Generator, x0: np.ndarray) -> None:
        """Prepare the internal state of every row for a fresh ensemble."""

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
        """React to one autonomous policy event on each of ``rows``."""

    def next_switch_after(self, rows: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
        """Next deterministic theta discontinuity per row (``inf`` if none)."""
        return np.full(rows.shape[0], np.inf)


class ConstantLane(PolicyLane):
    """All rows frozen at the same parameter vector."""

    def __init__(self, n_runs: int, theta):
        super().__init__(n_runs)
        self._theta = np.atleast_1d(np.asarray(theta, dtype=float))

    def theta(self, rows, t, x):
        return np.broadcast_to(
            self._theta, (rows.shape[0], self._theta.shape[0])
        )


class PiecewiseConstantLane(PolicyLane):
    """A shared deterministic ``(start_time, theta)`` schedule."""

    def __init__(self, n_runs: int, starts: np.ndarray,
                 thetas: Sequence[np.ndarray]):
        super().__init__(n_runs)
        self._starts = np.asarray(starts, dtype=float)
        self._thetas = np.stack([np.atleast_1d(th) for th in thetas])

    def theta(self, rows, t, x):
        index = np.searchsorted(self._starts, t, side="right") - 1
        return self._thetas[np.maximum(index, 0)]

    def next_switch_after(self, rows, t):
        index = np.searchsorted(self._starts, t + 1e-15, side="right")
        out = np.full(rows.shape[0], np.inf)
        has_next = index < self._starts.shape[0]
        out[has_next] = self._starts[index[has_next]]
        return out


class HysteresisLane(PolicyLane):
    """Per-row threshold switching with a vectorized mode register."""

    def __init__(self, n_runs: int, theta_low, theta_high, coordinate: int,
                 low_threshold: float, high_threshold: float,
                 start_high: bool):
        super().__init__(n_runs)
        self._theta_low = np.atleast_1d(np.asarray(theta_low, dtype=float))
        self._theta_high = np.atleast_1d(np.asarray(theta_high, dtype=float))
        self._coordinate = int(coordinate)
        self._low = float(low_threshold)
        self._high = float(high_threshold)
        self._start_high = bool(start_high)
        self._mode = np.full(self.n_runs, self._start_high)

    def reset(self, rng, x0):
        self._mode[:] = self._start_high

    def theta(self, rows, t, x):
        value = x[:, self._coordinate]
        mode = self._mode[rows]
        # Same two-branch update as the scalar policy: high rows falling
        # below the low threshold drop out of high mode, low rows rising
        # above the high threshold re-enter it.
        new_mode = mode.copy()
        new_mode[mode & (value < self._low)] = False
        new_mode[~mode & (value > self._high)] = True
        self._mode[rows] = new_mode
        return np.where(
            new_mode[:, None], self._theta_high, self._theta_low
        )


def _validated_batch_eval(batch_fn: Callable, scalar_fn: Callable, n: int,
                          status, can_validate: bool):
    """Evaluate a user jump-rate function over a batch with lazy validation.

    Jump-rate functions are written against scalar coordinates, so the
    batched (coordinate-major) call is only trusted after it has
    reproduced the per-row scalar evaluation once.

    Parameters
    ----------
    batch_fn:
        Zero-argument thunk invoking the user function on the
        coordinate-major batch; its result should be ``(n,)``.
    scalar_fn:
        Zero-argument thunk evaluating the same rows one-by-one through
        the scalar path (always correct, already clamped).
    n:
        Number of batch rows.
    status:
        Tri-state verdict so far: ``True`` (validated), ``False``
        (fall back forever), ``None`` (unknown).
    can_validate:
        Whether this batch can discriminate a broken vectorization —
        callers pass ``True`` only for batches of two or more *distinct*
        rows.  On an all-identical batch, normalisation-invariant
        pooling mistakes (``np.mean`` over all rows) coincide with the
        correct value, so validating there would wrongly bless them.

    Returns
    -------
    ``(values, new_status)`` — ``values`` of shape ``(n,)``, clamped
    non-negative, and the updated tri-state (``None`` means "still
    unknown", i.e. validation was deferred).
    """
    if status is False or (status is None and not can_validate):
        return scalar_fn(), status
    try:
        raw = np.asarray(batch_fn(), dtype=float)
        # 0-d results are ambiguous (a constant, or a full reduction
        # such as np.sum pooling every row); both take the fallback.
        if raw.ndim == 0 or raw.shape != (n,):
            raise ValueError("batched rate has wrong shape")
    except Exception:
        # The user function cannot take arrays (or pooled them): fall
        # back to the scalar path forever, stamping the rejection so an
        # unexpectedly slow run is diagnosable from the metrics.
        telemetry.inc("engine.lanes.batch_rejections")
        return scalar_fn(), False
    values = np.maximum(raw, 0.0)
    if status is None:
        scalar = scalar_fn()
        if not np.allclose(values, scalar, rtol=1e-9, atol=1e-12,
                           equal_nan=True):
            return scalar, False
        return values, True
    return values, True


class RandomJumpLane(PolicyLane):
    """Per-row current parameter with batched uniform re-draws."""

    def __init__(self, n_runs: int, theta_set, rate_fn: Callable, initial):
        super().__init__(n_runs)
        self._theta_set = theta_set
        self._rate_fn = rate_fn
        self._initial = np.atleast_1d(np.asarray(initial, dtype=float))
        self._current = np.tile(self._initial, (self.n_runs, 1))
        self._rate_fn_vectorizes = None  # unknown until the first call

    def reset(self, rng, x0):
        self._current = np.tile(self._initial, (self.n_runs, 1))

    def theta(self, rows, t, x):
        return self._current[rows]

    def _scalar_jump_rates(self, t, x, n):
        values = np.array(
            [float(self._rate_fn(t[i], x[i])) for i in range(n)]
        )
        return np.maximum(values, 0.0)

    def jump_rate(self, rows, t, x):
        # The coordinate-major convention of model rates, validated
        # lazily: only a batch of distinct rows can expose row-pooling
        # mistakes.
        n = rows.shape[0]
        can_validate = n >= 2 and (
            bool(np.any(x != x[0])) or bool(np.any(t != t[0]))
        )
        values, status = _validated_batch_eval(
            lambda: self._rate_fn(t, x.T),
            lambda: self._scalar_jump_rates(t, x, n),
            n,
            self._rate_fn_vectorizes,
            can_validate,
        )
        if status is not None:
            self._rate_fn_vectorizes = status
        return values

    def on_jump(self, rows, t, x, rng):
        self._current[rows] = self._theta_set.sample(rng, rows.shape[0])


class GenericLane(PolicyLane):
    """Fallback: one scalar policy instance per row, looped."""

    def __init__(self, policies: Sequence[ControlPolicy]):
        super().__init__(len(policies))
        self._policies = list(policies)

    def reset(self, rng, x0):
        for policy in self._policies:
            policy.reset(rng, x0)

    def theta(self, rows, t, x):
        return np.stack([
            np.atleast_1d(self._policies[g].theta(float(t[i]), x[i]))
            for i, g in enumerate(rows)
        ])

    def jump_rate(self, rows, t, x):
        return np.array([
            max(float(self._policies[g].jump_rate(float(t[i]), x[i])), 0.0)
            for i, g in enumerate(rows)
        ])

    def on_jump(self, rows, t, x, rng):
        for i, g in enumerate(rows):
            self._policies[g].on_jump(float(t[i]), x[i], rng)

    def next_switch_after(self, rows, t):
        return np.array([
            float(self._policies[g].next_switch_after(float(t[i])))
            for i, g in enumerate(rows)
        ])


def _constant_lane(policy: ConstantPolicy, n_runs: int) -> PolicyLane:
    return ConstantLane(n_runs, policy.theta(0.0, None))


def _piecewise_lane(policy: PiecewiseConstantPolicy,
                    n_runs: int) -> PolicyLane:
    return PiecewiseConstantLane(n_runs, policy._starts, policy._thetas)


def _hysteresis_lane(policy: HysteresisPolicy, n_runs: int) -> PolicyLane:
    return HysteresisLane(
        n_runs,
        policy._theta_low,
        policy._theta_high,
        policy._coordinate,
        policy._low_threshold,
        policy._high_threshold,
        policy._start_high,
    )


def _random_jump_lane(policy: RandomJumpPolicy, n_runs: int) -> PolicyLane:
    return RandomJumpLane(
        n_runs, policy._theta_set, policy._rate_fn, policy._initial
    )


#: Exact-type dispatch table; subclasses intentionally miss and use the
#: GenericLane so overridden behaviour is never silently dropped.
_VECTOR_LANES = {
    ConstantPolicy: _constant_lane,
    PiecewiseConstantPolicy: _piecewise_lane,
    HysteresisPolicy: _hysteresis_lane,
    RandomJumpPolicy: _random_jump_lane,
}


def build_lane(policy_factory: Callable[[], ControlPolicy],
               n_runs: int) -> PolicyLane:
    """Build the fastest available lane for ``n_runs`` fresh policies.

    ``policy_factory`` is the same zero-argument factory
    :func:`~repro.simulation.batch_simulate` takes.  One prototype
    policy is instantiated to select the lane; the generic fallback
    instantiates one policy per row.
    """
    prototype = policy_factory()
    if not isinstance(prototype, ControlPolicy):
        raise TypeError(
            f"policy_factory must produce ControlPolicy instances, "
            f"got {type(prototype).__name__}"
        )
    maker = _VECTOR_LANES.get(type(prototype))
    if maker is not None:
        return maker(prototype, n_runs)
    policies = [prototype] + [policy_factory() for _ in range(n_runs - 1)]
    return GenericLane(policies)
