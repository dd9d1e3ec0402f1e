"""Transition classes: the events of a population process."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["Transition"]


class Transition:
    """One class of events of a population process.

    Parameters
    ----------
    name:
        Human-readable label (``"infection"``, ``"service_1"``, ...).
    change:
        Jump vector in *population counts*: the event moves the count
        vector from ``K`` to ``K + change``.  In the normalised process of
        size ``N`` the state jumps by ``change / N``.
    rate:
        Density-scaled rate function ``rate(x, theta)`` where ``x`` is
        the normalised state.  The aggregate rate of the event in the
        size-``N`` system is ``N * rate(x, theta)``; this is the scaling
        that makes Definition 4 hold and yields the drift
        ``f(x, theta) = sum_e change_e * rate_e(x, theta)``.  Rates are
        coordinate-wise array arithmetic: called with one state ``(d,)``
        and one parameter vector ``(p,)`` they return a number, and
        called with a batch — ``x`` of shape ``(d, n)`` and ``theta`` of
        shape ``(p, n)``, so ``x[k]`` is coordinate ``k`` of every row —
        they return the ``(n,)`` per-row values, or a constant.
        :class:`~repro.population.PopulationModel` checks this once when
        it is built and raises ``ValueError`` for a rate that branches
        on a coordinate, casts it with ``float()``, takes ``max(...)``,
        or pools the batch (``np.sum(x)``, ``np.mean(x)``).

    Examples
    --------
    The SIR infection event of Section V (states ordered ``S, I, R``):

    >>> infection = Transition(
    ...     "infection",
    ...     change=[-1, 1, 0],
    ...     rate=lambda x, theta: 0.1 * x[0] + theta[0] * x[0] * x[1],
    ... )
    >>> infection.change
    array([-1.,  1.,  0.])
    """

    def __init__(self, name: str, change, rate: Callable):
        if not name:
            raise ValueError("a transition needs a non-empty name")
        self.name = str(name)
        self.change = np.asarray(change, dtype=float)
        if self.change.ndim != 1:
            raise ValueError(
                f"transition {name!r}: change must be a vector, "
                f"got shape {self.change.shape}"
            )
        if not np.any(self.change != 0.0):
            raise ValueError(f"transition {name!r}: change vector is all zero")
        if not callable(rate):
            raise TypeError(f"transition {name!r}: rate must be callable")
        self.rate = rate

    @property
    def dim(self) -> int:
        """Dimension of the state space the transition acts on."""
        return self.change.shape[0]

    def rate_at(self, x, theta) -> float:
        """Evaluate the (density-scaled) rate, clamped to be non-negative.

        Rates are mathematically non-negative on the admissible state
        space, but floating-point drift during simulation can push states
        epsilon outside it; clamping keeps the SSA race well-defined.
        """
        value = float(self.rate(np.asarray(x, dtype=float), np.asarray(theta, dtype=float)))
        if np.isnan(value):
            raise ValueError(
                f"transition {self.name!r}: rate is NaN at x={x}, theta={theta}"
            )
        return max(value, 0.0)

    def __repr__(self) -> str:
        return f"Transition({self.name!r}, change={self.change.tolist()})"
