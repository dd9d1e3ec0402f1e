"""The differential-hull over-approximation (Section IV-B).

The hull method encloses every solution of ``x' in F(x)`` in a moving
rectangle ``[xlo(t), xhi(t)]`` obtained by integrating a coupled pair of
ODEs:

.. math::
    \\dot{\\underline x}_i = \\underline f_i(\\underline x, \\overline x)
        = \\min \\{ F_i(x) : x \\in [\\underline x, \\overline x],
                               x_i = \\underline x_i \\} \\\\
    \\dot{\\overline x}_i = \\overline f_i(\\underline x, \\overline x)
        = \\max \\{ F_i(x) : x \\in [\\underline x, \\overline x],
                               x_i = \\overline x_i \\}

(Theorem 4 of the paper, after Ramdani et al. / Tschaikowski &
Tribastone).  The inner extremisation over ``theta`` is exact through the
:class:`~repro.inclusion.DriftExtremizer`; the extremisation over the box
slice in ``x`` is performed over the slice corners.  For rate functions
monotone in each coordinate — all models in the paper — the slice optimum
is attained at a corner, so the corner extremisation is exact; for rates
that are not, it can miss an interior optimum.

The hull is sound but can be arbitrarily loose: the two bounding
trajectories follow *different* velocity selections in each coordinate,
so they may leave the physical state space entirely.  Figure 4 of the
paper shows exactly this (``X_I`` bounds reaching 1.17 for
``theta_max = 5`` and the vacuous ``[0, 1]`` for ``theta_max = 6``); the
raw (unclipped) bounds are what this module returns.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import telemetry
from repro.inclusion import DriftExtremizer
from repro.ode import dopri_batch

__all__ = ["HullBounds", "differential_hull_bounds", "hull_vector_field"]

#: Step budget of one hull integration.  A diverging hull turns stiff
#: (its bounding fields contract at a rate that grows with the
#: rectangle), so its explicit steps shrink as it grows; the catalog's
#: hulls take at most a few hundred steps.
_MAX_HULL_STEPS = 10_000


@dataclass
class HullBounds:
    """Result of the differential-hull integration.

    ``lower[t, i] <= x_i(t) <= upper[t, i]`` holds for every solution
    ``x`` of the inclusion started inside ``[lower[0], upper[0]]``.
    """

    times: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    state_names: Tuple[str, ...]

    def width(self, index: int) -> np.ndarray:
        """Hull width of one coordinate over time."""
        return self.upper[:, index] - self.lower[:, index]

    def is_trivial(self, index: int, state_lower: float = 0.0,
                   state_upper: float = 1.0, at_index: int = -1) -> bool:
        """Whether the hull gives no information beyond the state space.

        Matches the paper's observation that for ``theta_max = 6`` the
        hull approximation of the SIR model "is trivial for t >= 4":
        the bounds cover the whole physical range of the coordinate.
        """
        return bool(
            self.lower[at_index, index] <= state_lower
            and self.upper[at_index, index] >= state_upper
        )


def _corner_masks(d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed slice-corner structure for the batched hull RHS.

    The hull extremises drift coordinate ``i`` over the corners of the
    box slices ``{x_i = lower_i}`` / ``{x_i = upper_i}``; the *union* of
    those slice corners over all ``i`` is exactly the ``2^d`` corners of
    the rectangle, and which bound each corner takes per coordinate is a
    property of the index pattern, not of the current rectangle.  So the
    boolean corner masks are built once; every RHS evaluation then
    materialises all corners with a single ``np.where``, computes their
    velocity envelope in one batched call, and gathers the slice
    extrema by precomputed index.

    Returns ``(masks, lo_sel, hi_sel)``: ``masks`` is ``(2^d, d)`` bool
    ("corner takes the upper bound here"), and ``lo_sel`` / ``hi_sel``
    are ``(d, 2^(d-1))`` integer arrays listing, per coordinate, the
    corners lying on its lower / upper slice.
    """
    masks = np.array(
        list(itertools.product([False, True], repeat=d))
    ).reshape(-1, d)
    lo_sel = np.stack([np.nonzero(~masks[:, i])[0] for i in range(d)])
    hi_sel = np.stack([np.nonzero(masks[:, i])[0] for i in range(d)])
    return masks, lo_sel, hi_sel


def hull_vector_field(model, theta_method: str = "auto"):
    """The autonomous hull pair field ``(t, z) -> dz`` on ``z = (xlo, xhi)``.

    This is the right-hand side :func:`differential_hull_bounds`
    integrates; it is exposed so steady-state analyses can treat the
    hull pair as a fixed-point problem (the stationary rectangle is a
    zero of this field).  See :func:`differential_hull_bounds` for the
    parameter semantics.
    """
    d = model.dim
    extremizer = DriftExtremizer(model, method=theta_method)
    corner_bits, lo_sel, hi_sel = _corner_masks(d)
    columns = np.arange(d)[:, None]

    def hull_field(t, z):
        lower, upper = z[:d], z[d:]
        # Keep the slice box well-ordered under round-off.
        upper = np.maximum(upper, lower)
        corners = np.where(corner_bits, upper[None, :], lower[None, :])
        env_lo, env_hi = extremizer.velocity_envelope_batch(corners)
        dlo = env_lo[lo_sel, columns].min(axis=1)
        dhi = env_hi[hi_sel, columns].max(axis=1)
        return np.concatenate([dlo, dhi])

    return hull_field


def differential_hull_bounds(
    model,
    x0,
    t_eval,
    theta_method: str = "auto",
    rtol: float = 1e-7,
    atol: float = 1e-9,
    blowup_threshold: float = 100.0,
) -> HullBounds:
    """Integrate the differential hull of the model's mean-field inclusion.

    Parameters
    ----------
    model:
        Population model; its declared ``state_bounds`` are *not* used to
        clip (the raw hull may leave them, faithfully to the paper).
    x0:
        Initial state; the hull starts from the degenerate rectangle
        ``[x0, x0]``.
    t_eval:
        Output time grid: a 1-D array of at least two finite, strictly
        increasing times (anything else raises ``ValueError``).
    theta_method:
        Extremiser strategy over ``Theta`` (see
        :class:`~repro.inclusion.DriftExtremizer`).
    rtol, atol:
        Error control of the integration (one lane of
        :func:`~repro.ode.dopri_batch`, the library's Dormand–Prince
        5(4) integrator).
    blowup_threshold:
        The hull ODEs can diverge exponentially once the rectangle grows
        past the basin where the bounding fields are contracting (the
        "trivial" regime of Figure 4c).  Past this magnitude (finite and
        positive, else ``ValueError``) the field reads as undefined, so
        the integration stops at its last accepted step, as it does
        when the state overflows first; the samples after that step are
        filled with ``-inf`` / ``+inf``, which is the honest reading of
        a diverged hull.  A hull that has not reached the threshold
        after ``10_000`` steps (or whose step size collapses) stops the
        same way, with a ``RuntimeWarning``: a large threshold is
        reached only through ever smaller steps.

    The RHS goes through the batched extremiser: the slice-corner masks
    are precomputed once and every evaluation issues a *single*
    :meth:`~repro.inclusion.DriftExtremizer.velocity_envelope_batch`
    call over the ``2^d`` rectangle corners, instead of ``O(d 2^(d-1))``
    Python-level extremisations.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if (t_eval.ndim != 1 or t_eval.shape[0] < 2
            or not np.all(np.isfinite(t_eval))
            or not np.all(np.diff(t_eval) > 0.0)):
        raise ValueError(
            "t_eval must be a 1-D grid of at least 2 finite, strictly "
            f"increasing times, got {t_eval.tolist()}"
        )
    if not (np.isfinite(blowup_threshold) and blowup_threshold > 0):
        raise ValueError("blowup_threshold must be finite and positive, "
                         f"got {blowup_threshold}")
    x0 = np.asarray(x0, dtype=float)
    d = model.dim
    hull_field = hull_vector_field(model, theta_method=theta_method)
    blown = np.full((1, 2 * d), np.nan)

    def lane_field(t, Z):
        # A non-finite field retires the lane at its last accepted step.
        if np.max(np.abs(Z)) > blowup_threshold:
            return blown
        return hull_field(t, Z[0])[None, :]

    with telemetry.span("hull.integrate") as sp:
        sol = dopri_batch(
            lane_field, np.concatenate([x0, x0])[None, :],
            (float(t_eval[0]), float(t_eval[-1])), t_eval=t_eval,
            rtol=rtol, atol=atol, max_steps=_MAX_HULL_STEPS,
            retire_failed_lanes=True,
        )
        sp.set("nfev", sol.stats["nfev"])
    telemetry.inc("hull.rhs_evals", sol.stats["nfev"])
    z = sol.states[0]
    for failure in sol.stats["lane_failures"]:
        if failure["reason"] != "non-finite-state":
            warnings.warn(
                f"hull integration stopped ({failure['reason']}) at "
                f"t = {failure['t']:.6g} after {failure['accepted']} "
                f"steps, before any bound reached blowup_threshold = "
                f"{blowup_threshold:g}; later samples read as diverged",
                RuntimeWarning, stacklevel=2,
            )
        n_done = int(np.searchsorted(t_eval, failure["t"], side="right"))
        z[n_done:, :d] = -np.inf
        z[n_done:, d:] = np.inf
    return HullBounds(
        times=t_eval.copy(),
        lower=z[:, :d],
        upper=z[:, d:],
        state_names=model.state_names,
    )
