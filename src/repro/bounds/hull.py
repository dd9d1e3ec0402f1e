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
slice in ``x`` is performed over the slice corners plus an optional
interior grid, with an optional L-BFGS-B polish.  For rate functions
monotone in each coordinate — all models in the paper — the slice optimum
is attained at a corner, so the default is exact.

The hull is sound but can be arbitrarily loose: the two bounding
trajectories follow *different* velocity selections in each coordinate,
so they may leave the physical state space entirely.  Figure 4 of the
paper shows exactly this (``X_I`` bounds reaching 1.17 for
``theta_max = 5`` and the vacuous ``[0, 1]`` for ``theta_max = 6``); the
raw (unclipped) bounds are what this module returns, with
:meth:`HullBounds.clipped` available for presentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize

from repro import telemetry
from repro.inclusion import DriftExtremizer

__all__ = ["HullBounds", "differential_hull_bounds", "hull_vector_field"]


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

    def clipped(self, state_lower, state_upper) -> "HullBounds":
        """Intersect the hull with static state bounds (presentation only)."""
        lo = np.asarray(state_lower, dtype=float)
        hi = np.asarray(state_upper, dtype=float)
        return HullBounds(
            times=self.times.copy(),
            lower=np.clip(self.lower, lo, hi),
            upper=np.clip(self.upper, lo, hi),
            state_names=self.state_names,
        )

    def observable_bounds(self, weights) -> Tuple[np.ndarray, np.ndarray]:
        """Interval bounds of a linear observable ``w . x`` over time.

        Uses interval arithmetic: each weight contributes its
        sign-matching hull side.  The matmuls only see the columns whose
        weight actually has the matching sign: a diverged hull carries
        ``±inf`` bounds, and the zero entries of the sign-split weight
        vectors would otherwise poison every diverged row with
        ``inf * 0 = NaN`` (and a ``RuntimeWarning``).  With the masks,
        diverged rows honestly report ``(-inf, +inf)``.
        """
        w = np.asarray(weights, dtype=float)
        positive = w > 0.0
        negative = w < 0.0
        lo = (self.lower[:, positive] @ w[positive]
              + self.upper[:, negative] @ w[negative])
        hi = (self.upper[:, positive] @ w[positive]
              + self.lower[:, negative] @ w[negative])
        return lo, hi


def _slice_candidates(lower: np.ndarray, upper: np.ndarray, pin_index: int,
                      pin_value: float, samples_per_axis: int) -> np.ndarray:
    """Points of the box ``[lower, upper]`` with coordinate ``pin_index`` pinned.

    Enumerates the corners of the (d-1)-dimensional slice, plus an
    interior grid when ``samples_per_axis > 2``.
    """
    d = lower.shape[0]
    axes = []
    for j in range(d):
        if j == pin_index:
            axes.append(np.array([pin_value]))
            continue
        lo, hi = lower[j], upper[j]
        if hi <= lo:
            axes.append(np.array([lo]))
        elif samples_per_axis <= 2:
            axes.append(np.array([lo, hi]))
        else:
            axes.append(np.linspace(lo, hi, samples_per_axis))
    return np.array(list(itertools.product(*axes)))


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


def hull_vector_field(
    model,
    x_samples_per_axis: int = 2,
    refine: bool = False,
    theta_method: str = "auto",
):
    """The autonomous hull pair field ``(t, z) -> dz`` on ``z = (xlo, xhi)``.

    This is the right-hand side :func:`differential_hull_bounds`
    integrates; it is exposed so steady-state analyses can treat the
    hull pair as a fixed-point problem (the stationary rectangle is a
    zero of this field).  See :func:`differential_hull_bounds` for the
    parameter semantics.
    """
    d = model.dim
    extremizer = DriftExtremizer(model, method=theta_method)

    use_masks = x_samples_per_axis <= 2
    if use_masks:
        corner_bits, lo_sel, hi_sel = _corner_masks(d)
        columns = np.arange(d)[:, None]

    def hull_field(t, z):
        lower, upper = z[:d], z[d:]
        # Keep the slice box well-ordered under round-off.
        upper = np.maximum(upper, lower)
        if use_masks:
            corners = np.where(corner_bits, upper[None, :], lower[None, :])
            env_lo, env_hi = extremizer.velocity_envelope_batch(corners)
            dlo = env_lo[lo_sel, columns].min(axis=1)
            dhi = env_hi[hi_sel, columns].max(axis=1)
        else:
            blocks = []
            probes = []
            sizes = []
            for i in range(d):
                e = np.zeros(d)
                e[i] = 1.0
                for pin, sign in ((lower[i], -1.0), (upper[i], 1.0)):
                    pts = _slice_candidates(lower, upper, i, pin,
                                            x_samples_per_axis)
                    blocks.append(pts)
                    probes.append(np.tile(sign * e, (pts.shape[0], 1)))
                    sizes.append(pts.shape[0])
            values = extremizer.support_batch(np.vstack(blocks),
                                              np.vstack(probes))
            splits = np.split(values, np.cumsum(sizes)[:-1])
            dlo = np.array([-splits[2 * i].max() for i in range(d)])
            dhi = np.array([splits[2 * i + 1].max() for i in range(d)])
        if refine:
            for i in range(d):
                dlo[i] = min(
                    dlo[i],
                    _refined_extremum(extremizer, lower, upper, i, lower[i],
                                      minimise=True),
                )
                dhi[i] = max(
                    dhi[i],
                    _refined_extremum(extremizer, lower, upper, i, upper[i],
                                      minimise=False),
                )
        return np.concatenate([dlo, dhi])

    return hull_field


def differential_hull_bounds(
    model,
    x0,
    t_eval,
    x_samples_per_axis: int = 2,
    refine: bool = False,
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
        Output time grid.
    x_samples_per_axis:
        Sampling of each free coordinate of the box slice during the
        inner extremisation (2 = corners only, exact for monotone rates).
    refine:
        Polish each slice extremum with a bounded L-BFGS-B run; only
        useful for rates that are non-monotone in the state.
    theta_method:
        Extremiser strategy over ``Theta`` (see
        :class:`~repro.inclusion.DriftExtremizer`).
    blowup_threshold:
        The hull ODEs can diverge exponentially once the rectangle grows
        past the basin where the bounding fields are contracting (the
        "trivial" regime of Figure 4c).  Integration stops when any bound
        exceeds this magnitude and the remaining samples are filled with
        ``-inf`` / ``+inf``, which is the honest reading of a diverged
        hull.

    The RHS goes through the batched extremiser: with corner sampling
    the slice-corner masks are precomputed once and every evaluation
    issues a *single*
    :meth:`~repro.inclusion.DriftExtremizer.velocity_envelope_batch`
    call over the ``2^d`` rectangle corners, instead of ``O(d 2^(d-1))``
    Python-level extremisations.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    d = model.dim
    hull_field = hull_vector_field(
        model,
        x_samples_per_axis=x_samples_per_axis,
        refine=refine,
        theta_method=theta_method,
    )

    z0 = np.concatenate([x0, x0])

    def blowup_event(t, z):
        return blowup_threshold - float(np.max(np.abs(z)))

    blowup_event.terminal = True
    blowup_event.direction = -1.0

    with telemetry.span("hull.integrate") as sp:
        sol = solve_ivp(
            hull_field,
            (float(t_eval[0]), float(t_eval[-1])),
            z0,
            t_eval=t_eval,
            rtol=rtol,
            atol=atol,
            events=blowup_event,
        )
        sp.set("nfev", int(sol.nfev))
    telemetry.inc("hull.rhs_evals", int(sol.nfev))
    if not sol.success and sol.status != 1:
        raise RuntimeError(f"hull integration failed: {sol.message}")
    n_done = sol.t.shape[0]
    lower = np.full((t_eval.shape[0], d), -np.inf)
    upper = np.full((t_eval.shape[0], d), np.inf)
    lower[:n_done] = sol.y[:d].T
    upper[:n_done] = sol.y[d:].T
    return HullBounds(
        times=t_eval.copy(),
        lower=lower,
        upper=upper,
        state_names=model.state_names,
    )


def _refined_extremum(extremizer: DriftExtremizer, lower, upper, pin_index,
                      pin_value, minimise: bool) -> float:
    """L-BFGS-B polish of the slice extremisation (free coordinates only)."""
    d = lower.shape[0]
    free = [j for j in range(d) if j != pin_index]
    if not free:
        value = extremizer.coordinate_range(
            np.array([pin_value]), pin_index
        )
        return value[0] if minimise else value[1]

    def assemble(free_values):
        x = np.empty(d)
        x[pin_index] = pin_value
        x[free] = free_values
        return x

    def objective(free_values):
        x = assemble(free_values)
        lo, hi = extremizer.coordinate_range(x, pin_index)
        return lo if minimise else -hi

    start = np.array([0.5 * (lower[j] + upper[j]) for j in free])
    bounds = [(lower[j], upper[j]) for j in free]
    result = minimize(objective, start, method="L-BFGS-B", bounds=bounds)
    value = float(result.fun)
    return value if minimise else -value
