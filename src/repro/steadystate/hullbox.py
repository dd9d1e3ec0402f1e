"""Stationary rectangle of the differential-hull approximation.

Figure 5 of the paper compares the Birkhoff centre with the rectangle the
differential hull converges to.  The hull ODE pair is autonomous in the
stacked state ``(xlo, xhi)``; when its bounding fields are contracting
the pair approaches a fixed rectangle, which over-approximates every
stationary behaviour of the inclusion.  When the fields are *not*
contracting (wide ``Theta``) the rectangle diverges — the "trivial for
theta_max >= 6" regime the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.bounds.hull import differential_hull_bounds, hull_vector_field
from repro.ode import find_fixed_point_batch

__all__ = ["HullRectangle", "hull_steady_rectangle"]


@dataclass
class HullRectangle:
    """A stationary hull rectangle ``[lower, upper]`` (or its divergence)."""

    lower: np.ndarray
    upper: np.ndarray
    converged: bool
    residual: float
    state_names: Tuple[str, ...]

    def contains(self, point, tol: float = 1e-9) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def widths(self) -> np.ndarray:
        return self.upper - self.lower


def hull_steady_rectangle(
    model,
    x0,
    horizon: float = 200.0,
    residual_window: float = 0.05,
    residual_tol: float = 1e-6,
    settle: bool = True,
    **hull_kwargs,
) -> HullRectangle:
    """Integrate the hull pair to stationarity (or detect divergence).

    Parameters
    ----------
    model, x0:
        As for :func:`~repro.bounds.differential_hull_bounds`.
    horizon:
        Integration length used to reach the stationary rectangle.
    residual_window:
        Fraction of the horizon (from the end) over which stationarity
        is assessed.
    residual_tol:
        Maximum bound movement over the window for ``converged=True``.
    settle:
        After a finite integration, settle the rectangle onto a zero of
        the hull field through :func:`~repro.ode.find_fixed_point_batch`
        (further integration of the stacked ``(xlo, xhi)`` state until
        the field residual meets the settle tolerance; there is no
        root-finding polish).  The hull pair approaches its stationary
        rectangle from the inside, so the settled rectangle can only
        grow — soundness is preserved — and the reported ``residual``
        becomes the field residual at the settled point.  A settle that
        finds no equilibrium (slowly diverging hull) leaves the
        integration result untouched.
    hull_kwargs:
        Forwarded to the hull integrator (``theta_method``, tolerances,
        blow-up threshold).
    """
    t_eval = np.linspace(0.0, float(horizon), 401)
    bounds = differential_hull_bounds(model, x0, t_eval, **hull_kwargs)
    window = max(2, int(np.ceil(residual_window * t_eval.shape[0])))
    tail_lower = bounds.lower[-window:]
    tail_upper = bounds.upper[-window:]
    finite = bool(
        np.all(np.isfinite(tail_lower)) and np.all(np.isfinite(tail_upper))
    )
    if finite:
        residual = float(
            max(
                np.max(np.abs(tail_lower - tail_lower[-1])),
                np.max(np.abs(tail_upper - tail_upper[-1])),
            )
        )
    else:
        residual = np.inf
    lower = bounds.lower[-1].copy()
    upper = bounds.upper[-1].copy()
    converged = finite and residual <= residual_tol
    if settle and finite:
        # Forward only the kwarg the field builder owns, so its own
        # default stays the single source of truth and the settled field
        # is exactly the field that was integrated.
        field = hull_vector_field(
            model,
            **{key: hull_kwargs[key]
               for key in ("theta_method",) if key in hull_kwargs},
        )

        def field_batch(Z):
            return np.stack([field(0.0, z) for z in Z])

        try:
            fp = find_fixed_point_batch(
                field_batch,
                np.concatenate([lower, upper])[None, :],
                settle_time=float(horizon) / 4.0,
                max_rounds=2,
            )
        except RuntimeError:
            # No equilibrium within reach: keep the honest integration
            # result (e.g. a hull diverging slower than the blow-up
            # threshold detects).
            pass
        else:
            z = fp.points[0]
            d = model.dim
            # Soundness gate: the hull pair approaches its stationary
            # rectangle from the inside, so a legitimate settle can only
            # *grow* the integrated rectangle (up to solver noise).  A
            # settle that ended on a different, smaller zero of the
            # field must be discarded, not served as a bound.
            grow_tol = 1e-7 * (1.0 + float(np.max(np.abs(z))))
            sound = (
                np.all(z[d:] >= z[:d] - 1e-12)
                and np.all(z[:d] <= lower + grow_tol)
                and np.all(z[d:] >= upper - grow_tol)
            )
            if sound:
                lower, upper = z[:d].copy(), z[d:].copy()
                residual = float(fp.residuals[0])
                converged = converged or residual <= residual_tol
    return HullRectangle(
        lower=lower,
        upper=upper,
        converged=converged,
        residual=residual,
        state_names=model.state_names,
    )
