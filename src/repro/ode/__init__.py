"""ODE integration substrate shared by every continuous-state method.

The mean-field objects of the paper are solved with two integrator
families:

- a fixed-grid classical Runge–Kutta 4 integrator (:func:`rk4_integrate`
  and the controlled :func:`rk4_integrate_controlled_batch`), used by the
  Pontryagin forward–backward sweep which needs the state, costate and
  control to live on one shared time grid, and
- an adaptive integrator (:func:`solve_ode`) wrapping
  :func:`scipy.integrate.solve_ivp`, used where accuracy per cost matters
  (uncertain sweeps, fixed-point location, differential hulls).

Both produce :class:`Trajectory` objects with linear-interpolation
evaluation, and :func:`find_fixed_point` locates equilibria by integrating
to stationarity and polishing with a Newton solve.

Each family also has a *batched* form in :mod:`repro.ode.batch` that
advances an ``(n_lanes, d)`` stack of IVPs as one array program:
:func:`rk4_integrate_batch` (lockstep, bit-identical to the scalar loop
lane by lane), :func:`rk4_integrate_controlled_batch` (the only
controlled RK4: a scalar controlled solve is a one-lane batch),
:func:`dopri_batch` (adaptive Dormand–Prince 5(4) with per-lane error
control and lane retirement) and :func:`find_fixed_point_batch`.
"""

from repro.ode.batch import (
    FixedPointBatch,
    TrajectoryBatch,
    dopri_batch,
    find_fixed_point_batch,
    pad_grids,
    rk4_integrate_batch,
    rk4_integrate_controlled_batch,
)
from repro.ode.integrators import (
    Trajectory,
    find_fixed_point,
    rk4_integrate,
    rk4_step,
    solve_ode,
)

__all__ = [
    "Trajectory",
    "TrajectoryBatch",
    "FixedPointBatch",
    "pad_grids",
    "rk4_step",
    "rk4_integrate",
    "rk4_integrate_batch",
    "rk4_integrate_controlled_batch",
    "dopri_batch",
    "solve_ode",
    "find_fixed_point",
    "find_fixed_point_batch",
]
