"""ODE integration substrate shared by every continuous-state method.

The mean-field objects of the paper are solved with two integrator
families:

- a fixed-grid classical Runge–Kutta 4 integrator (:func:`rk4_integrate`
  and the controlled :func:`rk4_integrate_controlled_batch`), used by the
  Pontryagin forward–backward sweep which needs the state, costate and
  control to live on one shared time grid, and
- one adaptive integrator, :func:`dopri_batch` (Dormand–Prince 5(4)
  with per-lane error control and lane retirement), used where accuracy
  per cost matters (uncertain sweeps, fixed-point location, differential
  hulls, Birkhoff trajectories).  :func:`solve_ode` is its one-lane
  view.

Both produce :class:`Trajectory` objects with linear-interpolation
evaluation, and :func:`find_fixed_point` / :func:`find_fixed_point_batch`
locate equilibria by integrating to stationarity; the point returned is
the settle's end state, with no root-finding polish.  Nothing here
imports ``scipy.integrate`` or ``scipy.optimize``.

:mod:`repro.ode.batch` holds the kernels that advance an
``(n_lanes, d)`` stack of IVPs as one array program: ``dopri_batch``,
``find_fixed_point_batch``, and the fixed-grid
:func:`rk4_integrate_batch` (lockstep, bit-identical to the scalar loop
lane by lane) and :func:`rk4_integrate_controlled_batch` (the only
controlled RK4: a scalar controlled solve is a one-lane batch).
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
