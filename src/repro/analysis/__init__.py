"""Higher-level studies built on the bound machinery.

- :mod:`repro.analysis.robust` — robust design: tune controllable model
  parameters against the worst-case imprecise behaviour (the GPS weight
  optimisation of Section VI-C).
- :mod:`repro.analysis.convergence` — finite-``N`` convergence studies:
  how fast stochastic trajectories concentrate on the Birkhoff centre
  (the quantitative reading of Figure 6 / Theorem 3).
- :mod:`repro.analysis.lint` — the repo's own static-analysis gate
  (``python -m repro lint``): AST rules REP001–REP010 plus the registry
  contract audit REG001–REG004.  Not imported here — it is a dev tool,
  not part of the numeric API.
"""

from repro.analysis.convergence import (
    ConvergenceStudy,
    birkhoff_inclusion_fraction,
    convergence_study,
    ensemble_inclusion_fraction,
)
from repro.analysis.robust import RobustDesignResult, robust_minimize_scalar
from repro.analysis.sensitivity import WidthSensitivity, interval_width_sensitivity

__all__ = [
    "robust_minimize_scalar",
    "RobustDesignResult",
    "birkhoff_inclusion_fraction",
    "ensemble_inclusion_fraction",
    "convergence_study",
    "ConvergenceStudy",
    "interval_width_sensitivity",
    "WidthSensitivity",
]
