"""Mean-field limits of imprecise population processes (Section III).

The limit objects themselves need no constructor: the drift
``f(x, theta)`` of a :class:`~repro.population.PopulationModel` is
independent of ``N``, so its frozen-``theta`` field
(:meth:`~repro.population.PopulationModel.vector_field`) is the ODE of
Corollary 1 and :class:`~repro.inclusion.ParametricInclusion` is the
differential inclusion of Theorem 1.  This package checks and measures
the limit:

- :func:`verify_population_scaling` — numerically checks the three
  conditions of Definition 4 (uniformizability, vanishing jumps, bounded
  drift) on a sequence of population sizes, returning a
  :class:`ScalingReport`; the conformance harness runs it on every
  catalog model.
- :func:`mean_field_accuracy` — how fast finite-``N`` ensembles approach
  the limit, returning an :class:`AccuracyStudy`.
"""

from repro.meanfield.accuracy import AccuracyStudy, mean_field_accuracy
from repro.meanfield.scaling import ScalingReport, verify_population_scaling

__all__ = [
    "verify_population_scaling",
    "ScalingReport",
    "mean_field_accuracy",
    "AccuracyStudy",
]
