"""Population processes defined by transition classes.

Section III of the paper defines imprecise population processes as
sequences of imprecise CTMCs indexed by a scaling parameter ``N`` whose
transitions shrink like ``1/N``.  Following the paper's own suggestion
("a simpler definition can be obtained by specifying transition classes"),
a model here is a list of :class:`Transition` objects — each with a jump
vector (in population counts) and a density-scaled rate function
``rate(x, theta)`` — together with a parameter domain ``Theta``.

- :class:`Transition` — one event class (jump vector + rate function).
- :class:`PopulationModel` — the model: drift (Definition 3 / Eq. 3),
  optional affine-in-theta decomposition and analytic Jacobians, state
  bounds and conservation constraints.
- :class:`FinitePopulation` — the concrete finite-``N`` CTMC obtained by
  instantiating the model at a population size, ready for stochastic
  simulation or exact CTMC analysis.
- :func:`check_affine_decomposition` — checks a declared affine
  decomposition against the drift (the model test-suites use it).
"""

from repro.population.calculus import check_affine_decomposition
from repro.population.finite import FinitePopulation
from repro.population.model import PopulationModel
from repro.population.transitions import Transition

__all__ = [
    "Transition",
    "PopulationModel",
    "FinitePopulation",
    "check_affine_decomposition",
]
