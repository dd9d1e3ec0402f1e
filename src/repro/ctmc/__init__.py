"""Exact analysis of finite imprecise CTMCs (Section II).

For population sizes small enough to enumerate, the chain of
Definition 1 can be analysed exactly:

- :func:`enumerate_lattice` — breadth-first enumeration of the reachable
  count lattice of a :class:`~repro.population.FinitePopulation`.
- :class:`ImpreciseCTMC` — the explicit chain: parametrised generator
  matrices ``Q(theta)`` with their affine-in-theta decomposition.
- :mod:`repro.ctmc.kolmogorov` — the imprecise Kolmogorov equations
  (Eq. 2): the probability mass evolves in the *linear* differential
  inclusion ``P' in {Q(theta)^T P}``, so the same Pontryagin sweep that
  bounds mean-field observables bounds transient probabilities and
  expected rewards exactly.
- :class:`IntervalDTMC` — Škulj-style interval DTMCs obtained by
  uniformization, with batched credal operators (all row knapsacks of
  a reward stack in one pass over each row's support slots) and
  Poisson-mixed time-``t`` bounds that enclose the exact imprecise
  bounds by construction.
"""

from repro.ctmc.chain import ImpreciseCTMC
from repro.ctmc.enumeration import enumerate_lattice
from repro.ctmc.interval_dtmc import IntervalDTMC
from repro.ctmc.kolmogorov import (
    KolmogorovSystem,
    imprecise_reward_bounds,
    uncertain_reward_envelope,
)

__all__ = [
    "enumerate_lattice",
    "ImpreciseCTMC",
    "IntervalDTMC",
    "KolmogorovSystem",
    "imprecise_reward_bounds",
    "uncertain_reward_envelope",
]
