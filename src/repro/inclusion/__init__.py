"""Differential inclusions ``x' in F(x)`` and their solution machinery.

The mean-field limit of an imprecise population process (Theorem 1) is a
differential inclusion whose right-hand side is the *parametric* family
``F(x) = {f(x, theta) : theta in Theta}``.  This package provides:

- :class:`DriftExtremizer` — extremises linear functionals of the drift
  over ``Theta`` (the primitive every numerical method reduces to), with
  a closed-form bang-bang fast path for affine-in-theta models and a
  corner/grid fallback otherwise.
- :class:`ParametricInclusion` — the inclusion object: witness solutions
  under state-feedback selections, among them the greedy extreme-velocity
  solution the Pontryagin ablation compares against.
"""

from repro.inclusion.extremizers import DriftExtremizer
from repro.inclusion.parametric import ParametricInclusion

__all__ = [
    "DriftExtremizer",
    "ParametricInclusion",
]
