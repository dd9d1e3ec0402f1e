"""Transient bounds on the mean-field differential inclusion (Section IV).

Three bound computations, in increasing tightness-per-cost order:

- :mod:`repro.bounds.sweep` — the *uncertain* envelope: integrate the
  mean-field ODE for a grid of constant parameters and take pointwise
  extrema.  Exact for the uncertain scenario (Corollary 1), a strict
  under-approximation of the imprecise reachable set (Eq. 12).
- :mod:`repro.bounds.hull` — the *differential hull* (Section IV-B): a
  coordinate-wise rectangular over-approximation obtained by integrating
  a coupled pair of ODEs.  Cheap, sound, but loose for wide ``Theta``
  (Figures 4–5).
- :mod:`repro.bounds.pontryagin` — the Pontryagin maximum principle
  forward–backward sweep (Section IV-C): computes the exact extreme value
  of any linear functional ``c . x(T)`` over the solutions of the
  inclusion, together with the bang-bang parameter signal attaining it
  (Figures 1–2, 7).
"""

from repro.bounds.hull import (
    HullBounds,
    differential_hull_bounds,
    hull_vector_field,
)
from repro.bounds.pontryagin import (
    PontryaginResult,
    extremal_trajectories_batch,
    extremal_trajectory,
    pontryagin_transient_bounds,
    switching_function,
    switching_times_from_costate,
)
from repro.bounds.sweep import UncertainEnvelope, uncertain_envelope
from repro.bounds.templates import (
    TemplatePolytope,
    box_directions,
    octagon_directions,
    template_reachable_bounds,
)

__all__ = [
    "uncertain_envelope",
    "UncertainEnvelope",
    "differential_hull_bounds",
    "hull_vector_field",
    "HullBounds",
    "extremal_trajectory",
    "extremal_trajectories_batch",
    "pontryagin_transient_bounds",
    "switching_function",
    "switching_times_from_costate",
    "PontryaginResult",
    "TemplatePolytope",
    "box_directions",
    "octagon_directions",
    "template_reachable_bounds",
]
