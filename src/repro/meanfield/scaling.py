"""Numerical verification of the population-scaling conditions.

Definition 4 of the paper admits a sequence of imprecise chains as a
*population process* when three conditions hold uniformly over the state
space and the parameter domain:

(i)   uniformizability — total exit rates are bounded for each ``N``;
(ii)  vanishing jumps — ``sup_x sum_y Q^N_{xy} |y - x|^{1 + eps} -> 0``;
(iii) bounded drift — ``sup_x sum_y Q^N_{xy} |y - x|`` stays bounded.

For transition-class models with density-scaled rates these reduce to
closed-form expressions in ``N`` (jump norms are ``|change| / N`` and
aggregate rates are ``N * rate``), but checking them *numerically* on the
instantiated chains guards against mis-scaled rate functions — the most
common modelling bug.  :func:`verify_population_scaling` probes states
and parameter corners and reports the three supremum statistics per size;
the conformance harness
(:meth:`repro.testing.ScenarioConformance.check_population_scaling`) runs
it on every catalog model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

__all__ = ["ScalingReport", "verify_population_scaling"]


@dataclass
class ScalingSample:
    """Per-size scaling statistics (suprema over probed states/parameters)."""

    population_size: int
    max_exit_rate: float
    jump_moment: float  # sup of sum_e N rate_e * (|change_e| / N)^(1 + eps)
    drift_norm: float  # sup of |f(x, theta)|


@dataclass
class ScalingReport:
    """Outcome of :func:`verify_population_scaling`."""

    model_name: str
    epsilon: float
    samples: List[ScalingSample] = field(default_factory=list)

    @property
    def jump_moments(self) -> np.ndarray:
        return np.array([s.jump_moment for s in self.samples])

    @property
    def drift_norms(self) -> np.ndarray:
        return np.array([s.drift_norm for s in self.samples])

    def jumps_vanish(self) -> bool:
        """Condition (ii): the jump moment decreases towards zero in N."""
        moments = self.jump_moments
        if moments.shape[0] < 2:
            raise ValueError("need at least two population sizes to check decay")
        decreasing = bool(np.all(np.diff(moments) <= 1e-12))
        return decreasing and moments[-1] < moments[0]

    def drift_bounded(self, factor: float = 4.0) -> bool:
        """Condition (iii): drift suprema do not grow with N."""
        norms = self.drift_norms
        return bool(np.max(norms) <= factor * max(np.min(norms), 1e-12))

    def uniformizable(self) -> bool:
        """Condition (i): every sampled exit rate is finite."""
        return all(np.isfinite(s.max_exit_rate) for s in self.samples)

    def all_conditions_hold(self) -> bool:
        return self.uniformizable() and self.jumps_vanish() and self.drift_bounded()


def _probe_states(model, per_axis: int) -> np.ndarray:
    lower = model.state_lower
    upper = model.state_upper
    if lower is None:
        lower = np.zeros(model.dim)
        upper = np.ones(model.dim)
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def verify_population_scaling(
    model,
    sizes: Sequence[int] = (10, 100, 1000, 10000),
    epsilon: float = 0.5,
    states_per_axis: int = 5,
) -> ScalingReport:
    """Probe the Definition-4 conditions for a model across sizes.

    Parameters
    ----------
    model:
        The :class:`~repro.population.PopulationModel` to audit.
    sizes:
        Increasing population sizes to instantiate.
    epsilon:
        The ``eps > 0`` of condition (ii).
    states_per_axis:
        Grid resolution of the probed states per state coordinate (keep
        small for high-dimensional models: cost is ``per_axis ** dim``).

    Each corner of ``Theta`` costs one
    :meth:`~repro.population.PopulationModel.transition_rates_batch` and
    one :meth:`~repro.population.PopulationModel.drift_batch` call over
    the whole probe grid, with the sizes broadcast against the rates.  A
    rate that is infinite at a probed state (say, one that blows up on
    the boundary of the state box) is reported, not raised: its size's
    ``max_exit_rate`` is ``inf`` and :meth:`ScalingReport.uniformizable`
    fails.
    """
    sizes = sorted(int(n) for n in sizes)
    if len(sizes) < 2:
        raise ValueError("provide at least two population sizes")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    states = _probe_states(model, states_per_axis)
    n = np.array(sizes, dtype=float)[:, None, None]
    change_norms = np.linalg.norm(
        np.array([tr.change for tr in model.transitions]), axis=1
    )
    # sum_y Q_xy |y - x|^(1+eps) with |y - x| = |change| / n.
    jump_weights = (change_norms / n) ** (1.0 + epsilon)
    max_exit = np.zeros(len(sizes))
    max_jump_moment = np.zeros(len(sizes))
    max_drift = 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for theta in model.theta_set.corners():
            rates = model.transition_rates_batch(states, theta)
            # Aggregate exit rate of the size-n chain at each probe state.
            exits = n[:, :, 0] * rates.sum(axis=1)
            moments = np.sum(n * rates * jump_weights, axis=2)
            drifts = np.linalg.norm(model.drift_batch(states, theta), axis=1)
            max_exit = np.maximum(max_exit, exits.max(axis=1))
            max_jump_moment = np.maximum(max_jump_moment, moments.max(axis=1))
            max_drift = np.maximum(max_drift, drifts.max())
    report = ScalingReport(model_name=model.name, epsilon=float(epsilon))
    for k, size in enumerate(sizes):
        report.samples.append(
            ScalingSample(
                population_size=size,
                max_exit_rate=float(max_exit[k]),
                jump_moment=float(max_jump_moment[k]),
                drift_norm=float(max_drift),
            )
        )
    return report
