"""Finite-``N`` convergence to the Birkhoff centre (Figure 6 / Theorem 2).

Theorem 2 states that the distance from the finite-``N`` process to the
asymptotic set of the inclusion vanishes (in probability) as ``N`` grows;
Figure 6 illustrates it with SSA sample paths against the Birkhoff
centre.  This module quantifies the picture:

- :func:`birkhoff_inclusion_fraction` — the fraction of post-burn-in SSA
  samples lying within ``eps`` of the computed region, plus distance
  statistics;
- :func:`ensemble_inclusion_fraction` — the same measurement pooled
  over every run of a vectorized ensemble
  (:class:`~repro.simulation.BatchResult`);
- :func:`convergence_study` — run the measurement over a ladder of
  population sizes and policies, producing the numbers behind the
  "as N grows, the simulation gets included in the Birkhoff centre"
  claim.  Each size/policy cell is one ensemble of ``n_runs``
  independent chains on the vectorized engine.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.engine import simulate_ensemble
from repro.simulation import ControlPolicy, SimulationResult
from repro.steadystate.birkhoff import BirkhoffResult

__all__ = [
    "InclusionStats",
    "birkhoff_inclusion_fraction",
    "ensemble_inclusion_fraction",
    "ConvergenceStudy",
    "convergence_study",
]


@dataclass
class InclusionStats:
    """Distance statistics of a sampled path against a region."""

    fraction_inside: float
    mean_distance: float
    max_distance: float
    n_samples: int

    def __repr__(self) -> str:
        return (
            f"InclusionStats(inside={self.fraction_inside:.3f}, "
            f"mean_d={self.mean_distance:.4g}, max_d={self.max_distance:.4g})"
        )


def birkhoff_inclusion_fraction(
    result: SimulationResult,
    region: BirkhoffResult,
    burn_in: float = 0.0,
    epsilon: float = 0.0,
    projection: Optional[Sequence[int]] = None,
) -> InclusionStats:
    """Measure how much of a sampled path lies inside a Birkhoff region.

    Parameters
    ----------
    result:
        An SSA run (its states are normalised densities).
    region:
        A computed Birkhoff centre (2-D).
    burn_in:
        Time before which samples are discarded (transient window).
    epsilon:
        Inclusion tolerance: a sample within distance ``epsilon`` counts
        as inside (the ``eps_N`` of Theorem 2; a natural choice is a few
        multiples of ``1/sqrt(N)``).
    projection:
        Indices of the two state coordinates matching the region's plane
        (defaults to the first two).
    """
    sampled = result.after(burn_in) if burn_in > 0 else result
    projection = list(projection) if projection is not None else [0, 1]
    if len(projection) != 2:
        raise ValueError("projection must name exactly two coordinates")
    pts = sampled.states[:, projection]
    return _inclusion_stats_of_points(pts, region, epsilon)


def _inclusion_stats_of_points(pts: np.ndarray, region: BirkhoffResult,
                               epsilon: float) -> InclusionStats:
    distances = np.array([region.distance(p) for p in pts])
    inside = distances <= epsilon + 1e-12
    return InclusionStats(
        fraction_inside=float(np.mean(inside)),
        mean_distance=float(np.mean(distances)),
        max_distance=float(np.max(distances)),
        n_samples=int(pts.shape[0]),
    )


def ensemble_inclusion_fraction(
    batch,
    region: BirkhoffResult,
    burn_in: float = 0.0,
    epsilon: float = 0.0,
    projection: Optional[Sequence[int]] = None,
) -> InclusionStats:
    """Inclusion statistics pooled over all runs of an ensemble.

    ``batch`` is a :class:`~repro.simulation.BatchResult`; every run's
    post-burn-in samples contribute to one pooled point cloud, so the
    statistics sharpen with ``n_runs`` as well as with the horizon.
    """
    projection = list(projection) if projection is not None else [0, 1]
    if len(projection) != 2:
        raise ValueError("projection must name exactly two coordinates")
    mask = batch.times >= burn_in
    if not mask.any():
        raise ValueError(f"no samples at or after t={burn_in}")
    pts = batch.states[:, mask][:, :, projection].reshape(-1, 2)
    return _inclusion_stats_of_points(pts, region, epsilon)


@dataclass
class ConvergenceStudy:
    """Inclusion statistics across population sizes and policies."""

    region: BirkhoffResult
    stats: Dict[str, Dict[int, InclusionStats]] = field(default_factory=dict)

    def fractions(self, policy_name: str) -> List[float]:
        """Inside fractions of one policy, ordered by population size."""
        by_size = self.stats[policy_name]
        return [by_size[n].fraction_inside for n in sorted(by_size)]

    def is_monotone_improving(self, policy_name: str, slack: float = 0.05) -> bool:
        """Whether inclusion improves (weakly, up to ``slack``) with N."""
        fracs = self.fractions(policy_name)
        return all(b >= a - slack for a, b in zip(fracs, fracs[1:]))


def convergence_study(
    model,
    region: BirkhoffResult,
    policies: Dict[str, ControlPolicy],
    sizes: Sequence[int],
    x0,
    t_final: float,
    burn_in: float,
    seed: int = 0,
    n_samples: int = 2000,
    epsilon_fn: Optional[Callable[[int], float]] = None,
    projection: Optional[Sequence[int]] = None,
    n_runs: int = 1,
) -> ConvergenceStudy:
    """Run the Figure-6 measurement over sizes and policies.

    Parameters
    ----------
    policies:
        Mapping from a policy label to the policy instance that drives
        that label's ensemble at every size (``reset`` rebuilds its
        per-row state for each one).
    epsilon_fn:
        Inclusion tolerance per population size; defaults to
        ``3 / sqrt(N)`` (the CLT-scale fluctuation band around the
        mean-field limit).
    n_runs:
        Independent chains per (policy, size) cell; their post-burn-in
        samples are pooled into one inclusion measurement.

    Seeds are derived from a stable checksum of the policy label (not
    the process-salted ``hash``), so studies are reproducible across
    interpreter invocations.
    """
    if epsilon_fn is None:
        epsilon_fn = lambda n: 3.0 / np.sqrt(n)  # noqa: E731
    study = ConvergenceStudy(region=region)
    for name, policy in policies.items():
        study.stats[name] = {}
        name_salt = zlib.crc32(name.encode()) % 1000
        for k, n in enumerate(sizes):
            population = model.instantiate(int(n), x0)
            batch = simulate_ensemble(
                population, policy, t_final,
                n_runs=n_runs, seed=seed + 1000 * k + name_salt,
                n_samples=n_samples,
            )
            study.stats[name][int(n)] = ensemble_inclusion_fraction(
                batch, region, burn_in=burn_in, epsilon=epsilon_fn(int(n)),
                projection=projection,
            )
    return study
