"""repro — Mean-field approximation of uncertain stochastic models.

A production-oriented reproduction of Bortolussi & Gast, *Mean Field
Approximation of Uncertain Stochastic Models*, DSN 2016.

The library models large populations of interacting agents whose
transition rates depend on parameters that are *uncertain* (constant but
unknown in a set ``Theta``) or *imprecise* (varying arbitrarily in time
within ``Theta``), and analyses them through their mean-field limits —
differential inclusions — with sound transient and steady-state bounds.

Typical usage::

    import numpy as np
    from repro import (
        make_sir_model, pontryagin_transient_bounds, uncertain_envelope,
    )

    model = make_sir_model()                     # theta in [1, 10]
    x0 = [0.7, 0.3]
    horizons = np.linspace(0.25, 4.0, 16)
    imprecise = pontryagin_transient_bounds(model, x0, horizons,
                                            observables=["I"])
    uncertain = uncertain_envelope(model, x0, np.insert(horizons, 0, 0.0))

Package map (the README's Layout table lists every package):

- ``repro.params`` / ``repro.population`` / ``repro.models`` — model
  definitions;
- ``repro.meanfield`` / ``repro.inclusion`` — the limit objects;
- ``repro.bounds`` — transient bounds (sweep / hull / Pontryagin);
- ``repro.steadystate`` — Birkhoff centres and stationary rectangles;
- ``repro.simulation`` / ``repro.ctmc`` — control policies (each
  answers for a batch of SSA rows), finite-``N`` stochastic and exact
  analysis;
- ``repro.engine`` — the vectorized SSA ensemble every simulation runs
  on, and multiprocessing parameter sweeps;
- ``repro.analysis`` / ``repro.reporting`` — robust design, convergence
  studies and harness output;
- ``repro.scenarios`` — the declarative scenario catalog, unified
  analysis dispatch and content-hash result cache behind
  ``python -m repro``.
"""

from repro.analysis import (
    birkhoff_inclusion_fraction,
    convergence_study,
    ensemble_inclusion_fraction,
    interval_width_sensitivity,
    robust_minimize_scalar,
)
from repro.bounds import (
    TemplatePolytope,
    box_directions,
    differential_hull_bounds,
    extremal_trajectory,
    octagon_directions,
    pontryagin_transient_bounds,
    switching_times_from_costate,
    template_reachable_bounds,
    uncertain_envelope,
)
from repro.ctmc import ImpreciseCTMC, IntervalDTMC, imprecise_reward_bounds
from repro.engine import simulate_ensemble, sweep_constant_ensembles
from repro.inclusion import DriftExtremizer, ParametricInclusion
from repro.meanfield import mean_field_accuracy, verify_population_scaling
from repro.models import (
    GPS_PAPER_PARAMS,
    SIR_PAPER_PARAMS,
    gps_initial_state_map,
    gps_initial_state_poisson,
    make_bike_station_model,
    make_cdn_cache_model,
    make_gossip_model,
    make_gps_map_model,
    make_gps_poisson_model,
    make_power_of_d_model,
    make_repairable_queue_model,
    make_seir_model,
    make_sir_full_model,
    make_sir_model,
)
from repro.params import Box, DiscreteSet, Interval, ParameterSet, Singleton
from repro.population import FinitePopulation, PopulationModel, Transition
from repro.reporting import ExperimentResult, Series, render_table
from repro.scenarios import (
    Question,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
)
from repro.simulation import (
    ConstantPolicy,
    HysteresisPolicy,
    PiecewiseConstantPolicy,
    RandomJumpPolicy,
    simulate,
)
from repro.steadystate import (
    asymptotic_reachable_hull,
    birkhoff_centre_2d,
    hull_steady_rectangle,
    uncertain_fixed_points,
)

#: Bump on releases that change any computation backend: the scenario
#: disk cache stamps entries with this version and treats entries from
#: other versions as stale (repro.scenarios.cache).
__version__ = "1.2.0"

__all__ = [
    "__version__",
    # parameter domains
    "ParameterSet", "Interval", "Box", "DiscreteSet", "Singleton",
    # modelling
    "Transition", "PopulationModel", "FinitePopulation",
    # paper models
    "make_sir_model", "make_sir_full_model", "SIR_PAPER_PARAMS",
    "make_gps_poisson_model", "make_gps_map_model", "GPS_PAPER_PARAMS",
    "gps_initial_state_poisson", "gps_initial_state_map",
    "make_bike_station_model", "make_seir_model",
    "make_power_of_d_model", "make_gossip_model",
    "make_repairable_queue_model", "make_cdn_cache_model",
    # mean-field limits
    "verify_population_scaling", "mean_field_accuracy",
    "ParametricInclusion", "DriftExtremizer",
    # bounds
    "uncertain_envelope", "differential_hull_bounds",
    "extremal_trajectory", "pontryagin_transient_bounds",
    "switching_times_from_costate", "template_reachable_bounds",
    "TemplatePolytope", "box_directions", "octagon_directions",
    # steady state
    "birkhoff_centre_2d", "uncertain_fixed_points", "hull_steady_rectangle",
    "asymptotic_reachable_hull",
    # stochastic / exact
    "simulate", "simulate_ensemble", "sweep_constant_ensembles",
    "ConstantPolicy", "PiecewiseConstantPolicy", "HysteresisPolicy",
    "RandomJumpPolicy",
    "ImpreciseCTMC", "IntervalDTMC", "imprecise_reward_bounds",
    # studies & reporting
    "robust_minimize_scalar", "birkhoff_inclusion_fraction",
    "ensemble_inclusion_fraction",
    "convergence_study", "interval_width_sensitivity",
    "ExperimentResult", "Series", "render_table",
    # scenario catalog
    "Question", "ScenarioSpec", "register_scenario", "get_scenario",
    "list_scenarios", "run_scenario",
]
