"""repro.scenarios — declarative scenario catalog and cached runner.

The paper's value is that *one* imprecise-mean-field toolkit answers
many different model questions; this package makes that literal.  A
:class:`ScenarioSpec` declares a model family, its parameter-uncertainty
set (through the factory's bounds kwargs), an initial condition, a
horizon and a list of :class:`Question`\\ s; :func:`run_scenario` routes
each question to the right backend —

- ``envelope``   → :func:`repro.bounds.uncertain_envelope`
- ``pontryagin`` → :func:`repro.bounds.pontryagin_transient_bounds`
- ``hull``       → :func:`repro.bounds.differential_hull_bounds`
- ``template``   → :func:`repro.bounds.template_reachable_bounds`
- ``steadystate``→ :func:`repro.steadystate.hull_steady_rectangle` and
  the 2-D Birkhoff construction
- ``ensemble``   → :func:`repro.engine.sweep_constant_ensembles`
  (vectorized finite-``N`` SSA)
- ``dtmc_reward``→ :class:`repro.ctmc.IntervalDTMC` (uniformized
  finite chain, batched credal operators)

— fans independent questions over the engine's process-pool primitive,
and memoizes the assembled :class:`~repro.reporting.ExperimentResult`
in a content-hash disk cache, so a repeated run is served in
milliseconds.  The built-in catalog registers the paper's five case
studies plus the extension models; ``python -m repro`` exposes
``list`` / ``describe`` / ``run`` on the command line.

Typical usage::

    from repro.scenarios import get_scenario, run_scenario

    run = run_scenario("sir-transient")
    print(run.result.render())
    print(run.report.render())        # cache_hit=true on the second call

    # A derived variant (content-hashed separately):
    spec = get_scenario("sir-transient").with_overrides(
        name="sir-wide", model_kwargs={"theta_max": 12.0})
    run = run_scenario(spec)
"""

from repro.resilience import QuestionFailure
from repro.scenarios.cache import (
    CACHE_SCHEMA_VERSION,
    cache_dir,
    cache_path,
    clear_cache,
)
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.runner import (
    AnalysisPlan,
    RunReport,
    ScenarioRun,
    envelope_integrator_options,
    run_question,
    run_scenario,
    spec_envelope_options,
)
from repro.scenarios.spec import QUESTION_KINDS, Question, ScenarioSpec

__all__ = [
    "Question",
    "ScenarioSpec",
    "QUESTION_KINDS",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "AnalysisPlan",
    "QuestionFailure",
    "RunReport",
    "ScenarioRun",
    "run_scenario",
    "run_question",
    "envelope_integrator_options",
    "spec_envelope_options",
    "cache_dir",
    "cache_path",
    "clear_cache",
    "CACHE_SCHEMA_VERSION",
]
