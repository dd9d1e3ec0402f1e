"""The scenario runner: question dispatch, fan-out and caching.

``run_scenario`` is the one entry point behind which every analysis of
the library is reachable declaratively:

========== ==========================================================
question   backend
========== ==========================================================
envelope   :func:`repro.bounds.uncertain_envelope`
pontryagin :func:`repro.bounds.pontryagin_transient_bounds`
hull       :func:`repro.bounds.differential_hull_bounds`
template   :func:`repro.bounds.template_reachable_bounds`
steadystate :func:`repro.steadystate.hull_steady_rectangle` (+ the 2-D
            Birkhoff construction and uncertain fixed points)
ensemble   :func:`repro.engine.sweep_constant_ensembles` (vectorized
           finite-``N`` SSA, sharded)
dtmc_reward :class:`repro.ctmc.IntervalDTMC` (uniformized finite chain,
            batched credal operators) pinned against
            :func:`repro.ctmc.imprecise_reward_bounds`
========== ==========================================================

Questions are independent shards of one :func:`repro.engine.map_shards`
call — in-process by default, over a pool with ``processes > 1`` — so
retries and failure isolation follow the plan's
:class:`~repro.resilience.RetryPolicy` on either path.  Payloads carry
the :class:`ScenarioSpec` itself — specs hold a *module-level* factory
plus plain data, so they pickle under any start method and ad-hoc
(unregistered) specs shard just as well as catalog entries.

Results are memoized in a content-hash disk cache
(:mod:`repro.scenarios.cache`): the spec hash keys a serialized
:class:`~repro.reporting.ExperimentResult`, so a repeated ``run`` is
served in milliseconds and the :class:`RunReport` says so via its
cache-hit counter.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import telemetry
from repro.bounds import (
    box_directions,
    differential_hull_bounds,
    octagon_directions,
    pontryagin_transient_bounds,
    template_reachable_bounds,
    uncertain_envelope,
)
from repro.bounds.sweep import _resolve_weights
from repro.ctmc import ImpreciseCTMC, IntervalDTMC, imprecise_reward_bounds
from repro.engine import map_shards, sweep_constant_ensembles
from repro.reporting import ExperimentResult
from repro.resilience import QuestionFailure, RetryPolicy, ShardFailure
from repro.scenarios import cache as _cache
from repro.scenarios.spec import Question, ScenarioSpec
from repro.steadystate import (
    birkhoff_centre_2d,
    hull_steady_rectangle,
    uncertain_fixed_points,
)

__all__ = ["AnalysisPlan", "RunReport", "ScenarioRun", "run_scenario",
           "run_question", "envelope_integrator_options",
           "spec_envelope_options", "ENVELOPE_INTEGRATOR_KEYS"]

#: The question options :func:`repro.bounds.uncertain_envelope` accepts
#: as integrator configuration.  Single source of truth shared by the
#: envelope backend below and by the conformance harness
#: (:mod:`repro.testing`), so "how does this scenario integrate its
#: envelope" has exactly one answer everywhere.
ENVELOPE_INTEGRATOR_KEYS = ("integrator", "rk4_steps", "rtol", "atol")


def envelope_integrator_options(opts: Dict[str, object]) -> Dict[str, object]:
    """Filter a question's options down to envelope integrator kwargs."""
    return {k: opts[k] for k in ENVELOPE_INTEGRATOR_KEYS if k in opts}


def spec_envelope_options(spec: ScenarioSpec) -> Dict[str, object]:
    """The integrator kwargs a spec's (first) envelope question declares.

    Scenarios whose model needs a specific envelope integrator declare
    it on their envelope question (e.g. the bike model needs fixed-step
    RK4 on its sliding boundary); any analysis re-integrating that
    scenario's envelope — the conformance harness above all — must
    honour the declaration or the bounds it checks are not the
    scenario's bounds.  Returns ``{}`` for specs without an envelope
    question.
    """
    for q in spec.questions:
        if q.kind == "envelope":
            return envelope_integrator_options(q.opts)
    return {}


# ----------------------------------------------------------------------
# Question outcomes
# ----------------------------------------------------------------------

@dataclass
class QuestionOutcome:
    """Series/findings/notes one question contributes to the result."""

    series: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    findings: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def _resolve_observables(model, spec: ScenarioSpec) -> Dict[str, np.ndarray]:
    """``name -> weight`` map of the observables transient questions target.

    Delegates to the same resolver the envelope backend uses, so every
    question kind agrees on what a spec's observable names mean.
    """
    return _resolve_weights(model, list(spec.observables) or None)


def _count(q: Question, key: str, default: Optional[int] = None) -> int:
    """The count option ``key`` of ``q`` (``default`` when absent) as an
    ``int``.  An integral float such as ``3.0`` reads as 3; any value
    that is not a finite integer raises ``ValueError`` naming the key,
    the question kind and the value, instead of being truncated."""
    value = q.opts.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{q.kind} option {key} must be a finite integer, "
                         f"got {value!r}")
    return int(value)


def _run_envelope(model, spec: ScenarioSpec, q: Question) -> QuestionOutcome:
    opts = q.opts
    times = opts.get("times")
    if times is None:
        times = np.linspace(0.0, spec.horizon, _count(q, "n_times", 9))
    times = np.asarray(times, dtype=float)
    observables = list(spec.observables) or None
    kwargs = envelope_integrator_options(opts)
    env = uncertain_envelope(
        model, spec.x0, times,
        resolution=_count(q, "resolution", 7),
        observables=observables,
        **kwargs,
    )
    out = QuestionOutcome()
    for name in env.observable_names:
        out.series[q.prefixed(f"{name}_uncertain_lower")] = (times, env.lower[name])
        out.series[q.prefixed(f"{name}_uncertain_upper")] = (times, env.upper[name])
        lo, hi = env.final_bounds(name)
        out.findings[q.prefixed(f"{name}_uncertain_min_final")] = lo
        out.findings[q.prefixed(f"{name}_uncertain_max_final")] = hi
    return out


def _run_pontryagin(model, spec: ScenarioSpec, q: Question) -> QuestionOutcome:
    opts = q.opts
    horizons = opts.get("horizons")
    if horizons is None:
        n = _count(q, "n_horizons", 8)
        if n < 1:
            raise ValueError(
                f"pontryagin option n_horizons must be >= 1, got {n}"
            )
        horizons = np.linspace(spec.horizon / n, spec.horizon, n)
    horizons = np.asarray(horizons, dtype=float)
    kwargs = {}
    for key in ("steps_per_unit", "min_steps", "tol", "deadline_seconds"):
        if key in opts:
            kwargs[key] = opts[key]
    if "max_iter" in opts:
        kwargs["max_iter"] = _count(q, "max_iter")
    if "sides" in opts:
        kwargs["sides"] = tuple(opts["sides"])
    observables = list(spec.observables) or None
    bounds = pontryagin_transient_bounds(
        model, spec.x0, horizons, observables=observables, **kwargs
    )
    out = QuestionOutcome()
    for name in bounds.observable_names:
        lower, upper = bounds.lower[name], bounds.upper[name]
        if np.isfinite(lower).any():
            out.series[q.prefixed(f"{name}_imprecise_lower")] = (horizons, lower)
            out.findings[q.prefixed(f"{name}_imprecise_min_final")] = lower[-1]
        if np.isfinite(upper).any():
            out.series[q.prefixed(f"{name}_imprecise_upper")] = (horizons, upper)
            out.findings[q.prefixed(f"{name}_imprecise_max_final")] = upper[-1]
    if "deadline_seconds" in opts:
        # Only stamped when a deadline was requested, so pre-existing
        # golden pins and cached results keep their exact finding set.
        out.findings[q.prefixed("pontryagin_converged")] = float(bounds.converged)
    return out


def _run_hull(model, spec: ScenarioSpec, q: Question) -> QuestionOutcome:
    opts = q.opts
    times = opts.get("times")
    if times is None:
        times = np.linspace(0.0, spec.horizon, _count(q, "n_times", 13))
    times = np.asarray(times, dtype=float)
    kwargs = {}
    for key in ("blowup_threshold", "rtol", "atol", "theta_method"):
        if key in opts:
            kwargs[key] = opts[key]
    hull = differential_hull_bounds(model, spec.x0, times, **kwargs)
    out = QuestionOutcome()
    for i, name in enumerate(model.state_names):
        out.series[q.prefixed(f"hull_{name}_lower")] = (times, hull.lower[:, i])
        out.series[q.prefixed(f"hull_{name}_upper")] = (times, hull.upper[:, i])
        out.findings[q.prefixed(f"hull_{name}_width_final")] = hull.width(i)[-1]
        if model.state_lower is not None:
            out.findings[q.prefixed(f"hull_{name}_trivial")] = float(
                hull.is_trivial(i, model.state_lower[i], model.state_upper[i])
            )
    return out


def _run_template(model, spec: ScenarioSpec, q: Question) -> QuestionOutcome:
    opts = q.opts
    family = str(opts.get("family", "box"))
    if family == "box":
        directions = box_directions(model.dim)
    elif family == "octagon":
        directions = octagon_directions(model.dim)
    else:
        raise ValueError(f"unknown template family {family!r}")
    kwargs = {}
    for key in ("n_steps", "max_iter"):
        if key in opts:
            kwargs[key] = _count(q, key)
    polytope = template_reachable_bounds(
        model, spec.x0, float(opts.get("horizon", spec.horizon)),
        directions=directions, **kwargs
    )
    out = QuestionOutcome()
    box = polytope.bounding_box()
    if box is not None:
        lower, upper = box
        for i, name in enumerate(model.state_names):
            out.findings[q.prefixed(f"template_{name}_lower")] = lower[i]
            out.findings[q.prefixed(f"template_{name}_upper")] = upper[i]
    out.findings[q.prefixed("template_halfspaces")] = polytope.n_halfspaces
    return out


def _run_steadystate(model, spec: ScenarioSpec,
                     q: Question) -> QuestionOutcome:
    opts = q.opts
    max_rounds = _count(q, "max_rounds", 120)
    fp_resolution = _count(q, "fp_resolution", 11)
    out = QuestionOutcome()
    rect = hull_steady_rectangle(
        model, spec.x0,
        horizon=float(opts.get("horizon", max(spec.horizon, 50.0))),
        settle=bool(opts.get("settle", True)),
    )
    out.findings[q.prefixed("steady_hull_converged")] = float(rect.converged)
    for i, name in enumerate(model.state_names):
        out.findings[q.prefixed(f"steady_hull_{name}_lower")] = rect.lower[i]
        out.findings[q.prefixed(f"steady_hull_{name}_upper")] = rect.upper[i]
    if not rect.converged:
        out.notes.append(
            "stationary hull rectangle did not converge (the 'trivial "
            "hull' regime of Fig. 5); Birkhoff region remains informative"
        )
    if model.dim == 2 and bool(opts.get("birkhoff", True)):
        region = birkhoff_centre_2d(
            model,
            x0_guess=opts.get("x0_guess"),
            max_rounds=max_rounds,
        )
        area = 0.0 if region.polygon is None else float(region.polygon.area)
        out.findings[q.prefixed("birkhoff_area")] = area
        out.findings[q.prefixed("birkhoff_certified")] = float(region.certified)
        out.findings[q.prefixed("birkhoff_rounds")] = float(region.rounds)
        curve = uncertain_fixed_points(
            model, resolution=fp_resolution,
            x0_guess=opts.get("x0_guess"),
        )
        inside = sum(region.contains(fp, tol=1e-3) for fp in curve)
        out.findings[q.prefixed("uncertain_fp_inside_region")] = float(inside)
        out.findings[q.prefixed("uncertain_fp_total")] = float(curve.shape[0])
        vertices = (np.empty((0, model.dim)) if region.polygon is None
                    else region.polygon.vertices)
        rect_tol = float(opts.get("rect_tol", 1e-2))
        out.findings[q.prefixed("birkhoff_inside_steady_rect")] = float(
            all(rect.contains(v, tol=rect_tol) for v in vertices)
        )
    return out


def _run_ensemble(model, spec: ScenarioSpec, q: Question) -> QuestionOutcome:
    opts = q.opts
    resolution = opts.get("resolution")
    if resolution is None:
        thetas = model.theta_set.corners()
    else:
        thetas = model.theta_set.grid(_count(q, "resolution"))
    population_size = _count(q, "population_size", 200)
    n_samples = _count(q, "n_samples", 50)
    results = sweep_constant_ensembles(
        spec.model_factory,
        spec.x0,
        population_size,
        thetas,
        t_final=float(opts.get("horizon", spec.horizon)),
        n_runs=_count(q, "n_runs", 16),
        seed=_count(q, "seed", 2016),
        n_samples=n_samples,
        model_kwargs=spec.kwargs,
    )
    weights = _resolve_observables(model, spec)
    out = QuestionOutcome()
    for name, w in weights.items():
        paths = [batch.observable(w) for batch in results]
        finals = np.array([float(p[:, -1].mean()) for p in paths])
        worst = int(np.argmax(finals))
        best = int(np.argmin(finals))
        out.findings[q.prefixed(f"ensemble_{name}_final_mean_min")] = finals[best]
        out.findings[q.prefixed(f"ensemble_{name}_final_mean_max")] = finals[worst]
        out.series[q.prefixed(f"ensemble_{name}_mean_worst_theta")] = (
            results[worst].times, paths[worst].mean(axis=0)
        )
    out.findings[q.prefixed("ensemble_population_size")] = float(population_size)
    out.findings[q.prefixed("ensemble_theta_points")] = float(thetas.shape[0] if thetas.ndim == 2 else len(thetas))
    out.findings[q.prefixed("ensemble_total_events")] = float(
        sum(batch.n_events for batch in results)
    )
    return out


def _run_dtmc_reward(model, spec: ScenarioSpec,
                     q: Question) -> QuestionOutcome:
    """Finite-``N`` interval-DTMC reward bounds through uniformization.

    Enumerates the chain at ``population_size``, uniformizes it into a
    Škulj interval DTMC and iterates the batched credal operators; by
    default the entry-wise bounds are pinned against the exact imprecise
    Kolmogorov bounds (``compare_exact``), whose conservativeness gap is
    the quantity the interval-DTMC scenarios exist to expose.
    """
    opts = q.opts
    population_size = _count(q, "population_size", 10)
    stationary_max_iter = _count(q, "stationary_max_iter", 50_000)
    n_steps = _count(q, "n_steps", 150)
    chain = ImpreciseCTMC(
        model.instantiate(population_size, spec.x0),
        max_states=_count(q, "max_states", 20_000),
    )
    dtmc, rate = IntervalDTMC.from_imprecise_ctmc(
        chain, safety=float(opts.get("safety", 1.05))
    )
    horizon = float(opts.get("horizon", spec.horizon))
    steps = _count(q, "steps") if "steps" in opts else int(np.ceil(horizon * rate))
    weights = _resolve_observables(model, spec)
    names = list(weights)
    n_obs = len(names)
    rewards = np.stack([chain.densities() @ weights[name] for name in names])

    # One batched value iteration covers every observable and both bound
    # directions (the lower iteration is the negated upper iteration of
    # the negated reward); row 0 of the enumeration is the start state.
    value = np.concatenate([rewards, -rewards], axis=0)
    start_state = np.empty((steps + 1, value.shape[0]))
    start_state[0] = value[:, 0]
    for k in range(steps):
        value = dtmc.upper_operator_batch(value)
        start_state[k + 1] = value[:, 0]
    times = np.arange(steps + 1) / rate

    out = QuestionOutcome()
    out.findings[q.prefixed("dtmc_states")] = float(chain.n_states)
    out.findings[q.prefixed("dtmc_steps")] = float(steps)
    out.findings[q.prefixed("dtmc_uniformization_rate")] = float(rate)
    for j, name in enumerate(names):
        upper_series = start_state[:, j]
        lower_series = -start_state[:, n_obs + j]
        out.series[q.prefixed(f"dtmc_{name}_lower")] = (times, lower_series)
        out.series[q.prefixed(f"dtmc_{name}_upper")] = (times, upper_series)
        out.findings[q.prefixed(f"dtmc_{name}_lower_final")] = lower_series[-1]
        out.findings[q.prefixed(f"dtmc_{name}_upper_final")] = upper_series[-1]
    if bool(opts.get("stationary", False)):
        for j, name in enumerate(names):
            lo, hi = dtmc.stationary_expectation_bounds(
                rewards[j],
                max_iter=stationary_max_iter,
            )
            out.findings[q.prefixed(f"dtmc_{name}_stationary_lower")] = lo
            out.findings[q.prefixed(f"dtmc_{name}_stationary_upper")] = hi
    if bool(opts.get("compare_exact", True)):
        tol = float(opts.get("soundness_tol", 1e-6))
        # The raw k-step power carries an O(1/rate) time-discretization
        # bias, so soundness is pinned on the Poisson-mixed bounds,
        # which enclose by construction; one stacked call mixes every
        # observable and both directions in a single value iteration.
        mixed_lo, mixed_hi = dtmc.uniformized_bounds(rewards, horizon, rate)
        for j, name in enumerate(names):
            exact_hi = imprecise_reward_bounds(
                chain, rewards[j], horizon, maximize=True, n_steps=n_steps
            ).value
            exact_lo = imprecise_reward_bounds(
                chain, rewards[j], horizon, maximize=False, n_steps=n_steps
            ).value
            out.findings[q.prefixed(f"dtmc_{name}_exact_lower")] = exact_lo
            out.findings[q.prefixed(f"dtmc_{name}_exact_upper")] = exact_hi
            out.findings[q.prefixed(f"dtmc_{name}_time_lower")] = mixed_lo[j, 0]
            out.findings[q.prefixed(f"dtmc_{name}_time_upper")] = mixed_hi[j, 0]
            out.findings[q.prefixed(f"dtmc_{name}_conservative")] = float(
                mixed_hi[j, 0] >= exact_hi - tol
                and mixed_lo[j, 0] <= exact_lo + tol
            )
        covered = steps / rate
        out.notes.append(
            f"{steps} uniformized steps at rate {rate:.4g} cover horizon "
            f"{covered:.4g} {'>=' if covered >= horizon else '<'} "
            f"{horizon:g}; the Poisson-mixed interval-DTMC bounds enclose "
            "the exact imprecise Kolmogorov bounds (the raw step power "
            "may not — its time-discretization bias is O(1/rate))"
        )
    return out


_BACKENDS = {
    "envelope": _run_envelope,
    "pontryagin": _run_pontryagin,
    "hull": _run_hull,
    "template": _run_template,
    "steadystate": _run_steadystate,
    "ensemble": _run_ensemble,
    "dtmc_reward": _run_dtmc_reward,
}

#: The options each backend reads, per question kind.  ``run_question``
#: rejects any other key before the backend runs: a misspelt or retired
#: option would otherwise be dropped silently and the question answered
#: on the backend's defaults.
_QUESTION_OPTIONS = {
    "envelope": ("times", "n_times", "resolution", *ENVELOPE_INTEGRATOR_KEYS),
    "pontryagin": ("horizons", "n_horizons", "steps_per_unit", "min_steps",
                   "max_iter", "tol", "deadline_seconds", "sides"),
    "hull": ("times", "n_times", "blowup_threshold", "rtol", "atol",
             "theta_method"),
    "template": ("family", "n_steps", "max_iter", "horizon"),
    "steadystate": ("horizon", "settle", "birkhoff", "x0_guess",
                    "max_rounds", "fp_resolution", "rect_tol"),
    "ensemble": ("resolution", "population_size", "n_samples", "horizon",
                 "n_runs", "seed"),
    "dtmc_reward": ("population_size", "max_states", "safety", "horizon",
                    "steps", "stationary", "stationary_max_iter",
                    "compare_exact", "n_steps", "soundness_tol"),
}


def run_question(spec: ScenarioSpec, question: Question,
                 model=None) -> QuestionOutcome:
    """Run one question of a spec (building the model when not supplied).

    Raises ``ValueError`` naming the key, the question kind and the
    accepted keys when the question carries an option its backend does
    not read.
    """
    accepted = _QUESTION_OPTIONS[question.kind]
    unknown = sorted(set(question.opts) - set(accepted))
    if unknown:
        raise ValueError(
            f"{question.kind} question: unknown option(s) {unknown}; "
            f"accepted options are {sorted(accepted)}"
        )
    if model is None:
        model = spec.build_model()
    attrs = {"scenario": spec.name, "kind": question.kind}
    if question.label:
        attrs["label"] = question.label
    with telemetry.span("scenario.question", **attrs):
        return _BACKENDS[question.kind](model, spec, question)


def _run_question_payload(payload) -> QuestionOutcome:
    """Shard function: one question of a spec, on a model of its own.

    Models hold rate lambdas and do not pickle, so the payload carries
    the spec and every question builds its model (a fraction of a
    millisecond) — the same way in-process and in a pool worker.
    """
    spec, index = payload
    return run_question(spec, spec.questions[index])


# ----------------------------------------------------------------------
# Plans, reports and the entry point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisPlan:
    """How to execute a spec: caching, fan-out, selection, resilience.

    ``on_error="partial"`` isolates question failures: a raising
    backend becomes a :class:`~repro.resilience.QuestionFailure` on the
    :class:`ScenarioRun` while the surviving questions' outcomes are
    merged as usual (and the partial result is never cached).  ``retry``
    adds per-question bounded retries with the policy's deterministic
    backoff; the default (``on_error="raise"``, no retry) fails fast on
    the first raising question.
    """

    use_cache: bool = True
    cache_dir: Optional[str] = None
    processes: Optional[int] = None
    kinds: Optional[Tuple[str, ...]] = None  # run only these question kinds
    on_error: str = "raise"
    retry: Optional[RetryPolicy] = None

    def __post_init__(self):
        if self.on_error not in ("raise", "partial"):
            raise ValueError(
                f"on_error must be 'raise' or 'partial', "
                f"got {self.on_error!r}"
            )
        if self.retry is not None and not isinstance(self.retry,
                                                     RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy or None, got "
                f"{type(self.retry).__name__}"
            )

    def select(self, spec: ScenarioSpec) -> ScenarioSpec:
        """The spec this plan actually runs (possibly fewer questions)."""
        if self.kinds is None:
            return spec
        kept = tuple(q for q in spec.questions if q.kind in self.kinds)
        if not kept:
            raise ValueError(
                f"scenario {spec.name!r} has no questions of kinds "
                f"{self.kinds}"
            )
        if len(kept) == len(spec.questions):
            return spec
        return spec.with_overrides(questions=kept)


@dataclass
class RunReport:
    """Provenance and cache accounting of one ``run_scenario`` call.

    The accounting itself lives in ``metrics`` — a per-run metrics dict
    using the same key names the telemetry registry uses
    (``scenarios.cache.hits``, ``scenarios.run.seconds``, ...) — and the
    historical ``cache_hit``/``cache_hits``/``cache_misses``/
    ``elapsed_seconds`` fields are preserved as read-only views over it.
    The dict is always populated, telemetry enabled or not; when
    telemetry *is* enabled the same counts also land on the global
    registry (the cache ones via :mod:`repro.scenarios.cache`).
    """

    scenario: str
    spec_hash: str
    questions_run: int
    metrics: Dict[str, float] = field(default_factory=dict)
    cache_path: Optional[str] = None

    @property
    def cache_hits(self) -> int:
        return int(self.metrics.get("scenarios.cache.hits", 0))

    @property
    def cache_misses(self) -> int:
        return int(self.metrics.get("scenarios.cache.misses", 0))

    @property
    def cache_hit(self) -> bool:
        return self.cache_hits > 0

    @property
    def elapsed_seconds(self) -> float:
        return float(self.metrics.get("scenarios.run.seconds", 0.0))

    @property
    def cache_miss_reason(self) -> Optional[str]:
        """Why the cache lookup missed (``None`` on hits)."""
        prefix = "scenarios.cache.miss."
        for key in self.metrics:
            if key.startswith(prefix):
                return key[len(prefix):]
        return None

    @property
    def questions_failed(self) -> int:
        """Questions that exhausted their attempts (``on_error="partial"``)."""
        return int(self.metrics.get("scenarios.questions.failed", 0))

    def render(self) -> str:
        miss = self.cache_miss_reason
        suffix = f"; miss={miss}" if miss else ""
        failed = (f" failed={self.questions_failed}"
                  if self.questions_failed else "")
        lines = [
            f"run report: scenario={self.scenario} spec={self.spec_hash}",
            f"  cache_hit={'true' if self.cache_hit else 'false'} "
            f"(hits={self.cache_hits}, misses={self.cache_misses}{suffix})",
            f"  questions_run={self.questions_run}{failed} "
            f"elapsed={self.elapsed_seconds:.3f}s",
        ]
        if self.cache_path:
            lines.append(f"  cache_path={self.cache_path}")
        return "\n".join(lines)


@dataclass
class ScenarioRun:
    """A completed scenario: the result plus its run report.

    Under ``on_error="partial"``, ``failures`` lists the questions that
    exhausted their attempts (empty on a fully successful run); the
    ``result`` then holds only the surviving questions' findings and is
    never cached.
    """

    spec: ScenarioSpec
    result: ExperimentResult
    report: RunReport
    failures: List[QuestionFailure] = field(default_factory=list)


def run_scenario(
    spec_or_name: Union[str, ScenarioSpec],
    plan: Optional[AnalysisPlan] = None,
    *,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    processes: Optional[int] = None,
    on_error: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> ScenarioRun:
    """Run (or recall) every question of a scenario.

    Parameters
    ----------
    spec_or_name:
        A registered scenario name or an ad-hoc :class:`ScenarioSpec`.
    plan:
        Execution policy; the keyword arguments below override its
        fields (and default to ``AnalysisPlan()`` when omitted).
    use_cache:
        Serve/store the content-hash disk cache (default ``True``).
    cache_dir:
        Cache directory override (default: ``$REPRO_CACHE_DIR`` or
        ``~/.cache/repro-scenarios``).
    processes:
        Fan independent questions over a process pool (the spec itself
        is shipped to the workers; ad-hoc specs shard like catalog
        entries).
    on_error:
        ``"partial"`` isolates per-question failures into
        :class:`~repro.resilience.QuestionFailure` records on the
        returned run instead of aborting (``"raise"``, the default,
        keeps fail-fast semantics).
    retry:
        Optional :class:`~repro.resilience.RetryPolicy` giving each
        question bounded retries with deterministic backoff.

    Returns
    -------
    A :class:`ScenarioRun` whose ``result`` is the assembled
    :class:`~repro.reporting.ExperimentResult` and whose ``report``
    carries the cache-hit counters.
    """
    if plan is None:
        plan = AnalysisPlan()
    overrides = {
        key: value
        for key, value in (("use_cache", use_cache), ("cache_dir", cache_dir),
                           ("processes", processes), ("on_error", on_error),
                           ("retry", retry))
        if value is not None
    }
    if overrides:
        plan = dataclasses.replace(plan, **overrides)

    if isinstance(spec_or_name, str):
        from repro.scenarios.registry import get_scenario

        spec = get_scenario(spec_or_name)
    else:
        spec = spec_or_name
    spec = plan.select(spec)

    with telemetry.span("scenario.run", scenario=spec.name,
                        spec=spec.spec_hash()):
        return _execute_plan(spec, plan)


def _answer_questions(spec: ScenarioSpec, plan: AnalysisPlan):
    """Every question of ``spec`` as one :func:`map_shards` fan-out.

    Each question gets the plan's retry policy (one attempt by default)
    on either path; under ``on_error="partial"`` an exhausted question
    becomes a :class:`~repro.resilience.QuestionFailure` instead of
    aborting the scenario.  Returns ``(outcomes, failures)``.
    """
    policy = dataclasses.replace(plan.retry or RetryPolicy(max_attempts=1),
                                 on_error=plan.on_error)
    payloads = [(spec, i) for i in range(len(spec.questions))]
    slots = map_shards(_run_question_payload, payloads, plan.processes,
                       policy=policy)
    outcomes: List[QuestionOutcome] = []
    failures: List[QuestionFailure] = []
    for question, slot in zip(spec.questions, slots):
        if isinstance(slot, ShardFailure):
            failures.append(QuestionFailure(
                scenario=spec.name, kind=question.kind, label=question.label,
                error_type=slot.error_type, message=slot.message,
                attempts=slot.attempts, elapsed_seconds=slot.elapsed_seconds,
            ))
        else:
            outcomes.append(slot)
    return outcomes, failures


def _execute_plan(spec: ScenarioSpec, plan: AnalysisPlan) -> ScenarioRun:
    start = time.perf_counter()
    metrics: Dict[str, float] = {
        "scenarios.cache.hits": 0,
        "scenarios.cache.misses": 0,
    }
    if plan.use_cache:
        cached, reason = _cache.load_cached_detail(spec, plan.cache_dir)
        if cached is not None:
            # The cache is content-addressed, so a differently-*named*
            # variant can hit an entry stored under another label;
            # restamp the identity fields from the requesting spec.
            cached.experiment_id = spec.name
            cached.title = spec.title
            metrics["scenarios.cache.hits"] = 1
            metrics["scenarios.run.seconds"] = time.perf_counter() - start
            report = RunReport(
                scenario=spec.name,
                spec_hash=spec.spec_hash(),
                questions_run=0,
                metrics=metrics,
                cache_path=str(_cache.cache_path(spec, plan.cache_dir)),
            )
            return ScenarioRun(spec=spec, result=cached, report=report)
    else:
        # Caching disabled: the run is a (deliberate) miss, counted
        # per-run only — no disk lookup happened, so no global counter.
        reason = "bypassed"
    metrics["scenarios.cache.misses"] = 1
    metrics[f"scenarios.cache.miss.{reason}"] = 1

    result = ExperimentResult(
        experiment_id=spec.name,
        title=spec.title,
        parameters={
            "model": spec.factory_ref,
            **{f"model.{k}": v for k, v in spec.kwargs.items()},
            "x0": list(spec.x0),
            "horizon": spec.horizon,
            "spec_hash": spec.spec_hash(),
        },
    )

    outcomes, failures = _answer_questions(spec, plan)
    for outcome in outcomes:
        for name, (times, values) in outcome.series.items():
            result.add_series(name, times, values)
        for name, value in outcome.findings.items():
            result.add_finding(name, value)
        for note in outcome.notes:
            result.add_note(note)

    if failures:
        # A partial result is marked as such everywhere it can be
        # inspected: the failure taxonomy in the report metrics, the
        # human-readable notes, and a parameters flag on the result.
        result.parameters["partial"] = True
        metrics["scenarios.questions.failed"] = len(failures)
        telemetry.inc("resilience.question_failures", len(failures))
        for failure in failures:
            key = f"resilience.question_failure.{failure.error_type}"
            metrics[key] = metrics.get(key, 0) + 1
            result.add_note(failure.describe())

    elapsed = time.perf_counter() - start
    path: Optional[str] = None
    if plan.use_cache and not failures:
        # Partial results are never cached: a later run must get the
        # chance to compute the missing questions, and a cache hit must
        # always mean "the complete answer".
        try:
            path = str(_cache.store_result(spec, result, plan.cache_dir))
        except OSError:
            # An unwritable cache (read-only home, missing $HOME, full
            # disk) must not discard a computation that already
            # succeeded — the run degrades to uncached.
            path = None
    metrics["scenarios.run.seconds"] = elapsed
    metrics["scenarios.questions.run"] = len(spec.questions)
    telemetry.inc("scenarios.questions.run", len(spec.questions))
    telemetry.set_gauge("scenarios.run.seconds", elapsed)
    report = RunReport(
        scenario=spec.name,
        spec_hash=spec.spec_hash(),
        questions_run=len(spec.questions),
        metrics=metrics,
        cache_path=path,
    )
    return ScenarioRun(spec=spec, result=result, report=report,
                       failures=failures)
