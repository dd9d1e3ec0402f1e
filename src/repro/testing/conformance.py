"""The catalog-wide scenario conformance suite.

:class:`ScenarioConformance` derives, for any :class:`ScenarioSpec`,
the structural soundness checks the paper's methods guarantee — no
per-model test code required beyond registration:

``check_ordering``
    The three transient bound families nest per state coordinate at a
    sampled horizon (Section IV soundness)::

        uncertain envelope  ⊆  template box (exact imprecise bounds)
                            ⊆  differential hull

    The template box is computed by fixed-step Pontryagin sweeps, so
    its bounds carry ``O(dt)`` discretisation error and can sit
    slightly *inside* the true reachable extremes; the envelope solves
    the same ODEs adaptively.  :data:`TEMPLATE_TOL` absorbs that
    without masking real ordering violations (which show up at the
    1e-1 scale when a sign or side is wrong).  :data:`HULL_TOL` covers
    the template-vs-hull comparison, where both families are sound and
    only integration accuracy separates them.

``check_ensemble``
    Finite-``N`` grounding: the empirical mean of a vectorized-SSA
    ensemble at each extreme constant ``theta`` stays inside the
    mean-field envelope up to a CLT band plus an ``O(1/N)``
    finite-size allowance (Theorem 1 / Fig. 6 of the paper, as a
    structural property).

``check_dtmc_conservative``
    For every ``dtmc_reward`` question the spec declares, the
    interval-DTMC (Škulj) bounds must enclose the exact imprecise
    Kolmogorov bounds.  The question is executed through the *runner's*
    backend — the same code path ``python -m repro run`` uses — and the
    ``*_conservative`` findings it emits are asserted, so the harness
    can never drift from the production dispatch.

``check_batch_consistency``
    ``drift_batch`` agrees with the scalar ``drift`` row-by-row on
    arbitrary admissible states and parameters, and the declared affine
    decomposition ``g0 + G theta`` reproduces the drift.

``check_jacobian``
    The declared Jacobian kernel matches central differences of the
    drift at the states of the spec's own mean-field trajectories (one
    RK4 solution per corner of ``Theta`` plus its centre), kept where
    they lie at least ``1e-3`` inside the declared state box.

``check_population_scaling``
    The model satisfies the three conditions of Definition 4
    (uniformizable, vanishing jumps, bounded drift) on a probe grid of
    its state box at sizes 10 to 10,000, through
    :func:`repro.meanfield.verify_population_scaling`.

``check_perturbation``
    The structural checks survive perturbing factory kwargs inside the
    spec's declared :attr:`~repro.scenarios.ScenarioSpec.validity`
    ranges, and the drift extremizer still brackets sampled drifts on
    the perturbed model — the property hypothesis drives through
    ``tests/test_conformance.py``.

The checks raise :class:`ConformanceViolation` (an ``AssertionError``,
so pytest renders it natively) with the scenario name and coordinate in
the message.  :meth:`ScenarioConformance.run_all` executes every
applicable check and returns a :class:`ConformanceReport` — that is
what the catalog-sweep benchmark times and what ad-hoc spec authors can
call directly.

This module deliberately depends only on :mod:`numpy` and the library
itself — neither pytest nor hypothesis — so it is importable from
benchmarks, CI scripts and user code alike; the hypothesis strategies
live in :mod:`repro.testing.strategies` behind an import gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds import (
    box_directions,
    differential_hull_bounds,
    template_reachable_bounds,
    uncertain_envelope,
)
from repro.inclusion import DriftExtremizer
from repro.meanfield import verify_population_scaling
from repro.ode import rk4_integrate_batch
from repro.params import DiscreteSet
from repro.scenarios import list_scenarios
from repro.scenarios.runner import run_question, spec_envelope_options
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "TEMPLATE_TOL",
    "HULL_TOL",
    "ConformanceViolation",
    "CheckOutcome",
    "ConformanceReport",
    "ScenarioConformance",
    "unique_model_cases",
    "dtmc_cases",
    "perturbation_cases",
    "golden_cases",
    "numeric_jacobian",
]

#: Slack for envelope-vs-template (Pontryagin time discretisation).
TEMPLATE_TOL = 5e-3
#: Slack for template-vs-hull (both sound; hull integrates adaptively).
HULL_TOL = 1e-6


class ConformanceViolation(AssertionError):
    """A structural soundness invariant failed for a scenario."""


@dataclass
class CheckOutcome:
    """One check's verdict inside a :class:`ConformanceReport`."""

    name: str
    status: str  # "passed" or "not-applicable" (violations raise)
    detail: str = ""
    seconds: float = 0.0


@dataclass
class ConformanceReport:
    """Every check :meth:`ScenarioConformance.run_all` executed."""

    scenario: str
    outcomes: List[CheckOutcome] = field(default_factory=list)

    @property
    def checks_passed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "passed")

    def render(self) -> str:
        lines = [f"conformance: {self.scenario}"]
        for o in self.outcomes:
            detail = f" — {o.detail}" if o.detail else ""
            lines.append(
                f"  {o.name}: {o.status} ({o.seconds:.3f}s){detail}"
            )
        return "\n".join(lines)


def numeric_jacobian(f, x, eps: float = 1e-7) -> np.ndarray:
    """Central finite-difference Jacobian of ``f`` at ``x``.

    ``f`` maps an ``(d,)`` vector to an ``(m,)`` vector; the result has
    shape ``(m, d)``.  The model test-suites pin declared
    ``drift_jacobian_batch`` kernels against it.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        step = eps * max(1.0, abs(float(x[j])))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (
            2.0 * step
        )
    return jac


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConformanceViolation(message)


class ScenarioConformance:
    """The inherited conformance suite of one scenario.

    Parameters
    ----------
    spec:
        Any :class:`~repro.scenarios.ScenarioSpec` — a catalog entry or
        an ad-hoc spec; registration is not required.
    model:
        Optional pre-built model (the spec's factory output), e.g. to
        share one instance across checks in a loop.
    """

    def __init__(self, spec: ScenarioSpec, model=None):
        self.spec = spec
        self.model = spec.build_model() if model is None else model

    # ------------------------------------------------------------------
    # Derivation helpers
    # ------------------------------------------------------------------

    def coordinates(self) -> List[Tuple[str, np.ndarray]]:
        """Per-coordinate observables ``x{i}`` covering the full state."""
        eye = np.eye(self.model.dim)
        return [(f"x{i}", eye[i]) for i in range(self.model.dim)]

    def envelope_options(self) -> Dict[str, object]:
        """The spec's declared envelope integrator options.

        Resolved through :func:`repro.scenarios.spec_envelope_options`
        — the same code path the runner's envelope backend uses — so a
        scenario that needs fixed-step RK4 (e.g. the bike model's
        sliding boundary) is honoured identically in tests and runs.
        """
        return spec_envelope_options(self.spec)

    def _state_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """The admissible state box (unit box when undeclared)."""
        if self.model.state_lower is not None:
            return self.model.state_lower, self.model.state_upper
        return np.zeros(self.model.dim), np.ones(self.model.dim)

    def states_from_fracs(self, fracs) -> np.ndarray:
        """Map ``(n, d)`` unit fractions onto the admissible state box."""
        fracs = np.atleast_2d(np.asarray(fracs, dtype=float))
        lower, upper = self._state_box()
        return lower[None, :] + fracs * (upper - lower)[None, :]

    def thetas_from_fracs(self, fracs) -> np.ndarray:
        """Map ``(n, p)`` unit fractions onto the parameter set.

        Box-like sets interpolate their bounding box; finite sets
        (``DiscreteSet``) select member rows by fraction, so every
        produced parameter is admissible for any ``Theta``.
        """
        fracs = np.atleast_2d(np.asarray(fracs, dtype=float))
        theta_set = self.model.theta_set
        if isinstance(theta_set, DiscreteSet):
            idx = np.minimum(
                (fracs[:, 0] * theta_set.values.shape[0]).astype(int),
                theta_set.values.shape[0] - 1,
            )
            return theta_set.values[idx].copy()
        corners = theta_set.corners()
        lower, upper = corners.min(axis=0), corners.max(axis=0)
        return lower[None, :] + fracs * (upper - lower)[None, :]

    # ------------------------------------------------------------------
    # (a) envelope ⊆ template ⊆ hull ordering
    # ------------------------------------------------------------------

    def check_ordering(
        self,
        horizon: Optional[float] = None,
        resolution: int = 3,
        template_steps: int = 60,
        template_tol: float = TEMPLATE_TOL,
        hull_tol: float = HULL_TOL,
    ) -> Dict[str, np.ndarray]:
        """Pin the per-coordinate bound-family nesting at a horizon.

        Deliberately coarse grids: this is a structural ordering, not
        an accuracy test, so it must hold for *every* registered model.
        Returns the three bound families for the report/debugging.
        """
        spec, model = self.spec, self.model
        name = spec.name
        horizon = min(spec.horizon, 1.0) if horizon is None else horizon
        x0 = np.asarray(spec.x0)

        env = uncertain_envelope(
            model, x0, np.array([0.0, horizon]), resolution=resolution,
            observables=self.coordinates(), **self.envelope_options(),
        )
        polytope = template_reachable_bounds(
            model, x0, horizon, directions=box_directions(model.dim),
            n_steps=template_steps, max_iter=template_steps,
        )
        box_lower, box_upper = polytope.bounding_box()
        hull = differential_hull_bounds(
            model, x0, np.array([0.0, 0.5 * horizon, horizon])
        )

        for i in range(model.dim):
            env_lo = env.lower[f"x{i}"][-1]
            env_hi = env.upper[f"x{i}"][-1]
            # Constant parameters are admissible signals: the envelope
            # sits inside the exact imprecise (template) bounds.
            _require(
                box_lower[i] <= env_lo + template_tol,
                f"{name}: coord {i} envelope lower {env_lo:.6g} escapes "
                f"template lower {box_lower[i]:.6g}",
            )
            _require(
                env_hi <= box_upper[i] + template_tol,
                f"{name}: coord {i} envelope upper {env_hi:.6g} escapes "
                f"template upper {box_upper[i]:.6g}",
            )
            # The hull over-approximates the exact reachable box.
            _require(
                hull.lower[-1, i] <= box_lower[i] + hull_tol,
                f"{name}: coord {i} template lower {box_lower[i]:.6g} "
                f"escapes hull lower {hull.lower[-1, i]:.6g}",
            )
            _require(
                box_upper[i] <= hull.upper[-1, i] + hull_tol,
                f"{name}: coord {i} template upper {box_upper[i]:.6g} "
                f"escapes hull upper {hull.upper[-1, i]:.6g}",
            )
            # And the bounds themselves are ordered.
            _require(env_lo <= env_hi + 1e-12,
                     f"{name}: coord {i} envelope bounds inverted")
            _require(box_lower[i] <= box_upper[i] + template_tol,
                     f"{name}: coord {i} template bounds inverted")
        return {
            "envelope_lower": np.array(
                [env.lower[f"x{i}"][-1] for i in range(model.dim)]
            ),
            "envelope_upper": np.array(
                [env.upper[f"x{i}"][-1] for i in range(model.dim)]
            ),
            "template_lower": box_lower,
            "template_upper": box_upper,
            "hull_lower": hull.lower[-1],
            "hull_upper": hull.upper[-1],
        }

    # ------------------------------------------------------------------
    # (b) finite-N ensemble cross-check
    # ------------------------------------------------------------------

    def check_ensemble(
        self,
        population_size: int = 200,
        n_runs: int = 10,
        horizon: Optional[float] = None,
        seed: int = 2016,
        z: float = 4.0,
    ) -> Dict[str, float]:
        """Empirical ensemble means stay inside the envelope bounds.

        One vectorized-SSA ensemble per extreme constant ``theta``
        (the corners of ``Theta``); the per-coordinate mean at the
        final time must lie in the mean-field envelope widened by a
        ``z``-sigma CLT band plus an ``O(1/N)`` finite-size allowance
        (mean-field bias and initial-state lattice rounding are both
        first order in ``1/N``).
        """
        from repro.engine import sweep_constant_ensembles

        spec, model = self.spec, self.model
        horizon = min(spec.horizon, 1.0) if horizon is None else horizon
        thetas = model.theta_set.corners()
        results = sweep_constant_ensembles(
            spec.model_factory,
            spec.x0,
            population_size,
            thetas,
            t_final=horizon,
            n_runs=n_runs,
            seed=seed,
            n_samples=16,
            model_kwargs=spec.kwargs,
        )
        env = uncertain_envelope(
            model, np.asarray(spec.x0), np.array([0.0, horizon]),
            resolution=3, observables=self.coordinates(),
            **self.envelope_options(),
        )
        slack = 5.0 / population_size + 1e-3
        worst_margin = np.inf
        for i in range(model.dim):
            weight = np.eye(model.dim)[i]
            env_lo = env.lower[f"x{i}"][-1]
            env_hi = env.upper[f"x{i}"][-1]
            for k, batch in enumerate(results):
                finals = batch.observable(weight)[:, -1]
                mean = float(finals.mean())
                sem = float(finals.std(ddof=1)) / np.sqrt(n_runs)
                band = z * sem + slack
                _require(
                    env_lo - band <= mean <= env_hi + band,
                    f"{spec.name}: coord {i} ensemble mean {mean:.6g} at "
                    f"theta={thetas[k].tolist()} (N={population_size}, "
                    f"n_runs={n_runs}) escapes envelope "
                    f"[{env_lo:.6g}, {env_hi:.6g}] by more than the "
                    f"{band:.3g} CLT+finite-size band",
                )
                worst_margin = min(
                    worst_margin,
                    (env_hi + band - mean),
                    (mean - (env_lo - band)),
                )
        return {
            "theta_points": float(thetas.shape[0]),
            "population_size": float(population_size),
            "worst_margin": float(worst_margin),
        }

    # ------------------------------------------------------------------
    # (c) interval-DTMC conservativeness
    # ------------------------------------------------------------------

    def has_dtmc_question(self) -> bool:
        return any(q.kind == "dtmc_reward" for q in self.spec.questions)

    def check_dtmc_conservative(self) -> int:
        """Interval-DTMC bounds enclose the exact imprecise bounds.

        Runs every declared ``dtmc_reward`` question through the
        runner backend (the single shared code path) and asserts the
        conservativeness findings it emits.  Returns the number of
        questions checked; 0 means the spec declares none (the state
        space does not permit an exact finite-chain comparison).
        """
        spec = self.spec
        checked = 0
        for q in spec.questions:
            if q.kind != "dtmc_reward":
                continue
            outcome = run_question(spec, q, model=self.model)
            conservative = {
                k: v for k, v in outcome.findings.items()
                if k.endswith("_conservative")
            }
            _require(
                bool(conservative),
                f"{spec.name}: dtmc_reward question emitted no "
                "conservativeness findings (compare_exact disabled?)",
            )
            for key, value in conservative.items():
                _require(
                    bool(value),
                    f"{spec.name}: {key} = {value} — interval-DTMC bounds "
                    "fail to enclose the exact imprecise Kolmogorov bounds",
                )
            for key, value in outcome.findings.items():
                if key.endswith("_lower_final"):
                    upper = outcome.findings.get(
                        key.replace("_lower_final", "_upper_final")
                    )
                    if upper is not None:
                        _require(
                            value <= upper + 1e-9,
                            f"{spec.name}: {key} {value:.6g} exceeds its "
                            f"upper bound {upper:.6g}",
                        )
            checked += 1
        return checked

    # ------------------------------------------------------------------
    # (d) kernel spot checks against the transition-class drift
    # ------------------------------------------------------------------

    def check_batch_consistency(
        self,
        state_fracs=None,
        theta_fracs=None,
        n: int = 8,
        seed: int = 0,
        rtol: float = 1e-9,
        atol: float = 1e-11,
    ) -> int:
        """``drift_batch`` and the affine decomposition match the drift.

        ``state_fracs`` / ``theta_fracs`` are unit-fraction stacks
        (hypothesis-drawn in the property suite; a seeded uniform draw
        by default) mapped onto the admissible state box and parameter
        set.  Returns the number of rows checked.
        """
        model = self.model
        if state_fracs is None or theta_fracs is None:
            rng = np.random.default_rng(seed)
            if state_fracs is None:
                state_fracs = rng.uniform(size=(n, model.dim))
            if theta_fracs is None:
                theta_fracs = rng.uniform(size=(n, model.theta_dim))
        return self._check_model_consistency(
            model, self.states_from_fracs(state_fracs),
            self.thetas_from_fracs(theta_fracs), rtol=rtol, atol=atol,
        )

    def _check_model_consistency(self, model, states, thetas,
                                 rtol: float = 1e-9,
                                 atol: float = 1e-11) -> int:
        name = self.spec.name
        states = np.atleast_2d(states)
        thetas = np.atleast_2d(thetas)
        n = min(states.shape[0], thetas.shape[0])
        states, thetas = states[:n], thetas[:n]

        scalar_drift = np.stack(
            [model.drift(states[r], thetas[r]) for r in range(n)]
        )
        batched_drift = model.drift_batch(states, thetas)
        _require(
            np.allclose(batched_drift, scalar_drift, rtol=rtol, atol=atol),
            f"{name}: drift_batch diverges from the scalar drift "
            f"(max |delta| = {np.abs(batched_drift - scalar_drift).max():.3g})",
        )

        if model.is_affine:
            g0s, big_gs = model.affine_parts_batch(states)
            affine_drift = g0s + np.einsum("ndp,np->nd", big_gs, thetas)
            _require(
                np.allclose(affine_drift, scalar_drift, rtol=1e-8, atol=1e-9),
                f"{name}: affine decomposition g0 + G theta does not "
                "reproduce the drift (max |delta| = "
                f"{np.abs(affine_drift - scalar_drift).max():.3g})",
            )
        return n

    def check_jacobian(self) -> int:
        """The Jacobian kernel matches central differences of the drift.

        States are those the bounds actually visit: 200-step RK4
        solutions from ``x0`` under each corner of ``Theta`` and its
        centre, over ``min(horizon, 10)``, kept where every coordinate
        lies at least ``1e-3`` inside the declared state box.  (Kernels
        may ignore clamps that are only active outside the admissible
        region, so box-drawn states would flag legitimate Jacobians.)
        Column ``j`` of the analytic Jacobian must match the central
        difference with step ``1e-7 * max(1, |x_j|)`` to
        ``1e-4 * (1 + max |column|)``.  Returns the number of states
        checked; it is 0 when the whole trajectory hugs the boundary (a
        deep queue-length tail, say).
        """
        spec, model = self.spec, self.model
        d, n_steps, margin = model.dim, 200, 1e-3
        lane_thetas = np.vstack([model.theta_set.corners(),
                                 model.theta_set.center()[None, :]])
        lanes = lane_thetas.shape[0]
        grid = np.linspace(0.0, min(spec.horizon, 10.0), n_steps + 1)
        paths = rk4_integrate_batch(
            lambda t, x: model.drift_batch(x, lane_thetas),
            np.tile(np.asarray(spec.x0, dtype=float), (lanes, 1)), grid,
        )
        states = paths.states.reshape(-1, d)
        thetas = np.repeat(lane_thetas, n_steps + 1, axis=0)
        lower, upper = self._state_box()
        inside = np.all((states >= lower + margin) & (states <= upper - margin),
                        axis=1)
        states, thetas = states[inside], thetas[inside]
        if not states.shape[0]:
            return 0
        steps = 1e-7 * np.maximum(1.0, np.abs(states))
        differences = np.empty((states.shape[0], d, d))
        for j in range(d):
            shift = np.zeros_like(states)
            shift[:, j] = steps[:, j]
            differences[:, :, j] = (
                model.drift_batch(states + shift, thetas)
                - model.drift_batch(states - shift, thetas)
            ) / (2.0 * steps[:, j, None])
        jacobians = model.jacobian_x_batch(states, thetas)
        error = np.abs(jacobians - differences).max(axis=1)
        tolerance = 1e-4 * (1.0 + np.abs(differences).max(axis=1))
        row, col = np.unravel_index(np.argmax(error / tolerance), error.shape)
        _require(
            error[row, col] <= tolerance[row, col],
            f"{spec.name}: Jacobian column {col} misses the drift's central "
            f"difference by {error[row, col]:.3g} (tolerance "
            f"{tolerance[row, col]:.3g}) at x={states[row].tolist()}, "
            f"theta={thetas[row].tolist()}",
        )
        return int(states.shape[0])

    def check_population_scaling(self) -> int:
        """The model is a population process in the sense of Definition 4.

        Runs :func:`~repro.meanfield.verify_population_scaling` with its
        defaults (``5 ** d`` probe states of the declared state box, every
        corner of ``Theta``, sizes 10 to 10,000) and requires
        :meth:`~repro.meanfield.ScalingReport.all_conditions_hold`: finite
        exit rates, jump moments falling with ``N`` and drift suprema
        that do not grow with it.  Returns the number of sizes probed.
        """
        report = verify_population_scaling(self.model)
        _require(
            report.all_conditions_hold(),
            f"{self.spec.name}: model {self.model.name!r} violates "
            f"Definition 4 at sizes "
            f"{[s.population_size for s in report.samples]}: max exit rates "
            f"{[s.max_exit_rate for s in report.samples]}, jump moments "
            f"{report.jump_moments.tolist()}, drift norms "
            f"{report.drift_norms.tolist()}",
        )
        return len(report.samples)

    # ------------------------------------------------------------------
    # (e) kwargs/theta-box perturbation within declared validity
    # ------------------------------------------------------------------

    def perturbed_kwargs(self, fracs: Dict[str, float]) -> Dict[str, object]:
        """Factory kwargs with validity-declared keys moved to fractions.

        ``fracs`` maps a declared validity key to a unit fraction; the
        kwarg is set to ``low + frac * (high - low)``.
        """
        ranges = self.spec.validity_ranges
        unknown = sorted(set(fracs) - set(ranges))
        if unknown:
            raise KeyError(
                f"scenario {self.spec.name!r} declares no validity range "
                f"for {unknown}; declared: {sorted(ranges)}"
            )
        kwargs = self.spec.kwargs
        for key, frac in fracs.items():
            low, high = ranges[key]
            kwargs[key] = float(low) + float(frac) * (float(high) - float(low))
        return kwargs

    def check_perturbation(
        self,
        fracs: Optional[Dict[str, float]] = None,
        state_fracs=None,
        theta_fracs=None,
        n: int = 4,
        seed: int = 1,
    ) -> int:
        """Structural soundness survives in-validity kwarg perturbation.

        Builds the model at perturbed kwargs, re-runs the batch/affine
        consistency checks on it, and verifies the drift extremizer's
        per-coordinate range still brackets the drift at sampled
        admissible parameters — the soundness primitive every bound
        computation rests on.  Returns the number of rows checked.
        """
        spec = self.spec
        ranges = spec.validity_ranges
        if not ranges:
            raise ConformanceViolation(
                f"{spec.name}: no validity ranges declared; nothing to "
                "perturb (declare ScenarioSpec.validity)"
            )
        rng = np.random.default_rng(seed)
        if fracs is None:
            fracs = {key: float(rng.uniform()) for key in ranges}
        model = spec.model_factory(**self.perturbed_kwargs(fracs))
        _require(
            model.dim == self.model.dim
            and model.theta_dim == self.model.theta_dim,
            f"{spec.name}: perturbed kwargs changed the model's shape "
            f"({model.dim} states / {model.theta_dim} parameters vs "
            f"{self.model.dim} / {self.theta_dim_safe()})",
        )
        if state_fracs is None:
            state_fracs = rng.uniform(size=(n, model.dim))
        if theta_fracs is None:
            theta_fracs = rng.uniform(size=(n, model.theta_dim))

        # The state/theta boxes of the *perturbed* model may differ
        # (theta-bound kwargs are legitimate validity targets), so map
        # fractions through a conformance view of the perturbed model.
        perturbed_view = ScenarioConformance.__new__(ScenarioConformance)
        perturbed_view.spec = spec
        perturbed_view.model = model
        states = perturbed_view.states_from_fracs(state_fracs)
        thetas = perturbed_view.thetas_from_fracs(theta_fracs)
        checked = self._check_model_consistency(model, states, thetas)

        extremizer = DriftExtremizer(model)
        for r in range(states.shape[0]):
            drift = model.drift(states[r], thetas[r])
            for i in range(model.dim):
                low, high = extremizer.coordinate_range(states[r], i)
                scale = 1e-7 * (1.0 + abs(drift[i]))
                _require(
                    low - scale <= drift[i] <= high + scale,
                    f"{spec.name}: perturbed model (fracs {fracs}) drift "
                    f"coord {i} = {drift[i]:.6g} escapes the extremizer "
                    f"range [{low:.6g}, {high:.6g}] at "
                    f"x={states[r].tolist()}",
                )
        return checked

    def theta_dim_safe(self) -> int:
        return self.model.theta_dim

    # ------------------------------------------------------------------
    # (f) golden finding pins against the paper's figures
    # ------------------------------------------------------------------

    def check_golden(self, rtol: float = 5e-4) -> int:
        """Recomputed findings match the spec's declared golden pins.

        Re-runs every question through the runner backend (the code
        path ``python -m repro run`` uses, bypassing the disk cache),
        merges the prefixed findings and compares each declared
        :attr:`~repro.scenarios.ScenarioSpec.golden` pin.  A pin is
        either a bare value (checked at ``rtol``) or a ``(value, rtol)``
        pair carrying its own tolerance — e.g. for stochastic findings
        that only reproduce to a few digits.  Returns the number of
        pins checked.
        """
        spec = self.spec
        pins = spec.golden_values
        if not pins:
            raise ConformanceViolation(
                f"{spec.name}: no golden pins declared; nothing to check "
                "(declare ScenarioSpec.golden)"
            )
        findings: Dict[str, float] = {}
        for q in spec.questions:
            # Backends emit findings already label-prefixed.
            outcome = run_question(spec, q, model=self.model)
            findings.update(outcome.findings)
        for key, pin in pins.items():
            expected, tol = (
                (float(pin[0]), float(pin[1]))
                if isinstance(pin, (tuple, list)) else (float(pin), rtol)
            )
            _require(
                key in findings,
                f"{spec.name}: golden pin {key!r} matches no emitted "
                f"finding; available: {sorted(findings)}",
            )
            actual = float(findings[key])
            _require(
                abs(actual - expected) <= tol * max(1.0, abs(expected)),
                f"{spec.name}: golden finding {key} = {actual:.12g} "
                f"deviates from the pinned {expected:.12g} by more than "
                f"rtol={tol:g}",
            )
        return len(pins)

    # ------------------------------------------------------------------
    # The whole suite
    # ------------------------------------------------------------------

    def run_all(
        self,
        ensemble: bool = True,
        population_size: int = 200,
        n_runs: int = 10,
    ) -> ConformanceReport:
        """Execute every applicable check; violations raise."""
        report = ConformanceReport(scenario=self.spec.name)

        def record(name, fn, applicable=True, detail=""):
            if not applicable:
                report.outcomes.append(
                    CheckOutcome(name, "not-applicable", detail)
                )
                return
            start = time.perf_counter()
            result = fn()
            report.outcomes.append(CheckOutcome(
                name, "passed", str(result) if result is not None else "",
                seconds=time.perf_counter() - start,
            ))

        record("ordering", self.check_ordering)
        record("batch-consistency", self.check_batch_consistency)
        record("jacobian", self.check_jacobian)
        record("population-scaling", self.check_population_scaling)
        record(
            "ensemble",
            lambda: self.check_ensemble(
                population_size=population_size, n_runs=n_runs
            ),
            applicable=ensemble,
            detail="disabled by caller",
        )
        record(
            "dtmc-conservative",
            self.check_dtmc_conservative,
            applicable=self.has_dtmc_question(),
            detail="no dtmc_reward question declared",
        )
        record(
            "perturbation",
            self.check_perturbation,
            applicable=bool(self.spec.validity),
            detail="no validity ranges declared",
        )
        record(
            "golden",
            self.check_golden,
            applicable=bool(self.spec.golden),
            detail="no golden pins declared",
        )
        return report


# ----------------------------------------------------------------------
# Catalog-wide case derivation (shared by tests and benchmarks)
# ----------------------------------------------------------------------

def unique_model_cases(
    specs: Optional[Sequence[ScenarioSpec]] = None,
) -> List[ScenarioSpec]:
    """One spec per distinct ``(factory, kwargs, x0)`` in the catalog.

    Several catalog entries intentionally share a model (e.g. the SIR
    transient/hull/ensemble scenarios); model-level checks need each
    model once.  Defaults to the full registry, so newly registered
    scenarios inherit every parametrized conformance test with no test
    code of their own.
    """
    seen: Dict[tuple, ScenarioSpec] = {}
    for spec in (list_scenarios() if specs is None else specs):
        key = (spec.factory_ref, str(sorted(spec.kwargs.items())), spec.x0)
        if key not in seen:
            seen[key] = spec
    return list(seen.values())


def dtmc_cases(
    specs: Optional[Sequence[ScenarioSpec]] = None,
) -> List[ScenarioSpec]:
    """Specs declaring at least one ``dtmc_reward`` question."""
    return [
        spec for spec in (list_scenarios() if specs is None else specs)
        if any(q.kind == "dtmc_reward" for q in spec.questions)
    ]


def perturbation_cases(
    specs: Optional[Sequence[ScenarioSpec]] = None,
) -> List[ScenarioSpec]:
    """Specs declaring kwarg validity ranges (perturbation targets)."""
    return [
        spec for spec in (list_scenarios() if specs is None else specs)
        if spec.validity
    ]


def golden_cases(
    specs: Optional[Sequence[ScenarioSpec]] = None,
) -> List[ScenarioSpec]:
    """Specs declaring golden finding pins (paper-figure anchors)."""
    return [
        spec for spec in (list_scenarios() if specs is None else specs)
        if spec.golden
    ]
