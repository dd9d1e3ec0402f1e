"""The :class:`PopulationModel` definition object.

A population model is the *specification* of an imprecise population
process: a list of transition classes plus the parameter domain ``Theta``.
From it everything else in the library is derived — the imprecise drift
(Definition 3), the mean-field differential inclusion (Theorem 1), the
finite-``N`` CTMCs used for simulation (Definition 4), and the analytic
structure (affine decomposition, Jacobians) exploited by the bound
computations of Section IV.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.params import ParameterSet, Singleton
from repro.population.calculus import numeric_jacobian, validated_batch_eval
from repro.population.transitions import Transition

__all__ = ["PopulationModel"]


def _float_rows(a) -> np.ndarray:
    """``a`` as a 2-D float64 stack; an array that already is one as is."""
    if type(a) is np.ndarray and a.ndim == 2 and a.dtype == np.float64:
        return a
    return np.atleast_2d(np.asarray(a, dtype=float))


class PopulationModel:
    """An imprecise population process specified by transition classes.

    Parameters
    ----------
    name:
        Model identifier used in reports.
    state_names:
        Names of the normalised state coordinates, e.g. ``("S", "I")``.
    transitions:
        The event classes; each must have ``change`` of length
        ``len(state_names)``.
    theta_set:
        The parameter domain ``Theta``.  A :class:`~repro.params.Singleton`
        makes the model a *precise* population process.
    affine_drift_batch:
        Optional affine-in-``theta`` decomposition of the drift: a
        callable ``X -> (g0s, Gs)`` mapping a row-major state stack
        ``(n, d)`` to ``g0s`` of shape ``(n, d)`` and ``Gs`` of shape
        ``(n, d, p)`` such that ``drift(X[r], theta) = g0s[r] + Gs[r]
        @ theta`` for every row and every ``theta``.  All three paper
        models are affine in ``theta``; declaring the decomposition
        unlocks closed-form extremisation (bang-bang Hamiltonian
        maximisers, corner-based hulls).  :meth:`affine_parts_batch` is
        the hot path of every batched bound computation and
        :meth:`affine_parts` is its one-row view.  The first call is
        checked against the transition-class drift at the centre of
        ``Theta``, and a mismatch raises — a wrong decomposition
        silently corrupts every bound computed from it.
    drift_jacobian_batch:
        Optional analytic Jacobian of the drift in ``x``: a callable
        ``(X, Theta) -> (n, d, d)`` mapping row-major state and
        parameter stacks to the stack of Jacobians.
        :meth:`jacobian_x_batch` — the inner loop of the batched
        Pontryagin costate sweep — calls it, and :meth:`jacobian_x` is
        its one-row view.  Without the declaration the Jacobian is the
        central finite difference of the drift, row by row.  The
        conformance suite checks declared Jacobians against that finite
        difference along the spec's own mean-field trajectories.
    state_bounds:
        Optional ``(lower, upper)`` vectors bounding the admissible
        normalised state space (e.g. ``([0, 0], [1, 1])``); used by the
        differential-hull extremiser and by state clipping.
    conservations:
        Optional list of ``(weights, value)`` pairs declaring linear
        invariants ``weights @ x == value`` (e.g. ``S + I + R == 1``);
        checked by the simulator and by the test-suites.
    observables:
        Optional mapping ``name -> weights`` declaring named linear
        observables ``weights @ x`` (e.g. the per-class queue fraction of
        the GPS model, which is a rescaling of the raw state).  Observables
        are what benchmark harnesses report and what the linear-template
        Pontryagin bounds target.
    """

    def __init__(
        self,
        name: str,
        state_names: Sequence[str],
        transitions: Sequence[Transition],
        theta_set: ParameterSet,
        affine_drift_batch: Optional[Callable] = None,
        drift_jacobian_batch: Optional[Callable] = None,
        state_bounds: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
        conservations: Optional[List[Tuple[Sequence[float], float]]] = None,
        observables: Optional[dict] = None,
    ):
        if not name:
            raise ValueError("model needs a non-empty name")
        if not state_names:
            raise ValueError("model needs at least one state coordinate")
        if not transitions:
            raise ValueError("model needs at least one transition class")
        self.name = str(name)
        self.state_names = tuple(str(s) for s in state_names)
        self.transitions = list(transitions)
        for tr in self.transitions:
            if tr.dim != self.dim:
                raise ValueError(
                    f"transition {tr.name!r} has dimension {tr.dim}, "
                    f"model has {self.dim} states"
                )
        if not isinstance(theta_set, ParameterSet):
            raise TypeError("theta_set must be a ParameterSet")
        self.theta_set = theta_set
        self._affine_drift_batch = affine_drift_batch
        self._affine_batch_checked = False
        self._drift_jacobian_batch = drift_jacobian_batch
        if state_bounds is not None:
            lower, upper = state_bounds
            self.state_lower = np.asarray(lower, dtype=float)
            self.state_upper = np.asarray(upper, dtype=float)
            if self.state_lower.shape != (self.dim,) or self.state_upper.shape != (self.dim,):
                raise ValueError("state_bounds must be two vectors of state dimension")
            if np.any(self.state_lower > self.state_upper):
                raise ValueError("state lower bounds exceed upper bounds")
        else:
            self.state_lower = None
            self.state_upper = None
        self.conservations = []
        for weights, value in (conservations or []):
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError("conservation weights must match state dimension")
            self.conservations.append((w, float(value)))
        self.observables = {}
        for obs_name, weights in (observables or {}).items():
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dim,):
                raise ValueError(
                    f"observable {obs_name!r} weights must match state dimension"
                )
            self.observables[str(obs_name)] = w
        # Per-transition caches of whether the rate function accepts the
        # batched (coordinate-major) calling convention; populated lazily
        # by transition_rates_batch (clamped) and drift_batch (raw).
        self._batch_rate_ok: dict = {}
        self._batch_drift_ok: dict = {}
        # Set once every transition's raw batched rate is validated: the
        # drift_batch hot path then skips the validation machinery and
        # reads this (rate, change row) table.
        self._drift_batch_fast = False
        self._drift_table: List[Tuple[Callable, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension of the normalised state space."""
        return len(self.state_names)

    @property
    def theta_dim(self) -> int:
        """Dimension of the parameter vector."""
        return self.theta_set.dim

    @property
    def declares_drift_jacobian_batch(self) -> bool:
        """Whether the model ships an analytic Jacobian kernel.

        Catalog models must, and must be :attr:`is_affine`: the registry
        audit (``python -m repro lint``) fails on registered models
        without either, because the costate sweep then runs on
        finite-difference Jacobians and the Hamiltonian maximiser on
        its grid search.
        """
        return self._drift_jacobian_batch is not None

    @property
    def is_affine(self) -> bool:
        """Whether the model declares an affine-in-theta drift."""
        return self._affine_drift_batch is not None

    @property
    def is_precise(self) -> bool:
        """Whether ``Theta`` is a singleton (a classical precise model)."""
        return isinstance(self.theta_set, Singleton)

    @property
    def scalar_only_transitions(self) -> Tuple[str, ...]:
        """Transitions whose batched rate has been rejected so far.

        :meth:`transition_rates_batch` and :meth:`drift_batch` evaluate
        these rates one row at a time on every later call.  The
        registry audit (``python -m repro lint``, REG006) fails on a
        registered model with any.
        """
        return tuple(
            tr.name for e, tr in enumerate(self.transitions)
            if self._batch_rate_ok.get(e) is False
            or self._batch_drift_ok.get(e) is False
        )

    def state_index(self, name: str) -> int:
        """Index of a state coordinate by name."""
        return self.state_names.index(name)

    # ------------------------------------------------------------------
    # Drift (Definition 3 / Eq. 3) and derived analytic structure
    # ------------------------------------------------------------------

    def transition_rates(self, x, theta) -> np.ndarray:
        """Vector of density-scaled rates of all transitions at ``(x, theta)``."""
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return np.array([tr.rate_at(x, theta) for tr in self.transitions])

    def total_exit_rate(self, x, theta) -> float:
        """Sum of all density-scaled transition rates (the SSA race total)."""
        return float(np.sum(self.transition_rates(x, theta)))

    def transition_rates_batch(self, x, theta) -> np.ndarray:
        """Density-scaled rates of every transition for a batch of states.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row —
            policies can differ across ensemble members).

        Returns
        -------
        Rates of shape ``(n, n_transitions)``, clamped non-negative.

        Notes
        -----
        Rate functions are written against scalar coordinates
        (``x[0]``, ``theta[0]``, ...), so the batch is evaluated
        *coordinate-major*: the function receives ``x.T`` of shape
        ``(d, n)`` and ``theta.T`` of shape ``(p, n)``, making ``x[k]``
        the vector of coordinate ``k`` across the batch.  Purely
        coordinate-wise arithmetic rates (all the paper models)
        vectorize transparently.

        Functions that break the convention fall back to a per-row
        loop, detected per transition by
        :func:`~repro.population.calculus.validated_batch_eval`:

        - hard breaks (``float()`` casts, scalar branches, ``max``)
          raise on array input, as does a 0-d result (a constant, or a
          full reduction like ``np.sum(x)`` that pooled the batch);
        - soft breaks — reductions such as ``x[0] * np.sum(x)`` or
          ``np.mean(x)`` that return the right *shape* with row-pooled
          *values* — are caught by cross-checking the batched result
          against the scalar evaluator row-by-row.

        The cross-check only counts on a batch of *distinct* rows: on
        an all-identical batch (the engine's first step, where every
        ensemble row is the initial state) normalisation-invariant
        pooling coincides with the correct value, so validation is
        deferred until the trajectories diverge; until then the
        always-correct per-row loop is used.  The heuristic remains a
        heuristic — rate functions used with the vectorized engine
        should be written as coordinate-wise arithmetic.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        n = x.shape[0]
        out = np.empty((n, len(self.transitions)))
        x_t, theta_t = x.T, theta.T
        can_validate = n >= 2 and (
            bool(np.any(x != x[0])) or bool(np.any(theta != theta[0]))
        )
        for e, tr in enumerate(self.transitions):
            vals, status = validated_batch_eval(
                lambda: tr.rate(x_t, theta_t),
                lambda: np.array(
                    [tr.rate_at(x[r], theta[r]) for r in range(n)]
                ),
                n,
                self._batch_rate_ok.get(e),
                can_validate,
            )
            if status is not None:
                self._batch_rate_ok[e] = status
            if np.isnan(vals).any():
                raise ValueError(
                    f"transition {tr.name!r}: rate is NaN for some batch rows"
                )
            out[:, e] = vals
        return out

    def drift(self, x, theta) -> np.ndarray:
        """The imprecise drift ``f(x, theta) = sum_e change_e * rate_e``.

        This is Equation (3) of the paper specialised to transition-class
        models.  Note the drift uses the *raw* (unclamped) rates so it is
        smooth across the state-space boundary, which the mean-field
        integrators rely on.
        """
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(self.dim)
        for tr in self.transitions:
            out += tr.change * float(tr.rate(x, theta))
        return out

    def drift_batch(self, x, theta) -> np.ndarray:
        """The imprecise drift for a batch of ``(state, parameter)`` rows.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row).

        Returns
        -------
        Drift vectors of shape ``(n, d)``.

        Notes
        -----
        Like :meth:`drift` — and unlike :meth:`transition_rates_batch` —
        the rates are used *raw* (unclamped), so the batched drift is
        smooth across the state-space boundary and agrees with the
        scalar drift row-by-row.  Rate functions are evaluated
        coordinate-major (see :meth:`transition_rates_batch`) with the
        same lazy per-transition validation and per-row fallback.  Once
        every transition's batched rate has validated, subsequent calls
        skip the validation machinery entirely (same calls, same
        accumulation order — the fast path is bit-identical): this is
        the innermost call of every batched RK4 stage, so the bookkeeping
        would otherwise dominate small-stack integrations.  The fast path
        also takes 2-D float64 arrays as they are.
        """
        if self._drift_batch_fast:
            x, theta = _float_rows(x), _float_rows(theta)
            out = np.zeros((x.shape[0], self.dim))
            x_t, theta_t = x.T, theta.T
            for rate, change in self._drift_table:
                out += np.asarray(rate(x_t, theta_t), dtype=float)[:, None] \
                    * change
            return out
        x = np.atleast_2d(np.asarray(x, dtype=float))
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        n = x.shape[0]
        out = np.zeros((n, self.dim))
        x_t, theta_t = x.T, theta.T
        can_validate = n >= 2 and (
            bool(np.any(x != x[0])) or bool(np.any(theta != theta[0]))
        )
        for e, tr in enumerate(self.transitions):
            vals, status = validated_batch_eval(
                lambda: tr.rate(x_t, theta_t),
                lambda: np.array(
                    [float(tr.rate(x[r], theta[r])) for r in range(n)]
                ),
                n,
                self._batch_drift_ok.get(e),
                can_validate,
                clamp=False,
            )
            if status is not None:
                self._batch_drift_ok[e] = status
            out += vals[:, None] * tr.change[None, :]
        if len(self._batch_drift_ok) == len(self.transitions) and all(
            v is True for v in self._batch_drift_ok.values()
        ):
            self._drift_table = [(tr.rate, tr.change[None, :])
                                 for tr in self.transitions]
            self._drift_batch_fast = True
        return out

    def drift_fn(self, theta) -> Callable:
        """Freeze ``theta`` and return the autonomous drift ``x -> f(x, theta)``."""
        theta = np.asarray(theta, dtype=float)
        return lambda x: self.drift(x, theta)

    def vector_field(self, theta) -> Callable:
        """Freeze ``theta`` and return ``(t, x) -> f(x, theta)`` for integrators."""
        theta = np.asarray(theta, dtype=float)
        return lambda t, x: self.drift(x, theta)

    def affine_parts(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(g0, G)`` with ``drift(x, theta) = g0 + G @ theta``.

        A one-row view of :meth:`affine_parts_batch`.  Raises
        ``ValueError`` for models without a declared decomposition;
        callers needing genericity should branch on :attr:`is_affine`.
        """
        g0s, big_gs = self.affine_parts_batch(x)
        return g0s[0], big_gs[0]

    def affine_parts_batch(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Batched affine decomposition: ``(g0s, Gs)`` for a state stack.

        Parameters
        ----------
        x:
            Row-major batch of states, shape ``(n, d)``.

        Returns
        -------
        ``g0s`` of shape ``(n, d)`` and ``Gs`` of shape ``(n, d, p)``
        with ``drift(x[r], theta) = g0s[r] + Gs[r] @ theta`` for every
        row and every admissible ``theta``.

        The first call checks the declared kernel's shapes and, on its
        first and last finite rows, reconstructs ``g0 + G theta`` at the
        centre of ``Theta`` against :meth:`drift_batch`; a mismatch
        raises — a wrong affine decomposition silently corrupts every
        bound computed from it.
        """
        if self._affine_drift_batch is None:
            raise ValueError(f"model {self.name!r} declares no affine decomposition")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if self._affine_batch_checked:
            return self._affine_drift_batch(x)
        n = x.shape[0]
        g0s, big_gs = self._affine_drift_batch(x)
        g0s = np.asarray(g0s, dtype=float)
        big_gs = np.asarray(big_gs, dtype=float)
        if g0s.shape != (n, self.dim):
            raise ValueError(
                f"batched affine g0 has shape {g0s.shape}, "
                f"expected ({n}, {self.dim})"
            )
        if big_gs.shape != (n, self.dim, self.theta_dim):
            raise ValueError(
                f"batched affine G has shape {big_gs.shape}, "
                f"expected ({n}, {self.dim}, {self.theta_dim})"
            )
        finite = np.flatnonzero(np.isfinite(x).all(axis=1))
        if finite.size:
            # One-row drift_batch calls: they leave its lazy rate
            # validation untouched.
            centre = self.theta_set.center()
            for r in {int(finite[0]), int(finite[-1])}:
                reference = self.drift_batch(x[r], centre)[0]
                if not np.allclose(g0s[r] + big_gs[r] @ centre, reference,
                                   rtol=1e-8, atol=1e-9):
                    raise ValueError(
                        f"model {self.name!r}: affine_drift_batch disagrees "
                        f"with drift_batch at x={x[r].tolist()}"
                    )
            self._affine_batch_checked = True
        return g0s, big_gs

    def jacobian_x(self, x, theta) -> np.ndarray:
        """Jacobian of the drift in ``x``: a one-row view of
        :meth:`jacobian_x_batch`."""
        return self.jacobian_x_batch(x, theta)[0]

    def jacobian_x_batch(self, x, theta) -> np.ndarray:
        """Batched drift Jacobians in ``x``: shape ``(n, d, d)``.

        Parameters
        ----------
        x:
            Row-major batch of states, shape ``(n, d)``.
        theta:
            Matching batch of parameters, shape ``(n, p)`` (one per
            row — Pontryagin lanes carry different controls).

        Uses the declared ``drift_jacobian_batch`` when available (one
        vectorized call).  Falls back to the central finite difference
        of :meth:`drift`, row by row, otherwise.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        theta = np.asarray(theta, dtype=float)
        if theta.ndim == 1:
            theta = theta[None, :]
        n = x.shape[0]
        if theta.shape[0] != n:
            raise ValueError(
                f"theta batch has {theta.shape[0]} rows for {n} states"
            )
        if self._drift_jacobian_batch is None:
            out = np.empty((n, self.dim, self.dim))
            for r in range(n):
                out[r] = numeric_jacobian(
                    lambda y: self.drift(y, theta[r]), x[r]
                )
            return out
        jacs = np.asarray(self._drift_jacobian_batch(x, theta), dtype=float)
        if jacs.shape != (n, self.dim, self.dim):
            raise ValueError(
                f"batched Jacobian has shape {jacs.shape}, "
                f"expected ({n}, {self.dim}, {self.dim})"
            )
        return jacs

    def backend_kernels(self) -> SimpleNamespace:
        """The batch kernels by role: ``drift``, ``rates``, ``affine``,
        ``jacobian`` — this model's own ``*_batch`` methods.

        The library calls those methods directly; this view stays for
        callers written against the former kernel bundle (the catalog
        benchmark's set-up among them).
        """
        return SimpleNamespace(drift=self.drift_batch,
                               rates=self.transition_rates_batch,
                               affine=self.affine_parts_batch,
                               jacobian=self.jacobian_x_batch)

    # ------------------------------------------------------------------
    # State-space housekeeping
    # ------------------------------------------------------------------

    def clip_state(self, x) -> np.ndarray:
        """Clip a state to the declared bounds (identity when unbounded)."""
        x = np.asarray(x, dtype=float)
        if self.state_lower is None:
            return x.copy()
        return np.clip(x, self.state_lower, self.state_upper)

    def observable(self, name: str, x) -> float:
        """Evaluate a named linear observable at state ``x``."""
        if name not in self.observables:
            raise KeyError(
                f"model {self.name!r} has no observable {name!r}; "
                f"available: {sorted(self.observables)}"
            )
        return float(self.observables[name] @ np.asarray(x, dtype=float))

    def check_conservations(self, x, tol: float = 1e-9) -> bool:
        """Whether all declared linear invariants hold at ``x``."""
        x = np.asarray(x, dtype=float)
        return all(
            abs(float(w @ x) - value) <= tol for w, value in self.conservations
        )

    # ------------------------------------------------------------------
    # Finite-N instantiation
    # ------------------------------------------------------------------

    def instantiate(self, population_size: int, initial_density):
        """Build the finite-``N`` CTMC of Definition 4 at this size.

        ``initial_density`` is the normalised initial state; it is rounded
        to the nearest lattice point ``k / N``.
        """
        from repro.population.finite import FinitePopulation

        return FinitePopulation(self, population_size, initial_density)

    def __repr__(self) -> str:
        kind = "uncertain/imprecise" if not self.is_precise else "precise"
        return (
            f"PopulationModel({self.name!r}, states={list(self.state_names)}, "
            f"{len(self.transitions)} transitions, {kind})"
        )
