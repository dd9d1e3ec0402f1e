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
from repro.population.transitions import Transition

__all__ = ["PopulationModel"]

#: Where the construction-time rate check probes, as fractions of each
#: state coordinate's range (plus a per-coordinate skew below 0.1): three
#: rows that differ in every coordinate and in their sums, so a rate
#: that pools the batch (``np.sum(x)``, ``np.mean(x)``) disagrees with
#: its per-row values on at least one row.
_PROBE_STATE_FRACTIONS = np.array([0.2, 0.45, 0.7])
#: How far each probe parameter row moves from the centre of ``Theta``
#: towards one of its corners.
_PROBE_THETA_FRACTIONS = np.array([0.5, 0.75, 0.25])
_RATE_CONTRACT = ("rates must be coordinate-wise array arithmetic: x of "
                  "shape (d, n) and theta of shape (p, n) in, (n,) values or "
                  "a constant out")


def _checked_stacks(name: str, dim: int, theta_dim: int, x,
                    theta=None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """``(n, d)`` states and ``(n, p)`` parameters of one batch call.

    ``x`` must be ``(n, d)`` or one state ``(d,)``; ``theta`` must be
    ``(n, p)``, or one row ``(p,)`` / ``(1, p)`` that is broadcast to
    every state (a read-only view).  Anything else raises ``ValueError``
    naming both shapes.  ``theta=None`` checks the states alone and
    returns ``None`` for the parameters.  This is the input contract of
    every batch kernel of a model: the rate kernel, the affine
    decomposition, the Jacobians and the master equation's kernels.
    """
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 1:
        xs = xs[None, :]
    thetas = None if theta is None else np.asarray(theta, dtype=float)
    if thetas is not None and thetas.ndim == 1:
        thetas = thetas[None, :]
    if (xs.ndim != 2 or xs.shape[1] != dim
            or (thetas is not None
                and (thetas.ndim != 2 or thetas.shape[1] != theta_dim
                     or thetas.shape[0] not in (1, xs.shape[0])))):
        given = f"states of shape {np.shape(x)}"
        expected = f"states (n, {dim}) or ({dim},)"
        if theta is not None:
            given += f" and parameters of shape {np.shape(theta)}"
            expected += (f" and parameters (n, {theta_dim}) with as many "
                         f"rows as states, or (1, {theta_dim}) / "
                         f"({theta_dim},) for every state")
        raise ValueError(
            f"model {name!r}: {given} do not fit; expected {expected}"
        )
    if thetas is not None and thetas.shape[0] != xs.shape[0]:
        thetas = np.broadcast_to(thetas, (xs.shape[0], theta_dim))
    return xs, thetas


def probe_states(lower: np.ndarray, span=1.0) -> np.ndarray:
    """Three probe states in the box ``lower + [0, span]``, shape
    ``(3, d)``: they differ in every coordinate and in their sums."""
    skew = 0.1 * np.arange(lower.shape[0]) / lower.shape[0]
    return lower + (_PROBE_STATE_FRACTIONS[:, None] + skew) * span


def checked_rate(rate: Callable, what: str, probes: Tuple[np.ndarray, ...],
                 contract: str) -> Callable:
    """``rate`` as a batch kernel calls it, checked on probe rows.

    ``probes`` are the coordinate-major arguments of one batched call:
    the last axis of each runs over the ``n`` probe rows.  The rate is
    evaluated once on them and once per row; it must return ``(n,)``
    values (or a constant, which is wrapped to broadcast to ``(n,)``)
    equal to the per-row ones.  Raises ``ValueError`` naming ``what``
    and ``contract`` otherwise.  Transition rates and the jump rates of
    :class:`~repro.simulation.RandomJumpPolicy` are checked here.
    """
    n = probes[0].shape[-1]
    try:
        with np.errstate(all="ignore"):
            batched = np.asarray(rate(*probes), dtype=float)
            per_row = np.array([float(rate(*(a[..., r] for a in probes)))
                                for r in range(n)])
    except Exception as exc:
        raise ValueError(
            f"{what} raises {type(exc).__name__} ({exc}); {contract}"
        ) from exc
    if batched.shape not in ((n,), ()):
        raise ValueError(
            f"{what} returns shape {batched.shape} for {n} states; "
            f"{contract}"
        )
    if not np.allclose(batched, per_row, rtol=1e-9, atol=1e-12,
                       equal_nan=True):
        raise ValueError(
            f"{what} on a batch of {n} states returns {batched.tolist()}, "
            f"one state at a time {per_row.tolist()}; {contract}"
        )
    if batched.ndim == 0:
        return lambda *args: np.full(args[0].shape[-1], rate(*args),
                                     dtype=float)
    return rate


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
        ``len(state_names)`` and a rate that takes batches (see
        :class:`~repro.population.Transition`).  Each rate is checked
        once here against its per-row values, on three rows distinct in
        every coordinate; one that fails raises ``ValueError`` naming
        the transition.
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
        parameter stacks to a new stack of Jacobians (the caller may
        overwrite it).
        :meth:`jacobian_x_batch` — the inner loop of the batched
        Pontryagin costate sweep — calls it, and :meth:`jacobian_x` is
        its one-row view.  Without the declaration they raise
        ``ValueError``, so the Pontryagin bounds need it.  The
        conformance suite checks declared Jacobians against central
        finite differences along the spec's own mean-field trajectories.
    state_bounds:
        Optional ``(lower, upper)`` vectors bounding the admissible
        normalised state space (e.g. ``([0, 0], [1, 1])``); used by the
        differential-hull extremiser and by state clipping.
    conservations:
        Optional list of ``(weights, value)`` pairs declaring linear
        invariants ``weights @ x == value`` (e.g. ``S + I + R == 1``);
        :meth:`check_conservations` tests a state against them (the
        test-suites use it; the simulator does not check them).
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
        # The rate kernel: one checked rate per transition, and the
        # (K, 1, d) change stack drift_batch weights their values with.
        x_probe, theta_probe = self._probe_rows()
        self._rates = tuple(
            checked_rate(tr.rate, f"transition {tr.name!r}: rate",
                         (x_probe.T, theta_probe.T), _RATE_CONTRACT)
            for tr in self.transitions
        )
        self._changes = np.array([tr.change for tr in self.transitions])[
            :, None, :]

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
        without either, because the costate sweep then has no Jacobian
        and the Hamiltonian maximiser runs its grid search.
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

    def _probe_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fixed ``(x, theta)`` rows the rate contract is checked on.

        States lie inside ``state_bounds`` (the open unit box when the
        model declares none); parameters lie in ``Theta``, between its
        centre and its corners.
        """
        if self.state_lower is None:
            lower, span = np.zeros(self.dim), np.ones(self.dim)
        else:
            lower, span = self.state_lower, self.state_upper - self.state_lower
        x_probe = probe_states(lower, span)
        centre = self.theta_set.center()
        corners = self.theta_set.corners()
        towards = corners[np.arange(x_probe.shape[0]) % corners.shape[0]]
        theta_probe = self.theta_set.project_batch(
            centre + _PROBE_THETA_FRACTIONS[:, None] * (towards - centre)
        )
        return x_probe, theta_probe

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

    def _rate_stack(self, x, theta) -> np.ndarray:
        """Raw rates of every transition on a batch, shape ``(K, n)``.

        The stacks are checked by :func:`_checked_stacks`.  Each checked
        rate is called once, coordinate-major.
        """
        xs, thetas = _checked_stacks(self.name, self.dim, self.theta_dim,
                                     x, theta)
        x_t, theta_t = xs.T, thetas.T
        return np.array([rate(x_t, theta_t) for rate in self._rates],
                        dtype=float)

    def transition_rates_batch(self, x, theta) -> np.ndarray:
        """Density-scaled rates of every transition for a batch of states.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``, or one state
            ``(d,)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row —
            policies can differ across ensemble members), or one vector
            ``(p,)`` / ``(1, p)`` for every row.

        Returns
        -------
        Rates of shape ``(n, n_transitions)``, clamped non-negative.
        Raises ``ValueError`` naming the first transition whose rate is
        NaN on some row.
        """
        rates = self._rate_stack(x, theta)
        nan = np.isnan(rates).any(axis=1)
        if nan.any():
            name = self.transitions[int(np.argmax(nan))].name
            raise ValueError(
                f"transition {name!r}: rate is NaN for some batch rows"
            )
        # C order, like a per-row table, so row sums add in that order.
        return np.maximum(rates.T, 0.0, order="C")

    def drift(self, x, theta) -> np.ndarray:
        """The imprecise drift ``f(x, theta) = sum_e change_e * rate_e``.

        This is Equation (3) of the paper specialised to transition-class
        models.  Note the drift uses the *raw* (unclamped) rates so it is
        smooth across the state-space boundary, which the mean-field
        integrators rely on.  ``x`` must have shape ``(d,)`` and
        ``theta`` shape ``(p,)``; anything else raises ``ValueError``
        naming both shapes (stacks go to :meth:`drift_batch`).
        """
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if x.shape != (self.dim,) or theta.shape != (self.theta_dim,):
            raise ValueError(
                f"model {self.name!r}: state of shape {x.shape} and "
                f"parameters of shape {theta.shape} do not fit; expected "
                f"({self.dim},) and ({self.theta_dim},)"
            )
        out = np.zeros(self.dim)
        for tr in self.transitions:
            out += tr.change * float(tr.rate(x, theta))
        return out

    def drift_batch(self, x, theta) -> np.ndarray:
        """The imprecise drift for a batch of ``(state, parameter)`` rows.

        Parameters
        ----------
        x:
            Batch of normalised states, shape ``(n, d)``, or one state
            ``(d,)``.
        theta:
            Batch of parameter vectors, shape ``(n, p)`` (one per row),
            or one vector ``(p,)`` / ``(1, p)`` for every row.

        Returns
        -------
        Drift vectors of shape ``(n, d)``.

        Notes
        -----
        Like :meth:`drift` — and unlike :meth:`transition_rates_batch` —
        the rates are used *raw* (unclamped), so the batched drift is
        smooth across the state-space boundary.  The ``(K, n)`` rate
        stack is weighted by the change vectors and summed over the
        transitions in declaration order, starting from ``0.0``: the
        additions of a per-transition ``out += rate * change`` loop, so
        each row equals that loop bit for bit.
        """
        weighted = self._rate_stack(x, theta)[:, :, None] * self._changes
        return np.add.reduce(weighted, axis=0, initial=0.0)

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
            Row-major batch of states, shape ``(n, d)``, or one state
            ``(d,)``; any other shape raises ``ValueError``, on every
            call.

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
        x, _ = _checked_stacks(self.name, self.dim, self.theta_dim, x)
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
            Row-major batch of states, shape ``(n, d)``, or one state
            ``(d,)``.
        theta:
            Batch of parameters, shape ``(n, p)`` (one per row —
            Pontryagin lanes carry different controls), or one vector
            ``(p,)`` / ``(1, p)`` for every row.

        The stacks are those of :meth:`drift_batch`; other shapes raise
        ``ValueError`` naming both.  Uses the declared
        ``drift_jacobian_batch`` (one vectorized call); a model that
        declares none raises ``ValueError`` naming it.
        """
        x, theta = _checked_stacks(self.name, self.dim, self.theta_dim,
                                   x, theta)
        n = x.shape[0]
        if self._drift_jacobian_batch is None:
            raise ValueError(
                f"model {self.name!r} declares no drift_jacobian_batch; "
                f"the costate sweep needs its analytic Jacobian"
            )
        jacs = np.asarray(self._drift_jacobian_batch(x, theta), dtype=float)
        if jacs.shape != (n, self.dim, self.dim):
            raise ValueError(
                f"batched Jacobian has shape {jacs.shape}, "
                f"expected ({n}, {self.dim}, {self.dim})"
            )
        # The costate sweep builds its transfer matrices in this stack.
        return jacs if jacs.flags.writeable else jacs.copy()

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
