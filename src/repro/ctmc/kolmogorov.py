"""Imprecise Kolmogorov equations (Eq. 2 of the paper).

For an imprecise chain the probability mass satisfies the *linear*
differential inclusion

.. math::
    \\dot P(t) \\in \\{ Q(\\theta)^T P(t) : \\theta \\in \\Theta \\}.

Because this is itself a differential inclusion with affine-in-theta
drift, the whole Section IV toolbox applies verbatim: the
:class:`KolmogorovSystem` adapter exposes the master equation through
the same duck-typed interface as a population model (``drift_batch``
/ ``affine_parts_batch``, one sparse product of the stacked generator
parts ``[Q_0^T; Q_1^T; ...]`` per call; ``vjp_batch``, the costate
product ``J(P, theta)^T lam = Q(theta) lam`` as one sparse product of
``[Q_0 | Q_1 | ...]``, in place of a dense ``Q(theta)^T`` Jacobian;
their one-row views ``drift`` / ``affine_parts``; ``theta_set``), so

- :func:`imprecise_reward_bounds` runs the Pontryagin lane engine on
  the master equation, giving the *exact* extreme of any expected
  reward ``r . P(T)`` over all admissible parameter processes, and
- :func:`uncertain_reward_envelope` sweeps constant parameters for the
  uncertain counterpart.

The gap between the two quantifies, at finite ``N``, the same
imprecise-vs-uncertain phenomenon that Figure 1 shows in the mean-field
limit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.bounds.pontryagin import PontryaginResult, extremal_trajectory
from repro.ctmc.chain import ImpreciseCTMC
from repro.ode import solve_ode
from repro.population.model import _checked_stacks


def _csr_transpose(matrix) -> sparse.csr_matrix:
    """The CSR transpose of a generator part, dense or sparse."""
    if sparse.issparse(matrix):
        return matrix.T.tocsr()
    return sparse.csr_matrix(np.asarray(matrix, dtype=float).T)

__all__ = [
    "KolmogorovSystem",
    "imprecise_reward_bounds",
    "uncertain_reward_envelope",
]


def _checked_inputs(chain, reward, p0):
    """``(reward, p0)`` as arrays, after rejecting malformed inputs."""
    n = chain.n_states
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (n,):
        raise ValueError(f"reward has shape {reward.shape}, expected ({n},)")
    if not np.all(np.isfinite(reward)):
        raise ValueError("reward must be finite")
    p0 = chain.initial_distribution if p0 is None else np.asarray(p0, float)
    if p0.shape != (n,):
        raise ValueError(f"p0 has shape {p0.shape}, expected ({n},)")
    return reward, p0


class KolmogorovSystem:
    """Adapter: the master equation of a finite chain as a drift model.

    Duck-types the subset of the :class:`~repro.population.PopulationModel`
    interface consumed by :class:`~repro.inclusion.DriftExtremizer` and
    the Pontryagin lane engine
    (:func:`~repro.bounds.extremal_trajectories_batch`):
    the "state" is the probability vector ``P`` and the "drift" is
    ``f(P, theta) = Q(theta)^T P``, affine in ``theta`` through the
    generator decomposition.  Its Jacobian ``Q(theta)^T`` is ``d x d``
    (0.94 MB at 343 states), so the adapter never builds it: it answers
    the costate sweep's vector–Jacobian hook, :meth:`vjp_batch`, with
    the sparse generator parts instead.  Every kernel takes the stacks
    of :meth:`~repro.population.PopulationModel.drift_batch` and raises
    ``ValueError`` naming both shapes on any other.
    """

    def __init__(self, chain: ImpreciseCTMC):
        self.chain = chain
        self.name = f"kolmogorov({chain.model.name})"
        q0, parts = chain.affine_generator_parts()
        # [Q0^T; Q1^T; ...] as one CSR: a CSR row product sums that
        # row's stored entries in stored order, so one product of the
        # stack equals the 1 + p per-part products bit for bit.
        self._stacked_t = sparse.vstack(
            [_csr_transpose(part) for part in [q0, *parts]], format="csr"
        )
        # [Q0 | Q1 | ...]: its product with [lam; theta_1 lam; ...] is
        # Q(theta) lam, with no per-part products to combine.
        self._stacked = self._stacked_t.T.tocsr()
        self.theta_set = chain.model.theta_set
        self.state_names = tuple(
            "p_" + "_".join(str(v) for v in row) for row in chain.states
        )
        self.observables = {}

    @property
    def dim(self) -> int:
        return self.chain.n_states

    @property
    def theta_dim(self) -> int:
        return self.theta_set.dim

    @property
    def is_affine(self) -> bool:
        return True

    def _stacks(self, p, theta=None):
        """The checked ``(n, d)`` / ``(n, p)`` stacks of a kernel call."""
        return _checked_stacks(self.name, self.dim, self.theta_dim, p, theta)

    def _part_products(self, p):
        """``[Q0^T P, Q_1^T P, ...]`` for a checked ``(n, d)`` stack ``P``:
        ``(1 + p, n, d)``.

        One sparse product of the stacked parts, sliced per part.
        """
        products = self._stacked_t @ p.T
        return products.reshape(-1, self.dim, p.shape[0]).transpose(0, 2, 1)

    def drift(self, p, theta) -> np.ndarray:
        """One-row view of :meth:`drift_batch`."""
        return self.drift_batch(p, theta)[0]

    def drift_fn(self, theta):
        theta = np.asarray(theta, dtype=float)
        return lambda p: self.drift(p, theta)

    def vector_field(self, theta):
        theta = np.asarray(theta, dtype=float)
        return lambda t, p: self.drift(p, theta)

    def affine_parts(self, p):
        """One-row view of :meth:`affine_parts_batch`."""
        g0s, big_gs = self.affine_parts_batch(p)
        return g0s[0], big_gs[0]

    def drift_batch(self, p, theta) -> np.ndarray:
        """Row-wise master-equation drift for ``(n, d)`` / ``(n, p)`` stacks."""
        p, theta = self._stacks(p, theta)
        products = self._part_products(p)
        out = products[0]
        for k in range(self.theta_dim):
            out = out + theta[:, k, None] * products[k + 1]
        return out

    def affine_parts_batch(self, p):
        """Batched decomposition: one sparse product for every part.

        The master equation is linear in ``P``, so the whole stack is a
        single product of the stacked parts ``[Q_0^T; Q_1^T; ...]`` —
        the batched bound computations (Pontryagin re-maximisation over
        all grid intervals) need no per-row Python loop at all.
        """
        p, _ = self._stacks(p)
        products = self._part_products(p)
        return products[0], np.stack(products[1:], axis=2)

    def vjp_batch(self, p, theta, lam) -> np.ndarray:
        """``J(P, theta)^T lam = Q(theta) lam`` per row, shape ``(n, d)``.

        The costate sweep's vector–Jacobian hook.  The master equation
        is linear, so the product depends on the parameter rows and the
        costate rows ``lam`` (the shape of the state stack) only.  It is
        one product of the horizontally stacked parts
        ``[Q_0 | Q_1 | ...]`` with ``[lam; theta_1 lam; ...]``.
        """
        states, theta = self._stacks(p, theta)
        lam = np.asarray(lam, dtype=float)
        if np.atleast_2d(lam).shape != states.shape:
            raise ValueError(
                f"model {self.name!r}: costates of shape {lam.shape} do not "
                f"fit states of shape {np.shape(p)}"
            )
        n = states.shape[0]
        lam = lam.reshape(n, 1, self.dim)
        rhs = np.concatenate((lam, theta[:, :, None] * lam), axis=1)
        return (self._stacked @ rhs.reshape(n, -1).T).T


def imprecise_reward_bounds(
    chain: ImpreciseCTMC,
    reward: Sequence[float],
    horizon: float,
    p0: Optional[np.ndarray] = None,
    maximize: bool = True,
    n_steps: int = 300,
    **sweep_kwargs,
) -> PontryaginResult:
    """Extreme expected reward ``r . P(T)`` over all parameter processes.

    ``reward`` assigns a value to every enumerated state (length
    ``chain.n_states``); use ``chain.densities() @ w`` to reward a linear
    state observable ``w``.  Returns the full Pontryagin result — its
    ``controls`` are the adversarial parameter signal achieving the
    bound.
    """
    reward, p0 = _checked_inputs(chain, reward, p0)
    return extremal_trajectory(
        KolmogorovSystem(chain), p0, horizon, reward, maximize=maximize,
        n_steps=n_steps, **sweep_kwargs,
    )


def uncertain_reward_envelope(
    chain: ImpreciseCTMC,
    reward: Sequence[float],
    t_eval,
    p0: Optional[np.ndarray] = None,
    resolution: int = 9,
):
    """Envelope of ``r . P(t)`` over constant parameters (uncertain case).

    Returns ``(times, lower, upper)`` arrays.  Computed by integrating
    the master equation for each grid parameter — for interval chains
    this is the exact uncertain-CTMC transient envelope at the grid
    resolution.

    The master equation is linear in ``P``, so all grid parameters are
    stacked into one block ODE over an ``(m, n)`` state matrix and
    integrated in a single ``solve_ode`` call, at the distinct times of
    ``t_eval`` (a repeated time reads its time's sample).  A degenerate
    horizon (``t_eval[0] == t_eval[-1]``) returns the constant
    ``p0 . r`` envelope, matching :func:`repro.bounds.uncertain_envelope`;
    descending grids are rejected — backward integration of a generator
    is exponentially unstable and used to mis-integrate silently.
    """
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or t_eval.shape[0] < 1:
        raise ValueError("t_eval must be a non-empty 1-D array")
    if not np.all(np.isfinite(t_eval)):
        raise ValueError(f"t_eval must be finite, got {t_eval.tolist()}")
    if np.any(np.diff(t_eval) < 0):
        raise ValueError(
            "t_eval must be non-decreasing: the master equation is only "
            "integrated forward in time (the backward problem is "
            "exponentially unstable)"
        )
    reward, p0 = _checked_inputs(chain, reward, p0)
    n_t = t_eval.shape[0]
    if t_eval[0] == t_eval[-1]:
        # Degenerate horizon: the mass never moves off p0.
        flat = np.full(n_t, float(p0 @ reward))
        return t_eval.copy(), flat, flat.copy()
    system = KolmogorovSystem(chain)
    thetas = np.vstack(
        [chain.model.theta_set.grid(resolution), chain.model.theta_set.corners()]
    )
    thetas = np.unique(thetas, axis=0)
    m, n = thetas.shape[0], chain.n_states

    # Linearity of the master equation: the whole theta stack is one
    # block ODE, one sparse matmul per generator part per RHS call.
    def field(t, y):
        return system.drift_batch(y.reshape(m, n), thetas).ravel()

    # The integrator takes strictly increasing times: solve at the
    # distinct ones, then index each entry of t_eval back to its sample.
    fresh = np.concatenate(([True], np.diff(t_eval) != 0))
    traj = solve_ode(
        field, np.tile(p0, m),
        (float(t_eval[0]), float(t_eval[-1])), t_eval=t_eval[fresh],
        rtol=1e-9, atol=1e-11,
    )
    values = (traj.states.reshape(-1, m, n) @ reward).T[:, np.cumsum(fresh) - 1]
    return t_eval.copy(), values.min(axis=0), values.max(axis=0)
