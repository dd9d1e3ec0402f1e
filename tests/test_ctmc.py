"""Tests for the exact finite-CTMC substrate (repro.ctmc)."""

import tracemalloc

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import extremal_trajectories_batch, pontryagin
from repro.bounds.sweep import _resolve_weights
from repro.ctmc import (
    ImpreciseCTMC,
    KolmogorovSystem,
    enumerate_lattice,
    imprecise_reward_bounds,
    uncertain_reward_envelope,
)
from repro.models import make_bike_station_model, make_sir_full_model
from repro.params import Interval
from repro.population import PopulationModel, Transition
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def bike_chain():
    model = make_bike_station_model()
    return ImpreciseCTMC(model.instantiate(10, [0.5]))


def catalog_reward_problem(name):
    """``(chain, reward, horizon, n_steps)`` of a catalog dtmc_reward
    question, for its first observable."""
    spec = get_scenario(name)
    opts = next(q for q in spec.questions if q.kind == "dtmc_reward").opts
    model = spec.build_model()
    chain = ImpreciseCTMC(model.instantiate(opts["population_size"], spec.x0))
    weights = _resolve_weights(model, list(spec.observables))
    reward = chain.densities() @ next(iter(weights.values()))
    horizon = float(opts.get("horizon", spec.horizon))
    return chain, reward, horizon, int(opts["n_steps"])


class TestEnumeration:
    def test_bike_lattice_full_line(self):
        model = make_bike_station_model()
        pop = model.instantiate(10, [0.5])
        states, index = enumerate_lattice(pop)
        assert states.shape == (11, 1)
        assert index[(5,)] == 0  # initial state first
        assert set(index) == {(k,) for k in range(11)}

    def test_sir_lattice_simplex(self):
        model = make_sir_full_model()
        pop = model.instantiate(6, [0.5, 0.5, 0.0])
        states, _ = enumerate_lattice(pop)
        # All (s, i, r) with s+i+r = 6: C(8, 2) = 28 states.
        assert states.shape[0] == 28
        assert np.all(states.sum(axis=1) == 6)

    def test_max_states_enforced(self):
        model = make_sir_full_model()
        pop = model.instantiate(60, [0.5, 0.5, 0.0])
        with pytest.raises(RuntimeError):
            enumerate_lattice(pop, max_states=100)


class TestGenerators:
    def test_rows_sum_to_zero(self, bike_chain):
        q = bike_chain.generator([1.0, 1.1]).toarray()
        np.testing.assert_allclose(q.sum(axis=1), 0.0, atol=1e-12)

    def test_off_diagonals_nonnegative(self, bike_chain):
        q = bike_chain.generator([0.9, 1.1]).toarray()
        off = q - np.diag(np.diag(q))
        assert np.all(off >= 0)

    def test_birth_death_structure(self, bike_chain):
        q = bike_chain.generator([0.8, 0.9]).toarray()
        n = q.shape[0]
        for i in range(n):
            for j in range(n):
                counts_i = bike_chain.states[i, 0]
                counts_j = bike_chain.states[j, 0]
                if abs(counts_i - counts_j) > 1:
                    assert q[i, j] == 0.0

    @pytest.mark.parametrize("theta", [
        [1.0, 1.0, 5.0],     # an extra entry used to be dropped silently
        [1.0],               # used to raise IndexError inside a rate
        [[1.0, 1.0]],        # a 2-D theta used to be accepted
        [np.inf, 1.0],       # used to give a generator with inf entries
        [1.0, -np.inf],
    ], ids=["extra-entry", "missing-entry", "two-d", "inf", "minus-inf"])
    def test_malformed_theta_rejected(self, bike_chain, theta):
        with pytest.raises(ValueError, match="theta"):
            bike_chain.generator(theta)

    def test_affine_parts_verified(self, bike_chain):
        q0, parts = bike_chain.affine_generator_parts()
        assert len(parts) == 2
        theta = np.array([1.0, 0.95])
        reconstructed = q0 + parts[0] * theta[0] + parts[1] * theta[1]
        direct = bike_chain.generator(theta)
        assert abs(reconstructed - direct).max() < 1e-10

    def test_nonaffine_rates_detected(self):
        tr_up = Transition("up", [1.0], lambda x, th: th[0] ** 2 * (1 - x[0]))
        tr_down = Transition("down", [-1.0], lambda x, th: x[0])
        model = PopulationModel("sq", ("x",), [tr_up, tr_down],
                                Interval(0.5, 2.0))
        chain = ImpreciseCTMC(model.instantiate(5, [0.4]))
        with pytest.raises(ValueError):
            chain.affine_generator_parts()


class TestKolmogorovSystem:
    def test_adapter_interface(self, bike_chain):
        system = KolmogorovSystem(bike_chain)
        assert system.dim == 11
        assert system.theta_dim == 2
        assert system.is_affine

    def test_drift_matches_master_equation(self, bike_chain):
        system = KolmogorovSystem(bike_chain)
        p = bike_chain.initial_distribution
        theta = np.array([1.0, 0.9])
        expected = bike_chain.generator(theta).T @ p
        np.testing.assert_allclose(system.drift(p, theta), expected, atol=1e-12)

    def test_affine_parts_match_drift(self, bike_chain, rng):
        system = KolmogorovSystem(bike_chain)
        p = rng.dirichlet(np.ones(11))
        g0, big_g = system.affine_parts(p)
        theta = np.array([0.95, 1.05])
        np.testing.assert_allclose(
            g0 + big_g @ theta, system.drift(p, theta), atol=1e-12
        )

    def test_vjp_is_generator_product(self, bike_chain, rng):
        # The costate hook J(P, theta)^T lam = Q(theta) lam, one row per
        # (state, parameter, costate) row, against the dense generator.
        system = KolmogorovSystem(bike_chain)
        thetas = np.array([[1.0, 1.0], [0.9, 1.1], [1.1, 0.95]])
        lams = rng.normal(size=(3, 11))
        got = system.vjp_batch(rng.dirichlet(np.ones(11), size=3), thetas,
                               lams)
        assert got.shape == (3, 11)
        for row, theta_row, lam in zip(got, thetas, lams):
            np.testing.assert_allclose(
                row, bike_chain.generator(theta_row).toarray() @ lam,
                rtol=1e-12, atol=1e-12,
            )

    def test_probability_conserved_by_drift(self, bike_chain, rng):
        system = KolmogorovSystem(bike_chain)
        p = rng.dirichlet(np.ones(11))
        drift = system.drift(p, [1.1, 0.9])
        assert drift.sum() == pytest.approx(0.0, abs=1e-12)

    def test_dense_generator_parts_accepted(self, bike_chain, rng):
        """Regression: duck-typed chains with dense affine parts used to
        crash on the assumed ``.tocsr()``."""

        class DenseChain:
            model = bike_chain.model
            states = bike_chain.states
            n_states = bike_chain.n_states
            initial_distribution = bike_chain.initial_distribution

            @staticmethod
            def affine_generator_parts():
                q0, parts = bike_chain.affine_generator_parts()
                return q0.toarray(), [part.toarray() for part in parts]

        dense = KolmogorovSystem(DenseChain())
        sparse_sys = KolmogorovSystem(bike_chain)
        p = rng.dirichlet(np.ones(11))
        theta = np.array([1.05, 0.95])
        np.testing.assert_array_equal(
            dense.drift(p, theta), sparse_sys.drift(p, theta)
        )
        ps = rng.dirichlet(np.ones(11), size=2)
        thetas = np.array([[1.05, 0.95], [0.9, 1.1]])
        lams = rng.normal(size=(2, 11))
        np.testing.assert_array_equal(
            dense.vjp_batch(ps, thetas, lams),
            sparse_sys.vjp_batch(ps, thetas, lams),
        )


class TestRewardBounds:
    def test_imprecise_brackets_uncertain(self, bike_chain):
        reward = (bike_chain.states[:, 0] == 0).astype(float)
        res_max = imprecise_reward_bounds(bike_chain, reward, 3.0,
                                          maximize=True, n_steps=100)
        res_min = imprecise_reward_bounds(bike_chain, reward, 3.0,
                                          maximize=False, n_steps=100)
        _, lo, hi = uncertain_reward_envelope(
            bike_chain, reward, np.linspace(0, 3, 4), resolution=5
        )
        assert res_min.value <= lo[-1] + 1e-6
        assert res_max.value >= hi[-1] - 1e-6
        assert 0.0 <= res_min.value <= res_max.value <= 1.0

    def test_reward_shape_validated(self, bike_chain):
        with pytest.raises(ValueError):
            imprecise_reward_bounds(bike_chain, np.ones(3), 1.0)
        # A wrong-shaped p0 used to fail inside the sparse matmuls.
        with pytest.raises(ValueError, match="p0"):
            imprecise_reward_bounds(bike_chain, np.ones(11), 1.0,
                                    p0=np.full(3, 1.0 / 3.0))

    def test_probability_reward_stays_in_unit_interval(self, bike_chain):
        reward = (bike_chain.states[:, 0] >= 8).astype(float)
        res = imprecise_reward_bounds(bike_chain, reward, 2.0,
                                      maximize=True, n_steps=100)
        assert -1e-6 <= res.value <= 1.0 + 1e-6

    def test_uncertain_envelope_ordering(self, bike_chain):
        reward = bike_chain.densities()[:, 0]  # mean occupancy
        times, lo, hi = uncertain_reward_envelope(
            bike_chain, reward, np.linspace(0, 2, 5), resolution=4
        )
        assert np.all(lo <= hi + 1e-12)
        assert lo[0] == pytest.approx(hi[0])  # deterministic start

    def test_uncertain_envelope_degenerate_horizon(self, bike_chain):
        """Regression: ``t_eval[0] == t_eval[-1]`` used to crash inside
        ``solve_ivp``; it must return the constant ``p0 . r`` envelope."""
        reward = bike_chain.densities()[:, 0]
        p0 = bike_chain.initial_distribution
        times, lo, hi = uncertain_reward_envelope(
            bike_chain, reward, [1.5, 1.5], resolution=3
        )
        expected = float(p0 @ reward)
        np.testing.assert_allclose(lo, expected)
        np.testing.assert_allclose(hi, expected)
        assert times.shape == (2,)

    def test_uncertain_envelope_repeated_time(self, bike_chain):
        # A repeated time passes the non-decreasing check, so it must
        # read its time's sample (the integrator used to reject it as
        # not strictly monotone).
        reward = bike_chain.densities()[:, 0]
        times, lo, hi = uncertain_reward_envelope(
            bike_chain, reward, [0.0, 1.0, 1.0, 2.0], resolution=3)
        _, want_lo, want_hi = uncertain_reward_envelope(
            bike_chain, reward, [0.0, 1.0, 2.0], resolution=3)
        np.testing.assert_array_equal(times, [0.0, 1.0, 1.0, 2.0])
        np.testing.assert_array_equal(lo, want_lo[[0, 1, 1, 2]])
        np.testing.assert_array_equal(hi, want_hi[[0, 1, 1, 2]])

    def test_uncertain_envelope_descending_grid_rejected(self, bike_chain):
        """Regression: a descending grid used to integrate the master
        equation backward, silently exploding to astronomic values."""
        reward = bike_chain.densities()[:, 0]
        with pytest.raises(ValueError, match="non-decreasing"):
            uncertain_reward_envelope(
                bike_chain, reward, [2.0, 1.0, 0.0], resolution=3
            )

    def test_uncertain_envelope_reward_shape_validated(self, bike_chain):
        with pytest.raises(ValueError):
            uncertain_reward_envelope(bike_chain, np.ones(3),
                                      np.linspace(0, 1, 3))
        # A wrong-shaped p0 used to fail inside numpy's reshape, and a
        # NaN reward came back as a NaN envelope.
        with pytest.raises(ValueError, match="p0"):
            uncertain_reward_envelope(bike_chain, np.ones(11),
                                      np.linspace(0, 1, 3),
                                      p0=np.full(3, 1.0 / 3.0))
        reward = np.ones(11)
        reward[4] = np.nan
        with pytest.raises(ValueError, match="reward"):
            uncertain_reward_envelope(bike_chain, reward,
                                      np.linspace(0, 1, 3))

    @pytest.mark.parametrize("t_eval", [[0.0, np.nan], [0.0, 1.0, np.inf]],
                             ids=["nan", "inf"])
    def test_uncertain_envelope_non_finite_times_rejected(self, bike_chain,
                                                          t_eval):
        # Regression: these used to hang inside solve_ivp.
        reward = bike_chain.densities()[:, 0]
        with pytest.raises(ValueError, match="finite"):
            uncertain_reward_envelope(bike_chain, reward, t_eval,
                                      resolution=3)


class TestRewardBoundsMatchScalarSweep:
    """The exact bounds run as one lane of the lane engine per side; the
    scalar forward–backward sweep of ``reference_impls`` is the oracle."""

    @pytest.mark.parametrize("name, n_states", [
        ("bike-dtmc-reward", 9),
        ("sir-dtmc-reward", 28),
        ("autoscaler", 49),
        pytest.param("load-balancing-dtmc", 343, marks=pytest.mark.slow),
    ])
    def test_catalog_chains(self, name, n_states):
        chain, reward, horizon, n_steps = catalog_reward_problem(name)
        assert chain.n_states == n_states
        for maximize in (False, True):
            lane = imprecise_reward_bounds(chain, reward, horizon,
                                           maximize=maximize, n_steps=n_steps)
            scalar = ref.extremal_trajectory(
                ref.DenseKolmogorovSystem(chain), chain.initial_distribution,
                horizon,
                reward, maximize=maximize, n_steps=n_steps,
            )
            assert lane.iterations == scalar.iterations
            assert lane.converged == scalar.converged
            assert lane.value == pytest.approx(scalar.value, rel=1e-12)

    def test_343_state_lane_matches_phased_oracle(self, monkeypatch):
        # The lane engine's forward calls (at most one per iteration,
        # each lane from its first changed control interval) and sparse
        # costate products against the oracle's call per phase (every
        # pass from x0) and dense stage loop, with the oracle's Jacobian
        # budget below one step (one step per block).
        chain, reward, horizon, n_steps = catalog_reward_problem(
            "load-balancing-dtmc")
        monkeypatch.setattr(pontryagin, "_JACOBIAN_BLOCK_BYTES", 1 << 20)
        system = KolmogorovSystem(chain)
        dense = ref.DenseKolmogorovSystem(chain)
        for maximize in (False, True):
            spec = [(reward, maximize, horizon, n_steps)]
            lane, = extremal_trajectories_batch(
                system, chain.initial_distribution, spec)
            want, = ref.extremal_trajectories_batch(
                dense, chain.initial_distribution, spec)
            assert lane.value == want.value
            assert (lane.iterations, lane.converged) == \
                (want.iterations, want.converged)
            for name in ("states", "controls"):
                np.testing.assert_array_equal(getattr(lane, name),
                                              getattr(want, name))
            ref.assert_costates_close(lane.costates, want.costates)

    def test_sparse_costate_stays_in_budget(self):
        # The costate sweep multiplies by the sparse generator parts and
        # builds no dense Q(theta)^T: one dense Jacobian per stage and
        # interval would be 282 MB on the 343-state chain, and the dense
        # blocks of a byte-budgeted sweep peaked at 6.45 MB here.
        chain, reward, horizon, _ = catalog_reward_problem(
            "load-balancing-dtmc")
        assert chain.n_states == 343
        tracemalloc.start()
        try:
            imprecise_reward_bounds(chain, reward, horizon, n_steps=100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20
