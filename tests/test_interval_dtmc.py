"""Tests for interval-probability DTMCs (repro.ctmc.interval_dtmc)."""

import numpy as np
import pytest

import reference_impls as ref
from repro.ctmc import ImpreciseCTMC, IntervalDTMC, imprecise_reward_bounds
from repro.models import make_bike_station_model


def extreme_row(dtmc, row, reward, maximize=True):
    """Row ``row`` of the batched knapsack, pinned to the one-row oracle."""
    p = dtmc.extreme_rows_batch(np.asarray(reward, dtype=float),
                                maximize=maximize)[row]
    np.testing.assert_array_equal(p, ref.extreme_row(dtmc, row, reward,
                                                     maximize))
    return p


def two_state_dtmc(width=0.1):
    """2-state chain with interval self-loop probabilities."""
    lower = np.array([[0.7 - width, 0.3 - width],
                      [0.4 - width, 0.6 - width]])
    upper = np.array([[0.7 + width, 0.3 + width],
                      [0.4 + width, 0.6 + width]])
    return IntervalDTMC(lower, upper)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            IntervalDTMC(np.zeros((2, 3)), np.ones((2, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntervalDTMC(np.zeros((2, 2)), np.ones((3, 3)))

    def test_bounds_order_rejected(self):
        with pytest.raises(ValueError):
            IntervalDTMC(np.full((2, 2), 0.6), np.full((2, 2), 0.4))

    def test_out_of_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalDTMC(np.full((2, 2), -0.2), np.full((2, 2), 0.5))

    def test_empty_credal_set_rejected(self):
        # Row sums of upper bounds below 1: no distribution fits.
        with pytest.raises(ValueError):
            IntervalDTMC(np.zeros((2, 2)), np.full((2, 2), 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["lower", "upper", "both"])
    def test_non_finite_bounds_rejected(self, bad, side):
        # NaN passes every ordering check, so a NaN row used to be
        # accepted and leak NaN out of the operators.
        clean = np.array([[0.5, 0.5], [0.5, 0.5]])
        dirty = np.array([[bad, bad], [0.5, 0.5]])
        lower = dirty if side in ("lower", "both") else clean
        upper = dirty if side in ("upper", "both") else clean
        with pytest.raises(ValueError, match="finite"):
            IntervalDTMC(lower, upper)

    def test_precise_chain_accepted(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        dtmc = IntervalDTMC(p, p)
        np.testing.assert_allclose(extreme_row(dtmc, 0, [1.0, 0.0]), p[0])

    def test_bounds_are_read_only(self):
        # The per-row support tables are built from the bounds once.
        dtmc = two_state_dtmc()
        with pytest.raises(ValueError, match="read-only"):
            dtmc.lower[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dtmc.upper[0, 1] = 1.0


class TestRowOptimisation:
    def test_extreme_row_is_distribution(self):
        dtmc = two_state_dtmc()
        for row in range(2):
            for reward in ([1.0, 0.0], [0.0, 1.0], [0.3, -0.7]):
                p = extreme_row(dtmc, row, reward)
                assert p.sum() == pytest.approx(1.0)
                assert np.all(p >= dtmc.lower[row] - 1e-12)
                assert np.all(p <= dtmc.upper[row] + 1e-12)

    def test_extreme_row_maximises_over_samples(self, rng):
        dtmc = two_state_dtmc()
        reward = np.array([0.9, -0.4])
        best = float(extreme_row(dtmc, 0, reward) @ reward)
        # Random admissible rows never beat the knapsack optimum.
        for _ in range(200):
            p = rng.uniform(dtmc.lower[0], dtmc.upper[0])
            total = p.sum()
            if not 0.999 <= total <= 1.001:
                continue
            p = p / total
            if np.any(p < dtmc.lower[0] - 1e-9) or np.any(p > dtmc.upper[0] + 1e-9):
                continue
            assert p @ reward <= best + 1e-9

    def test_reward_shape_validated(self):
        with pytest.raises(ValueError):
            extreme_row(two_state_dtmc(), 0, [1.0, 2.0, 3.0])


class TestToleranceRenormalization:
    """Rows admitted under the constructor's 1e-9 feasibility tolerance
    must still come back stochastic (regression: negative slack was
    silently kept, returning a super-stochastic row)."""

    def test_super_stochastic_lower_sum_renormalized(self):
        lower = np.array([[0.6, 0.4 + 5e-10], [0.3, 0.7]])
        upper = np.array([[0.7, 0.5], [0.4, 0.8]])
        dtmc = IntervalDTMC(lower, upper)
        for maximize in (True, False):
            p = ref.extreme_row(dtmc, 0, [1.0, 0.0], maximize=maximize)
            assert p.sum() == pytest.approx(1.0, abs=1e-14)
            batch = dtmc.extreme_rows_batch(np.array([1.0, 0.0]),
                                            maximize=maximize)
            np.testing.assert_array_equal(batch[0], p)

    def test_sub_stochastic_upper_sum_renormalized(self):
        lower = np.array([[0.2, 0.2], [0.3, 0.3]])
        upper = np.array([[0.5, 0.5 - 5e-10], [0.6, 0.6]])
        dtmc = IntervalDTMC(lower, upper)
        p = extreme_row(dtmc, 0, [1.0, 0.0])
        assert p.sum() == pytest.approx(1.0, abs=1e-14)

    def test_exactly_feasible_rows_untouched(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        dtmc = IntervalDTMC(p, p)
        np.testing.assert_array_equal(extreme_row(dtmc, 0, [1.0, 0.0]), p[0])


class TestExpectations:
    def test_zero_steps_identity(self):
        dtmc = two_state_dtmc()
        reward = np.array([1.0, 0.0])
        np.testing.assert_allclose(dtmc.upper_expectation(reward, 0), reward)

    def test_upper_dominates_lower(self):
        dtmc = two_state_dtmc()
        reward = np.array([1.0, -1.0])
        for steps in (1, 3, 10):
            lo, hi = dtmc.expectation_bounds(reward, steps)
            assert np.all(lo <= hi + 1e-12)

    def test_precise_chain_matches_matrix_power(self):
        p = np.array([[0.5, 0.5], [0.2, 0.8]])
        dtmc = IntervalDTMC(p, p)
        reward = np.array([1.0, 0.0])
        expected = np.linalg.matrix_power(p, 4) @ reward
        np.testing.assert_allclose(dtmc.upper_expectation(reward, 4),
                                   expected, atol=1e-12)
        np.testing.assert_allclose(dtmc.lower_expectation(reward, 4),
                                   expected, atol=1e-12)

    def test_width_grows_with_interval_width(self):
        reward = np.array([1.0, 0.0])
        widths = []
        for w in (0.02, 0.1):
            dtmc = two_state_dtmc(width=w)
            lo, hi = dtmc.expectation_bounds(reward, 5)
            widths.append(float(np.max(hi - lo)))
        assert widths[1] > widths[0]

    def test_bounded_reward_stays_bounded(self):
        dtmc = two_state_dtmc()
        reward = np.array([1.0, 0.0])
        hi = dtmc.upper_expectation(reward, 20)
        lo = dtmc.lower_expectation(reward, 20)
        assert np.all(hi <= 1.0 + 1e-9)
        assert np.all(lo >= -1e-9)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            two_state_dtmc().upper_expectation([1.0, 0.0], -1)


class TestStationary:
    def test_zero_max_iter_raises_value_error(self):
        # Regression: used to die with UnboundLocalError on `spread`.
        with pytest.raises(ValueError, match="max_iter"):
            two_state_dtmc().stationary_expectation_bounds(
                [1.0, 0.0], max_iter=0
            )

    def test_failure_message_reports_final_iterate(self):
        # A deterministic 2-cycle never flattens; the error must report
        # the final iterate's spread and step size, not a stale value.
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        dtmc = IntervalDTMC(p, p)
        with pytest.raises(RuntimeError) as excinfo:
            dtmc.stationary_expectation_bounds([1.0, 0.0], max_iter=5)
        message = str(excinfo.value)
        assert "did not flatten within 5 steps" in message
        assert "final spread 1.00e+00" in message
        assert "last step moved 1.00e+00" in message

    def test_regular_chain_bounds_ordered(self):
        dtmc = two_state_dtmc()
        lo, hi = dtmc.stationary_expectation_bounds([1.0, 0.0])
        assert lo <= hi
        assert ref.stationary_expectation_bounds(dtmc, [1.0, 0.0]) == (lo, hi)


class TestUniformizedBounds:
    def test_zero_horizon_is_reward_range(self):
        dtmc = two_state_dtmc()
        reward = np.array([1.0, 0.0])
        lo, hi = dtmc.uniformized_bounds(reward, 0.0, rate=10.0)
        np.testing.assert_allclose(lo, reward, atol=1e-12)
        np.testing.assert_allclose(hi, reward, atol=1e-12)

    def test_bounds_ordered_and_within_reward_range(self):
        dtmc = two_state_dtmc()
        reward = np.array([1.0, -1.0])
        lo, hi = dtmc.uniformized_bounds(reward, 2.0, rate=5.0)
        assert np.all(lo <= hi + 1e-12)
        assert np.all(hi <= 1.0 + 1e-9) and np.all(lo >= -1.0 - 1e-9)

    def test_invalid_arguments_rejected(self):
        dtmc = two_state_dtmc()
        with pytest.raises(ValueError):
            dtmc.uniformized_bounds([1.0, 0.0], -1.0, rate=5.0)
        with pytest.raises(ValueError):
            dtmc.uniformized_bounds([1.0, 0.0], 1.0, rate=0.0)
        # NaN passes both sign checks; it used to surface as an opaque
        # "cannot convert float NaN to integer" from the term count.
        for horizon, rate in ((np.nan, 5.0), (np.inf, 5.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="finite"):
                dtmc.uniformized_bounds([1.0, 0.0], horizon, rate=rate)


class TestNonFiniteRewards:
    @pytest.fixture(scope="class")
    def bike_dtmc(self):
        chain = ImpreciseCTMC(make_bike_station_model().instantiate(8, [0.5]))
        return IntervalDTMC.from_imprecise_ctmc(chain)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [
        "upper_operator", "expectation_bounds", "uniformized_bounds",
        "stationary_expectation_bounds",
    ])
    def test_rejected_before_iterating(self, bike_dtmc, entry, bad):
        # NaN used to come back as NaN bounds, inf as NaN through
        # inf * 0 in the contraction, and the stationary iteration
        # blamed a periodic or reducible chain.
        dtmc, rate = bike_dtmc
        reward = np.linspace(0.0, 1.0, dtmc.n_states)
        reward[3] = bad
        calls = {
            "upper_operator": lambda: dtmc.upper_operator(reward),
            "expectation_bounds": lambda: dtmc.expectation_bounds(reward, 5),
            "uniformized_bounds":
                lambda: dtmc.uniformized_bounds(reward, 1.0, rate),
            "stationary_expectation_bounds":
                lambda: dtmc.stationary_expectation_bounds(reward),
        }
        with pytest.raises(ValueError, match="rewards must be finite"):
            calls[entry]()


class TestUniformization:
    @pytest.fixture(scope="class")
    def bike_chain(self):
        model = make_bike_station_model()
        return ImpreciseCTMC(model.instantiate(8, [0.5]))

    def test_roundtrip_shapes(self, bike_chain):
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(bike_chain)
        assert dtmc.n_states == bike_chain.n_states
        assert rate > 0

    def test_rows_contain_corner_matrices(self, bike_chain):
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(bike_chain)
        for theta in bike_chain.model.theta_set.corners():
            p = (np.eye(bike_chain.n_states)
                 + bike_chain.generator(theta).toarray() / rate)
            assert np.all(p >= dtmc.lower - 1e-12)
            assert np.all(p <= dtmc.upper + 1e-12)

    def test_conservative_vs_exact_kolmogorov(self, bike_chain):
        """The entry-wise interval relaxation must bracket the exact
        imprecise-CTMC bound (it forgets the theta coupling)."""
        reward = (bike_chain.states[:, 0] == 0).astype(float)
        horizon = 2.0
        exact = imprecise_reward_bounds(bike_chain, reward, horizon,
                                        maximize=True, n_steps=150)
        dtmc, rate = IntervalDTMC.from_imprecise_ctmc(bike_chain)
        steps = int(np.ceil(horizon * rate))
        relaxed = dtmc.upper_expectation(reward, steps)
        # Starting state is row 0 of the enumeration.
        assert relaxed[0] >= exact.value - 5e-3

    def test_invalid_rate_rejected(self, bike_chain):
        with pytest.raises(ValueError):
            IntervalDTMC.from_imprecise_ctmc(bike_chain,
                                             uniformization_rate=-1.0)

    def test_dense_generator_chain_accepted(self, bike_chain):
        """Regression: duck-typed chains returning dense ndarrays used
        to crash on the assumed ``.toarray()``."""

        class DenseChain:
            model = bike_chain.model
            states = bike_chain.states
            n_states = bike_chain.n_states

            @staticmethod
            def generator(theta):
                return bike_chain.generator(theta).toarray()

        dense_dtmc, dense_rate = IntervalDTMC.from_imprecise_ctmc(DenseChain())
        sparse_dtmc, sparse_rate = IntervalDTMC.from_imprecise_ctmc(bike_chain)
        assert dense_rate == sparse_rate
        np.testing.assert_array_equal(dense_dtmc.lower, sparse_dtmc.lower)
        np.testing.assert_array_equal(dense_dtmc.upper, sparse_dtmc.upper)
