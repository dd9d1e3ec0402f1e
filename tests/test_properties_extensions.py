"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_impls as ref
from repro.ctmc import IntervalDTMC
from repro.models import make_power_of_d_model

FAST = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

probs = st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False)
small_floats = st.floats(min_value=-5.0, max_value=5.0,
                         allow_nan=False, allow_infinity=False)


def random_interval_dtmc(data, n: int) -> IntervalDTMC:
    """Draw a consistent interval chain around a random stochastic matrix."""
    rows = []
    for _ in range(n):
        raw = np.array([data.draw(probs) + 1e-3 for _ in range(n)])
        rows.append(raw / raw.sum())
    center = np.array(rows)
    width = data.draw(st.floats(min_value=0.0, max_value=0.3))
    lower = np.clip(center - width, 0.0, 1.0)
    upper = np.clip(center + width, 0.0, 1.0)
    return IntervalDTMC(lower, upper)


def sparse_interval_dtmc(data, n: int) -> IntervalDTMC:
    """An interval chain whose rows have random supports: single-entry
    rows, full rows and masks in between."""
    lower = np.zeros((n, n))
    upper = np.zeros((n, n))
    for i in range(n):
        kind = data.draw(st.sampled_from(["single", "full", "mask"]))
        if kind == "full":
            mask = np.ones(n, dtype=bool)
        else:
            mask = np.zeros(n, dtype=bool)
            mask[data.draw(st.integers(0, n - 1))] = True
            if kind == "mask":
                mask |= np.array([data.draw(st.booleans()) for _ in range(n)])
        raw = np.array([data.draw(probs) + 1e-3 for _ in range(n)]) * mask
        center = raw / raw.sum()
        width = data.draw(st.floats(min_value=0.0, max_value=0.3))
        lower[i] = np.clip(center - width, 0.0, 1.0) * mask
        upper[i] = np.clip(center + width, 0.0, 1.0) * mask
    return IntervalDTMC(lower, upper)


class TestIntervalDTMCProperties:
    @FAST
    @given(data=st.data())
    def test_extreme_rows_are_distributions(self, data):
        n = data.draw(st.integers(2, 5))
        dtmc = random_interval_dtmc(data, n)
        reward = np.array([data.draw(small_floats) for _ in range(n)])
        rows = dtmc.extreme_rows_batch(reward)
        for row in range(n):
            p = rows[row]
            np.testing.assert_array_equal(p, ref.extreme_row(dtmc, row, reward))
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(p >= dtmc.lower[row] - 1e-12)
            assert np.all(p <= dtmc.upper[row] + 1e-12)

    @FAST
    @given(data=st.data())
    def test_sparse_support_rows_match_dense_oracle(self, data):
        """The support-slot kernel equals the one-row knapsack over all
        columns, ties in the reward included."""
        n = data.draw(st.integers(1, 7))
        dtmc = sparse_interval_dtmc(data, n)
        value = st.one_of(small_floats, st.sampled_from([-1.0, 0.0, 0.5]))
        rewards = np.array([[data.draw(value) for _ in range(n)]
                            for _ in range(2)])
        for maximize in (True, False):
            rows = dtmc.extreme_rows_batch(rewards, maximize=maximize)
            for k in range(2):
                np.testing.assert_array_equal(
                    rows[k], ref.extreme_rows(dtmc, rewards[k], maximize)
                )

    @FAST
    @given(data=st.data())
    def test_upper_dominates_lower_everywhere(self, data):
        n = data.draw(st.integers(2, 4))
        dtmc = random_interval_dtmc(data, n)
        reward = np.array([data.draw(small_floats) for _ in range(n)])
        steps = data.draw(st.integers(0, 5))
        lo, hi = dtmc.expectation_bounds(reward, steps)
        assert np.all(lo <= hi + 1e-9)

    @FAST
    @given(data=st.data())
    def test_operator_monotone(self, data):
        """r <= s pointwise implies T̄ r <= T̄ s pointwise."""
        n = data.draw(st.integers(2, 4))
        dtmc = random_interval_dtmc(data, n)
        r = np.array([data.draw(small_floats) for _ in range(n)])
        bump = np.array([abs(data.draw(small_floats)) for _ in range(n)])
        tr = dtmc.upper_operator(r)
        ts = dtmc.upper_operator(r + bump)
        assert np.all(tr <= ts + 1e-9)

    @FAST
    @given(data=st.data())
    def test_operator_bounded_by_reward_range(self, data):
        n = data.draw(st.integers(2, 4))
        dtmc = random_interval_dtmc(data, n)
        r = np.array([data.draw(small_floats) for _ in range(n)])
        out = dtmc.upper_operator(r)
        assert np.all(out <= r.max() + 1e-9)
        assert np.all(out >= r.min() - 1e-9)

    @FAST
    @given(data=st.data())
    def test_constant_shift_equivariance(self, data):
        """T̄ (r + c) = T̄ r + c for constants c."""
        n = data.draw(st.integers(2, 4))
        dtmc = random_interval_dtmc(data, n)
        r = np.array([data.draw(small_floats) for _ in range(n)])
        c = data.draw(small_floats)
        np.testing.assert_allclose(
            dtmc.upper_operator(r + c), dtmc.upper_operator(r) + c, atol=1e-9
        )


class TestLoadBalancerProperties:
    @FAST
    @given(lam=st.floats(min_value=0.7, max_value=0.95),
           frac=st.floats(min_value=0.05, max_value=0.95))
    def test_drift_preserves_tail_ordering_margins(self, lam, frac):
        """On monotone tails the drift keeps x in [0, 1]^K at the faces."""
        model = make_power_of_d_model(buffer_depth=5)
        x = np.array([frac ** (2**k - 1) for k in range(1, 6)])
        drift = model.drift(x, [lam])
        assert np.all(np.isfinite(drift))
        # At x_k = 0 with x_{k+1} = 0 the drift is non-negative.
        x_zero = x.copy()
        x_zero[-1] = 0.0
        assert model.drift(x_zero, [lam])[-1] >= -1e-12

    @FAST
    @given(lam=st.floats(min_value=0.7, max_value=0.95))
    def test_affine_identity_random_states(self, lam):
        model = make_power_of_d_model(buffer_depth=5)
        rng = np.random.default_rng(int(lam * 1e6) % 2**31)
        x = np.sort(rng.uniform(0, 1, size=5))[::-1]
        g0, big_g = model.affine_parts(x)
        np.testing.assert_allclose(
            g0 + big_g @ [lam], model.drift(x, [lam]), atol=1e-10
        )
