"""The population rate kernel: its construction-time contract, its input
stacks, and differential tests against the per-row oracles.

``PopulationModel`` checks every transition rate once, when it is built,
on a fixed batch of distinct rows; ``drift_batch`` and
``transition_rates_batch`` then evaluate all rates as one ``(K, n)``
stack.  The oracles ``ref.drift_batch`` / ``ref.transition_rates_batch``
evaluate one rate per row and transition, in a loop over transitions,
and the library must equal them bit for bit.
"""

import numpy as np
import pytest

import reference_impls as ref
from repro.models import make_sir_model
from repro.ode.batch import _DP_A, _DP_B, _DP_E, _dp_stage_sum
from repro.params import Box, Interval, Singleton
from repro.population import PopulationModel, Transition
from repro.scenarios import list_scenarios


def _catalog_models():
    """One (name, model, x0) per distinct registered model."""
    seen = {}
    for spec in list_scenarios():
        key = (spec.factory_ref, spec.model_kwargs)
        if key not in seen:
            seen[key] = (spec.name, spec.build_model(), np.asarray(spec.x0))
    return list(seen.values())


CATALOG = _catalog_models()


def assert_same_bits(got, want):
    """Equal shape, dtype and bytes: NaN payloads and zero signs too."""
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


def assert_same_rates(got, want):
    """Equal shape, dtype and values.

    The oracle clamps with ``max(rate, 0.0)``, which keeps a ``-0.0``
    rate, and the kernel with ``np.maximum``, which gives ``+0.0``; both
    add the same into any sum, so the sign of a zero rate is not part of
    the contract.
    """
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got, want)


def _inside_rows(model, rng, n):
    """``n`` seeded states inside the model's bounds (unit box if none)."""
    if model.state_lower is None:
        return rng.random((n, model.dim))
    span = model.state_upper - model.state_lower
    return model.state_lower + rng.random((n, model.dim)) * span


def _stacks(model, x0, case):
    rng = np.random.default_rng(2016)
    if case == "seeded":
        return _inside_rows(model, rng, 9), model.theta_set.sample(rng, 9)
    if case == "single-row":
        return x0[None, :], model.theta_set.sample(rng, 1)
    if case == "duplicate-rows":
        return np.tile(x0, (5, 1)), np.tile(model.theta_set.center(), (5, 1))
    if case == "one-row-theta":
        return _inside_rows(model, rng, 6), model.theta_set.sample(rng, 1)
    if case == "boundary":
        # Rows on and just past the bounds, where rates can be negative
        # (clamped in transition_rates_batch, raw in drift_batch).
        lower = model.state_lower if model.state_lower is not None \
            else np.zeros(model.dim)
        upper = model.state_upper if model.state_upper is not None \
            else np.ones(model.dim)
        rows = np.stack([lower, upper, lower - 1e-3, upper + 1e-3])
        return rows, model.theta_set.corners()[:1]
    raise AssertionError(case)


CASES = ["seeded", "single-row", "duplicate-rows", "one-row-theta",
         "boundary"]


class TestDifferential:
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("name, model, x0", CATALOG,
                             ids=[entry[0] for entry in CATALOG])
    def test_drift_batch_equals_oracle(self, name, model, x0, case):
        x, theta = _stacks(model, x0, case)
        assert_same_bits(model.drift_batch(x, theta),
                         ref.drift_batch(model, x, theta))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("name, model, x0", CATALOG,
                             ids=[entry[0] for entry in CATALOG])
    def test_transition_rates_batch_equals_oracle(self, name, model, x0,
                                                  case):
        x, theta = _stacks(model, x0, case)
        got = model.transition_rates_batch(x, theta)
        assert got.flags.c_contiguous
        assert_same_rates(got, ref.transition_rates_batch(model, x, theta))

    @pytest.mark.parametrize("name, model, x0", CATALOG,
                             ids=[entry[0] for entry in CATALOG])
    def test_one_row_is_the_scalar_drift(self, name, model, x0):
        theta = model.theta_set.center()
        assert_same_bits(model.drift_batch(x0, theta)[0],
                         model.drift(x0, theta))

    def test_transitions_add_in_declaration_order(self):
        # Float addition is not associative: 1 + 1e16 - 1e16 is 0 in
        # declaration order and 1 in reverse.  (A coordinate that only
        # two transitions touch sums the same either way.)
        model = PopulationModel(
            "cancel", ("a",),
            [Transition("small", [1.0], lambda x, th: th[0] * x[0]),
             Transition("big_in", [1.0], lambda x, th: 1e16),
             Transition("big_out", [-1.0], lambda x, th: 1e16)],
            Interval(0.5, 2.0),
        )
        x, theta = np.array([[0.5], [1.0]]), np.array([[2.0], [1.0]])
        got = model.drift_batch(x, theta)
        assert_same_bits(got, ref.drift_batch(model, x, theta))
        np.testing.assert_array_equal(got, [[0.0], [0.0]])

    def test_signed_zero_of_an_empty_sum_is_kept(self):
        # 0.0 + (-0.0) is +0.0: the reduction starts from 0.0 like the
        # loop's zeros, so a lone negative-zero product stays +0.0.
        model = PopulationModel(
            "neg-zero", ("a", "b"),
            [Transition("t", [1.0, -1.0], lambda x, th: th[0] * x[0])],
            Interval(0.0, 1.0),
        )
        x, theta = np.array([[0.0, 0.5]]), np.array([[0.5]])
        got = model.drift_batch(x, theta)
        assert_same_bits(got, ref.drift_batch(model, x, theta))
        assert not np.signbit(got).any()


def _model(rate, name="probe", theta_set=None, dim=2, **kwargs):
    change = np.zeros(dim)
    change[0] = 1.0
    return PopulationModel(
        "contract", tuple(f"x{k}" for k in range(dim)),
        [Transition("drain", -change, lambda x, th: x[0]),
         Transition(name, change, rate)],
        theta_set or Interval(0.5, 2.0), **kwargs,
    )


def _raising(x, th):
    raise RuntimeError("no rate table for this state")


SCALAR_ONLY_RATES = {
    "max": lambda x, th: max(x[0], 0.0),
    "float": lambda x, th: float(x[0]) * th[0],
    "if": lambda x, th: th[0] if x[0] > 0.0 else 0.0,
    "sum": lambda x, th: 0.3 * np.sum(x),
    "mean": lambda x, th: th[0] * np.mean(x),
    "partial-sum": lambda x, th: x[0] * np.sum(x),
    "column": lambda x, th: x[:1].T,
    "raising": _raising,
}


class TestRateContract:
    @pytest.mark.parametrize("rate", list(SCALAR_ONLY_RATES.values()),
                             ids=list(SCALAR_ONLY_RATES))
    def test_scalar_only_rate_raises_at_construction(self, rate):
        with pytest.raises(ValueError) as info:
            _model(rate, name="bad_rate")
        message = str(info.value)
        assert "'bad_rate'" in message
        assert "coordinate-wise array arithmetic" in message
        assert "'drain'" not in message

    @pytest.mark.parametrize("theta_set", [
        Interval(0.5, 2.0), Singleton([1.5]),
        Box([("a", 0.1, 0.2), ("b", 1.0, 3.0)]),
    ], ids=["interval", "singleton", "box"])
    def test_pooling_caught_whatever_theta(self, theta_set):
        # The probe rows differ in every state coordinate, so pooling
        # shows even when Theta is a single point.
        with pytest.raises(ValueError, match="'bad_rate'"):
            _model(lambda x, th: th[0] * np.mean(x), name="bad_rate",
                   theta_set=theta_set)

    def test_pooling_over_theta_caught(self):
        with pytest.raises(ValueError, match="'bad_rate'"):
            _model(lambda x, th: x[0] * np.mean(th), name="bad_rate")

    def test_probe_rows_lie_in_the_declared_bounds(self):
        seen = []

        def rate(x, th):
            seen.append(np.array(x, dtype=float))
            return np.sqrt(x[0] - 3.0) + th[0]

        _model(rate, dim=1, state_bounds=([3.0], [4.0]))
        batch = seen[0]
        assert batch.shape == (1, 3)
        assert np.all((batch > 3.0) & (batch < 4.0))
        assert np.unique(batch).size == 3

    def test_probe_rows_lie_in_the_open_unit_box(self):
        seen = []

        def rate(x, th):
            seen.append((np.array(x, dtype=float),
                         np.array(th, dtype=float)))
            return x[0] * th[0]

        _model(rate, dim=3, theta_set=Box([("a", 0.0, 1.0),
                                           ("b", 5.0, 6.0)]))
        x, theta = seen[0]
        assert x.shape == (3, 3) and theta.shape == (2, 3)
        assert np.all((x > 0.0) & (x < 1.0))
        for row in x:
            assert np.unique(row).size == 3
        assert np.all((theta[0] >= 0.0) & (theta[0] <= 1.0))
        assert np.all((theta[1] >= 5.0) & (theta[1] <= 6.0))
        for row in theta:
            assert np.unique(row).size == 3

    def test_constant_rate_broadcasts(self):
        model = _model(lambda x, th: 1.25)
        x = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        theta = np.array([[0.7], [1.0], [1.9]])
        rates = model.transition_rates_batch(x, theta)
        np.testing.assert_array_equal(rates[:, 1], [1.25, 1.25, 1.25])
        assert_same_rates(rates, ref.transition_rates_batch(model, x, theta))
        assert_same_bits(model.drift_batch(x, theta),
                         ref.drift_batch(model, x, theta))
        for r in range(3):
            assert_same_bits(model.drift_batch(x[r], theta[r])[0],
                             model.drift(x[r], theta[r]))

    def test_constant_rate_on_an_empty_batch(self):
        model = _model(lambda x, th: 2)
        assert model.drift_batch(np.empty((0, 2)), [1.0]).shape == (0, 2)
        assert model.transition_rates_batch(np.empty((0, 2)),
                                            [1.0]).shape == (0, 2)

    def test_nan_rate_raises_in_transition_rates_batch(self):
        model = _model(lambda x, th: np.where(x[0] > 2.0, np.nan, x[0]),
                       name="nan_rate")
        x = np.array([[0.1, 0.2], [3.0, 0.4]])
        with pytest.raises(ValueError,
                           match="'nan_rate': rate is NaN for some batch"):
            model.transition_rates_batch(x, [1.0])
        # The drift keeps raw values, NaN included.
        assert np.isnan(model.drift_batch(x, [1.0])[1, 0])

    def test_constant_nan_rate_raises_in_transition_rates_batch(self):
        model = _model(lambda x, th: float("nan"), name="nan_rate")
        with pytest.raises(ValueError, match="'nan_rate'"):
            model.transition_rates_batch([[0.1, 0.2]], [1.0])


#: The defects these inputs used to hit on the 2-D SIR model, per call.
SIR_STATES = np.array([[0.7, 0.3], [0.5, 0.1], [0.2, 0.4], [0.6, 0.2],
                       [0.1, 0.1], [0.3, 0.6]])


def _warm_sir():
    model = make_sir_model()
    model.drift_batch(SIR_STATES, np.full((6, 1), 3.0))
    model.transition_rates_batch(SIR_STATES, np.full((6, 1), 3.0))
    model.affine_parts_batch(SIR_STATES[:2])
    model.jacobian_x_batch(SIR_STATES[:2], np.full((2, 1), 3.0))
    return model


@pytest.fixture(params=["fresh", "warm"])
def sir(request):
    return make_sir_model() if request.param == "fresh" else _warm_sir()


KERNELS = ["drift_batch", "transition_rates_batch"]

#: Stacks no batch kernel takes, with the defects they used to hit.
MISSHAPEN = [
    (SIR_STATES, np.linspace(1.0, 6.0, 6)),
    (np.hstack([SIR_STATES, SIR_STATES[:, :1]]), np.full((6, 1), 5.0)),
    (SIR_STATES[:, :1], np.full((6, 1), 5.0)),
    (SIR_STATES, np.full((4, 1), 5.0)),
    (SIR_STATES, np.full((6, 2), 5.0)),
    (SIR_STATES[None], np.full((6, 1), 5.0)),
    (0.5, [5.0]),
    (SIR_STATES[0], np.full((6, 1), 5.0)),
]
MISSHAPEN_IDS = ["1-D-per-row-theta", "(6,3)-states", "(6,1)-states",
                 "theta-row-count", "theta-width", "3-D-states", "0-D-state",
                 "one-state-many-thetas"]


class TestInputStacks:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("theta", [[[5.0]], [5.0], np.array([5.0])],
                             ids=["(1,p)", "list-(p,)", "(p,)"])
    def test_one_theta_row_applies_to_every_row(self, sir, kernel, theta):
        # [[5.0]] with six states raised IndexError on a fresh model and
        # broadcast once the model was warm.
        got = getattr(sir, kernel)(SIR_STATES, theta)
        want = getattr(sir, kernel)(SIR_STATES, np.full((6, 1), 5.0))
        assert_same_bits(got, want)
        oracle = getattr(ref, kernel)(sir, SIR_STATES, np.full((6, 1), 5.0))
        assert_same_rates(got, oracle)

    @pytest.mark.parametrize("kernel", KERNELS + ["jacobian_x_batch"])
    @pytest.mark.parametrize("x, theta", MISSHAPEN, ids=MISSHAPEN_IDS)
    def test_misshapen_stacks_raise(self, sir, kernel, x, theta):
        # A 1-D theta of per-row values silently used theta[0] on every
        # row, and a third state column was ignored (by jacobian_x_batch
        # too, which returned (6, 2, 2) Jacobians for (6, 3) states).
        with pytest.raises(ValueError) as info:
            getattr(sir, kernel)(x, theta)
        message = str(info.value)
        assert f"states of shape {np.shape(x)}" in message
        assert f"parameters of shape {np.shape(theta)}" in message

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("x, theta", [
        ([[0.7, 0.3], [0.2, 0.4]], [[2.0], [5.0]]),
        (np.array([0.7, 0.3]), np.array([2.0])),
        (np.array([[1, 0], [0, 1]]), np.array([[2], [3]])),
        (np.array([[0.7, 0.3]], dtype=np.float32), [[2.0]]),
        (np.asfortranarray([[0.7, 0.3], [0.2, 0.4]]), [[2.0], [5.0]]),
    ], ids=["lists", "1-D", "int", "float32", "fortran"])
    def test_any_array_like(self, sir, kernel, x, theta):
        got = getattr(sir, kernel)(x, theta)
        assert got.dtype == np.float64
        assert_same_rates(got, getattr(ref, kernel)(sir, x, theta))


class TestJacobianAndAffineStacks:
    """``jacobian_x_batch`` and ``affine_parts_batch`` take the stacks of
    the rate kernel, on every call: the costate sweep's transfer
    matrices and the Hamiltonian re-maximisation rely on it."""

    @pytest.mark.parametrize("theta", [[[5.0]], [5.0], np.array([5.0])],
                             ids=["(1,p)", "list-(p,)", "(p,)"])
    def test_one_theta_row_applies_to_every_row(self, sir, theta):
        # [[5.0]] with six states raised "theta batch has 1 rows for 6
        # states" although drift_batch applies it to every row.
        got = sir.jacobian_x_batch(SIR_STATES, theta)
        want = sir.jacobian_x_batch(SIR_STATES, np.full((6, 1), 5.0))
        assert got.shape == (6, 2, 2)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("x", [
        np.hstack([SIR_STATES, SIR_STATES[:, :1]]), SIR_STATES[:, :1],
        SIR_STATES[None], 0.5,
    ], ids=["(6,3)-states", "(6,1)-states", "3-D-states", "0-D-state"])
    def test_affine_parts_misshapen_states_raise(self, sir, x):
        # After one 2-row call a (6, 3) stack returned a (6, 3) g0; a
        # fresh model raised on the kernel's output shape instead.
        with pytest.raises(ValueError) as info:
            sir.affine_parts_batch(x)
        assert f"states of shape {np.shape(x)}" in str(info.value)

    def test_affine_parts_take_one_state(self, sir):
        g0s, big_gs = sir.affine_parts_batch(SIR_STATES)
        g0, big_g = sir.affine_parts(SIR_STATES[3])
        assert_same_bits(g0, g0s[3])
        assert_same_bits(big_g, big_gs[3])

    def test_read_only_jacobians_are_copied(self):
        # The costate sweep builds its transfer matrices in the returned
        # stack, so a kernel's read-only output is handed out as a copy.
        base = make_sir_model()
        jac = np.array([[-1.0, 0.5], [0.25, -2.0]])
        model = PopulationModel(
            "ro", base.state_names, base.transitions, base.theta_set,
            drift_jacobian_batch=lambda xs, ths: np.broadcast_to(
                jac, (xs.shape[0], 2, 2)),
        )
        got = model.jacobian_x_batch(SIR_STATES, [5.0])
        assert got.flags.writeable
        np.testing.assert_array_equal(got, np.broadcast_to(jac, (6, 2, 2)))


class TestScalarDrift:
    @pytest.mark.parametrize("x, theta", [
        ([0.7, 0.3, 0.9], [2.0]), ([0.7, 0.3], [2.0, 9.0]),
        ([[0.7, 0.3]], [2.0]), ([0.7, 0.3], [[2.0]]), ([0.7], [2.0]),
        ([0.7, 0.3], 2.0),
    ], ids=["extra-coordinate", "extra-parameter", "(1,d)-state",
            "(1,p)-parameters", "short-state", "0-D-parameter"])
    def test_misshapen_inputs_raise(self, x, theta):
        # The first two returned the drift at (0.7, 0.3; theta = 2),
        # silently dropping the extra coordinate or parameter.
        with pytest.raises(ValueError) as info:
            make_sir_model().drift(x, theta)
        message = str(info.value)
        assert f"state of shape {np.shape(x)}" in message
        assert f"parameters of shape {np.shape(theta)}" in message

    def test_any_array_like(self):
        model = make_sir_model()
        want = model.drift(np.array([0.7, 0.3]), np.array([2.0]))
        assert_same_bits(model.drift([0.7, 0.3], [2.0]), want)
        assert_same_bits(model.drift((0.7, 0.3), np.array([2])), want)


class TestStageSum:
    @pytest.mark.parametrize("coeffs", _DP_A + [_DP_B, _DP_E],
                             ids=[f"a{i + 1}" for i in range(len(_DP_A))]
                             + ["b", "e"])
    @pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (17, 5), (64, 3)])
    def test_equals_tensordot(self, coeffs, n, d):
        rng = np.random.default_rng(n * 31 + d)
        stack = rng.normal(size=(7, n, d)) * 10.0 ** rng.integers(
            -6, 7, size=(7, n, d))
        s = coeffs.shape[0]
        stages = stack[:s]
        got = _dp_stage_sum(coeffs.reshape(1, s), stages.reshape(s, -1), n, d)
        assert_same_bits(got, np.tensordot(coeffs, stages, axes=(0, 0)))
