"""The one SSA kernel against the scalar direct-method oracle.

``tests/reference_impls.py`` keeps the scalar Gillespie loop as the
oracle.  Two contracts pin :func:`repro.engine.simulate_ensemble` to it:

- **one row is the direct method, bit for bit** — a one-row ensemble
  and its view :func:`repro.simulation.simulate` consume the generator
  exactly as the oracle does, so for the same generator they return the
  oracle's states, sampled parameters and event counts, on every
  registered model and every policy class;
- **an ensemble has the oracle's law** — the rows of a larger ensemble
  share one generator, so they are compared with a loop of oracle runs
  (replication ``r`` seeded ``seed + r``) through ensemble statistics.
  With fixed seeds these tests are deterministic, and the seeds are
  chosen so the checks sit far from their thresholds:

  - ensemble mean and std paths agree within CLT-scale tolerances
    (standard errors of the corresponding estimators, with a
    lattice-step floor);
  - the final-state clouds agree under a two-sample Kolmogorov–Smirnov
    test per coordinate (p > 0.01);

  for the paper's SIR model (constant, hysteresis and random-jump
  policies — the last two are exactly the Figure 6 environments) and
  the power-of-``d``-choices load balancer (higher-dimensional state
  with boundary-disabled events, stressing the per-row masking of the
  batched rate evaluator).
"""

import numpy as np
import pytest
from scipy.stats import ks_2samp

import reference_impls as ref
from repro import simulation
from repro.engine import simulate_ensemble
from repro.models import make_power_of_d_model, make_sir_model
from repro.params import Interval
from repro.population import PopulationModel, Transition
from repro.scenarios import list_scenarios
from repro.simulation import ConstantPolicy, simulate


def run_both_engines(population, make, t_final, n_runs, seed, n_samples=21):
    """An ensemble under the library policy ``make(repro.simulation)``
    and oracle runs under its scalar twin ``make(ref)``."""
    vec = simulate_ensemble(population, make(simulation), t_final,
                            n_runs=n_runs, seed=seed, n_samples=n_samples)
    sca = ref.simulate_runs(population, make(ref), t_final,
                            n_runs=n_runs, seed=seed, n_samples=n_samples)
    return vec, sca


def assert_clt_equivalent(vec, sca, n_runs, population_size):
    """Mean/std paths agree within CLT-scale standard errors."""
    floor = 3.0 / population_size  # lattice resolution
    se_mean = np.sqrt(vec.std() ** 2 + sca.std() ** 2) / np.sqrt(n_runs)
    mean_gap = np.abs(vec.mean() - sca.mean())
    np.testing.assert_array_less(mean_gap, 6.0 * se_mean + floor)

    se_std = (vec.std() + sca.std()) / (2 * np.sqrt(2.0 * (n_runs - 1)))
    std_gap = np.abs(vec.std() - sca.std())
    np.testing.assert_array_less(std_gap, 6.0 * se_std + floor)


def assert_ks_equivalent(vec, sca, alpha=0.01):
    """Final-state clouds agree per coordinate (two-sample KS)."""
    vec_finals = vec.final_states()
    sca_finals = sca.final_states()
    for coordinate in range(vec_finals.shape[1]):
        stat = ks_2samp(vec_finals[:, coordinate], sca_finals[:, coordinate])
        assert stat.pvalue > alpha, (
            f"coordinate {coordinate}: KS D={stat.statistic:.3f}, "
            f"p={stat.pvalue:.4f}"
        )


class StateFeedback(ConstantPolicy):
    """A subclass that overrides ``theta``: ``1 + 9 x_I`` on every row."""

    def theta(self, rows, t, x):
        return 1.0 + 9.0 * x[:, 1:2]


class ScalarStateFeedback(ref.ControlPolicy):
    """The oracle twin of :class:`StateFeedback`, one state at a time."""

    def theta(self, t, x):
        return np.atleast_1d(1.0 + 9.0 * x[1])


def assert_direct_method(population, policy, oracle_policy, t_final, seed,
                         **kwargs):
    """``simulate`` and a one-row ``simulate_ensemble`` under ``policy``
    both reproduce the oracle run under its scalar twin bit for bit (the
    one instance drives both, reset in between); returns the oracle
    run."""
    oracle = ref.simulate(population, oracle_policy, t_final,
                          rng=np.random.default_rng(seed), **kwargs)
    view = simulate(population, policy, t_final,
                    rng=np.random.default_rng(seed), **kwargs)
    row = simulate_ensemble(population, policy, t_final, n_runs=1,
                            rng=np.random.default_rng(seed), **kwargs)
    for states, thetas, n_events, n_jumps in (
        (view.states, view.thetas, view.n_events, view.n_policy_jumps),
        (row.states[0], row.thetas[0], row.n_events, row.n_policy_jumps),
    ):
        np.testing.assert_array_equal(states, oracle.states)
        np.testing.assert_array_equal(thetas, oracle.thetas)
        assert (n_events, n_jumps) == (oracle.n_events,
                                       oracle.n_policy_jumps)
    np.testing.assert_array_equal(view.times, oracle.times)
    np.testing.assert_array_equal(row.times, oracle.times)
    return oracle


def _death_model():
    death = Transition("death", [-1.0], lambda x, th: th[0] * x[0])
    return PopulationModel("death", ("x",), [death], Interval(0.5, 2.0),
                           state_bounds=([0.0], [1.0]))


SIR = make_sir_model()

#: Each policy class, built from ``repro.simulation`` or from its scalar
#: twin in ``reference_impls``, with the same arguments.
POLICIES = {
    "constant": lambda m: m.ConstantPolicy([5.0]),
    "piecewise": lambda m: m.PiecewiseConstantPolicy(
        [(0.0, [1.0]), (0.37, [10.0]), (0.8, [3.0])]),
    "hysteresis": lambda m: m.HysteresisPolicy(
        [1.0], [10.0], coordinate=0, low_threshold=0.5,
        high_threshold=0.85),
    "random-jump": lambda m: m.RandomJumpPolicy(
        SIR.theta_set, rate_fn=lambda t, x: 20.0 * x[1]),
    "constant-rate-jump": lambda m: m.RandomJumpPolicy(
        SIR.theta_set, rate_fn=lambda t, x: 50.0),
}


def twins(name):
    """The library policy ``name`` and its scalar oracle twin."""
    return POLICIES[name](simulation), POLICIES[name](ref)


class TestOneRowIsTheDirectMethod:
    @pytest.mark.parametrize("spec", list_scenarios(),
                             ids=lambda spec: spec.name)
    def test_every_registered_model(self, spec):
        model = spec.build_model()
        theta = model.theta_set.center()
        oracle = assert_direct_method(
            model.instantiate(200, spec.x0), ConstantPolicy(theta),
            ref.ConstantPolicy(theta), 1.0, seed=2016, n_samples=37,
        )
        assert oracle.n_events > 0

    @pytest.mark.parametrize("t_start", [0.0, 0.6])
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_every_policy_class(self, name, t_start):
        assert_direct_method(
            SIR.instantiate(200, [0.7, 0.3]), *twins(name),
            t_start + 1.5, seed=7, n_samples=53, t_start=t_start,
        )

    @pytest.mark.parametrize("t_start", [0.0, 0.6])
    def test_subclass_overriding_theta(self, t_start):
        """The engine asks the instance, so an overridden hook is the
        one that runs: the thetas follow the state, not the constant."""
        oracle = assert_direct_method(
            SIR.instantiate(200, [0.7, 0.3]), StateFeedback([5.0]),
            ScalarStateFeedback(), t_start + 1.5, seed=7, n_samples=53,
            t_start=t_start,
        )
        np.testing.assert_array_equal(oracle.thetas[:, 0],
                                      1.0 + 9.0 * oracle.states[:, 1])

    def test_random_jumps_fire(self):
        oracle = assert_direct_method(
            SIR.instantiate(1000, [0.7, 0.3]), *twins("random-jump"), 3.0,
            seed=5, n_samples=200,
        )
        assert oracle.n_policy_jumps > 0

    @pytest.mark.parametrize("x0, schedule", [
        ([0.0], [(0.0, [1.0]), (1.0, [2.0]), (7.0, [0.5])]),
        ([0.5], [(0.0, [0.5]), (1.0, [2.0])]),
    ], ids=["absorbed-start", "absorbed-mid-run"])
    def test_absorbing_chain(self, x0, schedule):
        oracle = assert_direct_method(
            _death_model().instantiate(20, x0),
            simulation.PiecewiseConstantPolicy(schedule),
            ref.PiecewiseConstantPolicy(schedule), 30.0, seed=3,
            n_samples=40,
        )
        assert oracle.states[-1, 0] == 0.0

    def test_default_generator(self):
        population = SIR.instantiate(100, [0.7, 0.3])
        oracle = ref.simulate(population, ref.ConstantPolicy([5.0]), 1.0,
                              n_samples=30)
        view = simulate(population, ConstantPolicy([5.0]), 1.0,
                        n_samples=30)
        np.testing.assert_array_equal(view.states, oracle.states)
        assert view.n_events == oracle.n_events


class TestSIREquivalence:
    N_RUNS = 80

    def test_constant_policy(self, sir_model):
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, lambda m: m.ConstantPolicy([5.0]), 2.0,
            n_runs=self.N_RUNS, seed=11,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)

    def test_hysteresis_policy_theta1(self, sir_model):
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, lambda m: m.HysteresisPolicy(
                [1.0], [10.0], coordinate=0,
                low_threshold=0.5, high_threshold=0.85,
            ), 2.0, n_runs=self.N_RUNS, seed=12,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)

    def test_random_jump_policy_theta2(self, sir_model):
        population = sir_model.instantiate(200, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, lambda m: m.RandomJumpPolicy(
                sir_model.theta_set, rate_fn=lambda t, x: 5.0 * x[1],
            ), 2.0, n_runs=self.N_RUNS, seed=13,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 200)
        assert_ks_equivalent(vec, sca)
        # Both engines exercised the autonomous policy race.
        assert vec.n_policy_jumps > 0
        assert sca.n_policy_jumps > 0


class TestPowerOfDEquivalence:
    N_RUNS = 60

    @pytest.fixture
    def pod_population(self):
        model = make_power_of_d_model(buffer_depth=5)
        x0 = np.zeros(5)
        x0[0] = 0.5
        return model, model.instantiate(150, x0)

    def test_constant_policy(self, pod_population):
        model, population = pod_population
        vec, sca = run_both_engines(
            population, lambda m: m.ConstantPolicy([0.9]), 1.5,
            n_runs=self.N_RUNS, seed=21,
        )
        assert_clt_equivalent(vec, sca, self.N_RUNS, 150)
        assert_ks_equivalent(vec, sca)

    def test_batched_rates_match_scalar_rates(self, pod_population):
        """The batched rate evaluator agrees with the scalar one row-by-row
        on random lattice states (exact, not statistical)."""
        model, population = pod_population
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 151, size=(32, 5))
        # Enforce the tail-coordinate monotonicity x_1 >= x_2 >= ... of
        # reachable states.
        counts = np.sort(counts, axis=1)[:, ::-1]
        thetas = model.theta_set.sample(rng, 32)
        batched = population.aggregate_rates_batch(counts, thetas)
        for r in range(32):
            np.testing.assert_allclose(
                batched[r],
                population.aggregate_rates(counts[r], thetas[r]),
                rtol=1e-12, atol=1e-12,
            )


class TestJumpRateContract:
    def test_pooling_jump_rate_raises(self, sir_model):
        """A RandomJumpPolicy rate written as a reduction (np.sum over
        the batch) would pool every row's jump rate; it raises before the
        first step, like a pooling model rate when the model is built
        (test_rate_kernel.py)."""
        policy = simulation.RandomJumpPolicy(
            sir_model.theta_set, rate_fn=lambda t, x: 4.0 * np.sum(x),
        )
        population = sir_model.instantiate(100, [0.7, 0.3])
        with pytest.raises(ValueError, match="jump rates must be "
                                             "coordinate-wise array"):
            simulate_ensemble(population, policy, 1.0, n_runs=40, seed=31,
                              n_samples=11)

    def test_constant_jump_rate_runs(self, sir_model):
        """A constant rate broadcasts to every row and keeps the
        oracle's law."""
        population = sir_model.instantiate(100, [0.7, 0.3])
        vec, sca = run_both_engines(
            population, lambda m: m.RandomJumpPolicy(
                sir_model.theta_set, rate_fn=lambda t, x: 4.0,
            ), 1.0, n_runs=40, seed=31, n_samples=11,
        )
        assert_clt_equivalent(vec, sca, 40, 100)
        # About 4 jumps per unit time on each row.
        assert 80 < vec.n_policy_jumps < 250
        assert 80 < sca.n_policy_jumps < 250


class TestShardedSweep:
    def test_serial_and_pooled_shards_agree(self):
        """Shard results are a function of (seed, grid) only — the
        process count must not change them."""
        from repro.engine import sweep_constant_ensembles

        grid = make_sir_model().theta_set.grid(3)
        kwargs = dict(
            x0=[0.7, 0.3], population_size=150, thetas=grid,
            t_final=1.0, n_runs=4, seed=42, n_samples=11,
        )
        serial = sweep_constant_ensembles(make_sir_model, **kwargs)
        pooled = sweep_constant_ensembles(make_sir_model, processes=2,
                                          **kwargs)
        assert len(serial) == len(pooled) == grid.shape[0]
        for a, b in zip(serial, pooled):
            np.testing.assert_array_equal(a.states, b.states)
        # Different grid points use independent streams.
        assert not np.array_equal(serial[0].states, serial[1].states)

    def test_shard_streams_pinned_to_seedsequence_spawn(self):
        """Shard ``i`` consumes exactly the ``i``-th spawn of
        ``SeedSequence(seed)`` — the contract that makes sweeps
        reproducible for a fixed seed regardless of worker count."""
        from repro.engine import sweep_constant_ensembles

        grid = np.array([[2.0], [8.0]])
        seed = 99
        sweep = sweep_constant_ensembles(
            make_sir_model, x0=[0.7, 0.3], population_size=120,
            thetas=grid, t_final=0.8, n_runs=3, seed=seed, n_samples=9,
        )
        spawned = np.random.SeedSequence(seed).spawn(grid.shape[0])
        model = make_sir_model()
        for i, theta in enumerate(grid):
            direct = simulate_ensemble(
                model.instantiate(120, [0.7, 0.3]),
                ConstantPolicy(theta), 0.8, n_runs=3,
                rng=np.random.default_rng(spawned[i]), n_samples=9,
            )
            np.testing.assert_array_equal(sweep[i].states, direct.states)

    def test_seed_accepts_a_seedsequence(self):
        from repro.engine import sweep_constant_ensembles

        kwargs = dict(
            x0=[0.7, 0.3], population_size=80, thetas=[3.0],
            t_final=0.5, n_runs=2, n_samples=6,
        )
        a = sweep_constant_ensembles(make_sir_model, seed=7, **kwargs)
        b = sweep_constant_ensembles(
            make_sir_model, seed=np.random.SeedSequence(7), **kwargs
        )
        np.testing.assert_array_equal(a[0].states, b[0].states)

    def test_scalar_sequence_means_one_shard_per_scalar(self):
        """thetas=[2, 5, 8] is three scalar grid points, not one 3-D one."""
        from repro.engine import sweep_constant_ensembles

        results = sweep_constant_ensembles(
            make_sir_model, x0=[0.7, 0.3], population_size=100,
            thetas=[2.0, 5.0, 8.0], t_final=0.5, n_runs=2, seed=1,
            n_samples=6,
        )
        assert len(results) == 3

    def test_non_finite_horizon_rejected(self):
        from repro.engine import sweep_constant_ensembles

        with pytest.raises(ValueError, match="finite"):
            sweep_constant_ensembles(
                make_sir_model, x0=[0.7, 0.3], population_size=50,
                thetas=[3.0], t_final=np.nan, n_runs=2,
            )

    def test_empty_grid_rejected(self):
        from repro.engine import sweep_constant_ensembles

        with pytest.raises(ValueError, match="grid point"):
            sweep_constant_ensembles(
                make_sir_model, x0=[0.7, 0.3], population_size=50,
                thetas=np.empty((0, 1)), t_final=1.0, n_runs=2,
            )


class TestEngineDeterminism:
    def test_same_seed_same_ensemble(self, sir_model):
        population = sir_model.instantiate(100, [0.7, 0.3])
        a = simulate_ensemble(population, ConstantPolicy([5.0]), 1.0,
                              n_runs=10, seed=5, n_samples=11)
        b = simulate_ensemble(population, ConstantPolicy([5.0]), 1.0,
                              n_runs=10, seed=5, n_samples=11)
        np.testing.assert_array_equal(a.states, b.states)

    def test_different_seeds_differ(self, sir_model):
        population = sir_model.instantiate(100, [0.7, 0.3])
        a = simulate_ensemble(population, ConstantPolicy([5.0]), 1.0,
                              n_runs=10, seed=5, n_samples=11)
        b = simulate_ensemble(population, ConstantPolicy([5.0]), 1.0,
                              n_runs=10, seed=6, n_samples=11)
        assert not np.array_equal(a.states, b.states)
