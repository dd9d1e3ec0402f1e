"""The costate sweep against the stage-loop oracle, on every catalog model.

``_costate_sweep_batch`` makes one costate product per lockstep step: a
population model folds the step's four RK4 stages into one ``d x d``
transfer matrix, and the master equation of a finite chain runs them
through the sparse vector–Jacobian product ``KolmogorovSystem.vjp_batch``.
``ref.costate_sweep_batch`` runs the four stage products of the dense
Jacobians step by step.  The two agree within float64 rounding:
``ref.COSTATE_RTOL`` times each lane's largest costate.

The sweeps compared are the ones real lane runs make, captured on their
way into ``_costate_sweep_batch``: after the first Hamiltonian
re-maximisation the controls switch inside the grid, so the stage that
enters a node backward reads another control than the interval's own.
Lane sets are ragged (padded grids, lanes that run out early) and
shared (every lane on one grid).
"""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import extremal_trajectories_batch, pontryagin
from repro.bounds.sweep import _resolve_weights
from repro.ctmc import ImpreciseCTMC, KolmogorovSystem
from repro.scenarios import get_scenario, list_scenarios


def _catalog_models():
    """One (name, model, x0, direction) per distinct registered model."""
    seen = {}
    for spec in list_scenarios():
        key = (spec.factory_ref, spec.model_kwargs)
        if key in seen:
            continue
        model = spec.build_model()
        if spec.observables:
            direction = next(iter(
                _resolve_weights(model, list(spec.observables)).values()))
        else:
            direction = np.eye(model.dim)[-1]
        seen[key] = (spec.name, model, np.asarray(spec.x0, dtype=float),
                     direction)
    return list(seen.values())


CATALOG = _catalog_models()

#: Per lane set: (horizon fraction, grid steps) of its lanes, each run
#: as a minimisation and a maximisation.
LANE_SETS = {
    "ragged": ((0.25, 24), (0.5, 40), (1.0, 60)),
    "shared": ((1.0, 50), (1.0, 50)),
}


def _captured_sweeps(model, x0, specs, max_iter=3):
    """The argument tuples of every costate sweep of a lane run."""
    captured = []
    original = pontryagin._costate_sweep_batch

    def spy(*args):
        captured.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pontryagin, "_costate_sweep_batch", spy)
        extremal_trajectories_batch(model, x0, specs, max_iter=max_iter)
    return captured


def _lane_specs(direction, horizon, lane_set):
    return [(direction, is_max, fraction * horizon, n_steps)
            for fraction, n_steps in LANE_SETS[lane_set]
            for is_max in (False, True)]


def _catalog_chain(name):
    """``(chain, reward, horizon, n_steps)`` of a catalog dtmc_reward
    question."""
    spec = get_scenario(name)
    opts = next(q for q in spec.questions if q.kind == "dtmc_reward").opts
    model = spec.build_model()
    chain = ImpreciseCTMC(model.instantiate(opts["population_size"], spec.x0))
    weights = _resolve_weights(model, list(spec.observables))
    reward = chain.densities() @ next(iter(weights.values()))
    return (chain, reward, float(opts.get("horizon", spec.horizon)),
            int(opts["n_steps"]))


CHAINS = ["bike-dtmc-reward", "sir-dtmc-reward", "autoscaler",
          "load-balancing-dtmc"]


class TestTransferMatrices:
    @pytest.mark.parametrize("lane_set", sorted(LANE_SETS))
    @pytest.mark.parametrize("name, model, x0, direction", CATALOG,
                             ids=[entry[0] for entry in CATALOG])
    def test_matches_stage_loop(self, name, model, x0, direction, lane_set):
        horizon = min(get_scenario(name).horizon, 3.0)
        sweeps = _captured_sweeps(model, x0,
                                  _lane_specs(direction, horizon, lane_set))
        assert sweeps
        for args in sweeps:
            got = pontryagin._costate_sweep_batch(*args)
            ref.assert_costates_close(got, ref.costate_sweep_batch(*args))

    def test_sweep_builds_one_jacobian_block(self, monkeypatch):
        # The three stage stacks of every step come from one call, and
        # the population sweep asks for no vector–Jacobian product.
        name, model, x0, direction = CATALOG[0]
        args = _captured_sweeps(model, x0,
                                _lane_specs(direction, 2.0, "ragged"))[-1]
        calls = []
        jacobian = model.jacobian_x_batch

        def counting(x, theta):
            calls.append(x.shape[0])
            return jacobian(x, theta)

        monkeypatch.setattr(model, "jacobian_x_batch", counting)
        pontryagin._costate_sweep_batch(*args)
        n_sweep = int(args[2].max())
        assert calls == [3 * n_sweep * args[3].shape[0]]
        assert not hasattr(model, "vjp_batch")


class TestSparseVectorJacobianProduct:
    @pytest.mark.parametrize("name", CHAINS)
    def test_matches_dense_stage_loop(self, name):
        chain, reward, horizon, n_steps = _catalog_chain(name)
        specs = [(reward, False, horizon, n_steps),
                 (reward, True, horizon, n_steps),
                 (reward, True, 0.5 * horizon, n_steps // 2)]
        system = KolmogorovSystem(chain)
        dense = ref.DenseKolmogorovSystem(chain)
        sweeps = _captured_sweeps(system, chain.initial_distribution, specs,
                                  max_iter=2)
        assert sweeps
        for args in sweeps:
            got = pontryagin._costate_sweep_batch(*args)
            want = ref.costate_sweep_batch(dense, *args[1:])
            ref.assert_costates_close(got, want)

    def test_four_stage_products_per_step(self, monkeypatch):
        chain, reward, horizon, n_steps = _catalog_chain("sir-dtmc-reward")
        system = KolmogorovSystem(chain)
        args = _captured_sweeps(system, chain.initial_distribution,
                                [(reward, True, horizon, n_steps)])[-1]
        calls = []
        vjp = system.vjp_batch

        def counting(x, theta, lam):
            calls.append(lam.shape)
            return vjp(x, theta, lam)

        monkeypatch.setattr(system, "vjp_batch", counting)
        pontryagin._costate_sweep_batch(*args)
        assert calls == [(1, system.dim)] * (4 * n_steps)
        # The master equation builds no dense Jacobian.
        assert not hasattr(system, "jacobian_x_batch")
        assert not hasattr(system, "jacobian_x")

    @pytest.mark.parametrize("parts", ["sparse", "dense"])
    @pytest.mark.parametrize("name", ["bike-dtmc-reward", "sir-dtmc-reward"])
    def test_vjp_batch_is_the_dense_generator_product(self, name, parts):
        chain = _catalog_chain(name)[0]
        if parts == "dense":
            class DenseChain:
                model = chain.model
                states = chain.states
                n_states = chain.n_states
                initial_distribution = chain.initial_distribution

                @staticmethod
                def affine_generator_parts():
                    q0, rest = chain.affine_generator_parts()
                    return q0.toarray(), [part.toarray() for part in rest]

            system = KolmogorovSystem(DenseChain())
        else:
            system = KolmogorovSystem(chain)
        q0, rest = chain.affine_generator_parts()
        q0 = q0.toarray()
        rest = [part.toarray() for part in rest]
        rng = np.random.default_rng(7)
        n, d = 5, chain.n_states
        states = rng.dirichlet(np.ones(d), size=n)
        thetas = chain.model.theta_set.sample(rng, n)
        lams = rng.normal(size=(n, d))
        got = system.vjp_batch(states, thetas, lams)
        assert got.shape == (n, d)
        for r in range(n):
            q = q0 + sum(t * part for t, part in zip(thetas[r], rest))
            np.testing.assert_allclose(got[r], q @ lams[r], rtol=1e-12,
                                       atol=1e-12)
        # One state row: a (d,) state and costate, a (p,) parameter.
        np.testing.assert_array_equal(
            system.vjp_batch(states[0], thetas[0], lams[0]), got[:1])


class TestKolmogorovStacks:
    """The master equation's kernels take the stacks of the population
    rate kernel: ``(n, d)`` or ``(d,)`` states, ``(n, p)`` parameters or
    one ``(p,)`` / ``(1, p)`` row for every state."""

    @pytest.fixture(scope="class")
    def system(self):
        chain = _catalog_chain("sir-dtmc-reward")[0]
        assert (chain.n_states, chain.model.theta_dim) == (28, 1)
        return KolmogorovSystem(chain)

    @staticmethod
    def _states(system, n=3):
        return np.random.default_rng(3).dirichlet(np.ones(system.dim),
                                                  size=n)

    @pytest.mark.parametrize("theta", [[[2.0, 9.0]] * 3, [2.0, 3.0, 4.0],
                                       [[2.0]] * 2, [[[2.0]]]],
                             ids=["theta-width", "1-D-per-row-theta",
                                  "theta-row-count", "3-D-theta"])
    @pytest.mark.parametrize("kernel", ["drift_batch", "vjp_batch"])
    def test_misshapen_parameters_raise(self, system, kernel, theta):
        # drift_batch ignored a second parameter column and read three
        # per-row values as one row.
        states = self._states(system)
        args = (states, theta) + ((states,) if kernel == "vjp_batch" else ())
        with pytest.raises(ValueError) as info:
            getattr(system, kernel)(*args)
        message = str(info.value)
        assert f"states of shape {states.shape}" in message
        assert f"parameters of shape {np.shape(theta)}" in message

    @pytest.mark.parametrize("kernel",
                             ["drift_batch", "affine_parts_batch", "vjp_batch"])
    @pytest.mark.parametrize("cut", [slice(None, -1), slice(None, 1)],
                             ids=["d-1-columns", "1-column"])
    def test_misshapen_states_raise(self, system, kernel, cut):
        states = self._states(system)[:, cut]
        args = {"drift_batch": (states, [2.0]),
                "affine_parts_batch": (states,),
                "vjp_batch": (states, [2.0], states)}[kernel]
        with pytest.raises(ValueError, match=r"states of shape"):
            getattr(system, kernel)(*args)

    def test_misshapen_costates_raise(self, system):
        states = self._states(system)
        with pytest.raises(ValueError, match="costates of shape"):
            system.vjp_batch(states, [2.0], states[:2])

    @pytest.mark.parametrize("theta", [[2.0], [[2.0]], np.full((3, 1), 2.0)],
                             ids=["(p,)", "(1,p)", "(n,p)"])
    @pytest.mark.parametrize("kernel", ["drift_batch", "vjp_batch"])
    def test_one_parameter_row_applies_to_every_state(self, system, kernel,
                                                      theta):
        states = self._states(system)
        tail = (states,) if kernel == "vjp_batch" else ()
        got = getattr(system, kernel)(states, theta, *tail)
        want = getattr(system, kernel)(states, np.full((3, 1), 2.0), *tail)
        np.testing.assert_array_equal(got, want)
