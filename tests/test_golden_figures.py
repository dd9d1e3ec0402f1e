"""Golden regression pins for the paper-figure bound computations.

The Figure 1 (Pontryagin transient bounds) and Figure 4 (differential
hull) pipelines are deterministic given the model and grids, so their
outputs are pinned to literal values computed from the current
implementation.  A future refactor that silently shifts the bounds —
a wrong sign in the Hamiltonian maximiser, a changed integrator
tolerance, a broken warm start — fails these pins immediately, while a
legitimate algorithmic change must update them consciously.

Tolerances are loose enough (``rtol=1e-4``) to absorb benign
floating-point reordering but far tighter than any real behavioural
change in the bounds.
"""

import numpy as np
import pytest

import reference_impls as ref
from repro.bounds import differential_hull_bounds, pontryagin_transient_bounds
from repro.models import make_sir_model

X0 = [0.7, 0.3]

#: Fig. 1 settings — SIR with theta in [1, 10], x0 = (0.7, 0.3),
#: bounds on the infected fraction at a ladder of horizons.
FIG1_HORIZONS = np.array([0.5, 1.0, 2.0, 3.0])
FIG1_LOWER_I = np.array(
    [0.048982884308, 0.020967067308, 0.015721987839, 0.016318643199]
)
FIG1_UPPER_I = np.array(
    [0.200374571356, 0.142585013127, 0.157089504406, 0.170538327409]
)

#: Fig. 4 settings — differential hull of the same model on [0, 1.5]
#: (the hull blows up and becomes trivial shortly after; see Fig. 4).
FIG4_T_EVAL = np.linspace(0.0, 1.5, 7)
FIG4_LOWER = np.array([
    [7.000000000000e-01, 3.000000000000e-01],
    [2.797001938438e-01, 1.030378175875e-01],
    [7.303986912367e-02, 3.280542711129e-02],
    [-2.545744942788e-02, 9.545934883302e-03],
    [-2.262436177271e-01, 3.758567952262e-04],
    [-5.530834674056e-01, -5.645432457508e-03],
    [-8.298099903417e-01, -1.110706953304e-02],
])
FIG4_UPPER = np.array([
    [0.700000000000, 0.300000000000],
    [0.683467692445, 0.497513557036],
    [0.715438265180, 0.838443496981],
    [0.754969235587, 1.535094282321],
    [0.790400861987, 3.066797052334],
    [0.824505261637, 6.638995547771],
    [0.862674617133, 15.695810380661],
])


@pytest.fixture(scope="module")
def fig1_bounds():
    # The golden pins were recorded on the warm-started sequential
    # ladder, now the reference oracle in tests/reference_impls.py; the
    # lane-parallel library path is pinned against it in
    # tests/test_ode_batch.py and against the same literals below.
    return ref.warm_started_bounds(
        make_sir_model(), X0, FIG1_HORIZONS, observables=["I"]
    )


@pytest.fixture(scope="module")
def fig4_hull():
    return differential_hull_bounds(make_sir_model(), X0, FIG4_T_EVAL)


class TestFig1PontryaginGolden:
    def test_transient_bounds_pinned(self, fig1_bounds):
        np.testing.assert_allclose(
            fig1_bounds.lower["I"], FIG1_LOWER_I, rtol=1e-4, atol=1e-8
        )
        np.testing.assert_allclose(
            fig1_bounds.upper["I"], FIG1_UPPER_I, rtol=1e-4, atol=1e-8
        )

    def test_bounds_are_ordered(self, fig1_bounds):
        assert np.all(fig1_bounds.lower["I"] <= fig1_bounds.upper["I"])

    def test_lane_parallel_path_hits_pins(self):
        """The default lane-parallel sweep reproduces the golden curves.

        Cold starts converge to the same bang-bang optima; the slightly
        looser tolerance absorbs the value-stability stopping rule
        firing a sweep earlier than the warm-started scalar path did
        when the pins were recorded (~1e-4 relative), which is still far
        below any behavioural change in the bounds.
        """
        lanes = pontryagin_transient_bounds(
            make_sir_model(), X0, FIG1_HORIZONS, observables=["I"]
        )
        np.testing.assert_allclose(lanes.lower["I"], FIG1_LOWER_I,
                                   rtol=3e-4, atol=1e-8)
        np.testing.assert_allclose(lanes.upper["I"], FIG1_UPPER_I,
                                   rtol=3e-4, atol=1e-8)


class TestFig4HullGolden:
    def test_hull_bounds_pinned(self, fig4_hull):
        np.testing.assert_allclose(fig4_hull.lower, FIG4_LOWER, rtol=1e-4,
                                   atol=1e-8)
        np.testing.assert_allclose(fig4_hull.upper, FIG4_UPPER, rtol=1e-4,
                                   atol=1e-8)

    def test_hull_scalar_path_matches_batched_pin(self, fig4_hull):
        """The scalar-extremization reference hull (scipy's solve_ivp)
        hits the same pins, and agrees with the library's hull (its own
        Dormand–Prince lane) to integration tolerance."""
        lower, upper = ref.hull_bounds(make_sir_model(), X0, FIG4_T_EVAL)
        np.testing.assert_allclose(lower, FIG4_LOWER, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(upper, FIG4_UPPER, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(lower, fig4_hull.lower, rtol=1e-5,
                                   atol=1e-9)
        np.testing.assert_allclose(upper, fig4_hull.upper, rtol=1e-5,
                                   atol=1e-9)

    def test_hull_brackets_fig1_pins(self, fig4_hull):
        # The hull is a relaxation: at matching times its I-range must
        # contain the exact Pontryagin range (cross-check of the two
        # golden fixtures against each other, using the pinned values).
        at = {0.5: 2, 1.0: 4}
        for k, (horizon, idx) in enumerate(at.items()):
            assert fig4_hull.lower[idx, 1] <= FIG1_LOWER_I[k] + 1e-6
            assert fig4_hull.upper[idx, 1] >= FIG1_UPPER_I[k] - 1e-6
