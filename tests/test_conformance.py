"""The catalog-wide conformance harness (:mod:`repro.testing`).

Every test here is a thin parametrization over the scenario registry:
registering a :class:`ScenarioSpec` is the entire cost of inheriting
the suite.  (The bound-family ordering check has its own file,
``test_scenarios_ordering.py``, for historical continuity.)

- finite-``N`` ensemble grounding of the mean-field envelope,
- interval-DTMC conservativeness through the runner's own backend,
- ``drift_batch`` and the affine decomposition against the drift on
  hypothesis-drawn points,
- every declared Jacobian against central differences of the drift
  along the spec's own trajectories,
- kwarg perturbation inside declared validity ranges,
- plus the registration-time validation that makes a typo'd factory
  kwarg fail at import instead of minutes into a sweep.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import make_sir_model
from repro.params import DiscreteSet, Interval
from repro.population import PopulationModel, Transition
from repro.scenarios import get_scenario
from repro.scenarios.spec import Question, ScenarioSpec
from repro.testing import (
    ConformanceViolation,
    ScenarioConformance,
    dtmc_cases,
    golden_cases,
    perturbation_cases,
    unique_model_cases,
)
from repro.testing.strategies import unit_fracs, validity_fracs

MODEL_CASES = [pytest.param(s, id=s.name) for s in unique_model_cases()]
DTMC_CASES = [pytest.param(s, id=s.name) for s in dtmc_cases()]
PERTURB_CASES = [pytest.param(s, id=s.name) for s in perturbation_cases()]
GOLDEN_CASES = [pytest.param(s, id=s.name) for s in golden_cases()]

# A couple of structurally distinct perturbation targets for the
# hypothesis-driven property (the full registry sweep runs seeded
# draws in test_perturbation_within_validity below).
PROPERTY_SPECS = ["autoscaler", "ttl-cache-fleet"]


# ----------------------------------------------------------------------
# Catalog-inherited checks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("spec", MODEL_CASES)
def test_batch_kernels_agree_with_scalar(spec):
    assert ScenarioConformance(spec).check_batch_consistency() > 0


@pytest.mark.parametrize("spec", MODEL_CASES)
def test_jacobian_matches_drift_differences(spec):
    ScenarioConformance(spec).check_jacobian()


def test_jacobian_check_covers_every_model_factory():
    # A spec whose trajectory hugs the state-box boundary checks no row
    # (load-balancing's deep tail); another spec of the same factory
    # must then cover it.
    rows = Counter()
    for spec in unique_model_cases():
        rows[spec.factory_ref] += ScenarioConformance(spec).check_jacobian()
    assert all(rows.values()), {k: v for k, v in rows.items() if not v}


def _logistic_jacobian(xs, ths):
    return (ths[:, 0] * (1.0 - 2.0 * xs[:, 0]))[:, None, None]


def _logistic_model(jacobian_batch=_logistic_jacobian):
    """Logistic growth ``x' = theta x (1 - x)``."""
    grow = Transition("grow", [1.0], lambda x, th: th[0] * x[0] * (1.0 - x[0]))
    return PopulationModel(
        "logistic", ("x",), [grow], Interval(1.0, 2.0),
        affine_drift_batch=lambda xs: (
            np.zeros_like(xs), (xs * (1.0 - xs))[:, :, None]
        ),
        drift_jacobian_batch=jacobian_batch,
        state_bounds=([0.0], [1.0]),
    )


def test_jacobian_check_flags_a_wrong_kernel():
    spec = ScenarioSpec(
        name="logistic-probe", title="logistic growth",
        model_factory=_logistic_model, x0=(0.1,), horizon=3.0,
        questions=(Question("hull"),),
    )
    assert ScenarioConformance(spec).check_jacobian() > 0
    wrong = _logistic_model(  # drops the -theta x term of the derivative
        lambda xs, ths: (ths[:, 0] * (1.0 - xs[:, 0]))[:, None, None]
    )
    with pytest.raises(ConformanceViolation, match="Jacobian column 0"):
        ScenarioConformance(spec, model=wrong).check_jacobian()


@pytest.mark.parametrize("spec", MODEL_CASES)
def test_ensemble_mean_inside_envelope(spec):
    ScenarioConformance(spec).check_ensemble()


@pytest.mark.parametrize("spec", DTMC_CASES)
def test_dtmc_bounds_conservative(spec):
    assert ScenarioConformance(spec).check_dtmc_conservative() > 0


@pytest.mark.parametrize("spec", GOLDEN_CASES)
def test_golden_pins_reproduce(spec):
    assert ScenarioConformance(spec).check_golden() > 0


def test_golden_catalog_covers_fig1_and_fig4():
    # The headline figures stay pinned registry-wide; removing the
    # declarations (or the scenarios) must fail loudly, not silently
    # shrink GOLDEN_CASES to nothing.
    assert {s.name for s in golden_cases()} >= {"sir-transient", "sir-hull"}


@pytest.mark.parametrize("spec", PERTURB_CASES)
def test_perturbation_within_validity(spec):
    conf = ScenarioConformance(spec)
    # Seeded interior draw plus both endpoints of every declared range.
    for fracs in (
        None,
        {k: 0.0 for k in spec.validity_ranges},
        {k: 1.0 for k in spec.validity_ranges},
    ):
        assert conf.check_perturbation(fracs=fracs) > 0


# ----------------------------------------------------------------------
# Hypothesis-driven properties (fractions drawn, geometry owned by
# the harness)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", PROPERTY_SPECS)
@settings(max_examples=20)
@given(data=st.data())
def test_property_batch_consistency(name, data):
    conf = ScenarioConformance(get_scenario(name))
    model = conf.model
    state_fracs = data.draw(unit_fracs(4, model.dim), label="state_fracs")
    theta_fracs = data.draw(unit_fracs(4, model.theta_dim),
                            label="theta_fracs")
    assert conf.check_batch_consistency(
        state_fracs=state_fracs, theta_fracs=theta_fracs
    ) > 0


@pytest.mark.parametrize("name", PROPERTY_SPECS)
@settings(max_examples=15)
@given(data=st.data())
def test_property_perturbed_kwargs_stay_sound(name, data):
    spec = get_scenario(name)
    conf = ScenarioConformance(spec)
    fracs = data.draw(validity_fracs(spec), label="kwarg_fracs")
    assert conf.check_perturbation(fracs=fracs, n=2) > 0


# ----------------------------------------------------------------------
# Registration-time spec validation (the typo'd-kwarg regression)
# ----------------------------------------------------------------------

def _spec(**overrides):
    base = dict(
        name="conftest-sir",
        title="throwaway",
        model_factory=make_sir_model,
        x0=(0.7, 0.3),
        horizon=1.0,
        questions=(Question("hull", options={"times": [0.0, 0.5]}),),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_typo_kwarg_fails_at_construction():
    # Before the harness, theta_mxa=5.0 surfaced only when a question
    # first *built* the model — possibly never, if the spec was only
    # listed.  Now the spec itself refuses to exist.
    with pytest.raises(TypeError, match="theta_mxa"):
        _spec(model_kwargs={"theta_mxa": 5.0})


def test_valid_kwargs_accepted():
    assert _spec(model_kwargs={"theta_max": 5.0}).kwargs == {
        "theta_max": 5.0
    }


def test_validity_key_must_be_factory_kwarg():
    with pytest.raises(TypeError, match="nope"):
        _spec(validity={"nope": (0.1, 0.2)})


def test_validity_range_must_be_ordered_finite():
    with pytest.raises(ValueError, match="low <= high"):
        _spec(validity={"theta_max": (2.0, 1.0)})
    with pytest.raises(ValueError, match="pair"):
        _spec(validity={"theta_max": 3.0})


def test_validity_excluded_from_payload_hash():
    plain = _spec()
    declared = _spec(validity={"theta_max": (4.0, 6.0)})
    # Conformance metadata must never invalidate cached results.
    assert plain.spec_hash() == declared.spec_hash()
    assert declared.validity_ranges == {"theta_max": [4.0, 6.0]}


def test_golden_excluded_from_payload_hash():
    plain = _spec()
    declared = _spec(golden={"hull_S_width_final": 0.5})
    assert plain.spec_hash() == declared.spec_hash()
    assert declared.golden_values == {"hull_S_width_final": 0.5}


def test_golden_pins_validated_at_construction():
    with pytest.raises(ValueError, match="finite"):
        _spec(golden={"x": float("nan")})
    with pytest.raises(ValueError, match="number"):
        _spec(golden={"x": "not-a-number"})
    with pytest.raises(ValueError, match="rtol"):
        _spec(golden={"x": (1.0, -1e-3)})


def test_check_golden_flags_missing_finding_and_deviation():
    conf = ScenarioConformance(_spec(golden={"no_such_finding": 1.0}))
    with pytest.raises(ConformanceViolation, match="no_such_finding"):
        conf.check_golden()
    conf = ScenarioConformance(
        _spec(golden={"hull_S_width_final": (99.0, 1e-6)})
    )
    with pytest.raises(ConformanceViolation, match="deviates"):
        conf.check_golden()


# ----------------------------------------------------------------------
# Harness mechanics
# ----------------------------------------------------------------------

def test_fraction_mapping_covers_state_box():
    conf = ScenarioConformance(get_scenario("autoscaler"))
    lower = conf.states_from_fracs(np.zeros((1, conf.model.dim)))[0]
    upper = conf.states_from_fracs(np.ones((1, conf.model.dim)))[0]
    np.testing.assert_allclose(lower, conf.model.state_lower)
    np.testing.assert_allclose(upper, conf.model.state_upper)


def test_theta_fraction_mapping_discrete_set():
    # No catalog model currently declares a finite Theta, so exercise
    # the member-selection branch on a stub: fractions must always map
    # onto admissible members, never interpolate between them.
    conf = ScenarioConformance.__new__(ScenarioConformance)
    conf.spec = get_scenario("gps-map")

    class _Stub:
        theta_set = DiscreteSet([[0.5, 1.0], [2.0, 3.0], [4.0, 0.5]])

    conf.model = _Stub()
    members = np.asarray(_Stub.theta_set.values)
    thetas = conf.thetas_from_fracs(
        np.linspace(0.0, 1.0, 7)[:, None] * np.ones((1, 2))
    )
    for row in thetas:
        assert any(np.allclose(row, m) for m in members)
    np.testing.assert_allclose(
        conf.thetas_from_fracs(np.zeros((1, 2)))[0], members[0]
    )
    np.testing.assert_allclose(
        conf.thetas_from_fracs(np.ones((1, 2)))[0], members[-1]
    )


def test_perturbed_kwargs_rejects_undeclared_key():
    conf = ScenarioConformance(get_scenario("autoscaler"))
    with pytest.raises(KeyError, match="not-a-range"):
        conf.perturbed_kwargs({"not-a-range": 0.5})


def test_perturbation_requires_validity_declaration():
    conf = ScenarioConformance(get_scenario("seir-transient"))
    with pytest.raises(ConformanceViolation, match="validity"):
        conf.check_perturbation()


def test_run_all_report_lists_every_check():
    report = ScenarioConformance(get_scenario("autoscaler")).run_all(
        ensemble=False
    )
    names = {o.name for o in report.outcomes}
    assert names == {"ordering", "batch-consistency", "jacobian", "ensemble",
                     "dtmc-conservative", "perturbation", "golden"}
    assert {o.status for o in report.outcomes} <= {
        "passed", "not-applicable"
    }
    assert "conformance: autoscaler" in report.render()


def test_violation_is_assertion_error():
    # pytest renders ConformanceViolation natively.
    assert issubclass(ConformanceViolation, AssertionError)
