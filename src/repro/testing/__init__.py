"""repro.testing — the catalog-wide scenario conformance subsystem.

Registering a :class:`~repro.scenarios.ScenarioSpec` is the *entire*
cost of testing a new model: :class:`ScenarioConformance` derives the
structural soundness suite — bound-family ordering (envelope ⊆ template
⊆ hull), finite-``N`` ensemble grounding, interval-DTMC
conservativeness, drift/affine kernel agreement, Jacobians against
finite differences of the drift, validity-range perturbation, and
golden-pin verification against the
paper's figures — from the spec alone, and the test files under
``tests/`` are thin parametrizations over the registry.

The core (:mod:`repro.testing.conformance`) depends only on numpy and
the library itself, so benchmarks and CI scripts can run the same
checks the test suite runs; hypothesis integration is isolated in
:mod:`repro.testing.strategies` behind an import gate.

Typical usage::

    from repro.testing import ScenarioConformance, unique_model_cases

    for spec in unique_model_cases():
        print(ScenarioConformance(spec).run_all().render())
"""

from repro.testing.conformance import (
    HULL_TOL,
    TEMPLATE_TOL,
    CheckOutcome,
    ConformanceReport,
    ConformanceViolation,
    ScenarioConformance,
    dtmc_cases,
    golden_cases,
    numeric_jacobian,
    perturbation_cases,
    unique_model_cases,
)

__all__ = [
    "TEMPLATE_TOL",
    "HULL_TOL",
    "ConformanceViolation",
    "CheckOutcome",
    "ConformanceReport",
    "ScenarioConformance",
    "unique_model_cases",
    "dtmc_cases",
    "perturbation_cases",
    "golden_cases",
    "numeric_jacobian",
]
