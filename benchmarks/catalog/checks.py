"""Output checks of the catalog benchmark: a faster wrong answer is a failure.

Every seed checks the invariants a bound must satisfy whatever the
parameters are:

* every finding is finite;
* every ``*_conservative`` flag is 1 (interval-DTMC bounds enclose the
  exact imprecise Kolmogorov bounds);
* the uncertain envelope lies inside the Pontryagin bounds of the same
  observable at the final horizon;
* each finite-``N`` ensemble mean lies inside the scenario's own
  envelope, widened by the CLT band of :mod:`repro.testing`'s ensemble
  check (``z`` standard errors plus an ``O(1/N)`` finite-size slack).

Seed 0 runs the catalog as registered, so it also compares every
deterministic finding with the reference findings stored beside this
file (``reference.json``) and with the specs' own ``golden`` pins, at
the conformance golden tolerance.  Ensemble findings are stochastic by
nature and are held to the CLT band only, never pinned.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

__all__ = ["REFERENCE_PATH", "GOLDEN_RTOL", "REFERENCE_ATOL",
           "load_reference", "check_findings", "reference_findings"]

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The conformance golden tolerance (``ScenarioConformance.check_golden``).
GOLDEN_RTOL = 5e-4
#: Absolute slack of the reference comparison, for findings near zero.
REFERENCE_ATOL = 1e-9
#: Envelope-inside-Pontryagin slack: both are discretised bounds.
ORDERING_TOL = 1e-3
#: Ensemble band: ``z`` standard errors, as in ``check_ensemble``.
ENSEMBLE_Z = 4.0


def load_reference() -> Dict[str, Dict[str, Dict[str, float]]]:
    """``workload -> scenario -> finding -> value`` for seed 0."""
    return json.loads(REFERENCE_PATH.read_text())


def _is_ensemble_finding(key: str) -> bool:
    return key.startswith("ensemble_") or "_ensemble_" in key


def reference_findings(findings: Dict[str, float]) -> Dict[str, float]:
    """The deterministic findings a reference pins (ensembles excluded)."""
    return {k: float(v) for k, v in findings.items()
            if not _is_ensemble_finding(k)}


def _observable_weight(model, name: str) -> np.ndarray:
    if name in model.observables:
        return np.asarray(model.observables[name], dtype=float)
    return np.eye(model.dim)[list(model.state_names).index(name)]


def _ensemble_problems(spec, model, findings) -> List[str]:
    problems = []
    for q in spec.questions:
        if q.kind != "ensemble":
            continue
        opts = q.opts
        size = int(opts.get("population_size", 200))
        runs = int(opts.get("n_runs", 16))
        for name in spec.observables:
            lo_key = f"{name}_uncertain_min_final"
            hi_key = f"{name}_uncertain_max_final"
            if lo_key not in findings:
                continue
            scale = float(np.abs(_observable_weight(model, name)).sum())
            # CLT scale of a mean over n_runs replicas of a density of N
            # individuals, each of at most unit variance.
            band = scale * (ENSEMBLE_Z / math.sqrt(size * runs)
                            + 5.0 / size + 1e-3)
            low_key = q.prefixed(f"ensemble_{name}_final_mean_min")
            high_key = q.prefixed(f"ensemble_{name}_final_mean_max")
            if low_key not in findings or high_key not in findings:
                problems.append(f"ensemble findings for {name} missing")
                continue
            low, high = findings[low_key], findings[high_key]
            if low < findings[lo_key] - band or high > findings[hi_key] + band:
                problems.append(
                    f"ensemble {name} means [{low:.6g}, {high:.6g}] escape "
                    f"the envelope [{findings[lo_key]:.6g}, "
                    f"{findings[hi_key]:.6g}] by more than {band:.3g}"
                )
    return problems


def _ordering_problems(findings) -> List[str]:
    """Uncertain envelope inside the Pontryagin bounds at the horizon."""
    problems = []
    suffix = "_uncertain_min_final"
    for stem in [k[: -len(suffix)] for k in findings if k.endswith(suffix)]:
        pairs = ((f"{stem}_imprecise_min_final", f"{stem}_uncertain_min_final"),
                 (f"{stem}_uncertain_max_final", f"{stem}_imprecise_max_final"))
        for low_key, high_key in pairs:
            if low_key in findings and high_key in findings:
                low, high = findings[low_key], findings[high_key]
                if low > high + ORDERING_TOL * max(1.0, abs(high)):
                    problems.append(
                        f"envelope not inside Pontryagin bounds: "
                        f"{low_key}={low:.6g} > {high_key}={high:.6g}"
                    )
    return problems


def _close(actual: float, expected: float, rtol: float) -> bool:
    return actual == expected or \
        abs(actual - expected) <= rtol * abs(expected) + REFERENCE_ATOL


def _may_be_infinite(key: str, findings: Dict[str, float]) -> bool:
    """A diverged stationary hull rectangle reports infinite sides.

    That is the 'trivial hull' regime of Fig. 5, flagged by
    ``steady_hull_converged = 0``; every other finding must be finite.
    """
    if not key.startswith("steady_hull_") or key.endswith("_converged"):
        return False
    return findings.get("steady_hull_converged") == 0


def check_findings(spec, model, findings: Dict[str, float],
                   reference: Optional[Dict[str, float]]) -> List[str]:
    """Every problem with one scenario's findings (empty: correct).

    ``spec`` is the spec as run (its questions are the ones selected),
    ``reference`` the seed-0 reference for this scenario and workload,
    or ``None`` on other seeds (invariants only).
    """
    problems = [f"{k} is not finite ({v!r})"
                for k, v in findings.items()
                if not math.isfinite(v)
                and not (math.isinf(v) and _may_be_infinite(k, findings))]
    problems += [f"{k} = {v:g}, expected 1"
                 for k, v in findings.items()
                 if k.endswith("_conservative") and v != 1]
    if problems:
        return problems
    problems += _ordering_problems(findings)
    problems += _ensemble_problems(spec, model, findings)
    if reference is None:
        return problems
    actual = reference_findings(findings)
    if set(actual) != set(reference):
        missing = sorted(set(reference) - set(actual))
        extra = sorted(set(actual) - set(reference))
        problems.append(f"finding set differs from the reference: "
                        f"missing {missing}, unexpected {extra}")
    for key in sorted(set(actual) & set(reference)):
        if not _close(actual[key], reference[key], GOLDEN_RTOL):
            problems.append(f"{key} = {actual[key]:.12g}, reference "
                            f"{reference[key]:.12g}")
    for key, pin in spec.golden_values.items():
        if key not in findings:
            continue
        value, rtol = (pin if isinstance(pin, (list, tuple))
                       else (pin, GOLDEN_RTOL))
        if abs(findings[key] - value) > rtol * max(1.0, abs(value)):
            problems.append(f"{key} = {findings[key]:.12g} misses the "
                            f"golden pin {value:.12g} (rtol {rtol:g})")
    return problems
