"""Declarative scenario specifications.

A :class:`ScenarioSpec` declares *what* to analyse — a model family
(a module-level factory plus keyword arguments), an initial condition,
a horizon and a list of :class:`Question`\\ s — and nothing about *how*:
the runner (:mod:`repro.scenarios.runner`) routes each question to the
right backend.  Specs are value objects: hashable by content
(:meth:`ScenarioSpec.spec_hash`), which is what keys the disk cache, and
derivable (:meth:`ScenarioSpec.with_overrides`) so benchmarks and design
loops can declare one base scenario and sweep variants of it.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

import numpy as np

__all__ = ["Question", "ScenarioSpec", "QUESTION_KINDS",
           "HASH_INCLUDED_FIELDS", "HASH_EXCLUDED_FIELDS"]

#: The :class:`ScenarioSpec` fields whose content feeds
#: :meth:`ScenarioSpec.payload` and therefore the disk-cache key.
#: Every dataclass field MUST be listed here or in
#: :data:`HASH_EXCLUDED_FIELDS` — the registry audit
#: (``python -m repro lint``) fails on an unclassified field, so adding
#: a field can neither silently change every cache key nor silently
#: *not* change keys it should.
HASH_INCLUDED_FIELDS = (
    "model_factory",
    "model_kwargs",
    "x0",
    "horizon",
    "observables",
    "questions",
)

#: Fields deliberately excluded from the content hash: identity and
#: documentation (renames must not invalidate artifacts) and
#: conformance-test metadata (declaring checks must not either).
HASH_EXCLUDED_FIELDS = (
    "name",
    "title",
    "description",
    "tags",
    "validity",
    "golden",
)

#: The analysis questions the runner knows how to dispatch.
QUESTION_KINDS = (
    "envelope",     # uncertain (constant-theta) transient envelope
    "pontryagin",   # exact imprecise transient bounds (Fig. 1 / Fig. 7)
    "hull",         # differential-hull over-approximation (Fig. 4)
    "template",     # convex template polytope at the horizon
    "steadystate",  # hull rectangle + (2-D) Birkhoff centre (Fig. 3 / 5)
    "ensemble",     # finite-N vectorized SSA sweep over constant thetas
    "dtmc_reward",  # finite-N interval-DTMC (Škulj) reward bounds
)


def _canonical(value):
    """Coerce a value into a JSON-stable canonical form for hashing."""
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_canonical(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"value {value!r} of type {type(value).__name__} is not "
        "canonicalisable; use plain scalars, sequences or dicts"
    )


def _freeze(mapping) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise a mapping (or pre-frozen item tuple) into sorted items."""
    if mapping is None:
        return ()
    if isinstance(mapping, tuple):
        mapping = dict(mapping)
    return tuple(
        (str(k), _json_frozen(_canonical(v))) for k, v in sorted(mapping.items())
    )


#: Tag distinguishing a frozen dict from a frozen list inside the
#: hashable representation, so :func:`_thaw` restores the right type.
_DICT_TAG = "__frozen_dict__"


def _json_frozen(value):
    """Make a canonical value hashable (lists become tuples, recursively)."""
    if isinstance(value, list):
        return tuple(_json_frozen(v) for v in value)
    if isinstance(value, dict):
        return (_DICT_TAG,
                tuple((k, _json_frozen(v)) for k, v in sorted(value.items())))
    return value


def _thaw(value):
    """Inverse of :func:`_json_frozen`: tuples back to lists/dicts."""
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == _DICT_TAG:
            return {k: _thaw(v) for k, v in value[1]}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class Question:
    """One analysis to run on a scenario's model.

    Parameters
    ----------
    kind:
        One of :data:`QUESTION_KINDS`.
    options:
        Backend options (horizon grids, sweep resolutions, template
        families, ensemble sizes ...), given as a mapping; stored in a
        canonical sorted-tuple form so questions are hashable.
    label:
        Optional prefix for the series/findings this question emits;
        required when a scenario asks the same kind twice.
    """

    kind: str
    options: Tuple[Tuple[str, object], ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.kind not in QUESTION_KINDS:
            raise ValueError(
                f"unknown question kind {self.kind!r}; expected one of "
                f"{QUESTION_KINDS}"
            )
        object.__setattr__(self, "options", _freeze(self.options))
        object.__setattr__(self, "label", str(self.label))

    @property
    def opts(self) -> Dict[str, object]:
        """The options as a plain dict (tuple values thawed to lists)."""
        return {k: _thaw(v) for k, v in self.options}

    def prefixed(self, name: str) -> str:
        """Apply the question label (if any) to a series/finding name."""
        return f"{self.label}_{name}" if self.label else name

    def payload(self) -> dict:
        """JSON-stable content used in the scenario hash."""
        return {"kind": self.kind, "label": self.label,
                "options": _canonical(self.opts)}


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative model/question bundle.

    Parameters
    ----------
    name:
        Registry key and cache namespace (kebab-case by convention).
    title:
        Human-readable one-liner.
    model_factory:
        *Module-level* model constructor (e.g. ``make_sir_model``) —
        module-level so specs shard across processes and hash by
        qualified name.
    model_kwargs:
        Keyword arguments for the factory (the scenario's parameter
        point, including its uncertainty set bounds).
    x0:
        Initial state of the mean-field analyses (and the density the
        finite-``N`` ensembles start from).
    horizon:
        Default transient horizon; individual questions may override it
        through their options.
    questions:
        The :class:`Question` list the runner executes.
    observables:
        Names of the model observables the transient questions target;
        empty means "all declared observables".
    description:
        Longer free text for ``python -m repro describe``.
    tags:
        Free-form labels (``"paper"``, ``"extension"``, ``"fig1"`` ...)
        used by ``list --tag``.
    validity:
        Optional mapping ``kwarg -> (low, high)`` declaring the range
        over which a *scalar* factory kwarg may be perturbed while the
        model stays well-defined.  This is test metadata consumed by
        the conformance harness (:mod:`repro.testing`), which draws
        perturbed variants inside the declared ranges; it is excluded
        from :meth:`payload` so declaring it never invalidates cached
        results.  Keys are validated against the factory signature like
        ``model_kwargs``.
    golden:
        Optional mapping ``finding -> value`` (or ``finding ->
        (value, rtol)``) pinning numeric findings to the figures of the
        source paper.  Like ``validity`` this is conformance-test
        metadata — the harness's ``check_golden`` re-runs the questions
        and compares — and is excluded from :meth:`payload`, so
        declaring pins never invalidates cached results.
    """

    name: str
    title: str
    model_factory: Callable
    x0: Tuple[float, ...]
    horizon: float
    questions: Tuple[Question, ...]
    model_kwargs: Tuple[Tuple[str, object], ...] = ()
    observables: Tuple[str, ...] = ()
    description: str = ""
    tags: Tuple[str, ...] = ()
    validity: Tuple[Tuple[str, object], ...] = ()
    golden: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("scenario needs a non-empty name")
        if not callable(self.model_factory):
            raise TypeError("model_factory must be callable")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(
                f"horizon must be positive and finite, got {self.horizon}"
            )
        x0 = np.asarray(self.x0, float)
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be finite, got {x0.tolist()}")
        object.__setattr__(self, "x0", tuple(float(v) for v in x0))
        object.__setattr__(self, "horizon", float(self.horizon))
        questions = tuple(self.questions)
        if not questions:
            raise ValueError(f"scenario {self.name!r} declares no questions")
        labels = [(q.kind, q.label) for q in questions]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"scenario {self.name!r}: duplicate question kinds need "
                "distinct labels"
            )
        object.__setattr__(self, "questions", questions)
        object.__setattr__(self, "model_kwargs", _freeze(self.model_kwargs))
        object.__setattr__(
            self, "observables", tuple(str(o) for o in self.observables)
        )
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        object.__setattr__(self, "validity", _freeze(self.validity))
        object.__setattr__(self, "golden", _freeze(self.golden))
        self._validate_factory_kwargs()
        self._validate_validity()
        self._validate_golden()

    def _validate_factory_kwargs(self):
        """Reject kwargs the factory does not accept, at construction.

        A typo'd kwarg (``theta_maxx=...``) used to surface only when a
        question first *ran* the factory — possibly minutes into a
        sweep, or never in CI if the spec was only listed.  Specs are
        built at registration (import) time, so checking the signature
        here turns the typo into an immediate, attributable failure.
        Factories whose signature cannot be introspected, or that take
        ``**kwargs``, accept anything.
        """
        try:
            signature = inspect.signature(self.model_factory)
        except (TypeError, ValueError):
            return
        params = list(signature.parameters.values())
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            return
        accepted = {
            p.name for p in params
            if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          inspect.Parameter.KEYWORD_ONLY)
        }
        unknown = sorted(set(self.kwargs) - accepted)
        if unknown:
            raise TypeError(
                f"scenario {self.name!r}: model factory {self.factory_ref} "
                f"does not accept keyword argument(s) {unknown}; accepted "
                f"keywords: {sorted(accepted)}"
            )

    def _validate_validity(self):
        """Check declared validity ranges: known kwargs, ordered bounds."""
        try:
            signature = inspect.signature(self.model_factory)
            params = list(signature.parameters.values())
            accepted = None
            if not any(p.kind is inspect.Parameter.VAR_KEYWORD
                       for p in params):
                accepted = {
                    p.name for p in params
                    if p.kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                  inspect.Parameter.KEYWORD_ONLY)
                }
        except (TypeError, ValueError):
            accepted = None
        for key, bounds in self.validity_ranges.items():
            if accepted is not None and key not in accepted:
                raise TypeError(
                    f"scenario {self.name!r}: validity range declared for "
                    f"{key!r}, which is not a keyword of {self.factory_ref}"
                )
            try:
                low, high = (float(bounds[0]), float(bounds[1]))
            except (TypeError, ValueError, IndexError):
                raise ValueError(
                    f"scenario {self.name!r}: validity range for {key!r} "
                    f"must be a (low, high) pair, got {bounds!r}"
                ) from None
            if not (np.isfinite(low) and np.isfinite(high)) or low > high:
                raise ValueError(
                    f"scenario {self.name!r}: validity range for {key!r} "
                    f"must satisfy low <= high with finite bounds, got "
                    f"({low}, {high})"
                )

    def _validate_golden(self):
        """Check golden pins: finite values, optional positive rtol."""
        for key, pin in self.golden_values.items():
            value, rtol = pin if isinstance(pin, (tuple, list)) else (pin, None)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"scenario {self.name!r}: golden pin for {key!r} must "
                    f"be a number or a (value, rtol) pair, got {pin!r}"
                ) from None
            if not np.isfinite(value):
                raise ValueError(
                    f"scenario {self.name!r}: golden pin for {key!r} must "
                    f"be finite, got {value}"
                )
            if rtol is not None and not (float(rtol) > 0.0):
                raise ValueError(
                    f"scenario {self.name!r}: golden rtol for {key!r} must "
                    f"be positive, got {rtol!r}"
                )

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    @property
    def factory_ref(self) -> str:
        """Qualified ``module:callable`` name of the model factory."""
        return f"{self.model_factory.__module__}:{self.model_factory.__qualname__}"

    @property
    def kwargs(self) -> Dict[str, object]:
        """The factory keyword arguments as a plain dict."""
        return {k: _thaw(v) for k, v in self.model_kwargs}

    @property
    def validity_ranges(self) -> Dict[str, object]:
        """Declared kwarg perturbation ranges as a plain dict."""
        return {k: _thaw(v) for k, v in self.validity}

    @property
    def golden_values(self) -> Dict[str, object]:
        """Declared golden finding pins as a plain dict."""
        return {k: _thaw(v) for k, v in self.golden}

    def build_model(self):
        """Instantiate the population model this scenario declares."""
        return self.model_factory(**self.kwargs)

    # ------------------------------------------------------------------
    # Content hashing (the disk-cache key)
    # ------------------------------------------------------------------

    def payload(self) -> dict:
        """JSON-stable content identifying the scenario's computation.

        The *name* is deliberately excluded: two differently-named specs
        declaring the same computation share a cache entry, and renaming
        a scenario does not invalidate its artifacts.  ``validity`` and
        ``golden`` are excluded too — they are conformance-test
        metadata, not part of the computation, so declaring ranges or
        pins never invalidates caches.
        """
        return {
            "factory": self.factory_ref,
            "model_kwargs": _canonical(self.kwargs),
            "x0": list(self.x0),
            "horizon": self.horizon,
            "observables": list(self.observables),
            "questions": [q.payload() for q in self.questions],
        }

    def spec_hash(self) -> str:
        """Hex content hash of the spec (the disk-cache key)."""
        text = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Derivation & description
    # ------------------------------------------------------------------

    def with_overrides(self, **changes) -> "ScenarioSpec":
        """A derived spec with some fields replaced.

        ``model_kwargs`` overrides are *merged* into the base kwargs
        (pass an explicit value of ``None`` to drop a key); every other
        field replaces wholesale.  Give the variant its own ``name`` to
        keep reports distinguishable — the cache is content-addressed
        either way.
        """
        if "model_kwargs" in changes:
            merged = self.kwargs
            for key, value in dict(changes["model_kwargs"]).items():
                if value is None:
                    merged.pop(key, None)
                else:
                    merged[key] = value
            changes["model_kwargs"] = _freeze(merged)
        return replace(self, **changes)

    def describe(self) -> str:
        """Multi-line human-readable description of the spec."""
        lines = [
            f"{self.name}: {self.title}",
            f"  model:       {self.factory_ref}"
            + (f" {self.kwargs}" if self.kwargs else ""),
            f"  x0:          {self.x0}",
            f"  horizon:     {self.horizon:g}",
            f"  observables: {', '.join(self.observables) or '(all declared)'}",
            f"  tags:        {', '.join(self.tags) or '(none)'}",
            f"  spec hash:   {self.spec_hash()}",
        ]
        if self.validity:
            ranges = ", ".join(
                f"{k} in [{v[0]:g}, {v[1]:g}]"
                for k, v in self.validity_ranges.items()
            )
            lines.append(f"  validity:    {ranges}")
        if self.golden:
            pins = ", ".join(
                f"{k}={v[0]:g} (rtol={v[1]:g})"
                if isinstance(v, (tuple, list)) else f"{k}={v:g}"
                for k, v in self.golden_values.items()
            )
            lines.append(f"  golden:      {pins}")
        lines.append("  questions:")
        for q in self.questions:
            opts = f" {q.opts}" if q.opts else ""
            label = f" [{q.label}]" if q.label else ""
            lines.append(f"    - {q.kind}{label}{opts}")
        if self.description:
            lines.append("  " + self.description.strip().replace("\n", "\n  "))
        return "\n".join(lines)
