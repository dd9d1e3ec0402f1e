"""Tests for the declarative scenario subsystem (repro.scenarios)."""

import json

import numpy as np
import pytest

from repro.__main__ import main as cli_main
from repro.models import make_sir_model
from repro.reporting import ExperimentResult
from repro.scenarios import (
    Question,
    ScenarioSpec,
    cache_path,
    get_scenario,
    list_scenarios,
    run_question,
    run_scenario,
)

#: The Fig. 1 golden pins of tests/test_golden_figures.py — the
#: sir-transient scenario must reproduce them through the pipeline.
FIG1_HORIZONS = np.array([0.5, 1.0, 2.0, 3.0])
FIG1_LOWER_I = np.array(
    [0.048982884308, 0.020967067308, 0.015721987839, 0.016318643199]
)
FIG1_UPPER_I = np.array(
    [0.200374571356, 0.142585013127, 0.157089504406, 0.170538327409]
)


class TestCatalog:
    def test_catalog_has_at_least_eight_scenarios(self):
        specs = list_scenarios()
        assert len(specs) >= 8
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)

    def test_every_scenario_describes_itself(self):
        for spec in list_scenarios():
            text = spec.describe()
            assert spec.name in text
            for q in spec.questions:
                assert q.kind in text

    def test_tag_filter(self):
        paper = list_scenarios(tag="paper")
        assert paper and all("paper" in s.tags for s in paper)
        assert len(paper) < len(list_scenarios())

    def test_new_models_are_catalogued(self):
        names = {s.name for s in list_scenarios()}
        assert {"gossip-spread", "repairable-queue", "cdn-cache",
                "autoscaler", "ttl-cache-fleet",
                "csma-contention"} <= names

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError, match="sir-transient"):
            get_scenario("definitely-not-registered")

    def test_identical_reregistration_is_a_noop(self):
        from repro.scenarios import register_scenario

        spec = get_scenario("sir-transient")
        assert register_scenario(spec) is spec  # no ValueError

    def test_conflicting_registration_raises(self):
        from repro.scenarios import register_scenario
        from repro.scenarios.registry import _REGISTRY

        fresh = get_scenario("sir-transient").with_overrides(
            name="conflict-probe")
        register_scenario(fresh)
        try:
            different = fresh.with_overrides(horizon=9.0)
            with pytest.raises(ValueError, match="already registered"):
                register_scenario(different)
            register_scenario(different, replace=True)
            assert get_scenario("conflict-probe").horizon == 9.0
        finally:
            _REGISTRY.pop("conflict-probe", None)


class TestSpec:
    def test_unknown_question_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown question kind"):
            Question("frobnicate")

    def test_duplicate_kinds_need_labels(self):
        with pytest.raises(ValueError, match="distinct labels"):
            ScenarioSpec(
                name="x", title="t", model_factory=make_sir_model,
                x0=(0.7, 0.3), horizon=1.0,
                questions=(Question("hull"), Question("hull")),
            )

    def test_hash_is_content_addressed_not_name_addressed(self):
        base = get_scenario("sir-transient")
        renamed = base.with_overrides(name="anything-else")
        assert renamed.spec_hash() == base.spec_hash()
        retuned = base.with_overrides(model_kwargs={"theta_max": 12.0})
        assert retuned.spec_hash() != base.spec_hash()
        shortened = base.with_overrides(horizon=2.0)
        assert shortened.spec_hash() != base.spec_hash()

    def test_hash_stable_across_reconstruction(self):
        spec1 = ScenarioSpec(
            name="a", title="t", model_factory=make_sir_model,
            x0=(0.7, 0.3), horizon=1.0,
            model_kwargs={"theta_max": 5.0, "a": 0.1},
            questions=(Question("hull", options={"n_times": 5}),),
        )
        spec2 = ScenarioSpec(
            name="b", title="other", model_factory=make_sir_model,
            x0=[0.7, 0.3], horizon=1.0,
            model_kwargs={"a": 0.1, "theta_max": 5.0},  # different order
            questions=(Question("hull", options={"n_times": 5}),),
        )
        assert spec1.spec_hash() == spec2.spec_hash()

    def test_with_overrides_merges_model_kwargs(self):
        base = get_scenario("sir-steadystate")  # theta_max=4.0
        derived = base.with_overrides(model_kwargs={"theta_min": 2.0})
        assert derived.kwargs == {"theta_max": 4.0, "theta_min": 2.0}
        dropped = derived.with_overrides(model_kwargs={"theta_max": None})
        assert dropped.kwargs == {"theta_min": 2.0}

    def test_question_options_thaw_to_plain_dicts(self):
        q = Question("envelope", options={"times": [0.0, 1.0], "resolution": 3})
        assert q.opts == {"times": [0.0, 1.0], "resolution": 3}

    def test_dict_valued_options_and_kwargs_survive_the_freeze(self):
        q = Question("envelope", options={"nested": {"rtol": 1e-6,
                                                     "grid": [1, 2]}})
        assert q.opts == {"nested": {"rtol": 1e-6, "grid": [1, 2]}}

        # A **kwargs factory: signature validation passes anything
        # through, so arbitrary nested structures round-trip the freeze.
        def var_kwargs_factory(**kwargs):
            return make_sir_model()

        spec = ScenarioSpec(
            name="x", title="t", model_factory=var_kwargs_factory,
            x0=(0.7, 0.3), horizon=1.0,
            model_kwargs={"table": {"a": [1.0, 2.0], "b": {"c": 3}}},
            questions=(Question("hull"),),
        )
        assert spec.kwargs == {"table": {"a": [1.0, 2.0], "b": {"c": 3}}}

    @pytest.mark.parametrize("overrides", [
        {"x0": (float("nan"), 0.3)},
        {"x0": (0.7, float("inf"))},
        {"horizon": float("nan")},
        {"horizon": float("inf")},
    ], ids=["nan-x0", "inf-x0", "nan-horizon", "inf-horizon"])
    def test_non_finite_x0_and_horizon_rejected(self, overrides):
        fields = dict(name="x", title="t", model_factory=make_sir_model,
                      x0=(0.7, 0.3), horizon=1.0,
                      questions=(Question("hull"),))
        fields.update(overrides)
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(**fields)

    def test_typo_kwarg_rejected_at_construction(self):
        with pytest.raises(TypeError, match="theta_mxa"):
            ScenarioSpec(
                name="x", title="t", model_factory=make_sir_model,
                x0=(0.7, 0.3), horizon=1.0,
                model_kwargs={"theta_mxa": 5.0},
                questions=(Question("hull"),),
            )


class TestRunScenario:
    def test_sir_transient_reproduces_fig1_golden_pins(self, tmp_path):
        run = run_scenario("sir-transient", cache_dir=str(tmp_path))
        assert not run.report.cache_hit
        lower = run.result.series["I_imprecise_lower"]
        upper = run.result.series["I_imprecise_upper"]
        np.testing.assert_allclose(lower.times, FIG1_HORIZONS)
        # rtol 3e-4: the default lane-parallel sweep cold-starts every
        # horizon, so one lane stops ~1e-4 relative from the
        # warm-started value the pins were recorded with (see
        # tests/test_golden_figures.py).
        np.testing.assert_allclose(lower.values, FIG1_LOWER_I,
                                   rtol=3e-4, atol=1e-8)
        np.testing.assert_allclose(upper.values, FIG1_UPPER_I,
                                   rtol=3e-4, atol=1e-8)
        # The uncertain envelope sits inside the imprecise bounds.
        env_upper = run.result.series["I_uncertain_upper"]
        for t, hi in zip(FIG1_HORIZONS, upper.values):
            assert env_upper.at(t) <= hi + 1e-6

    def test_second_run_is_a_cache_hit_with_identical_payload(self, tmp_path):
        first = run_scenario("sir-transient", cache_dir=str(tmp_path))
        second = run_scenario("sir-transient", cache_dir=str(tmp_path))
        assert second.report.cache_hit
        assert second.report.cache_hits == 1
        assert second.report.cache_misses == 0
        assert second.report.questions_run == 0
        assert set(second.result.series) == set(first.result.series)
        for name, series in first.result.series.items():
            np.testing.assert_array_equal(series.times,
                                          second.result.series[name].times)
            np.testing.assert_array_equal(series.values,
                                          second.result.series[name].values)
        assert second.result.findings == pytest.approx(first.result.findings)

    def test_override_invalidates_cache(self, tmp_path):
        base = get_scenario("bike-station")
        run_scenario(base, cache_dir=str(tmp_path))
        derived = base.with_overrides(horizon=3.0, questions=(
            Question("pontryagin", options={"horizons": [1.0, 3.0],
                                            "steps_per_unit": 30}),
        ))
        run = run_scenario(derived, cache_dir=str(tmp_path))
        assert not run.report.cache_hit

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        run = run_scenario("bike-station", use_cache=False,
                           cache_dir=str(tmp_path))
        assert not run.report.cache_hit
        assert run.report.cache_path is None
        assert list(tmp_path.glob("*.json")) == []

    def test_corrupt_cache_entry_is_recomputed(self, tmp_path):
        spec = get_scenario("bike-station")
        path = cache_path(spec, str(tmp_path))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json at all")
        run = run_scenario(spec, cache_dir=str(tmp_path))
        assert not run.report.cache_hit
        # ... and the entry was repaired in passing.
        rerun = run_scenario(spec, cache_dir=str(tmp_path))
        assert rerun.report.cache_hit

    def test_parallel_questions_match_serial(self, tmp_path):
        serial = run_scenario("bike-station", use_cache=False)
        parallel = run_scenario("bike-station", use_cache=False, processes=2)
        assert serial.result.findings == pytest.approx(
            parallel.result.findings
        )
        for name, series in serial.result.series.items():
            np.testing.assert_array_equal(
                series.values, parallel.result.series[name].values
            )

    def test_parallel_works_for_unregistered_adhoc_specs(self):
        """The pool payload carries the spec itself, so ad-hoc variants
        shard too (and nothing depends on worker-side registry state)."""
        spec = get_scenario("bike-station").with_overrides(
            name="adhoc-bike-variant", horizon=3.0)
        serial = run_scenario(spec, use_cache=False)
        parallel = run_scenario(spec, use_cache=False, processes=2)
        assert parallel.result.findings == pytest.approx(
            serial.result.findings
        )

    def test_cache_hit_restamps_renamed_variant(self, tmp_path):
        base = get_scenario("bike-station")
        run_scenario(base, cache_dir=str(tmp_path))
        renamed = base.with_overrides(name="bike-renamed",
                                      title="renamed variant")
        hit = run_scenario(renamed, cache_dir=str(tmp_path))
        assert hit.report.cache_hit  # content-addressed: same hash
        assert hit.result.experiment_id == "bike-renamed"
        assert hit.result.title == "renamed variant"

    def test_bike_imprecise_bounds_contain_envelope(self):
        """Regression: coarse Pontryagin grids on the sliding-boundary
        bike model used to report 'exact' bounds tighter than the
        constant-theta envelope."""
        run = run_scenario("bike-station", use_cache=False)
        f = run.result.findings
        slack = 1e-9
        assert (f["occupied_imprecise_max_final"]
                >= f["occupied_uncertain_max_final"] - slack)
        assert (f["occupied_imprecise_min_final"]
                <= f["occupied_uncertain_min_final"] + slack)

    @pytest.mark.slow
    def test_bike_containment_at_example_demand_set(self):
        """The widened demand set of examples/bike_sharing.py: both
        bound families chatter at O(dt) where the drift slides on the
        occupancy boundary, so containment is pinned up to the
        discretisation tolerance (a true inversion shows at 1e-1).
        Tier-2: the wide interval makes the Pontryagin sweeps slow."""
        spec = get_scenario("bike-station").with_overrides(
            name="bike-example-set",
            model_kwargs={"arrival_bounds": [0.6, 1.4],
                          "return_bounds": [0.8, 1.2]},
        )
        f = run_scenario(spec, use_cache=False).result.findings
        chatter = 2.5e-3
        assert (f["occupied_imprecise_max_final"]
                >= f["occupied_uncertain_max_final"] - chatter)
        assert (f["occupied_imprecise_min_final"]
                <= f["occupied_uncertain_min_final"] + chatter)
        # ... and nothing strays meaningfully outside the physical range.
        assert -chatter <= f["occupied_imprecise_min_final"]
        assert f["occupied_imprecise_max_final"] <= 1.0 + chatter

    def test_ensemble_question_is_seed_deterministic(self):
        spec = get_scenario("bike-station")
        question = next(q for q in spec.questions if q.kind == "ensemble")
        a = run_question(spec, question)
        b = run_question(spec, question)
        assert a.findings == b.findings

    def test_dtmc_reward_question_outcome(self):
        """The interval-DTMC backend: bounds ordered, conservative
        against the exact Kolmogorov bounds, series anchored at the
        reward's start-state value."""
        spec = get_scenario("bike-dtmc-reward")
        question = spec.questions[0]
        out = run_question(spec, question)
        f = out.findings
        assert f["dtmc_states"] == 9.0  # N = 8 racks -> 9 occupancies
        assert f["dtmc_occupied_lower_final"] <= f["dtmc_occupied_upper_final"]
        assert f["dtmc_occupied_conservative"] == 1.0
        assert f["dtmc_occupied_time_lower"] <= f["dtmc_occupied_exact_lower"] + 1e-9
        assert f["dtmc_occupied_time_upper"] >= f["dtmc_occupied_exact_upper"] - 1e-9
        assert (f["dtmc_occupied_stationary_lower"]
                <= f["dtmc_occupied_stationary_upper"])
        times, lower = out.series["dtmc_occupied_lower"]
        assert times[0] == 0.0
        assert lower[0] == pytest.approx(0.5)  # reward at the start state
        assert len(times) == int(f["dtmc_steps"]) + 1

    def test_dtmc_reward_catalog_scenarios_registered(self):
        names = {spec.name for spec in list_scenarios(tag="dtmc")}
        assert {"sir-dtmc-reward", "load-balancing-dtmc",
                "bike-dtmc-reward"} <= names

    def test_cache_entry_from_other_library_version_is_stale(
            self, tmp_path, monkeypatch):
        """An upgrade must not keep serving numbers computed by old
        backend code, even for an unchanged spec."""
        run_scenario("bike-station", cache_dir=str(tmp_path))
        import repro
        monkeypatch.setattr(repro, "__version__", "0.0.0-other")
        rerun = run_scenario("bike-station", cache_dir=str(tmp_path))
        assert not rerun.report.cache_hit

    def test_store_leaves_no_temp_debris_and_clear_sweeps_it(self, tmp_path):
        from repro.scenarios import clear_cache

        run_scenario("bike-station", cache_dir=str(tmp_path))
        assert list(tmp_path.glob("*.tmp")) == []
        # Crashed-writer debris carries the store's own mkstemp naming
        # ("<16-hex-hash>-<random>.tmp"); the sweep removes it...
        (tmp_path / ("ab" * 8 + "-x1y2z3.tmp")).write_text("writer debris")
        # ...but an arbitrary user *.tmp in the directory is not ours.
        foreign = tmp_path / "editor-swap.tmp"
        foreign.write_text("keep me")
        clear_cache(str(tmp_path))
        assert list(tmp_path.glob("*")) == [foreign]

    def test_clear_cache_removes_corrupt_entries_but_not_user_files(
            self, tmp_path):
        from repro.scenarios import clear_cache

        corrupt = tmp_path / ("ab" * 8 + ".json")  # hash-named, truncated
        corrupt.write_text("{truncated")
        user_file = tmp_path / "package.json"
        user_file.write_text('{"name": "not-a-cache-entry"}')
        schema_config = tmp_path / "config.json"  # JSON-schema'd config
        schema_config.write_text('{"schema": "http://example/v1", "x": 1}')
        assert clear_cache(str(tmp_path)) == 1
        assert not corrupt.exists()
        assert user_file.exists()
        assert schema_config.exists()

    def test_cli_clear_cache_by_name_drops_aliased_entries(
            self, tmp_path, capsys):
        """Deletion mirrors the content-addressed lookup: the entry that
        would serve a scenario is dropped even when it was stored under
        a renamed variant."""
        base = get_scenario("bike-station")
        run_scenario(base.with_overrides(name="bike-alias"),
                     cache_dir=str(tmp_path))
        assert cli_main(["clear-cache", "bike-station",
                         "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        fresh = run_scenario(base, cache_dir=str(tmp_path))
        assert not fresh.report.cache_hit

    def test_cached_result_roundtrips_through_json(self, tmp_path):
        run = run_scenario("bike-station", cache_dir=str(tmp_path))
        payload = json.loads(
            cache_path(run.spec, str(tmp_path)).read_text()
        )
        rebuilt = ExperimentResult.from_json(payload["result"])
        assert rebuilt.experiment_id == run.result.experiment_id
        assert rebuilt.findings == pytest.approx(run.result.findings)


class TestQuestionOptions:
    """An option no backend reads raises instead of being ignored."""

    # These used to be dropped or mis-reported: the hull answered on its
    # default 13-point grid, the misspelt steps_per_unit fell back to 100
    # steps per unit (minimum 0.0209694 at T = 1 instead of 0.0209852),
    # n_horizons = 0 raised ZeroDivisionError, and x_samples_per_axis
    # selected a slice-sampling path that no catalog question used.
    BAD = [
        pytest.param("hull", {"n_time": 4}, "n_time", id="hull-n_time"),
        pytest.param("pontryagin", {"horizons": [1.0], "steps_per_units": 5},
                     "steps_per_units", id="pontryagin-steps_per_units"),
        pytest.param("pontryagin", {"n_horizons": 0}, "n_horizons",
                     id="pontryagin-n_horizons-0"),
        pytest.param("hull", {"x_samples_per_axis": 3}, "x_samples_per_axis",
                     id="hull-x_samples_per_axis"),
    ]

    @pytest.mark.parametrize("kind, options, key", BAD)
    def test_direct_call_raises_naming_the_key(self, kind, options, key):
        spec = get_scenario("sir-transient")
        with pytest.raises(ValueError, match=key) as excinfo:
            run_question(spec, Question(kind, options=options))
        if key != "n_horizons":
            assert kind in str(excinfo.value)
            assert "accepted options" in str(excinfo.value)

    @pytest.mark.parametrize("kind, options, key", BAD)
    def test_partial_run_reports_a_typed_failure(self, kind, options, key):
        spec = get_scenario("sir-transient").with_overrides(
            name="bad-question-option",
            questions=[Question("envelope", options={"n_times": 4}),
                       Question(kind, options=options, label="bad")],
        )
        run = run_scenario(spec, use_cache=False, on_error="partial")
        assert [f.question for f in run.failures] == [f"{kind}[bad]"]
        assert run.failures[0].error_type == "ValueError"
        assert key in run.failures[0].message
        assert "I_uncertain_max_final" in run.result.findings

    @pytest.mark.parametrize("kind", ["dtmc_reward", "ensemble", "envelope",
                                      "hull", "pontryagin", "steadystate",
                                      "template"])
    def test_every_kind_rejects_an_unknown_key(self, kind):
        from repro.scenarios.runner import _QUESTION_OPTIONS

        spec = get_scenario("sir-transient")
        with pytest.raises(ValueError) as excinfo:
            run_question(spec, Question(kind, options={"not_an_option": 1}))
        message = str(excinfo.value)
        assert message.startswith(
            f"{kind} question: unknown option(s) ['not_an_option']")
        assert str(sorted(_QUESTION_OPTIONS[kind])) in message

    @pytest.mark.parametrize("options", [
        {"times": [0.0, float("nan")]},
        {"times": [0.0, float("inf")]},
        {"times": [1.0, 0.5]},
        {"n_times": 1},
    ], ids=["times-nan", "times-inf", "times-decreasing", "n_times-1"])
    def test_hull_question_rejects_a_bad_time_grid(self, options):
        # A NaN end time used to hang the hull integrator, an infinite
        # one to answer a rectangle of -inf / +inf, and a one-point grid
        # to raise AttributeError.
        spec = get_scenario("sir-transient")
        with pytest.raises(ValueError, match="t_eval"):
            run_question(spec, Question("hull", options=options))

    def test_every_catalog_option_is_read(self):
        from repro.scenarios.runner import _QUESTION_OPTIONS

        for spec in list_scenarios():
            for q in spec.questions:
                assert set(q.opts) <= set(_QUESTION_OPTIONS[q.kind]), (
                    spec.name, q.kind, q.opts)


class TestCountOptions:
    """A count option is a finite integer: a fractional or non-finite
    value raises instead of being truncated, and an integral float such
    as 3.0 reads as 3."""

    # Each used to be truncated by int(): n_horizons 2.9 answered at the
    # two horizons 1.5 and 3.0, n_times 3.7 at three envelope times,
    # population_size 10.5 built the N = 10 chain (66 states); max_iter
    # 2.5 (and even 3.0) failed deep in the sweep with a TypeError.
    COUNTS = [
        pytest.param(kind, key, id=f"{kind}-{key}")
        for kind, keys in (
            ("envelope", ("n_times", "resolution")),
            ("pontryagin", ("n_horizons", "max_iter")),
            ("hull", ("n_times",)),
            ("template", ("n_steps", "max_iter")),
            ("steadystate", ("max_rounds", "fp_resolution")),
            ("ensemble", ("resolution", "population_size", "n_samples",
                          "n_runs", "seed")),
            ("dtmc_reward", ("population_size", "max_states", "steps",
                             "stationary_max_iter", "n_steps")),
        )
        for key in keys
    ]

    @pytest.mark.parametrize("value", [2.9, 10.5, np.nan, np.inf, "3"])
    @pytest.mark.parametrize("kind, key", COUNTS)
    def test_direct_call_raises_naming_the_key(self, kind, key, value):
        spec = get_scenario("sir-transient")
        with pytest.raises(ValueError) as excinfo:
            run_question(spec, Question(kind, options={key: value}))
        assert str(excinfo.value) == (
            f"{kind} option {key} must be a finite integer, got {value!r}")

    @pytest.mark.parametrize("kind, key", COUNTS)
    def test_partial_run_reports_a_typed_failure(self, kind, key):
        spec = get_scenario("sir-transient").with_overrides(
            name="fractional-count-option",
            questions=[Question("envelope", options={"n_times": 4}),
                       Question(kind, options={key: 2.5}, label="bad")],
        )
        run = run_scenario(spec, use_cache=False, on_error="partial")
        assert [f.question for f in run.failures] == [f"{kind}[bad]"]
        assert run.failures[0].error_type == "ValueError"
        assert f"option {key} must be a finite integer" in (
            run.failures[0].message)
        assert "I_uncertain_max_final" in run.result.findings

    def test_integral_floats_read_as_integers(self):
        spec = get_scenario("sir-transient")
        as_float = run_question(spec, Question(
            "pontryagin", options={"horizons": [0.5], "max_iter": 3.0}))
        as_int = run_question(spec, Question(
            "pontryagin", options={"horizons": [0.5], "max_iter": 3}))
        assert as_float.findings == as_int.findings
        envelope = run_question(spec, Question("envelope",
                                               options={"n_times": 3.0}))
        times, _ = envelope.series["I_uncertain_upper"]
        np.testing.assert_array_equal(times, [0.0, 1.5, 3.0])

    @pytest.mark.parametrize("key, value", [("population_size", 200.7),
                                            ("n_samples", 10.9),
                                            ("max_events", 1e6 + 0.5),
                                            ("n_runs", 4.0)])
    def test_sweep_rejects_fractional_counts(self, key, value):
        from repro.engine import sweep_constant_ensembles

        kwargs = dict(x0=[0.7, 0.3], population_size=200, thetas=[3.0],
                      t_final=0.5, n_runs=2, n_samples=10)
        kwargs[key] = value
        with pytest.raises(TypeError, match=f"{key} must be an integer"):
            sweep_constant_ensembles(make_sir_model, **kwargs)


class TestCLI:
    def test_list_shows_catalog(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sir-transient" in out
        assert out.count("\n") >= 8

    def test_list_tag_filter(self, capsys):
        assert cli_main(["list", "--tag", "new-model"]) == 0
        out = capsys.readouterr().out
        assert "gossip-spread" in out
        assert "sir-transient" not in out

    def test_describe(self, capsys):
        assert cli_main(["describe", "cdn-cache"]) == 0
        out = capsys.readouterr().out
        assert "make_cdn_cache_model" in out
        assert "spec hash" in out

    def test_describe_unknown_is_an_error(self, capsys):
        assert cli_main(["describe", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_twice_reports_cache_hit(self, tmp_path, capsys):
        args = ["run", "bike-station", "--cache-dir", str(tmp_path)]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "cache_hit=false" in first
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "cache_hit=true" in second
        assert "hits=1" in second

    def test_run_refresh_recomputes_despite_renamed_cache_entry(
            self, tmp_path, capsys):
        """--refresh unlinks by content hash, so it drops the entry even
        when it was stored under a different scenario name."""
        base = get_scenario("bike-station")
        renamed = base.with_overrides(name="bike-alias")
        run_scenario(renamed, cache_dir=str(tmp_path))  # same content hash
        run = run_scenario(base, cache_dir=str(tmp_path))
        assert run.report.cache_hit  # sanity: the alias entry serves base
        assert cli_main(["run", "bike-station", "--refresh",
                         "--cache-dir", str(tmp_path)]) == 0
        assert "cache_hit=false" in capsys.readouterr().out

    def test_clear_cache(self, tmp_path, capsys):
        cli_main(["run", "bike-station", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        assert cli_main(["clear-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert list(tmp_path.glob("*.json")) == []
