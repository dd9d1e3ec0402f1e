"""Chaos suite for the resilience layer (repro.resilience).

Every recovery path the tentpole added is *proved* here by injecting
deterministic faults (:mod:`repro.resilience.faults`) and asserting the
exact degraded behaviour:

- shard execution (:func:`repro.engine.map_shards`): retries with the
  pinned backoff schedule, per-shard timeouts reclaiming hung workers,
  pool-death recovery with quarantine blame, typed :class:`ShardFailure`
  slots under ``on_error="partial"``, serial fallback when pools are
  unavailable;
- per-question isolation in :func:`repro.scenarios.run_scenario`:
  survivors merge, failures carry a taxonomy, partial results are never
  cached, the CLI maps completeness to exit codes;
- numerical degradation: per-lane retirement in ``dopri_batch`` and
  deadline-bounded Pontryagin sweeps returning best-so-far bounds;
- the cache's transient-store retry and corrupt-entry tolerance;
- the no-fault guarantees: retry policies leave healthy results
  bit-identical, and disarmed fault seams cost provably nothing.

Numerical caveat pinned here once: after a lane retires mid-run, the
*surviving* lanes may differ from an all-healthy run by ~1 ULP because
BLAS reduction order depends on the active-stack shape.  Surviving-lane
comparisons under faults therefore use ``allclose(rtol=1e-14)``; exact
``array_equal`` is reserved for no-fault flag-on/flag-off comparisons.
"""

import threading

import numpy as np
import pytest

from repro import telemetry
from repro.engine import map_shards, sweep_constant_ensembles
from repro.models import make_sir_model
from repro.ode.batch import dopri_batch
from repro.bounds.pontryagin import pontryagin_transient_bounds
from repro.resilience import (
    FAILURE_KINDS,
    QuestionFailure,
    RetryPolicy,
    ShardFailure,
    faults,
)
from repro.resilience import execution
from repro.scenarios import (
    Question,
    cache_path,
    clear_cache,
    get_scenario,
    run_scenario,
)
from repro.scenarios.cache import load_cached_detail, store_result
from repro.scenarios.registry import _REGISTRY, register_scenario
from repro.__main__ import main as cli_main


def _double(x):
    return 2 * x


@pytest.fixture
def telemetry_on():
    telemetry.enable()
    telemetry.clear()
    yield
    telemetry.clear()
    telemetry.disable()


@pytest.fixture
def fresh_faults():
    faults.reset_stats()
    yield
    faults.reset_stats()


def _counters():
    return telemetry.snapshot()["counters"]


# ----------------------------------------------------------------------
# RetryPolicy: validation and the deterministic backoff schedule
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(on_error="explode")
        with pytest.raises(ValueError):
            RetryPolicy(max_pool_rebuilds=0)

    def test_backoff_schedule_is_pure_and_capped(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.05,
                             backoff_factor=2.0, backoff_max=0.15)
        assert policy.backoff_schedule() == (0.05, 0.1, 0.15, 0.15)
        assert policy.backoff_delay(1) == 0.05
        with pytest.raises(ValueError):
            policy.backoff_delay(0)

    def test_failure_records(self):
        with pytest.raises(ValueError):
            ShardFailure(index=0, error_type="X", message="m",
                         kind="meteor", attempts=1, elapsed_seconds=0.0)
        f = ShardFailure(index=3, error_type="ValueError", message="bad",
                         kind="timeout", attempts=2, elapsed_seconds=1.25)
        assert "shard 3" in f.describe() and "timeout" in f.describe()
        q = QuestionFailure(scenario="s", kind="envelope", label="a",
                            error_type="ValueError", message="bad",
                            attempts=1, elapsed_seconds=0.1)
        assert q.question == "envelope[a]"
        assert "envelope[a]" in q.describe()
        assert set(FAILURE_KINDS) == {"error", "timeout", "pool-crash"}


# ----------------------------------------------------------------------
# Fault plans: determinism, arming, zero disarmed cost
# ----------------------------------------------------------------------

class TestFaultPlans:
    def test_spec_normalisation_and_precedence(self):
        with faults.inject(crash_shard={2: 1, 7: -1}, hang_shard=(2, 3),
                           kill_shard=2) as plan:
            # kill > hang > crash for a shard named in several lists.
            assert plan.shard_fault(2, 1) == "kill"
            assert plan.shard_fault(7, 99) == "crash"
            assert plan.shard_fault(5, 1) is None
            # Attempt-bounded entries stop faulting past their count.
            assert plan.shard_fault(7, 1) == "crash"
        with faults.inject(crash_shard={3: 1}) as plan:
            assert plan.shard_fault(3, 1) == "crash"
            assert plan.shard_fault(3, 2) is None
        with pytest.raises(TypeError):
            faults.inject(crash_shard="nope").__enter__()

    def test_disarmed_is_one_global_load(self, fresh_faults):
        assert not faults.armed()
        assert faults.active_plan() is None
        # Disarmed seam checks are not even tallied: the accounting
        # itself lives behind the armed branch.
        assert faults.stats()["seam_checks"] == 0
        assert faults.stats()["injected"] == 0

    def test_armed_seam_tally(self, fresh_faults):
        with faults.inject(corrupt_cache=True):
            assert faults.armed()
            faults.active_plan()
            faults.active_plan()
        assert not faults.armed()
        assert faults.stats()["seam_checks"] == 2

    def test_kill_degrades_to_crash_without_parent(self, fresh_faults):
        # In the test process itself (no multiprocessing parent) a kill
        # fault must not os._exit the interpreter.
        plan = faults.FaultPlan(kill_shards=((0, -1),))
        with pytest.raises(faults.InjectedFault):
            faults.apply_shard_fault(plan, 0, 1)
        assert faults.stats()["injected.kill"] == 1


# ----------------------------------------------------------------------
# Robust shard execution: serial path
# ----------------------------------------------------------------------

class TestSerialRobust:
    def test_no_fault_retry_policy_is_bit_identical(self):
        payloads = list(range(8))
        fail_fast = map_shards(_double, payloads)
        retrying = map_shards(_double, payloads, policy=RetryPolicy())
        assert fail_fast == retrying == [2 * p for p in payloads]

    def test_default_policy_fails_fast(self, fresh_faults):
        # One attempt, and the shard's own exception reaches the caller.
        with faults.inject(crash_shard={1: 1}):
            with pytest.raises(faults.InjectedFault):
                map_shards(_double, [0, 1, 2])
        assert faults.stats()["injected.crash"] == 1

    def test_crash_once_is_retried_to_success(self, fresh_faults):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0)
        with faults.inject(crash_shard={1: 1}):
            out = map_shards(_double, [0, 1, 2], policy=policy)
        assert out == [0, 2, 4]
        assert faults.stats()["injected.crash"] == 1

    def test_exhausted_shard_becomes_typed_failure(self, fresh_faults):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="partial")
        with faults.inject(crash_shard=1):
            out = map_shards(_double, [0, 1, 2], policy=policy)
        assert out[0] == 0 and out[2] == 4
        failure = out[1]
        assert isinstance(failure, ShardFailure)
        assert failure.index == 1
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert failure.error_type == "InjectedFault"

    def test_on_error_raise_propagates_final_error(self, fresh_faults):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="raise")
        with faults.inject(crash_shard=1):
            with pytest.raises(faults.InjectedFault):
                map_shards(_double, [0, 1, 2], policy=policy)

    def test_backoff_schedule_hits_the_sleep_seam(self, fresh_faults,
                                                  monkeypatch):
        slept = []
        monkeypatch.setattr(execution, "_sleep", slept.append)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.05,
                             backoff_factor=2.0, backoff_max=2.0,
                             on_error="partial")
        with faults.inject(crash_shard=0):
            map_shards(_double, [0], policy=policy)
        # One delay per retry, following the pinned schedule exactly.
        assert slept == [0.05, 0.1]

    def test_resilience_counters_stamped(self, fresh_faults, telemetry_on):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="partial")
        with faults.inject(crash_shard=1):
            map_shards(_double, [0, 1, 2], policy=policy)
        counters = _counters()
        assert counters["resilience.shard.errors"] == 2
        assert counters["resilience.shard.retries"] == 1
        assert counters["resilience.shard.failures"] == 1


# ----------------------------------------------------------------------
# Robust shard execution: pool path
# ----------------------------------------------------------------------

class TestPoolRobust:
    def test_acceptance_one_crashed_one_hung_of_sixteen(self, fresh_faults):
        # The ISSUE's acceptance scenario: a 16-shard sweep with one
        # shard crashing once (recovers on retry) and one hanging on
        # every attempt (exhausts its timeout budget) yields 15 real
        # results and exactly one typed failure, in input order.
        payloads = list(range(16))
        policy = RetryPolicy(max_attempts=2, timeout_seconds=0.4,
                             backoff_base=0.0, on_error="partial")
        with faults.inject(crash_shard={11: 1}, hang_shard=5,
                           hang_seconds=30.0):
            out = map_shards(_double, payloads, processes=4, policy=policy)
        assert len(out) == 16
        for i in range(16):
            if i == 5:
                continue
            assert out[i] == 2 * i
        failure = out[5]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_killed_worker_recovers_via_rebuild(self, fresh_faults,
                                                telemetry_on):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="partial")
        with faults.inject(kill_shard={2: 1}):
            out = map_shards(_double, list(range(6)), processes=2,
                             policy=policy)
        assert out == [2 * p for p in range(6)]
        counters = _counters()
        assert counters["resilience.shard.pool_crashes"] >= 1
        assert counters["resilience.shard.pool_rebuilds"] >= 1

    def test_perma_killed_shard_blamed_in_quarantine(self, fresh_faults):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="partial")
        with faults.inject(kill_shard=3):
            out = map_shards(_double, list(range(6)), processes=2,
                             policy=policy)
        failure = out[3]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "pool-crash"
        for i in (0, 1, 2, 4, 5):
            assert out[i] == 2 * i

    def test_worker_count_invariance_under_faults(self, fresh_faults):
        policy = RetryPolicy(max_attempts=2, backoff_base=0.0,
                             on_error="partial")
        outs = []
        for processes in (None, 3):
            with faults.inject(crash_shard={0: 1, 4: -1}):
                outs.append(map_shards(_double, list(range(6)),
                                       processes=processes, policy=policy))
        serial, pooled = outs
        for i in range(6):
            if i == 4:
                continue
            assert serial[i] == pooled[i] == 2 * i
        # The failure records agree on everything deterministic.
        assert serial[4].kind == pooled[4].kind == "error"
        assert serial[4].attempts == pooled[4].attempts == 2
        assert serial[4].error_type == pooled[4].error_type

    def test_pool_unavailable_degrades_to_serial(self, monkeypatch):
        def broken_executor(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(execution, "ProcessPoolExecutor",
                            broken_executor)
        monkeypatch.setattr(execution, "_pool_warned", False)
        with pytest.warns(RuntimeWarning, match="running shards serially"):
            out = map_shards(_double, list(range(4)), processes=4)
        assert out == [0, 2, 4, 6]
        # The warning fires once per process; later sweeps stay quiet.
        out = map_shards(_double, list(range(4)), processes=4,
                         policy=RetryPolicy())
        assert out == [0, 2, 4, 6]


# ----------------------------------------------------------------------
# Sweep integration: the engine front door forwards the policy
# ----------------------------------------------------------------------

class TestSweepPolicy:
    def test_sweep_partial_marks_failed_grid_point(self, fresh_faults):
        policy = RetryPolicy(max_attempts=1, on_error="partial")
        with faults.inject(crash_shard=1):
            results = sweep_constant_ensembles(
                make_sir_model, [0.7, 0.3], 60, [2.0, 4.0, 6.0],
                t_final=0.5, n_runs=2, seed=7, n_samples=5,
                policy=policy,
            )
        assert isinstance(results[1], ShardFailure)
        for i in (0, 2):
            assert not isinstance(results[i], ShardFailure)
            assert results[i].states.shape[0] == 2


# ----------------------------------------------------------------------
# Scenario runner: per-question isolation
# ----------------------------------------------------------------------

def _partial_spec(name):
    base = get_scenario("sir-transient")
    return base.with_overrides(
        name=name,
        questions=[
            Question("envelope", options={"n_times": 4}),
            Question("envelope", options={"n_times": 6}, label="fine"),
            Question("template", options={"family": "bogus"}, label="bad"),
        ],
    )


class TestQuestionIsolation:
    def test_acceptance_partial_run_isolates_and_never_caches(
            self, tmp_path, telemetry_on):
        # The ISSUE's second acceptance scenario: 3 questions, one
        # raising backend -> two merged outcomes, a failure taxonomy,
        # and nothing written to the cache.
        spec = _partial_spec("resilience-partial")
        run = run_scenario(spec, cache_dir=tmp_path, on_error="partial")

        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.question == "template[bad]"
        assert failure.error_type == "ValueError"

        # Both envelope questions merged their series/findings.
        assert any(k.startswith("fine_") for k in run.result.series)
        assert "I_uncertain_max_final" in run.result.findings

        # Taxonomy + flags everywhere a partial result can be seen.
        assert run.report.questions_failed == 1
        assert run.report.metrics["scenarios.questions.failed"] == 1
        assert run.report.metrics[
            "resilience.question_failure.ValueError"] == 1
        assert run.result.parameters["partial"] is True
        assert any("template[bad]" in n for n in run.result.notes)
        assert "failed=1" in run.report.render()
        assert _counters()["resilience.question_failures"] == 1

        # Partial results are never cached: the next run must get the
        # chance to compute the missing question.
        assert not cache_path(spec, tmp_path).exists()
        rerun = run_scenario(spec, cache_dir=tmp_path, on_error="partial")
        assert rerun.report.metrics["scenarios.cache.hits"] == 0

    @pytest.mark.parametrize("options", [
        {"horizons": []},
        {"horizons": [float("nan")]},
        {"max_iter": 0},
        {"tol": float("nan")},
        {"tol": -1e-7},
        {"steps_per_unit": float("nan")},
        {"steps_per_unit": float("inf")},
        {"steps_per_unit": 0.0},
        {"min_steps": float("nan")},
        {"min_steps": float("inf")},
        {"min_steps": 2.5},
        {"min_steps": 1},
    ], ids=["empty-ladder", "nan-horizon", "max_iter-0", "nan-tol",
            "negative-tol", "nan-steps_per_unit", "inf-steps_per_unit",
            "zero-steps_per_unit", "nan-min_steps", "inf-min_steps",
            "fractional-min_steps", "one-min_steps"])
    def test_bad_pontryagin_ladder_is_a_typed_failure(self, options):
        # An empty ladder used to "succeed" with no findings at all;
        # max_iter=0 reported I in [0.0200, 0.0200] at T = 2 (the true
        # bounds are [0.0157, 0.1571]) and a NaN tol a non-conservative
        # upper bound, both as complete runs.  A NaN steps_per_unit
        # failed on an int conversion, inf overflowed and zero fell back
        # to min_steps silently; a NaN or infinite min_steps failed the
        # same way, and 2.5 ran 2 intervals.  The failure names the bad
        # option.
        spec = get_scenario("sir-transient").with_overrides(
            name="resilience-bad-ladder",
            questions=[
                Question("envelope", options={"n_times": 4}),
                Question("pontryagin", options=options, label="bad"),
            ],
        )
        run = run_scenario(spec, use_cache=False, on_error="partial")
        assert [f.question for f in run.failures] == ["pontryagin[bad]"]
        assert isinstance(run.failures[0], QuestionFailure)
        assert run.failures[0].error_type == "ValueError"
        assert f"{next(iter(options))} must" in run.failures[0].message
        assert "I_uncertain_max_final" in run.result.findings

    def test_on_error_raise_keeps_legacy_semantics(self, tmp_path):
        spec = _partial_spec("resilience-raise")
        with pytest.raises(ValueError, match="bogus"):
            run_scenario(spec, cache_dir=tmp_path)
        assert not cache_path(spec, tmp_path).exists()

    def test_question_retry_policy(self, tmp_path, monkeypatch):
        # The serial shard loop replays a question exactly
        # retry.max_attempts times with the policy's backoff.
        slept = []
        monkeypatch.setattr(execution, "_sleep", slept.append)
        spec = _partial_spec("resilience-retried")
        retry = RetryPolicy(max_attempts=3, backoff_base=0.01,
                            backoff_factor=2.0)
        run = run_scenario(spec, cache_dir=tmp_path, use_cache=False,
                           on_error="partial", retry=retry)
        assert len(run.failures) == 1
        assert run.failures[0].attempts == 3
        assert slept == [0.01, 0.02]

    def test_parallel_partial_run(self, tmp_path):
        spec = _partial_spec("resilience-parallel")
        run = run_scenario(spec, cache_dir=tmp_path, use_cache=False,
                           processes=2, on_error="partial")
        assert len(run.failures) == 1
        assert run.failures[0].question == "template[bad]"
        assert "I_uncertain_max_final" in run.result.findings

    def test_retrying_healthy_run_matches_default(self, tmp_path):
        base = get_scenario("sir-transient")
        spec = base.with_overrides(
            name="resilience-healthy",
            questions=[Question("envelope", options={"n_times": 4})],
        )
        default = run_scenario(spec, use_cache=False)
        retrying = run_scenario(spec, use_cache=False, on_error="partial",
                                retry=RetryPolicy(max_attempts=2))
        assert retrying.failures == []
        assert default.result.findings == retrying.result.findings
        for name, series in default.result.series.items():
            twin = retrying.result.series[name]
            assert np.array_equal(series.times, twin.times)
            assert np.array_equal(series.values, twin.values)


# ----------------------------------------------------------------------
# CLI: exit codes for partial/total failure
# ----------------------------------------------------------------------

class TestCliOnError:
    def _register(self, spec):
        register_scenario(spec)
        return spec.name

    def test_exit_codes(self, tmp_path):
        base = get_scenario("sir-transient")
        healthy = base.with_overrides(
            name="cli-resilience-healthy",
            questions=[Question("envelope", options={"n_times": 4})],
        )
        partial = _partial_spec("cli-resilience-partial")
        doomed = base.with_overrides(
            name="cli-resilience-doomed",
            questions=[Question("template", options={"family": "bogus"})],
        )
        names = [self._register(s) for s in (healthy, partial, doomed)]
        try:
            args = ["--cache-dir", str(tmp_path), "--no-cache",
                    "--on-error", "partial"]
            assert cli_main(["run", names[0], *args]) == 0
            assert cli_main(["run", names[1], *args]) == 3
            assert cli_main(["run", names[2], *args]) == 4
            with pytest.raises(ValueError):
                cli_main(["run", names[1], "--cache-dir", str(tmp_path),
                          "--no-cache"])
        finally:
            for name in names:
                _REGISTRY.pop(name, None)


# ----------------------------------------------------------------------
# ODE core: per-lane retirement
# ----------------------------------------------------------------------

class TestLaneRetirement:
    def _solve(self, retire, telemetry_expected=False):
        f = lambda t, X: -X
        x0 = np.ones((3, 2))
        t_eval = np.linspace(0.0, 2.0, 9)
        return dopri_batch(f, x0, (0.0, 2.0), t_eval=t_eval,
                           rtol=1e-10, atol=1e-12,
                           retire_failed_lanes=retire)

    def test_no_fault_flag_is_bit_identical(self):
        off = self._solve(retire=False)
        on = self._solve(retire=True)
        assert np.array_equal(off.states, on.states)
        assert np.array_equal(off.times, on.times)
        assert on.stats["lane_failures"] == []

    def test_poisoned_lane_retires_survivors_continue(self, fresh_faults,
                                                      telemetry_on):
        healthy = self._solve(retire=True)
        with faults.inject(poison_nan=(1, 3)):
            sol = self._solve(retire=True)
        records = sol.stats["lane_failures"]
        assert len(records) == 1
        assert records[0]["lane"] == 1
        assert records[0]["reason"] == "non-finite-state"
        assert records[0]["accepted"] >= 3
        # Survivors match the all-healthy run up to BLAS reduction-order
        # noise (~1 ULP; see module docstring).
        for lane in (0, 2):
            assert np.allclose(sol.states[lane], healthy.states[lane],
                               rtol=1e-14, atol=0)
        # Survivors stay finite end to end.  (The poisoned lane's tail
        # holds its frozen state, which the injection itself made NaN —
        # a genuine non-finite *step* would freeze the last accepted
        # finite state instead.)
        assert np.isfinite(sol.states[[0, 2]]).all()
        assert _counters()["resilience.ode.lane_failures"] == 1

    def test_without_flag_poison_still_raises(self, fresh_faults):
        # A NaN state surfaces either as the non-finite guard or as a
        # step-size collapse, depending on where the controller trips
        # first — both abort loudly without the opt-in flag.
        with faults.inject(poison_nan=(1, 3)):
            with pytest.raises(RuntimeError,
                               match="non-finite|step size collapsed"):
                self._solve(retire=False)


# ----------------------------------------------------------------------
# Pontryagin: deadline-bounded sweeps
# ----------------------------------------------------------------------

class TestPontryaginDeadline:
    def test_deadline_returns_best_so_far(self, telemetry_on):
        model = make_sir_model()
        x0 = np.array([0.7, 0.3])
        horizons = np.array([0.5, 1.0])
        # The batch sweep stops iterating, keeps its best-so-far
        # trajectories and reports non-convergence.
        tight = pontryagin_transient_bounds(
            model, x0, horizons, observables=["I"], deadline_seconds=1e-9)
        assert tight.converged is False
        assert np.isfinite(tight.lower["I"]).all()
        assert _counters()["resilience.pontryagin.deadline_hits"] >= 1

    def test_generous_deadline_matches_unbounded(self):
        model = make_sir_model()
        x0 = np.array([0.7, 0.3])
        horizons = np.array([0.5, 1.0])
        free = pontryagin_transient_bounds(model, x0, horizons,
                                           observables=["I"])
        assert free.converged is True
        bounded = pontryagin_transient_bounds(
            model, x0, horizons, observables=["I"], deadline_seconds=120.0)
        assert bounded.converged is True
        assert np.array_equal(free.lower["I"], bounded.lower["I"])
        assert np.array_equal(free.upper["I"], bounded.upper["I"])


# ----------------------------------------------------------------------
# Cache: transient store retry, corruption tolerance, thread hammering
# ----------------------------------------------------------------------

class TestCacheResilience:
    def _spec(self):
        return get_scenario("sir-transient").with_overrides(
            name="resilience-cache",
            questions=[Question("envelope", options={"n_times": 4})],
        )

    def test_transient_store_error_is_retried(self, tmp_path, fresh_faults,
                                              telemetry_on):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        with faults.inject(cache_store_errors=1):
            path = store_result(spec, run.result, tmp_path)
        assert path.exists()
        assert _counters()["resilience.cache.store_retries"] == 1
        assert faults.stats()["injected.cache-store-error"] == 1
        result, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"

    def test_persistent_store_error_raises(self, tmp_path, fresh_faults):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        with faults.inject(cache_store_errors=2):
            with pytest.raises(OSError, match="injected"):
                store_result(spec, run.result, tmp_path)
        # No debris: every temp file was cleaned up on failure.
        assert list(tmp_path.glob("*.tmp")) == []

    def test_corrupt_cache_injection_forces_miss(self, tmp_path,
                                                 fresh_faults):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        store_result(spec, run.result, tmp_path)
        _, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"
        with faults.inject(corrupt_cache=True):
            result, reason = load_cached_detail(spec, tmp_path)
        assert result is None and reason == "corrupt"
        # Disarmed again, the same entry is served.
        _, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"

    def test_two_threads_hammering_one_spec(self, tmp_path):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        errors = []

        def hammer():
            for _ in range(25):
                try:
                    store_result(spec, run.result, tmp_path)
                except OSError:
                    # A racing clear_cache can sweep both temp files of
                    # one store; the retry bound makes that an OSError,
                    # never anything worse.
                    pass
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for t in threads:
            t.start()
        for _ in range(10):
            clear_cache(tmp_path)
        for t in threads:
            t.join()
        assert errors == []
        # The cache still works after the stampede.
        store_result(spec, run.result, tmp_path)
        _, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"
        assert list(tmp_path.glob("*.tmp")) == []
