"""Failure isolation (repro.resilience).

Every fan-out runs each shard once under ``on_error="raise"|"partial"``.
This suite pins what each path does with a failure that really happens
(a raising payload, a worker that dies, a drift that turns NaN, a
corrupt or unwritable cache entry):

- shard execution (:func:`repro.engine.map_shards`): the pool path
  submits every shard up front and the parent sleeps while the workers
  run; ``"raise"`` propagates the lowest-index error on every worker
  count; a dead worker leaves typed ``pool-crash`` slots and no worker
  outlives the call; a pool that cannot be built degrades to serial;
- per-question isolation in :func:`repro.scenarios.run_scenario`:
  survivors merge, failures carry a taxonomy, partial results are never
  cached, the CLI maps completeness to exit codes;
- numerical degradation: per-lane retirement in ``dopri_batch`` and
  deadline-bounded Pontryagin sweeps returning best-so-far bounds;
- the cache's transient-store retry and corrupt-entry tolerance.

Numerical caveat pinned here once: after a lane retires mid-run, the
*surviving* lanes may differ from an all-healthy run by ~1 ULP because
BLAS reduction order depends on the active-stack shape.  Surviving-lane
comparisons therefore use ``allclose(rtol=1e-14)``.
"""

import multiprocessing
import os
import pathlib
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import telemetry
from repro.engine import map_shards
from repro.models import make_sir_model
from repro.params import Interval
from repro.population import PopulationModel, Transition
from repro.ode.batch import dopri_batch
from repro.bounds.pontryagin import pontryagin_transient_bounds
from repro.resilience import FAILURE_KINDS, QuestionFailure, ShardFailure
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


def _raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return 2 * x


def _nap_then_square(x):
    time.sleep(0.1)
    return x * x


def _payloads_1_and_3_raise(x):
    # Payload 1 naps first, so on a pool payload 3 fails first.
    if x == 1:
        time.sleep(0.3)
        raise ValueError("payload 1")
    if x == 3:
        raise KeyError("payload 3")
    return x


def _worker_dies_on_2(x):
    if x == 2:
        os._exit(1)
    time.sleep(0.05)
    return 2 * x


@pytest.fixture
def telemetry_on():
    telemetry.enable()
    telemetry.clear()
    yield
    telemetry.clear()
    telemetry.disable()


def _counters():
    return telemetry.snapshot()["counters"]


def _assert_no_worker_outlives_the_call(timeout=10.0):
    """The pool's workers were killed; give the OS a moment to reap."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        assert time.monotonic() < deadline, multiprocessing.active_children()
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Typed failure records
# ----------------------------------------------------------------------

class TestFailureRecords:
    def test_failure_records(self):
        with pytest.raises(ValueError):
            ShardFailure(index=0, error_type="X", message="m",
                         kind="meteor", elapsed_seconds=0.0)
        f = ShardFailure(index=3, error_type="BrokenProcessPool",
                         message="bad", kind="pool-crash",
                         elapsed_seconds=1.25)
        assert "shard 3" in f.describe() and "pool-crash" in f.describe()
        q = QuestionFailure(scenario="s", kind="envelope", label="a",
                            error_type="ValueError", message="bad",
                            elapsed_seconds=0.1)
        assert q.question == "envelope[a]"
        assert "envelope[a]" in q.describe()
        assert FAILURE_KINDS == ("error", "pool-crash")

    def test_partial_counters_stamped(self, telemetry_on):
        out = map_shards(_raise_on_odd, [0, 1, 2], on_error="partial")
        assert out[0] == 0 and out[2] == 4
        counters = _counters()
        assert counters["resilience.shard.errors"] == 1
        assert counters["resilience.shard.failures"] == 1

    def test_unknown_on_error_is_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            map_shards(_double, [0, 1], on_error="retry")


# ----------------------------------------------------------------------
# The pool path
# ----------------------------------------------------------------------

class TestPoolPath:
    def test_parent_sleeps_while_the_workers_run(self):
        # Eight 0.1 s shards on two workers: a parent that waits for a
        # free worker by polling burns about 0.4 s of CPU here; one that
        # submits everything and blocks on the futures, about 0.01 s.
        cpu = time.process_time()
        out = map_shards(_nap_then_square, list(range(8)), processes=2)
        cpu = time.process_time() - cpu
        assert out == [x * x for x in range(8)]
        assert cpu < 0.1

    @pytest.mark.parametrize("processes", [None, 2])
    def test_raise_propagates_the_lowest_index_error(self, processes):
        # Payload 3 fails first on a pool, but the error raised is the
        # one the serial path raises: payload 1's.
        with pytest.raises(ValueError, match="payload 1"):
            map_shards(_payloads_1_and_3_raise, list(range(5)), processes)
        _assert_no_worker_outlives_the_call()

    def test_worker_death_fills_every_open_slot(self, telemetry_on):
        out = map_shards(_worker_dies_on_2, list(range(6)), processes=2,
                         on_error="partial")
        assert len(out) == 6
        assert isinstance(out[2], ShardFailure)
        assert out[2].kind == "pool-crash"
        assert out[2].index == 2
        for i, slot in enumerate(out):
            if isinstance(slot, ShardFailure):
                assert slot.kind == "pool-crash" and slot.index == i
            else:
                assert slot == 2 * i
        failed = sum(isinstance(slot, ShardFailure) for slot in out)
        assert _counters()["resilience.shard.failures"] == failed
        _assert_no_worker_outlives_the_call()

    def test_worker_death_raises_under_raise(self):
        with pytest.raises(BrokenProcessPool):
            map_shards(_worker_dies_on_2, list(range(6)), processes=2)
        _assert_no_worker_outlives_the_call()

    def test_partial_slots_match_across_worker_counts(self):
        serial, pooled = (map_shards(_raise_on_odd, list(range(6)),
                                     processes, on_error="partial")
                          for processes in (None, 3))
        for i in range(6):
            if i % 2:
                assert (serial[i].kind, serial[i].error_type,
                        serial[i].message, serial[i].index) == (
                    pooled[i].kind, pooled[i].error_type,
                    pooled[i].message, pooled[i].index)
            else:
                assert serial[i] == pooled[i] == 2 * i

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
                         on_error="partial")
        assert out == [0, 2, 4, 6]


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


def _sir_nan_mid_contact(a=0.1, b=5.0, c=1.0, theta_min=1.0,
                         theta_max=10.0):
    """The SIR chain (Eq. 11) with an infection rate that reads NaN for a
    contact rate strictly between 4 and 6: an ensemble over the corners
    runs, one over a 3-point grid fails at its middle point."""
    def infection(x, th):
        bad = (th[0] > 4.0) & (th[0] < 6.0)
        return a * x[0] + np.where(bad, np.nan, th[0]) * x[0] * x[1]

    return PopulationModel(
        name="sir_nan_mid_contact",
        state_names=("S", "I"),
        transitions=[
            Transition("infection", change=[-1.0, 1.0], rate=infection),
            Transition("recovery", change=[0.0, -1.0],
                       rate=lambda x, th: b * x[1]),
            Transition("immunity_loss", change=[1.0, 0.0],
                       rate=lambda x, th: c * (1.0 - x[0] - x[1])),
        ],
        theta_set=Interval(theta_min, theta_max, name="contact_rate"),
        observables={"S": [1.0, 0.0], "I": [0.0, 1.0]},
    )


class TestQuestionIsolation:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_failing_grid_point_is_one_question_failure(self, processes):
        # A sweep has no partial mode: its failing grid point raises, and
        # the runner isolates that question, whatever processes is.
        small = {"population_size": 40, "n_runs": 2, "n_samples": 5,
                 "horizon": 0.5}
        spec = get_scenario("sir-transient").with_overrides(
            name="resilience-bad-grid-point",
            model_factory=_sir_nan_mid_contact,
            questions=[
                Question("ensemble", options=dict(small, resolution=3),
                         label="grid"),
                Question("ensemble", options=small, label="corners"),
            ],
        )
        run = run_scenario(spec, use_cache=False, processes=processes,
                           on_error="partial")
        assert [f.question for f in run.failures] == ["ensemble[grid]"]
        assert run.failures[0].error_type == "ValueError"
        assert "rate is NaN" in run.failures[0].message
        assert run.result.findings["corners_ensemble_theta_points"] == 2.0
        _assert_no_worker_outlives_the_call()

    def test_acceptance_partial_run_isolates_and_never_caches(
            self, tmp_path, telemetry_on):
        # 3 questions, one raising backend -> two merged outcomes, a
        # failure taxonomy, and nothing written to the cache.
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

    def test_parallel_partial_run(self, tmp_path):
        spec = _partial_spec("resilience-parallel")
        run = run_scenario(spec, cache_dir=tmp_path, use_cache=False,
                           processes=2, on_error="partial")
        assert len(run.failures) == 1
        assert run.failures[0].question == "template[bad]"
        assert "I_uncertain_max_final" in run.result.findings
        _assert_no_worker_outlives_the_call()

    def test_partial_healthy_run_matches_default(self):
        base = get_scenario("sir-transient")
        spec = base.with_overrides(
            name="resilience-healthy",
            questions=[Question("envelope", options={"n_times": 4})],
        )
        default = run_scenario(spec, use_cache=False)
        partial = run_scenario(spec, use_cache=False, on_error="partial")
        assert partial.failures == []
        assert default.result.findings == partial.result.findings
        for name, series in default.result.series.items():
            twin = partial.result.series[name]
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

def _nan_past(t_bad):
    """``dX = -X``, except that lanes flagged 1 read NaN past ``t_bad``."""
    def field(t, X, flag):
        doomed = (flag[:, None] > 0) & (t[:, None] > t_bad)
        return np.where(doomed, np.nan, -X)
    return field


class TestLaneRetirement:
    def _solve(self, retire, f=None):
        x0 = np.ones((3, 2))
        t_eval = np.linspace(0.0, 2.0, 9)
        if f is None:
            return dopri_batch(lambda t, X: -X, x0, (0.0, 2.0),
                               t_eval=t_eval, rtol=1e-10, atol=1e-12,
                               retire_failed_lanes=retire)
        return dopri_batch(f, x0, (0.0, 2.0), t_eval=t_eval,
                           rtol=1e-10, atol=1e-12,
                           lane_args=np.array([0.0, 1.0, 0.0]),
                           retire_failed_lanes=retire)

    def test_no_fault_flag_is_bit_identical(self):
        off = self._solve(retire=False)
        on = self._solve(retire=True)
        assert np.array_equal(off.states, on.states)
        assert np.array_equal(off.times, on.times)
        assert on.stats["lane_failures"] == []

    def test_nan_lane_retires_survivors_continue(self, telemetry_on):
        healthy = self._solve(retire=True)
        sol = self._solve(retire=True, f=_nan_past(0.7))
        records = sol.stats["lane_failures"]
        assert len(records) == 1
        assert records[0]["lane"] == 1
        assert records[0]["reason"] == "non-finite-state"
        assert 0.0 < records[0]["t"] <= 0.7
        # Survivors match the all-healthy run up to BLAS reduction-order
        # noise (~1 ULP; see module docstring).
        for lane in (0, 2):
            assert np.allclose(sol.states[lane], healthy.states[lane],
                               rtol=1e-14, atol=0)
        # The retired lane holds its last accepted (finite) state, so
        # the whole batch stays finite end to end.
        assert np.isfinite(sol.states).all()
        assert _counters()["resilience.ode.lane_failures"] == 1

    def test_without_flag_a_nan_lane_raises(self):
        # A NaN field surfaces either as the non-finite guard or as a
        # step-size collapse, depending on where the controller trips
        # first — both abort loudly without the opt-in flag.
        with pytest.raises(RuntimeError,
                           match="non-finite|step size collapsed"):
            self._solve(retire=False, f=_nan_past(0.7))


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

def _failing_replace(failures):
    """A ``Path.replace`` whose first ``failures`` calls raise."""
    real = pathlib.Path.replace
    calls = []

    def replace(self, target):
        calls.append(self)
        if len(calls) <= failures:
            raise OSError("transient rename failure")
        return real(self, target)
    return replace


class TestCacheResilience:
    def _spec(self):
        return get_scenario("sir-transient").with_overrides(
            name="resilience-cache",
            questions=[Question("envelope", options={"n_times": 4})],
        )

    def test_transient_store_error_is_retried(self, tmp_path, monkeypatch,
                                              telemetry_on):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        monkeypatch.setattr(pathlib.Path, "replace", _failing_replace(1))
        path = store_result(spec, run.result, tmp_path)
        monkeypatch.undo()
        assert path.exists()
        assert _counters()["resilience.cache.store_retries"] == 1
        result, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_persistent_store_error_raises(self, tmp_path, monkeypatch):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        monkeypatch.setattr(pathlib.Path, "replace", _failing_replace(2))
        with pytest.raises(OSError, match="transient rename failure"):
            store_result(spec, run.result, tmp_path)
        # No debris: every temp file was cleaned up on failure.
        assert list(tmp_path.glob("*.tmp")) == []
        assert not cache_path(spec, tmp_path).exists()

    def test_corrupt_entry_forces_miss(self, tmp_path):
        spec = self._spec()
        run = run_scenario(spec, use_cache=False)
        path = store_result(spec, run.result, tmp_path)
        _, reason = load_cached_detail(spec, tmp_path)
        assert reason == "hit"
        path.write_text(path.read_text()[:100])
        result, reason = load_cached_detail(spec, tmp_path)
        assert result is None and reason == "corrupt"
        # The runner recomputes and overwrites the corrupt entry.
        rerun = run_scenario(spec, cache_dir=tmp_path)
        assert rerun.report.cache_miss_reason == "corrupt"
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
