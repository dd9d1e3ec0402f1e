"""The library's one execution path.

Every fan-out in the library — the ensemble parameter sweep and the
scenario runner's question loop, serial or pooled — goes through
:func:`repro.engine.map_shards` under ``on_error="raise"|"partial"``
(default ``"raise"``).  This suite pins the contract that single path
owes its callers:

- ``map_shards``: input-order results on every worker count, which
  ``processes`` values stay in-process (no pool is even built), the
  pool size cap, the initializer protocol on both paths, fail-fast and
  partial error semantics through the pool boundary, and the telemetry
  it meters (span attributes, payload/context sizes, shard timings —
  and no pickling at all while telemetry is off);
- the runner loop: every registered scenario can cross a process pool,
  every question kind answers identically serial and pooled, each
  question builds its own model, and the plan's ``on_error`` reaches
  the executor;
- :class:`~repro.scenarios.AnalysisPlan` validation and question
  selection;
- the retired compiled-array backend seam stays retired on the CLI.
"""

import importlib.util
import os
import pickle
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.__main__ import main as cli_main
from repro.engine import map_shards
from repro.engine import sharding
from repro.models import make_sir_model
from repro.resilience import ShardFailure, execution
from repro.scenarios import (
    AnalysisPlan,
    Question,
    ScenarioSpec,
    get_scenario,
    list_scenarios,
    run_scenario,
)
from repro.scenarios.runner import _run_question_payload

#: Worker-context slot written by :func:`_install_context`.
_CONTEXT = None

#: Model builds performed by :func:`_counting_sir` in this process.
_BUILDS = []


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _tenfold_or_raise_on_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return 10 * x


def _install_context(value):
    global _CONTEXT
    _CONTEXT = value


def _read_context(payload):
    return _CONTEXT, payload


def _counting_sir(**kwargs):
    _BUILDS.append(kwargs)
    return make_sir_model(**kwargs)


@pytest.fixture
def telemetry_on():
    telemetry.enable()
    telemetry.clear()
    yield
    telemetry.clear()
    telemetry.disable()


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if the executor tries to build a process pool."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(execution, "_new_executor", refuse)


def _spans(name):
    found = []
    stack = list(telemetry.trace_roots())
    while stack:
        sp = stack.pop()
        if sp.name == name:
            found.append(sp)
        stack.extend(sp.children)
    return found


# ----------------------------------------------------------------------
# map_shards: results, worker counts, the pool
# ----------------------------------------------------------------------

class TestMapShards:
    @pytest.mark.parametrize("processes", [None, 1, 2])
    def test_results_keep_input_order(self, processes):
        payloads = [5, 3, 9, 1, 7, 0]
        assert map_shards(_square, payloads, processes) == [
            25, 9, 81, 1, 49, 0]

    @pytest.mark.parametrize("processes", [None, 2])
    def test_accepts_any_iterable(self, processes):
        out = map_shards(_square, (i for i in range(5)), processes)
        assert out == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("processes", [None, 2])
    def test_no_payloads_no_work(self, processes, no_pool):
        assert map_shards(_square, [], processes) == []

    def test_single_payload_never_builds_a_pool(self, no_pool):
        assert map_shards(_pid, [0], processes=4) == [os.getpid()]

    @pytest.mark.parametrize("processes", [None, 1, 0, -1])
    def test_at_most_one_process_runs_in_process(self, processes, no_pool):
        out = map_shards(_pid, [0, 1, 2], processes)
        assert out == [os.getpid()] * 3

    def test_pool_runs_shards_in_worker_processes(self):
        pids = map_shards(_pid, list(range(4)), processes=2)
        assert os.getpid() not in pids

    def test_pool_size_is_capped_by_payload_count(self, monkeypatch):
        sizes = []
        real = execution._new_executor

        def recording(pool_size, initializer, initargs):
            sizes.append(pool_size)
            return real(pool_size, initializer, initargs)

        monkeypatch.setattr(execution, "_new_executor", recording)
        assert map_shards(_square, [1, 2, 3], processes=8) == [1, 4, 9]
        assert sizes == [3]

    def test_serial_initializer_runs_once_in_process(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sys.modules[__name__], "_CONTEXT", None)

        def initializer(value):
            calls.append(value)
            _install_context(value)

        out = map_shards(_read_context, [1, 2, 3], None,
                         initializer=initializer, initargs=("ctx",))
        assert calls == ["ctx"]
        assert out == [("ctx", 1), ("ctx", 2), ("ctx", 3)]

    def test_pool_initializer_runs_in_the_workers(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "_CONTEXT", None)
        out = map_shards(_read_context, [1, 2, 3, 4], processes=2,
                         initializer=_install_context, initargs=("ctx",))
        assert out == [("ctx", 1), ("ctx", 2), ("ctx", 3), ("ctx", 4)]
        # The parent never ran the initializer: only the workers did.
        assert _CONTEXT is None

    def test_default_on_error_is_raise(self, monkeypatch):
        seen = []

        def recording(fn, payloads, processes, on_error, initializer,
                      initargs):
            seen.append(on_error)
            return [fn(p) for p in payloads]

        monkeypatch.setattr(sharding, "run_shards", recording)
        assert map_shards(_square, [2, 3]) == [4, 9]
        assert seen == ["raise"]


# ----------------------------------------------------------------------
# map_shards: error semantics on both paths
# ----------------------------------------------------------------------

class TestMapShardsErrors:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_fail_fast_reraises_the_shard_error(self, processes):
        with pytest.raises(ValueError, match="odd payload 1"):
            map_shards(_tenfold_or_raise_on_odd, [0, 1, 2], processes)

    @pytest.mark.parametrize("processes", [None, 2])
    def test_fail_fast_runs_each_shard_once(self, processes, telemetry_on):
        with pytest.raises(ValueError):
            map_shards(_tenfold_or_raise_on_odd, [0, 1, 2], processes)
        counters = telemetry.snapshot()["counters"]
        assert counters["resilience.shard.errors"] == 1
        assert "resilience.shard.failures" not in counters

    @pytest.mark.parametrize("processes", [None, 2])
    def test_partial_fills_failed_slots(self, processes):
        out = map_shards(_tenfold_or_raise_on_odd, [0, 1, 2, 3], processes,
                         on_error="partial")
        assert out[0] == 0 and out[2] == 20
        for idx in (1, 3):
            failure = out[idx]
            assert isinstance(failure, ShardFailure)
            assert failure.index == idx
            assert failure.kind == "error"
            assert failure.error_type == "ValueError"
            assert failure.message == f"odd payload {idx}"


# ----------------------------------------------------------------------
# map_shards: what it meters
# ----------------------------------------------------------------------

class TestMapShardsTelemetry:
    @pytest.mark.parametrize("processes,effective", [(None, 1), (1, 1),
                                                     (2, 2)])
    def test_span_records_shards_and_processes(self, processes, effective,
                                               telemetry_on):
        map_shards(_square, [1, 2, 3, 4], processes)
        (sp,) = _spans("engine.map_shards")
        assert sp.attributes == {"shards": 4, "processes": effective}

    @pytest.mark.parametrize("processes", [None, 2])
    def test_shard_calls_and_seconds(self, processes, telemetry_on):
        map_shards(_square, [1, 2, 3, 4], processes)
        snap = telemetry.snapshot()
        assert snap["counters"]["engine.shard.calls"] == 4
        assert snap["histograms"]["engine.shard.seconds"]["count"] == 4

    def test_payload_sizes_metered_once_per_payload(self, telemetry_on):
        map_shards(_square, [1, 2, 3, 4, 5])
        hists = telemetry.snapshot()["histograms"]
        assert hists["engine.shard.payload_bytes"]["count"] == 5
        assert hists["engine.shard.payload_bytes"]["max"] == len(
            pickle.dumps(5))
        assert hists.get("engine.shard.shared_bytes",
                         {"count": 0})["count"] == 0

    def test_worker_context_metered_once(self, telemetry_on):
        map_shards(_read_context, [1, 2, 3, 4],
                   initializer=_install_context, initargs=("ctx",))
        shared = telemetry.snapshot()["histograms"][
            "engine.shard.shared_bytes"]
        assert shared["count"] == 1
        assert shared["max"] == len(pickle.dumps(("ctx",)))

    def _counting_pickle(self, monkeypatch):
        calls = []

        class CountingPickle:
            @staticmethod
            def dumps(obj):
                calls.append(obj)
                return pickle.dumps(obj)

        monkeypatch.setattr(sharding, "pickle", CountingPickle)
        return calls

    def test_metering_pickles_nothing_while_disabled(self, monkeypatch):
        assert not telemetry.enabled()
        calls = self._counting_pickle(monkeypatch)
        out = map_shards(_read_context, [1, 2, 3],
                         initializer=_install_context, initargs=("ctx",))
        assert [payload for _, payload in out] == [1, 2, 3]
        assert calls == []

    def test_metering_pickles_each_payload_and_context_once(
            self, monkeypatch, telemetry_on):
        calls = self._counting_pickle(monkeypatch)
        map_shards(_read_context, [1, 2, 3],
                   initializer=_install_context, initargs=("ctx",))
        assert calls == [("ctx",), 1, 2, 3]


# ----------------------------------------------------------------------
# The runner's question loop
# ----------------------------------------------------------------------

def _assert_same_result(a, b):
    assert list(a.findings) == list(b.findings)
    np.testing.assert_array_equal(
        np.array(list(a.findings.values()), dtype=float),
        np.array(list(b.findings.values()), dtype=float),
    )
    assert list(a.series) == list(b.series)
    for name, series in a.series.items():
        twin = b.series[name]
        np.testing.assert_array_equal(series.times, twin.times)
        np.testing.assert_array_equal(series.values, twin.values)
    assert a.notes == b.notes


#: One cheap catalog selection per question kind, each with a second
#: question so that ``processes=2`` really fans out over a pool.
KIND_CASES = {
    "envelope": ("autoscaler", ("envelope", "hull")),
    "hull": ("seir-transient", ("hull", "envelope")),
    "pontryagin": ("repairable-queue", ("pontryagin", "envelope")),
    "template": ("gps-poisson", ("template", "envelope")),
    "steadystate": ("repairable-queue", ("steadystate", "envelope")),
    "ensemble": ("ttl-cache-fleet", ("ensemble", "envelope")),
    "dtmc_reward": ("autoscaler", ("dtmc_reward", "envelope")),
}


def _doomed_spec(name):
    return get_scenario("sir-transient").with_overrides(
        name=name,
        questions=[
            Question("envelope", options={"n_times": 4}),
            Question("template", options={"family": "bogus"}, label="bad"),
        ],
    )


class TestQuestionLoop:
    @pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
    def test_every_registered_scenario_crosses_a_pool(self, name):
        # Pooled runs ship (spec, question index) payloads to workers.
        spec = get_scenario(name)
        for index in range(len(spec.questions)):
            shipped, shipped_index = pickle.loads(
                pickle.dumps((spec, index)))
            assert shipped_index == index
            assert shipped.spec_hash() == spec.spec_hash()
            assert shipped.questions == spec.questions
            assert shipped.model_factory is spec.model_factory
        model = shipped.build_model()
        assert model.dim == spec.build_model().dim

    def test_the_kind_table_covers_every_question_kind(self):
        from repro.scenarios.spec import QUESTION_KINDS

        assert set(KIND_CASES) == set(QUESTION_KINDS)

    @pytest.mark.parametrize("kind", sorted(KIND_CASES))
    def test_serial_and_pooled_answers_agree(self, kind):
        name, kinds = KIND_CASES[kind]
        plan = AnalysisPlan(use_cache=False, kinds=kinds)
        serial = run_scenario(name, plan)
        pooled = run_scenario(name, plan, processes=2)
        assert serial.report.questions_run == pooled.report.questions_run
        assert serial.report.questions_run == 2
        _assert_same_result(serial.result, pooled.result)

    def test_payload_function_answers_like_run_question(self):
        from repro.scenarios import run_question

        spec = get_scenario("autoscaler")
        index = next(i for i, q in enumerate(spec.questions)
                     if q.kind == "hull")
        direct = run_question(spec, spec.questions[index])
        shard = _run_question_payload((spec, index))
        assert shard.findings == direct.findings
        assert list(shard.series) == list(direct.series)

    def test_each_question_builds_its_own_model(self):
        spec = ScenarioSpec(
            name="one-model-per-question", title="model builds",
            model_factory=_counting_sir, x0=(0.7, 0.3), horizon=1.0,
            model_kwargs={"theta_max": 4.0},
            questions=(
                Question("envelope", options={"n_times": 3}),
                Question("hull", options={"n_times": 3}),
                Question("envelope", options={"n_times": 5}, label="fine"),
            ),
        )
        _BUILDS.clear()
        run_scenario(spec, use_cache=False)
        assert _BUILDS == [{"theta_max": 4.0}] * 3

    def test_pooled_fail_fast_reraises_the_backend_error(self, tmp_path):
        spec = _doomed_spec("loop-pooled-raise")
        with pytest.raises(ValueError, match="bogus"):
            run_scenario(spec, cache_dir=str(tmp_path), processes=2)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("processes", [None, 2])
    def test_plan_on_error_partial_reaches_the_executor(self, processes):
        plan = AnalysisPlan(use_cache=False, on_error="partial",
                            processes=processes)
        run = run_scenario(_doomed_spec("loop-plan-partial"), plan)
        (failure,) = run.failures
        assert failure.question == "template[bad]"
        assert failure.error_type == "ValueError"
        assert "I_uncertain_max_final" in run.result.findings


# ----------------------------------------------------------------------
# AnalysisPlan
# ----------------------------------------------------------------------

class TestAnalysisPlan:
    def test_rejects_unknown_on_error(self):
        with pytest.raises(ValueError, match="on_error"):
            AnalysisPlan(on_error="ignore")

    def test_no_kinds_selects_the_spec_itself(self):
        spec = get_scenario("autoscaler")
        assert AnalysisPlan().select(spec) is spec

    def test_covering_every_kind_selects_the_spec_itself(self):
        spec = get_scenario("autoscaler")
        kinds = tuple({q.kind for q in spec.questions})
        assert AnalysisPlan(kinds=kinds).select(spec) is spec

    def test_selection_keeps_the_spec_question_order(self):
        spec = get_scenario("autoscaler")
        selected = AnalysisPlan(kinds=("hull", "envelope")).select(spec)
        assert [q.kind for q in selected.questions] == ["envelope", "hull"]
        assert selected.name == spec.name
        assert selected.spec_hash() != spec.spec_hash()

    def test_selecting_no_question_is_an_error(self):
        with pytest.raises(ValueError, match="sir-hull"):
            AnalysisPlan(kinds=("ensemble",)).select(get_scenario("sir-hull"))

    def test_selected_run_answers_only_the_selection(self):
        run = run_scenario("autoscaler",
                           AnalysisPlan(use_cache=False, kinds=("hull",)))
        assert run.report.questions_run == 1
        assert [q.kind for q in run.spec.questions] == ["hull"]
        full = run_scenario("autoscaler",
                            AnalysisPlan(use_cache=False,
                                         kinds=("hull", "envelope")))
        assert set(run.result.findings) < set(full.result.findings)

    def test_keywords_override_plan_fields(self, tmp_path):
        plan = AnalysisPlan(use_cache=True, cache_dir=str(tmp_path),
                            kinds=("hull",))
        run = run_scenario("autoscaler", plan, use_cache=False)
        assert run.report.cache_path is None
        assert list(tmp_path.iterdir()) == []
        cached = run_scenario("autoscaler", plan)
        assert cached.report.cache_path is not None
        assert len(list(tmp_path.glob("*.json"))) == 1


# ----------------------------------------------------------------------
# The retired backend seam
# ----------------------------------------------------------------------

class TestRetiredBackendSeam:
    def test_backend_package_is_gone(self):
        assert importlib.util.find_spec("repro.backend") is None

    def test_cli_run_rejects_backend_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "autoscaler", "--no-cache", "--backend",
                      "numpy"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err
