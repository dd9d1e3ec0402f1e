"""The telemetry subsystem (:mod:`repro.telemetry`).

Covers the tracer (span nesting, exception safety, rendering,
subscribers, Chrome-trace export), the metrics registry (counter /
gauge / histogram semantics, snapshots), the instrumented seams the
rest of the library feeds (cache miss reasons, runner span tree,
RunReport metric views) and — the load-bearing invariant — that the
whole subsystem is a provable near-no-op while disabled.

The overhead test converts "telemetry ops per workload" into a bound
instead of timing an A/B pair: one enabled run counts how many span /
registry operations a fig2-sized Pontryagin ladder performs
(``telemetry.stats()``), a tight loop prices one *disabled* operation,
and the product must stay under 5% of the disabled workload's wall
time.  That stays stable on loaded CI boxes where two ~1 s timings of
the same code routinely differ by more than 5%.
"""

import json
import time

import pytest

from repro import telemetry
from repro.bounds import pontryagin_transient_bounds
from repro.models import make_sir_model
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.cache import (
    CACHE_HIT,
    CACHE_SCHEMA_VERSION,
    MISS_REASONS,
    cache_path,
    load_cached_detail,
    store_result,
)
from repro.telemetry import NOOP_SPAN, Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _telemetry_isolation():
    """Every test starts and ends disabled with empty state."""
    telemetry.disable()
    telemetry.clear()
    yield
    telemetry.disable()
    telemetry.clear()
    from repro.telemetry.core import clear_subscribers

    clear_subscribers()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

def test_span_tree_nests_and_times():
    telemetry.enable()
    with telemetry.span("outer", layer="runner") as outer:
        with telemetry.span("inner") as inner:
            time.sleep(0.01)
    roots = telemetry.trace_roots()
    assert [r.name for r in roots] == ["outer"]
    assert [c.name for c in roots[0].children] == ["inner"]
    assert outer.duration >= inner.duration >= 0.01
    assert outer.attributes == {"layer": "runner"}
    assert telemetry.current_span() is None


def test_span_exception_annotates_and_reraises():
    telemetry.enable()
    with pytest.raises(RuntimeError, match="boom"):
        with telemetry.span("outer"):
            with telemetry.span("failing"):
                raise RuntimeError("boom")
    (root,) = telemetry.trace_roots()
    failing = root.children[0]
    assert failing.error == "RuntimeError"
    assert failing.attributes["error"] == "RuntimeError"
    # The contextvar unwound on both levels despite the exception.
    assert telemetry.current_span() is None
    assert "!RuntimeError" in telemetry.render_trace()


def test_span_set_attaches_midflight_attributes():
    telemetry.enable()
    with telemetry.span("sweep") as sp:
        sp.set("lanes", 8)
    assert telemetry.trace_roots()[0].attributes["lanes"] == 8
    assert "lanes=8" in telemetry.render_trace()


def test_render_trace_aggregates_repeated_siblings():
    telemetry.enable()
    with telemetry.span("parent"):
        for _ in range(5):
            with telemetry.span("kernel.step"):
                pass
        with telemetry.span("unique"):
            pass
    out = telemetry.render_trace()
    assert "kernel.step ×5" in out
    assert "total=" in out and "mean=" in out
    assert "unique" in out
    # The aggregated members are not also listed individually.
    assert out.count("kernel.step") == 1


def test_render_trace_empty():
    assert telemetry.render_trace() == "(no spans recorded)"


def test_subscriber_sees_span_boundaries_and_survives_errors():
    telemetry.enable()
    events = []

    def listener(event, sp):
        events.append((event, sp.name))

    def broken(event, sp):
        raise ValueError("listener bug")

    t_broken = telemetry.subscribe(broken)
    t_ok = telemetry.subscribe(listener)
    with telemetry.span("a"):
        with telemetry.span("b"):
            pass
    assert events == [("span_start", "a"), ("span_start", "b"),
                      ("span_end", "b"), ("span_end", "a")]
    telemetry.unsubscribe(t_ok)
    telemetry.unsubscribe(t_broken)
    with telemetry.span("c"):
        pass
    assert len(events) == 4


def test_broken_subscriber_is_tallied_not_hidden():
    from repro.telemetry import core

    telemetry.enable()
    before = core.stats().get("subscriber_errors", 0)

    def broken(event, sp):
        raise ValueError("listener bug")

    token = telemetry.subscribe(broken)
    with telemetry.span("a"):
        pass
    telemetry.unsubscribe(token)
    # One failure per span boundary (start + end).
    assert core.stats().get("subscriber_errors", 0) == before + 2


def test_sweep_payloads_exclude_shard_invariant_context():
    """The model factory and sweep config ship once per worker (via the
    pool initializer), so per-theta payloads hold (theta, seed) only."""
    import pickle

    import numpy as np

    from repro.engine import sweep_constant_ensembles
    from repro.models import make_sir_model

    telemetry.enable()
    sweep_constant_ensembles(
        make_sir_model, [0.7, 0.3], 30, [1.0, 2.0, 3.0],
        t_final=0.2, n_runs=2, n_samples=5,
    )
    snap = telemetry.snapshot()
    payload = snap["histograms"]["engine.shard.payload_bytes"]
    shared = snap["histograms"]["engine.shard.shared_bytes"]
    assert payload["count"] == 3
    # Regression pin on the drop: the context is metered *once*, not per
    # shard, and every payload weighs less than the pre-refactor 11-tuple
    # (context + theta + seed) would.
    assert shared["count"] == 1
    old_style = len(pickle.dumps(
        (make_sir_model, {}, np.asarray([0.7, 0.3]), 30,
         np.asarray([1.0]), 0.2, 2, np.random.SeedSequence(0).spawn(1)[0],
         5, 0.0, 50_000_000)
    ))
    assert payload["max"] < old_style
    assert payload["max"] < 1024


def test_unpicklable_payload_stamps_counter_and_stops_size_metering():
    from repro.engine import map_shards

    telemetry.enable()
    results = map_shards(str, [lambda: None], processes=None)
    assert len(results) == 1
    snap = telemetry.snapshot()
    assert snap["counters"].get("engine.shard.unpicklable_payloads") == 1
    # Size metering stopped at the unpicklable payload: the hoisted
    # histogram exists but recorded nothing.
    assert snap["histograms"]["engine.shard.payload_bytes"]["count"] == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_counter_gauge_histogram_semantics():
    telemetry.enable()
    telemetry.inc("events")
    telemetry.inc("events", 4)
    telemetry.set_gauge("rate", 2.5)
    telemetry.set_gauge("rate", 7.5)  # last write wins
    telemetry.observe("sizes", 3.0)
    telemetry.observe_many("sizes", [5.0, 100.0])
    snap = telemetry.snapshot()
    assert snap["counters"]["events"] == 5
    assert snap["gauges"]["rate"] == 7.5
    hist = snap["histograms"]["sizes"]
    assert hist["count"] == 3
    assert hist["sum"] == 108.0
    assert hist["min"] == 3.0 and hist["max"] == 100.0
    assert hist["mean"] == pytest.approx(36.0)


def test_histogram_power_of_two_buckets():
    h = Histogram("h")
    h.observe_many([0.0, -1.0, 0.7, 3.0, 4.0, 100.0])
    buckets = dict((edge, n) for edge, n in h.summary()["buckets"])
    # v <= 0 shares the 0.0 edge; each positive v lands under the
    # smallest power of two >= v.
    assert buckets == {0.0: 2, 1.0: 1, 4.0: 2, 128.0: 1}


def test_registry_snapshot_is_json_serializable_and_resets():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.histogram("h").observe(2.0)
    reg.gauge("g").set(1.5)
    text = json.dumps(reg.snapshot())
    assert "\"c\": 3" in text
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {},
                              "histograms": {}}


def test_empty_histogram_summary_has_no_min_max():
    summary = Histogram("empty").summary()
    assert summary["count"] == 0
    assert "min" not in summary and "max" not in summary


# ----------------------------------------------------------------------
# Disabled-mode invariants
# ----------------------------------------------------------------------

def test_disabled_is_a_noop_everywhere():
    assert not telemetry.enabled()
    assert telemetry.span("anything", key="val") is NOOP_SPAN
    with telemetry.span("anything") as sp:
        sp.set("k", 1)  # no-op, no error
    telemetry.inc("c")
    telemetry.set_gauge("g", 1.0)
    telemetry.observe("h", 1.0)
    telemetry.observe_many("h", [1.0, 2.0])
    assert telemetry.live_counter("c") is None
    assert telemetry.live_histogram("h") is None
    assert telemetry.trace_roots() == []
    assert telemetry.snapshot() == {"counters": {}, "gauges": {},
                                    "histograms": {}}
    assert telemetry.stats() == {"spans": 0, "updates": 0}


def test_disabled_spans_do_not_leak_into_enabled_traces():
    with telemetry.span("before-enable"):
        telemetry.enable()
        with telemetry.span("live"):
            pass
    roots = telemetry.trace_roots()
    # The no-op span never registered, so "live" is a root.
    assert [r.name for r in roots] == ["live"]


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------

def test_chrome_trace_schema(tmp_path):
    telemetry.enable()
    with telemetry.span("root", lanes=4):
        with telemetry.span("child", obj=object()):
            time.sleep(0.002)
    doc = telemetry.chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["root", "child"]
    for e in events:
        assert e["cat"] == "repro" and e["ph"] == "X"
        assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    root, child = events
    # The child's complete event lies inside its parent's.
    assert root["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1.0
    # Non-JSON attribute values are stringified, not fatal.
    assert isinstance(child["args"]["obj"], str)
    path = telemetry.save_chrome_trace(tmp_path / "trace.json")
    assert json.loads(path.read_text())["traceEvents"]


def test_save_snapshot_roundtrips(tmp_path):
    telemetry.enable()
    telemetry.inc("k", 2)
    path = telemetry.save_snapshot(tmp_path / "m.json",
                                   telemetry.snapshot())
    assert json.loads(path.read_text())["counters"]["k"] == 2


# ----------------------------------------------------------------------
# Cache miss taxonomy
# ----------------------------------------------------------------------

def _transient_spec():
    return get_scenario("sir-transient")


def test_cache_miss_reasons_distinguished(tmp_path):
    spec = _transient_spec()
    telemetry.enable()

    def lookup():
        return load_cached_detail(spec, tmp_path)

    result, reason = lookup()
    assert result is None and reason == "absent"

    path = cache_path(spec, tmp_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    assert lookup() == (None, "corrupt")

    path.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION + 1}))
    assert lookup() == (None, "schema")

    import repro

    path.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION,
                                "library": "0.0.0-other"}))
    assert lookup() == (None, "library-version")

    path.write_text(json.dumps({"schema": CACHE_SCHEMA_VERSION,
                                "library": repro.__version__,
                                "spec_payload": {"different": True}}))
    assert lookup() == (None, "payload-mismatch")

    counters = telemetry.snapshot()["counters"]
    assert counters["scenarios.cache.miss"] == 5
    for miss_reason in MISS_REASONS:
        assert counters[f"scenarios.cache.miss.{miss_reason}"] == 1
    assert "scenarios.cache.hit" not in counters


def test_cache_hit_counted_after_store(tmp_path):
    spec = _transient_spec()
    run = run_scenario(spec, use_cache=False)
    store_result(spec, run.result, tmp_path)
    telemetry.enable()
    result, reason = load_cached_detail(spec, tmp_path)
    assert reason == CACHE_HIT and result is not None
    assert telemetry.snapshot()["counters"]["scenarios.cache.hit"] == 1


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------

def test_run_scenario_span_tree_reaches_the_kernels():
    telemetry.enable()
    run = run_scenario(_transient_spec(), use_cache=False)
    out = telemetry.render_trace()
    # runner → question backend → integrator kernels, one tree.
    assert "scenario.run" in out
    assert "scenario.question" in out
    assert "ode.dopri_batch" in out or "ode.rk4" in out
    counters = telemetry.snapshot()["counters"]
    assert counters["scenarios.questions.run"] == run.report.questions_run
    assert counters.get("ode.dopri.steps_accepted", 0) > 0
    assert counters.get("pontryagin.iterations", 0) > 0

    report = run.report
    assert report.cache_hit is False
    assert report.cache_miss_reason == "bypassed"
    assert report.elapsed_seconds > 0.0
    assert report.metrics["scenarios.questions.run"] == report.questions_run
    rendered = report.render()
    assert "cache_hit=false" in rendered and "miss=bypassed" in rendered


def test_single_trajectory_is_traced_as_a_one_row_ensemble():
    from repro.simulation import ConstantPolicy, simulate

    telemetry.enable()
    run = simulate(make_sir_model().instantiate(100, [0.7, 0.3]),
                   ConstantPolicy([5.0]), 0.5, n_samples=11)
    counters = telemetry.snapshot()["counters"]
    assert counters["engine.ssa.runs"] == 1
    assert counters["engine.ssa.events"] == run.n_events > 0
    assert [r.name for r in telemetry.trace_roots()] == ["engine.ensemble"]


def test_run_report_metric_views(tmp_path):
    spec = _transient_spec()
    first = run_scenario(spec, cache_dir=tmp_path)
    assert not first.report.cache_hit
    assert first.report.cache_misses == 1
    assert first.report.cache_miss_reason == "absent"
    second = run_scenario(spec, cache_dir=tmp_path)
    assert second.report.cache_hit
    assert second.report.cache_hits == 1
    assert second.report.cache_miss_reason is None
    assert "cache_hit=true" in second.report.render()


# ----------------------------------------------------------------------
# Overhead regression (the ≤5% disabled-cost bound)
# ----------------------------------------------------------------------

def test_disabled_overhead_below_five_percent():
    model = make_sir_model()
    x0 = (0.7, 0.3)
    horizons = [0.5, 1.0, 2.0]

    def workload():
        return pontryagin_transient_bounds(
            model, x0, horizons, steps_per_unit=60.0
        )

    assert not telemetry.enabled()
    workload()  # warm numpy/model caches out of the measurement
    start = time.perf_counter()
    workload()
    wall = time.perf_counter() - start

    # Count the telemetry ops the same ladder performs when enabled.
    telemetry.enable()
    telemetry.clear()
    workload()
    ops = telemetry.stats()
    telemetry.disable()
    telemetry.clear()
    n_ops = ops["spans"] + ops["updates"]
    assert ops["spans"] > 0 and ops["updates"] > 0

    # Price one *disabled* telemetry operation (flag check + return).
    k = 20_000
    start = time.perf_counter()
    for _ in range(k):
        with telemetry.span("x", a=1):
            pass
        telemetry.inc("x")
    per_op = (time.perf_counter() - start) / (2 * k)

    overhead = per_op * n_ops
    assert overhead <= 0.05 * wall, (
        f"disabled telemetry cost {overhead * 1e3:.3f}ms over {n_ops} ops "
        f"exceeds 5% of the {wall * 1e3:.1f}ms workload"
    )
