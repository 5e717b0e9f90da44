"""Unit tests for ``repro.metrics``: core, exposition, bridge, surfaces."""

from __future__ import annotations

import json
import pickle
import urllib.request

import pytest

from repro.metrics import core
from repro.metrics.bridge import fold_trace
from repro.metrics.bus import SnapshotWriter, read_snapshot
from repro.metrics.core import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricRegistry,
    SIM_TIME_BUCKETS,
    Metric,
    bucket_quantile,
    exp_buckets,
)
from repro.metrics.expose import ExpositionError, parse_exposition, render_text
from repro.metrics.history import (
    history_report,
    load_reports,
    render_history,
    sparkline,
)
from repro.util.validate import ValidationError


@pytest.fixture(autouse=True)
def _clean_metrics(monkeypatch):
    """Each test gets a fresh global registry and a disabled flag."""
    monkeypatch.delenv(core.ENV_METRICS, raising=False)
    core.reset_registry()
    was = core.is_enabled()
    core.set_enabled(False)
    yield
    core.set_enabled(was)
    core.reset_registry()


# -- buckets & names ------------------------------------------------------


def test_exp_buckets_deterministic_and_increasing():
    b = exp_buckets(1e-6, 2.0, 26)
    assert b == LATENCY_BUCKETS
    assert all(b2 > b1 for b1, b2 in zip(b, b[1:]))
    # repeated multiplication, not powers: byte-compare a recomputation
    cur, expect = 1e-9, []
    for _ in range(41):
        expect.append(cur)
        cur *= 2.0
    assert list(SIM_TIME_BUCKETS) == expect


@pytest.mark.parametrize(
    "kwargs", [dict(start=0.0), dict(factor=1.0), dict(count=0)]
)
def test_exp_buckets_rejects_bad_arguments(kwargs):
    args = {"start": 1.0, "factor": 2.0, "count": 4, **kwargs}
    with pytest.raises(ValidationError):
        exp_buckets(**args)


def test_invalid_names_rejected():
    reg = MetricRegistry()
    with pytest.raises(ValidationError):
        reg.counter("0bad")
    with pytest.raises(ValidationError):
        reg.histogram("bad-name")


# -- counter / gauge / histogram ------------------------------------------


def test_counter_monotonic():
    c = Counter("c_total")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValidationError):
        c.inc(-1)


def test_gauge_never_stable():
    g = Gauge("g")
    g.set(2.5)
    g.inc()
    assert g.value == 3.5
    with pytest.raises(ValidationError):
        Gauge("g2", stable=True)


def test_histogram_buckets_and_quantiles():
    h = Histogram("h_seconds", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 100.0):
        h.observe(v)
    # bisect_left: v <= bound lands in that bucket
    assert h.counts == [2, 1, 1, 1]
    assert h.count == 5
    assert h.sum == pytest.approx(106.0)
    assert h.quantile(0.0) == 1.0
    assert h.quantile(0.4) == 1.0  # rank 2.0 lands in the first bucket
    assert h.quantile(0.5) == 2.0  # rank 2.5 spills into the second
    assert h.quantile(0.9) == float("inf")
    assert Histogram("e", buckets=(1.0,)).quantile(0.5) == 0.0
    with pytest.raises(ValidationError):
        h.quantile(1.5)
    # the histogram and a snapshot sample of it share one quantile rule
    sample = h.sample()
    for q in (0.0, 0.4, 0.5, 0.9, 1.0):
        assert bucket_quantile(
            sample["bounds"], sample["counts"], sample["count"], q
        ) == h.quantile(q)
    with pytest.raises(ValidationError):
        Histogram("bad", buckets=(2.0, 1.0))
    with pytest.raises(ValidationError):
        Histogram("bad", buckets=())


# -- registry --------------------------------------------------------------


def test_registry_get_or_create_and_type_mismatch():
    reg = MetricRegistry()
    c1 = reg.counter("a_total", "help")
    assert reg.counter("a_total") is c1
    reg.histogram("h_seconds")
    with pytest.raises(ValidationError):
        reg.gauge("a_total")  # same name, different type
    assert reg.get("a_total") is c1
    assert reg.get("missing") is None
    assert len(reg) == 2


def test_registry_iteration_sorted():
    reg = MetricRegistry()
    reg.counter("z_total")
    reg.counter("a_total")
    assert [m.name for m in reg] == ["a_total", "z_total"]


def test_snapshot_stable_filtering():
    reg = MetricRegistry()
    reg.counter("live_total").inc(3)
    reg.counter("zero_total")  # zero activity: dropped
    reg.counter("wall_total", stable=False).inc(2)  # unstable: dropped
    reg.gauge("g").set(1.0)  # gauge: dropped
    h = reg.histogram("h_seconds", buckets=(1.0, 2.0))
    h.observe(0.5)
    reg.histogram("h_empty", buckets=(1.0,))  # no observations: dropped
    snap = reg.snapshot(stable_only=True)
    assert set(snap["metrics"]) == {"live_total", "h_seconds"}
    assert "sum" not in snap["metrics"]["h_seconds"]  # float accumulator
    full = reg.snapshot()
    assert set(full["metrics"]) == {
        "live_total", "zero_total", "wall_total", "g", "h_seconds", "h_empty",
    }
    assert full["metrics"]["h_seconds"]["sum"] == 0.5


def test_to_json_canonical():
    reg = MetricRegistry()
    reg.counter("b_total").inc()
    reg.counter("a_total").inc()
    text = reg.to_json(stable_only=True)
    assert text == json.dumps(
        json.loads(text), sort_keys=True, separators=(",", ":")
    )
    assert text.index('"a_total"') < text.index('"b_total"')


# -- merge (worker metrics shipping) --------------------------------------


def test_merge_adds_counts_and_takes_last_gauge():
    worker = MetricRegistry()
    worker.counter("c_total").inc(3)
    worker.histogram("h_seconds", buckets=(1.0, 2.0)).observe(5.0)
    worker.gauge("g").set(7.0)

    parent = MetricRegistry()
    parent.counter("c_total").inc(10)
    parent.histogram("h_seconds", buckets=(1.0, 2.0)).observe(0.5)
    parent.gauge("g").set(1.0)
    parent.merge(worker)
    assert parent.counter("c_total").value == 13
    merged_h = parent.get("h_seconds")
    assert merged_h.counts == [1, 0, 1]
    assert merged_h.count == 2
    assert merged_h.sum == 5.5
    assert parent.get("g").value == 7.0
    assert list(worker.get("h_seconds").counts) == [0, 0, 1]  # source untouched


def test_merge_into_empty_registry_reproduces_it():
    reg = MetricRegistry()
    reg.counter("c_total", "help").inc(4)
    reg.counter("wall_total", stable=False).inc(1)
    reg.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
    reg.gauge("g").set(2.0)
    clone = MetricRegistry()
    clone.merge(pickle.loads(pickle.dumps(list(reg))))  # as a worker ships it
    assert clone.to_json() == reg.to_json()
    assert clone.to_json(stable_only=True) == reg.to_json(stable_only=True)
    assert render_text(clone) == render_text(reg)


def test_merge_rejects_bounds_mismatch_and_unknown_type():
    reg = MetricRegistry()
    reg.histogram("h_seconds", buckets=(1.0, 2.0))
    bad = Histogram("h_seconds", buckets=(1.0, 3.0))
    bad.observe(5.0)
    with pytest.raises(ValidationError):
        reg.merge([bad])
    with pytest.raises(ValidationError):
        reg.merge([Metric("x")])


def test_stable_snapshot_identical_across_merge_order():
    def worker_metrics(n):
        reg = MetricRegistry()
        reg.counter("sim_runs_total").inc(n)
        reg.histogram("h_seconds", buckets=(1.0, 2.0)).observe(float(n))
        return list(reg)

    shipped = [worker_metrics(n) for n in (1, 2, 3)]
    a, b = MetricRegistry(), MetricRegistry()
    for metrics in shipped:
        a.merge(metrics)
    for metrics in reversed(shipped):
        b.merge(metrics)
    assert a.to_json(stable_only=True) == b.to_json(stable_only=True)
    assert a.counter("sim_runs_total").value == 6


# -- enablement ------------------------------------------------------------


def test_enable_exports_environment(monkeypatch):
    import os

    core.enable()
    assert core.is_enabled()
    assert os.environ[core.ENV_METRICS] == "on"
    core.disable()
    assert not core.is_enabled()
    assert core.ENV_METRICS not in os.environ


# -- exposition ------------------------------------------------------------


def _demo_registry() -> MetricRegistry:
    reg = MetricRegistry()
    reg.counter("req_total", "Requests served").inc(7)
    reg.gauge("temp", "Degrees").set(2.5)
    h = reg.histogram("lat_seconds", "Latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(10.0)
    return reg


def test_render_text_strict_roundtrip():
    text = render_text(_demo_registry())
    parsed = parse_exposition(text)
    assert parsed["req_total"]["type"] == "counter"
    assert parsed["req_total"]["help"] == "Requests served"
    assert ("", {}, 7.0) in parsed["req_total"]["samples"]
    assert parsed["temp"]["type"] == "gauge"
    hist = parsed["lat_seconds"]
    assert hist["type"] == "histogram"
    buckets = {
        lab["le"]: v for s, lab, v in hist["samples"] if s == "_bucket"
    }
    assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
    assert ("_count", {}, 3.0) in hist["samples"]


def test_parse_exposition_unescapes_label_values():
    text = '# TYPE err_total counter\nerr_total{op="we\\"ird\\\\"} 1\n'
    parsed = parse_exposition(text)
    assert parsed["err_total"]["samples"] == [("", {"op": 'we"ird\\'}, 1.0)]


def test_render_text_empty_help_has_no_trailing_space():
    reg = MetricRegistry()
    reg.counter("bare_total").inc()
    text = render_text(reg)
    assert "# HELP bare_total\n" in text
    parse_exposition(text)  # strict parse must accept it


@pytest.mark.parametrize(
    "bad",
    [
        " # HELP x y\n# TYPE x counter\nx 1\n",  # stray leading whitespace
        "# TYPE x counter\nx 1 2 3\n",  # extra tokens (timestamps rejected)
        "x 1\n",  # sample without TYPE
        "# TYPE 0bad counter\n0bad 1\n",  # bad name
        "# TYPE x counter\nx{le=1} 1\n",  # unquoted label value
        '# TYPE x counter\nx{le="1} 1\n',  # unterminated label
        "# TYPE x histogram\nx_bucket 1\n",  # _bucket without le
        '# TYPE x histogram\nx_bucket{le="1"} 5\n'
        'x_bucket{le="2"} 3\n',  # non-monotonic cumulative buckets
        "# TYPE x counter\nx 1\n# TYPE x gauge\n",  # TYPE after samples
        "# TYPE x counter\nx notanumber\n",
    ],
)
def test_parse_exposition_rejects(bad):
    with pytest.raises(ExpositionError):
        parse_exposition(bad)


# -- observe bridge --------------------------------------------------------


def _trace_event(kind, dur=0.0, nbytes=0.0, thread=""):
    from repro.observe.tracer import TraceEvent

    return TraceEvent(0, kind, 0.0, dur, 0, thread, -1, -1, "", nbytes, "")


def test_metrics_probe_counts_by_kind():
    reg = MetricRegistry()
    fold_trace([
        _trace_event("wait", dur=2e-9),
        _trace_event("grant"),
        _trace_event("transfer", nbytes=64.0),
        _trace_event("runq"),
        _trace_event("migration"),
        _trace_event("compute"),  # counted as bridged, no dedicated metric
    ], reg)
    assert reg.counter("observe_events_bridged_total").value == 6
    assert reg.counter("orwl_waits_total").value == 1
    assert reg.counter("orwl_wakeups_total").value == 1
    assert reg.counter("orwl_transfer_bytes_total").value == 64
    assert reg.counter("orwl_runq_total").value == 1
    assert reg.counter("orwl_migrations_total").value == 1
    assert reg.get("orwl_wait_sim_seconds").count == 1


# -- snapshot bus ----------------------------------------------------------


def _square(x: int) -> int:
    return x * x


def test_snapshot_writer_atomic_and_progress(tmp_path):
    from repro.exec.runner import SweepRunner, Task

    core.enable()
    core.registry().counter("sim_runs_total").inc(3)
    path = tmp_path / "live.json"
    writer = SnapshotWriter(str(path), min_interval=0.0)
    done_at_write = []

    def on_point():
        writer()
        done_at_write.append(
            read_snapshot(str(path))["metrics"]["sweep_progress_done"]["value"]
        )

    SweepRunner(n_workers=1, on_point=on_point).map(
        [Task(_square, {"x": i}) for i in range(10)]
    )
    assert done_at_write == [float(i) for i in range(1, 11)]
    snap = read_snapshot(str(path))
    m = snap["metrics"]
    assert m["sweep_progress_total"]["value"] == 10.0
    assert m["sweep_progress_done"]["value"] == 10.0
    assert m["sim_runs_total"]["value"] == 3
    assert snap["written_at"] > 0


def test_snapshot_writer_rate_limit_and_forced_end(tmp_path):
    path = tmp_path / "live.json"
    writer = SnapshotWriter(
        str(path), registry=MetricRegistry(), min_interval=3600.0
    )
    writer()
    writer()
    assert writer.writes == 1  # second call rate-limited
    writer.flush()
    assert writer.writes == 2  # an explicit flush always writes


class _FakeClock:
    """A settable clock starting at 0, as a freshly booted host's
    monotonic clock may read."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_telemetry_under_fake_clock_from_zero(tmp_path, monkeypatch, paper_topo_small):
    """Bus, ``top`` and service health/SLO with every clock starting
    at 0: nothing may treat 0 as "long ago"."""
    import time

    from repro.comm import patterns
    from repro.placement.service import PlacementService
    from repro.tools.top import render_dashboard

    clock = _FakeClock()
    monkeypatch.setattr(time, "monotonic", clock)
    monkeypatch.setattr(time, "time", clock)
    core.enable()

    service = PlacementService(paper_topo_small)
    matrix = patterns.stencil_2d(4, 4, edge_volume=100.0)
    service.query_sync(matrix)  # cold
    service.query_sync(matrix)  # warm

    path = tmp_path / "live.json"
    writer = SnapshotWriter(str(path), min_interval=3600.0)
    reg = core.registry()
    reg.gauge("sweep_progress_total").set(4)
    done = reg.gauge("sweep_progress_done")

    writer()
    assert writer.writes == 1  # the first snapshot is written at t=0
    first = read_snapshot(str(path))
    assert first["written_at"] == 0.0

    clock.t = 10.0
    done.inc()
    writer()
    assert writer.writes == 1  # within min_interval: rate-limited

    clock.t = 3600.0
    done.inc()
    writer()
    assert writer.writes == 2  # a full interval after the first write
    second = read_snapshot(str(path))
    assert second["written_at"] == 3600.0
    frame = render_dashboard(second, prev=first)
    assert "2/4 done" in frame
    assert "2 queries, 50% warm" in frame

    clock.t = 3601.0
    writer.flush()
    assert writer.writes == 3  # an explicit flush always writes

    health = service.health()
    assert health["uptime_s"] == 3601.0
    assert health["status"] == "ok" and health["last_error_age_s"] is None
    service.record_error(ValueError("boom"))
    clock.t = 3603.0
    health = service.health()
    assert health["status"] == "degraded"
    assert health["last_error_age_s"] == 2.0
    slo = service.slo()
    assert slo["cold"]["count"] == 1 and slo["warm"]["count"] == 1
    assert 0.0 < slo["warm"]["p50_s"] <= slo["warm"]["p99_s"]


def test_read_snapshot_tolerates_torn_and_missing(tmp_path):
    assert read_snapshot(str(tmp_path / "nope.json")) is None
    torn = tmp_path / "torn.json"
    torn.write_text('{"metrics": {"a"')
    assert read_snapshot(str(torn)) is None
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"something": "else"}')
    assert read_snapshot(str(wrong)) is None


# -- top dashboard ---------------------------------------------------------


def test_top_render_dashboard_demo():
    from repro.tools.top import demo_snapshot, render_dashboard

    frame = render_dashboard(demo_snapshot())
    assert "28/40 done" in frame
    assert "cached" not in frame and "point hits" not in frame
    assert "p50" in frame and "p95" in frame and "p99" in frame
    assert "events" in frame


def test_top_rates_from_prev_snapshot():
    from repro.tools.top import render_dashboard

    def snap(queries, at):
        reg = MetricRegistry()
        reg.counter("placement_queries_total").inc(queries)
        reg.counter("placement_memo_hits_total").inc(queries)
        s = reg.snapshot()
        s["written_at"] = at
        return s

    frame = render_dashboard(snap(300, 10.0), prev=snap(100, 8.0))
    assert "100 q/s" in frame


# -- history ---------------------------------------------------------------


def _bench_report(stamp, mean=1.0, ci_hi=1.2):
    return {
        "meta": {"timestamp": stamp},
        "fig1": {
            "stats": [
                {"implementation": "openmp", "cores": 8,
                 "mean": mean, "ci_lo": 0.9, "ci_hi": ci_hi},
            ],
        },
    }


def test_history_single_report_is_green(tmp_path):
    p = tmp_path / "BENCH_a.json"
    p.write_text(json.dumps(_bench_report("2026-01-01T00:00:00")))
    reports = load_reports(directory=str(tmp_path), baseline=None)
    assert len(reports) == 1
    result = history_report(reports)
    assert result["ok"]
    assert [r["verdict"] for r in result["stats_rows"]] == ["ok"]
    assert "trajectory green" in render_history(result)


def test_history_stats_rows_ci_band_gate(tmp_path):
    rows = [
        _bench_report("2026-01-01T00:00:00", mean=1.0, ci_hi=1.1),
        _bench_report("2026-01-02T00:00:00", mean=1.5, ci_hi=1.6),
    ]
    for i, r in enumerate(rows):
        (tmp_path / f"BENCH_{i}.json").write_text(json.dumps(r))
    reports = load_reports(directory=str(tmp_path), baseline=None)
    result = history_report(reports, threshold=0.25)
    row = next(r for r in result["stats_rows"] if r["key"] == "openmp@8")
    # 1.5 > 1.1 × 1.25 = 1.375 → drift against the oldest CI band
    assert row["verdict"] == "drift"
    assert not result["ok"]


def test_load_reports_skips_garbage(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{truncated")
    (tmp_path / "BENCH_nometa.json").write_text('{"fig1": {}}')
    good = tmp_path / "BENCH_ok.json"
    good.write_text(json.dumps(_bench_report("2026-01-01T00:00:00")))
    reports = load_reports(directory=str(tmp_path), baseline=None)
    assert [r["meta"]["_source"] for r in reports] == [str(good)]


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"
    line = sparkline([0.0, 0.5, 1.0])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(100)), width=24)) == 24


# -- place serve verbs -----------------------------------------------------


@pytest.fixture
def _serve_parts(paper_topo_small):
    from repro.comm import patterns
    from repro.placement.service import PlacementService

    matrix = patterns.stencil_2d(4, 4, edge_volume=100.0)
    service = PlacementService(paper_topo_small)
    return service, paper_topo_small, matrix


def test_serve_health_verb(_serve_parts):
    from repro.tools.place import serve_request

    service, topo, matrix = _serve_parts
    service.query_sync(matrix)
    health = serve_request(service, topo, matrix, '{"op": "health"}')
    assert health["status"] == "ok"
    assert health["queries_served"] == 1
    assert health["uptime_s"] >= 0.0
    assert health["last_error"] is None

    bad = serve_request(service, topo, matrix, '{"op": "query", "mode": "bogus"}')
    assert bad["code"] == "invalid_request"
    degraded = serve_request(service, topo, matrix, '{"op": "health"}')
    assert degraded["status"] == "degraded"
    assert degraded["last_error"] and degraded["last_error_age_s"] >= 0.0


def test_serve_metrics_verb(_serve_parts):
    from repro.tools.place import serve_request

    core.enable()
    service, topo, matrix = _serve_parts
    service.query_sync(matrix)
    service.query_sync(matrix)
    out = serve_request(service, topo, matrix, '{"op": "metrics"}')
    assert out["enabled"] is True
    assert out["metrics"]["placement_queries_total"]["value"] == 2
    assert out["slo"]["warm"]["count"] == 1
    assert out["slo"]["warm"]["p50_s"] > 0.0
    # line-JSON contract: the response must be one json.dumps-able dict
    json.dumps(out)


def test_serve_malformed_request_keeps_server_alive(_serve_parts):
    from repro.tools.place import serve_request

    service, topo, matrix = _serve_parts
    out = serve_request(service, topo, matrix, "not json at all")
    assert out["code"] == "invalid_request" and out["error"]
    out = serve_request(service, topo, matrix, '{"op": "mystery"}')
    assert out == {"error": "unknown op 'mystery'", "code": "unknown_op"}
    assert serve_request(service, topo, matrix, '{"op": "query"}')["mapping"]


def test_serve_unexpected_failure_is_internal(_serve_parts, monkeypatch):
    from repro.tools.place import serve_request

    service, topo, matrix = _serve_parts

    def broken_stats():
        raise RuntimeError("stats store gone")

    monkeypatch.setattr(service, "stats", broken_stats)
    out = serve_request(service, topo, matrix, '{"op": "stats"}')
    assert out == {"error": "stats store gone", "code": "internal"}
    assert serve_request(service, topo, matrix, '{"op": "health"}')["status"] == (
        "degraded"
    )
    assert serve_request(service, topo, matrix, '{"op": "query"}')["mapping"]


@pytest.mark.parametrize(
    "line, field",
    [
        pytest.param("[1, 2]", "JSON object", id="list-request"),
        pytest.param('"query"', "JSON object", id="string-request"),
        pytest.param('{"op": "fail", "pus": "x"}', "'pus'", id="pus-string"),
        pytest.param('{"op": "drain", "pus": [1, "2"]}', "'pus'", id="pus-mixed"),
        pytest.param('{"op": "restore", "pus": 3}', "'pus'", id="pus-int"),
        pytest.param('{"matrix": [[1, 2], [3]]}', "'matrix'", id="matrix-ragged"),
        pytest.param(
            '{"matrix": [[1, 2], [3, 4], [5, 6]]}', "'matrix'", id="matrix-non-square"
        ),
        pytest.param('{"matrix": "x"}', "'matrix'", id="matrix-string"),
        pytest.param('{"matrix": [["a", 1], [1, 0]]}', "'matrix'", id="matrix-non-numeric"),
        pytest.param('{"matrix": [[0, -1], [-1, 0]]}', "'matrix'", id="matrix-negative"),
        pytest.param('{"mode": "bogus"}', "mode", id="mode-unknown"),
        pytest.param('{"mode": 3}', "mode", id="mode-int"),
        pytest.param('{"op": "fail", "pus": [9999]}', "PU", id="fail-unknown-pu"),
        pytest.param('{"op": "drain", "pus": [9999]}', "PU", id="drain-unknown-pu"),
        pytest.param(
            '{"op": "restore", "pus": [9999]}', "PU", id="restore-unknown-pu"
        ),
    ],
)
def test_serve_ill_shaped_request_named_in_error(_serve_parts, line, field):
    from repro.tools.place import serve_request

    service, topo, matrix = _serve_parts
    out = serve_request(service, topo, matrix, line)
    assert out["code"] == "invalid_request" and field in out["error"]
    assert sorted(out) == ["code", "error"]
    assert service.epoch == 0  # the fault state is untouched
    assert serve_request(service, topo, matrix, '{"op": "query"}')["mapping"]


# -- HTTP endpoint ---------------------------------------------------------


def test_metrics_http_server():
    from repro.metrics.httpd import MetricsServer

    reg = MetricRegistry()
    reg.counter("req_total", "Requests").inc(5)
    health = {"status": "ok", "queries_served": 5}
    with MetricsServer(0, registry=reg, health_fn=lambda: health) as srv:
        with urllib.request.urlopen(f"{srv.url}/metrics") as resp:
            assert resp.status == 200
            assert "version=0.0.4" in resp.headers["Content-Type"]
            body = resp.read().decode()
        parsed = parse_exposition(body)
        assert ("", {}, 5.0) in parsed["req_total"]["samples"]
        with urllib.request.urlopen(f"{srv.url}/healthz") as resp:
            assert json.loads(resp.read()) == health
        health["status"] = "degraded"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{srv.url}/healthz")
        assert err.value.code == 503
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{srv.url}/other")
        assert err.value.code == 404
