"""Tests for repro.perf: critical path, attribution, counters, NUMA
matrices, top-down gaps, flamegraph export, and the CLI wiring.

The load-bearing cases are the ledger ones: the backward walk must
partition the makespan *exactly* (that is what makes the top-down gap
buckets sum to the measured time difference), and the critical path
must respect ``length <= makespan <= serial_time`` on every run the
suite can throw at it.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import run_lk23
from repro.observe import EventFilter, check_run
from repro.observe.invariants import ALL_INVARIANTS, InvariantChecker
from repro.observe.tracer import TraceEvent
from repro.perf import (
    LOCAL_LEVELS,
    PerfReport,
    TraceIndex,
    analyze,
    attribute_gap,
    attribute_makespan,
    bucket_of,
    compute_counter_groups,
    extract_critical_path,
    folded_stacks,
    render_heatmap,
    traffic_matrix,
    write_folded,
)
from repro.stats.aggregate import summarize_map
from repro.util.validate import ValidationError

SMALL = dict(trace=True, topology="small-numa", n=1024, iterations=2, seed=7)


@pytest.fixture(scope="module")
def runs():
    """One traced bind and one traced nobind run on the small machine."""
    out = {}
    for label, policy in (("bind", "treematch"), ("nobind", "nobind")):
        r = run_lk23(policy=policy, **SMALL)
        out[label] = (list(r.trace.events), r.time)
    return out


@pytest.fixture(scope="module")
def reports(runs):
    return {
        label: analyze(events, label=label, measured_time=t, n_pus=8, n_nodes=2)
        for label, (events, t) in runs.items()
    }


# -- critical path ----------------------------------------------------------


def test_critical_path_bound_holds(reports):
    for rep in reports.values():
        cp = rep.critical_path
        assert cp.bound_ok()
        assert cp.length <= cp.makespan * (1 + 1e-9)
        assert cp.makespan <= cp.serial_time * (1 + 1e-9)
        assert cp.n_chain > 0
        assert cp.parallelism >= 1.0


def test_critical_path_golden_small_run(reports):
    """Pin the small-run numbers: the simulator is deterministic, so
    these only move when the model (or the analysis) changes — which
    should be a conscious decision, not an accident."""
    bind = reports["bind"].critical_path
    assert bind.makespan == pytest.approx(0.0017869504, rel=1e-9)
    assert bind.length == pytest.approx(0.0017043819, rel=1e-6)
    assert bind.n_spans == 960
    nobind = reports["nobind"].critical_path
    assert nobind.makespan == pytest.approx(0.0050895058, rel=1e-9)
    # NoBind leaves far more parallel slack: its chain covers much less
    # of the makespan than Bind's.
    assert nobind.coverage < bind.coverage


def test_critical_path_chain_is_causal(reports):
    for rep in reports.values():
        chain = rep.critical_path.chain
        for a, b in zip(chain, chain[1:]):
            assert a.seq < b.seq
            # A zero-weight wait link may *start* before its releaser,
            # but its completion can never precede the predecessor's.
            assert a.end <= b.end + 1e-12


def test_critical_path_empty_stream():
    cp = extract_critical_path([])
    assert cp.length == 0.0 and cp.makespan == 0.0
    assert cp.bound_ok()


def test_critical_path_single_thread_is_serial():
    events = [
        TraceEvent(0, "compute", 0.0, 1.0, tid=0, pu=0),
        TraceEvent(1, "transfer", 1.0, 0.5, tid=0, pu=0, level="NUMANODE",
                   nbytes=10.0, detail="from-node:0"),
        TraceEvent(2, "compute", 1.5, 0.5, tid=0, pu=0),
    ]
    cp = extract_critical_path(events)
    assert cp.length == pytest.approx(2.0)
    assert cp.makespan == pytest.approx(2.0)
    assert cp.by_kind == pytest.approx(
        {"compute": 1.5, "transfer:NUMANODE": 0.5}
    )


# -- makespan attribution ---------------------------------------------------


def test_attribution_partitions_makespan_exactly(reports):
    for rep in reports.values():
        at = rep.attribution
        assert at.total == pytest.approx(at.makespan, rel=1e-9, abs=1e-15)
        assert all(v >= 0.0 for v in at.buckets.values())


def test_attribution_golden_small_run(reports):
    at = reports["bind"].attribution
    # The bound run is compute-dominated; the nobind run stalls.
    assert at.share("compute") > 0.8
    assert reports["nobind"].attribution.share("compute") < 0.5


def test_gap_buckets_sum_to_measured_gap(runs, reports):
    slow, fast = reports["nobind"], reports["bind"]
    gap = attribute_gap(
        slow.attribution, fast.attribution,
        slow_label="nobind", fast_label="bind",
        measured_slow=runs["nobind"][1], measured_fast=runs["bind"][1],
    )
    assert gap.measured_gap > 0
    # The acceptance bar: buckets explain the measured difference to 1 %.
    assert gap.attributed == pytest.approx(gap.measured_gap, rel=0.01)
    # And in fact exactly, up to float dust:
    assert abs(gap.unattributed) < 1e-9 * gap.measured_gap + 1e-12
    assert "runq" in gap.render() or "transfer" in gap.render()


def test_gap_grouping_folds_levels():
    from repro.perf.topdown import GapAttribution

    g = GapAttribution(
        slow_label="a", fast_label="b", slow_time=2.0, fast_time=1.0,
        contributions={"transfer:MACHINE": 0.6, "transfer:L3": 0.1,
                       "wait": 0.3},
        measured_slow=2.0, measured_fast=1.0,
    )
    grouped = g.grouped()
    assert set(grouped) == {"transfer", "lock-wait"}
    assert sum(grouped["transfer"].values()) == pytest.approx(0.7)
    assert g.attributed == pytest.approx(g.gap)


# -- counter groups ---------------------------------------------------------


def test_counter_groups_reconcile_with_index(runs):
    events, _ = runs["bind"]
    idx = TraceIndex.of(events)
    groups = {g.name: g for g in compute_counter_groups(events, n_pus=8)}
    assert set(groups) == {"CPU", "STALL", "MEM", "NUMA", "SCHED"}
    assert groups["CPU"].get("busy seconds (all PUs)") == pytest.approx(
        idx.work_time
    )
    assert groups["CPU"].get("makespan") == pytest.approx(idx.makespan)
    stall = groups["STALL"]
    assert stall.get("thread-seconds total") == pytest.approx(idx.serial_time)
    assert 0.0 <= stall.get("stall fraction") <= 1.0
    mem = groups["MEM"]
    total = sum(e.nbytes for e in idx.spans if e.kind == "transfer")
    assert mem.get("bytes total") == pytest.approx(total)
    numa = groups["NUMA"]
    local = sum(
        e.nbytes for e in idx.spans
        if e.kind == "transfer" and e.level in LOCAL_LEVELS
    )
    assert numa.get("node-local bytes") == pytest.approx(local)
    assert numa.get("remote bytes") == pytest.approx(total - local)


def test_counter_groups_render_and_missing_metric(reports):
    groups = reports["bind"].groups
    text = "\n".join(g.render() for g in groups)
    assert "Group CPU" in text and "Group NUMA" in text
    with pytest.raises(KeyError):
        groups[0].get("no such metric")


# -- NUMA traffic matrix ----------------------------------------------------


def test_traffic_matrix_reconciles_with_metrics(runs):
    events, _ = runs["bind"]
    tm = traffic_matrix(events, n_nodes=2)
    transfers = [e for e in events if e.kind == "transfer"]
    assert tm.n_transfers == len(transfers)
    assert tm.unattributed_bytes == 0.0
    assert tm.total_bytes == pytest.approx(sum(e.nbytes for e in transfers))
    local = sum(e.nbytes for e in transfers if e.level in LOCAL_LEVELS)
    assert tm.local_bytes == pytest.approx(local)
    assert 0.0 <= tm.local_fraction <= 1.0
    assert sum(tm.row_sums()) == pytest.approx(tm.total_bytes)
    assert sum(tm.col_sums()) == pytest.approx(tm.total_bytes)


def test_traffic_matrix_order_invariant(runs):
    events, _ = runs["bind"]
    tm1 = traffic_matrix(events, n_nodes=2)
    shuffled = list(events)
    random.Random(5).shuffle(shuffled)
    tm2 = traffic_matrix(shuffled, n_nodes=2)
    # Equal up to accumulation-order float dust.
    import numpy as np

    assert np.allclose(tm1.bytes, tm2.bytes, rtol=1e-12, atol=0.0)
    assert np.allclose(tm1.seconds, tm2.seconds, rtol=1e-12, atol=0.0)


def test_traffic_matrix_json_round_trip(runs):
    events, _ = runs["bind"]
    tm = traffic_matrix(events, n_nodes=2)
    d = json.loads(json.dumps(tm.to_json_dict()))
    tm2 = type(tm).from_json_dict(d)
    assert (tm.bytes == tm2.bytes).all()
    assert tm2.n_transfers == tm.n_transfers


def test_heatmap_renderings(runs):
    events, _ = runs["bind"]
    tm = traffic_matrix(events, n_nodes=2)
    numeric = render_heatmap(tm)
    assert "rows=producer" in numeric and "total" in numeric
    shaded = render_heatmap(tm, numeric_limit=1)
    assert "scale:" in shaded
    with pytest.raises(ValueError):
        render_heatmap(tm, value="nope")


def test_heatmap_empty_matrix():
    tm = traffic_matrix([])
    assert "(no transfers)" in render_heatmap(tm)


# -- flamegraph export ------------------------------------------------------


def test_folded_stacks_sum_to_span_seconds(runs, tmp_path):
    events, _ = runs["bind"]
    stacks = folded_stacks(events, root="bind")
    span_us = sum(e.dur for e in events if e.is_span()) * 1e6
    assert sum(stacks.values()) == pytest.approx(span_us)
    assert all(s.startswith("bind;") for s in stacks)
    dst = tmp_path / "out.folded"
    n = write_folded(events, dst)
    lines = dst.read_text().splitlines()
    assert n == len(lines) > 0
    assert lines == sorted(lines)
    # Every line is "stack count" with an integer microsecond count.
    for line in lines:
        stack, _, us = line.rpartition(" ")
        assert stack and int(us) >= 1


# -- report facade ----------------------------------------------------------


def test_report_json_round_trip_identical(reports):
    rep = reports["bind"]
    s = json.dumps(rep.to_json_dict(), sort_keys=True)
    rep2 = PerfReport.from_json_dict(json.loads(s))
    assert json.dumps(rep2.to_json_dict(), sort_keys=True) == s
    assert rep2.render() == rep.render()


def test_report_deterministic_across_same_seed_runs(runs):
    events, t = runs["bind"]
    r2 = run_lk23(policy="treematch", **SMALL)
    rep_a = analyze(events, label="x", measured_time=t, n_pus=8, n_nodes=2)
    rep_b = analyze(list(r2.trace.events), label="x", measured_time=r2.time,
                    n_pus=8, n_nodes=2)
    assert rep_a.render() == rep_b.render()
    assert json.dumps(rep_a.to_json_dict(), sort_keys=True) == json.dumps(
        rep_b.to_json_dict(), sort_keys=True
    )


def test_report_summary_flat_scalars(reports):
    s = reports["bind"].summary()
    assert s["makespan"] > 0 and s["critical_path"] > 0
    assert any(k.startswith("walk:") for k in s)
    assert all(isinstance(v, float) or isinstance(v, int) for v in s.values())


# -- property-based: synthetic tiled streams --------------------------------


@st.composite
def tiled_streams(draw):
    """Streams satisfying the tracer's guarantees: per-thread tiling
    spans from t=0, emission ordered by start time."""
    n_threads = draw(st.integers(1, 4))
    staged = []
    for tid in range(n_threads):
        clock = 0.0
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(["compute", "transfer", "wait", "runq"]))
            dur = draw(st.floats(1e-7, 1e-3, allow_nan=False))
            extra = {}
            if kind == "transfer":
                level = draw(st.sampled_from(["L3", "NUMANODE", "MACHINE"]))
                extra = dict(level=level,
                             nbytes=draw(st.floats(1.0, 1e6)),
                             detail=f"from-node:{draw(st.integers(0, 3))}")
            staged.append((clock, tid, kind, dur, extra))
            clock += dur
    staged.sort(key=lambda s: (s[0], s[1]))
    return [
        TraceEvent(seq, kind, ts, dur, tid=tid, thread=f"T{tid}", pu=tid,
                   node=tid % 4, **extra)
        for seq, (ts, tid, kind, dur, extra) in enumerate(staged)
    ]


@settings(max_examples=60, deadline=None)
@given(events=tiled_streams())
def test_property_attribution_sums_to_makespan(events):
    at = attribute_makespan(events)
    assert at.total == pytest.approx(at.makespan, rel=1e-6, abs=1e-12)
    assert all(v >= -1e-15 for v in at.buckets.values())


@settings(max_examples=60, deadline=None)
@given(events=tiled_streams())
def test_property_critical_path_bound(events):
    cp = extract_critical_path(events)
    assert cp.bound_ok()
    assert cp.length == pytest.approx(sum(cp.by_kind.values()), rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(events=tiled_streams(), seed=st.integers(0, 2**16))
def test_property_matrix_permutation_invariant(events, seed):
    tm1 = traffic_matrix(events, n_nodes=4)
    shuffled = list(events)
    random.Random(seed).shuffle(shuffled)
    tm2 = traffic_matrix(shuffled, n_nodes=4)
    import numpy as np

    assert np.allclose(tm1.bytes, tm2.bytes, rtol=1e-12, atol=0.0)
    assert tm1.total_bytes == pytest.approx(
        sum(e.nbytes for e in events if e.kind == "transfer")
    )


# -- EventFilter ------------------------------------------------------------


def test_event_filter_parse_and_match(runs):
    events, _ = runs["bind"]
    f = EventFilter.parse("kind=transfer|wait,level=MACHINE,min-dur=1e-9")
    kept = list(f.apply(events))
    assert kept and all(e.kind == "transfer" for e in kept)
    assert all(e.level == "MACHINE" for e in kept)
    # empty spec matches everything
    assert len(list(EventFilter.parse("").apply(events))) == len(events)
    # thread glob
    ctl = list(EventFilter.parse("thread=*ctl*").apply(events))
    assert ctl and all("ctl" in e.thread for e in ctl)
    # integer keys
    t0 = list(EventFilter.parse("tid=0|1").apply(events))
    assert t0 and all(e.tid in (0, 1) for e in t0)


@pytest.mark.parametrize("spec", [
    "bogus=1", "kind", "kind=", "tid=abc", "min-dur=much",
])
def test_event_filter_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        EventFilter.parse(spec)


# -- invariants -------------------------------------------------------------


def test_new_invariants_registered():
    assert "critical-path-bound" in ALL_INVARIANTS
    assert "numa-traffic-reconciliation" in ALL_INVARIANTS


def test_invariants_pass_on_traced_run():
    from repro.observe import capture

    with capture() as cap:
        run_lk23(policy="treematch", topology="small-numa", n=512, iterations=1)
    (report,) = cap.check_all()
    assert report.ok


def test_numa_reconciliation_catches_tampered_counters():
    from repro.observe import capture
    from repro.topology.objects import ObjType

    with capture() as cap:
        run_lk23(policy="treematch", topology="small-numa", n=512, iterations=1)
    (machine,) = cap.machines
    machine.metrics.bytes_by_level[ObjType.MACHINE] += 1_000_000
    report = check_run(machine, raise_on_violation=False)
    assert report.violated("numa-traffic-reconciliation")


def test_critical_path_bound_catches_overlapping_spans():
    from repro.observe import capture

    with capture() as cap:
        run_lk23(policy="treematch", topology="small-numa", n=512, iterations=1)
    (machine,) = cap.machines
    tracer = machine.tracer
    # Two fat co-located spans on one thread: their program-order chain
    # weighs 2 x makespan, which no consistent stream can exhibit.
    big = tracer.events[-1].end * 2
    for _ in range(2):
        tracer.append(("compute", 0.0, big, 0, "", -1, -1, "", 0.0, ""))
    report = InvariantChecker().check(machine)
    assert report.violated("critical-path-bound")


# -- stats: summarize_map ---------------------------------------------------


def test_summarize_map_common_keys_only():
    rows = [{"a": 1.0, "b": 2.0}, {"a": 3.0, "c": 4.0}]
    stats = summarize_map(rows)
    assert list(stats) == ["a"]
    assert stats["a"].mean == pytest.approx(2.0)
    assert stats["a"].n == 2


def test_summarize_map_rejects_empty():
    with pytest.raises(ValidationError):
        summarize_map([])


# -- experiment + CLI wiring ------------------------------------------------


def test_fig1_point_carries_perf_dict():
    from repro.experiments.fig1 import run_point

    p = run_point("orwl-bind", 8, iterations=1, n=1024, perf_report=True)
    assert p.perf is not None
    rep = PerfReport.from_json_dict(p.perf)
    assert rep.measured_time == pytest.approx(p.time)
    assert rep.critical_path.bound_ok()
    # default path stays perf-free (and therefore byte-identical)
    p0 = run_point("orwl-bind", 8, iterations=1, n=1024)
    assert p0.perf is None
    assert p0.time == pytest.approx(p.time)


def test_scaling_point_carries_perf_dict():
    from repro.experiments.scaling import run_scaling_point

    p = run_scaling_point("paper", "orwl-bind", iterations=1,
                          cells_per_core=1024, perf_report=True)
    assert p.perf is not None
    assert PerfReport.from_json_dict(p.perf).matrix.n_nodes == 24


def test_perf_cli_trace_in(tmp_path, capsys, runs):
    from repro.observe.export import write_jsonl
    from repro.tools.perf import main

    events, _ = runs["bind"]
    trace_file = tmp_path / "run.jsonl"
    write_jsonl(events, trace_file)
    out_json = tmp_path / "perf.json"
    rc = main(["--trace-in", str(trace_file), "--json", str(out_json),
               "--flamegraph", str(tmp_path / "stacks")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "critical path" in text and "Group CPU" in text
    assert "NUMA traffic" in text
    doc = json.loads(out_json.read_text())
    assert doc["format"] == "repro-perf" and len(doc["reports"]) == 1
    assert (tmp_path / "stacks" / "run.folded").exists()


def test_perf_cli_gap_report(tmp_path, capsys):
    from repro.tools.perf import main

    out_json = tmp_path / "perf.json"
    rc = main(["--preset", "paper", "--impl", "orwl-bind,orwl-nobind",
               "--n", "2048", "--iterations", "1", "--json", str(out_json)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "Top-down gap attribution" in text
    doc = json.loads(out_json.read_text())
    (gap,) = doc["gaps"]
    attributed = sum(gap["contributions"].values())
    assert attributed == pytest.approx(gap["measured_gap"], rel=0.01)


def test_fig1_cli_perf_report_artifacts(tmp_path, capsys):
    from repro.tools.fig1 import main

    out = tmp_path / "perf"
    rc = main(["--cores", "8", "--iterations", "1", "--n", "1024",
               "--workers", "1", "--perf-report", str(out)])
    assert rc == 0
    assert (out / "fig1-orwl-bind-8.json").exists()
    assert (out / "fig1-orwl-bind-8.txt").exists()
    topdown = (out / "topdown-8.txt").read_text()
    assert "Top-down gap attribution" in topdown


def test_trace_cli_filter_and_stats(tmp_path, capsys):
    from repro.tools.trace import main

    trace_file = tmp_path / "t.jsonl"
    rc = main(["--workload", "lk23", "--topology", "small-numa", "--n", "512",
               "--iterations", "1", "--format", "jsonl",
               "--out", str(trace_file)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["--input", str(trace_file),
               "--filter", "kind=transfer,level=NUMANODE", "--stats"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kept" in text and "bytes [NUMANODE" in text
    with pytest.raises(SystemExit):
        main(["--input", str(trace_file), "--check"])
