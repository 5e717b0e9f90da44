"""Integration + acceptance tests for ``repro.metrics``.

The acceptance-critical case is byte determinism: with metrics enabled,
the *stable* snapshot of a Figure-1 sweep must be byte-identical
between serial and parallel execution.  Also here: the observe-exporter-under-parallel-sweep
satellite (JSONL interleaving from pool workers must never corrupt the
stream) and end-to-end runs of the ``bench history`` drift gate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.exec.runner import SweepRunner, Task
from repro.experiments.fig1 import run_fig1
from repro.metrics import core
from repro.observe import Tracer, dumps_jsonl, read_jsonl
from repro.simulate.machine import Machine
from repro.simulate.syscalls import Compute, Receive, Wait
from repro.topology import presets


@pytest.fixture(autouse=True)
def _clean_metrics(monkeypatch):
    monkeypatch.delenv(core.ENV_METRICS, raising=False)
    core.reset_registry()
    was = core.is_enabled()
    core.set_enabled(False)
    yield
    core.set_enabled(was)
    core.reset_registry()


def _stable_fig1(n_workers: int) -> str:
    core.reset_registry()
    core.enable()
    run_fig1(
        core_counts=(8,),
        iterations=2,
        n=256,
        seed=0,
        n_workers=n_workers,
        fingerprint=True,
        seeds=2,
    )
    return core.registry().to_json(stable_only=True)


class TestStableSnapshotDeterminism:
    def test_serial_equals_parallel(self):
        serial = _stable_fig1(n_workers=1)
        parallel = _stable_fig1(n_workers=2)
        assert serial == parallel
        # and the snapshot is not trivially empty
        metrics = json.loads(serial)["metrics"]
        assert metrics["sim_runs_total"]["value"] > 0
        assert metrics["sweep_points_total"]["value"] == 6  # 3 impls × 2 seeds

    def test_unstable_metrics_exist_but_are_excluded(self):
        core.enable()
        run_fig1(
            core_counts=(8,), iterations=1, n=128, seed=0,
            n_workers=1,
        )
        reg = core.registry()
        full = reg.snapshot()["metrics"]
        stable = reg.snapshot(stable_only=True)["metrics"]
        assert "engine_run_wall_seconds" in full  # wall clock: recorded
        assert "engine_run_wall_seconds" not in stable  # ...but unstable
        assert "sweep_last_wall_seconds" in full  # gauge
        assert "sweep_last_wall_seconds" not in stable


class TestRuntimeInstrumentation:
    def _machine(self, topo, tracer=None):
        machine = Machine(topo, tracer=tracer)
        ready = machine.new_event("ready")
        prod = machine.add_thread("producer", bound_pu_os=0)
        cons = machine.add_thread("consumer", bound_pu_os=4)

        def producer():
            yield Compute(1e-3)
            ready.fire()

        def consumer():
            yield Wait(ready)
            yield Receive(prod, 1e6)

        machine.set_body(prod, producer())
        machine.set_body(cons, consumer())
        return machine

    def test_machine_run_records_metrics(self, small_topo):
        core.enable()
        machine = self._machine(small_topo)
        machine.run()
        reg = core.registry()
        assert reg.counter("sim_runs_total").value == 1
        assert reg.counter("sim_events_total").value == machine.engine.events_fired

    def test_tracer_bridges_orwl_events(self, small_topo):
        core.enable()
        tracer = Tracer()
        machine = self._machine(small_topo, tracer=tracer)
        machine.run()
        reg = core.registry()
        counts = tracer.counts()
        assert reg.counter("orwl_waits_total").value == counts["wait"]
        assert reg.counter("orwl_transfers_total").value == counts["transfer"]
        assert reg.counter("orwl_transfer_bytes_total").value == int(1e6)

    def test_disabled_run_records_nothing(self, small_topo):
        machine = self._machine(small_topo)
        machine.run()
        assert len(core.registry()) == 0

    def test_placement_service_slo_and_health(self, paper_topo_small,
                                              stencil_matrix):
        from repro.placement.service import PlacementService

        core.enable()
        service = PlacementService(paper_topo_small)
        service.query_sync(stencil_matrix)  # cold
        service.query_sync(stencil_matrix)  # warm
        reg = core.registry()
        assert reg.counter("placement_queries_total").value == 2
        assert reg.counter("placement_memo_hits_total").value == 1
        assert reg.counter("placement_memo_misses_total").value == 1
        slo = service.slo()
        assert slo["warm"]["count"] == 1 and slo["cold"]["count"] == 1
        assert slo["warm"]["p50_s"] <= slo["warm"]["p99_s"]
        health = service.health()
        assert health["status"] == "ok" and health["queries_served"] == 2


# -- observe exporters under parallel sweeps -------------------------------


def _traced_point(seed: int, out_path: str = "") -> str:
    """Sweep task: run a traced machine, append its JSONL to *out_path*.

    The append is a single ``write`` of complete lines, so concurrent
    workers interleave at line granularity — which is exactly the
    property the test asserts survives a parallel sweep.
    """
    topo = presets.small_numa(2, 4)
    tracer = Tracer()
    machine = Machine(topo, tracer=tracer)
    ready = machine.new_event("ready")
    prod = machine.add_thread(f"producer{seed}", bound_pu_os=0)
    cons = machine.add_thread(f"consumer{seed}", bound_pu_os=4)

    def producer():
        yield Compute(1e-3 * (seed + 1))
        ready.fire()

    def consumer():
        yield Wait(ready)
        yield Receive(prod, 1e5 * (seed + 1))

    machine.set_body(prod, producer())
    machine.set_body(cons, consumer())
    machine.run()
    text = dumps_jsonl(tracer.events)
    if out_path:
        with open(out_path, "a") as fh:
            fh.write(text)
    return text


class TestObserveExportersUnderParallelSweeps:
    def test_jsonl_interleaving_not_corrupted(self, tmp_path):
        shared = str(tmp_path / "interleaved.jsonl")
        tasks = [
            Task(_traced_point, {"seed": s, "out_path": shared}, label=f"t{s}")
            for s in range(8)
        ]
        runner = SweepRunner(n_workers=4, chunk_size=1)
        texts = runner.map(tasks)

        # every line of the shared file parses; no torn or merged lines
        events = read_jsonl(shared)
        expected = sum(t.count("\n") for t in texts)
        assert len(events) == expected
        with open(shared) as fh:
            for line in fh:
                json.loads(line)  # would raise on corruption

        # per-task streams reconstruct exactly from the interleaved file
        by_thread: dict[str, list] = {}
        for ev in events:
            if ev.thread:
                by_thread.setdefault(ev.thread, []).append(ev)
        for s, text in enumerate(texts):
            own = [e for e in read_jsonl_str(text) if e.thread]
            for ev in own:
                assert ev in by_thread[ev.thread]

    def test_parallel_jsonl_matches_serial(self, tmp_path):
        serial = SweepRunner(n_workers=1).map(
            [Task(_traced_point, {"seed": s}) for s in range(4)]
        )
        parallel = SweepRunner(n_workers=2).map(
            [Task(_traced_point, {"seed": s}) for s in range(4)]
        )
        assert serial == parallel  # byte-for-byte, order preserved


def read_jsonl_str(text: str):
    from repro.observe import loads_jsonl

    return loads_jsonl(text)


# -- bench history end-to-end ----------------------------------------------


def _report(stamp: str, mean: float = 1.0) -> dict:
    return {
        "meta": {"timestamp": stamp},
        "dag": {"stats": [{"workload": "bfs", "policy": "bind",
                           "mean": mean, "ci_lo": 0.9, "ci_hi": 1.1}]},
    }


class TestBenchHistoryCli:
    def test_injected_drift_fails_the_gate(self, tmp_path, capsys):
        from repro.tools.bench import main

        for i, mean in enumerate([1.0, 1.0, 1.4]):  # 1.4 > 1.1 × 1.25
            (tmp_path / f"BENCH_{i}.json").write_text(
                json.dumps(_report(f"2026-02-0{i + 1}T00:00:00", mean))
            )
        rc = main(["history", "--dir", str(tmp_path), "--baseline", ""])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DRIFT" in out and "dag bfs/bind" in out
        # --no-check reports but stays green for non-gating use
        assert main(["history", "--dir", str(tmp_path), "--baseline", "",
                     "--no-check"]) == 0

    def test_committed_baseline_alone_is_green(self, capsys):
        from repro.tools.bench import main

        assert os.path.exists("benchmarks/baseline_ci.json")
        rc = main(["history", "--dir", "/nonexistent",
                   "--baseline", "benchmarks/baseline_ci.json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trajectory green" in out

    def test_one_regressed_row_over_committed_baseline_fails(
        self, tmp_path, capsys
    ):
        from repro.tools.bench import main

        with open("benchmarks/baseline_ci.json") as fh:
            later = json.load(fh)
        later["meta"]["timestamp"] = "9999-01-01T00:00:00"
        later["fig1"]["stats"][0]["mean"] *= 2.0
        (tmp_path / "BENCH_later.json").write_text(json.dumps(later))
        rc = main(["history", "--dir", str(tmp_path),
                   "--baseline", "benchmarks/baseline_ci.json"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 drift(s) detected" in out

    def test_history_keys_rows_like_the_compare_gate(self):
        from repro.metrics.history import history_report, load_reports
        from repro.tools.bench import compare_reports

        baseline = load_reports(["benchmarks/baseline_ci.json"])
        rows = history_report(baseline)["stats_rows"]
        passed, _ = compare_reports(baseline[0], baseline[0])
        gated = {line.split(": mean ")[0] for line in passed if ": mean " in line}
        assert {r["key"] for r in rows} == gated
        assert len(gated) == 15

    def test_json_output_parses(self, tmp_path, capsys):
        from repro.tools.bench import main

        (tmp_path / "BENCH_0.json").write_text(
            json.dumps(_report("2026-02-01T00:00:00"))
        )
        rc = main(["history", "--dir", str(tmp_path), "--baseline", "",
                   "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["n_reports"] == 1


class TestFig1MetricsFlag:
    def test_fig1_tool_publishes_snapshot(self, tmp_path, capsys):
        from repro.metrics.bus import read_snapshot
        from repro.tools.fig1 import main

        out = str(tmp_path / "live.json")
        rc = main(["--cores", "8", "--iterations", "1", "--n", "128",
                   "--workers", "1", "--metrics", out])
        assert rc == 0
        snap = read_snapshot(out)
        assert snap is not None
        m = snap["metrics"]
        assert m["sweep_progress_done"]["value"] == m["sweep_progress_total"]["value"] > 0
        assert m["sim_runs_total"]["value"] > 0
