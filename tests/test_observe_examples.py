"""Acceptance: the invariant checker runs green on every example.

Each example script is executed under :func:`repro.observe.capture`,
which attaches a tracer to every :class:`Machine` the script builds, and
then every machine that actually ran is audited against the full
conservation-law set.  This is the strongest end-to-end statement the
test suite makes: the accounting in the simulator closes on every
workload the repo ships, not just the hand-built fixtures.

Also covers the trace CLI acceptance path: chrome export for the ring
pipeline, and a JSON-lines export that round-trips losslessly.
"""

import json
import sys

import pytest

from repro import observe
from repro.observe import read_jsonl, stream_hash, write_jsonl
from repro.tools import trace as trace_cli

from .test_examples import load_example

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_audited(name: str, argv: list[str] | None = None, monkeypatch=None,
                expect_runs: bool = True):
    """Run examples/<name>.py under capture() and audit every machine."""
    if argv is not None:
        monkeypatch.setattr(sys, "argv", argv)
    with observe.capture() as cap:
        load_example(name).main()
    reports = cap.check_all(raise_on_violation=False)
    if expect_runs:
        assert reports, f"{name} built no machine that ran"
    for report in reports:
        assert report.ok, report.render()
    return cap, reports


def test_quickstart_invariants(capsys):
    cap, reports = run_audited("quickstart")
    assert all(r.events_audited > 0 for r in reports)


def test_custom_topology_invariants(capsys):
    # Pure topology/placement demo: no simulation, so the audit set may
    # be empty — green either way is what the acceptance asks for.
    run_audited("custom_topology", expect_runs=False)


def test_trace_affinity_invariants(capsys):
    run_audited("trace_affinity")


def test_ring_pipeline_invariants(capsys):
    cap, _ = run_audited("ring_pipeline")
    # Ring stages synchronize by lock handoff: wait spans must show up.
    assert any(t.counts().get("wait") for t in cap.tracers)


def test_timeline_debug_invariants(capsys):
    run_audited("timeline_debug")


@pytest.mark.slow
def test_cluster_placement_invariants(capsys):
    run_audited("cluster_placement")


@pytest.mark.slow
def test_fig1_reproduce_invariants(capsys, monkeypatch):
    run_audited(
        "fig1_reproduce",
        argv=["fig1_reproduce.py", "--cores", "8", "16"],
        monkeypatch=monkeypatch,
    )


@pytest.mark.slow
def test_placement_compare_invariants(capsys):
    run_audited("placement_compare")


class TestTraceCli:
    def test_ring_chrome_export(self, tmp_path, capsys):
        out = tmp_path / "ring.json"
        rc = trace_cli.main(
            ["--workload", "ring", "--stages", "4", "--rounds", "10",
             "--packet-kib", "64", "--format", "chrome",
             "--out", str(out), "--check", "--hash"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        fp_lines = [l for l in printed.splitlines()
                    if l.startswith("fingerprint:")]
        assert len(fp_lines) == 1
        assert len(fp_lines[0].split(":", 1)[1].strip()) == 64  # sha256 hex
        assert "invariants" in printed and "OK" in printed
        payload = json.loads(out.read_text())
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        assert {e["cat"] for e in spans} >= {"compute", "transfer"}

    def test_jsonl_export_round_trips(self, tmp_path, capsys):
        out = tmp_path / "ring.jsonl"
        rc = trace_cli.main(
            ["--workload", "ring", "--stages", "4", "--rounds", "10",
             "--packet-kib", "64", "--format", "jsonl", "--out", str(out)]
        )
        assert rc == 0
        events = read_jsonl(out)
        assert events
        # Lossless: re-export is byte-identical and hash-stable.
        copy = tmp_path / "copy.jsonl"
        write_jsonl(events, copy)
        assert copy.read_text() == out.read_text()
        assert stream_hash(read_jsonl(copy)) == stream_hash(events)

    def test_lk23_traffic_table(self, capsys):
        rc = trace_cli.main(
            ["--workload", "lk23", "--topology", "small-numa",
             "--policy", "nobind", "--n", "1024", "--iterations", "1",
             "--traffic", "--check"]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "Traffic by sharing level" in printed
        assert "NUMA-local" in printed
