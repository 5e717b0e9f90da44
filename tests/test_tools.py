"""Tests for the CLI tools and host-topology discovery."""

import pytest

from repro.comm import patterns
from repro.tools import dag as dag_cli
from repro.tools import fig1 as fig1_cli
from repro.tools import lstopo as lstopo_cli
from repro.tools import trace as trace_cli
from repro.tools import treematch as tm_cli
from repro.tools._common import resolve_topology
from repro.topology import serialize
from repro.topology.discover import discover, discover_linux
from repro.topology import presets


class TestResolveTopology:
    def test_preset_name(self):
        assert resolve_topology("small-numa").nb_pus == 8

    def test_spec_string(self):
        assert resolve_topology("numa:2 core:2 pu:1").nb_pus == 4

    def test_json_file(self, tmp_path):
        p = tmp_path / "t.json"
        serialize.save(presets.small_numa(), p)
        assert resolve_topology(str(p)).nb_pus == 8

    def test_garbage_exits(self):
        with pytest.raises(SystemExit):
            resolve_topology("certainly not a topology ###")


class TestLstopo:
    def test_render_default(self, capsys):
        assert lstopo_cli.main(["small-numa"]) == 0
        out = capsys.readouterr().out
        assert "Machine#0" in out
        assert "PU: 8" in out

    def test_summary_flag(self, capsys):
        lstopo_cli.main(["small-numa", "--summary"])
        out = capsys.readouterr().out
        assert "Machine#0" not in out
        assert "NUMANODE: 2" in out

    def test_export(self, tmp_path, capsys):
        dest = tmp_path / "out.json"
        lstopo_cli.main(["small-numa", "--export", str(dest)])
        assert serialize.load(dest).nb_pus == 8

    def test_non_json_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "topo.json"
        bad.write_text("not json\n")
        err = _assert_usage_error(capsys, lstopo_cli.main, [str(bad)])
        assert "not a topology file" in err


class TestTreematchCli:
    def test_demo_mode(self, capsys):
        assert tm_cli.main(["--demo", "small-numa"]) == 0
        out = capsys.readouterr().out
        assert "treematch on" in out
        assert "numa-cut" in out

    def test_matrix_file(self, tmp_path, capsys):
        mat = patterns.stencil_2d(2, 4)
        path = tmp_path / "m.txt"
        mat.save(path)
        assert tm_cli.main([str(path), "small-numa"]) == 0
        out = capsys.readouterr().out
        assert "b0.0" in out  # stencil labels listed

    def test_policy_choice(self, capsys):
        assert tm_cli.main(["--demo", "small-numa", "--policy", "compact"]) == 0
        assert "compact on" in capsys.readouterr().out

    def test_missing_matrix_errors(self):
        with pytest.raises(SystemExit):
            tm_cli.main([])

    def test_absent_matrix_file_rejected(self, tmp_path, capsys):
        absent = tmp_path / "absent.mat"
        err = _assert_usage_error(capsys, tm_cli.main, [str(absent)])
        assert "absent.mat" in err

    def test_non_matrix_file_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("hello world\n")
        err = _assert_usage_error(capsys, tm_cli.main, [str(bad), "paper-smp"])
        assert "not a communication matrix file" in err


class TestFig1Cli:
    def test_small_sweep(self, capsys):
        assert fig1_cli.main(["--cores", "8", "--iterations", "2", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "orwl-bind" in out

    def test_csv_export(self, tmp_path, capsys):
        dest = tmp_path / "fig1.csv"
        fig1_cli.main(
            ["--cores", "8", "--iterations", "2", "--n", "1024", "--csv", str(dest)]
        )
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("implementation,")
        assert len(lines) == 4  # header + 3 implementations

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--cores", "8", "7"], id="7"),
            pytest.param(["--cores", "8", "0"], id="0"),
            pytest.param(["--iterations", "0"], id="iterations0"),
            pytest.param(["--seeds", "0"], id="seeds0"),
            pytest.param(["--n", "0"], id="n0"),
            pytest.param(["--workers", "-1"], id="workers-1"),
            pytest.param(["--cores", "192", "--n", "100"], id="strips-finer-than-n"),
            pytest.param(["--no-cache"], id="no-cache"),
        ],
    )
    def test_partial_socket_rejected_before_sweep(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(fig1_cli, "run_fig1", _no_sweep)
        _assert_usage_error(capsys, fig1_cli.main, argv)


class TestDagCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--cores", "7"],
            ["--cores", "-8"],
            ["--cores-per-socket", "0"],
            ["--seeds", "0"],
            ["--scale", "0"],
            ["--workers", "-1"],
        ],
    )
    def test_partial_socket_rejected_before_sweep(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(dag_cli, "run_dag", _no_sweep)
        _assert_usage_error(capsys, dag_cli.main, argv)


class TestScalingCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--seeds", "0"],
            ["--iterations", "0"],
            ["--cells-per-core", "0"],
            ["--workers", "-1"],
            ["--preset", "paper", "--cells-per-core", "64", "--iterations", "1"],
        ],
    )
    def test_bad_count_rejected_before_sweep(self, argv, monkeypatch, capsys):
        from repro.tools import scaling as scaling_cli

        monkeypatch.setattr(scaling_cli, "run_scaling", _no_sweep)
        _assert_usage_error(capsys, scaling_cli.main, argv)


class TestTraceCli:
    def test_missing_input_rejected(self, tmp_path, capsys):
        err = _assert_usage_error(
            capsys, trace_cli.main, ["--input", str(tmp_path / "absent.jsonl")]
        )
        assert "absent.jsonl" in err

    def test_malformed_input_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        err = _assert_usage_error(capsys, trace_cli.main, ["--input", str(bad)])
        assert "not a JSONL trace stream" in err

    def test_out_in_missing_directory_rejected_before_run(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "absent" / "x.jsonl"
        monkeypatch.setattr(trace_cli, "Runtime", _no_sweep)
        err = _assert_usage_error(
            capsys, trace_cli.main, ["--format", "jsonl", "--out", str(out)]
        )
        assert "--out" in err and "does not exist" in err


class TestTopCli:
    @pytest.mark.parametrize("interval", ["-1", "0", "nan"])
    def test_bad_interval_rejected(self, interval, monkeypatch, capsys):
        from repro.tools import top as top_cli

        monkeypatch.setattr(top_cli, "read_snapshot", _no_sweep)
        err = _assert_usage_error(capsys, top_cli.main, ["--interval", interval])
        assert "--interval" in err


class TestPerfCli:
    def test_missing_trace_rejected(self, tmp_path, capsys):
        from repro.tools import perf as perf_cli

        err = _assert_usage_error(
            capsys, perf_cli.main, ["--trace-in", str(tmp_path / "absent.jsonl")]
        )
        assert "absent.jsonl" in err

    def test_malformed_trace_rejected(self, tmp_path, capsys):
        from repro.tools import perf as perf_cli

        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        err = _assert_usage_error(capsys, perf_cli.main, ["--trace-in", str(bad)])
        assert "not a JSONL trace stream" in err

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--iterations", "0"], id="iterations0"),
            pytest.param(["--n", "0"], id="n0"),
            pytest.param(["--seeds", "0"], id="seeds0"),
            pytest.param(["--n", "10"], id="grid-finer-than-n"),
            pytest.param(["--n", "100", "--impl", "openmp"],
                         id="strips-finer-than-n"),
        ],
    )
    def test_bad_count_rejected_before_run(self, argv, monkeypatch, capsys):
        from repro.tools import perf as perf_cli

        monkeypatch.setattr(perf_cli, "run_traced", _no_sweep)
        _assert_usage_error(capsys, perf_cli.main, argv)


class TestPlaceCli:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["query", "/nonexistent", "small-numa"],
                         "/nonexistent", id="missing-matrix"),
            pytest.param(["query", "NOT_A_MATRIX", "small-numa"],
                         "not a communication matrix file", id="bad-matrix"),
            pytest.param(["query", "--demo", "8", "NOT_A_MATRIX"],
                         "not a topology file", id="bad-topology"),
            pytest.param(["query", "--demo", "0"], "--demo", id="demo0"),
            pytest.param(["serve", "--demo", "-2"], "--demo", id="serve-demo-2"),
            pytest.param(["bench", "--demo", "4", "--iterations", "0"],
                         "--iterations", id="bench-iterations0"),
            pytest.param(["query"], "--demo N", id="no-matrix"),
        ],
    )
    def test_bad_input_rejected_before_service(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        from repro.tools import place as place_cli

        bad = tmp_path / "bad.mat"
        bad.write_text("not a matrix\n")
        argv = [str(bad) if a == "NOT_A_MATRIX" else a for a in argv]
        monkeypatch.setattr(place_cli, "PlacementService", _no_sweep)
        err = _assert_usage_error(capsys, place_cli.main, argv)
        assert message in err


class TestSweepClisLeaveNoState:
    """A sweep CLI writes nothing into the working directory and leaves
    no cache switch in the environment: every result is computed by the
    code that runs it."""

    def test_cwd_and_environ_untouched(self, tmp_path, monkeypatch, capsys):
        import os

        from repro.tools import reproduce as rep_cli
        from repro.tools import scaling as scaling_cli

        monkeypatch.chdir(tmp_path)
        environ = dict(os.environ)
        small = ["--iterations", "1", "--workers", "1"]
        assert fig1_cli.main(["--cores", "8", "--n", "128", *small]) == 0
        assert dag_cli.main(
            ["--workloads", "bfs", "--policies", "bind", "--cores", "8",
             "--scale", "1", "--workers", "1"]
        ) == 0
        assert scaling_cli.main(
            ["--preset", "paper", "--cells-per-core", "1024", *small]
        ) == 0
        assert rep_cli.main(["--cores", "8", *small]) in (0, 1)
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []
        assert dict(os.environ) == environ


def _no_sweep(*args, **kwargs):
    raise AssertionError("the sweep must not start on a usage error")


def _assert_usage_error(capsys, main, argv) -> str:
    """*main(argv)* exits 2 with a one-line error and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    return err


class TestSimulateCli:
    def test_runs_small(self, capsys):
        from repro.tools import simulate as sim_cli

        rc = sim_cli.main(
            ["--topology", "small-numa", "--iterations", "2", "--n", "1024"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "processing" in out
        assert "NUMA-local" in out

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--tasks", "0"], id="tasks0"),
            pytest.param(["--n", "-5"], id="n-5"),
            pytest.param(["--iterations", "0"], id="iterations0"),
        ],
    )
    def test_bad_count_rejected_before_run(self, argv, monkeypatch, capsys):
        from repro.tools import simulate as sim_cli

        monkeypatch.setattr(sim_cli, "run_lk23", _no_sweep)
        _assert_usage_error(capsys, sim_cli.main, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--n", "1", "--iterations", "1"], id="n1"),
            pytest.param(["--n", "64", "--tasks", "100000"], id="tasks100000"),
        ],
    )
    def test_grid_finer_than_matrix_rejected(self, argv, monkeypatch, capsys):
        from repro.tools import simulate as sim_cli

        monkeypatch.setattr(sim_cli, "run_lk23", _no_sweep)
        err = _assert_usage_error(
            capsys, sim_cli.main, ["--topology", "small-numa", *argv]
        )
        assert "finer than" in err

    def test_report_flag(self, capsys):
        from repro.tools import simulate as sim_cli

        sim_cli.main(
            ["--topology", "small-numa", "--iterations", "2", "--n", "1024",
             "--report"]
        )
        out = capsys.readouterr().out
        assert "Placement report" in out

    def test_nobind_policy(self, capsys):
        from repro.tools import simulate as sim_cli

        rc = sim_cli.main(
            ["--topology", "small-numa", "--policy", "nobind",
             "--iterations", "2", "--n", "1024"]
        )
        assert rc == 0


class TestValidateCli:
    def test_default_model_passes(self, capsys):
        from repro.tools import validate as val_cli

        assert val_cli.main(["small-numa"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cluster_costs_flag(self, capsys):
        from repro.tools import validate as val_cli

        assert val_cli.main(["cluster", "--cluster-costs"]) == 0


class TestReproduceCli:
    @pytest.mark.slow
    def test_full_reproduction_passes(self, capsys):
        from repro.tools import reproduce as rep_cli

        rc = rep_cli.main(["--cores", "8", "96", "192", "--iterations", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[PASS] C2" in out
        assert "All claims reproduced." in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--cores", "7"],
            ["--cores", "8", "0"],
            ["--iterations", "0"],
            ["--seeds", "0"],
            ["--workers", "-1"],
        ],
    )
    def test_bad_argument_rejected_before_sweep(self, argv, monkeypatch, capsys):
        from repro.tools import reproduce as rep_cli

        monkeypatch.setattr(rep_cli, "run_fig1", _no_sweep)
        _assert_usage_error(capsys, rep_cli.main, argv)


class TestDiscover:
    def test_discover_best_effort(self):
        topo = discover()
        # On Linux CI this succeeds; elsewhere None is acceptable.
        if topo is not None:
            assert topo.nb_pus >= 1
            assert topo.arities()  # balanced envelope

    def test_discover_linux_on_this_host(self):
        import pathlib

        if not pathlib.Path("/sys/devices/system/cpu").is_dir():
            pytest.skip("no sysfs")
        topo = discover_linux()
        assert topo is not None
        import os

        assert topo.nb_pus >= 1
