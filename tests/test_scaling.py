"""Tests for the scaling study, paired statistics, and the bench gate.

Covers the acceptance contracts of the scaling PR:

* paired permutation test on identical samples reports p = 1 and
  Cliff's delta = 0;
* Holm–Bonferroni never reports a corrected p below the raw p
  (property-tested), preserves input order, and clips to 1;
* the scaling experiment sweeps ascending sizes with matched seed
  schedules, renders an aligned speedup table, and dumps valid JSON;
* ``repro.tools.bench --compare`` passes against the committed
  baseline and fails (nonzero exit) on a synthetically regressed one.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scaling import (
    CELLS_PER_CORE,
    matrix_order,
    run_scaling,
    run_scaling_point,
)
from repro.stats.significance import (
    cliffs_delta,
    cliffs_delta_label,
    compare_paired,
    correct_verdicts,
    holm_bonferroni,
    paired_permutation_pvalue,
)
from repro.tools.bench import compare_reports
from repro.util.validate import ValidationError

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "benchmarks" / "baseline_ci.json"

#: Small-but-real sweep configuration shared by the experiment tests:
#: two machine sizes, ~5 % of the paper's per-core work (enough for
#: communication to matter), two matched seeds.
SMALL = dict(
    presets=("smp48x8", "paper"),  # deliberately unsorted
    iterations=1,
    cells_per_core=65536,
    seeds=2,
    n_workers=1,
)


@pytest.fixture(scope="module")
def sweep():
    return run_scaling(**SMALL)


class TestPairedStats:
    def test_identical_samples_are_null(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        p, method = paired_permutation_pvalue(xs, xs)
        assert p == 1.0
        assert method == "exact-sign-flip"
        assert cliffs_delta(xs, xs) == 0.0

    def test_clear_separation_is_small_p_large_delta(self):
        a = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
        b = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
        p, method = paired_permutation_pvalue(a, b)
        assert method == "exact-sign-flip"
        assert p == pytest.approx(2 / 2**6)
        assert cliffs_delta(a, b) == 1.0
        assert cliffs_delta_label(1.0) == "large"
        assert cliffs_delta_label(0.0) == "negligible"

    def test_monte_carlo_path_is_deterministic(self):
        a = list(range(20))  # 2^20 sign flips > exact limit
        b = [x + 0.5 for x in a]
        p1, m1 = paired_permutation_pvalue([float(x) for x in a], b)
        p2, m2 = paired_permutation_pvalue([float(x) for x in a], b)
        assert m1 == m2 == "monte-carlo-sign-flip"
        assert p1 == p2

    def test_single_pair_is_insufficient(self):
        p, method = paired_permutation_pvalue([1.0], [2.0])
        assert p is None
        assert method == "none"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            paired_permutation_pvalue([1.0, 2.0], [1.0])

    @given(
        ps=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_holm_never_below_raw(self, ps):
        corrected = holm_bonferroni(ps)
        assert len(corrected) == len(ps)
        for raw, corr in zip(ps, corrected):
            assert corr >= raw
            assert corr <= 1.0
        # Step-down monotonicity: sorting by raw p sorts corrected too.
        order = sorted(range(len(ps)), key=lambda k: ps[k])
        ranked = [corrected[k] for k in order]
        assert ranked == sorted(ranked)

    def test_holm_known_values(self):
        # Classic example: m=3 raw ps.
        assert holm_bonferroni([0.01, 0.04, 0.03]) == [0.03, 0.06, 0.06]
        with pytest.raises(ValidationError):
            holm_bonferroni([1.5])

    def test_compare_paired_and_family_correction(self):
        base = [4.0, 4.1, 3.9, 4.2]
        cand = [1.0, 1.1, 0.9, 1.2]
        v = compare_paired("base", base, "cand", cand)
        assert v.n_pairs == 4
        assert v.speedup_mean > 3.0
        assert v.p_corrected == v.p_value
        family = correct_verdicts([v, v, v])
        for corrected in family:
            assert corrected.p_corrected >= corrected.p_value
        assert "cand vs base" in str(v)  # renders candidate-first


class TestScalingExperiment:
    def test_weak_scaling_matrix_order(self):
        assert matrix_order(192, CELLS_PER_CORE) == 16383  # isqrt rounding
        assert matrix_order(768) == 2 * matrix_order(192) + 1
        with pytest.raises(ValidationError):
            matrix_order(0)

    def test_point_runs_on_generated_preset(self):
        p = run_scaling_point(
            "smp48x8", "orwl-bind", iterations=1, cells_per_core=512
        )
        assert p.n_cores == 384
        assert p.n == matrix_order(384, 512)
        assert p.time > 0
        with pytest.raises(ValidationError):
            run_scaling_point("paper", "mpi")

    def test_sizes_sorted_and_seeds_matched(self, sweep):
        assert sweep.presets == ["paper", "smp48x8"]  # re-sorted ascending
        assert sweep.sizes == {"paper": 192, "smp48x8": 384}
        for preset in sweep.presets:
            for impl in sweep.implementations():
                times = sweep.times_of(preset, impl)
                assert len(times) == 2
                # replicate 0 is the base-seed run reported in `points`
                assert times[0] == sweep.point_of(preset, impl).time

    def test_bind_beats_nobind_at_every_size(self, sweep):
        # The full-workload growth curve is the nightly sweep's job; at
        # this test-sized workload we pin the qualitative claim only.
        for preset in sweep.presets:
            assert sweep.speedup(preset, "orwl-nobind") > 1.2

    def test_paired_verdicts_are_corrected_families(self, sweep):
        verdicts = sweep.paired_verdicts()
        assert set(verdicts) == {"orwl-nobind", "openmp"}
        for rows in verdicts.values():
            assert [preset for preset, _ in rows] == sweep.presets
            for _, v in rows:
                assert v.candidate == "orwl-bind"
                assert v.n_pairs == 2
                assert v.p_corrected >= v.p_value

    def test_speedup_table_is_aligned(self, sweep):
        lines = sweep.speedup_table().splitlines()
        header, rule = lines[0], lines[1]
        assert len(rule) == len(header)
        for row in lines[2 : 2 + len(sweep.presets)]:
            assert len(row) == len(header)
        assert "paired sign-flip permutation tests" in sweep.speedup_table()

    def test_json_dump_is_serializable(self, sweep):
        blob = json.dumps(sweep.to_json_dict())
        back = json.loads(blob)
        assert back["format"] == "repro-scaling"
        assert back["n_seeds"] == 2
        assert len(back["points"]) == 2 * 3
        assert len(back["paired_significance"]) == 2 * 2
        assert set(back["saturation"]) == {"orwl-nobind", "openmp"}

    def test_unknown_inputs_rejected(self):
        with pytest.raises(KeyError):
            run_scaling(presets=("smp7x7",), seeds=1)
        with pytest.raises(ValidationError):
            run_scaling(presets=("paper",), implementations=("mpi",))


class TestScalingCli:
    def test_cli_smoke(self, tmp_path, capsys):
        from repro.tools.scaling import main

        out_json = tmp_path / "scaling.json"
        out_chart = tmp_path / "chart.txt"
        rc = main(
            [
                "--preset", "paper",
                "--seeds", "2",
                "--iterations", "1",
                "--cells-per-core", "512",
                "--workers", "1",
                "--json", str(out_json),
                "--chart", str(out_chart),
                "--plot",
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "preset" in printed and "p-corr" in printed
        assert "ORWL-Bind speedup" in out_chart.read_text()
        assert json.loads(out_json.read_text())["format"] == "repro-scaling"

    def test_cli_rejects_unknown_preset(self, capsys):
        from repro.tools.scaling import main

        with pytest.raises(SystemExit):
            main(["--preset", "paper,smp7x7"])


class TestBenchCompareGate:
    def _baseline(self):
        return json.loads(BASELINE.read_text())

    def test_committed_baseline_passes_against_itself(self):
        baseline = self._baseline()
        passed, failed = compare_reports(baseline, baseline)
        assert failed == []
        expected = len(baseline["fig1"]["stats"]) + 1  # + bit-identical
        if "dag" in baseline:
            expected += len(baseline["dag"]["stats"]) + 1
        assert len(passed) == expected

    def test_regressed_current_fails(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        for row in current["fig1"]["stats"]:
            row["mean"] *= 2.0
        passed, failed = compare_reports(current, baseline)
        assert len(failed) == len(baseline["fig1"]["stats"])
        assert all("regressed" in line for line in failed)

    def test_within_threshold_wobble_passes(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        for row in current["fig1"]["stats"]:
            row["mean"] = row["ci_hi"] * 1.2  # inside the 25 % margin
        _, failed = compare_reports(current, baseline)
        assert failed == []

    def test_determinism_regression_fails(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        current["fig1"]["bit_identical"] = False
        _, failed = compare_reports(current, baseline)
        assert any("bit-identical" in line for line in failed)

    def test_missing_stats_sections_fail(self):
        baseline = self._baseline()
        _, failed = compare_reports({"fig1": {}}, baseline)
        assert any("current run has no fig1 stats" in line for line in failed)
        _, failed = compare_reports(baseline, {"fig1": {}})
        assert any("baseline has no fig1 stats" in line for line in failed)

    def test_committed_baseline_gate_lines_are_pinned(self):
        baseline = self._baseline()
        passed, failed = compare_reports(baseline, baseline)
        assert failed == []
        assert passed == [
            "openmp@8: mean 0.001654 vs baseline 0.001654 (limit 0.002068)",
            "openmp@16: mean 0.001074 vs baseline 0.001074 (limit 0.001343)",
            "orwl-bind@8: mean 0.001807 vs baseline 0.001807 (limit 0.002287)",
            "orwl-bind@16: mean 0.001115 vs baseline 0.001115 (limit 0.001457)",
            "orwl-nobind@8: mean 0.003446 vs baseline 0.003446 (limit 0.006393)",
            "orwl-nobind@16: mean 0.002633 vs baseline 0.002633 (limit 0.003405)",
            "bit-identical serial/parallel: True",
            "dag bfs/bind: mean 0.000087 vs baseline 0.000087 (limit 0.000123)",
            "dag bfs/nobind: mean 0.000099 vs baseline 0.000099 (limit 0.000139)",
            "dag bfs/service: mean 0.000083 vs baseline 0.000083 (limit 0.000118)",
            "dag cholesky/bind: mean 0.006216 vs baseline 0.006216 (limit 0.007776)",
            "dag cholesky/nobind: mean 0.005458 vs baseline 0.005458 (limit 0.006868)",
            "dag cholesky/service: mean 0.006218 vs baseline 0.006218 (limit 0.007776)",
            "dag divconq/bind: mean 0.020760 vs baseline 0.020760 (limit 0.025951)",
            "dag divconq/nobind: mean 0.018444 vs baseline 0.018444 (limit 0.024554)",
            "dag divconq/service: mean 0.020762 vs baseline 0.020762 (limit 0.025958)",
            "dag bit-identical serial/parallel: True",
        ]

    def test_regressed_dag_row_fails(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        row = next(r for r in current["dag"]["stats"]
                   if (r["workload"], r["policy"]) == ("cholesky", "bind"))
        row["mean"] *= 2.0
        _, failed = compare_reports(current, baseline)
        assert len(failed) == 1
        assert failed[0].startswith("dag cholesky/bind: mean ")
        assert "regressed 2.00x" in failed[0]

    def test_lost_dag_bit_identity_fails(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        current["dag"]["bit_identical"] = False
        _, failed = compare_reports(current, baseline)
        assert failed == [
            "dag serial/parallel sweeps no longer bit-identical "
            "(baseline was bit-identical)"
        ]

    def test_missing_dag_point_fails(self):
        baseline = self._baseline()
        current = json.loads(BASELINE.read_text())
        current["dag"]["stats"] = [
            r for r in current["dag"]["stats"]
            if (r["workload"], r["policy"]) != ("bfs", "nobind")
        ]
        _, failed = compare_reports(current, baseline)
        assert failed == ["dag bfs/nobind: point missing from current run"]

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["--seeds", "0"], id="seeds0"),
            pytest.param(["--compare", str(BASELINE)], id="compare-seeds1"),
            pytest.param(["--seeds", "3", "--compare", "/nonexistent.json"],
                         id="compare-missing"),
        ],
    )
    def test_cli_rejects_bad_arguments_before_sweep(
        self, argv, monkeypatch, capsys
    ):
        from repro.tools import bench as bench_cli
        from tests.test_tools import _assert_usage_error, _no_sweep

        monkeypatch.setattr(bench_cli, "bench_fig1", _no_sweep)
        monkeypatch.setattr(bench_cli, "bench_dag", _no_sweep)
        _assert_usage_error(capsys, bench_cli.main, ["--quick", *argv])

    @pytest.mark.slow
    def test_cli_gate_exit_codes(self, tmp_path):
        from repro.tools.bench import main

        out = tmp_path / "bench.json"
        rc = main(
            ["--quick", "--seeds", "3", "--output", str(out),
             "--compare", str(BASELINE)]
        )
        assert rc == 0

        regressed = json.loads(BASELINE.read_text())
        for row in regressed["fig1"]["stats"]:
            row["mean"] *= 0.1
            row["ci_hi"] *= 0.1
            row["ci_lo"] *= 0.1
        bad = tmp_path / "regressed_baseline.json"
        bad.write_text(json.dumps(regressed))
        rc = main(
            ["--quick", "--seeds", "3", "--output", str(out),
             "--compare", str(bad)]
        )
        assert rc == 1
