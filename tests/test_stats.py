"""The multi-seed statistics layer: aggregation, significance, sweeps.

The contract under test (see ``repro.stats``):

* ``summarize`` is deterministic, order-invariant, and its CI always
  contains the sample mean; N=1 degenerates to the single-run number.
* ``compare`` renders a verdict that is ``insufficient-data`` for
  single runs, detects clearly separated samples, and stays calm on
  identical ones.
* ``run_replicated`` expands points × seeds with replicate 0 on the
  base seed, groups results per point in submission order, and is
  bit-identical between serial and parallel execution.
* The Figure-1 wiring: ``run_fig1(..., seeds=N)`` carries per-point
  ``SeedStats``, its replicate 0 equals the ``seeds=1`` sweep
  bit-for-bit, and the CLIs render stats without perturbing the
  single-seed output.
"""

from __future__ import annotations

import pytest

from repro.exec.runner import SweepRunner, derive_seed
from repro.stats import (
    ReplicateSpec,
    SeedStats,
    compare,
    permutation_pvalue,
    replicate_seeds,
    run_replicated,
    speedup_distribution,
    summarize,
)
from repro.util.validate import ValidationError

# ---------------------------------------------------------------------------
# Module-level payloads (picklable by reference for the process pool).
# ---------------------------------------------------------------------------


def _noisy_value(base: float, seed: int) -> float:
    """A deterministic pseudo-measurement: base plus seeded jitter."""
    return base + (derive_seed(seed, "jitter") % 1000) / 10_000.0


class TestSummarize:
    def test_n1_is_the_single_run_number(self):
        s = summarize([3.25])
        assert s.n == 1
        assert s.mean == s.median == 3.25
        assert s.stddev == 0.0
        assert s.ci == (3.25, 3.25)
        assert s.values == (3.25,)

    def test_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.median == 2.5
        assert s.stddev == pytest.approx(1.29099, rel=1e-4)
        assert s.ci_lo <= 2.5 <= s.ci_hi
        assert s.values == (1.0, 2.0, 3.0, 4.0)

    def test_order_invariant_bit_identical(self):
        a = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
        b = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert a == b  # dataclass equality: every field, bit-for-bit

    def test_deterministic_across_calls(self):
        vals = [0.1, 0.5, 0.9, 0.2]
        assert summarize(vals) == summarize(vals)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            summarize([])
        with pytest.raises(ValidationError):
            summarize([1.0], confidence=1.5)
        with pytest.raises(ValidationError):
            summarize([1.0], n_boot=0)

    def test_ci_overlap_helper(self):
        lo = summarize([1.0, 1.1, 0.9, 1.05])
        hi = summarize([100.0, 101.0, 99.0, 100.5])
        assert not lo.overlaps(hi)
        assert lo.overlaps(lo)


class TestSignificance:
    def test_single_runs_are_insufficient(self):
        v = compare("a", [2.0], "b", [1.0])
        assert v.verdict == "insufficient-data"
        assert v.p_value is None
        assert not v.significant
        assert v.speedup_mean == 2.0
        assert v.speedup_ci_lo == v.speedup_ci_hi == 2.0

    def test_separated_samples_significant(self):
        slow = [10.0, 10.1, 9.9, 10.05, 9.95]
        fast = [2.0, 2.1, 1.9, 2.05, 1.95]
        v = compare("slow", slow, "fast", fast)
        assert v.verdict == "significant"
        assert v.p_value is not None and v.p_value < 0.05
        assert v.method == "exact-permutation"
        assert v.speedup_mean == pytest.approx(5.0, rel=0.05)
        assert v.speedup_ci_lo <= v.speedup_mean <= v.speedup_ci_hi

    def test_identical_samples_not_significant(self):
        same = [1.0, 1.2, 0.8, 1.1, 0.9]
        v = compare("a", same, "b", list(same))
        assert v.verdict == "not-significant"
        assert v.p_value is not None and v.p_value > 0.5
        assert v.speedup_mean == 1.0

    def test_monte_carlo_path_for_large_groups(self):
        a = [10.0 + 0.01 * k for k in range(10)]
        b = [2.0 + 0.01 * k for k in range(10)]
        p, method = permutation_pvalue(a, b, n_perm=500)
        assert method == "monte-carlo-permutation"
        assert p is not None and p < 0.05

    def test_permutation_is_order_invariant(self):
        a = [3.0, 1.0, 2.0]
        b = [4.0, 6.0, 5.0]
        assert permutation_pvalue(a, b) == permutation_pvalue(a[::-1], b[::-1])

    def test_speedup_distribution_rejects_empty(self):
        with pytest.raises(ValidationError):
            speedup_distribution([], [1.0])
        with pytest.raises(ValidationError):
            speedup_distribution([1.0], [0.0])


class TestReplicateSeeds:
    def test_replicate_zero_is_base(self):
        sched = replicate_seeds(42, "fig1", ("openmp", 8), 4)
        assert sched[0] == 42
        assert len(set(sched)) == 4

    def test_points_get_distinct_schedules(self):
        a = replicate_seeds(0, "fig1", ("openmp", 8), 3)
        b = replicate_seeds(0, "fig1", ("openmp", 16), 3)
        assert a[0] == b[0] == 0  # shared base by design
        assert set(a[1:]).isdisjoint(b[1:])

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValidationError):
            replicate_seeds(0, "s", (), 0)


class TestRunReplicated:
    def _specs(self):
        return [
            ReplicateSpec(_noisy_value, {"base": float(k)}, key=(k,))
            for k in range(3)
        ]

    def test_groups_in_submission_order(self):
        sweep = run_replicated(self._specs(), seeds=4, base_seed=7, scope="t")
        assert [p.key for p in sweep.points] == [(0,), (1,), (2,)]
        assert all(len(p.results) == 4 for p in sweep.points)
        assert sweep.n_seeds == 4

    def test_replicate_zero_runs_base_seed(self):
        sweep = run_replicated(self._specs(), seeds=3, base_seed=7, scope="t")
        for p in sweep.points:
            assert p.seeds[0] == 7
            assert p.first == _noisy_value(float(p.key[0]), 7)

    def test_serial_equals_parallel_bitwise(self):
        kwargs = dict(seeds=3, base_seed=1, scope="t",
                      value_of=lambda v: v)
        serial = run_replicated(self._specs(), n_workers=1, **kwargs)
        parallel = run_replicated(
            self._specs(), runner=SweepRunner(n_workers=2), **kwargs
        )
        for a, b in zip(serial.points, parallel.points):
            assert a.key == b.key
            assert a.results == b.results
            assert a.stats == b.stats  # SeedStats equality is bitwise

    def test_stats_and_events(self):
        calls = []
        sweep = run_replicated(
            self._specs(), seeds=2, base_seed=0, scope="t",
            value_of=lambda v: v,
            runner=SweepRunner(n_workers=1, on_point=lambda: calls.append(1)),
        )
        for p in sweep.points:
            assert isinstance(p.stats, SeedStats)
            assert p.stats.n == 2
            assert p.stats.ci_lo <= p.stats.mean <= p.stats.ci_hi
        assert len(calls) == 6  # one completed point per replicate

    def test_rejects_bad_specs(self):
        with pytest.raises(ValidationError):
            run_replicated(self._specs(), seeds=0, base_seed=0)
        dup = self._specs() + [
            ReplicateSpec(_noisy_value, {"base": 9.0}, key=(0,))
        ]
        with pytest.raises(ValidationError):
            run_replicated(dup, seeds=1, base_seed=0)


class TestFig1Replication:
    """The experiment wiring: seeds=N on the real Figure-1 sweep."""

    COMMON = dict(core_counts=(8,), iterations=1, n=512)

    @pytest.fixture(scope="class")
    def multi(self):
        from repro.experiments.fig1 import run_fig1

        return run_fig1(seeds=3, seed=5, **self.COMMON)

    def test_replicate_zero_equals_single_seed_sweep(self, multi):
        from repro.experiments.fig1 import run_fig1

        single = run_fig1(seeds=1, seed=5, **self.COMMON)
        assert len(single.points) == len(multi.points)
        for a, b in zip(single.points, multi.points):
            assert a == b  # dataclass equality: all metrics bit-identical

    def test_seed_stats_populated(self, multi):
        for (impl, cores), stats in multi.seed_stats.items():
            assert stats.n == 3
            assert stats.ci_lo <= stats.mean <= stats.ci_hi
            assert multi.replicates[impl, cores][0].time == multi.time_of(impl, cores)
        assert multi.n_seeds == 3

    def test_stats_table_and_verdicts_render(self, multi):
        table = multi.stats_table()
        assert "95% CI" in table
        verdicts = multi.speedup_verdicts()
        assert {v.baseline for v in verdicts} == {"openmp", "orwl-nobind"}
        for v in verdicts:
            assert v.candidate == "orwl-bind"
            assert v.verdict in ("significant", "not-significant")

    def test_single_seed_verdicts_are_insufficient(self):
        from repro.experiments.fig1 import run_fig1

        single = run_fig1(seeds=1, seed=5, **self.COMMON)
        for v in single.speedup_verdicts():
            assert v.verdict == "insufficient-data"

    def test_serial_parallel_replicated_fingerprints_match(self):
        from repro.experiments.fig1 import run_fig1

        common = dict(core_counts=(8,), iterations=1, n=512, seed=3,
                      seeds=2, fingerprint=True)
        serial = run_fig1(n_workers=1, **common)
        parallel = run_fig1(n_workers=2, **common)
        assert serial.seed_stats == parallel.seed_stats
        for key, reps in serial.replicates.items():
            other = parallel.replicates[key]
            for a, b in zip(reps, other):
                assert a.fingerprint and a.fingerprint == b.fingerprint
                assert a.time == b.time

    def test_missing_point_error_names_the_pair(self, multi):
        with pytest.raises(KeyError, match=r"implementation='openmp'.*n_cores=999"):
            multi.time_of("openmp", 999)
        with pytest.raises(KeyError, match=r"implementation='nope'"):
            multi.stats_of("nope", 8)

    def test_plot_with_bands(self, multi):
        from repro.experiments.plotting import plot_fig1

        chart = plot_fig1(multi)
        assert "confidence band" in chart


class TestAblationAndClusterSeeds:
    def test_oversubscription_gains_stats_keys(self):
        from repro.experiments.ablations import oversubscription_study

        single = oversubscription_study(factors=(1,), iterations=1, seeds=1)
        multi = oversubscription_study(factors=(1,), iterations=1, seeds=3)
        assert "time_mean" not in single[0]
        assert multi[0]["n_seeds"] == 3.0
        assert multi[0]["time_ci_lo"] <= multi[0]["time_mean"] <= multi[0]["time_ci_hi"]
        # replicate 0 is the single-seed run, bit-identical
        assert multi[0]["time"] == single[0]["time"]

    def test_cluster_points_gain_time_stats(self):
        from repro.experiments.cluster import run_cluster_lk23, table

        common = dict(nodes=2, sockets_per_node=1, cores_per_socket=4,
                      n=1024, iterations=1)
        single = run_cluster_lk23(seeds=1, **common)
        multi = run_cluster_lk23(seeds=2, **common)
        for policy, point in multi.items():
            assert point.time_stats is not None
            assert point.time_stats.n == 2
            assert point.time == single[policy].time  # replicate 0
        assert single["treematch"].time_stats is None
        rendered = table(multi)
        assert "mean±sd" in rendered
        assert "mean±sd" not in table(single)


class TestStatsCli:
    def test_fig1_cli_seeds(self, capsys, tmp_path):
        from repro.tools.fig1 import main

        csv_path = tmp_path / "out.csv"
        assert main(["--cores", "8", "--iterations", "1", "--n", "512",
                     "--seeds", "3", "--workers", "1",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-point statistics over 3 seeds" in out
        assert "orwl-bind vs openmp" in out
        header = csv_path.read_text().splitlines()[0]
        assert "time_mean" in header and "ci_hi" in header

    def test_fig1_cli_single_seed_output_unchanged(self, capsys, tmp_path):
        from repro.tools.fig1 import main

        csv_path = tmp_path / "out.csv"
        assert main(["--cores", "8", "--iterations", "1", "--n", "512",
                     "--workers", "1", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "Per-point statistics" not in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "implementation,cores,sim_time_s,local_fraction,migrations"

    def test_reproduce_cli_seeds(self, capsys):
        from repro.tools.reproduce import main

        main(["--cores", "8", "16", "--iterations", "1", "--seeds", "2",
              "--workers", "1"])
        out = capsys.readouterr().out
        assert "Statistics over 2 seeds per point" in out

    def test_bench_quick_seeds_emits_variance_rows(self):
        import json

        from repro.tools.bench import bench_fig1

        report = bench_fig1((8,), 1, 512, 0, seeds=3)
        assert report["seeds"] == 3
        assert report["n_runs"] == 9
        assert report["bit_identical"] is True
        assert len(report["stats"]) == 3
        for row in report["stats"]:
            assert row["ci_lo"] <= row["mean"] <= row["ci_hi"]
        assert {v["candidate"] for v in report["significance"]} == {"orwl-bind"}
        json.dumps(report)  # must be JSON-serializable as emitted
