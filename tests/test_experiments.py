"""Integration tests: Fig. 1 harness, paper-claim shape, and ablations.

The full paper-scale sweep lives in the benchmarks; here we run reduced
versions that still must show the qualitative results (orderings,
crossovers, strategy selection).
"""

import pytest

from repro.core import compare_policies, run_lk23, ExperimentConfig
from repro.experiments import ablations, run_fig1, run_point
from repro.experiments.fig1 import Fig1Result, Fig1Point
from repro.util.validate import ValidationError


class TestFig1Harness:
    def test_run_point_each_implementation(self):
        for impl in ("orwl-bind", "orwl-nobind", "openmp"):
            p = run_point(impl, 8, iterations=2, n=1024)
            assert p.time > 0
            assert p.n_cores == 8

    def test_run_point_validation(self):
        with pytest.raises(ValidationError):
            run_point("mpi", 8)
        with pytest.raises(ValidationError):
            run_point("openmp", 9)  # not whole sockets

    def test_sweep_structure(self):
        res = run_fig1(core_counts=(8, 16), iterations=2, n=1024)
        assert len(res.points) == 6
        assert res.core_counts() == [8, 16]
        assert len(res.series("openmp")) == 2

    def test_table_renders(self):
        res = run_fig1(core_counts=(8,), iterations=2, n=1024)
        table = res.table()
        assert "orwl-bind" in table
        assert "speedup vs OpenMP" in table

    def test_result_lookup_errors(self):
        res = Fig1Result()
        with pytest.raises(KeyError):
            res.time_of("openmp", 8)
        with pytest.raises(KeyError):
            res.best_time("openmp")

    def test_stall_detection(self):
        res = Fig1Result()
        for cores, t in [(8, 10.0), (16, 6.0), (32, 6.1)]:
            res.points.append(Fig1Point("openmp", cores, t, 1.0, 0, 0.0))
        assert res.openmp_scaling_stalls_after() == 16

    def test_no_stall_returns_none(self):
        res = Fig1Result()
        for cores, t in [(8, 10.0), (16, 5.0)]:
            res.points.append(Fig1Point("openmp", cores, t, 1.0, 0, 0.0))
        assert res.openmp_scaling_stalls_after() is None


@pytest.mark.slow
class TestPaperShape:
    """The headline qualitative result at a reduced but multi-socket scale."""

    @pytest.fixture(scope="class")
    def sweep(self):
        # The paper's matrix size: the locality effect needs block
        # working sets that dwarf the caches, so n is not scaled down.
        return run_fig1(core_counts=(8, 32, 96), iterations=3, n=16384, seed=0)

    def test_bind_wins_at_scale(self, sweep):
        t_bind = sweep.time_of("orwl-bind", 96)
        assert sweep.time_of("orwl-nobind", 96) > 1.3 * t_bind
        assert sweep.time_of("openmp", 96) > 2.0 * t_bind

    def test_openmp_competitive_on_one_socket(self, sweep):
        """Paper: only 'as soon as we scale beyond one or two sockets'
        do standard approaches fail — at 8 cores OpenMP is fine."""
        assert sweep.time_of("openmp", 8) < 1.5 * sweep.time_of("orwl-bind", 8)

    def test_bind_scales_down_with_cores(self, sweep):
        series = dict(sweep.series("orwl-bind"))
        assert series[96] < series[32] < series[8]

    def test_nobind_benefit_smaller_than_bind(self, sweep):
        bind_gain = sweep.time_of("orwl-bind", 8) / sweep.time_of("orwl-bind", 96)
        nobind_gain = sweep.time_of("orwl-nobind", 8) / sweep.time_of("orwl-nobind", 96)
        assert bind_gain > nobind_gain


class TestAblations:
    def test_mapping_quality_treematch_best_or_tied(self):
        scores = ablations.mapping_quality(pattern="clustered", seed=1)
        tm = scores["treematch"]["hop_bytes"]
        rnd = scores["random"]["hop_bytes"]
        assert tm < rnd
        assert set(scores) == set(ablations.BASELINE_POLICIES)

    def test_mapping_quality_stencil(self):
        scores = ablations.mapping_quality(pattern="stencil")
        assert scores["treematch"]["numa_cut"] <= scores["random"]["numa_cut"]

    def test_mapping_quality_unknown_pattern(self):
        with pytest.raises(ValueError):
            ablations.mapping_quality(pattern="fractal")

    def test_treematch_cost_curve_monotone_scale(self):
        # A2 as benchmarks/bench_treematch_cost.py times it: one PU per
        # entity, so the cost is Algorithm 1's, not oversubscription's.
        import time

        from repro.comm import patterns
        from repro.topology import presets
        from repro.treematch.algorithm import tree_match

        for order in (16, 64):
            rows, cols = patterns.square_grid_shape(order)
            matrix = patterns.stencil_2d(rows, cols, edge_volume=100.0)
            topo = presets.paper_smp(max(order // 8, 1), min(order, 8))
            start = time.perf_counter()
            result = tree_match(topo, matrix)
            elapsed = time.perf_counter() - start
            assert result.mapping.n_threads == order
        # launch-time requirement: even order 64 takes well under a second
        assert elapsed < 5.0

    @pytest.mark.slow
    def test_control_strategies_fire_correctly(self):
        out = ablations.control_strategy_comparison(iterations=2)
        assert out["hyperthread"]["strategy"] == "hyperthread"
        assert out["spare-cores"]["strategy"] == "spare-cores"
        assert out["unmapped"]["strategy"] == "unmapped"

    @pytest.mark.slow
    def test_oversubscription_balances_load(self):
        rows = ablations.oversubscription_study(factors=(1, 2), iterations=2)
        for row in rows:
            assert row["max_mains_per_pu"] == row["factor"]

    def test_affinity_extraction_correlates(self):
        out = ablations.affinity_extraction_fidelity(iterations=2)
        assert out["correlation"] > 0.9
        assert out["trace_events"] > 0


class TestCoreApi:
    def test_run_lk23_defaults_overridable(self):
        r = run_lk23(topology="small-numa", iterations=2, n=1024)
        assert r.time > 0
        assert r.config.policy == "treematch"
        assert "time" in r.summary()

    def test_run_lk23_config_object(self):
        cfg = ExperimentConfig(topology="small-numa", policy="compact", iterations=2, n=512)
        r = run_lk23(cfg)
        assert r.plan.policy == "compact"

    def test_run_lk23_both_forms_rejected(self):
        cfg = ExperimentConfig(topology="small-numa")
        with pytest.raises(ValidationError):
            run_lk23(cfg, policy="compact")

    def test_run_lk23_custom_topology_object(self, small_topo):
        r = run_lk23(topology=small_topo, iterations=2, n=512, tasks=4)
        assert r.time > 0

    def test_compare_policies_shared_workload(self):
        out = compare_policies(
            policies=("treematch", "nobind"),
            topology="small-numa",
            iterations=2,
            n=1024,
        )
        assert set(out) == {"treematch", "nobind"}
        # treematch binds all mains; sub-ops are unmapped here (machine
        # is fully loaded, the paper's third control branch)
        assert out["treematch"].plan.mapping.bound_fraction() > 0.0
        assert out["nobind"].plan.mapping.bound_fraction() == 0.0
