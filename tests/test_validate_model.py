"""Tests for the machine-model self-validation."""

from repro.simulate.machine import Machine
from repro.simulate.scheduler import SchedulerConfig
from repro.simulate.validate_model import validate_machine_model
from repro.topology import presets
from repro.topology.distance import DEFAULT_LEVEL_COSTS, DistanceModel, LinkCosts
from repro.topology.objects import ObjType


class TestValidateModel:
    def test_default_model_is_clean(self, small_topo):
        report = validate_machine_model(Machine(small_topo, seed=0))
        assert report.ok, report.problems
        assert report.checks_run > 10

    def test_paper_machine_clean(self):
        report = validate_machine_model(Machine(presets.paper_smp(4, 8), seed=0))
        assert report.ok, report.problems

    def test_cluster_model_clean(self):
        from repro.topology.distance import cluster_distance_model

        topo = presets.cluster(2, 2, 4)
        m = Machine(topo, distance_model=cluster_distance_model(topo), seed=0)
        report = validate_machine_model(m)
        assert report.ok, report.problems

    def test_inverted_latency_detected(self, small_topo):
        costs = dict(DEFAULT_LEVEL_COSTS)
        # Make cross-socket cheaper than shared-L3: nonsense.
        costs[ObjType.MACHINE] = LinkCosts(latency=1e-9, bandwidth=500e9)
        dm = DistanceModel(small_topo, level_costs=costs)
        report = validate_machine_model(Machine(small_topo, distance_model=dm, seed=0))
        assert not report.ok
        assert any("latency decreases" in p for p in report.problems)
        assert any("bandwidth increases" in p for p in report.problems)

    def test_pathological_scheduler_detected(self, small_topo):
        m = Machine(
            small_topo,
            seed=0,
            scheduler=SchedulerConfig(migration_quantum=1e-5, migration_penalty=1e-4),
        )
        report = validate_machine_model(m)
        assert any("migration penalty" in p for p in report.problems)

    def test_repr(self, small_topo):
        report = validate_machine_model(Machine(small_topo, seed=0))
        assert "OK" in repr(report)
