"""Tests for the cluster preset, cost model, and cluster experiment."""

import pytest

from repro.experiments.cluster import ClusterPoint, run_cluster_lk23, table
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.placement import bind_program
from repro.topology import presets, cluster_distance_model
from repro.topology.distance import CLUSTER_LEVEL_COSTS
from repro.topology.objects import ObjType
from repro.treematch.control import ControlStrategy
from repro.util.validate import ValidationError


class TestClusterPreset:
    def test_shape(self):
        t = presets.cluster(4, 2, 8)
        assert t.nb_pus == 64
        assert t.nbobjs_by_type(ObjType.GROUP) == 4
        assert t.nbobjs_by_type(ObjType.NUMANODE) == 8
        assert t.arities() == [4, 2, 1, 1, 8, 1]

    def test_in_registry(self):
        assert presets.by_name("cluster").nb_pus == 64

    def test_cluster_distance_model_network_costs(self):
        t = presets.cluster(2, 1, 2)
        dm = cluster_distance_model(t)
        # same node, cross socket... here 1 socket per node: same L3
        assert dm.lca_type(0, 1) is ObjType.L3
        # cross cluster-node: MACHINE = the network
        assert dm.lca_type(0, 2) is ObjType.MACHINE
        assert dm.latency(0, 2) == CLUSTER_LEVEL_COSTS[ObjType.MACHINE].latency
        # network transfers are far slower than intra-node ones
        assert dm.transfer_time(0, 2, 1 << 20) > 5 * dm.transfer_time(0, 1, 1 << 20)

    def test_group_level_is_intra_node(self):
        t = presets.cluster(2, 2, 2)
        dm = cluster_distance_model(t)
        # PUs 0 and 2: same GROUP (node), different NUMA sockets
        assert dm.lca_type(0, 2) is ObjType.GROUP


class TestBlockOrder:
    def test_shuffled_program_equivalent_structure(self):
        cfg = Lk23Config(n=256, grid_rows=2, grid_cols=2, iterations=1)
        rowmajor = build_program(cfg)
        shuffled = build_program(cfg, block_order=[(1, 1), (0, 0), (1, 0), (0, 1)])
        assert rowmajor.n_operations == shuffled.n_operations
        assert set(rowmajor.locations) == set(shuffled.locations)

    def test_bad_block_order_rejected(self):
        cfg = Lk23Config(n=256, grid_rows=2, grid_cols=2, iterations=1)
        with pytest.raises(ValidationError):
            build_program(cfg, block_order=[(0, 0), (0, 1)])


class TestColocateFallback:
    def test_colocate_pins_comm_threads(self, small_topo):
        # 8 tasks on 8 PUs: the paper branch would be UNMAPPED.
        cfg = Lk23Config(n=512, grid_rows=2, grid_cols=4, iterations=1)
        prog = build_program(cfg)
        plan = bind_program(
            prog, small_topo, policy="treematch", control_fallback="colocate"
        )
        assert plan.control_strategy is ControlStrategy.COLOCATED
        ops = prog.operations()
        main_pu = {
            op.task_name: plan.mapping.pu(k) for k, op in enumerate(ops) if op.is_main
        }
        for k, op in enumerate(ops):
            if not op.is_main:
                assert plan.mapping.pu(k) == main_pu[op.task_name]
        assert plan.control_mapping.bound_fraction() == 1.0

    def test_default_stays_unmapped(self, small_topo):
        cfg = Lk23Config(n=512, grid_rows=2, grid_cols=4, iterations=1)
        prog = build_program(cfg)
        plan = bind_program(prog, small_topo, policy="treematch")
        assert plan.control_strategy is ControlStrategy.UNMAPPED

    def test_bad_fallback_rejected(self, small_topo):
        cfg = Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=1)
        prog = build_program(cfg)
        with pytest.raises(ValidationError):
            bind_program(prog, small_topo, control_fallback="teleport")


class TestClusterExperiment:
    @pytest.fixture(scope="class")
    def points(self):
        return run_cluster_lk23(
            nodes=2, sockets_per_node=1, cores_per_socket=4,
            n=1024, iterations=2,
            policies=("treematch", "round-robin"),
        )

    def test_structure(self, points):
        assert set(points) == {"treematch", "round-robin"}
        for p in points.values():
            assert isinstance(p, ClusterPoint)
            assert p.time > 0

    def test_table_renders(self, points):
        text = table(points)
        assert "network MB" in text
        assert "treematch" in text

    def test_treematch_never_more_network_heavy(self):
        pts = run_cluster_lk23(
            nodes=4, sockets_per_node=1, cores_per_socket=4,
            n=2048, iterations=2,
            policies=("treematch", "round-robin"),
            shuffle_declaration=True,
        )
        assert pts["treematch"].network_bytes <= pts["round-robin"].network_bytes
