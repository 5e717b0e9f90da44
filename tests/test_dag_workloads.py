"""The three DAG workload families + golden pinned schedules.

The golden fingerprints pin byte-exact behaviour of the whole stack —
graph construction, dependency inference, ORWL lowering, placement,
and the simulated execution — for one small tiled-Cholesky and one BFS
instance.  Serial, parallel, repeated and warm-cache runs must all
reproduce them (the differential suite broadens this to random DAGs).

If a deliberate model change moves them, regenerate with::

    PYTHONPATH=src python - <<'E'
    from repro.kernels.cholesky import CholeskyConfig, build_cholesky_graph
    from repro.kernels.bfs import BfsConfig, build_bfs_graph
    from repro.tasks import run_graph
    for g in (build_cholesky_graph(CholeskyConfig(blocks=3, tile=64)),
              build_bfs_graph(BfsConfig(n_vertices=64, extra_degree=2.0,
                                        parts=4, graph_seed=11))):
        r = run_graph(g, preset="paper-smp", preset_args=(2, 8),
                      policy="treematch", seed=0, trace=True)
        print(g.name, g.digest(), r.fingerprint())
    E
"""

import pytest

from repro.kernels.bfs import (
    BfsConfig,
    bfs_levels,
    build_bfs_graph,
    generate_graph,
    partition_of,
)
from repro.kernels.cholesky import CholeskyConfig, build_cholesky_graph
from repro.kernels.divconq import DivConqConfig, build_divconq_graph
from repro.tasks import run_graph, topological_check
from repro.util.validate import ValidationError

from .conftest import DRAIN_MODES

GOLDEN_CHOLESKY = CholeskyConfig(blocks=3, tile=64)
GOLDEN_BFS = BfsConfig(n_vertices=64, extra_degree=2.0, parts=4, graph_seed=11)

#: (graph digest, run fingerprint) on paper-smp(2, 8), treematch, seed 0.
GOLDEN = {
    "cholesky": (
        "d8e1f946a95ce3988d6c86e7bbd85b61643ccdadf1b1d9649a173007dadb7679",
        "e73f9918cf4aa5bf8093bde6626180d9d226abb5a9a23932b045b255bee5fece",
    ),
    "bfs": (
        "2edb94247dbe8bd9a04bf50b882d01894849b6a4691889dc46e158c7a67838bc",
        "7b8e7c3738ab5d34808a63bd0e68f91e2d0cec7e87f2ede5e6893a95d96cb2be",
    ),
}


def golden_graph(family: str):
    if family == "cholesky":
        return build_cholesky_graph(GOLDEN_CHOLESKY)
    return build_bfs_graph(GOLDEN_BFS)


class TestCholeskyFamily:
    def test_task_count_formula(self):
        for b in (1, 2, 3, 4, 6):
            cfg = CholeskyConfig(blocks=b, tile=8)
            assert build_cholesky_graph(cfg).n_tasks == cfg.n_tasks

    def test_single_sink_is_last_potrf(self):
        g = build_cholesky_graph(CholeskyConfig(blocks=4, tile=8))
        sinks = g.sinks()
        assert [g.tasks()[i].name for i in sinks] == ["POTRF[3]"]

    def test_critical_path_walks_the_diagonal(self):
        g = build_cholesky_graph(CholeskyConfig(blocks=3, tile=8))
        _, path = g.critical_path()
        assert path[0] == "POTRF[0]"
        assert path[-1] == "POTRF[2]"
        # the span interleaves POTRF / TRSM / SYRK down the diagonal
        assert any(name.startswith("TRSM") for name in path)

    def test_dependencies_respected_in_simulation(self, small_topo):
        g = build_cholesky_graph(CholeskyConfig(blocks=3, tile=32))
        res = run_graph(g, topo=small_topo, record_times=True)
        assert res.schedule_ok(g)
        assert topological_check(res.times.completion_order(), g) is None


class TestBfsFamily:
    def test_generated_graph_is_connected_and_deterministic(self):
        cfg = BfsConfig(n_vertices=128, graph_seed=5)
        adj = generate_graph(cfg)
        levels = bfs_levels(adj)  # raises if disconnected
        assert len(levels) == 128 and levels[0] == 0
        assert generate_graph(cfg) == adj
        assert generate_graph(BfsConfig(n_vertices=128, graph_seed=6)) != adj

    def test_partitioning_covers_all_vertices(self):
        assert partition_of(0, 100, 8) == 0
        assert partition_of(99, 100, 8) == 7
        parts = {partition_of(v, 100, 8) for v in range(100)}
        assert parts == set(range(8))

    def test_task_per_nonempty_level_partition(self):
        cfg = BfsConfig(n_vertices=64, parts=4, graph_seed=3)
        adj = generate_graph(cfg)
        level = bfs_levels(adj)
        nonempty = {
            (level[v], partition_of(v, 64, 4)) for v in range(64)
        }
        g = build_bfs_graph(cfg)
        assert g.n_tasks == len(nonempty)
        names = {t.name for t in g.tasks()}
        assert names == {f"BFS[{lv},{p}]" for lv, p in nonempty}

    def test_reads_come_from_previous_level_only(self):
        g = build_bfs_graph(BfsConfig(n_vertices=64, parts=4, graph_seed=3))
        for node in g.tasks():
            lv = int(node.name.split("[")[1].split(",")[0])
            for region in node.reads:
                assert region.name.startswith(f"F[{lv - 1}]")

    def test_more_partitions_than_vertices_rejected(self):
        with pytest.raises(ValidationError):
            BfsConfig(n_vertices=4, parts=8)

    def test_dependencies_respected_in_simulation(self, small_topo):
        g = build_bfs_graph(BfsConfig(n_vertices=64, parts=4, graph_seed=3))
        res = run_graph(g, topo=small_topo, record_times=True)
        assert res.schedule_ok(g)


class TestDivConqFamily:
    def test_task_count_formula(self):
        for depth in (1, 2, 3, 5):
            cfg = DivConqConfig(depth=depth)
            assert build_divconq_graph(cfg).n_tasks == cfg.n_tasks

    def test_skew_produces_imbalance(self):
        even = build_divconq_graph(DivConqConfig(depth=4, skew=0.0))
        skewed = build_divconq_graph(DivConqConfig(depth=4, skew=0.9))
        leaf_flops = lambda g: [
            t.flops for t in g.tasks() if t.name.startswith("LEAF")
        ]
        even_f, skew_f = leaf_flops(even), leaf_flops(skewed)
        assert max(even_f) / min(even_f) < 1.01
        assert max(skew_f) / min(skew_f) > 2.0

    def test_bytes_conserved_down_the_tree(self):
        cfg = DivConqConfig(depth=3, root_bytes=1 << 20, skew=0.4)
        g = build_divconq_graph(cfg)
        # each split's two child inputs partition its span
        for t in g.tasks():
            if not t.name.startswith("SPLIT"):
                continue
            out = sum(r.nbytes for r in t.writes)
            assert out == pytest.approx(
                t.flops / 1.0  # SPLIT_FLOPS_PER_BYTE == 1.0
            )

    def test_single_sink_is_root_merge(self):
        g = build_divconq_graph(DivConqConfig(depth=3))
        sinks = g.sinks()
        assert [g.tasks()[i].name for i in sinks] == ["MERGE[0,0]"]

    def test_dependencies_respected_in_simulation(self, small_topo):
        g = build_divconq_graph(DivConqConfig(depth=3))
        res = run_graph(g, topo=small_topo, record_times=True)
        assert res.schedule_ok(g)


class TestGoldenSchedules:
    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_digest_pinned(self, family):
        digest, _ = GOLDEN[family]
        assert golden_graph(family).digest() == digest, (
            f"{family} DAG structure changed; if deliberate, regenerate "
            "the golden constants (see module docstring)"
        )

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    @pytest.mark.parametrize("mode", DRAIN_MODES, indirect=True)
    def test_fingerprint_pinned_across_engines(self, family, mode):
        """The golden schedule comes out of both drain loops of
        ``tests/conftest.py``: one ``Engine.run`` call, or single
        ``Engine.step`` calls."""
        _, fp = GOLDEN[family]
        res = run_graph(
            golden_graph(family),
            preset="paper-smp",
            preset_args=(2, 8),
            policy="treematch",
            seed=0,
            trace=True,
        )
        assert res.fingerprint() == fp, (
            f"{family} golden schedule moved under the {mode} drain; "
            "serial == parallel == cached is the contract"
        )

    @pytest.mark.parametrize("family", sorted(GOLDEN))
    def test_fingerprint_stable_across_repeat_runs(self, family):
        _, fp = GOLDEN[family]
        for _ in range(2):
            res = run_graph(
                golden_graph(family),
                preset="paper-smp",
                preset_args=(2, 8),
                policy="treematch",
                seed=0,
                trace=True,
            )
            assert res.fingerprint() == fp, (
                f"{family} golden schedule moved; serial == parallel == "
                "cached is the contract"
            )
