"""Tests for the LK23 kernel: geometry, numerics, ORWL program, OpenMP model."""

import numpy as np
import pytest

from repro.comm.trace import CommTracer
from repro.kernels import (
    BlockGrid,
    Direction,
    FLOPS_PER_POINT,
    Lk23Config,
    OpenMpConfig,
    build_program,
    describe,
    lk23_blocked,
    lk23_jacobi,
    lk23_jacobi_step,
    lk23_reference,
    make_arrays,
    run_openmp_lk23,
    total_flops,
)
from repro.kernels.stencil import ALL_DIRECTIONS, CORNERS, EDGES
from repro.orwl import Runtime
from repro.simulate.machine import Machine
from repro.placement import bind_program
from repro.util.validate import ValidationError


class TestDirections:
    def test_opposites(self):
        assert Direction.N.opposite is Direction.S
        assert Direction.NE.opposite is Direction.SW
        assert Direction.W.opposite is Direction.E

    def test_corner_classification(self):
        assert all(d.is_corner for d in CORNERS)
        assert not any(d.is_corner for d in EDGES)

    def test_eight_directions(self):
        assert len(ALL_DIRECTIONS) == 8


class TestBlockGrid:
    def test_even_decomposition(self):
        g = BlockGrid(16, 4, 4)
        assert g.n_blocks == 16
        assert g.block_height == 4.0
        assert g.exact_block_shape(0, 0) == (4, 4)

    def test_uneven_decomposition_covers_matrix(self):
        g = BlockGrid(10, 3, 4)
        total = 0
        for r, c in g.blocks():
            h, w = g.exact_block_shape(r, c)
            assert h >= 3 and w >= 2
            total += h * w
        assert total == 100

    def test_paper_grid_is_legal(self):
        g = BlockGrid(16384, 12, 16)
        assert g.n_blocks == 192
        heights = {g.exact_block_shape(r, 0)[0] for r in range(12)}
        assert heights <= {1365, 1366}

    def test_block_id_coords_roundtrip(self):
        g = BlockGrid(12, 3, 4)
        for r, c in g.blocks():
            assert g.coords(g.block_id(r, c)) == (r, c)

    def test_block_id_out_of_range(self):
        g = BlockGrid(12, 3, 4)
        with pytest.raises(ValidationError):
            g.block_id(3, 0)
        with pytest.raises(ValidationError):
            g.coords(99)

    def test_neighbor_interior(self):
        g = BlockGrid(12, 3, 4)
        assert g.neighbor(1, 1, Direction.N) == (0, 1)
        assert g.neighbor(1, 1, Direction.SE) == (2, 2)

    def test_neighbor_boundary_none(self):
        g = BlockGrid(12, 3, 4)
        assert g.neighbor(0, 0, Direction.N) is None
        assert g.neighbor(2, 3, Direction.SE) is None

    def test_neighbor_directions_counts(self):
        g = BlockGrid(12, 3, 4)
        assert len(g.neighbor_directions(0, 0)) == 3  # corner
        assert len(g.neighbor_directions(0, 1)) == 5  # edge
        assert len(g.neighbor_directions(1, 1)) == 8  # interior

    def test_frontier_bytes(self):
        g = BlockGrid(16, 4, 2, element_bytes=8)
        assert g.frontier_bytes(Direction.N) == 8 * 8  # width 8
        assert g.frontier_bytes(Direction.E) == 4 * 8  # height 4
        assert g.frontier_bytes(Direction.NE) == 8  # one element

    def test_invalid_grid(self):
        with pytest.raises(ValidationError):
            BlockGrid(0, 1, 1)
        with pytest.raises(ValidationError):
            BlockGrid(4, 8, 1)

    def test_slice_of(self):
        g = BlockGrid(12, 3, 4)
        rs, cs = g.slice_of(1, 2)
        assert (rs.start, rs.stop) == (4, 8)
        assert (cs.start, cs.stop) == (6, 9)


class TestNumerics:
    def test_jacobi_matches_manual_step(self):
        a = make_arrays(5, seed=3)
        new = lk23_jacobi_step(a)
        # manual check of one interior point
        k, j = 2, 3
        qa = (
            a.za[k, j + 1] * a.zr[k, j]
            + a.za[k, j - 1] * a.zb[k, j]
            + a.za[k + 1, j] * a.zu[k, j]
            + a.za[k - 1, j] * a.zv[k, j]
            + a.zz[k, j]
        )
        expected = a.za[k, j] + 0.175 * (qa - a.za[k, j])
        assert new[k, j] == pytest.approx(expected)

    def test_jacobi_preserves_boundary(self):
        a = make_arrays(6, seed=1)
        new = lk23_jacobi_step(a)
        assert np.array_equal(new[0, :], a.za[0, :])
        assert np.array_equal(new[:, -1], a.za[:, -1])

    def test_blocked_equals_jacobi_even_grid(self):
        a = make_arrays(24, seed=2)
        g = BlockGrid(24, 3, 4)
        assert np.array_equal(lk23_blocked(a, g, 4), lk23_jacobi(a, 4))

    def test_blocked_equals_jacobi_uneven_grid(self):
        a = make_arrays(23, seed=4)
        g = BlockGrid(23, 3, 4)
        assert np.array_equal(lk23_blocked(a, g, 3), lk23_jacobi(a, 3))

    def test_blocked_equals_jacobi_single_block(self):
        a = make_arrays(9, seed=5)
        g = BlockGrid(9, 1, 1)
        assert np.array_equal(lk23_blocked(a, g, 2), lk23_jacobi(a, 2))

    def test_reference_and_jacobi_converge_to_same_fixed_point(self):
        # Gauss-Seidel (reference) and Jacobi differ per-iteration but share
        # the fixed point of the contraction; both must approach it.
        a = make_arrays(8, seed=6)
        gs = lk23_reference(a, iterations=300)
        jac = lk23_jacobi(a, iterations=300)
        assert np.allclose(gs, jac, atol=1e-8)

    def test_reference_single_iteration_differs_from_jacobi(self):
        a = make_arrays(8, seed=7)
        assert not np.array_equal(lk23_reference(a, 1), lk23_jacobi(a, 1))

    def test_inputs_not_mutated(self):
        a = make_arrays(8, seed=8)
        za_before = a.za.copy()
        lk23_jacobi(a, 2)
        lk23_reference(a, 1)
        lk23_blocked(a, BlockGrid(8, 2, 2), 2)
        assert np.array_equal(a.za, za_before)

    def test_make_arrays_validation(self):
        with pytest.raises(ValidationError):
            make_arrays(2)

    def test_make_arrays_shape_check(self):
        from repro.kernels.lk23 import Lk23Arrays

        a = make_arrays(5)
        with pytest.raises(ValidationError):
            Lk23Arrays(a.za, a.zz[:4, :4], a.zr, a.zb, a.zu, a.zv)

    def test_total_flops(self):
        g = BlockGrid(100, 2, 2)
        assert total_flops(g, 10) == 100 * 100 * FLOPS_PER_POINT * 10

    def test_iterations_validation(self):
        a = make_arrays(5)
        with pytest.raises(ValidationError):
            lk23_jacobi(a, 0)
        with pytest.raises(ValidationError):
            lk23_reference(a, 0)


class TestLk23Config:
    def test_paper_config(self):
        cfg = Lk23Config.paper()
        assert cfg.n == 16384
        assert cfg.grid.n_blocks == 192
        assert cfg.iterations == 100

    def test_scaled(self):
        cfg = Lk23Config.scaled(2, 4, iterations=3)
        assert cfg.grid.n_blocks == 8

    def test_validation(self):
        with pytest.raises(ValidationError):
            Lk23Config(iterations=0)
        with pytest.raises(ValidationError):
            Lk23Config(stream_fraction=1.5)

    def test_describe(self):
        text = describe(Lk23Config.paper())
        assert "16384" in text and "192 tasks" in text


class TestLk23Program:
    def test_paper_op_count(self):
        """12x16 grid: 140 interior x9 + 44 edge x6 + 4 corner x4 ops + ...

        Interior blocks have 8 sub-ops, edges 5, corners 3 (one per
        existing neighbour) plus their main op.
        """
        cfg = Lk23Config(n=16384, grid_rows=12, grid_cols=16, iterations=1)
        prog = build_program(cfg)
        expected = 140 * 9 + (2 * 14 + 2 * 10) * 6 + 4 * 4
        assert prog.n_operations == expected
        assert prog.n_tasks == 192

    def test_locations_paired(self):
        cfg = Lk23Config(n=256, grid_rows=2, grid_cols=2, iterations=1)
        prog = build_program(cfg)
        # every src has a matching out
        srcs = {n for n in prog.locations if "/src/" in n}
        outs = {n for n in prog.locations if "/out/" in n}
        assert len(srcs) == len(outs)
        assert {s.replace("/src/", "/out/") for s in srcs} == outs

    def test_src_has_affinity_hint(self):
        cfg = Lk23Config(n=256, grid_rows=2, grid_cols=2, iterations=1)
        prog = build_program(cfg)
        src = next(l for n, l in prog.locations.items() if "/src/" in n)
        out = next(l for n, l in prog.locations.items() if "/out/" in n)
        assert src.affinity_bytes == cfg.grid.block_bytes
        assert out.affinity_bytes is None

    def test_runs_to_completion_bound(self, small_topo):
        cfg = Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=3)
        prog = build_program(cfg)
        plan = bind_program(prog, small_topo, policy="treematch")
        m = Machine(small_topo, seed=1)
        rt = Runtime(prog, m, mapping=plan.mapping, control_mapping=plan.control_mapping)
        res = rt.run()
        assert res.time > 0

    def test_runs_to_completion_unbound(self, small_topo):
        cfg = Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=3)
        prog = build_program(cfg)
        m = Machine(small_topo, seed=1)
        rt = Runtime(prog, m)
        assert rt.run().time > 0

    def test_halo_traffic_traced(self, small_topo):
        cfg = Lk23Config(n=512, grid_rows=1, grid_cols=2, iterations=2)
        prog = build_program(cfg)
        plan = bind_program(prog, small_topo, policy="treematch")
        m = Machine(small_topo, seed=1)
        comm = CommTracer()
        Runtime(prog, m, mapping=plan.mapping, control_mapping=plan.control_mapping,
                comm=comm).run()
        # b0.0's east sub-op must have fed b0.1's main.
        assert comm.volume_between("b0.0/sub_E", "b0.1/main") > 0

    def test_more_iterations_take_longer(self, small_topo):
        times = []
        for iters in (2, 4):
            cfg = Lk23Config(n=512, grid_rows=2, grid_cols=2, iterations=iters)
            prog = build_program(cfg)
            plan = bind_program(prog, small_topo, policy="treematch")
            m = Machine(small_topo, seed=1)
            rt = Runtime(prog, m, mapping=plan.mapping, control_mapping=plan.control_mapping)
            times.append(rt.run().time)
        assert times[1] > times[0] * 1.5

    def test_stream_fraction_zero_reduces_traffic(self, small_topo):
        totals = []
        for frac in (1.0, 0.0):
            cfg = Lk23Config(
                n=512, grid_rows=2, grid_cols=2, iterations=2, stream_fraction=frac
            )
            prog = build_program(cfg)
            plan = bind_program(prog, small_topo, policy="treematch")
            m = Machine(small_topo, seed=1)
            rt = Runtime(prog, m, mapping=plan.mapping, control_mapping=plan.control_mapping)
            totals.append(rt.run().metrics.total_bytes)
        assert totals[1] < totals[0]


class TestOpenMpModel:
    def test_runs_and_scales_down_time(self, paper_topo_small):
        times = []
        for p in (8, 32):
            m = Machine(paper_topo_small, seed=1)
            r = run_openmp_lk23(m, OpenMpConfig(n=2048, n_threads=p, iterations=3))
            times.append(r.time)
        assert times[1] < times[0]  # still in the scaling regime

    def test_first_touch_remote_traffic(self, paper_topo_small):
        m = Machine(paper_topo_small, seed=1)
        r = run_openmp_lk23(m, OpenMpConfig(n=2048, n_threads=32, iterations=2))
        assert r.metrics.remote_bytes > 0

    def test_bound_mode_is_local(self, paper_topo_small):
        m = Machine(paper_topo_small, seed=1)
        r = run_openmp_lk23(
            m, OpenMpConfig(n=2048, n_threads=32, iterations=2, bound=True)
        )
        assert r.metrics.local_fraction > 0.9

    def test_bound_beats_unbound_at_scale(self, paper_topo_small):
        times = {}
        for bound in (False, True):
            m = Machine(paper_topo_small, seed=1)
            r = run_openmp_lk23(
                m, OpenMpConfig(n=4096, n_threads=32, iterations=3, bound=bound)
            )
            times[bound] = r.time
        assert times[True] < times[False]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            OpenMpConfig(n_threads=0)
        with pytest.raises(ValidationError):
            OpenMpConfig(n=4, n_threads=8)
        with pytest.raises(ValidationError):
            OpenMpConfig(iterations=0)

    def test_too_many_bound_workers_rejected(self, small_topo):
        m = Machine(small_topo, seed=1)
        with pytest.raises(ValidationError):
            run_openmp_lk23(m, OpenMpConfig(n=1024, n_threads=16, bound=True))
