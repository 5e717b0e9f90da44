"""Livermore Kernel 23 as an ORWL program (the paper's decomposition).

Section III of the paper: "for each block we define a main operation
that performs the computation and eight sub-operations that are used to
export the frontier data (edges and corners) to the neighbouring. ...
Each operation is executed by an independent thread and has its own
``orwl_location`` to exchange the shared data with neighbours."

Concretely, per block (r, c) with an in-grid neighbour in direction *d*:

* ``b{r}.{c}/src/{d}`` — written by the block's **main** op after each
  sweep (publishing its fresh frontier), read by the block's own
  **sub-op** *d* (the intra-task hand-off);
* ``b{r}.{c}/out/{d}`` — written by sub-op *d* (the export), read by the
  neighbouring block's main op (the halo import, priced by producer →
  consumer distance).

Per sweep, a main op therefore: imports all halos (reads neighbours'
``out`` locations), streams its block data from its first-touch NUMA
home, computes the block update, and publishes its frontiers (writes
its ``src`` locations).  Sub-op *d* forwards ``src/d`` → ``out/d``.
The FIFO round protocol (``orwl_next``) keeps sweeps coherent without
any global barrier — ORWL's selling point against fork-join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.kernels.lk23 import FLOPS_PER_POINT
from repro.kernels.stencil import BlockGrid
from repro.orwl import idioms
from repro.orwl.fifo import AccessMode
from repro.orwl.handle import Handle
from repro.orwl.program import Program
from repro.util.validate import ValidationError


@dataclass(frozen=True)
class Lk23Config:
    """Workload parameters of one LK23 run.

    Defaults mirror the paper's evaluation (16384² doubles, 100 sweeps);
    benches typically scale ``iterations`` down since simulated time per
    sweep is steady-state after the first round.
    """

    n: int = 16384
    grid_rows: int = 12
    grid_cols: int = 16
    iterations: int = 100
    element_bytes: int = 8
    flops_per_point: float = FLOPS_PER_POINT
    #: fraction of the block footprint streamed from DRAM each sweep
    #: (1.0 = fully memory-resident working set; < 1 models partial
    #: cache residency on machines with large shared L3s).
    stream_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValidationError("iterations must be > 0")
        if not 0.0 <= self.stream_fraction <= 1.0:
            raise ValidationError("stream_fraction must be in [0, 1]")
        if self.flops_per_point <= 0:
            raise ValidationError("flops_per_point must be > 0")

    @property
    def grid(self) -> BlockGrid:
        return BlockGrid(self.n, self.grid_rows, self.grid_cols, self.element_bytes)

    @classmethod
    def paper(cls, iterations: int = 100) -> "Lk23Config":
        """The paper's exact workload: 16384² doubles on a 12×16 block
        grid (192 blocks = one task per core of the 192-core SMP)."""
        return cls(n=16384, grid_rows=12, grid_cols=16, iterations=iterations)

    @classmethod
    def scaled(cls, n_blocks_rows: int, n_blocks_cols: int, iterations: int = 10,
               n: int = 16384) -> "Lk23Config":
        """The paper's matrix on an arbitrary block grid (core sweeps)."""
        return cls(n=n, grid_rows=n_blocks_rows, grid_cols=n_blocks_cols,
                   iterations=iterations)


def _main_body(cfg: Lk23Config, grid: BlockGrid,
               halo_handles: list[Handle], src_handles: list[Handle]):
    """Body factory for a block's main operation.

    The canonical iterative idiom: publish the *initial* frontier first
    (so neighbours' first halo imports need no compute — without this a
    declaration-order wavefront serializes the first sweep), then per
    sweep: import halos, stream the block's working set from its
    first-touch home, compute, publish fresh frontiers.
    """
    from repro.simulate.syscalls import ReceiveFromNode  # avoid cycle at import

    block_flops = grid.block_points * cfg.flops_per_point
    stream_bytes = grid.block_bytes * cfg.stream_fraction

    def body(ctx):
        home_node = ctx.current_node()  # first touch: where the thread starts

        def sweep(c, _k):
            if stream_bytes > 0 and home_node >= 0:
                yield ReceiveFromNode(home_node, stream_bytes)
            yield c.compute(flops=block_flops)

        yield from idioms.iterative(
            ctx, cfg.iterations, sweep,
            reads=halo_handles, writes=src_handles, publish_first=True,
        )

    return body


def _sub_body(cfg: Lk23Config, src_handle: Handle, out_handle: Handle):
    """Body factory for a frontier-export sub-operation.

    Per round: pull main's fresh frontier (intra-task, cheap when
    placed together — exactly what TreeMatch arranges), then export it
    for the neighbour.  ``iterations + 1`` rounds: the extra one
    forwards the init frontier.
    """

    def body(ctx):
        yield from idioms.iterative(
            ctx, cfg.iterations + 1, lambda c, k: iter(()),
            reads=[src_handle], writes=[out_handle], publish_first=False,
        )

    return body


def build_program(
    cfg: Lk23Config,
    block_order: Optional[list[tuple[int, int]]] = None,
) -> Program:
    """Construct the full ORWL LK23 program for *cfg*.

    Declaration order defaults to row-major over blocks, main op first
    then the sub-ops — this order defines thread ids, the init
    protocol's FIFO ordering, and the rows of the extracted affinity
    matrix.  *block_order* overrides it (must be a permutation of all
    block coordinates): affinity-blind placements degrade when the
    declaration order stops matching the geometry, which is what the
    declaration-order-robustness experiments exercise.
    """
    grid = cfg.grid
    if block_order is None:
        block_order = list(grid.blocks())
    else:
        if sorted(block_order) != sorted(grid.blocks()):
            raise ValidationError(
                "block_order must be a permutation of all grid blocks"
            )
    prog = Program(f"lk23-{cfg.n}x{cfg.n}-{grid.rows}x{grid.cols}")

    # Pass 1: declare all locations (they must exist before any handle).
    for r, c in block_order:
        tname = f"b{r}.{c}"
        for d in grid.neighbor_directions(r, c):
            nbytes = grid.frontier_bytes(d)
            # src: the intra-task hand-off.  The sub-op reads its frontier
            # out of the task's full block buffer, so its *affinity* to
            # main is the block footprint even though the exported payload
            # is just the frontier — this is what makes the extraction
            # cluster each task's 9 threads (paper: "we cluster threads
            # that share data").
            prog.location(
                f"{tname}/src/{d.name}",
                nbytes,
                owner_task=tname,
                affinity_bytes=grid.block_bytes,
            )
            prog.location(f"{tname}/out/{d.name}", nbytes, owner_task=tname)

    # Pass 2: declare tasks/operations and wire the handles.
    for r, c in block_order:
        tname = f"b{r}.{c}"
        task = prog.task(tname)
        dirs = grid.neighbor_directions(r, c)

        main = task.operation("main", body=None)
        halo_handles: list[Handle] = []
        for d in dirs:
            rr, cc = grid.neighbor(r, c, d)
            # Our halo in direction d is the neighbour's export toward us.
            loc = prog.locations[f"b{rr}.{cc}/out/{d.opposite.name}"]
            h = main.handle(loc, AccessMode.READ)
            h.init_phase = 2  # behind every initial export
            halo_handles.append(h)
        src_handles: list[Handle] = []
        for d in dirs:
            loc = prog.locations[f"{tname}/src/{d.name}"]
            h = main.handle(loc, AccessMode.WRITE)
            h.init_phase = 0  # the very first accesses: initial publication
            src_handles.append(h)
        main.body = _main_body(cfg, grid, halo_handles, src_handles)

        for d in dirs:
            sub = task.operation(f"sub_{d.name}", body=None)
            src_h = sub.handle(prog.locations[f"{tname}/src/{d.name}"], AccessMode.READ)
            out_h = sub.handle(prog.locations[f"{tname}/out/{d.name}"], AccessMode.WRITE)
            src_h.init_phase = 1  # behind main's initial publication
            out_h.init_phase = 1  # ahead of neighbours' halo imports
            sub.body = _sub_body(cfg, src_h, out_h)

    prog.freeze()
    return prog


def describe(cfg: Lk23Config) -> str:
    """One-paragraph summary of a configuration (logs, EXPERIMENTS.md)."""
    g = cfg.grid
    interior = (g.rows - 2) * (g.cols - 2)
    return (
        f"LK23 {cfg.n}x{cfg.n} doubles, {g.rows}x{g.cols} blocks "
        f"(~{g.block_height:.0f}x{g.block_width:.0f} each, {g.block_bytes / 2**20:.2f} MiB), "
        f"{cfg.iterations} sweeps; {g.n_blocks} tasks, "
        f"up to {g.n_blocks * 9} operations ({interior} interior blocks with all "
        f"8 neighbours)"
    )
