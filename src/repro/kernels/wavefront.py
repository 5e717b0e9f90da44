"""Wavefront (pipelined) computation over a block grid.

A different dependence structure from LK23's halo exchange: block
(r, c) at sweep *k* needs the *same-sweep* results of its West and
North neighbours — the pattern of Gauss–Seidel relaxations, dynamic
programming tables (Smith–Waterman), and triangular solves.  Execution
is an advancing diagonal: the pipeline fills over ``rows + cols - 1``
stages and then streams.

ORWL expresses this naturally with the same location machinery as the
stencil, but with *no* initial frontier publication: the wavefront's
serialization is intrinsic.  Block (0, 0) starts immediately; everyone
else's first read request waits for a producer that computes first.

Makes a good third workload because placement acts on the *latency* of
the neighbour hand-off (the pipeline's beat), not on bulk bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.orwl.fifo import AccessMode
from repro.orwl.program import Program
from repro.util.validate import ValidationError


@dataclass(frozen=True)
class WavefrontConfig:
    """A rows × cols wavefront of *iterations* sweeps.

    ``cell_flops`` is the work per block per sweep; ``frontier_bytes``
    the payload handed to each downstream neighbour.
    """

    rows: int = 8
    cols: int = 8
    iterations: int = 4
    cell_flops: float = 2e6
    frontier_bytes: float = 64 * 1024

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValidationError("rows and cols must be > 0")
        if self.iterations <= 0:
            raise ValidationError("iterations must be > 0")
        if self.cell_flops <= 0:
            raise ValidationError("cell_flops must be > 0")
        if self.frontier_bytes < 0:
            raise ValidationError("frontier_bytes must be >= 0")

    @property
    def n_blocks(self) -> int:
        return self.rows * self.cols

    @property
    def pipeline_depth(self) -> int:
        """Diagonal count: sweeps before the last block starts its first."""
        return self.rows + self.cols - 1


def build_wavefront_program(cfg: WavefrontConfig) -> Program:
    """Construct the ORWL wavefront program.

    Per block: one ``main`` operation; locations ``b{r}.{c}/south`` and
    ``b{r}.{c}/east`` carry the downstream hand-offs (only where a
    downstream neighbour exists).
    """
    prog = Program(f"wavefront-{cfg.rows}x{cfg.cols}")

    for r in range(cfg.rows):
        for c in range(cfg.cols):
            tname = f"b{r}.{c}"
            if r + 1 < cfg.rows:
                prog.location(f"{tname}/south", cfg.frontier_bytes, owner_task=tname)
            if c + 1 < cfg.cols:
                prog.location(f"{tname}/east", cfg.frontier_bytes, owner_task=tname)

    for r in range(cfg.rows):
        for c in range(cfg.cols):
            tname = f"b{r}.{c}"
            op = prog.task(tname).operation("main", body=None)
            read_handles = []
            if r > 0:
                read_handles.append(
                    op.handle(prog.locations[f"b{r-1}.{c}/south"], AccessMode.READ)
                )
            if c > 0:
                read_handles.append(
                    op.handle(prog.locations[f"b{r}.{c-1}/east"], AccessMode.READ)
                )
            write_handles = []
            if r + 1 < cfg.rows:
                write_handles.append(
                    op.handle(prog.locations[f"{tname}/south"], AccessMode.WRITE)
                )
            if c + 1 < cfg.cols:
                write_handles.append(
                    op.handle(prog.locations[f"{tname}/east"], AccessMode.WRITE)
                )
            # Producers' write requests must precede their consumers'
            # read requests; declaration order (row-major) already
            # guarantees it, the phases make it explicit.
            for h in write_handles:
                h.init_phase = 0
            for h in read_handles:
                h.init_phase = 1

            def body(ctx, reads=tuple(read_handles), writes=tuple(write_handles)):
                for _ in range(cfg.iterations):
                    # Same-sweep upstream dependencies.
                    for h in reads:
                        yield from ctx.acquire(h)
                    yield ctx.compute(flops=cfg.cell_flops)
                    for h in reads:
                        ctx.next(h)
                    # Publish to downstream neighbours.
                    for h in writes:
                        yield from ctx.acquire(h)
                        ctx.next(h)

            op.body = body
    prog.freeze()
    return prog
