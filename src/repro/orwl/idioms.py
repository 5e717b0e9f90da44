"""Reusable ORWL body idioms.

The canonical iterative structure appears in every ORWL application
(LK23's main ops, the wavefront, the ring pipeline): publish initial
data, then per sweep import → work → re-queue → export.  These
generator helpers capture it so application bodies shrink to their
work function.

All helpers are generators over the :class:`~repro.orwl.runtime
.OpContext` protocol — compose them with ``yield from``.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

from repro.orwl.handle import Handle
from repro.util.validate import ValidationError

#: A per-sweep work function: receives (ctx, sweep_index) and may yield
#: syscalls (e.g. ``yield ctx.compute(...)``).
SweepFn = Callable[["object", int], Generator]


def publish_initial(ctx, handles: Sequence[Handle]) -> Generator:
    """Acquire-and-requeue each write handle once: the init-round
    publication that hands initial data to waiting readers."""
    for h in handles:
        yield from ctx.acquire(h)
        ctx.next(h)


def iterative(
    ctx,
    iterations: int,
    work: SweepFn,
    reads: Sequence[Handle] = (),
    writes: Sequence[Handle] = (),
    publish_first: bool = True,
) -> Generator:
    """The canonical ORWL sweep loop.

    Per sweep: acquire all *reads* (pulling payloads), run *work*,
    re-queue the reads, then acquire + re-queue each *write* (the
    export).  With *publish_first*, the writes are acquired and
    re-queued once before the loop — the init publication that lets
    neighbours' first imports complete without waiting on computation.

    Example::

        def body(ctx):
            yield from idioms.iterative(
                ctx, cfg.iterations,
                work=lambda c, k: iter([c.compute(flops=block_flops)]),
                reads=halo_handles, writes=src_handles,
            )
    """
    if iterations <= 0:
        raise ValidationError(f"iterations must be > 0, got {iterations}")
    if publish_first and writes:
        yield from publish_initial(ctx, writes)
    acquire = ctx.acquire
    requeue = ctx.next
    for k in range(iterations):
        for h in reads:
            yield from acquire(h)
        yield from work(ctx, k)
        for h in reads:
            requeue(h)
        for h in writes:
            yield from acquire(h)
            requeue(h)


def compute_sweep(seconds: Optional[float] = None, flops: Optional[float] = None) -> SweepFn:
    """A :data:`SweepFn` that just burns a fixed amount of work."""

    def work(ctx, _k: int) -> Generator:
        yield ctx.compute(seconds=seconds, flops=flops)

    return work
