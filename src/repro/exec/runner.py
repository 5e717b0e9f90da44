"""The process-pool sweep runner.

See :mod:`repro.exec` for the design contract.  The implementation
notes that matter:

* **Tasks are (function, kwargs) pairs.**  The function must be an
  importable module-level callable (the pool pickles it by reference);
  every experiment entry point in this repo qualifies.
* **Results are stored by submission index**, so the returned list is
  in input order no matter which worker finished first, and a retried
  chunk lands in the same slots.
* **Worker crashes break the whole pool** (that is how
  :class:`~concurrent.futures.ProcessPoolExecutor` reports a worker
  dying mid-task): completed chunks keep their results, the pool is
  rebuilt, and only the unfinished chunks are resubmitted.  After
  :data:`POOL_REBUILDS` rebuilds the runner runs the remainder serially
  in-process, so a sweep always either completes or raises the task's
  own deterministic exception.  Each rebuild and the fallback log one
  warning on the ``repro.exec`` logger.
* **Ordinary task exceptions are not retried** — a seeded simulation
  that raises once will raise every time; the first failure (in
  submission order on the serial path, completion order on the pool
  path) propagates unchanged.
* **The metrics registry is the sweep's one record.**  With metrics on,
  each worker ships its registry delta home with its chunk, and the
  parent keeps the ``sweep_*`` counters and the live
  ``sweep_progress_total``/``sweep_progress_done`` gauges.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.metrics import core as metrics_core
from repro.util.log import get_logger
from repro.util.validate import ValidationError

#: Pool rebuilds tolerated after worker crashes; one more crash and the
#: rest of the sweep runs serially in-process.
POOL_REBUILDS = 1

_log = get_logger("exec")


def derive_seed(base: int, *key: Any) -> int:
    """Derive a stable 63-bit child seed from *base* and a point key.

    Uses sha-256 over the canonical ``repr`` of the parts, so the result
    is identical across processes, platforms, and ``PYTHONHASHSEED``
    values — unlike ``hash()``.  Use it to give every point of a
    multi-seed sweep an independent but reproducible stream::

        seed = derive_seed(base_seed, "fig1", implementation, n_cores)
    """
    h = hashlib.sha256()
    h.update(repr(int(base)).encode("utf-8"))
    for part in key:
        h.update(b"\x1f")
        h.update(repr(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little") & (2**63 - 1)


def resolve_workers(n_workers: Optional[int]) -> int:
    """Normalize a worker-count argument.

    ``None`` (or ``0``) means "use the host's available cores" —
    the scheduling affinity mask where supported, so a cgroup-limited
    container does not oversubscribe itself.  Any other value is used
    as given (``1`` = serial, in-process).
    """
    if n_workers is None or n_workers == 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            return os.cpu_count() or 1
    if n_workers < 0:
        raise ValidationError(f"n_workers must be >= 0, got {n_workers}")
    return n_workers


@dataclass(frozen=True)
class Task:
    """One sweep point: an importable callable plus its kwargs.

    *weight* is the task's expected relative cost (any positive unit —
    the scaling sweep uses the machine's PU count).  The chunker packs
    tasks into chunks of bounded total weight, so one 4096-core point
    is dispatched alone instead of serialized behind three others in
    the same chunk.  Weights affect only chunk boundaries, never
    results or their order.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.weight > 0:
            raise ValidationError(f"task weight must be > 0, got {self.weight}")

    def run(self) -> Any:
        return self.fn(**self.kwargs)


#: Sentinel marking a result slot not yet produced.
_MISSING = object()


def _run_chunk(
    items: list[tuple[int, Callable, dict]],
) -> tuple[list[tuple[int, Any]], dict[str, Any]]:
    """Worker body: run one chunk, return ``(index, result)`` pairs plus
    (when enabled) the chunk's metric delta.

    The metric registry ships home as a delta (``dump``/``diff_dumps``/
    ``merge`` — works under fork *and* spawn, since ``REPRO_METRICS``
    rides the environment).  Runs in the worker process; anything it
    raises is pickled back and re-raised from the future (worker stays
    alive).  A worker *dying* instead (os._exit, segfault, OOM kill)
    surfaces in the parent as :class:`BrokenProcessPool`.
    """
    metrics_before = (
        metrics_core.registry().dump() if metrics_core.is_enabled() else None
    )
    chunk_t0 = time.perf_counter()
    pairs = [(index, fn(**kwargs)) for index, fn, kwargs in items]
    metrics_delta: dict[str, Any] = {}
    if metrics_before is not None:
        reg = metrics_core.registry()
        reg.histogram(
            "sweep_chunk_wall_seconds",
            "Wall-clock time per dispatched chunk",
            stable=False,
        ).observe(time.perf_counter() - chunk_t0)
        metrics_delta = metrics_core.diff_dumps(metrics_before, reg.dump())
    return pairs, metrics_delta


class SweepRunner:
    """Fan independent tasks across host CPUs, deterministically.

    Parameters
    ----------
    n_workers:
        Process count; ``None``/``0`` = host cores, ``1`` = serial
        in-process (no pool, no pickling — the reference path the
        parallel results are bit-compared against).
    on_point:
        Optional zero-argument hook, called in the parent after every
        completed point (``tools.fig1 --metrics`` flushes its snapshot
        file from it).
    mp_context:
        ``multiprocessing`` start-method name (default ``"fork"`` where
        available — workers inherit imported modules, so dispatch cost
        stays in the milliseconds; ``"spawn"`` elsewhere).
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        on_point: Optional[Callable[[], None]] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.n_workers = resolve_workers(n_workers)
        self.on_point = on_point
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context

    # -- internals ---------------------------------------------------------

    def _chunk_indices(
        self, n: int, weights: Optional[Sequence[float]] = None
    ) -> list[list[int]]:
        """Contiguous dispatch chunks over *n* tasks.

        With uniform (or no) *weights* this is a fixed-size split:
        ``ceil(n / (4 * n_workers))`` tasks per chunk, which amortizes
        IPC while keeping the pool load-balanced.  With weights, chunks
        are packed greedily up to the equivalent weight cap, so
        heavyweight tasks land in chunks of their own and never make
        lighter tasks queue behind them.
        """
        if weights is None or len(set(weights)) <= 1:
            size = max(1, -(-n // (4 * self.n_workers)))
            return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
        total = float(sum(weights))
        cap = total / (4 * self.n_workers)
        chunks: list[list[int]] = []
        current: list[int] = []
        current_weight = 0.0
        for i in range(n):
            w = float(weights[i])
            if current and current_weight + w > cap:
                chunks.append(current)
                current = []
                current_weight = 0.0
            current.append(i)
            current_weight += w
        if current:
            chunks.append(current)
        return chunks

    def _store(self, results: list, index: int, value: Any) -> None:
        """Fill one result slot and report the completed point."""
        results[index] = value
        if metrics_core.is_enabled():
            metrics_core.registry().gauge(
                "sweep_progress_done", "Points completed so far"
            ).inc()
        if self.on_point is not None:
            self.on_point()

    def _run_serial(self, tasks: Sequence[Task], results: list) -> None:
        """Run every task whose slot is still empty, in order, in-process
        (all of them, or what a crashed pool left unfinished)."""
        for i, task in enumerate(tasks):
            if results[i] is _MISSING:
                self._store(results, i, task.run())

    # -- the public entry point --------------------------------------------

    def map(self, tasks: Sequence[Task]) -> list[Any]:
        """Run all *tasks*; return their results in input order."""
        tasks = list(tasks)
        total = len(tasks)
        t0 = time.perf_counter()
        results: list[Any] = [_MISSING] * total
        if metrics_core.is_enabled():
            reg = metrics_core.registry()
            reg.counter("sweep_runs_total", "SweepRunner.map calls").inc()
            reg.counter("sweep_points_total", "Sweep points requested").inc(
                total
            )
            reg.gauge("sweep_progress_total", "Points in the running sweep").set(
                total
            )
            reg.gauge("sweep_progress_done", "Points completed so far").set(0)

        if self.n_workers <= 1 or total <= 1:
            self._run_serial(tasks, results)
        else:
            self._pool_loop(tasks, results)

        if metrics_core.is_enabled():
            reg = metrics_core.registry()
            wall = time.perf_counter() - t0
            reg.gauge(
                "sweep_last_wall_seconds", "Wall time of the last sweep"
            ).set(wall)
            if wall > 0.0:
                reg.gauge(
                    "sweep_points_per_sec",
                    "Completed points/second of the last sweep",
                ).set(total / wall)
        assert not any(r is _MISSING for r in results)
        return results

    def _pool_loop(self, tasks: Sequence[Task], results: list) -> None:
        """Run every task on a process pool, rebuilding it after a crash
        and finishing serially once :data:`POOL_REBUILDS` is spent."""
        ctx = multiprocessing.get_context(self.mp_context)
        pending = self._chunk_indices(len(tasks), [task.weight for task in tasks])
        crashes = 0
        while pending:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.n_workers, len(pending)), mp_context=ctx
                ) as pool:
                    not_done = {
                        pool.submit(
                            _run_chunk,
                            [(i, tasks[i].fn, tasks[i].kwargs) for i in chunk],
                        )
                        for chunk in pending
                    }
                    while not_done:
                        done_set, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                        for fut in done_set:
                            pairs, metrics_delta = fut.result()
                            if metrics_delta:
                                metrics_core.registry().merge(metrics_delta)
                            for i, value in pairs:
                                self._store(results, i, value)
            except BrokenProcessPool:
                crashes += 1
                pending = [
                    c for c in pending if any(results[i] is _MISSING for i in c)
                ]
                remaining = sum(1 for r in results if r is _MISSING)
                if metrics_core.is_enabled():
                    reg = metrics_core.registry()
                    reg.counter(
                        "sweep_worker_crashes_total",
                        "Worker-pool crashes across sweeps",
                        stable=False,
                    ).inc()
                    reg.counter(
                        "sweep_chunk_retries_total",
                        "Chunk resubmissions after pool crashes",
                        stable=False,
                    ).inc(len(pending))
                if crashes > POOL_REBUILDS:
                    _log.warning(
                        "sweep worker pool crashed %d time(s); running the "
                        "remaining %d task(s) serially in-process",
                        crashes, remaining,
                    )
                    self._run_serial(tasks, results)
                    return
                _log.warning(
                    "sweep worker pool crashed; rebuilding it for the "
                    "remaining %d task(s) in %d chunk(s)",
                    remaining, len(pending),
                )
            else:
                pending = []
