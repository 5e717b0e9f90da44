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
  *max_retries* rebuilds the runner falls back to running the remainder
  serially in-process (unless told not to), so a sweep always either
  completes or raises the task's own deterministic exception.
* **Ordinary task exceptions are not retried** — a seeded simulation
  that raises once will raise every time; the first failure (in
  submission order on the serial path, completion order on the pool
  path) propagates unchanged.
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

from repro.exec import cache as cache_mod
from repro.exec.progress import ProgressCallback, SweepEvent
from repro.metrics import core as metrics_core
from repro.util.errors import ReproError
from repro.util.validate import ValidationError


class ExecError(ReproError, RuntimeError):
    """Raised when a sweep cannot be completed (retries exhausted and
    serial fallback disabled)."""


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
    the scaling sweep uses the machine's PU count).  The default
    chunker packs tasks into chunks of bounded total weight, so one
    4096-core point is dispatched alone instead of serialized behind
    three others in the same chunk.  Weights affect only chunk
    boundaries, never results or their order.
    """

    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""
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
) -> tuple[list[tuple[int, Any]], dict[str, int], dict[str, Any]]:
    """Worker body: run one chunk, return ``(index, result)`` pairs plus
    the chunk's cache-counter delta and (when enabled) its metric delta.

    Cache hits (placement memo, construction caches) happen inside
    worker processes, invisible to the parent; snapshotting the
    counters around the chunk and shipping the delta home is what lets
    the parent aggregate sweep-wide hit rates.  The metric registry
    ships the same way (``dump``/``diff_dumps``/``merge`` — works under
    fork *and* spawn, since ``REPRO_METRICS`` rides the environment).
    Runs in the worker process; anything it raises is pickled back and
    re-raised from the future (worker stays alive).  A worker *dying*
    instead (os._exit, segfault, OOM kill) surfaces in the parent as
    :class:`BrokenProcessPool`.
    """
    before = cache_mod.cache_stats()
    metrics_on = metrics_core.is_enabled()
    metrics_before = metrics_core.registry().dump() if metrics_on else None
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
    return pairs, cache_mod.stats_delta(before), metrics_delta


class SweepRunner:
    """Fan independent tasks across host CPUs, deterministically.

    Parameters
    ----------
    n_workers:
        Process count; ``None``/``0`` = host cores, ``1`` = serial
        in-process (no pool, no pickling — the reference path the
        parallel results are bit-compared against).
    chunk_size:
        Tasks per dispatch unit.  Default: tasks spread over
        ``4 × n_workers`` chunks (amortizes IPC while keeping the pool
        load-balanced).
    max_retries:
        Pool rebuilds tolerated after worker crashes before giving up
        on the parallel path.
    serial_fallback:
        When retries are exhausted, finish the remaining tasks serially
        in-process instead of raising.
    on_event:
        Optional :class:`~repro.exec.progress.SweepEvent` callback (see
        also :func:`~repro.exec.progress.log_progress` and
        :func:`~repro.exec.progress.tracer_progress`).
    mp_context:
        ``multiprocessing`` start-method name (default ``"fork"`` where
        available — workers inherit imported modules, so dispatch cost
        stays in the milliseconds; ``"spawn"`` elsewhere).
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 1,
        serial_fallback: bool = True,
        on_event: Optional[ProgressCallback] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.n_workers = resolve_workers(n_workers)
        if chunk_size is not None and chunk_size <= 0:
            raise ValidationError(f"chunk_size must be > 0, got {chunk_size}")
        self.chunk_size = chunk_size
        if max_retries < 0:
            raise ValidationError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.serial_fallback = serial_fallback
        self._callbacks: list[ProgressCallback] = [on_event] if on_event else []
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.mp_context = mp_context
        #: diagnostics from the last :meth:`map` call.
        self.last_stats: dict[str, Any] = {}

    def add_callback(self, callback: ProgressCallback) -> None:
        """Subscribe an additional progress sink."""
        self._callbacks.append(callback)

    # -- internals ---------------------------------------------------------

    def _emit(
        self,
        kind: str,
        t0: float,
        *,
        index: int = -1,
        done: int = 0,
        total: int = 0,
        label: str = "",
        detail: str = "",
    ) -> None:
        if not self._callbacks:
            return
        ev = SweepEvent(
            kind,
            time.perf_counter() - t0,
            index=index,
            done=done,
            total=total,
            label=label,
            detail=detail,
        )
        for cb in self._callbacks:
            cb(ev)

    def _chunk_indices(
        self, n: int, weights: Optional[Sequence[float]] = None
    ) -> list[list[int]]:
        """Contiguous dispatch chunks over *n* tasks.

        With uniform (or no) *weights* this is the historical fixed-size
        split: ``ceil(n / (4 * n_workers))`` tasks per chunk.  With
        weights, chunks are packed greedily up to the equivalent weight
        cap, so heavyweight tasks land in chunks of their own and never
        make lighter tasks queue behind them.
        """
        if self.chunk_size is not None:
            size = self.chunk_size
            return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
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

    def _run_serial(
        self, tasks: Sequence[Task], results: list, t0: float, total: int
    ) -> None:
        """Run every task whose slot is still empty, in order, in-process
        (all of them, or what a crashed pool left unfinished)."""
        for i, task in enumerate(tasks):
            if results[i] is not _MISSING:
                continue
            results[i] = task.run()
            done = sum(1 for r in results if r is not _MISSING)
            self._emit(
                "point_done", t0, index=i, done=done, total=total, label=task.label
            )

    # -- the public entry point --------------------------------------------

    def map(self, tasks: Sequence[Task]) -> list[Any]:
        """Run all *tasks*; return their results in input order.

        Cache counters (placement memo, construction LRU) from the
        parent *and* the workers land in ``last_stats["cache"]`` and one
        ``cache_stats`` event.
        """
        tasks = list(tasks)
        total = len(tasks)
        t0 = time.perf_counter()
        results: list[Any] = [_MISSING] * total
        stats_before = cache_mod.cache_stats()
        mode = "serial" if self.n_workers <= 1 or total <= 1 else "parallel"
        self.last_stats = {
            "n_tasks": total,
            "n_workers": self.n_workers,
            "crashes": 0,
            "serial_fallback": False,
            "mode": mode,
        }
        metrics_on = metrics_core.is_enabled()
        if metrics_on:
            reg = metrics_core.registry()
            reg.counter("sweep_runs_total", "SweepRunner.map calls").inc()
            reg.counter("sweep_points_total", "Sweep points requested").inc(
                total
            )
        self._emit(
            "sweep_start", t0, total=total,
            detail=f"workers={self.n_workers} mode={mode}",
        )

        worker_stats: dict[str, int] = {}
        if mode == "serial":
            self._run_serial(tasks, results, t0, total)
        else:
            worker_stats = self._pool_loop(tasks, results, t0, total)

        cache_totals = cache_mod.stats_delta(stats_before)
        cache_mod.merge_stats(cache_totals, worker_stats)
        if cache_totals:
            self.last_stats["cache"] = dict(cache_totals)
            self._emit(
                "cache_stats", t0, done=total, total=total,
                detail=" ".join(
                    f"{k}={v}" for k, v in sorted(cache_totals.items())
                ),
            )
        if metrics_on:
            reg = metrics_core.registry()
            wall = time.perf_counter() - t0
            # Separate namespace from the per-process ``exec_cache_*``
            # mirror: these are the parent's sweep-wide aggregates
            # (worker deltas folded in), and they depend on worker
            # layout, hence unstable.
            for key, value in sorted(cache_totals.items()):
                reg.counter(
                    f"sweep_cache_{key}_total",
                    f"Sweep-aggregated exec.cache counter {key!r}",
                    stable=False,
                ).inc(value)
            reg.counter(
                "sweep_worker_crashes_total",
                "BrokenProcessPool pool rebuilds across sweeps",
                stable=False,
            ).inc(self.last_stats["crashes"])
            reg.gauge(
                "sweep_last_wall_seconds", "Wall time of the last sweep"
            ).set(wall)
            if wall > 0.0:
                reg.gauge(
                    "sweep_points_per_sec",
                    "Completed points/second of the last sweep",
                ).set(total / wall)
        self.last_stats["wall_s"] = time.perf_counter() - t0
        self._emit("sweep_end", t0, done=total, total=total)
        assert not any(r is _MISSING for r in results)
        return results

    def _pool_loop(
        self,
        tasks: Sequence[Task],
        results: list,
        t0: float,
        total: int,
    ) -> dict[str, int]:
        """Run every task on a process pool; returns the workers' summed
        cache-counter deltas."""
        worker_stats: dict[str, int] = {}
        ctx = multiprocessing.get_context(self.mp_context)
        pending = self._chunk_indices(total, [task.weight for task in tasks])
        crashes = 0
        while pending:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self.n_workers, len(pending)), mp_context=ctx
                ) as pool:
                    futures = {
                        pool.submit(
                            _run_chunk,
                            [(i, tasks[i].fn, tasks[i].kwargs) for i in chunk],
                        ): chunk
                        for chunk in pending
                    }
                    not_done = set(futures)
                    while not_done:
                        done_set, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                        for fut in done_set:
                            pairs, delta, metrics_delta = fut.result()
                            cache_mod.merge_stats(worker_stats, delta)
                            if metrics_delta:
                                metrics_core.registry().merge(metrics_delta)
                            for i, value in pairs:
                                results[i] = value
                                ndone = sum(1 for r in results if r is not _MISSING)
                                self._emit(
                                    "point_done", t0, index=i, done=ndone,
                                    total=total, label=tasks[i].label,
                                )
                            self._emit(
                                "chunk_done", t0,
                                done=sum(1 for r in results if r is not _MISSING),
                                total=total,
                                detail=f"chunk of {len(futures[fut])}",
                            )
            except BrokenProcessPool:
                crashes += 1
                self.last_stats["crashes"] = crashes
                pending = [
                    c for c in pending if any(results[i] is _MISSING for i in c)
                ]
                remaining = sum(1 for r in results if r is _MISSING)
                if metrics_core.is_enabled():
                    metrics_core.registry().counter(
                        "sweep_chunk_retries_total",
                        "Chunk resubmissions after pool crashes",
                        stable=False,
                    ).inc(len(pending))
                self._emit(
                    "worker_crash", t0,
                    done=total - remaining, total=total,
                    detail=f"attempt {crashes}/{self.max_retries}, "
                           f"{remaining} task(s) unfinished",
                )
                if crashes > self.max_retries:
                    if self.serial_fallback:
                        self.last_stats["serial_fallback"] = True
                        self._emit(
                            "serial_fallback", t0,
                            done=total - remaining, total=total,
                            detail=f"{remaining} task(s) rerun in-process",
                        )
                        self._run_serial(tasks, results, t0, total)
                        return worker_stats
                    raise ExecError(
                        f"worker pool crashed {crashes} time(s); "
                        f"{remaining} of {total} task(s) unfinished "
                        "(serial_fallback disabled)"
                    ) from None
                self._emit(
                    "retry", t0, done=total - remaining, total=total,
                    detail=f"resubmitting {len(pending)} chunk(s)",
                )
            else:
                pending = []
        return worker_stats


def run_sweep(
    fn: Callable[..., Any],
    kwargs_list: Sequence[dict[str, Any]],
    n_workers: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    **runner_kwargs: Any,
) -> list[Any]:
    """One-call sweep: ``[fn(**kw) for kw in kwargs_list]``, in parallel.

    Results are in input order and bit-identical to the serial list
    comprehension.  Extra keyword arguments configure the
    :class:`SweepRunner`.
    """
    if labels is not None and len(labels) != len(kwargs_list):
        raise ValidationError(
            f"labels length {len(labels)} != kwargs_list length {len(kwargs_list)}"
        )
    tasks = [
        Task(fn, dict(kw), label=labels[k] if labels else "")
        for k, kw in enumerate(kwargs_list)
    ]
    return SweepRunner(n_workers=n_workers, **runner_kwargs).map(tasks)
