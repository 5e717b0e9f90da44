"""Parallel sweep execution (``repro.exec``).

Every experiment in this repo — the Fig. 1 sweep, the ablations, the
cluster comparison, the benchmarks — is a set of *independent*
simulation points: same code, different parameters, no shared state.
Each point is a full discrete-event simulation firing millions of pure
Python events, so a paper-scale sweep is dominated by CPU time that
parallelizes embarrassingly across the host's own cores.

:class:`SweepRunner` fans such points over a process pool while keeping
the repo's determinism contract intact:

* **deterministic ordering** — results come back in submission order,
  regardless of which worker finished first;
* **bit-identical to serial** — a point's outcome depends only on its
  arguments (every simulation is seeded), so ``n_workers=8`` and
  ``n_workers=1`` produce byte-identical results and determinism
  fingerprints (``tests/test_exec.py`` pins this);
* **per-point seeds** — :func:`derive_seed` derives stable,
  process-independent child seeds from a base seed and a point key;
* **worker-side construction LRU** — :mod:`repro.exec.cache` memoizes
  topology, :class:`~repro.topology.distance.DistanceModel` and frozen
  :class:`~repro.tasks.graph.TaskGraph` construction inside each
  process (LRU-bounded), so a 192-PU distance matrix or an E7 DAG is
  built once per worker, not once per point;
* **placement memo** — :func:`cached_tree_match` keys TreeMatch results
  on ``(topology fingerprint, comm-matrix digest, params)``; a
  replicated sweep derives each seed-independent mapping once per
  process.  Nothing is kept on disk, so every result comes from the
  code that is running;
* **chunked dispatch** — points are shipped in chunks to amortize IPC;
* **crash resilience** — a dying worker (OOM kill, segfault in a native
  extension) breaks the pool; the runner rebuilds it once and retries
  the unfinished chunks, then falls back to in-process serial
  execution, so a sweep always completes; each rebuild and the
  fallback log a warning;
* **one record** — with metrics on (:mod:`repro.metrics`), the sweep's
  counters and its live ``sweep_progress_total``/``sweep_progress_done``
  gauges land in the registry; an optional zero-argument ``on_point``
  hook runs after every completed point.
"""

from __future__ import annotations

from repro.exec.cache import (
    cache_stats,
    cached_distance_model,
    cached_task_graph,
    cached_topology,
    cached_tree_match,
    clear_cache,
    machine_inputs,
    matrix_digest,
    reset_cache_stats,
    topology_fingerprint,
)
from repro.exec.runner import (
    SweepRunner,
    Task,
    derive_seed,
    resolve_workers,
)

__all__ = [
    "SweepRunner",
    "Task",
    "cache_stats",
    "cached_distance_model",
    "cached_task_graph",
    "cached_topology",
    "cached_tree_match",
    "clear_cache",
    "derive_seed",
    "machine_inputs",
    "matrix_digest",
    "reset_cache_stats",
    "resolve_workers",
    "topology_fingerprint",
]
