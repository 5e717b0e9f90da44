"""The metrics bus: file-based snapshot hand-off between processes.

A sweep process periodically writes the registry's full snapshot to a
JSON file (atomic ``tmp + os.replace`` so readers never observe a torn
write); ``repro.tools.top`` tails that file and renders the dashboard.
Deliberately boring — no sockets, no daemons — so it works inside CI,
over SSH, and under every start method the process pool supports.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

from repro.metrics import core
from repro.metrics.core import MetricRegistry

__all__ = ["SnapshotWriter", "read_snapshot"]


class SnapshotWriter:
    """Rate-limited atomic snapshot dumps of a registry to *path*.

    Calling the writer writes at most once per *min_interval* seconds,
    so it can be passed straight to ``SweepRunner(on_point=...)``;
    :meth:`flush` always writes.  The first snapshot is never
    rate-limited (a monotonic clock may start near 0 on a freshly
    booted host).
    """

    def __init__(
        self,
        path: str,
        *,
        registry: MetricRegistry | None = None,
        min_interval: float = 0.5,
    ) -> None:
        self.path = path
        self.registry = registry
        self.min_interval = min_interval
        #: monotonic clock reading of the last write (None: never written).
        self._last_write: float | None = None
        self.writes = 0

    def _registry(self) -> MetricRegistry:
        return self.registry if self.registry is not None else core.registry()

    def flush(self) -> None:
        payload = self._registry().snapshot()
        payload["written_at"] = time.time()
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, self.path)
        self._last_write = time.monotonic()
        self.writes += 1

    def __call__(self) -> None:
        if (
            self._last_write is not None
            and time.monotonic() - self._last_write < self.min_interval
        ):
            return
        self.flush()


def read_snapshot(path: str) -> dict[str, Any] | None:
    """Load a snapshot file; ``None`` when absent or torn mid-rotation."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "metrics" not in data:
        return None
    return data
