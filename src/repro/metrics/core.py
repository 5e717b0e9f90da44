"""Process-local metric registry: counters, gauges, histograms.

Design constraints (see docs/observability.md):

* **Near-zero cost when disabled.**  Instrumentation sites guard with
  :func:`is_enabled` (a module-flag read) before touching the registry,
  so a disabled run pays one attribute load + branch per site.
* **Deterministic.**  Histogram buckets come from
  :func:`exp_buckets`, computed by repeated IEEE-754 multiplication so
  the bounds are bit-identical on every platform/run.  The *stable*
  snapshot (``snapshot(stable_only=True)``) contains only
  integer-exact data — counter values with integral increments and
  histogram bucket counts — which merge exactly under any association
  order, so serial and parallel sweeps produce byte-identical stable
  snapshots.  Float accumulators
  (gauges, histogram ``sum``) are excluded from the stable view because
  float addition is not associative.
* **Fork/spawn friendly.**  Enablement rides the ``REPRO_METRICS``
  environment variable so pool workers inherit it.  A worker records
  each chunk into a fresh registry and returns its :class:`Metric`
  objects, which the parent folds in with :meth:`MetricRegistry.merge`.
"""

from __future__ import annotations

import json
import os
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Iterator, Sequence

from repro.util.validate import ValidationError

__all__ = [
    "ENV_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "bucket_quantile",
    "disable",
    "enable",
    "exp_buckets",
    "is_enabled",
    "registry",
    "reset_registry",
    "set_enabled",
    "LATENCY_BUCKETS",
    "SIM_TIME_BUCKETS",
    "SIZE_BUCKETS",
]

ENV_METRICS = "REPRO_METRICS"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

_TRUTHY = frozenset({"1", "on", "true", "yes"})


def _env_enabled() -> bool:
    return os.environ.get(ENV_METRICS, "").strip().lower() in _TRUTHY


_ENABLED = _env_enabled()


def is_enabled() -> bool:
    """Cheap global check instrumentation sites use before recording."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Flip metric collection on/off (also exports ``REPRO_METRICS``).

    The environment variable is kept in sync so process-pool workers —
    forked *or* spawned — inherit the setting.
    """
    global _ENABLED
    _ENABLED = bool(flag)
    if flag:
        os.environ[ENV_METRICS] = "on"
    else:
        os.environ.pop(ENV_METRICS, None)


def enable() -> None:
    set_enabled(True)


def disable() -> None:
    set_enabled(False)


def exp_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Deterministic exponential bucket bounds.

    Computed by repeated multiplication (not ``start * factor**i``) so
    every consumer gets bit-identical IEEE-754 bounds regardless of the
    libm in play.
    """
    if not (start > 0.0):
        raise ValidationError(f"exp_buckets start must be > 0, got {start!r}")
    if not (factor > 1.0):
        raise ValidationError(f"exp_buckets factor must be > 1, got {factor!r}")
    if count < 1:
        raise ValidationError(f"exp_buckets count must be >= 1, got {count!r}")
    bounds = []
    cur = float(start)
    for _ in range(count):
        bounds.append(cur)
        cur *= factor
    return tuple(bounds)


# 1 µs .. ~33 s — wall-clock latencies (service queries, chunk walls).
LATENCY_BUCKETS = exp_buckets(1e-6, 2.0, 26)
# 1 ns .. ~1100 s — simulated durations (ORWL waits, transfers).
SIM_TIME_BUCKETS = exp_buckets(1e-9, 2.0, 41)
# 1 .. ~5.4e8 — counts/bytes (transfer sizes).
SIZE_BUCKETS = exp_buckets(1.0, 2.0, 30)


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], count: int, q: float
) -> float:
    """Upper bucket bound holding the q-quantile (0 if empty).

    *counts* has one slot per bound plus the +Inf overflow slot, as in
    :class:`Histogram` and its snapshot sample.  A bucket-resolution
    estimate: precise enough for SLO lines (p50/p95/p99) given
    exponential bounds.
    """
    if not (0.0 <= q <= 1.0):
        raise ValidationError(f"quantile must be in [0, 1], got {q!r}")
    if count == 0:
        return 0.0
    rank = q * count
    seen = 0
    for i, n in enumerate(counts):
        seen += n
        if seen >= rank and n:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")


class Metric:
    """Base: name, help text, and the stable-snapshot flag."""

    kind = "untyped"
    __slots__ = ("name", "help", "stable")

    def __init__(self, name: str, *, help: str = "", stable: bool = True) -> None:
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.stable = stable

    def sample(self) -> dict[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(Metric):
    """Monotonically non-decreasing value.

    Increments are validated non-negative; integral increments keep the
    counter integer-exact, which is what makes it eligible for the
    stable snapshot.
    """

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self, name: str, **kw: Any) -> None:
        super().__init__(name, **kw)
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter {self.name}: negative increment {amount!r}"
            )
        self.value += amount

    def sample(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge(Metric):
    """Point-in-time value.  Never part of the stable snapshot."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self, name: str, **kw: Any) -> None:
        kw.setdefault("stable", False)
        if kw["stable"]:
            raise ValidationError(f"gauge {name}: gauges cannot be stable")
        super().__init__(name, **kw)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def sample(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram(Metric):
    """Fixed-bound histogram with deterministic exponential buckets.

    ``counts`` has ``len(bounds) + 1`` slots; the last is the +Inf
    overflow bucket.  Bucket counts and ``count`` are integers and
    merge exactly; ``sum`` is a float accumulator and is excluded from
    the stable snapshot.
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(
        self,
        name: str,
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        **kw: Any,
    ) -> None:
        super().__init__(name, **kw)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError(f"histogram {name}: empty bucket list")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"histogram {name}: bucket bounds must strictly increase"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """See :func:`bucket_quantile`."""
        return bucket_quantile(self.bounds, self.counts, self.count, q)

    def sample(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricRegistry:
    """Get-or-create metric store keyed by metric name.

    Thread-safe for metric *creation*; recording on an existing metric
    is a plain attribute update (fine under the GIL for our int/float
    bumps, and the stable snapshot only ever contains exact integers).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation -------------------------------------------------------
    def _get_or_create(
        self, cls: type, name: str, kw: dict[str, Any]
    ) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name, **kw)
        if not isinstance(metric, cls):
            raise ValidationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", *, stable: bool = True
    ) -> Counter:
        return self._get_or_create(
            Counter, name, {"help": help, "stable": stable}
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, {"help": help})

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        stable: bool = True,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, {"help": help, "stable": stable, "buckets": buckets}
        )

    # -- access ---------------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshots ------------------------------------------------------
    def snapshot(self, *, stable_only: bool = False) -> dict[str, Any]:
        """Samples keyed by metric name.

        ``stable_only`` keeps only integer-exact data: counters and
        histogram bucket counts from metrics flagged ``stable``; the
        histogram float ``sum`` and all gauges are dropped.  Metrics
        with zero activity are dropped too, so the view holds what a
        run recorded, not which metrics it happened to create.  This
        is the view the determinism acceptance test byte-compares.
        """
        out: dict[str, Any] = {}
        for metric in self:
            if stable_only:
                if not metric.stable or isinstance(metric, Gauge):
                    continue
                if isinstance(metric, Counter) and metric.value == 0:
                    continue
                if isinstance(metric, Histogram) and metric.count == 0:
                    continue
                sample = metric.sample()
                sample.pop("sum", None)
                out[metric.name] = sample
            else:
                out[metric.name] = metric.sample()
        return {"schema": "repro-metrics-v1", "metrics": out}

    def to_json(self, *, stable_only: bool = False) -> str:
        """Canonical-JSON snapshot (sorted keys, no whitespace)."""
        return json.dumps(
            self.snapshot(stable_only=stable_only),
            sort_keys=True,
            separators=(",", ":"),
        )

    def merge(self, metrics: Iterable[Metric]) -> None:
        """Fold metrics recorded elsewhere (a pool worker's chunk) in.

        Counters and histogram counts add; gauges take the incoming
        value (last write wins).  A histogram whose bucket bounds differ
        from the registered one raises.
        """
        for m in metrics:
            if isinstance(m, Counter):
                self.counter(m.name, m.help, stable=m.stable).inc(m.value)
            elif isinstance(m, Gauge):
                self.gauge(m.name, m.help).set(m.value)
            elif isinstance(m, Histogram):
                hist = self.histogram(
                    m.name, m.help, buckets=m.bounds, stable=m.stable
                )
                if hist.bounds != m.bounds:
                    raise ValidationError(
                        f"histogram {m.name!r}: bucket bounds mismatch on merge"
                    )
                for i, n in enumerate(m.counts):
                    hist.counts[i] += n
                hist.count += m.count
                hist.sum += m.sum
            else:
                raise ValidationError(
                    f"cannot merge metric {m.name!r} of kind {m.kind!r}"
                )

_REGISTRY: MetricRegistry | None = None
_REGISTRY_LOCK = threading.Lock()


def registry() -> MetricRegistry:
    """The process-global registry (created lazily)."""
    global _REGISTRY
    if _REGISTRY is None:
        with _REGISTRY_LOCK:
            if _REGISTRY is None:
                _REGISTRY = MetricRegistry()
    return _REGISTRY


def reset_registry() -> MetricRegistry:
    """Drop all recorded metrics; returns the fresh registry."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        _REGISTRY = MetricRegistry()
    return _REGISTRY

