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
  environment variable so pool workers inherit it; worker registries
  ship deltas back to the parent via :meth:`MetricRegistry.dump` /
  :func:`diff_dumps` / :meth:`MetricRegistry.merge` (the same pattern
  ``repro.exec.cache`` uses for cache stats).
"""

from __future__ import annotations

import json
import os
import re
import threading
from bisect import bisect_left
from typing import Any, Iterator, Mapping, Sequence

from repro.util.validate import ValidationError

__all__ = [
    "ENV_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "diff_dumps",
    "disable",
    "enable",
    "exp_buckets",
    "is_enabled",
    "metric_id",
    "registry",
    "reset_registry",
    "set_enabled",
    "LATENCY_BUCKETS",
    "SIM_TIME_BUCKETS",
    "SIZE_BUCKETS",
]

ENV_METRICS = "REPRO_METRICS"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

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


def metric_id(name: str, labels: Mapping[str, str] | None = None) -> str:
    """Canonical registry key: ``name`` or ``name{k="v",...}`` (sorted)."""
    if labels:
        inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
        return f"{name}{{{inner}}}"
    return name


def _check_name(name: str) -> None:
    if not _NAME_RE.match(name):
        raise ValidationError(f"invalid metric name {name!r}")


def _check_labels(labels: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    out = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValidationError(f"invalid label name {key!r}")
        out.append((key, str(labels[key])))
    return tuple(out)


class Metric:
    """Base: identity, help text, and the stable-snapshot flag."""

    kind = "untyped"
    __slots__ = ("name", "labels", "help", "stable")

    def __init__(
        self,
        name: str,
        *,
        labels: Mapping[str, str] | None = None,
        help: str = "",
        stable: bool = True,
    ) -> None:
        _check_name(name)
        self.name = name
        self.labels: tuple[tuple[str, str], ...] = _check_labels(labels or {})
        self.help = help
        self.stable = stable

    @property
    def id(self) -> str:
        return metric_id(self.name, dict(self.labels))

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

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

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
        """Upper bucket bound holding the q-quantile (0 if empty).

        A bucket-resolution estimate: precise enough for SLO lines
        (p50/p95/p99) given exponential bounds.
        """
        if not (0.0 <= q <= 1.0):
            raise ValidationError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank and n:
                if i < len(self.bounds):
                    return self.bounds[i]
                return float("inf")
        return float("inf")

    def sample(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricRegistry:
    """Get-or-create metric store keyed by :func:`metric_id`.

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
        key = metric_id(name, kw.get("labels") or {})
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValidationError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, **kw)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValidationError(
                    f"metric {key!r} already registered as {metric.kind}"
                )
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        stable: bool = True,
    ) -> Counter:
        return self._get_or_create(
            Counter, name, {"help": help, "labels": labels, "stable": stable}
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        return self._get_or_create(
            Gauge, name, {"help": help, "labels": labels}
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        buckets: Sequence[float] = LATENCY_BUCKETS,
        stable: bool = True,
    ) -> Histogram:
        return self._get_or_create(
            Histogram,
            name,
            {"help": help, "labels": labels, "stable": stable, "buckets": buckets},
        )

    # -- access ---------------------------------------------------------
    def get(self, name: str, labels: Mapping[str, str] | None = None) -> Metric | None:
        return self._metrics.get(metric_id(name, labels))

    def __iter__(self) -> Iterator[Metric]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshots ------------------------------------------------------
    def snapshot(self, *, stable_only: bool = False) -> dict[str, Any]:
        """Samples keyed by metric id.

        ``stable_only`` keeps only integer-exact data: counters and
        histogram bucket counts from metrics flagged ``stable``; the
        histogram float ``sum`` and all gauges are dropped.  Metrics
        with zero activity are dropped too — worker deltas omit
        untouched metrics, so a zero-valued counter would exist in a
        serial run's registry but not a parallel one's.  This is the
        view the determinism acceptance test byte-compares.
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
                out[metric.id] = sample
            else:
                out[metric.id] = metric.sample()
        return {"schema": "repro-metrics-v1", "metrics": out}

    def to_json(self, *, stable_only: bool = False) -> str:
        """Canonical-JSON snapshot (sorted keys, no whitespace)."""
        return json.dumps(
            self.snapshot(stable_only=stable_only),
            sort_keys=True,
            separators=(",", ":"),
        )

    # -- worker delta shipping ------------------------------------------
    def dump(self) -> dict[str, Any]:
        """Full state + metadata, sufficient to recreate every metric."""
        out: dict[str, Any] = {}
        for metric in self:
            entry: dict[str, Any] = {
                "type": metric.kind,
                "name": metric.name,
                "labels": [list(kv) for kv in metric.labels],
                "help": metric.help,
                "stable": metric.stable,
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                entry["counts"] = list(metric.counts)
                entry["count"] = metric.count
                entry["sum"] = metric.sum
            else:
                entry["value"] = metric.value  # type: ignore[union-attr]
            out[metric.id] = entry
        return out

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold a :func:`diff_dumps` delta (e.g. from a pool worker) in.

        Counters and histogram counts add; gauges take the delta's
        absolute value (last write wins).
        """
        for key, entry in sorted(delta.items()):
            kind = entry["type"]
            labels = {k: v for k, v in entry.get("labels", [])}
            kw = {"labels": labels, "help": entry.get("help", "")}
            if kind == "counter":
                metric = self.counter(
                    entry["name"], stable=entry.get("stable", True), **kw
                )
                metric.inc(entry["value"])
            elif kind == "gauge":
                metric = self.gauge(entry["name"], **kw)
                metric.set(entry["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    entry["name"],
                    buckets=entry["bounds"],
                    stable=entry.get("stable", True),
                    **kw,
                )
                if list(hist.bounds) != [float(b) for b in entry["bounds"]]:
                    raise ValidationError(
                        f"histogram {key!r}: bucket bounds mismatch on merge"
                    )
                for i, n in enumerate(entry["counts"]):
                    hist.counts[i] += n
                hist.count += entry["count"]
                hist.sum += entry["sum"]
            else:
                raise ValidationError(f"unknown metric type {kind!r} in delta")


def diff_dumps(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> dict[str, Any]:
    """Delta between two :meth:`MetricRegistry.dump` snapshots.

    Metrics absent from ``before`` contribute their full value.  Empty
    deltas (nothing changed) are omitted so cross-process payloads stay
    small.
    """
    out: dict[str, Any] = {}
    for key, entry in after.items():
        prev = before.get(key)
        kind = entry["type"]
        if kind == "counter":
            dv = entry["value"] - (prev["value"] if prev else 0)
            if dv:
                out[key] = {**entry, "value": dv}
        elif kind == "gauge":
            if prev is None or prev["value"] != entry["value"]:
                out[key] = dict(entry)
        elif kind == "histogram":
            base_counts = prev["counts"] if prev else [0] * len(entry["counts"])
            d_counts = [a - b for a, b in zip(entry["counts"], base_counts)]
            if any(d_counts):
                out[key] = {
                    **entry,
                    "counts": d_counts,
                    "count": entry["count"] - (prev["count"] if prev else 0),
                    "sum": entry["sum"] - (prev["sum"] if prev else 0.0),
                }
        else:
            raise ValidationError(f"unknown metric type {kind!r} in dump")
    return out


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

