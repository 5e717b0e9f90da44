"""Prometheus text exposition (format 0.0.4) + a strict parser.

The renderer emits one ``# HELP`` / ``# TYPE`` pair per metric (names
sorted), histogram ``_bucket`` lines with cumulative counts, an ``le``
label and an explicit ``+Inf`` bucket, and ``_sum`` / ``_count``
series.  :func:`parse_exposition` is the strict
round-tripping validator the test suite uses: it rejects malformed
names, unescaped label values, samples preceding their ``TYPE`` line,
and non-monotonic histogram buckets.
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.metrics.core import (
    _NAME_RE, Counter, Gauge, Histogram, MetricRegistry,
)
from repro.util.validate import ValidationError

__all__ = ["ExpositionError", "parse_exposition", "render_text"]

_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class ExpositionError(ValidationError):
    """Raised by :func:`parse_exposition` on any format violation."""


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_text(registry: MetricRegistry) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry:
        name = metric.name
        if metric.help:
            lines.append(f"# HELP {name} {_escape_help(metric.help)}")
        else:
            lines.append(f"# HELP {name}")
        lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{name} {_fmt_value(metric.value)}")
        elif isinstance(metric, Histogram):
            cum = 0
            for bound, n in zip(metric.bounds, metric.counts):
                cum += n
                lines.append(f'{name}_bucket{{le="{_fmt_value(bound)}"}} {cum}')
            lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{name}_sum {_fmt_value(metric.sum)}")
            lines.append(f"{name}_count {metric.count}")
    return "\n".join(lines) + "\n" if lines else ""


def _parse_labels(raw: str, line_no: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(raw):
        j = raw.find("=", i)
        if j < 0:
            raise ExpositionError(f"line {line_no}: malformed label pair")
        key = raw[i:j]
        if not _LABEL_RE.match(key) and key != "le":
            raise ExpositionError(f"line {line_no}: bad label name {key!r}")
        if j + 1 >= len(raw) or raw[j + 1] != '"':
            raise ExpositionError(f"line {line_no}: label value not quoted")
        i = j + 2
        value = []
        while i < len(raw):
            ch = raw[i]
            if ch == "\\":
                if i + 1 >= len(raw):
                    raise ExpositionError(
                        f"line {line_no}: dangling escape in label value"
                    )
                nxt = raw[i + 1]
                value.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                )
                i += 2
            elif ch == '"':
                break
            else:
                value.append(ch)
                i += 1
        else:
            raise ExpositionError(f"line {line_no}: unterminated label value")
        labels[key] = "".join(value)
        i += 1  # closing quote
        if i < len(raw):
            if raw[i] != ",":
                raise ExpositionError(
                    f"line {line_no}: expected ',' between labels"
                )
            i += 1
    return labels


def _parse_value(raw: str, line_no: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ExpositionError(
            f"line {line_no}: bad sample value {raw!r}"
        ) from None


def parse_exposition(text: str) -> dict[str, dict[str, Any]]:
    """Strictly parse Prometheus exposition text.

    Returns ``{name: {"type": ..., "help": ..., "samples": [(suffix,
    labels, value), ...]}}`` where ``suffix`` is ``""``, ``"_bucket"``,
    ``"_sum"`` or ``"_count"``.  Raises :class:`ExpositionError` on any
    violation of the text format.
    """
    families: dict[str, dict[str, Any]] = {}
    # Cumulative-bucket monotonicity check state per (name, labelset).
    last_bucket: dict[tuple[str, str], float] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line != line.strip() or "\t" in line.split(" ", 1)[0]:
            raise ExpositionError(f"line {line_no}: stray whitespace")
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ExpositionError(f"line {line_no}: malformed HELP")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: bad metric name {name!r}"
                )
            fam = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ExpositionError(f"line {line_no}: malformed TYPE")
            name, kind = parts[2], parts[3]
            if not _NAME_RE.match(name):
                raise ExpositionError(
                    f"line {line_no}: bad metric name {name!r}"
                )
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ExpositionError(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
            fam = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            if fam["samples"]:
                raise ExpositionError(
                    f"line {line_no}: TYPE after samples for {name!r}"
                )
            fam["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        # Sample line: name[{labels}] value
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ExpositionError(f"line {line_no}: unbalanced braces")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close], line_no)
            rest = line[close + 1 :].strip()
        else:
            sample_name, _, rest = line.partition(" ")
            labels = {}
            rest = rest.strip()
        if not _NAME_RE.match(sample_name):
            raise ExpositionError(
                f"line {line_no}: bad sample name {sample_name!r}"
            )
        if not rest or " " in rest:
            # Timestamps are legal Prometheus but we never emit them;
            # strict mode rejects anything but a single value token.
            raise ExpositionError(
                f"line {line_no}: expected exactly one value"
            )
        value = _parse_value(rest, line_no)
        base, suffix = sample_name, ""
        for cand in ("_bucket", "_sum", "_count"):
            trimmed = sample_name[: -len(cand)]
            if (
                sample_name.endswith(cand)
                and trimmed in families
                and families[trimmed]["type"] == "histogram"
            ):
                base, suffix = trimmed, cand
                break
        fam = families.get(base)
        if fam is None or fam["type"] is None:
            raise ExpositionError(
                f"line {line_no}: sample {sample_name!r} before its TYPE"
            )
        if suffix == "_bucket":
            if "le" not in labels:
                raise ExpositionError(
                    f"line {line_no}: histogram bucket missing 'le'"
                )
            key = (
                base,
                ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items()) if k != "le"
                ),
            )
            prev = last_bucket.get(key, -math.inf)
            if value < prev:
                raise ExpositionError(
                    f"line {line_no}: non-monotonic histogram buckets for "
                    f"{base!r}"
                )
            last_bucket[key] = value
        fam["samples"].append((suffix, labels, value))
    for name, fam in families.items():
        if fam["type"] is None:
            raise ExpositionError(f"metric {name!r} has samples but no TYPE")
    return families
