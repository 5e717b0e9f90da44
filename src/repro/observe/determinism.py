"""Determinism fingerprints for simulation runs.

The whole experimental methodology rests on "same seed, same run": the
engine breaks ties by insertion order, every random draw flows from one
seed, and EXPERIMENTS.md compares runs that differ *only* in placement.
This module turns that promise into something a test can assert
bit-exactly:

* :func:`stream_hash` — sha-256 over a canonical binary encoding of the
  event stream (floats packed as IEEE-754 doubles, so two hashes are
  equal iff every timestamp, duration, and byte count is bit-identical);
  :func:`rows_hash` is that encoding, over a tracer's rows;
* :func:`metrics_fingerprint` — the same for a
  :class:`~repro.simulate.metrics.MachineMetrics`;
* :func:`run_fingerprint` — both combined for a machine that ran with a
  tracer attached.
"""

from __future__ import annotations

import hashlib
import struct
from typing import TYPE_CHECKING, Iterable

from repro.observe.tracer import TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulate.machine import Machine
    from repro.simulate.metrics import MachineMetrics

_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")
_TIMES_TID = struct.Struct("<ddq")
_PU_NODE = struct.Struct("<qq")


def _feed_str(h, s: str) -> None:
    b = s.encode("utf-8")
    h.update(_INT64.pack(len(b)))
    h.update(b)


class _Encoded(dict):
    """``str`` → its length-prefixed UTF-8 bytes, encoded once per stream."""

    def __missing__(self, s: str) -> bytes:
        b = s.encode("utf-8")
        self[s] = out = _INT64.pack(len(b)) + b
        return out


def rows_hash(rows: Iterable[tuple[int, tuple]]) -> str:
    """Canonical sha-256 (hex digest) of ``(seq, row)`` pairs.

    A row is a :class:`~repro.observe.tracer.Tracer` row: the
    :class:`TraceEvent` fields in order, less ``seq``.  Integers are
    packed as little-endian int64, floats as IEEE-754 doubles, strings
    as their int64 byte length then UTF-8 bytes.
    """
    h = hashlib.sha256()
    enc = _Encoded()
    for seq, (kind, ts, dur, tid, thread, pu, node, level, nbytes, detail) in rows:
        h.update(b"".join((
            _INT64.pack(seq), enc[kind], _TIMES_TID.pack(ts, dur, tid),
            enc[thread], _PU_NODE.pack(pu, node), enc[level],
            _DOUBLE.pack(nbytes), enc[detail],
        )))
    return h.hexdigest()


def stream_hash(events: Iterable[TraceEvent]) -> str:
    """Canonical sha-256 of an event stream (hex digest)."""
    return rows_hash(
        (ev.seq, (ev.kind, ev.ts, ev.dur, ev.tid, ev.thread, ev.pu, ev.node,
                  ev.level, ev.nbytes, ev.detail))
        for ev in events
    )


def metrics_fingerprint(metrics: "MachineMetrics") -> str:
    """Canonical sha-256 of a run's aggregate counters (hex digest).

    Per-level dicts are folded in sorted level-name order so insertion
    order cannot leak into the fingerprint.
    """
    h = hashlib.sha256()
    for level in sorted(metrics.bytes_by_level, key=lambda lv: lv.name):
        _feed_str(h, level.name)
        h.update(_DOUBLE.pack(float(metrics.bytes_by_level[level])))
    for level in sorted(metrics.transfer_time_by_level, key=lambda lv: lv.name):
        _feed_str(h, level.name)
        h.update(_DOUBLE.pack(float(metrics.transfer_time_by_level[level])))
    for value in (
        metrics.compute_time,
        metrics.wait_time,
        metrics.runq_time,
        metrics.migration_penalty_time,
    ):
        h.update(_DOUBLE.pack(value))
    for count in (metrics.migrations, metrics.contended_transfers, metrics.transfers):
        h.update(_INT64.pack(count))
    return h.hexdigest()


def run_fingerprint(machine: "Machine") -> str:
    """Joint fingerprint of a traced machine run: final simulated time,
    event stream, and aggregate counters."""
    if machine.tracer is None:
        raise ValueError("run_fingerprint needs a traced run (tracer attached)")
    h = hashlib.sha256()
    h.update(_DOUBLE.pack(machine.engine.now))
    _feed_str(h, machine.tracer.stream_hash())
    _feed_str(h, metrics_fingerprint(machine.metrics))
    return h.hexdigest()
