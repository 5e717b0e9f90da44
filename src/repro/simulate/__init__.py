"""Discrete-event NUMA machine simulator.

The hardware substitute for the paper's 192-core SMP (see DESIGN.md §1):

* :mod:`~repro.simulate.engine` — event heap, simulated clock, events.
* :mod:`~repro.simulate.syscalls` — the requests thread bodies yield.
* :mod:`~repro.simulate.machine` — PUs, threads, transfer pricing.
* :mod:`~repro.simulate.scheduler` — OS placement/migration model for
  unbound (NoBind) threads.
* :mod:`~repro.simulate.contention` — memory-controller/interconnect
  bandwidth contention.
* :mod:`~repro.simulate.metrics` — per-run counters.
"""

from repro.simulate.engine import Engine, SimEvent, SimulationError
from repro.simulate.machine import Machine, SimThread, ThreadState
from repro.simulate.metrics import MachineMetrics
from repro.simulate.contention import ContentionConfig, ContentionModel
from repro.simulate.scheduler import OsScheduler, SchedulerConfig
from repro.simulate.syscalls import (
    Compute,
    ComputeFlops,
    Receive,
    ReceiveFromNode,
    Wait,
    Yield,
)
from repro.simulate.timeline import Segment, Timeline

__all__ = [
    "Engine",
    "SimEvent",
    "SimulationError",
    "Machine",
    "SimThread",
    "ThreadState",
    "MachineMetrics",
    "ContentionConfig",
    "ContentionModel",
    "OsScheduler",
    "SchedulerConfig",
    "Compute",
    "ComputeFlops",
    "Receive",
    "ReceiveFromNode",
    "Wait",
    "Yield",
    "Segment",
    "Timeline",
]
