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

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ["Engine", "SimEvent", "SimulationError"],
    "machine": ["Machine", "SimThread", "ThreadState"],
    "metrics": ["MachineMetrics"],
    "contention": ["ContentionConfig", "ContentionModel"],
    "scheduler": ["OsScheduler", "SchedulerConfig"],
    "syscalls": [
        "Compute", "ComputeFlops", "Park", "Receive", "ReceiveFromNode", "Wait", "Yield",
    ],
    "timeline": ["Segment", "Timeline"],
})
