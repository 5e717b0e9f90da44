"""The ORWL (Ordered Read-Write Locks) task-based programming model.

Full Python implementation of the model the paper enriches:

* :mod:`~repro.orwl.fifo` — per-location request FIFOs with ordered
  read-write-lock semantics (readers share, writers exclusive, strict
  insertion order).
* :mod:`~repro.orwl.location` — shared resources (``orwl_location``).
* :mod:`~repro.orwl.handle` — access paths (``orwl_handle``) with the
  iterative ``orwl_next`` re-insertion protocol.
* :mod:`~repro.orwl.program` — static composition: tasks, operations,
  handle declarations (``orwl_task``).
* :mod:`~repro.orwl.runtime` — the decentralized event-based runtime,
  executing programs on the simulated machine with per-task control
  threads.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fifo": ["AccessMode", "FifoError", "OrwlFifo", "Request", "RequestState"],
    "handle": ["Handle"],
    "location": ["Location"],
    "program": ["Operation", "Program", "TaskDecl", "ThreadLayout"],
    "runtime": ["OpContext", "RunResult", "Runtime", "RuntimeConfig"],
}, submodules=["idioms"])
