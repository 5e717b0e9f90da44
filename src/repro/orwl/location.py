"""ORWL locations: the model's abstraction of a shared resource.

"These resources are abstracted in the ORWL model by the notion of
*location*."  A location owns:

* an :class:`~repro.orwl.fifo.OrwlFifo` ordering all accesses,
* a payload size in bytes (what a reader physically pulls),
* provenance: which operation/thread last wrote it (so the simulator can
  price the read transfer by producer→consumer distance, and the tracer
  can accumulate the communication matrix).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.orwl.fifo import OrwlFifo, Request, RequestState
from repro.util.validate import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orwl.handle import Handle


class Location:
    """A named shared resource with FIFO-ordered read/write access.

    Parameters
    ----------
    name:
        Unique name within the program (e.g. ``"block3.4/north"``).
    nbytes:
        Payload size: how many bytes a reader transfers from the last
        writer.  May be 0 for pure-synchronization locations.
    owner_task:
        Name of the task whose control thread manages this location's
        FIFO (ORWL locations are hosted by the task that declares them).
    """

    def __init__(
        self,
        name: str,
        nbytes: float,
        owner_task: str = "",
        affinity_bytes: float | None = None,
    ) -> None:
        if not name:
            raise ValidationError("location needs a non-empty name")
        if nbytes < 0:
            raise ValidationError(f"nbytes must be >= 0, got {nbytes}")
        if affinity_bytes is not None and affinity_bytes < 0:
            raise ValidationError(f"affinity_bytes must be >= 0, got {affinity_bytes}")
        self.name = name
        self.nbytes = float(nbytes)
        #: weight used by the *static* affinity extraction (defaults to
        #: nbytes).  Lets a program express that the threads around a
        #: location share more memory than the exported payload itself —
        #: e.g. a frontier-export sub-operation reads its slice out of
        #: the task's full block buffer, so its affinity to the writer is
        #: the block footprint, not the few-KB frontier.
        self.affinity_bytes = float(affinity_bytes) if affinity_bytes is not None else None
        self.owner_task = owner_task
        self.rearm(None)

    def rearm(
        self,
        on_grant: Optional[Callable[[Request], None]],
        queue: Sequence["Handle"] = (),
        n_granted: int = 0,
    ) -> None:
        """Start a run: a fresh FIFO whose grants go to *on_grant*, and
        no provenance.  Every :class:`~repro.orwl.runtime.Runtime`
        re-arms the locations of the program it runs, so a program can
        run any number of times.

        The FIFO starts as the ORWL init protocol leaves it (see
        :meth:`~repro.orwl.program.Program.freeze`): one request per
        handle of *queue*, in order, stamped with the handle's waiter
        and made its live request, the first *n_granted* granted.  No
        grant callback runs here; the runtime calls them.
        """
        requests = []
        for h in queue:
            h.request = req = Request(h.mode, h.op_name, h.waiter)
            requests.append(req)
        for req in requests[:n_granted]:
            req.state = RequestState.GRANTED
        self.fifo = OrwlFifo(on_grant, self.name, requests, n_granted)
        # Provenance, stamped by every write's release or ``orwl_next``
        # (see :class:`~repro.orwl.runtime.OpContext`).
        #: thread id (simulator tid) of the last writer, -1 if never written.
        self.last_writer_tid: int = -1
        #: op name of the last writer ("" if never written).
        self.last_writer_op: str = ""
        #: number of completed writes (payload version).
        self.version: int = 0

    def __repr__(self) -> str:
        return (
            f"<Location {self.name!r} {self.nbytes:g}B v{self.version} "
            f"fifo={len(self.fifo)}>"
        )
