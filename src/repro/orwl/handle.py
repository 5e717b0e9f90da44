"""ORWL handles: an operation's access path to a location.

"The read/write dependencies between operations of the matrix blocks are
defined using the ``orwl_handle`` primitive which allows to ensure the
computation coherency."

A handle binds one operation to one location with one access mode and
carries the currently pending/granted :class:`~repro.orwl.fifo.Request`.
The canonical iterative lifecycle is::

    request   # one per handle, inserted by the ORWL init protocol in
              # global declaration order (each run starts from its
              # outcome, frozen with the program)
    acquire   # block until granted        \
    ...use...                               |  each iteration
    next      # re-enter at the tail, then  |  (orwl_next)
              # release the old grant      /
    release   # final

A handle is state only: the protocol steps live in
:class:`repro.orwl.runtime.OpContext`, each one frame to the location's
:class:`~repro.orwl.fifo.OrwlFifo`.
"""

from __future__ import annotations

from typing import Optional

from repro.orwl.fifo import AccessMode, Request
from repro.orwl.location import Location


class Handle:
    """Access path of one operation to one location.

    Attributes
    ----------
    location, mode:
        What is accessed and how.
    op_name:
        Owning operation (set when the operation declares the handle).
    """

    __slots__ = ("location", "mode", "op_name", "init_phase", "waiter", "request")

    def __init__(self, location: Location, mode: AccessMode, op_name: str = "") -> None:
        self.location = location
        self.mode = mode
        self.op_name = op_name
        #: ordering key of the ORWL init protocol: the runtime inserts
        #: initial requests sorted by (init_phase, declaration order), so
        #: e.g. producers' first writes can be queued ahead of consumers'
        #: first reads regardless of task declaration order.
        self.init_phase = 0
        #: simulator thread id of the owning operation, stamped on every
        #: request this handle inserts (set by the runtime; -1 = none).
        self.waiter = -1
        #: the handle's live request (pending or granted), if any.
        self.request: Optional[Request] = None

    def __repr__(self) -> str:
        state = self.request.state.value if self.request else "idle"
        return f"<Handle {self.op_name!r} {self.mode.value} {self.location.name!r} {state}>"
