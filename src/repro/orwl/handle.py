"""ORWL handles: an operation's access path to a location.

"The read/write dependencies between operations of the matrix blocks are
defined using the ``orwl_handle`` primitive which allows to ensure the
computation coherency."

A handle binds one operation to one location with one access mode and
carries the currently pending/granted :class:`~repro.orwl.fifo.Request`.
The canonical iterative lifecycle is::

    request()   # insert into the FIFO (the ORWL init protocol: global
                # declaration order; each run starts from its outcome,
                # frozen with the program)
    acquire()   # block until granted        \
    ...use...                                 |  each iteration
    next_request() + release()               /   (orwl_next)
    release()   # final

The handle itself is runtime-agnostic bookkeeping; the blocking behaviour
lives in :class:`repro.orwl.runtime.OpContext`, which runs the
``next_request`` and ``release`` steps itself, one frame to the FIFO.
"""

from __future__ import annotations

from typing import Optional

from repro.orwl.fifo import AccessMode, FifoError, Request, RequestState
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

    __slots__ = ("location", "mode", "op_name", "init_phase", "waiter", "_request")

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
        self._request: Optional[Request] = None

    # -- protocol steps (called by the runtime/context) ---------------------

    @property
    def request(self) -> Optional[Request]:
        """The handle's live request, if any."""
        return self._request

    @property
    def is_granted(self) -> bool:
        return self._request is not None and self._request.state is RequestState.GRANTED

    @property
    def is_pending(self) -> bool:
        return self._request is not None and self._request.state is RequestState.PENDING

    def insert_request(self) -> Request:
        """Insert a fresh request into the location FIFO (``orwl_request``)."""
        if self._request is not None and self._request.state in (
            RequestState.PENDING,
            RequestState.GRANTED,
        ):
            raise FifoError(
                f"handle {self.op_name!r}->{self.location.name!r} already has a "
                f"live request ({self._request.state.value})"
            )
        self._request = self.location.fifo.insert(
            self.mode, tag=self.op_name, waiter=self.waiter
        )
        return self._request

    def release(self) -> None:
        """Release the granted request (``orwl_release``)."""
        if self._request is None:
            raise FifoError(f"handle {self.op_name!r} has no request to release")
        self.location.fifo.release(self._request)
        self._request = None

    def next_request(self) -> Request:
        """``orwl_next``: re-insert at the tail, then release the old grant.

        Inserting before releasing keeps the handle's position in the next
        round ahead of any competitor that might otherwise jump the queue
        — the ordering rule that makes iterative ORWL deterministic.  Both
        steps run as one FIFO grant pass (:meth:`OrwlFifo.requeue`).
        Returns the next round's request (pending, or already granted):
        the same object once its grant has been delivered, so an
        iterating handle keeps one request for a whole run.
        """
        old = self._request
        if old is None or old.state is not RequestState.GRANTED:
            raise FifoError(
                f"orwl_next on handle {self.op_name!r} without a granted request"
            )
        self._request = new = self.location.fifo.requeue(
            old, tag=self.op_name, waiter=self.waiter
        )
        return new

    def cancel(self) -> None:
        """Withdraw whatever request is live (used at op teardown)."""
        if self._request is not None:
            self.location.fifo.cancel(self._request)
            self._request = None

    def drop(self) -> None:
        """Forget the live request without touching the FIFO (which a
        failed run clears as a whole)."""
        self._request = None

    def __repr__(self) -> str:
        state = self._request.state.value if self._request else "idle"
        return f"<Handle {self.op_name!r} {self.mode.value} {self.location.name!r} {state}>"
