"""Ordered read-write lock FIFOs (the heart of the ORWL model).

From the paper's background section: "Tasks executed by one or several
threads concurrently access a resource/location by using a FIFO that
holds requests (requested, allocated, released) issued by threads.  The
manager of the FIFO controls the access order and locks the resource for
some threads or allocates it to the appropriate threads."

Semantics (Clauss & Gustedt, JPDC 2010):

* requests join the queue strictly in insertion order;
* the head request is *granted* (allocated) when the resource frees up;
  consecutive **read** requests at the head are granted together
  (readers share), a **write** request is granted alone (exclusive);
* a granted request stays at the head region until *released*;
* iterative tasks re-enter their request at the tail when releasing
  (``orwl_next``), which yields the deterministic round-robin access
  order that makes ORWL programs livelock- and deadlock-free.  A held
  head whose grant has been delivered re-enters as the same
  :class:`Request` object, so an iterating handle keeps one request for
  a whole run.

The FIFO is a passive data structure: granting calls the ``on_grant``
callback the runtime supplied (which routes through a control thread or
delivers the grant directly).
"""

from __future__ import annotations

import enum
from collections import deque
from itertools import islice
from typing import Callable, Deque, Optional, Sequence

from repro.util.errors import ReproError


class AccessMode(enum.Enum):
    """Read (shared) or write (exclusive) access."""

    READ = "read"
    WRITE = "write"


class RequestState(enum.Enum):
    PENDING = "pending"  #: queued, not yet allocated
    GRANTED = "granted"  #: allocated; the holder may proceed
    RELEASED = "released"  #: done; no longer in the queue
    CANCELLED = "cancelled"  #: withdrawn before being granted


class Request:
    """One entry of a location FIFO."""

    __slots__ = ("mode", "state", "tag", "waiter", "payload")

    def __init__(self, mode: AccessMode, tag: str = "", waiter: int = -1) -> None:
        self.mode = mode
        self.state = RequestState.PENDING
        #: free-form identifier (op name) for diagnostics.
        self.tag = tag
        #: simulator thread id of the requesting operation (-1 = none),
        #: for diagnostics (the grant message is priced to the thread
        #: parked in ``payload``).
        self.waiter = waiter
        #: runtime-owned grant state: ``None`` until the runtime touches
        #: it, then the parked :class:`~repro.simulate.machine.SimThread`
        #: of an acquire waiting for the grant, or a delivered marker
        #: once the grant has arrived (an acquire that comes later does
        #: not park).
        self.payload: object = None

    def __repr__(self) -> str:
        return f"<Request {self.tag!r} {self.mode.value} {self.state.value}>"


#: ``Request.payload`` of a delivered grant (the runtime sets it): an
#: acquire that comes later proceeds without parking, a second delivery
#: is an error, and :meth:`OrwlFifo.release` may re-enter the request.
_DELIVERED = object()


def _ignore_grant(req: Request) -> None:
    """The grant callback of a FIFO no runtime has wired (or one whose
    run has finished): grants only change the requests' state."""


class FifoError(ReproError, RuntimeError):
    """Raised on protocol violations (double release, foreign request...)."""


class OrwlFifo:
    """The request FIFO of one location.

    Parameters
    ----------
    on_grant:
        Callback invoked exactly once per request when it becomes
        granted.  The runtime uses it to wake the owner (directly or via
        a control thread), and detaches it when its run ends.
    name:
        Diagnostic label (usually the location name).
    queue, n_granted:
        Requests the FIFO starts with, head first, of which the first
        *n_granted* are already granted (all reads, or one write): the
        state a run's init protocol leaves, which
        :meth:`repro.orwl.program.Program.freeze` computes once.  No
        grant callback runs for them here.
    """

    __slots__ = (
        "_queue", "on_grant", "name", "inserted", "_n_granted", "_n_granted_writes"
    )

    def __init__(
        self,
        on_grant: Optional[Callable[[Request], None]] = None,
        name: str = "",
        queue: Sequence[Request] = (),
        n_granted: int = 0,
    ) -> None:
        self._queue: Deque[Request] = deque(queue)
        self.on_grant = on_grant or _ignore_grant
        self.name = name
        #: total requests ever inserted (diagnostics).
        self.inserted = len(queue)
        # Granted requests always form a prefix of the queue; these two
        # counters describe it (its length, and how many of its entries
        # are writes — 0 or 1, a write being granted alone), so neither
        # granting nor releasing ever rescans the queue.
        self._n_granted = n_granted
        self._n_granted_writes = (
            1 if n_granted and queue[0].mode is AccessMode.WRITE else 0
        )

    # -- queue inspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queue(self) -> tuple[Request, ...]:
        """Snapshot of the queue, head first."""
        return tuple(self._queue)

    def granted_count(self) -> int:
        """Number of currently granted (allocated, unreleased) requests."""
        return self._n_granted

    def holder_modes(self) -> list[AccessMode]:
        return [r.mode for r in islice(self._queue, self._n_granted)]

    # -- operations ----------------------------------------------------------

    def insert(self, mode: AccessMode, tag: str = "", waiter: int = -1) -> Request:
        """Append a request at the tail; may grant immediately.

        Returns the request object the holder will release later.
        """
        req = Request(mode, tag, waiter)
        self._queue.append(req)
        self.inserted += 1
        self.release(None)
        return req

    def release(
        self,
        req: Optional[Request],
        again: bool = False,
        tag: str = "",
        waiter: int = -1,
    ) -> Optional[Request]:
        """The FIFO's one transition: granted *req* leaves, re-enters at
        the tail if *again* (stamped *tag* and *waiter*), and the grant
        pass runs.  Returns the re-entered request, else ``None``.

        Without *again* this is ``orwl_release``; with it, ``orwl_next``:
        a held head whose grant has been delivered (the common case)
        re-enters itself, moving to the tail, PENDING with no payload,
        so an iterating handle keeps one request for a whole run.  Any
        other *req* is released and a fresh request appended: a grant
        not yet delivered may still be on its way to *req* (a control
        queue holds it).  Either way the grants are those of
        :meth:`insert` followed by a plain release of *req*: while *req*
        is held, insert's pass can grant only the new tail request, and
        then nothing precedes it that the release's pass would grant
        before it.

        *req* ``None`` leaves nothing: the pass alone, which
        :meth:`insert` and :meth:`cancel` run after changing the queue.
        ``FifoError`` (and no change) if *req* is not granted in this
        FIFO.

        The pass: granted requests always form a prefix of the queue.  A
        WRITE is granted only when it is the head and nothing is
        granted; READs are granted while the granted prefix is all-READ.
        """
        queue = self._queue
        new = None
        if req is not None:
            if req.state is RequestState.GRANTED and queue and queue[0] is req:
                if again and req.payload is _DELIVERED:
                    queue.rotate(-1)
                    req.state = RequestState.PENDING
                    req.payload = None
                    req.tag = tag
                    req.waiter = waiter
                    new = req
                else:
                    queue.popleft()
                    req.state = RequestState.RELEASED
            elif req.state is not RequestState.GRANTED:
                raise FifoError(
                    f"cannot release request {req!r} in state {req.state.value}"
                )
            else:
                try:
                    queue.remove(req)
                except ValueError:
                    raise FifoError(
                        f"request {req!r} is not in FIFO {self.name!r}"
                    ) from None
                req.state = RequestState.RELEASED
            # A held write is held alone: none is held once *req* left.
            self._n_granted -= 1
            self._n_granted_writes = 0
            if again:
                if new is None:
                    new = Request(req.mode, tag, waiter)
                    queue.append(new)
                self.inserted += 1
        n = self._n_granted
        if n == len(queue) or self._n_granted_writes:
            return new
        nxt = queue[n]
        if nxt.mode is AccessMode.WRITE:
            if n == 0:
                nxt.state = RequestState.GRANTED
                self._n_granted = self._n_granted_writes = 1
                self.on_grant(nxt)
            return new
        granted = []
        for nxt in islice(queue, n, None):
            if nxt.mode is AccessMode.WRITE:
                break
            nxt.state = RequestState.GRANTED
            granted.append(nxt)
        self._n_granted = n + len(granted)
        on_grant = self.on_grant
        for nxt in granted:
            on_grant(nxt)
        return new

    def cancel(self, req: Request) -> None:
        """Withdraw a request.  Granted requests are released instead."""
        if req.state is RequestState.GRANTED:
            self.release(req)
        elif req.state is RequestState.PENDING:
            self._queue.remove(req)  # beyond the granted prefix: counters hold
            req.state = RequestState.CANCELLED
            self.release(None)

    def clear(self) -> None:
        """Drop every queued request, granted or not, without a grant
        pass (a failed run's leftovers; see ``Runtime.run``)."""
        self._queue.clear()
        self._n_granted = self._n_granted_writes = 0

    def __repr__(self) -> str:
        return f"<OrwlFifo {self.name!r} len={len(self._queue)} granted={self._n_granted}>"
