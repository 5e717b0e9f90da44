"""ORWL program declaration: tasks, operations, locations, dependencies.

"To implement [LK23] with the ORWL model ... for each block we define a
main operation that performs the computation and eight sub-operations
that are used to export the frontier data to the neighbouring.  Thus ...
several ``orwl_task`` primitives are each divided to 9 operations
(functions).  Each operation is executed by an independent thread and
has its own ``orwl_location``."

A :class:`Program` is the static composition: locations, tasks, each
task's operations, and each operation's handles.  It is what the
placement add-on inspects to extract affinity *before* execution, and
what the runtime instantiates into simulator threads.

Operation bodies are generator functions ``body(ctx)`` receiving an
:class:`repro.orwl.runtime.OpContext`; they yield simulator syscalls via
the context helpers (``ctx.compute``, ``ctx.acquire`` ...).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.orwl.fifo import AccessMode
from repro.orwl.handle import Handle
from repro.orwl.location import Location
from repro.simulate.syscalls import Park
from repro.util.validate import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.comm.matrix import CommMatrix
    from repro.orwl.runtime import Runtime

#: An operation body: called with the OpContext, returns a generator.
OpBody = Callable[["object"], Generator]


class Operation:
    """One operation of a task — executed by its own thread.

    It names its task (``task_name``) rather than holding it: a
    declaration holds no upward link, so a finished program is freed by
    reference counting alone.
    """

    def __init__(self, task_name: str, name: str, body: OpBody) -> None:
        self.task_name = task_name
        self.name = f"{task_name}/{name}"
        self.short_name = name
        self.body = body
        self.handles: list[Handle] = []
        #: True for the compute-heavy op of the task (used to pair
        #: control threads with their task's main op).
        self.is_main = name == "main"
        #: what the op's thread yields to wait for a grant (named
        #: ``grant:<op>``, the detail of its traced ``wait`` span); one
        #: serves every acquire of every run of the program.
        self.park = Park(f"grant:{self.name}")
        #: set by Program.freeze: no more handles.
        self._frozen = False

    def handle(self, location: Location, mode: AccessMode) -> Handle:
        """Declare an access of this operation to *location*."""
        if self._frozen:
            raise _frozen_error(f"handle of operation {self.name!r}")
        h = Handle(location, mode, op_name=self.name)
        self.handles.append(h)
        return h

    def read_handles(self) -> list[Handle]:
        return [h for h in self.handles if h.mode is AccessMode.READ]

    def write_handles(self) -> list[Handle]:
        return [h for h in self.handles if h.mode is AccessMode.WRITE]

    def __repr__(self) -> str:
        return f"<Operation {self.name!r} {len(self.handles)} handles>"


class TaskDecl:
    """An ``orwl_task``: a named group of operations.

    *op_order* is the program's declaration-order operation list, which
    :meth:`operation` appends to (the task does not hold the program).
    """

    def __init__(self, name: str, op_order: list[Operation]) -> None:
        self.name = name
        self.operations: dict[str, Operation] = {}
        self._op_order = op_order
        #: set by Program.freeze: no more operations.
        self._frozen = False

    def operation(self, name: str, body: OpBody) -> Operation:
        """Declare an operation; *name* must be unique within the task."""
        if self._frozen:
            raise _frozen_error(f"operation {name!r} of task {self.name!r}")
        if name in self.operations:
            raise ValidationError(f"task {self.name!r} already has operation {name!r}")
        op = Operation(self.name, name, body)
        self.operations[name] = op
        self._op_order.append(op)
        return op

    @property
    def main_operation(self) -> Optional[Operation]:
        return self.operations.get("main")

    def __repr__(self) -> str:
        return f"<TaskDecl {self.name!r} {len(self.operations)} ops>"


@dataclass(frozen=True)
class ThreadLayout:
    """The threads a program runs as: their labels and their pairing.

    Every operation runs on its own thread, in declaration order, and
    every task has one runtime control thread, in task order.  The
    binder pairs each communication thread (every non-main operation)
    and each control thread with its task's compute slot.
    """

    #: operation-thread labels (``"<task>/<op>"``), declaration order.
    op_labels: tuple[str, ...]
    #: task index of every operation, declaration order.
    op_tasks: tuple[int, ...]
    #: task names, declaration order.
    task_names: tuple[str, ...]
    #: control-thread labels (``"<task>/ctl"``), task order.
    control_labels: tuple[str, ...]
    #: operation indices of the communication threads.
    comm_ops: tuple[int, ...]
    #: task index of each communication thread.
    comm_tasks: tuple[int, ...]
    #: task index of every communication thread, then of every control
    #: thread: TreeMatch's ``control_pairing``.
    control_pairing: tuple[int, ...]


def _frozen_error(what: str) -> ValidationError:
    return ValidationError(
        f"cannot declare {what}: its program is frozen; build a new Program "
        "to change it"
    )


class Program:
    """The static composition of an ORWL application.

    A program can run any number of times: every
    :class:`~repro.orwl.runtime.Runtime` built on it re-arms the run
    state its locations and handles carry (FIFOs, provenance, pending
    requests), so one compiled program per input serves a whole sweep.
    :meth:`freeze` ends its construction, so that the static work of a
    run is done once.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.locations: dict[str, Location] = {}
        self.tasks: dict[str, TaskDecl] = {}
        self._op_order: list[Operation] = []
        self._frozen = False
        #: frozen programs only: the operations in declaration order,
        #: every handle in the init protocol's insertion order, and
        #: that protocol's outcome (see :meth:`freeze`).
        self._ops: tuple[Operation, ...] = ()
        self._init_order: tuple[Handle, ...] = ()
        self._init_queues: tuple[tuple[Location, tuple[Handle, ...], int], ...] = ()
        self._init_grants: tuple[Handle, ...] = ()
        self._layout: Optional[ThreadLayout] = None
        #: memoised :func:`repro.placement.affinity.task_matrix` (frozen
        #: only).
        self._task_matrix: Optional["CommMatrix"] = None
        #: the runtime that armed the program last.  Weak, so a kept
        #: program does not keep a finished run (and its machine) alive.
        self._armed_by: Optional[weakref.ReferenceType["Runtime"]] = None

    # -- declaration --------------------------------------------------------

    def freeze(self) -> "Program":
        """End construction, validating once; returns the program itself.

        A frozen program keeps its operations and the ORWL init
        protocol's order: all handles sorted by ``init_phase``, ties in
        declaration order (operation, then handle), as they stand at
        freeze.  It also keeps that protocol's outcome, which depends
        on nothing else, so every runtime copies it instead of
        replaying the protocol handle by handle: per location, its
        handles in queue order and the length of the granted prefix
        (a leading write alone, else the leading reads); and the
        granted handles in init order, the order their grant
        callbacks run in.  Declaring a location, task, operation or
        handle then raises :class:`ValidationError`; an operation's
        ``body`` may still be swapped.  A program that fails
        :meth:`validate` stays unfrozen.  Freezing is one-way and
        idempotent; a :class:`~repro.orwl.runtime.Runtime` freezes the
        program it runs.
        """
        if self._frozen:
            return self
        self.validate()
        ops = tuple(self._op_order)
        handles = [h for op in ops for h in op.handles]
        handles.sort(key=lambda h: h.init_phase)  # stable: ties keep order
        queue_of: dict[Location, list[Handle]] = {
            loc: [] for loc in self.locations.values()
        }
        for h in handles:
            queue_of.setdefault(h.location, []).append(h)
        granted: set[Handle] = set()
        queues = []
        for loc, queue in queue_of.items():
            if queue and queue[0].mode is AccessMode.WRITE:
                n_granted = 1
            else:
                n_granted = next(
                    (k for k, h in enumerate(queue) if h.mode is AccessMode.WRITE),
                    len(queue),
                )
            granted.update(queue[:n_granted])
            queues.append((loc, tuple(queue), n_granted))
        self._ops = ops
        self._init_order = tuple(handles)
        self._init_queues = tuple(queues)
        self._init_grants = tuple(h for h in handles if h in granted)
        for task in self.tasks.values():
            task._frozen = True
        for op in ops:
            op._frozen = True
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def location(
        self,
        name: str,
        nbytes: float,
        owner_task: str = "",
        affinity_bytes: float | None = None,
    ) -> Location:
        """Declare a location; names are unique program-wide.

        *affinity_bytes* optionally overrides the weight the static
        affinity extraction assigns to writer/reader pairs of this
        location (see :class:`~repro.orwl.location.Location`).
        """
        if self._frozen:
            raise _frozen_error(f"location {name!r}")
        if name in self.locations:
            raise ValidationError(f"duplicate location {name!r}")
        loc = Location(name, nbytes, owner_task=owner_task, affinity_bytes=affinity_bytes)
        self.locations[name] = loc
        return loc

    def task(self, name: str) -> TaskDecl:
        """Declare (or fetch) a task."""
        if name in self.tasks:
            return self.tasks[name]
        if self._frozen:
            raise _frozen_error(f"task {name!r}")
        t = TaskDecl(name, self._op_order)
        self.tasks[name] = t
        return t

    # -- introspection --------------------------------------------------------

    def operations(self) -> list[Operation]:
        """All operations in declaration order — this order defines both
        thread ids and the ORWL init protocol's request-insertion order."""
        return list(self._op_order)

    def layout(self) -> ThreadLayout:
        """The program's :class:`ThreadLayout`, kept once it is frozen."""
        if self._layout is not None:
            return self._layout
        task_names = tuple(self.tasks)
        task_index = {name: k for k, name in enumerate(task_names)}
        ops = self._op_order
        op_tasks = tuple(task_index[op.task_name] for op in ops)
        comm_ops = tuple(k for k, op in enumerate(ops) if not op.is_main)
        comm_tasks = tuple(op_tasks[k] for k in comm_ops)
        layout = ThreadLayout(
            op_labels=tuple(op.name for op in ops),
            op_tasks=op_tasks,
            task_names=task_names,
            control_labels=tuple(f"{t}/ctl" for t in task_names),
            comm_ops=comm_ops,
            comm_tasks=comm_tasks,
            control_pairing=comm_tasks + tuple(range(len(task_names))),
        )
        if self._frozen:
            self._layout = layout
        return layout

    @property
    def n_operations(self) -> int:
        return len(self._op_order)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def operation_index(self, op: Operation) -> int:
        """Stable thread index of an operation (declaration order)."""
        return self._op_order.index(op)

    def readers_of(self, location: Location) -> list[Operation]:
        """Operations holding a READ handle on *location*."""
        return [
            op
            for op in self._op_order
            if any(h.location is location and h.mode is AccessMode.READ for h in op.handles)
        ]

    def writers_of(self, location: Location) -> list[Operation]:
        """Operations holding a WRITE handle on *location*."""
        return [
            op
            for op in self._op_order
            if any(h.location is location and h.mode is AccessMode.WRITE for h in op.handles)
        ]

    def validate(self) -> None:
        """Static sanity checks before running.

        Every operation must have a body; every location that is read
        must also be written by someone (otherwise readers transfer
        undefined data — almost always a composition bug).
        """
        for op in self._op_order:
            if op.body is None:
                raise ValidationError(f"operation {op.name!r} has no body")
        # One pass over all handles (readers_of/writers_of per location
        # would be quadratic on large programs).
        read_locs: set[str] = set()
        written_locs: set[str] = set()
        for op in self._op_order:
            for h in op.handles:
                if h.mode is AccessMode.READ:
                    read_locs.add(h.location.name)
                else:
                    written_locs.add(h.location.name)
        unwritten = read_locs - written_locs
        if unwritten:
            raise ValidationError(
                f"location(s) read but never written: {sorted(unwritten)[:5]}"
            )

    def __repr__(self) -> str:
        return (
            f"<Program {self.name!r}: {self.n_tasks} tasks, "
            f"{self.n_operations} ops, {len(self.locations)} locations>"
        )
