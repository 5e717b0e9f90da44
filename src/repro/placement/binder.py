"""The binder: the paper's placement add-on, end to end.

:func:`bind_program` is the single entry point gluing everything
together, mirroring the paper's module boundary:

1. extract the thread affinity matrix from the ORWL program composition
   (:mod:`repro.placement.affinity`);
2. obtain the machine topology (a :class:`~repro.topology.tree.Topology`
   — in the paper, from HWLOC);
3. run the chosen placement policy (TreeMatch or a baseline);
4. derive control/communication-thread placement per the paper's
   strategy rules;
5. return a :class:`BindPlan` the runtime consumes directly.

Granularity
-----------
The paper maps the *computation* threads — one main operation per task —
and treats the frontier sub-operations together with the runtime's
control threads as "control and communication threads" covered by the
Algorithm-1 extension (hyperthread reservation / spare cores /
unmapped).  That is ``granularity="task"``, the default: the matrix
TreeMatch sees has one row per task (extracted straight from the handle
declarations, intra-task traffic dropped), and on the paper's 192-core
machine with 192 tasks the mapping is a clean one-main-per-core
assignment.

``granularity="op"`` instead maps every operation thread individually
(matrix order = number of operations, oversubscription extension
engaged); kept for ablations.

The plan also exposes the binding in OS terms (PU os-index per thread) —
what a real implementation would feed to ``pthread_setaffinity_np`` —
so the add-on's output is inspectable even though execution happens on
the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.comm.matrix import CommMatrix
from repro.orwl.program import Program
from repro.placement.affinity import static_matrix, task_matrix
from repro.placement.policies import (
    NoBindPolicy,
    PlacementPolicy,
    TreeMatchPolicy,
    make_policy,
)
from repro.topology.cpuset import CpuSet
from repro.topology.objects import ObjType
from repro.topology.tree import Topology
from repro.treematch.control import ControlStrategy, sibling_pu_of
from repro.treematch.mapping import Mapping
from repro.util.validate import ValidationError


@dataclass
class BindPlan:
    """A complete placement decision for an ORWL program."""

    #: PU assignment of compute operations (program declaration order,
    #: one entry per operation — sub-operations included).
    mapping: Mapping
    #: PU assignment of per-task runtime control threads (task order).
    control_mapping: Optional[Mapping]
    #: the affinity matrix the decision was based on.
    matrix: Optional[CommMatrix]
    #: control strategy actually applied (None when control unplaced).
    control_strategy: Optional[ControlStrategy]
    #: policy name, for reports.
    policy: str
    #: mapping at the granularity the policy ran at (tasks or ops).
    placed_mapping: Optional[Mapping] = None

    def cpuset_of_thread(self, index: int) -> CpuSet:
        """The binding cpuset of compute thread *index* (empty = unbound)."""
        pu = self.mapping.pu(index)
        return CpuSet.singleton(pu) if pu >= 0 else CpuSet()

    def os_binding_script(self) -> str:
        """Render the plan as ``taskset``-style lines (documentation aid)."""
        lines = []
        for k, label in enumerate(self.mapping.labels):
            pu = self.mapping.pu(k)
            target = str(pu) if pu >= 0 else "unbound"
            lines.append(f"{label}\t-> PU {target}")
        if self.control_mapping is not None:
            for k, label in enumerate(self.control_mapping.labels):
                pu = self.control_mapping.pu(k)
                target = str(pu) if pu >= 0 else "unbound"
                lines.append(f"{label}\t-> PU {target}")
        return "\n".join(lines)


def bind_program(
    program: Program,
    topo: Topology,
    policy: PlacementPolicy | str = "treematch",
    matrix: Optional[CommMatrix] = None,
    place_control: bool = True,
    granularity: str = "task",
    control_fallback: str = "unmapped",
    **policy_kwargs,
) -> BindPlan:
    """Compute a :class:`BindPlan` for *program* on *topo*.

    Parameters
    ----------
    policy:
        A policy instance or registry name (``"treematch"``,
        ``"compact"``, ``"scatter"``, ``"round-robin"``, ``"random"``,
        ``"nobind"``).
    matrix:
        Affinity-matrix override at the granularity the policy runs at:
        task×task (rows in task declaration order) by default, op×op
        with ``granularity="op"``.  Defaults to the static extraction
        from the program composition.  A matrix of the wrong order
        raises :class:`ValidationError`.
    place_control:
        Apply the paper's control/communication-thread strategies.  If
        false they stay unbound regardless of policy.
    granularity:
        ``"task"`` (paper mode, default) or ``"op"`` (map every thread).
    control_fallback:
        What to do when no control branch fits (the paper's third case):
        ``"unmapped"`` (paper behaviour — OS-scheduled) or
        ``"colocate"`` (pin each communication/control thread to its
        task's PU; required for distributed/cluster topologies where
        threads cannot leave their node).
    policy_kwargs:
        Forwarded to the policy constructor when *policy* is a name.
    """
    layout = program.layout()
    n_ops = len(layout.op_labels)
    if n_ops == 0:
        raise ValidationError("program has no operations to place")
    if granularity not in ("task", "op"):
        raise ValidationError(f"granularity must be 'task' or 'op', got {granularity!r}")
    if control_fallback not in ("unmapped", "colocate"):
        raise ValidationError(
            f"control_fallback must be 'unmapped' or 'colocate', got {control_fallback!r}"
        )

    task_names = layout.task_names
    n_tasks = len(task_names)
    n_rows = n_ops if granularity == "op" else n_tasks
    if matrix is not None and matrix.order != n_rows:
        raise ValidationError(
            f"{granularity}-granularity matrix order {matrix.order} != "
            f"{n_rows} {granularity}s (aggregate an op-level matrix with "
            "task_matrix for task granularity)"
        )

    if granularity == "op":
        op_mat = matrix if matrix is not None else static_matrix(program)
        return _bind_at_op_granularity(
            program, topo, policy, op_mat, place_control, **policy_kwargs
        )

    # ---- task granularity (paper mode) --------------------------------
    tmat = matrix if matrix is not None else task_matrix(program)
    comm_ops, comm_pairing = layout.comm_ops, layout.comm_tasks
    # Control entities = communication threads + one runtime control
    # thread per task, all paired with their task's compute slot.
    n_control = (len(comm_ops) + n_tasks) if place_control else 0

    if isinstance(policy, str):
        if policy == "treematch" and n_control > 0:
            policy_kwargs = dict(policy_kwargs)
            policy_kwargs.setdefault("n_control", n_control)
            policy_kwargs.setdefault("control_pairing", layout.control_pairing)
        policy = make_policy(policy, **policy_kwargs)

    placed = policy.place(topo, n_tasks, matrix=tmat, labels=task_names)

    # Expand the task mapping to per-operation and control assignments.
    main_pu = placed.pu_of
    strategy: Optional[ControlStrategy] = None
    comm_pu: dict[int, int] = {}  # op index -> PU
    ctl_pus: list[int] = [-1] * n_tasks

    if isinstance(policy, NoBindPolicy):
        strategy = None
    elif isinstance(policy, TreeMatchPolicy) and policy.last_result is not None:
        result = policy.last_result
        plan = result.control_plan
        strategy = plan.strategy if plan is not None else None
        if plan is not None and plan.strategy is ControlStrategy.HYPERTHREAD_RESERVED:
            cm = result.control_mapping
            assert cm is not None
            for slot, op_k in enumerate(comm_ops):
                comm_pu[op_k] = cm.pu(slot)
            for t in range(n_tasks):
                ctl_pus[t] = cm.pu(len(comm_ops) + t)
        elif plan is not None and plan.strategy is ControlStrategy.SPARE_CORES:
            full = result.mapping
            for slot, op_k in enumerate(comm_ops):
                comm_pu[op_k] = full.pu(n_tasks + slot)
            for t in range(n_tasks):
                ctl_pus[t] = full.pu(n_tasks + len(comm_ops) + t)
        # UNMAPPED: leave at -1 (OS scheduler), per the paper.
    elif place_control:
        # Baselines: apply the same three-branch rule around the base
        # mapping — sibling hyperthread, else co-locate with the main
        # when PUs are plentiful, else unmapped.
        if topo.has_hyperthreading() and n_tasks <= topo.nbobjs_by_type(ObjType.CORE):
            strategy = ControlStrategy.HYPERTHREAD_RESERVED
            for op_k, t in zip(comm_ops, comm_pairing):
                sib = sibling_pu_of(topo, main_pu[t])
                comm_pu[op_k] = sib if sib is not None else -1
            for t in range(n_tasks):
                sib = sibling_pu_of(topo, main_pu[t])
                ctl_pus[t] = sib if sib is not None else -1
        elif n_tasks + n_control <= topo.nb_pus:
            strategy = ControlStrategy.SPARE_CORES
            for op_k, t in zip(comm_ops, comm_pairing):
                comm_pu[op_k] = main_pu[t]
            for t in range(n_tasks):
                ctl_pus[t] = main_pu[t]
        else:
            strategy = ControlStrategy.UNMAPPED

    # Extension: when nothing fit (the paper's unmapped case) but the
    # environment requires thread-task co-residency (clusters), pin
    # every communication/control thread to its task's PU.
    if (
        place_control
        and control_fallback == "colocate"
        and strategy in (None, ControlStrategy.UNMAPPED)
        and not isinstance(policy, NoBindPolicy)
    ):
        for op_k, t in zip(comm_ops, comm_pairing):
            comm_pu.setdefault(op_k, main_pu[t])
        for t in range(n_tasks):
            if ctl_pus[t] < 0:
                ctl_pus[t] = main_pu[t]
        strategy = ControlStrategy.COLOCATED

    op_pus = [main_pu[t] for t in layout.op_tasks]
    for k in comm_ops:
        op_pus[k] = comm_pu.get(k, -1)
    # Every entry comes from the placed mapping or is -1: nothing to check.
    mapping = Mapping.prechecked(tuple(op_pus), layout.op_labels, placed.policy)
    control_mapping = Mapping.prechecked(
        tuple(ctl_pus), layout.control_labels, f"{placed.policy}-control"
    )
    return BindPlan(
        mapping=mapping,
        control_mapping=control_mapping,
        matrix=tmat,
        control_strategy=strategy,
        policy=getattr(policy, "name", str(policy)),
        placed_mapping=placed,
    )


def _bind_at_op_granularity(
    program: Program,
    topo: Topology,
    policy: PlacementPolicy | str,
    op_mat: CommMatrix,
    place_control: bool,
    **policy_kwargs,
) -> BindPlan:
    """Map every operation thread individually (ablation mode)."""
    ops = program.operations()
    n_ops = len(ops)
    layout = program.layout()
    labels = layout.op_labels
    n_tasks = len(layout.task_names)

    if isinstance(policy, str):
        if policy == "treematch" and place_control:
            policy_kwargs = dict(policy_kwargs)
            op_index = {op.name: k for k, op in enumerate(ops)}
            pairing = []
            for task in program.tasks.values():
                main = task.main_operation or next(iter(task.operations.values()))
                pairing.append(op_index[main.name])
            policy_kwargs.setdefault("n_control", n_tasks)
            policy_kwargs.setdefault("control_pairing", tuple(pairing))
        policy = make_policy(policy, **policy_kwargs)

    mapping = policy.place(topo, n_ops, matrix=op_mat, labels=labels)

    control_mapping: Optional[Mapping] = None
    strategy: Optional[ControlStrategy] = None
    task_labels = layout.control_labels
    if place_control and not isinstance(policy, NoBindPolicy):
        if isinstance(policy, TreeMatchPolicy) and policy.last_result is not None:
            result = policy.last_result
            plan = result.control_plan
            strategy = plan.strategy if plan is not None else None
            if plan is not None and plan.strategy is ControlStrategy.HYPERTHREAD_RESERVED:
                assert result.control_mapping is not None
                control_mapping = Mapping(
                    result.control_mapping.pu_of, task_labels, policy="treematch-control"
                )
            elif plan is not None and plan.strategy is ControlStrategy.SPARE_CORES:
                ctl = tuple(result.mapping.pu(n_ops + k) for k in range(plan.n_control))
                control_mapping = Mapping(ctl, task_labels, policy="treematch-control")
        else:
            # Baselines: co-locate each control thread with its task's main.
            op_index = {op.name: k for k, op in enumerate(ops)}
            ctl = []
            for task in program.tasks.values():
                main = task.main_operation or next(iter(task.operations.values()))
                ctl.append(mapping.pu(op_index[main.name]))
            control_mapping = Mapping(
                tuple(ctl), task_labels, policy=f"{policy.name}-control"
            )
            strategy = ControlStrategy.SPARE_CORES
    return BindPlan(
        mapping=mapping,
        control_mapping=control_mapping,
        matrix=op_mat,
        control_strategy=strategy,
        policy=getattr(policy, "name", str(policy)),
        placed_mapping=mapping,
    )
