"""Profile-guided binding: map from a measured trace instead of statics.

The paper maps at launch time from the program's composition.  A natural
extension — and the ablation A5 counterpart — is to *profile* first:
run the application once unbound, recording its communication, build
the communication matrix from what actually moved, and bind the
production run with it.  Useful when the composition under-specifies traffic
(data-dependent communication) at the cost of one profiling run.

A program can run any number of times (every runtime re-arms its FIFO
state), so one instance could serve both runs.  The entry point still
takes a zero-argument *program factory* and instantiates it twice, once
for the profiling run and once for the bound production plan, and the
two must declare the same operations: that checks the factory is
deterministic, as a production build from the same recipe must be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.comm.matrix import CommMatrix
from repro.comm.trace import CommTracer
from repro.orwl.program import Program
from repro.orwl.runtime import RunResult, Runtime, RuntimeConfig
from repro.placement.affinity import task_matrix, traced_matrix
from repro.placement.binder import BindPlan, bind_program
from repro.simulate.machine import Machine
from repro.topology.tree import Topology
from repro.util.rng import SeedLike
from repro.util.validate import ValidationError


@dataclass
class ProfiledBind:
    """Everything the profile-then-bind workflow produced."""

    #: a fresh program instance, ready to run under ``plan``.
    program: Program
    #: the placement computed from the profiled matrix.
    plan: BindPlan
    #: the traced op-level matrix the plan was computed from.
    matrix: CommMatrix
    #: the profiling run's result (unbound).
    profile_run: RunResult


def profile_and_bind(
    make_program: Callable[[], Program],
    topo: Topology,
    policy: str = "treematch",
    granularity: str = "task",
    seed: SeedLike = 0,
    runtime_config: Optional[RuntimeConfig] = None,
) -> ProfiledBind:
    """Run once unbound under a :class:`CommTracer`, then bind from the
    measured matrix.

    Parameters
    ----------
    make_program:
        Factory returning a *fresh* :class:`Program` on each call; both
        instances must declare identical operation names (they will, if
        the factory is deterministic).
    topo:
        The machine for both the profiling run and the plan.
    policy, granularity:
        Forwarded to :func:`repro.placement.binder.bind_program`.
    """
    profile_prog = make_program()
    comm = CommTracer()
    profile_run = Runtime(
        profile_prog, Machine(topo, seed=seed), config=runtime_config, comm=comm
    ).run()

    production_prog = make_program()
    if [op.name for op in production_prog.operations()] != [
        op.name for op in profile_prog.operations()
    ]:
        raise ValidationError(
            "program factory is not deterministic: operation names differ "
            "between the profiling and production instances"
        )
    matrix = traced_matrix(production_prog, comm)
    placed = task_matrix(production_prog, matrix) if granularity == "task" else matrix
    plan = bind_program(
        production_prog, topo, policy=policy, matrix=placed, granularity=granularity
    )
    return ProfiledBind(
        program=production_prog, plan=plan, matrix=matrix, profile_run=profile_run
    )
