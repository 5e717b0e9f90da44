"""The one-call public API.

Everything the library does can be driven through the subpackages, but
the common case — "run LK23 on machine X under placement policy Y and
tell me the processing time" — is one function here.  The examples and
most benchmarks go through this façade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

from repro.comm.patterns import square_grid_shape
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.orwl.runtime import Runtime
from repro.placement.binder import BindPlan, bind_program
from repro.simulate.machine import Machine
from repro.simulate.metrics import MachineMetrics
from repro.topology import presets
from repro.topology.tree import Topology
from repro.util.validate import ValidationError


@dataclass
class ExperimentConfig:
    """One LK23-on-a-machine experiment.

    Attributes
    ----------
    topology:
        A :class:`Topology` instance or a preset name from
        :data:`repro.topology.presets.PRESETS` (default: the paper's
        24×8 SMP).
    policy:
        Placement policy registry name (``"treematch"``, ``"nobind"``,
        ``"compact"``, ``"scatter"``, ``"round-robin"``, ``"random"``).
    n, iterations:
        Matrix size and sweep count (paper: 16384, 100).
    tasks:
        Number of ORWL tasks/blocks; ``None`` = one per core.
    granularity:
        Mapping granularity, ``"task"`` (paper mode) or ``"op"``.
    seed:
        Simulation seed (scheduler noise, jitter).
    trace:
        Attach a :class:`repro.observe.Tracer` to the machine; the
        structured event stream lands in :attr:`ExperimentResult.trace`
        (exportable, hashable, invariant-checkable).
    """

    topology: Topology | str = "paper-smp"
    policy: str = "treematch"
    n: int = 16384
    iterations: int = 5
    tasks: Optional[int] = None
    granularity: str = "task"
    seed: int = 0
    trace: bool = False

    def resolve_topology(self) -> Topology:
        if isinstance(self.topology, Topology):
            return self.topology
        return presets.by_name(self.topology)


@dataclass
class ExperimentResult:
    """What :func:`run_lk23` returns."""

    #: simulated processing time in seconds (the figure's y-axis).
    time: float
    #: machine counters (bytes per level, migrations, waits ...).
    metrics: MachineMetrics
    #: the placement decision that was applied.
    plan: BindPlan
    #: the configuration that produced this result.
    config: ExperimentConfig
    #: structured event stream (None unless ``config.trace``).
    trace: Optional["Tracer"] = None

    def summary(self) -> dict[str, float]:
        out = {"time": self.time}
        out.update(self.metrics.summary())
        return out


def run_lk23(config: ExperimentConfig | None = None, **overrides) -> ExperimentResult:
    """Run one LK23 experiment end to end.

    Accepts a prepared :class:`ExperimentConfig` or keyword overrides
    for its fields::

        result = run_lk23(policy="nobind", iterations=3, topology="small-numa")
        print(result.time)
    """
    if config is None:
        config = ExperimentConfig(**overrides)
    elif overrides:
        raise ValidationError("give either a config object or keyword overrides, not both")

    topo = config.resolve_topology()
    n_tasks = config.tasks if config.tasks is not None else topo.nb_pus
    rows, cols = square_grid_shape(n_tasks)
    kcfg = Lk23Config(
        n=config.n, grid_rows=rows, grid_cols=cols, iterations=config.iterations
    )
    program = build_program(kcfg)
    plan = bind_program(
        program, topo, policy=config.policy, granularity=config.granularity
    )
    tracer = None
    if config.trace:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    machine = Machine(topo, seed=config.seed, tracer=tracer)
    runtime = Runtime(
        program, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    )
    run = runtime.run()
    return ExperimentResult(
        time=run.time, metrics=run.metrics, plan=plan, config=config, trace=run.trace
    )


def compare_policies(
    policies: tuple[str, ...] = ("treematch", "compact", "scatter", "nobind"),
    **config_kwargs,
) -> dict[str, ExperimentResult]:
    """Run the same experiment under several policies.

    Returns ``{policy: result}``; all runs share topology, workload and
    seed so the only variable is placement.
    """
    out: dict[str, ExperimentResult] = {}
    for policy in policies:
        cfg = ExperimentConfig(policy=policy, **config_kwargs)
        out[policy] = run_lk23(cfg)
    return out
