"""Pinned fingerprints of small traced runs, stable across refactors.

``tests/test_golden_metrics.py`` checks that a run repeats itself; the
literals here check that it repeats what earlier versions of the
simulator computed.  Each case is a small traced program whose
``run_fingerprint`` (final time, every trace row, every counter) and
``metrics_fingerprint`` are pinned to the hex digit, so a change to the
per-event path that moves one heap entry, one RNG draw or one float
addition fails here by name.

The cases cover every branch of a thread's syscall handling: ``Compute``
and ``ComputeFlops`` on a machine with per-PU rates, compute jitter,
``Receive`` (zero and non-zero bytes, contended), ``ReceiveFromNode`` on
a NUMA and on a UMA machine, ``Park`` woken by ``engine.schedule``,
``Wait`` on early and late events, ``Yield``, a priority thread,
unbound threads that are pulled and balanced, and ORWL runs with and
without control threads, bound and unbound, plus the OpenMP comparator
and a DAG.  Each case also asserts that the branches it is meant to
cover ran, so a case cannot silently stop covering them.

The literals were recorded on CPython 3.11; the simulation uses only
IEEE-754 double arithmetic, Python's ``float`` operations and numpy's
seeded generators, so they hold on any host.
"""

from __future__ import annotations

import pytest

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import machine_inputs
from repro.experiments.dag import build_workload
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.openmp import OpenMpConfig, run_openmp_lk23
from repro.observe import metrics_fingerprint, run_fingerprint
from repro.observe.invariants import check_run
from repro.observe.tracer import Tracer
from repro.orwl.runtime import Runtime, RuntimeConfig
from repro.placement.binder import bind_program
from repro.simulate.contention import ContentionConfig
from repro.simulate.engine import SimEvent
from repro.simulate.machine import Machine
from repro.simulate.scheduler import SchedulerConfig
from repro.simulate.syscalls import (
    Compute,
    ComputeFlops,
    Park,
    Receive,
    ReceiveFromNode,
    Wait,
    Yield,
)
from repro.tasks.compile import compile_graph, dag_matrix
from repro.topology import presets
from repro.topology.builder import flat_topology
from repro.topology.objects import ObjType

#: Tight capacities, so transfers contend; eager balancing, so unbound
#: threads are pulled and migrated within a few milliseconds.
_TIGHT = ContentionConfig(node_capacity=1.5, interconnect_capacity=2.0)
_EAGER = SchedulerConfig(
    migration_quantum=2e-4, migration_prob=0.3, imbalance_threshold=1e-5
)


def _syscall_mix(machine: Machine, n_nodes: int, rounds: int = 4) -> None:
    """Bound and unbound workers, plus a parked priority thread.

    Each round a worker computes (seconds and flops), reads from a
    neighbour (zero bytes for one of them), streams from a node's DRAM,
    yields, and waits for the round's event, which worker 0 fires after
    its own compute (so some waiters register early and some late).
    Worker 0 also wakes the priority thread, parked on a plain ``Park``.
    """
    pus = [0, 1, machine.topo.nb_pus - 1] + [-1] * 5
    tids = list(machine.add_threads([f"w{k}" for k in range(len(pus))], pus))
    ping = machine.add_thread("ping", bound_pu_os=0, priority=True)
    events = [SimEvent(machine.engine, f"round{r}") for r in range(rounds)]
    parked: list = []
    state = {"ping_done": False}

    def worker(k):
        for r in range(rounds):
            yield Compute(1e-4 * (k + 1))
            if k == 0:
                events[r].fire(delay=2e-6)
                if parked:
                    machine.engine.schedule(1e-6, parked.pop())
            yield ComputeFlops(2e5 * (1 + (k + r) % 3))
            src = tids[(k + 1) % len(tids)]
            yield Receive(src, 0.0 if k == 3 else 4e4 * (k + 1))
            yield ReceiveFromNode((k + r) % n_nodes, 6e4)
            yield Yield()
            yield Wait(events[r])
        if k == 0:
            while not state["ping_done"]:
                if parked:
                    machine.engine.schedule(1e-6, parked.pop())
                yield Compute(5e-5)

    def pinger():
        me = machine.thread(ping)
        for r in range(rounds):
            parked.append(me)
            yield Park(f"ping{r}")
            yield Compute(1e-5)
        state["ping_done"] = True

    for k, tid in enumerate(tids):
        machine.set_body(tid, worker(k))
    machine.set_body(ping, pinger())


def _numa_mix() -> Machine:
    """NUMA box, per-PU rates, jitter, tight contention, eager balancing."""
    topo = presets.small_numa(2, 4)
    machine = Machine(
        topo, seed=7, tracer=Tracer(), compute_jitter=0.05,
        core_rate_of={1: 1e9, 5: 4e9}, contention=_TIGHT, scheduler=_EAGER,
    )
    _syscall_mix(machine, n_nodes=2)
    machine.run()
    return machine


def _uma_mix() -> Machine:
    """UMA box (node streams at NUMANODE cost), no jitter."""
    machine = Machine(
        flat_topology(4), seed=3, tracer=Tracer(), contention=_TIGHT,
        scheduler=_EAGER,
    )
    _syscall_mix(machine, n_nodes=1)
    machine.run()
    return machine


def _lk23(policy: str, control_threads: bool = True, **machine_kw) -> Machine:
    topo, dm = machine_inputs("small-numa")
    rows, cols = square_grid_shape(topo.nb_pus)
    program = build_program(
        Lk23Config(n=2048, grid_rows=rows, grid_cols=cols, iterations=3)
    )
    plan = bind_program(program, topo, policy=policy)
    machine = Machine(topo, distance_model=dm, seed=11, tracer=Tracer(),
                      **machine_kw)
    Runtime(
        program, machine, mapping=plan.mapping,
        control_mapping=plan.control_mapping,
        config=RuntimeConfig(control_threads=control_threads),
    ).run()
    return machine


def _openmp() -> Machine:
    machine = Machine(presets.paper_smp(2, 4), seed=5, tracer=Tracer())
    run_openmp_lk23(machine, OpenMpConfig(n=1024, n_threads=8, iterations=2))
    return machine


def _divconq(policy: str) -> Machine:
    graph = build_workload("divconq", scale=2, graph_seed=0)
    topo, dm = machine_inputs("paper-smp", 2, 4)
    program = compile_graph(graph)
    plan = bind_program(program, topo, policy=policy, matrix=dag_matrix(graph))
    machine = Machine(topo, distance_model=dm, seed=2, tracer=Tracer())
    Runtime(program, machine, mapping=plan.mapping,
            control_mapping=plan.control_mapping).run()
    return machine


#: case -> (run, trace kinds and details it must contain, run
#: fingerprint, metrics fingerprint).
CASES = {
    "numa-mix": (
        _numa_mix, {"pull:", "balance:", "contended", "runq", "ping3"},
        "461948404c5bdfa3e901ada9c5caed074f4514c2c3cca17a295c093c9e7a09e7",
        "95ab4d1ea597cf823aa9e11e8ef9802b9530695f116e40b3814311134dd02176",
    ),
    "uma-mix": (
        _uma_mix, {"pull:", "balance:", "NUMANODE", "ping3"},
        "65f88e803b6e7d2cab1050df4d5b9d09f53ca36b8d907e599a589ff942279eab",
        "079e6cf77ba8639da535ad3212e8594f6319a2b979ef0c5c7a3056e4558b57a0",
    ),
    "lk23-bind": (
        lambda: _lk23("treematch"), {"grant", "wait"},
        "c564b64d454ba9737571c8f0d04962ea473acb4e40e4064656fa0a855d2daa8c",
        "7e9c0390c3263d1a05028d5f6ad7c792333b8e1df17858a570bdd2ab59992269",
    ),
    "lk23-nobind-jitter": (
        lambda: _lk23("nobind", compute_jitter=0.03), {"grant", "pull:"},
        "51414507f1b2c8499e0368c7b656203ffdc06f590427b3e479f68c9729933c52",
        "be88152c6b9256f8b2eacd3facfe822eecc7e7ad99be31d29fa69d2c180ba403",
    ),
    "lk23-direct-rates": (
        lambda: _lk23("treematch", control_threads=False,
                      core_rate_of={0: 1e9, 3: 3e9}),
        {"grant", "wait"},
        "507f636f141b84379dfb75812951c888dcb471ac58f7e907de0f28d6df4d264a",
        "35fe09633566dabeffd8e7a4912c4c2296fdfff6f0d2390eb76543255138e0dc",
    ),
    "openmp": (
        _openmp, {"NUMANODE", "MACHINE"},
        "98c6852a9db5f15af73ba18c097aa6519abcf69861cd783df6d5f01553c08588",
        "c89297646d0008d5e9f3e3386c1492811c8bb8b9fa1ca977c14fbdb19c75c4f7",
    ),
    "divconq-nobind": (
        lambda: _divconq("nobind"), {"grant", "ctl-wake"},
        "d45b97f4530912d61460b19baa102858187c802da67918d163816e07ebc0e2d8",
        "60ca7688bd9cec449e3e7013f1041e8735494f4e74f0cd8d4f06de45d9860458",
    ),
}


def _covered(machine: Machine) -> set:
    """Trace kinds, migration kinds and transfer levels the run shows,
    plus "contended" if any transfer was slowed."""
    seen = set()
    for ev in machine.tracer.events:
        seen.add(ev.kind)
        if ev.kind == "migration":
            seen.add(ev.detail.split(":")[0] + ":")
        elif ev.kind == "transfer":
            seen.add(ev.level)
        elif ev.kind == "wait":
            seen.add(ev.detail)
    if machine.metrics.contended_transfers:
        seen.add("contended")
    return seen


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_matches_pinned_fingerprints(case):
    run, must_cover, run_fp, metrics_fp = CASES[case]
    machine = run()
    if machine.topo.nbobjs_by_type(ObjType.NUMANODE):
        # The NUMA traffic reconciliation has no node pairs to read on
        # a UMA machine; every other law is checked there too.
        assert check_run(machine, raise_on_violation=False).ok
    else:
        report = check_run(machine, raise_on_violation=False)
        assert {v.invariant for v in report.violations} <= {
            "numa-traffic-reconciliation"
        }
    missing = must_cover - _covered(machine)
    assert not missing, f"{case} no longer covers {sorted(missing)}"
    assert (run_fingerprint(machine), metrics_fingerprint(machine.metrics)) == (
        run_fp, metrics_fp
    )
