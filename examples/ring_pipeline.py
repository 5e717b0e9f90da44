#!/usr/bin/env python3
"""A ring pipeline written directly against the ORWL API.

The paper's intro motivates ORWL as a general framework for "the
decomposition of an application and the management of synchronizations
and communications" — not just stencils.  This example builds a
classic streaming pipeline on a ring: each of P stages repeatedly

1. reads a work packet from its predecessor's output location,
2. processes it (compute burst),
3. publishes its own output for the successor,

with all synchronization done by the ordered read-write locks (no
barriers, no condition variables).  It then shows that the
topology-aware binding shortens the ring's wrap-around latency compared
to an unbound run.

Run:  python examples/ring_pipeline.py
"""

from repro.orwl import AccessMode, Program, Runtime
from repro.placement import bind_program
from repro.simulate import Machine
from repro.topology import presets

STAGES = 8  # fits one 8-core socket when placed well
ROUNDS = 40
PACKET_BYTES = 1024 * 1024  # a 1-MiB work packet
STAGE_SECONDS = 50e-6  # per-packet processing (transfer-dominated regime)


def build_ring(stages: int, rounds: int, packet_bytes: float) -> Program:
    prog = Program(f"ring-{stages}")
    # One output location per stage; stage i+1 reads stage i's output.
    for s in range(stages):
        prog.location(f"stage{s}/out", packet_bytes, owner_task=f"stage{s}")

    for s in range(stages):
        task = prog.task(f"stage{s}")
        op = task.operation("main", body=None)
        write_h = op.handle(prog.locations[f"stage{s}/out"], AccessMode.WRITE)
        prev = (s - 1) % stages
        read_h = op.handle(prog.locations[f"stage{prev}/out"], AccessMode.READ)
        # Init protocol: all first writes are queued before any read, so
        # round 0 consumes every stage's initial packet without waiting.
        write_h.init_phase = 0
        read_h.init_phase = 1

        def body(ctx, write_h=write_h, read_h=read_h):
            # Publish the initial packet.
            yield from ctx.acquire(write_h)
            ctx.next(write_h)
            for _ in range(rounds):
                yield from ctx.acquire(read_h)  # pull predecessor's packet
                yield ctx.compute(seconds=STAGE_SECONDS)
                ctx.next(read_h)
                yield from ctx.acquire(write_h)  # publish our result
                ctx.next(write_h)

        op.body = body
    prog.freeze()
    return prog


def run(policy: str) -> tuple[float, float]:
    topo = presets.paper_smp(4, 8)  # 32 cores
    prog = build_ring(STAGES, ROUNDS, PACKET_BYTES)
    plan = bind_program(prog, topo, policy=policy)
    machine = Machine(topo, seed=7)
    result = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    ).run()
    return result.time, result.metrics.local_fraction


def main() -> None:
    print(f"{STAGES}-stage ring pipeline, {ROUNDS} rounds, "
          f"{PACKET_BYTES // 1024} KiB packets\n")
    for policy in ("treematch", "scatter", "nobind"):
        t, local = run(policy)
        print(f"{policy:>10}: {t * 1000:8.2f} ms   NUMA-local traffic {local:6.1%}")
    print("\nThe whole ring fits under one shared L3 when placed well: "
          "TreeMatch packs it into a single socket, so every packet "
          "hand-off stays cache-local.  Scatter spreads the stages "
          "across sockets — every hand-off crosses the interconnect — "
          "and nobind adds scheduler noise on top.  (With more stages "
          "than one socket holds, a ring is bound by its worst edge and "
          "placement can no longer help: try STAGES = 16.)")


if __name__ == "__main__":
    main()
