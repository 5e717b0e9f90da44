"""Trace a simulated run and export/audit its event stream.

Usage::

    # Perfetto timeline of the ring-pipeline example (open at
    # https://ui.perfetto.dev or chrome://tracing):
    python -m repro.tools.trace --workload ring --format chrome --out ring.json

    # Lossless archival stream + invariant audit + determinism hash:
    python -m repro.tools.trace --workload lk23 --n 2048 --iterations 2 \\
        --format jsonl --out lk23.jsonl --check --hash

    # Where did the bytes move?  Per-sharing-level traffic table:
    python -m repro.tools.trace --workload lk23 --policy nobind --traffic

    # Explore an archived stream: remote transfers only, with stats:
    python -m repro.tools.trace --input lk23.jsonl \\
        --filter kind=transfer,level=MACHINE --stats
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro.observe import (
    EventFilter,
    Tracer,
    TraceSummary,
    check_run,
    read_jsonl,
    run_fingerprint,
    write_chrome,
    write_jsonl,
)
from repro.orwl import AccessMode, Program, Runtime
from repro.placement.binder import bind_program
from repro.placement.policies import POLICY_REGISTRY
from repro.placement.report import render_traffic_report
from repro.simulate.machine import Machine
from repro.tools._common import resolve_topology


def build_ring(stages: int, rounds: int, packet_bytes: float,
               stage_seconds: float = 50e-6) -> Program:
    """The streaming ring pipeline of ``examples/ring_pipeline.py``:
    each stage reads its predecessor's packet, processes it, and
    publishes its own — all synchronization by ordered read-write locks.
    """
    prog = Program(f"ring-{stages}")
    for s in range(stages):
        prog.location(f"stage{s}/out", packet_bytes, owner_task=f"stage{s}")
    for s in range(stages):
        task = prog.task(f"stage{s}")
        op = task.operation("main", body=None)
        write_h = op.handle(prog.locations[f"stage{s}/out"], AccessMode.WRITE)
        read_h = op.handle(
            prog.locations[f"stage{(s - 1) % stages}/out"], AccessMode.READ
        )
        write_h.init_phase = 0
        read_h.init_phase = 1

        def body(ctx, write_h=write_h, read_h=read_h):
            yield from ctx.acquire(write_h)
            ctx.next(write_h)
            for _ in range(rounds):
                yield from ctx.acquire(read_h)
                yield ctx.compute(seconds=stage_seconds)
                ctx.next(read_h)
                yield from ctx.acquire(write_h)
                ctx.next(write_h)

        op.body = body
    prog.validate()
    return prog


def build_lk23(n: int, tasks: int, iterations: int) -> Program:
    from repro.comm.patterns import square_grid_shape
    from repro.kernels.lk23_orwl import Lk23Config, build_program

    rows, cols = square_grid_shape(tasks)
    return build_program(
        Lk23Config(n=n, grid_rows=rows, grid_cols=cols, iterations=iterations)
    )


def render_stats(events) -> str:
    """Per-kind duration statistics and per-level byte totals.

    The exploration companion of :class:`EventFilter`: after narrowing
    a large stream to the events of interest, this is the one-screen
    answer to "how many, how long, how heavy".
    """
    n = 0
    by_kind: dict[str, list[float]] = {}
    bytes_by_level: Counter = Counter()
    threads: set[int] = set()
    t_lo = float("inf")
    t_hi = 0.0
    for ev in events:
        n += 1
        by_kind.setdefault(ev.kind, []).append(ev.dur)
        if ev.kind == "transfer" and ev.level:
            bytes_by_level[ev.level] += ev.nbytes
        if ev.tid >= 0:
            threads.add(ev.tid)
        t_lo = min(t_lo, ev.ts)
        t_hi = max(t_hi, ev.end)
    if n == 0:
        return "(no events matched)"
    lines = [
        f"{n} events, {len(threads)} threads, "
        f"time range [{t_lo:.6g}, {t_hi:.6g}] s",
        f"{'kind':<12} {'count':>8} {'total s':>12} {'mean s':>12} "
        f"{'max s':>12}",
    ]
    lines.insert(1, "")
    for kind in sorted(by_kind):
        durs = by_kind[kind]
        total = sum(durs)
        lines.append(
            f"{kind:<12} {len(durs):>8} {total:>12.6g} "
            f"{total / len(durs):>12.6g} {max(durs):>12.6g}"
        )
    if bytes_by_level:
        lines.append("")
        for level, nbytes in sorted(bytes_by_level.items()):
            lines.append(f"bytes [{level:<9}] {nbytes:>14.6g}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.trace", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--workload", default="lk23", choices=["lk23", "ring"])
    parser.add_argument(
        "--topology", default="paper-smp",
        help="preset name, 'host', JSON/XML file, or synthetic spec",
    )
    parser.add_argument(
        "--policy", default="treematch", choices=sorted(POLICY_REGISTRY)
    )
    parser.add_argument("--n", type=int, default=4096, help="lk23 matrix size")
    parser.add_argument("--iterations", type=int, default=2, help="lk23 sweeps")
    parser.add_argument("--tasks", type=int, default=None,
                        help="lk23 tasks (default: one per core)")
    parser.add_argument("--stages", type=int, default=8, help="ring stages")
    parser.add_argument("--rounds", type=int, default=40, help="ring rounds")
    parser.add_argument("--packet-kib", type=float, default=1024.0,
                        help="ring packet size in KiB")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", default="chrome", choices=["chrome", "jsonl"])
    parser.add_argument("--out", default=None,
                        help="output file (default: no export, summary only)")
    parser.add_argument("--check", action="store_true",
                        help="audit conservation invariants; non-zero exit on "
                             "violation")
    parser.add_argument("--hash", action="store_true",
                        help="print the run's determinism fingerprint")
    parser.add_argument("--traffic", action="store_true",
                        help="print the per-sharing-level traffic table")
    parser.add_argument("--input", metavar="FILE",
                        help="read an archived JSONL stream instead of "
                             "running a workload (disables --check/--hash/"
                             "--traffic, which need the live machine)")
    parser.add_argument("--filter", metavar="SPEC", default="",
                        help="event selection, e.g. "
                             "'kind=transfer|wait,thread=*ctl*,level=MACHINE,"
                             "min-dur=1e-6' (applied before export/stats)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-kind duration statistics and "
                             "per-level byte totals of the (filtered) stream")
    args = parser.parse_args(argv)

    try:
        event_filter = EventFilter.parse(args.filter)
    except ValueError as exc:
        parser.error(str(exc))

    if args.input:
        for flag in ("check", "hash", "traffic"):
            if getattr(args, flag):
                parser.error(f"--{flag} needs a live run; "
                             "it cannot audit an --input stream")
        try:
            events = tuple(read_jsonl(args.input))
        except OSError as exc:
            parser.error(f"--input {args.input}: {exc.strerror or exc}")
        except (ValueError, KeyError, TypeError) as exc:
            parser.error(f"--input {args.input}: not a JSONL trace stream "
                         f"({exc})")
        source = args.input
    else:
        topo = resolve_topology(args.topology, parser)
        if args.workload == "ring":
            prog = build_ring(args.stages, args.rounds, args.packet_kib * 1024)
        else:
            tasks = args.tasks if args.tasks is not None else topo.nb_pus
            prog = build_lk23(args.n, tasks, args.iterations)

        plan = bind_program(prog, topo, policy=args.policy)
        tracer = Tracer()
        machine = Machine(topo, seed=args.seed, tracer=tracer)
        result = Runtime(
            prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
        ).run()
        events = tracer.events
        source = f"{args.workload} on {topo} under {args.policy}"
        print(f"processing : {result.time:.6f} simulated s")

    if args.filter:
        selected = tuple(event_filter.apply(events))
        print(f"filter     : {args.filter!r} kept {len(selected)} of "
              f"{len(events)} events")
        events = selected

    summary = TraceSummary.of(events)
    print(f"workload   : {source}")
    print(f"trace      : {summary.events} events ({summary.spans} spans), "
          f"kinds { {k: v for k, v in sorted(summary.by_kind.items())} }")

    if args.stats:
        print()
        print(render_stats(events))

    if args.out:
        if args.format == "chrome":
            n = write_chrome(events, args.out,
                             process_name=f"{args.workload}/{args.policy}")
            print(f"exported   : {n} events -> {args.out} (chrome trace_event; "
                  "open in https://ui.perfetto.dev)")
        else:
            n = write_jsonl(events, args.out)
            print(f"exported   : {n} events -> {args.out} (JSON-lines)")

    if args.hash:
        print(f"fingerprint: {run_fingerprint(machine)}")

    if args.traffic:
        print()
        print(render_traffic_report(result.metrics))

    if args.check:
        report = check_run(machine, raise_on_violation=False)
        print(report.render())
        if not report.ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
