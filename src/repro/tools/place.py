"""Placement-service CLI: online, fault-aware mapping queries.

Front end of :class:`repro.placement.service.PlacementService`.  Three
subcommands:

* ``query`` — one-shot: matrix + topology (+ optional dead PUs) in,
  mapping + provenance out.  ``--failed 4 8 18`` answers "the machine
  just lost PUs 4, 8 and 18 — where do my threads go now?" without
  disturbing survivors (``--mode full`` forces the restrict-and-rerun
  reference instead).
* ``serve`` — a line-oriented JSON service on stdin/stdout: each
  request line is answered with a decision line; ``fail``/``drain``/
  ``restore`` requests mutate the fault state between queries.
* ``bench`` — measure decision latency on the spot: cold vs warm query
  walls and the warm p50 for the chosen matrix and topology.

Usage::

    python -m repro.tools.place query --demo 8 --failed 4 8
    python -m repro.tools.place query comm.mat paper-smp --json
    echo '{"op": "query"}' | python -m repro.tools.place serve --demo 8
    python -m repro.tools.place bench --demo 24 paper-smp
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.comm import patterns
from repro.comm.matrix import CommMatrix
from repro.placement.service import Decision, PlacementService
from repro.tools._common import require_positive, resolve_topology
from repro.topology.tree import Topology
from repro.treematch import cost
from repro.util.validate import ValidationError


def _load_inputs(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[CommMatrix, Topology]:
    """The subcommand's matrix and topology; bad input ends the program
    with one usage line (exit 2) through *parser*."""
    if args.demo is not None:
        require_positive(parser, demo=args.demo)
        # With --demo the first positional (if any) is the topology.
        if args.matrix:
            args.topology = args.matrix
        side = args.demo
        matrix = patterns.stencil_2d(side, side, edge_volume=1000.0)
    elif args.matrix:
        try:
            matrix = CommMatrix.load(args.matrix)
        except OSError as exc:
            parser.error(f"{args.matrix}: {exc.strerror or exc}")
        except ValueError as exc:
            parser.error(f"{args.matrix}: not a communication matrix file ({exc})")
    else:
        parser.error("give a matrix file or --demo N")
    return matrix, resolve_topology(args.topology, parser)


def _decision_dict(decision: Decision, topo, matrix) -> dict:
    return {
        "mapping": list(decision.mapping.pu_of),
        "method": decision.method,
        "epoch": decision.epoch,
        "failed": list(decision.failed),
        "drained": list(decision.drained),
        "moved": list(decision.moved),
        "cached": decision.cached,
        "latency_us": decision.latency_s * 1e6,
        "hop_bytes": cost.hop_bytes(decision.mapping, matrix, topo),
        "key": decision.key[:16],
    }


def _print_decision(decision: Decision, topo, matrix) -> None:
    info = _decision_dict(decision, topo, matrix)
    print(f"method      {info['method']}   (epoch {info['epoch']}, "
          f"{'warm' if info['cached'] else 'cold'}, "
          f"{info['latency_us']:.0f} us)")
    if info["failed"] or info["drained"]:
        print(f"dead PUs    failed={info['failed']} drained={info['drained']}")
    if info["moved"]:
        print(f"moved       {len(info['moved'])} threads: {info['moved']}")
    print(f"hop-bytes   {info['hop_bytes']:.0f}")
    for t in range(decision.mapping.n_threads):
        pu = decision.mapping.pu(t)
        print(f"{decision.mapping.labels[t]}\t{pu if pu >= 0 else 'unbound'}")


def _cmd_query(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    matrix, topo = _load_inputs(args, parser)
    service = PlacementService(topo, strategy=args.strategy)
    if args.failed:
        service.fail(*args.failed)
    if args.drained:
        service.drain(*args.drained)
    decision = service.query_sync(matrix, mode=args.mode)
    if args.json:
        print(json.dumps(_decision_dict(decision, topo, matrix), sort_keys=True))
    else:
        _print_decision(decision, topo, matrix)
    return 0


def _request_matrix(value: object) -> CommMatrix:
    """A request's inline ``"matrix"``: a non-empty square list of rows
    of numbers, symmetrized like a matrix file."""
    if not (
        isinstance(value, list)
        and value
        and all(isinstance(row, list) and len(row) == len(value) for row in value)
        and all(type(x) in (int, float) for row in value for x in row)
    ):
        raise ValidationError(
            "'matrix' must be a non-empty square list of rows of numbers"
        )
    try:
        return CommMatrix(value, symmetrize=True)
    except ValidationError as exc:
        raise ValidationError(f"'matrix': {exc}") from None


def serve_request(
    service: PlacementService, topo, base_matrix: CommMatrix, line: str
) -> dict:
    """Answer one ``serve`` request line (shared by the loop and tests).

    Ops: ``query`` / ``fail`` / ``drain`` / ``restore`` / ``stats`` /
    ``health`` (liveness: uptime, queries served, last error) /
    ``metrics`` (the registry snapshot, plus derived SLO lines).
    """
    try:
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValidationError(
                f"request must be a JSON object, got {type(request).__name__}"
            )
        op = request.get("op", "query")
        if op == "query":
            matrix = base_matrix
            if "matrix" in request:
                matrix = _request_matrix(request["matrix"])
            decision = service.query_sync(
                matrix, mode=request.get("mode", "auto")
            )
            return _decision_dict(decision, topo, matrix)
        if op in ("fail", "drain", "restore"):
            pus = request.get("pus", [])
            if not isinstance(pus, list) or not all(type(pu) is int for pu in pus):
                raise ValidationError(
                    f"'pus' must be a list of PU os indices, got {pus!r}"
                )
            getattr(service, op)(*pus)
            return {"ok": True, "epoch": service.epoch}
        if op == "stats":
            return service.stats()
        if op == "health":
            return service.health()
        if op == "metrics":
            from repro.metrics import core as metrics_core

            return {
                "enabled": metrics_core.is_enabled(),
                "slo": service.slo(),
                **metrics_core.registry().snapshot(),
            }
        return {"error": f"unknown op {op!r}"}
    except Exception as exc:  # a bad request must not kill the server
        service.record_error(exc)
        return {"error": str(exc)}


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """One JSON request per stdin line; one JSON decision per stdout line.

    Requests: ``{"op": "query", "mode": "auto"}`` (the matrix is the
    one the server was started with, unless the request carries
    ``"matrix": [[...]]`` inline), ``{"op": "fail", "pus": [4, 8]}``,
    ``"drain"``, ``"restore"``, ``{"op": "stats"}``, ``{"op":
    "health"}``, ``{"op": "metrics"}``.

    Metric collection is switched on for the lifetime of the server (a
    service with no live counters has no health story).  ``--http
    PORT`` additionally serves Prometheus ``/metrics`` and JSON
    ``/healthz`` over HTTP (port 0 = OS-assigned, printed on stderr).

    Exits cleanly (code 0) on EOF, a closed stdin, a broken stdout
    pipe, or Ctrl-C — a supervisor restarting the reader must not see a
    traceback.
    """
    from repro.metrics import core as metrics_core

    base_matrix, topo = _load_inputs(args, parser)
    metrics_core.enable()
    service = PlacementService(topo, strategy=args.strategy)
    httpd = None
    if args.http is not None:
        from repro.metrics.httpd import MetricsServer

        httpd = MetricsServer(args.http, health_fn=service.health).start()
        print(f"[serve] metrics at {httpd.url}/metrics, health at "
              f"{httpd.url}/healthz", file=sys.stderr, flush=True)
    try:
        while True:
            try:
                line = sys.stdin.readline()
            except ValueError:  # stdin closed under us
                break
            if not line:  # EOF
                break
            line = line.strip()
            if not line:
                continue
            response = serve_request(service, topo, base_matrix, line)
            print(json.dumps(response, sort_keys=True), flush=True)
    except (KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        if httpd is not None:
            httpd.stop()
    return 0


def _cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.exec.cache import clear_cache, reset_cache_stats

    require_positive(parser, iterations=args.iterations)
    matrix, topo = _load_inputs(args, parser)
    clear_cache()
    reset_cache_stats()
    service = PlacementService(topo, strategy=args.strategy)

    t0 = time.perf_counter()
    service.query_sync(matrix)
    cold = time.perf_counter() - t0

    warm: list[float] = []
    for _ in range(args.iterations):
        t0 = time.perf_counter()
        service.query_sync(matrix)
        warm.append(time.perf_counter() - t0)
    warm.sort()
    p50 = warm[len(warm) // 2]
    p99 = warm[min(len(warm) - 1, int(len(warm) * 0.99))]
    print(f"topology        {topo.name} ({topo.nb_pus} PUs)")
    print(f"matrix order    {matrix.order}")
    print(f"cold query      {cold * 1e3:.2f} ms")
    print(f"warm p50        {p50 * 1e6:.1f} us")
    print(f"warm p99        {p99 * 1e6:.1f} us")
    print(f"warm speedup    {cold / p50:.0f}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.place", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("matrix", nargs="?", help="communication matrix file")
        p.add_argument(
            "topology", nargs="?", default="paper-smp",
            help="preset name, 'host', JSON file, or synthetic spec",
        )
        p.add_argument(
            "--demo", type=int, metavar="N",
            help="use an N x N built-in stencil matrix instead of a file",
        )
        p.add_argument("--strategy", default="auto", help="grouping strategy")

    q = sub.add_parser("query", help="one-shot placement query")
    common(q)
    q.add_argument(
        "--failed", type=int, nargs="*", default=[], metavar="PU",
        help="PU os indices to treat as failed",
    )
    q.add_argument(
        "--drained", type=int, nargs="*", default=[], metavar="PU",
        help="PU os indices to treat as drained",
    )
    q.add_argument(
        "--mode", default="auto", choices=("auto", "incremental", "full"),
        help="repair path under failures (default: auto = incremental)",
    )
    q.add_argument("--json", action="store_true", help="machine-readable output")
    q.set_defaults(fn=_cmd_query)

    s = sub.add_parser("serve", help="line-oriented JSON service on stdin")
    common(s)
    s.add_argument(
        "--http", type=int, metavar="PORT", default=None,
        help="also serve HTTP /metrics + /healthz on PORT (0 = pick a "
             "free port, printed on stderr)",
    )
    s.set_defaults(fn=_cmd_serve)

    b = sub.add_parser("bench", help="measure decision latency")
    common(b)
    b.add_argument(
        "--iterations", type=int, default=200,
        help="warm queries to sample (default: 200)",
    )
    b.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args, sub.choices[args.command])


if __name__ == "__main__":
    raise SystemExit(main())
