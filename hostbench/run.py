"""Host-time benchmark of the reproduction: Fig. 1, E7 and the placement service.

Run from the repository root::

    python3 hostbench/run.py --workload fig1-192 --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-threaded processes as a closed loop
with one client: the next op starts when the previous one returned.
With ``--trace 0`` it reports the end-to-end metrics from
:data:`PROCESSES` fresh processes: ``setup_s`` is the median over them
of the time from process start to the first timed op, and the op
metrics pool the ops they time, ``--seconds`` in all.  These times are
corrected for the host's speed drift (:mod:`hostclock`); the run
prints them as measured too.  With
``--trace 1`` one fresh process reports the per-layer metrics instead
(see ``README.md``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import hostclock  # noqa: E402

WORKLOADS = ("fig1-192", "dag-e7", "place-mix")

#: Fresh processes per untraced run.  Each one sets up (one ``setup_s``
#: sample) and then times ops for its share of ``--seconds``.  Host
#: speed drifts over seconds to minutes; timed ops spread over several
#: processes, with set-ups between them, cover a longer stretch of wall
#: time than one block would.  A fig1-192 set-up takes 3-6 s, the others
#: 1-2 s, so they get one sample more for the same cost; the counts keep
#: a run within about 1.5 times ``--seconds`` on a slow host.
PROCESSES = {"fig1-192": 3, "dag-e7": 4, "place-mix": 4}

#: Wall-clock budget of a whole invocation, children included.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Per-layer metrics of the traced run.  Each workload declares the
#: ones that apply to it (``Workload.layer_metrics``); the others read 0.
PER_LAYER = {
    "simulate.events_fired": "count",
    "simulate.host_us_per_event": "us",
    "simulate.migrations": "count",
    "simulate.transfers": "count",
    "simulate.machine_init_ms": "ms",
    "orwl.run_ms": "ms",
    "orwl.runtime_init_ms": "ms",
    "kernels.build_program_ms": "ms",
    "kernels.openmp_run_ms": "ms",
    "kernels.build_graph_ms": "ms",
    "tasks.compile_graph_ms": "ms",
    "tasks.dag_matrix_ms": "ms",
    "placement.bind_program_ms": "ms",
    "placement.query_warm_ms": "ms",
    "placement.query_cold_ms": "ms",
    "placement.query_remap_ms": "ms",
    "placement.memo_hit_ratio": "ratio",
    "placement.share_warm": "ratio",
    "placement.share_repair": "ratio",
    "placement.share_cold": "ratio",
    "exec.machine_inputs_hit_ms": "ms",
    "topology.machine_inputs_ms": "ms",
    "setup.import_ms": "ms",
    "observe.traced_op_ms": "ms",
    "observe.overhead_x": "x",
    "metrics.enabled_op_ms": "ms",
    "metrics.overhead_x": "x",
    "trace.span_overhead_x": "x",
    "trace.ops": "count",
    **{
        f"{pkg}.{kind}": unit
        for pkg in (
            "topology", "kernels", "tasks", "placement", "treematch", "orwl",
            "simulate", "exec", "observe", "metrics", "other",
        )
        for kind, unit in (("self_share", "ratio"), ("calls_per_op", "count"))
    },
}


def child_env() -> dict:
    """The environment of a workload process.

    The program's cache and telemetry switches are unset (defaults
    apply), the source tree under test comes first on the path, hash
    randomisation is fixed so two processes do the same work, and BLAS
    runs one thread, so the process is single-threaded and its time
    does not depend on how busy the host's other cores are.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--src", str(SRC),
    ]
    started = time.monotonic()
    # A session of its own, so a timeout stops the child's helpers too.
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"{mode} process failed with code {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    # From the launch to the child's first line of Python, as measured.
    out["launch_s"] = out["started_at"] - started
    return out


def op_metrics(runs: list[dict], correct: bool) -> dict:
    """Set-up and op metrics over *runs*, corrected for host speed or not."""
    def seconds(work_s: float, speed: float) -> float:
        return hostclock.reference_s(work_s, speed) if correct else work_s

    op_s = [
        seconds(dt, speed)
        for r in runs for dt, speed in zip(r["op_s"], r["op_speed"])
    ]
    return {
        "setup_s": statistics.median(
            r["launch_s"] + seconds(r["setup_s"], r["setup_speed"]) for r in runs
        ),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        # "inclusive" is numpy's default linear-interpolation rule.
        "op_p90_ms": statistics.quantiles(op_s, n=10, method="inclusive")[-1] * 1e3,
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    deadline = t_start + DEADLINE_S

    try:
        if args.trace:
            runs = [run_child(args, "trace", args.seconds, deadline)]
            got, applies = runs[0]["metrics"], set(runs[0]["applies"])
            wrong = (set(got) ^ applies) | (applies - set(PER_LAYER))
            if wrong:
                print(
                    "per-layer metrics missing, undeclared or unknown: "
                    + ", ".join(sorted(wrong)), file=sys.stderr,
                )
                return 4
            metrics = {
                name: got[name] if name in applies else 0.0 for name in PER_LAYER
            }
            units = PER_LAYER
        else:
            n = PROCESSES[args.workload]
            runs = [
                run_child(args, "measure", args.seconds / n, deadline)
                for _ in range(n)
            ]
            metrics = op_metrics(runs, correct=True)
            raw = op_metrics(runs, correct=False)
            units = END_TO_END
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 3
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not args.trace:
        metrics["success_rate"] = 1.0 - failed / attempted

    for line in runs[-1].get("report", []):
        print(line)
    if not args.trace:
        kinds = collections.Counter(k for r in runs for k in r["op_kinds"])
        print(
            f"{args.workload}: {sum(kinds.values())} timed ops in {len(runs)} "
            f"processes {dict(sorted(kinds.items()))}, error_rate "
            f"{failed / attempted:.4f} ({failed}/{attempted} ops failed, "
            f"set-up ops included)"
        )
        print(
            "as measured, before the host-speed correction: "
            + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
            + "; median host speed "
            + ", ".join(f"{r['host_speed']:.3f}" for r in runs)
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
