"""Pin the digests of every output the benchmark can produce.

Run from the repository root::

    PYTHONPATH=src python3 hostbench/make_reference.py

It runs every pooled input through the public entry points (and the
fig1/dag ops through their layer-by-layer rebuilds too), checks that
each rebuild reproduces its public op bit for bit, and writes
``hostbench/reference.json``.  Regenerate it only when a change is
meant to alter simulated results or mappings; the benchmark counts any
other mismatch as a failed op.  ``--parts`` limits the run to some
workloads (the other sections of an existing file are kept).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as w  # noqa: E402


def fig1_section() -> dict:
    out = {}
    for sim_seed in range(w.FIG1_SIM_SEEDS):
        for impl in w.IMPLEMENTATIONS:
            t0 = time.perf_counter()
            p = w.run_fig1_op(impl, sim_seed)
            public = w.point_digest(
                impl, p.time, p.local_fraction, p.migrations, p.remote_bytes
            )
            point, sim = w.rebuild_fig1(impl, sim_seed, w.Spans())
            if point != public:
                raise SystemExit(f"fig1 {impl}:{sim_seed}: rebuild differs")
            out[f"{impl}:{sim_seed}"] = {"point": public, "sim": sim}
            print(f"fig1 {impl}:{sim_seed} {time.perf_counter() - t0:.2f}s",
                  file=sys.stderr)
    return out


def dag_section() -> dict:
    out = {}
    for graph_seed in range(w.DAG_GRAPH_SEEDS):
        for sim_seed in range(w.DAG_SIM_SEEDS):
            t0 = time.perf_counter()
            public = w.dag_row_digest(w.run_dag_row(graph_seed, sim_seed))
            wall = time.perf_counter() - t0
            point, sim, schedule_ok = w.rebuild_dag_row(graph_seed, sim_seed, w.Spans())
            if point != public or not schedule_ok:
                raise SystemExit(f"dag {graph_seed}:{sim_seed}: rebuild differs")
            out[f"{graph_seed}:{sim_seed}"] = {"point": public, "sim": sim}
            print(f"dag {graph_seed}:{sim_seed} row {wall:.2f}s", file=sys.stderr)
    return out


def place_section() -> dict:
    topo, _ = w.machine_inputs(
        "paper-smp", w.PLACE_SOCKETS, w.PLACE_CORES_PER_SOCKET
    )
    svc = w.PlacementService(topo)
    hot = w.hot_matrices()
    out = {"hot": [w.mapping_digest(svc.query_sync(m).mapping) for m in hot]}
    repair = []
    for index in range(w.N_REPAIR_PAIRS):
        i, dead = w.repair_pair(index)
        svc.fail(*dead)
        decision = svc.query_sync(hot[i])
        svc.restore(*dead)
        if decision.cached or set(decision.mapping.pu_of) & set(dead):
            raise SystemExit(f"repair pair {index}: bad decision")
        repair.append(w.mapping_digest(decision.mapping))
    out["repair"] = repair
    cold = []
    for index in range(w.PLACE_COLD_POOL):
        decision = svc.query_sync(w.cold_matrix(index))
        if decision.cached:
            raise SystemExit(f"cold matrix {index} was already cached")
        cold.append(w.mapping_digest(decision.mapping))
        if index % 256 == 0:
            print(f"place cold {index}", file=sys.stderr)
    out["cold"] = cold
    return out


SECTIONS = {"fig1": fig1_section, "dag": dag_section, "place": place_section}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parts", default=",".join(SECTIONS))
    args = ap.parse_args(argv)
    parts = [p for p in args.parts.split(",") if p]
    for p in parts:
        if p not in SECTIONS:
            ap.error(f"unknown part {p!r}; one of {sorted(SECTIONS)}")
    out = w.REFERENCE_PATH
    ref = json.loads(out.read_text()) if out.exists() else {}
    for p in parts:
        w.fresh_process_state()
        ref[p] = SECTIONS[p]()
    out.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
