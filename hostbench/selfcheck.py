"""Same-code self-check: run-to-run spread of every end-to-end metric.

Run from the repository root::

    python3 hostbench/selfcheck.py --runs 10 [--batches 2] [--workloads dag-e7]

Runs each workload ``--runs`` times, each with another seed (from
:data:`FIRST_SEED` on), exactly as ``BENCHMARK.json`` invokes it, and
prints for every end-to-end metric the median, the spread (quartile
distance as a share of the median, from
``statistics.quantiles(values, n=4)``) and the metric's bound.  A
spread must stay within the bound and should stay below a third of it.
With ``--batches 2`` the second batch uses fresh seeds, and its median
must not be worse than the first batch's by more than the bound.  The
exit code is 1 if any of these tests fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 301


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--workloads", nargs="*",
                    default=[wl["name"] for wl in spec["workloads"]])
    args = ap.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        medians: dict[str, list[float]] = {}
        for batch in range(args.batches):
            seeds = [FIRST_SEED + batch * args.runs + i for i in range(args.runs)]
            runs = [
                run_once(spec["command"], workload, s, spec["run_seconds"])
                for s in seeds
            ]
            print(f"{workload} batch {batch} seeds {seeds[0]}..{seeds[-1]}")
            for name, m in metrics.items():
                values = [r[name] for r in runs]
                sp = spread(values)
                med = statistics.median(values)
                medians.setdefault(name, []).append(med)
                bound = m["bound"]
                flag = "ok" if sp <= bound / 3 else ("near" if sp <= bound else "OVER")
                ok = ok and sp <= bound
                print(f"  {name:<14} median {med:12.5g}  spread {sp:7.2%}  "
                      f"bound {bound:.0%}  {flag}")
        for name, meds in medians.items():
            if len(meds) < 2:
                continue
            # Positive means the last batch is worse than the first.
            sign = 1 if metrics[name]["better"] == "lower" else -1
            worse = sign * (meds[-1] / meds[0] - 1)
            within = worse <= metrics[name]["bound"]
            ok = ok and within
            print(f"  {name:<14} last batch worse than first by {worse:+.2%}  "
                  f"{'ok' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
