"""Pinned outputs of the experiment layer's sweep results and perf attach.

Tiny 2-seed ``run_dag`` / ``run_scaling`` sweeps and two
``perf_report=True`` points are reduced to sha-256 digests of their
JSON dumps and rendered tables.  The constants were computed before the
three LK23 point runners were folded into one shared runner and the
DAG / scaling result classes into one paired-sweep core; any change to
the dumps, the tables or the perf reports shows up here first.

Refresh a constant only for an intended output change, with the new
value printed by the failing assertion.
"""

from __future__ import annotations

import hashlib
import json

from repro.experiments.dag import run_dag
from repro.experiments.fig1 import run_point
from repro.experiments.scaling import run_scaling, run_scaling_point

#: Small weak-scaling workload: 192 cores x 1024 cells -> n = 443.
CELLS = 1024

DAG_JSON = "e50984748b31b5c472734cad28ba088810df674953fb17faae156fc28ee38ebc"
DAG_TABLE = "eb9f75b49079183766bba65b9b0747039823111a730122d8c9b255cd1e4fe211"
SCALING_JSON = "ae5ca7c8bdf59cb2ebb1ae58a5586492dc2b3bdf1ab72b76bd696c926f23c363"
SCALING_TABLE = "37c66dc8817b6998f1812f82e10c5925eb73bb125d52e4ff1199db8d19b257d9"
FIG1_PERF = "c299f75a37d9a5f4d63e404565e1c75f930a6906aef6a96d3afc30397292c8d3"
SCALING_PERF = "5140b95de80978c2c08d7dd41a39358ed39bc6affae081f0ee7e9ad58b2bcc3c"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_sha(doc: dict) -> str:
    return _sha(json.dumps(doc, sort_keys=True))


def test_dag_sweep_outputs_pinned():
    result = run_dag(
        n_cores=16, scale=1, seeds=2, n_workers=1,
        fingerprint=True, perf_report=True,
    )
    assert _json_sha(result.to_json_dict()) == DAG_JSON
    assert _sha(result.table()) == DAG_TABLE


def test_scaling_sweep_outputs_pinned():
    result = run_scaling(
        presets=("paper",), iterations=1, cells_per_core=CELLS, seeds=2,
        n_workers=1,
    )
    assert _json_sha(result.to_json_dict()) == SCALING_JSON
    assert _sha(result.speedup_table()) == SCALING_TABLE


def test_fig1_point_perf_pinned():
    p = run_point("orwl-nobind", 8, iterations=1, n=1024, perf_report=True)
    assert _json_sha(p.perf) == FIG1_PERF


def test_scaling_point_perf_pinned():
    p = run_scaling_point(
        "paper", "openmp", iterations=1, cells_per_core=CELLS, perf_report=True
    )
    assert _json_sha(p.perf) == SCALING_PERF
