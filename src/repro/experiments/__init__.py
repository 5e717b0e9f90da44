"""Experiment harnesses reproducing the paper's evaluation.

* :mod:`~repro.experiments.fig1` — the paper's Figure 1 (LK23 processing
  time for ORWL-Bind / ORWL-NoBind / OpenMP across core counts) plus
  the three scalar claims (11 s minimum, 5× vs OpenMP, 2.8× vs NoBind)
  and the "fails beyond one or two sockets" crossover check; also the
  one LK23 runner (``run_implementation``) every LK23 point goes through.
* :mod:`~repro.experiments.ablations` — the design-choice studies from
  DESIGN.md (mapping quality vs baselines, algorithm cost, control
  strategies, oversubscription, affinity-extraction fidelity).
* :mod:`~repro.experiments.scaling` — the beyond-the-paper machine-size
  sweep over the scaling presets (up to 4096 PUs), with paired
  significance and saturation detection.
* :mod:`~repro.experiments.dag` — E7: Bind/NoBind/service placement on
  the :mod:`repro.tasks` DAG workload families (tiled Cholesky,
  level-synchronous BFS, divide-and-conquer), paired and Holm-corrected.
* :mod:`~repro.experiments.paired` — the lookups, paired verdicts, JSON
  sections and table footer the scaling and E7 results share.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fig1": ["IMPLEMENTATIONS", "Fig1Point", "Fig1Result", "run_fig1", "run_point"],
    "plotting": ["ascii_plot", "plot_fig1"],
    "scaling": ["ScalingPoint", "ScalingResult", "run_scaling", "run_scaling_point"],
    "dag": [
        "POLICIES",
        "WORKLOADS",
        "DagPoint",
        "DagResult",
        "build_workload",
        "run_dag",
        "run_dag_point",
    ],
}, submodules=["ablations", "cluster", "dag", "scaling"])
