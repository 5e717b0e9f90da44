"""Benchmark kernels: Livermore Kernel 23 and its implementations.

* :mod:`~repro.kernels.stencil` — block-grid geometry (blocks, halos,
  neighbour maps, frontier sizes).
* :mod:`~repro.kernels.lk23` — the numerical kernel: loop reference,
  vectorized Jacobi, and blocked-with-halo variants, proven equivalent
  by tests.
* :mod:`~repro.kernels.lk23_orwl` — the paper's ORWL decomposition
  (main + 8 frontier sub-ops per block).
* :mod:`~repro.kernels.openmp` — the fork-join (OpenMP-like) comparator
  with global barriers and master-node first-touch.

DAG workload families over :mod:`repro.tasks` (the dependency-graph
frontend):

* :mod:`~repro.kernels.cholesky` — tiled Cholesky (POTRF/TRSM/SYRK/
  GEMM), the Parla reference benchmark.
* :mod:`~repro.kernels.bfs` — level-synchronous BFS over generated
  irregular graphs with partitioned frontier exchange.
* :mod:`~repro.kernels.divconq` — skewed recursive divide-and-conquer
  (mergesort-shaped fat tree).
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "stencil": ["ALL_DIRECTIONS", "BlockGrid", "Direction", "CORNERS", "EDGES"],
    "lk23": [
        "FLOPS_PER_POINT",
        "RELAX",
        "Lk23Arrays",
        "block_flops",
        "lk23_blocked",
        "lk23_jacobi",
        "lk23_jacobi_step",
        "lk23_reference",
        "make_arrays",
        "total_flops",
    ],
    "lk23_orwl": ["Lk23Config", "build_program", "describe"],
    "openmp": ["OpenMpConfig", "OpenMpResult", "run_openmp_lk23"],
    "wavefront": ["WavefrontConfig", "build_wavefront_program"],
    "cholesky": ["CholeskyConfig", "build_cholesky_graph"],
    "bfs": ["BfsConfig", "build_bfs_graph"],
    "divconq": ["DivConqConfig", "build_divconq_graph"],
}, submodules=["lk18"])
