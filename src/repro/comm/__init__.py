"""Communication-matrix handling: the affinity side of placement.

* :mod:`~repro.comm.matrix` — the :class:`CommMatrix` container with the
  aggregation/permutation/extension operations Algorithm 1 needs.
* :mod:`~repro.comm.patterns` — synthetic affinity generators (2-D
  stencil, ring, all-to-all, random, clustered, butterfly).
* :mod:`~repro.comm.trace` — the runtime-side collector that turns ORWL
  handle traffic into a matrix.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "matrix": ["CommMatrix"],
    "trace": ["CommTracer"],
}, submodules=["patterns"])
