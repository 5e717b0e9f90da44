"""repro — Topology-aware placement for the ORWL task-based model.

A full Python reproduction of *"Optimizing Locality by Topology-aware
Placement for a Task Based Programming Model"* (Gustedt, Jeannot,
Mansouri — IEEE CLUSTER 2016): the ORWL runtime, an hwloc-like topology
substrate, the TreeMatch-based mapping algorithm with the paper's
oversubscription and control-thread extensions, a discrete-event NUMA
machine simulator standing in for the 192-core SMP, and the Livermore
Kernel 23 evaluation (Figure 1) with an OpenMP-like comparator.

Quick start::

    from repro import run_lk23
    result = run_lk23(topology="small-numa", policy="treematch", iterations=3)
    print(result.time, result.metrics.local_fraction)

Subpackages: :mod:`repro.topology`, :mod:`repro.comm`,
:mod:`repro.treematch`, :mod:`repro.placement`, :mod:`repro.simulate`,
:mod:`repro.orwl`, :mod:`repro.kernels`, :mod:`repro.experiments`,
:mod:`repro.core`.

Every package's public names are lazy re-exports (:func:`lazy_exports`):
importing one submodule loads that submodule and what it imports, not
the whole program.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str,
    names: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """Declare *package*'s public names, each imported on first access.

    The lazy-loading pattern of Scientific Python SPEC 1, on PEP 562
    module ``__getattr__``.  *names* maps a submodule, relative to the
    package (``"matrix"``, ``"core.api"``), to the names the package
    re-exports from it.  *submodules* are re-exported as modules.  Use::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            "matrix": ["CommMatrix"],
        }, submodules=["patterns"])

    The first access imports the submodule and binds the name on the
    package, so later accesses are plain attribute loads.  A name that
    is also the name of one of the package's submodules is bound at
    once: importing that submodule would otherwise bind the module
    object in its place.
    """
    module = sys.modules[package]
    origin: dict[str, tuple[str, str | None]] = {}
    for sub, entries in names.items():
        for attr in entries:
            origin[attr] = (sub, attr)
    for sub in submodules:
        origin[sub] = (sub, None)

    def __getattr__(name: str) -> Any:
        try:
            sub, attr = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(f"{package}.{sub}")
        if attr is not None:
            value = getattr(value, attr)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | origin.keys())

    declared = set(names) | set(submodules)
    for name, (_sub, attr) in origin.items():
        if attr is not None and name in declared:
            __getattr__(name)
    return __getattr__, __dir__, list(origin)


__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "core.api": [
        "ExperimentConfig",
        "ExperimentResult",
        "compare_policies",
        "run_lk23",
    ],
})
__all__ += ["__version__"]
