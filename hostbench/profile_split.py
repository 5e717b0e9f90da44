"""Split profiled host time by ``repro`` package.

Self time of a function in ``src/repro/<pkg>/`` goes to ``<pkg>``.
Self time of anything else — C functions such as numpy reductions and
builtins, and Python code outside the repo — goes to the ``repro``
packages that called it, found by walking the ``pstats`` caller graph
and splitting at each step in proportion to the time each caller spent
in the callee.  Time with no ``repro`` caller (the benchmark's own
loop) and ``repro`` packages outside :data:`LAYERS` land in ``other``.
Every second is charged exactly once, so the shares sum to 1.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath

#: The layers the benchmark reports; ``comm`` (affinity extraction
#: input) is charged to ``placement``.
LAYERS = (
    "topology", "kernels", "tasks", "placement", "treematch", "orwl",
    "simulate", "exec", "observe", "metrics",
)
ALIASES = {"comm": "placement"}
OTHER = "other"


def package_of(filename: str) -> str | None:
    """The layer of a source file, ``other`` for the rest of ``repro``,
    ``None`` outside ``repro``."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and i > 0 and parts[i - 1] == "src":
            name = parts[i + 1]
            name = name[:-3] if name.endswith(".py") else name
            name = ALIASES.get(name, name)
            return name if name in LAYERS else OTHER
    return None


def split(stats: pstats.Stats) -> tuple[dict[str, float], dict[str, int], float]:
    """``(self-time share, calls, total seconds)`` per layer (plus ``other``).

    Calls count only functions defined in the layer's own files.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: dict[tuple, dict[str, float]] = {}

    def owners(func: tuple, visiting: frozenset) -> dict[str, float]:
        pkg = package_of(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        callers = {
            c: v for c, v in table[func][4].items()
            if c != func and c in table and c not in visiting
        }
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(v[1]) for c, v in callers.items()}
            total = sum(weights.values())
        if total <= 0:
            out = {OTHER: 1.0}
        else:
            out: dict[str, float] = {}
            inner = visiting | {func}
            for c, wgt in weights.items():
                for pkg, share in owners(c, inner).items():
                    out[pkg] = out.get(pkg, 0.0) + share * wgt / total
        memo[func] = out
        return out

    seconds = {name: 0.0 for name in LAYERS + (OTHER,)}
    calls = {name: 0 for name in LAYERS + (OTHER,)}
    for func, (_cc, nc, tt, _ct, _callers) in table.items():
        pkg = package_of(func[0])
        if pkg is not None:
            calls[pkg] += nc
        for owner, share in owners(func, frozenset()).items():
            seconds[owner] += tt * share
    total = sum(seconds.values())
    shares = {k: (v / total if total > 0 else 0.0) for k, v in seconds.items()}
    return shares, calls, total
