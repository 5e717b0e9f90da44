"""Scaling study: where does the placement advantage saturate?

The paper's Figure 1 stops at the 24-socket × 8-core SMP.  This
experiment keeps the *per-core* workload fixed (weak scaling: every
core owns the same number of matrix cells as in the paper's best
configuration) and grows the machine through the scaling presets of
:mod:`repro.topology.presets` — 48, 96, 256 sockets, and a 512-socket
two-tier cluster-of-clusters — running all three implementations at
every size.

Deeper machines mean more of the communication lands on expensive
levels, which is exactly where topology-aware placement pays off — and
also where it must eventually saturate, once ORWL-Bind's halo traffic
is as local as the topology permits while the blind placements degrade
no further.  :meth:`ScalingResult.saturation` finds that knee.

Statistics are the powered-up matched-seed layer: every implementation
runs the *same* seed schedule at each size, so the per-size comparisons
are **paired** (sign-flip permutation tests on per-seed differences),
Cliff's delta reports the effect size next to each p-value, and
Holm–Bonferroni corrects the family of tests across the swept sizes —
one blind 5 %-level test per size would otherwise hand the sweep a
free false positive by sheer multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.exec.cache import cached_topology, machine_inputs
from repro.exec.runner import SweepRunner
from repro.experiments.fig1 import IMPLEMENTATIONS, analyze_run, run_implementation
from repro.experiments.paired import PairedSweep, collect_sweep, point_time
from repro.stats.aggregate import SeedStats
from repro.stats.sweep import ReplicateSpec, run_replicated
from repro.topology.presets import SCALING_NAMES
from repro.util.validate import ValidationError

#: The paper's best configuration, per core: 16384² cells on 192 cores.
CELLS_PER_CORE = 16384**2 // 192


@dataclass
class ScalingPoint:
    """One (preset, implementation) measurement."""

    preset: str
    implementation: str
    n_cores: int
    n: int
    time: float
    local_fraction: float
    migrations: int
    remote_bytes: float
    #: JSON dict of the point's :class:`repro.perf.PerfReport` (``None``
    #: unless run with ``perf_report=True``); a plain dict so the point
    #: pickles across sweep workers.
    perf: Optional[dict] = None


def scaling_sizes(names: Iterable[str]) -> list[tuple[str, int]]:
    """``(name, n_pus)`` for the scaling presets *names*, smallest first.

    Sizes are read off the built machines (shared through the
    construction cache); a name outside
    :data:`~repro.topology.presets.SCALING_NAMES` raises ``KeyError``.
    """
    names = list(names)
    for name in names:
        if name not in SCALING_NAMES:
            raise KeyError(
                f"unknown scaling preset {name!r}; one of {', '.join(SCALING_NAMES)}"
            )
    sized = [(name, cached_topology(name).nb_pus) for name in names]
    return sorted(sized, key=lambda pair: (pair[1], pair[0]))


def matrix_order(n_cores: int, cells_per_core: int = CELLS_PER_CORE) -> int:
    """The weak-scaling matrix order: ``isqrt(cores × cells-per-core)``.

    Fixed per-core work — at 192 cores this reproduces the paper's
    16384² configuration (to integer rounding).
    """
    if n_cores <= 0:
        raise ValidationError(f"n_cores must be > 0, got {n_cores}")
    if cells_per_core <= 0:
        raise ValidationError(f"cells_per_core must be > 0, got {cells_per_core}")
    return math.isqrt(n_cores * cells_per_core)


def run_scaling_point(
    preset: str,
    implementation: str,
    iterations: int = 3,
    cells_per_core: int = CELLS_PER_CORE,
    seed: int = 0,
    perf_report: bool = False,
) -> ScalingPoint:
    """Run one implementation on one scaling machine; returns the point.

    The machine comes from the per-process construction cache (the
    scaling presets are entries of
    :data:`repro.topology.presets.PRESETS`), one ORWL task / OpenMP
    worker per core, matrix order fixed per-core by *cells_per_core*.
    With *perf_report*, the run is traced and the point carries the
    JSON form of its :func:`repro.perf.analyze` report in ``perf``.
    """
    topo, dm = machine_inputs(preset)
    n_cores = topo.nb_pus
    n = matrix_order(n_cores, cells_per_core)
    tracer = None
    if perf_report:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    time, machine = run_implementation(
        implementation, topo, dm, n, iterations, seed, tracer
    )
    metrics = machine.metrics
    perf = None
    if perf_report:
        perf = analyze_run(
            tracer.events, f"{implementation}@{preset}", time, topo
        ).to_json_dict()

    return ScalingPoint(
        preset=preset,
        implementation=implementation,
        n_cores=n_cores,
        n=n,
        time=time,
        local_fraction=metrics.local_fraction,
        migrations=metrics.migrations,
        remote_bytes=metrics.remote_bytes,
        perf=perf,
    )


@dataclass
class ScalingResult(PairedSweep):
    """All points of a machine-size sweep plus the paired statistics.

    ``points`` holds replicate 0 of every point (the base-seed run);
    ``replicates`` all N runs per ``(preset, implementation)`` in
    replicate order — order matters, it *is* the seed pairing — and
    ``seed_stats`` the per-point time aggregates.  Rows are presets,
    columns implementations; ORWL-Bind is compared against every other
    implementation.
    """

    row_axis = "preset"
    column_axis = "implementation"
    candidate = "orwl-bind"
    family = "swept sizes"

    presets: list[str] = field(default_factory=list)
    #: preset -> core count, in sweep (ascending-size) order.
    sizes: dict[str, int] = field(default_factory=dict)
    iterations: int = 0
    cells_per_core: int = CELLS_PER_CORE
    n_seeds: int = 1
    alpha: float = 0.05
    points: list[ScalingPoint] = field(default_factory=list)
    seed_stats: dict[tuple[str, str], SeedStats] = field(default_factory=dict)
    replicates: dict[tuple[str, str], tuple[ScalingPoint, ...]] = field(
        default_factory=dict
    )

    def _rows(self) -> list[str]:
        return self.presets

    def _columns(self) -> list[str]:
        return self.implementations()

    def implementations(self) -> list[str]:
        """Swept implementations, in the figure's legend order."""
        have = {p.implementation for p in self.points}
        return [impl for impl in IMPLEMENTATIONS if impl in have]

    def speedup_curve(self, baseline: str) -> list[tuple[int, float]]:
        """(cores, bind-speedup-over-baseline) in sweep order."""
        return [
            (self.sizes[preset], self.speedup(preset, baseline))
            for preset in self.presets
        ]

    def saturation(self, baseline: str = "orwl-nobind", gain: float = 0.05) -> Optional[int]:
        """The core count where the placement advantage stops growing.

        Returns the first swept size after which the ORWL-Bind speedup
        over *baseline* no longer improves by more than *gain*
        (default 5 %), or ``None`` if it is still growing at the
        largest machine.
        """
        curve = self.speedup_curve(baseline)
        for (cores, s0), (_, s1) in zip(curve, curve[1:]):
            if s1 <= s0 * (1.0 + gain):
                return cores
        return None

    # -- rendering ---------------------------------------------------------

    def speedup_table(self) -> str:
        """The headline table: per-size times, speedups, corrected p, delta.

        Column widths are derived from the longest implementation /
        preset name, so presets with long names stay aligned.
        """
        impls = self.implementations()
        verdicts = self.paired_verdicts()
        by_key = self._by_key(verdicts)
        name_w = max([len("preset")] + [len(p) for p in self.presets])
        impl_w = max([10] + [len(i) + 7 for i in impls])
        header = f"{'preset':<{name_w}} {'cores':>6}"
        for impl in impls:
            header += f" {impl + ' mean':>{impl_w}}"
        for baseline in self._baselines():
            tag = "nobind" if baseline == "orwl-nobind" else baseline
            header += f" {'vs ' + tag:>10} {'p-corr':>8} {'delta':>7}"
        lines = [header, "-" * len(header)]
        for preset in self.presets:
            row = f"{preset:<{name_w}} {self.sizes[preset]:>6}"
            for impl in impls:
                try:
                    row += f" {self.mean_time(preset, impl):>{impl_w}.4f}"
                except KeyError:
                    row += f" {'-':>{impl_w}}"
            for baseline in self._baselines():
                row += self._verdict_cells(by_key.get((baseline, preset)), 10)
            lines.append(row)
        lines += self._verdict_footer(verdicts)
        for baseline in ("orwl-nobind", "openmp"):
            if baseline not in impls or "orwl-bind" not in impls:
                continue
            sat = self.saturation(baseline)
            tag = "NoBind" if baseline == "orwl-nobind" else "OpenMP"
            lines.append(
                f"placement advantage vs {tag}: "
                + (
                    f"saturates at {sat} cores"
                    if sat is not None
                    else "still growing at the largest swept machine"
                )
            )
        return "\n".join(lines)

    def chart(self, width: int = 64, height: int = 16) -> str:
        """ASCII chart of the ORWL-Bind speedup curves vs machine size."""
        from repro.experiments.plotting import ascii_plot

        series = {}
        for baseline in self._baselines():
            tag = "vs " + ("nobind" if baseline == "orwl-nobind" else baseline)
            series[tag] = [(float(c), s) for c, s in self.speedup_curve(baseline)]
        if not series:
            return "(no baselines to compare against)"
        return ascii_plot(
            series,
            width=width,
            height=height,
            xlabel="cores",
            ylabel="ORWL-Bind speedup (x)",
        )

    def to_json_dict(self) -> dict:
        """JSON-safe dump of the sweep (the nightly CI artifact)."""
        return {
            "format": "repro-scaling",
            "presets": list(self.presets),
            "sizes": dict(self.sizes),
            "iterations": self.iterations,
            "cells_per_core": self.cells_per_core,
            "n_seeds": self.n_seeds,
            "alpha": self.alpha,
            "points": [
                {
                    "preset": p.preset,
                    "implementation": p.implementation,
                    "cores": p.n_cores,
                    "n": p.n,
                    "time": p.time,
                    "local_fraction": p.local_fraction,
                    "migrations": p.migrations,
                    "remote_bytes": p.remote_bytes,
                    # Only perf-report runs carry the analysis; keeping
                    # the key out otherwise leaves historical dumps
                    # byte-identical.
                    **({"perf": p.perf} if p.perf is not None else {}),
                }
                for p in self.points
            ],
            **self._paired_json(),
            "saturation": {
                baseline: self.saturation(baseline) for baseline in self._baselines()
            },
        }


def run_scaling(
    presets: Sequence[str] = SCALING_NAMES,
    implementations: Sequence[str] = IMPLEMENTATIONS,
    iterations: int = 3,
    cells_per_core: int = CELLS_PER_CORE,
    seed: int = 0,
    seeds: int = 1,
    confidence: float = 0.95,
    alpha: float = 0.05,
    n_workers: int = 1,
    runner: Optional[SweepRunner] = None,
    perf_report: bool = False,
) -> ScalingResult:
    """The full machine-size sweep.

    *presets* name entries of
    :data:`repro.topology.presets.SCALING_NAMES`; they are swept in
    ascending machine size regardless of input order.  Every point is
    replicated *seeds* times with the matched schedule of
    :func:`repro.stats.run_replicated` — the same derived seeds across
    implementations, which is what makes the per-size tests paired.
    Each replicate task carries the machine's PU count as its weight,
    so the runner's chunker dispatches 4096-core points alone instead
    of queueing light points behind them.

    Each process (every pool worker included) builds a swept machine's
    distance model once, on first use.
    """
    for impl in implementations:
        if impl not in IMPLEMENTATIONS:
            raise ValidationError(
                f"unknown implementation {impl!r}; one of {IMPLEMENTATIONS}"
            )
    sized = scaling_sizes(presets)  # validates names, sorts ascending
    result = ScalingResult(
        presets=[name for name, _ in sized],
        sizes=dict(sized),
        iterations=iterations,
        cells_per_core=cells_per_core,
        n_seeds=seeds,
        alpha=alpha,
    )
    specs = [
        ReplicateSpec(
            run_scaling_point,
            dict(
                preset=preset,
                implementation=impl,
                iterations=iterations,
                cells_per_core=cells_per_core,
                perf_report=perf_report,
            ),
            key=(preset, impl),
            weight=float(n_cores),
        )
        for preset, n_cores in sized
        for impl in implementations
    ]
    sweep = run_replicated(
        specs,
        seeds=seeds,
        base_seed=seed,
        scope="scaling",
        value_of=point_time,
        confidence=confidence,
        runner=runner,
        n_workers=n_workers,
    )
    return collect_sweep(result, sweep)
