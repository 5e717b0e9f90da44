"""Scaling study: where does the placement advantage saturate?

The paper's Figure 1 stops at the 24-socket × 8-core SMP.  This
experiment keeps the *per-core* workload fixed (weak scaling: every
core owns the same number of matrix cells as in the paper's best
configuration) and grows the machine through the generated presets of
:mod:`repro.topology.generate` — 48, 96, 256 sockets, and a 512-socket
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
from typing import Any, Optional, Sequence

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import machine_inputs
from repro.exec.runner import SweepRunner
from repro.experiments.fig1 import IMPLEMENTATIONS
from repro.kernels.lk23_orwl import Lk23Config, build_program
from repro.kernels.openmp import OpenMpConfig, run_openmp_lk23
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.stats.aggregate import SeedStats
from repro.stats.significance import PairedVerdict, compare_paired, correct_verdicts
from repro.stats.sweep import ReplicateSpec, run_replicated
from repro.topology.generate import scaling_sizes
from repro.util.validate import ValidationError

#: The paper's best configuration, per core: 16384² cells on 192 cores.
CELLS_PER_CORE = 16384**2 // 192

#: Default machine sizes of the sweep (ascending PU count).
DEFAULT_PRESETS = ("paper", "smp48x8", "smp96x8", "smp256x8", "smp512x8")


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
    """Run one implementation on one generated machine; returns the point.

    The machine comes from the per-process construction cache (the
    generated presets are registered in
    :data:`repro.topology.presets.PRESETS`), one ORWL task / OpenMP
    worker per core, matrix order fixed per-core by *cells_per_core*.
    With *perf_report*, the run is traced and the point carries the
    JSON form of its :func:`repro.perf.analyze` report in ``perf``.
    """
    if implementation not in IMPLEMENTATIONS:
        raise ValidationError(
            f"unknown implementation {implementation!r}; one of {IMPLEMENTATIONS}"
        )
    topo, dm = machine_inputs(preset)
    n_cores = topo.nb_pus
    n = matrix_order(n_cores, cells_per_core)
    tracer = None
    if perf_report:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    machine = Machine(topo, distance_model=dm, seed=seed, tracer=tracer)

    if implementation == "openmp":
        result = run_openmp_lk23(
            machine, OpenMpConfig(n=n, n_threads=n_cores, iterations=iterations)
        )
        metrics = result.metrics
        time = result.time
    else:
        rows, cols = square_grid_shape(n_cores)
        cfg = Lk23Config(n=n, grid_rows=rows, grid_cols=cols, iterations=iterations)
        prog = build_program(cfg)
        policy = "treematch" if implementation == "orwl-bind" else "nobind"
        plan = bind_program(prog, topo, policy=policy)
        runtime = Runtime(
            prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
        )
        run = runtime.run()
        metrics = run.metrics
        time = run.time

    perf = None
    if perf_report:
        from repro.perf import analyze
        from repro.topology.objects import ObjType

        perf = analyze(
            tracer.events,
            label=f"{implementation}@{preset}",
            measured_time=time,
            n_pus=topo.nb_pus,
            n_nodes=topo.nbobjs_by_type(ObjType.NUMANODE),
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


def _point_time(point: ScalingPoint) -> float:
    return point.time


@dataclass
class ScalingResult:
    """All points of a machine-size sweep plus the paired statistics.

    ``points`` holds replicate 0 of every point (the base-seed run);
    ``replicates`` all N runs per ``(preset, implementation)`` in
    replicate order — order matters, it *is* the seed pairing — and
    ``seed_stats`` the per-point time aggregates.
    """

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

    # -- lookups -----------------------------------------------------------

    def _missing_key_error(self, preset: str, implementation: str) -> KeyError:
        return KeyError(
            f"no point (preset={preset!r}, implementation={implementation!r}); "
            f"swept presets {self.presets or '(none)'} with implementations "
            f"{sorted({p.implementation for p in self.points}) or '(none)'}"
        )

    def point_of(self, preset: str, implementation: str) -> ScalingPoint:
        for p in self.points:
            if p.preset == preset and p.implementation == implementation:
                return p
        raise self._missing_key_error(preset, implementation)

    def times_of(self, preset: str, implementation: str) -> list[float]:
        """Replicate times in **replicate order** (the seed pairing)."""
        try:
            return [p.time for p in self.replicates[preset, implementation]]
        except KeyError:
            raise self._missing_key_error(preset, implementation) from None

    def mean_time(self, preset: str, implementation: str) -> float:
        try:
            return self.seed_stats[preset, implementation].mean
        except KeyError:
            raise self._missing_key_error(preset, implementation) from None

    def implementations(self) -> list[str]:
        """Swept implementations, in the figure's legend order."""
        have = {p.implementation for p in self.points}
        return [impl for impl in IMPLEMENTATIONS if impl in have]

    # -- paired significance ----------------------------------------------

    def paired_verdicts(self) -> dict[str, list[tuple[str, PairedVerdict]]]:
        """Matched-seed ORWL-Bind comparisons, Holm-corrected per family.

        For each baseline implementation, the family of paired tests is
        "ORWL-Bind vs this baseline at every swept size"; the
        Holm–Bonferroni correction runs across that family, so each
        returned :class:`PairedVerdict` carries both its raw and
        corrected p-value.  Keys are baseline names; values are
        ``(preset, verdict)`` pairs in sweep order.
        """
        impls = self.implementations()
        if "orwl-bind" not in impls:
            return {}
        out: dict[str, list[tuple[str, PairedVerdict]]] = {}
        for baseline in impls:
            if baseline == "orwl-bind":
                continue
            family = [
                compare_paired(
                    baseline,
                    self.times_of(preset, baseline),
                    "orwl-bind",
                    self.times_of(preset, "orwl-bind"),
                    alpha=self.alpha,
                )
                for preset in self.presets
            ]
            out[baseline] = list(zip(self.presets, correct_verdicts(family)))
        return out

    def speedup(self, preset: str, baseline: str) -> float:
        """Mean-time speedup of ORWL-Bind over *baseline* at one size."""
        return self.mean_time(preset, baseline) / self.mean_time(preset, "orwl-bind")

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
        preset name, so generated presets with long names stay aligned.
        """
        impls = self.implementations()
        verdicts = self.paired_verdicts()
        by_key = {
            (baseline, preset): v
            for baseline, rows in verdicts.items()
            for preset, v in rows
        }
        name_w = max([len("preset")] + [len(p) for p in self.presets])
        impl_w = max([10] + [len(i) + 7 for i in impls])
        header = f"{'preset':<{name_w}} {'cores':>6}"
        for impl in impls:
            header += f" {impl + ' mean':>{impl_w}}"
        for baseline in impls:
            if baseline == "orwl-bind":
                continue
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
            for baseline in impls:
                if baseline == "orwl-bind":
                    continue
                v = by_key.get((baseline, preset))
                if v is None:
                    row += f" {'-':>10} {'-':>8} {'-':>7}"
                    continue
                mark = "*" if v.significant else " "
                p = f"{v.p_corrected:.4f}" if v.p_corrected is not None else "n/a"
                row += f" {f'{v.speedup_mean:.2f}x{mark}':>10} {p:>8} {v.delta:>+7.2f}"
            lines.append(row)
        if self.n_seeds > 1:
            lines.append("")
            lines.append(
                f"paired sign-flip permutation tests over {self.n_seeds} matched "
                f"seeds; p-values Holm-Bonferroni-corrected across the "
                f"{len(self.presets)} swept sizes; * = significant at "
                f"alpha={self.alpha:g}; delta = Cliff's effect size."
            )
            for baseline, rows in verdicts.items():
                for preset, v in rows:
                    lines.append(f"  [{preset}] {v}")
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

        impls = self.implementations()
        series = {}
        for baseline in impls:
            if baseline == "orwl-bind":
                continue
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
        verdicts = self.paired_verdicts()
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
            "stats": [
                {
                    "preset": preset,
                    "implementation": impl,
                    "n": s.n,
                    "mean": s.mean,
                    "median": s.median,
                    "stddev": s.stddev,
                    "ci_lo": s.ci_lo,
                    "ci_hi": s.ci_hi,
                    "confidence": s.confidence,
                }
                for (preset, impl), s in sorted(self.seed_stats.items())
            ],
            "paired_significance": [
                {
                    "preset": preset,
                    "baseline": v.baseline,
                    "candidate": v.candidate,
                    "n_pairs": v.n_pairs,
                    "speedup_mean": v.speedup_mean,
                    "speedup_ci": [v.speedup_ci_lo, v.speedup_ci_hi],
                    "delta": v.delta,
                    "effect": v.effect_label,
                    "p_value": v.p_value,
                    "p_corrected": v.p_corrected,
                    "verdict": v.verdict,
                    "method": v.method,
                }
                for rows in verdicts.values()
                for preset, v in rows
            ],
            "saturation": {
                baseline: self.saturation(baseline)
                for baseline in self.implementations()
                if baseline != "orwl-bind"
            },
        }


def run_scaling(
    presets: Sequence[str] = DEFAULT_PRESETS,
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
    point_cache: Any = None,
) -> ScalingResult:
    """The full machine-size sweep.

    *presets* name entries of
    :data:`repro.topology.generate.SCALING_SPECS`; they are swept in
    ascending machine size regardless of input order.  Every point is
    replicated *seeds* times with the matched schedule of
    :func:`repro.stats.run_replicated` — the same derived seeds across
    implementations, which is what makes the per-size tests paired.
    Each replicate task carries the machine's PU count as its weight,
    so the runner's chunker dispatches 4096-core points alone instead
    of queueing light points behind them.

    Each process (every pool worker included) builds a swept machine's
    distance model once, on first use.  *point_cache* follows
    :func:`repro.exec.cache.resolve_point_cache` (``None`` = the
    environment default, ``False`` = off), making nightly re-runs
    incremental.
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
            label=f"{impl}@{preset}",
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
        value_of=_point_time,
        confidence=confidence,
        runner=runner,
        n_workers=n_workers,
        point_cache=point_cache,
    )
    for point in sweep.points:
        result.points.append(point.first)
        result.replicates[point.key] = tuple(point.results)
        if point.stats is not None:
            result.seed_stats[point.key] = point.stats
    return result
