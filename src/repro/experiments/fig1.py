"""Figure 1 reproduction: LK23 processing time, three implementations.

The paper's only figure compares the processing time of three LK23
implementations on the 24-socket × 8-core SMP as the run scales: ORWL
with the topology-aware binding (ORWL-Bind), ORWL left to the OS
scheduler (ORWL-NoBind), and the fork-join OpenMP port.  The text
reports, at the best configuration: ~11 s for ORWL-Bind, a ≈5× speedup
over OpenMP, and ≈2.8× over ORWL-NoBind.

:func:`run_fig1` sweeps core counts (whole sockets at a time, like the
paper's machine partitioning) and runs all three implementations per
point on the simulated machine.  One task per core for ORWL (the
paper's configuration: 192 blocks on 192 cores), one worker per core
for OpenMP.

The result object renders the figure's data as a text table and checks
the three scalar claims as factor bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.comm.patterns import square_grid_shape
from repro.exec.cache import cached_lk23_program, machine_inputs
from repro.kernels.lk23_orwl import Lk23Config
from repro.kernels.openmp import OpenMpConfig, run_openmp_lk23
from repro.orwl.runtime import Runtime
from repro.placement.binder import bind_program
from repro.simulate.machine import Machine
from repro.util.validate import ValidationError

if TYPE_CHECKING:
    # The sweep and statistics layer is imported by the functions that
    # use it, so running a single point does not load it.
    from repro.exec.runner import SweepRunner
    from repro.observe.tracer import Tracer
    from repro.perf.report import PerfReport
    from repro.stats.aggregate import SeedStats
    from repro.stats.significance import SpeedupVerdict
    from repro.topology.distance import DistanceModel
    from repro.topology.tree import Topology

#: The implementations of the figure, in its legend order.
IMPLEMENTATIONS = ("orwl-bind", "orwl-nobind", "openmp")

#: Socket width of the paper's SMP; a swept core count must be whole
#: sockets of it.
CORES_PER_SOCKET = 8


def run_implementation(
    implementation: str,
    topo: "Topology",
    distance_model: "DistanceModel",
    n: int,
    iterations: int,
    seed: int,
    tracer: Optional["Tracer"] = None,
) -> tuple[float, Machine]:
    """Run LK23 as one of :data:`IMPLEMENTATIONS` on one machine.

    One OpenMP worker or ORWL task per PU of *topo*, on an *n* x *n*
    matrix for *iterations* sweeps.  ORWL-Bind places its tasks with
    TreeMatch, ORWL-NoBind leaves them to the OS scheduler; both run
    the one LK23 program of their configuration that this process
    keeps (:func:`repro.exec.cache.cached_lk23_program`).  Returns
    the simulated time and the machine it ran on (its counters are
    ``machine.metrics``; with *tracer*, its events are
    ``tracer.events``).  Every LK23 point of the experiments and of
    ``repro.tools.perf`` runs through here.
    """
    if implementation not in IMPLEMENTATIONS:
        raise ValidationError(
            f"unknown implementation {implementation!r}; one of {IMPLEMENTATIONS}"
        )
    machine = Machine(topo, distance_model=distance_model, seed=seed, tracer=tracer)
    n_cores = topo.nb_pus
    if implementation == "openmp":
        result = run_openmp_lk23(
            machine, OpenMpConfig(n=n, n_threads=n_cores, iterations=iterations)
        )
        return result.time, machine
    rows, cols = square_grid_shape(n_cores)
    prog = cached_lk23_program(
        Lk23Config(n=n, grid_rows=rows, grid_cols=cols, iterations=iterations)
    )
    policy = "treematch" if implementation == "orwl-bind" else "nobind"
    plan = bind_program(prog, topo, policy=policy)
    runtime = Runtime(
        prog, machine, mapping=plan.mapping, control_mapping=plan.control_mapping
    )
    return runtime.run().time, machine


def analyze_run(
    events: Sequence, label: str, measured_time: float, topo: "Topology"
) -> "PerfReport":
    """The :func:`repro.perf.analyze` report of one traced run on *topo*.

    Utilization and the NUMA traffic matrix are sized by the
    topology's PU and NUMA-node counts.
    """
    from repro.perf.report import analyze
    from repro.topology.objects import ObjType

    return analyze(
        events,
        label=label,
        measured_time=measured_time,
        n_pus=topo.nb_pus,
        n_nodes=topo.nbobjs_by_type(ObjType.NUMANODE),
    )


@dataclass
class Fig1Point:
    """One (implementation, core count) measurement."""

    implementation: str
    n_cores: int
    time: float
    local_fraction: float
    migrations: int
    remote_bytes: float
    #: sha-256 determinism fingerprint of the traced run (empty unless
    #: the point was run with ``fingerprint=True``); lets serial and
    #: parallel sweeps be compared bit-exactly, see tests/test_exec.py.
    fingerprint: str = ""
    #: JSON dict of the point's :class:`repro.perf.PerfReport` (``None``
    #: unless run with ``perf_report=True``).  Stored as a plain dict so
    #: the point stays picklable across sweep workers; rebuild the
    #: report object with :meth:`repro.perf.PerfReport.from_json_dict`.
    perf: Optional[dict] = None


@dataclass
class Fig1Result:
    """All points of the sweep plus the paper-claim checks.

    With a multi-seed sweep (``run_fig1(..., seeds=N)``), ``points``
    holds replicate 0 of every point — the base-seed run, bit-identical
    to the historical single-seed sweep — while ``replicates`` keeps all
    N :class:`Fig1Point` per ``(implementation, n_cores)`` key and
    ``seed_stats`` their per-point time aggregates.
    """

    points: list[Fig1Point] = field(default_factory=list)
    iterations: int = 0
    n: int = 0
    #: Replicates per sweep point (``run_fig1`` with ``seeds=N``).
    n_seeds: int = 1
    #: ``(implementation, n_cores) -> SeedStats`` over replicate times.
    seed_stats: dict[tuple[str, int], SeedStats] = field(default_factory=dict)
    #: ``(implementation, n_cores) -> all replicate points`` (replicate 0
    #: first; identical to the matching ``points`` entry).
    replicates: dict[tuple[str, int], tuple[Fig1Point, ...]] = field(
        default_factory=dict
    )

    def _missing_key_error(self, implementation: str, n_cores: int) -> KeyError:
        have_impls = sorted({p.implementation for p in self.points})
        have_cores = sorted({p.n_cores for p in self.points})
        return KeyError(
            f"no point (implementation={implementation!r}, n_cores={n_cores}); "
            f"swept implementations {have_impls or '(none)'} "
            f"at core counts {have_cores or '(none)'}"
        )

    def time_of(self, implementation: str, n_cores: int) -> float:
        try:
            return self._index()[implementation, n_cores]
        except KeyError:
            raise self._missing_key_error(implementation, n_cores) from None

    def stats_of(self, implementation: str, n_cores: int) -> SeedStats:
        """The :class:`SeedStats` of one point's replicate times."""
        try:
            return self.seed_stats[implementation, n_cores]
        except KeyError:
            raise self._missing_key_error(implementation, n_cores) from None

    def times_of(self, implementation: str, n_cores: int) -> tuple[float, ...]:
        """All replicate times of one point (sorted ascending)."""
        return self.stats_of(implementation, n_cores).values

    def _index(self) -> dict[tuple[str, int], float]:
        """``(implementation, n_cores) -> time``, built once per points size.

        ``points`` is a public list that callers append to, so the index
        is rebuilt whenever the length changes; like the linear scan it
        replaces, the *first* point wins on duplicates.  Rendering a
        table calls :meth:`time_of` per cell, which made the old scan
        quadratic in sweep size.
        """
        cached = self.__dict__.get("_time_index")
        if cached is None or self.__dict__.get("_time_index_len") != len(self.points):
            cached = {}
            for p in self.points:
                cached.setdefault((p.implementation, p.n_cores), p.time)
            self.__dict__["_time_index"] = cached
            self.__dict__["_time_index_len"] = len(self.points)
        return cached

    def series(self, implementation: str) -> list[tuple[int, float]]:
        """(cores, time) pairs of one curve, sorted by cores."""
        pts = [
            (p.n_cores, p.time)
            for p in self.points
            if p.implementation == implementation
        ]
        return sorted(pts)

    def core_counts(self) -> list[int]:
        return sorted({p.n_cores for p in self.points})

    def best_time(self, implementation: str) -> tuple[int, float]:
        """(cores, time) of the implementation's fastest point."""
        series = self.series(implementation)
        if not series:
            raise KeyError(
                f"no points for implementation={implementation!r}; swept "
                f"implementations {sorted({p.implementation for p in self.points}) or '(none)'}"
            )
        return min(series, key=lambda cv: cv[1])

    # -- multi-seed statistics (populated by ``run_fig1(..., seeds=N)``) ---

    def mean_series(self, implementation: str) -> list[tuple[int, SeedStats]]:
        """(cores, SeedStats) pairs of one curve, sorted by cores."""
        return sorted(
            (c, s) for (impl, c), s in self.seed_stats.items()
            if impl == implementation
        )

    def best_mean(self, implementation: str) -> tuple[int, SeedStats]:
        """(cores, SeedStats) of the point with the lowest mean time."""
        series = self.mean_series(implementation)
        if not series:
            raise KeyError(
                f"no seed statistics for implementation={implementation!r}; "
                "run the sweep with seeds >= 1 via run_fig1()"
            )
        return min(series, key=lambda cs: cs[1].mean)

    def speedup_verdicts(self, alpha: float = 0.05) -> list[SpeedupVerdict]:
        """Pairwise best-point speedup comparisons with significance.

        Compares ORWL-Bind (the paper's winner) against every other
        swept implementation at each side's best-mean core count —
        the multi-seed version of :meth:`speedup_vs_openmp` /
        :meth:`speedup_vs_nobind`.  With a single seed per point the
        verdict is ``insufficient-data``: one run supports no inference,
        which is precisely the caveat on the paper's Figure 1.
        """
        from repro.stats.significance import compare

        have = {impl for impl, _ in self.seed_stats}
        if "orwl-bind" not in have:
            return []
        _, bind = self.best_mean("orwl-bind")
        out = []
        for impl in IMPLEMENTATIONS:
            if impl == "orwl-bind" or impl not in have:
                continue
            _, other = self.best_mean(impl)
            out.append(
                compare(
                    impl, other.values, "orwl-bind", bind.values,
                    alpha=alpha, confidence=bind.confidence,
                )
            )
        return out

    def stats_table(self) -> str:
        """Per-point mean / stddev / CI as an aligned text table."""
        if not self.seed_stats:
            return "(no seed statistics; run with seeds >= 1)"
        level = next(iter(self.seed_stats.values())).confidence
        impl_w = max(
            [len("implementation")] + [len(impl) for impl, _ in self.seed_stats]
        )
        header = (
            f"{'cores':>6} {'implementation':<{impl_w}} {'n':>3} {'mean':>10} "
            f"{'stddev':>10} {f'{level:.0%} CI':>24}"
        )
        lines = [header, "-" * len(header)]
        for c in self.core_counts():
            for impl in IMPLEMENTATIONS:
                s = self.seed_stats.get((impl, c))
                if s is None:
                    continue
                lines.append(
                    f"{c:>6} {impl:<{impl_w}} {s.n:>3} {s.mean:>10.4f} "
                    f"{s.stddev:>10.4f} "
                    f"{f'[{s.ci_lo:.4f}, {s.ci_hi:.4f}]':>24}"
                )
        verdicts = self.speedup_verdicts()
        if verdicts:
            lines.append("")
            for v in verdicts:
                lines.append(str(v))
        return "\n".join(lines)

    # -- the paper's scalar claims ----------------------------------------

    def speedup_vs_openmp(self) -> float:
        """Best-point speedup of ORWL-Bind over OpenMP (paper: ≈5)."""
        return self.best_time("openmp")[1] / self.best_time("orwl-bind")[1]

    def speedup_vs_nobind(self) -> float:
        """Best-point speedup of ORWL-Bind over ORWL-NoBind (paper: ≈2.8)."""
        return self.best_time("orwl-nobind")[1] / self.best_time("orwl-bind")[1]

    def speedup_curve(self, implementation: str) -> list[tuple[int, float]]:
        """(cores, speedup-vs-smallest-point) for one implementation."""
        series = self.series(implementation)
        if not series:
            return []
        base_cores, base_time = series[0]
        return [(c, base_time / t) for c, t in series]

    def efficiency(self, implementation: str, n_cores: int) -> float:
        """Strong-scaling efficiency at *n_cores*: speedup / ideal.

        Ideal speedup from the smallest measured core count is
        ``n_cores / smallest``; 1.0 = perfect scaling.
        """
        series = self.series(implementation)
        if not series:
            raise KeyError(f"no points for {implementation}")
        base_cores, base_time = series[0]
        t = self.time_of(implementation, n_cores)
        return (base_time / t) / (n_cores / base_cores)

    def openmp_scaling_stalls_after(self) -> Optional[int]:
        """Core count beyond which adding cores stops helping OpenMP.

        The paper's claim C4: "as soon as we scale beyond one or two
        sockets, standard approaches ... fail [to] improve performance."
        Returns the last core count at which OpenMP still improved by
        more than 5 %, or ``None`` if it never stalls within the sweep.
        """
        series = self.series("openmp")
        for (c0, t0), (_, t1) in zip(series, series[1:]):
            if t1 > t0 * 0.95:
                return c0
        return None

    def table(self, show_efficiency: bool = False) -> str:
        """The figure's data as an aligned text table.

        With *show_efficiency*, each cell also shows the strong-scaling
        efficiency relative to the smallest core count.
        """
        cores = self.core_counts()
        # Column width follows the longest implementation name; efficiency
        # cells carry a 6-char "(xxx%)" suffix on top of the time.
        width = max([12] + [len(impl) for impl in IMPLEMENTATIONS])
        if show_efficiency:
            width = max(width, 14)
        header = f"{'cores':>6} | " + " | ".join(
            f"{impl:>{width}}" for impl in IMPLEMENTATIONS
        )
        lines = [header, "-" * len(header)]
        for c in cores:
            cells = []
            for impl in IMPLEMENTATIONS:
                try:
                    cell = f"{self.time_of(impl, c):{width}.4f}"
                    if show_efficiency:
                        cell = (
                            f"{self.time_of(impl, c):{width - 6}.4f}"
                            f"({self.efficiency(impl, c):4.0%})"
                        )
                except KeyError:
                    cell = f"{'-':>{width}}"
                cells.append(cell)
            lines.append(f"{c:>6} | " + " | ".join(cells))
        # Summary lines need all three implementations to be present.
        have = {p.implementation for p in self.points}
        if set(IMPLEMENTATIONS) <= have:
            lines.append("")
            lines.append(
                f"best ORWL-Bind: {self.best_time('orwl-bind')[1]:.4f}s "
                f"at {self.best_time('orwl-bind')[0]} cores"
            )
            lines.append(
                f"speedup vs OpenMP: {self.speedup_vs_openmp():.2f}x (paper ~5)"
            )
            lines.append(
                f"speedup vs ORWL-NoBind: {self.speedup_vs_nobind():.2f}x (paper ~2.8)"
            )
            stall = self.openmp_scaling_stalls_after()
            lines.append(
                "OpenMP stops scaling after "
                + (f"{stall} cores" if stall is not None else "the sweep (never stalled)")
            )
        return "\n".join(lines)


def run_point(
    implementation: str,
    n_cores: int,
    iterations: int = 5,
    n: int = 16384,
    cores_per_socket: int = CORES_PER_SOCKET,
    seed: int = 0,
    fingerprint: bool = False,
    perf_report: bool = False,
) -> Fig1Point:
    """Run one implementation at one core count; returns the point.

    With *fingerprint*, the run is traced and the point carries its
    :func:`repro.observe.determinism.run_fingerprint` — the cheap way to
    assert two sweeps (e.g. serial vs parallel) did bit-identical work.
    With *perf_report*, the run is traced and the point carries the
    JSON form of its :func:`repro.perf.analyze` report in ``perf``.
    """
    if n_cores % cores_per_socket != 0:
        raise ValidationError(
            f"core count {n_cores} must be whole sockets of {cores_per_socket}"
        )
    # Topology and distance model come from the per-process cache: every
    # point at the same core count (and every worker process re-running
    # the preset) shares one immutable instance instead of re-deriving
    # the O(P²) distance table.
    topo, dm = machine_inputs(
        "paper-smp", n_cores // cores_per_socket, cores_per_socket
    )
    tracer = None
    if fingerprint or perf_report:
        from repro.observe.tracer import Tracer

        tracer = Tracer()
    time, machine = run_implementation(
        implementation, topo, dm, n, iterations, seed, tracer
    )
    metrics = machine.metrics

    fp = ""
    if fingerprint:
        from repro.observe.determinism import run_fingerprint

        fp = run_fingerprint(machine)

    perf = None
    if perf_report:
        perf = analyze_run(
            tracer.events, f"{implementation}@{n_cores}", time, topo
        ).to_json_dict()

    return Fig1Point(
        implementation=implementation,
        n_cores=n_cores,
        time=float(time),
        local_fraction=metrics.local_fraction,
        migrations=metrics.migrations,
        remote_bytes=metrics.remote_bytes,
        fingerprint=fp,
        perf=perf,
    )


def run_fig1(
    core_counts: Sequence[int] = (8, 16, 32, 64, 96, 192),
    iterations: int = 5,
    n: int = 16384,
    implementations: Sequence[str] = IMPLEMENTATIONS,
    seed: int = 0,
    n_workers: int = 1,
    fingerprint: bool = False,
    perf_report: bool = False,
    runner: Optional[SweepRunner] = None,
    seeds: int = 1,
    confidence: float = 0.95,
) -> Fig1Result:
    """The full Figure-1 sweep.

    *iterations* defaults to 5 rather than the paper's 100: the
    simulated per-sweep time is steady after the first round, so the
    curve shape is iteration-count-invariant while the harness stays
    fast.  Scale it up to match the paper's absolute workload.

    Every point is an independent seeded simulation, so the sweep fans
    out over a :class:`repro.exec.SweepRunner` — *n_workers* ``1`` is the
    in-process reference path, ``0`` uses all host cores; results are in
    the same (core count, implementation) order either way and
    bit-identical across worker counts.  Pass a pre-configured *runner*
    (progress callbacks, crash policy) to override *n_workers*.

    *seeds* replicates every point that many times: replicate 0 runs
    with *seed* unchanged (so ``seeds=1`` is bit-identical to the
    historical single-run sweep), replicate r > 0 with
    ``derive_seed(seed, "fig1", implementation, n_cores, r)``.  The
    result then carries per-point :class:`~repro.stats.SeedStats` at
    *confidence* plus all replicate points — see
    :meth:`Fig1Result.stats_table` and
    :meth:`Fig1Result.speedup_verdicts`.
    """
    from repro.experiments.paired import collect_sweep, point_time
    from repro.stats.sweep import ReplicateSpec, run_replicated

    result = Fig1Result(iterations=iterations, n=n, n_seeds=seeds)
    specs = [
        ReplicateSpec(
            run_point,
            dict(
                implementation=impl,
                n_cores=c,
                iterations=iterations,
                n=n,
                fingerprint=fingerprint,
                perf_report=perf_report,
            ),
            key=(impl, c),
        )
        for c in core_counts
        for impl in implementations
    ]
    sweep = run_replicated(
        specs,
        seeds=seeds,
        base_seed=seed,
        scope="fig1",
        value_of=point_time,
        confidence=confidence,
        runner=runner,
        n_workers=n_workers,
    )
    return collect_sweep(result, sweep)
