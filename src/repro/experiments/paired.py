"""The shared core of the replicated sweep results.

Every sweep of the experiment layer runs its points through
:func:`repro.stats.run_replicated`; :func:`collect_sweep` turns that
into a result's ``points`` / ``replicates`` / ``seed_stats``.

:class:`PairedSweep` is what the matched-seed sweeps (E7 DAGs in
:mod:`repro.experiments.dag`, the machine-size sweep in
:mod:`repro.experiments.scaling`) have in common: a grid of rows
(workloads, machine sizes) x columns (policies, implementations),
keyed ``(row, column)``, where every column replays the same seed
schedule per row.  One candidate column is compared against each other
column with paired sign-flip permutation tests, Holm-Bonferroni
corrected across the rows.  The subclass names its axes and candidate
as data (class attributes) and supplies the row and column lists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, ClassVar, Optional

if TYPE_CHECKING:
    # The statistics are imported where they are computed, so a module
    # that only subclasses PairedSweep (a point runner's) stays light.
    from repro.stats.aggregate import SeedStats
    from repro.stats.significance import PairedVerdict
    from repro.stats.sweep import ReplicatedSweep

#: ``baseline -> [(row, verdict), ...]`` in row order.
Verdicts = dict[str, list[tuple[str, "PairedVerdict"]]]


def point_time(point: Any) -> float:
    """``value_of`` extractor of the replicated sweeps: the point's time."""
    return point.time


def collect_sweep(result: Any, sweep: ReplicatedSweep) -> Any:
    """Fill *result* from *sweep*; returns *result*.

    ``points`` gets replicate 0 of every point (the base-seed run),
    ``replicates`` all runs per key in replicate order, ``seed_stats``
    the per-key aggregates.
    """
    for point in sweep.points:
        result.points.append(point.first)
        result.replicates[point.key] = tuple(point.results)
        if point.stats is not None:
            result.seed_stats[point.key] = point.stats
    return result


class PairedSweep:
    """Lookups, paired verdicts and JSON sections of a paired sweep.

    Subclasses are dataclasses with ``points``, ``replicates``,
    ``seed_stats``, ``n_seeds`` and ``alpha`` fields; points carry
    their row and column as the attributes named by :attr:`row_axis`
    and :attr:`column_axis`.
    """

    #: Point attribute and JSON key of a row (e.g. ``"workload"``).
    row_axis: ClassVar[str]
    #: Point attribute and JSON key of a column (e.g. ``"policy"``).
    column_axis: ClassVar[str]
    #: The column compared against every other one.
    candidate: ClassVar[str]
    #: How the table footer names the rows (e.g. ``"swept sizes"``).
    family: ClassVar[str]

    points: list
    replicates: dict
    seed_stats: dict[tuple[str, str], SeedStats]
    n_seeds: int
    alpha: float

    def _rows(self) -> list[str]:
        raise NotImplementedError

    def _columns(self) -> list[str]:
        raise NotImplementedError

    def _baselines(self) -> list[str]:
        return [c for c in self._columns() if c != self.candidate]

    # -- lookups -----------------------------------------------------------

    def _missing_key_error(self, row: str, column: str) -> KeyError:
        return KeyError(
            f"no point ({self.row_axis}={row!r}, {self.column_axis}={column!r}); "
            f"swept {self._rows() or '(none)'} x {self._columns() or '(none)'}"
        )

    def point_of(self, row: str, column: str) -> Any:
        """Replicate 0 of one point."""
        for p in self.points:
            if getattr(p, self.row_axis) == row and getattr(p, self.column_axis) == column:
                return p
        raise self._missing_key_error(row, column)

    def times_of(self, row: str, column: str) -> list[float]:
        """Replicate times in **replicate order** (the seed pairing)."""
        try:
            return [p.time for p in self.replicates[row, column]]
        except KeyError:
            raise self._missing_key_error(row, column) from None

    def mean_time(self, row: str, column: str) -> float:
        try:
            return self.seed_stats[row, column].mean
        except KeyError:
            raise self._missing_key_error(row, column) from None

    # -- paired significance ----------------------------------------------

    def paired_verdicts(self) -> Verdicts:
        """Matched-seed candidate comparisons, Holm-corrected per baseline.

        For each baseline column the family is "candidate vs this
        baseline on every swept row"; Holm-Bonferroni runs across that
        family, so each :class:`PairedVerdict` carries both its raw and
        corrected p-value.  Keys are baseline names, values
        ``(row, verdict)`` pairs in row order.
        """
        from repro.stats.significance import compare_paired, correct_verdicts

        if self.candidate not in self._columns():
            return {}
        rows = self._rows()
        out: Verdicts = {}
        for baseline in self._baselines():
            family = [
                compare_paired(
                    baseline,
                    self.times_of(row, baseline),
                    self.candidate,
                    self.times_of(row, self.candidate),
                    alpha=self.alpha,
                )
                for row in rows
            ]
            out[baseline] = list(zip(rows, correct_verdicts(family)))
        return out

    def speedup(self, row: str, baseline: str) -> float:
        """Mean-time speedup of the candidate over *baseline* on one row."""
        return self.mean_time(row, baseline) / self.mean_time(row, self.candidate)

    # -- rendering ---------------------------------------------------------

    @staticmethod
    def _by_key(verdicts: Verdicts) -> dict[tuple[str, str], PairedVerdict]:
        """``(baseline, row) -> verdict``."""
        return {
            (baseline, row): v for baseline, rows in verdicts.items() for row, v in rows
        }

    @staticmethod
    def _verdict_cells(v: Optional[PairedVerdict], width: int) -> str:
        """The speedup / corrected-p / delta cells of one table row."""
        if v is None:
            return f" {'-':>{width}} {'-':>8} {'-':>7}"
        mark = "*" if v.significant else " "
        p = f"{v.p_corrected:.4f}" if v.p_corrected is not None else "n/a"
        return f" {f'{v.speedup_mean:.2f}x{mark}':>{width}} {p:>8} {v.delta:>+7.2f}"

    def _verdict_footer(self, verdicts: Verdicts) -> list[str]:
        """The multi-seed method note and every verdict (empty for one seed)."""
        if self.n_seeds <= 1:
            return []
        lines = [
            "",
            f"paired sign-flip permutation tests over {self.n_seeds} matched "
            f"seeds; p-values Holm-Bonferroni-corrected across the "
            f"{len(self._rows())} {self.family}; * = significant at "
            f"alpha={self.alpha:g}; delta = Cliff's effect size.",
        ]
        for rows in verdicts.values():
            for row, v in rows:
                lines.append(f"  [{row}] {v}")
        return lines

    def _paired_json(self) -> dict:
        """The ``stats`` and ``paired_significance`` sections of the dump."""
        verdicts = self.paired_verdicts()
        return {
            "stats": [
                {
                    self.row_axis: row,
                    self.column_axis: column,
                    "n": s.n,
                    "mean": s.mean,
                    "median": s.median,
                    "stddev": s.stddev,
                    "ci_lo": s.ci_lo,
                    "ci_hi": s.ci_hi,
                    "confidence": s.confidence,
                }
                for (row, column), s in sorted(self.seed_stats.items())
            ],
            "paired_significance": [
                {
                    self.row_axis: row,
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
                for row, v in rows
            ],
        }
