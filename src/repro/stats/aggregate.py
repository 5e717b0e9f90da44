"""Per-point seed statistics: mean / median / stddev / bootstrap CI.

One :class:`SeedStats` summarizes the N replicate measurements of a
single sweep point.  Everything here is deterministic and *seed-order
invariant*: the replicate values are sorted before any arithmetic, and
the bootstrap resampler uses a fixed internal stream, so the same
multiset of values produces the same bits regardless of the order the
replicates finished in (serial vs parallel sweeps hand them over in
different internal orders only on the wire — the runner re-orders — but
the invariance is pinned by tests anyway).

The confidence interval is the percentile bootstrap of the mean,
widened (if necessary) to include the sample mean itself, so "the CI
contains the point estimate" is an invariant callers may rely on.  With
a single replicate the interval degenerates to ``[mean, mean]`` and the
stddev is 0 — aggregating N=1 is exactly the single-run number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.validate import ValidationError

#: Fixed stream for the bootstrap resampler.  A constant (not a knob):
#: the CI of a given sample must be a pure function of the sample.
_BOOTSTRAP_SEED = 20160926  # the paper's CLUSTER 2016 week

#: Default resample count; 2000 keeps the quantile noise well under the
#: run-to-run spread it measures while staying sub-millisecond for the
#: replicate counts sweeps use (N <= a few dozen).
DEFAULT_N_BOOT = 2000


@dataclass(frozen=True)
class SeedStats:
    """Summary of the replicate values of one sweep point.

    Attributes
    ----------
    n:
        Number of replicates.
    mean, median, stddev:
        Sample statistics (stddev is the n-1 sample estimate; 0.0 when
        ``n == 1``).
    ci_lo, ci_hi:
        Bootstrap percentile CI of the mean at *confidence*, widened to
        contain :attr:`mean`.  Equal to the mean when ``n == 1``.
    confidence:
        The confidence level the interval was computed at.
    values:
        The replicate values, sorted ascending — the raw material for
        pairwise significance tests.
    """

    n: int
    mean: float
    median: float
    stddev: float
    ci_lo: float
    ci_hi: float
    confidence: float
    values: tuple[float, ...]

    @property
    def ci(self) -> tuple[float, float]:
        return (self.ci_lo, self.ci_hi)

    def overlaps(self, other: "SeedStats") -> bool:
        """Whether the two confidence intervals intersect."""
        return self.ci_lo <= other.ci_hi and other.ci_lo <= self.ci_hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.mean:.4f} ±{self.stddev:.4f} "
            f"[{self.ci_lo:.4f}, {self.ci_hi:.4f}] (n={self.n})"
        )


def summarize(
    values: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = DEFAULT_N_BOOT,
) -> SeedStats:
    """Aggregate replicate *values* into a :class:`SeedStats`.

    Deterministic and order-invariant: any permutation of *values*
    yields bit-identical output.
    """
    if len(values) == 0:
        raise ValidationError("cannot summarize zero replicate values")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must be in (0, 1), got {confidence}")
    if n_boot <= 0:
        raise ValidationError(f"n_boot must be > 0, got {n_boot}")
    vals = np.sort(np.asarray(values, dtype=float))
    n = int(vals.size)
    mean = float(vals.mean())
    median = float(np.median(vals))
    if n == 1:
        return SeedStats(
            n=1, mean=mean, median=median, stddev=0.0,
            ci_lo=mean, ci_hi=mean, confidence=confidence,
            values=(float(vals[0]),),
        )
    stddev = float(vals.std(ddof=1))
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    idx = rng.integers(0, n, size=(n_boot, n))
    boot_means = vals[idx].mean(axis=1)
    alpha = 1.0 - confidence
    lo = float(np.quantile(boot_means, alpha / 2.0))
    hi = float(np.quantile(boot_means, 1.0 - alpha / 2.0))
    return SeedStats(
        n=n, mean=mean, median=median, stddev=stddev,
        ci_lo=min(lo, mean), ci_hi=max(hi, mean), confidence=confidence,
        values=tuple(float(v) for v in vals),
    )


def summarize_map(
    rows: Sequence[dict],
    confidence: float = 0.95,
    n_boot: int = DEFAULT_N_BOOT,
) -> dict[str, SeedStats]:
    """Aggregate replicate *metric dicts* key by key.

    *rows* are flat ``{metric name -> value}`` dicts, one per replicate
    (e.g. :meth:`repro.perf.PerfReport.summary` across seeds).  Only
    keys present in **every** row are aggregated — a metric missing from
    one replicate (a bucket that never occurred under that seed) has no
    defensible fill value, so it is dropped rather than silently
    zero-padded.  Keys come back sorted; inherits :func:`summarize`'s
    determinism and order invariance.
    """
    if len(rows) == 0:
        raise ValidationError("cannot summarize zero replicate rows")
    common = set(rows[0])
    for row in rows[1:]:
        common &= set(row)
    return {
        key: summarize(
            [float(row[key]) for row in rows],
            confidence=confidence,
            n_boot=n_boot,
        )
        for key in sorted(common)
    }
