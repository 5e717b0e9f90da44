"""Pairwise speedup distributions and significance verdicts.

The paper's Figure 1 reports single runs, so a reproduction that also
runs once per point cannot say whether "ORWL-Bind is 5× faster than
OpenMP" is a placement effect or seed luck.  This module turns two
replicate samples (baseline vs candidate processing times) into:

* a **speedup distribution** — bootstrap resamples of
  ``mean(baseline) / mean(candidate)`` with a percentile CI;
* a **permutation test** p-value on the difference of means (exact
  enumeration when the group sizes allow, seeded Monte Carlo
  otherwise);
* a **verdict**: ``significant`` when the two per-group confidence
  intervals do not overlap *or* the permutation p-value clears *alpha*;
  ``insufficient-data`` when either side has fewer than two replicates
  (a single run supports no inference — exactly the paper's situation).

Because replicated sweeps run the *same seed schedule* for every
implementation, the samples are matched pairs, and the **paired** tools
here are strictly more powerful than the unpaired ones:

* :func:`paired_permutation_pvalue` — a sign-flip permutation test on
  the per-seed differences (exact enumeration of the ``2^n`` flips when
  feasible, seeded Monte Carlo otherwise);
* :func:`cliffs_delta` — a nonparametric effect size in ``[-1, 1]``
  reported alongside every p-value (a tiny p on a negligible effect is
  not a finding);
* :func:`holm_bonferroni` — multiple-comparison correction for sweeps
  that test many machine sizes at once; corrected p-values are never
  smaller than the raw ones and preserve their order;
* :func:`compare_paired` / :class:`PairedVerdict` — the full matched
  comparison used by the scaling study.

Everything is deterministic: fixed internal streams, inputs sorted
before use (except paired inputs, whose order *is* the pairing), so
serial and parallel sweeps produce bit-identical verdicts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.stats.aggregate import summarize
from repro.util.validate import ValidationError

#: Fixed streams, distinct from the aggregation bootstrap.
_SPEEDUP_SEED = 20160927
_PERMUTE_SEED = 20160928
_PAIRED_SEED = 20160929

#: Exact permutation enumeration is used while C(n_a+n_b, n_a) stays
#: below this; beyond it a seeded Monte Carlo sample is drawn instead.
EXACT_PERMUTATION_LIMIT = 20_000

#: Exact sign-flip enumeration is used while 2**n_pairs stays below
#: this (n_pairs <= 14); beyond it a seeded Monte Carlo sample is drawn.
EXACT_SIGN_FLIP_LIMIT = 20_000


@dataclass(frozen=True)
class SpeedupVerdict:
    """The comparison of one implementation pair.

    ``speedup_mean`` is ``mean(baseline times) / mean(candidate times)``
    — > 1 means the candidate is faster.  ``p_value`` is ``None`` when
    either sample is a single run.
    """

    baseline: str
    candidate: str
    speedup_mean: float
    speedup_ci_lo: float
    speedup_ci_hi: float
    p_value: Optional[float]
    alpha: float
    significant: bool
    verdict: str  #: "significant" | "not-significant" | "insufficient-data"
    method: str  #: "exact-permutation" | "monte-carlo-permutation" | "none"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = f"p={self.p_value:.4f}" if self.p_value is not None else "p=n/a"
        return (
            f"{self.candidate} vs {self.baseline}: "
            f"{self.speedup_mean:.2f}x "
            f"[{self.speedup_ci_lo:.2f}, {self.speedup_ci_hi:.2f}] "
            f"{p} -> {self.verdict}"
        )


def permutation_pvalue(
    a: Sequence[float],
    b: Sequence[float],
    n_perm: int = 10_000,
) -> tuple[Optional[float], str]:
    """Two-sided permutation test on the difference of means.

    Returns ``(p_value, method)``; ``(None, "none")`` when either group
    has fewer than two observations.  Exact enumeration of the
    ``C(n_a+n_b, n_a)`` group relabelings is used when feasible,
    otherwise *n_perm* seeded random relabelings (with the +1 additive
    smoothing that keeps a Monte Carlo p-value valid and non-zero).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size < 2 or b.size < 2:
        return None, "none"
    observed = abs(a.mean() - b.mean())
    pooled = np.concatenate([a, b])
    n_total, n_a = pooled.size, a.size
    total_sum = float(pooled.sum())
    # A relabeling is characterized by which indices form group A; the
    # difference of means is then a pure function of group A's sum.
    eps = 1e-12 * max(1.0, abs(observed))
    if math.comb(n_total, n_a) <= EXACT_PERMUTATION_LIMIT:
        hits = 0
        count = 0
        for combo in itertools.combinations(range(n_total), n_a):
            sum_a = float(pooled[list(combo)].sum())
            mean_a = sum_a / n_a
            mean_b = (total_sum - sum_a) / (n_total - n_a)
            if abs(mean_a - mean_b) >= observed - eps:
                hits += 1
            count += 1
        return hits / count, "exact-permutation"
    rng = np.random.default_rng(_PERMUTE_SEED)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(n_total)
        sum_a = float(pooled[perm[:n_a]].sum())
        mean_a = sum_a / n_a
        mean_b = (total_sum - sum_a) / (n_total - n_a)
        if abs(mean_a - mean_b) >= observed - eps:
            hits += 1
    return (hits + 1) / (n_perm + 1), "monte-carlo-permutation"


def speedup_distribution(
    baseline_times: Sequence[float],
    candidate_times: Sequence[float],
    confidence: float = 0.95,
    n_boot: int = 2000,
) -> tuple[float, float, float]:
    """``(speedup, ci_lo, ci_hi)`` of mean(baseline)/mean(candidate).

    The CI is a percentile bootstrap resampling both groups
    independently; with single-run groups it degenerates to the point
    estimate.  Deterministic (fixed stream, sorted inputs).
    """
    a = np.sort(np.asarray(baseline_times, dtype=float))
    b = np.sort(np.asarray(candidate_times, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("speedup needs at least one time per group")
    if float(b.mean()) == 0.0:
        raise ValidationError("candidate mean time is zero")
    point = float(a.mean()) / float(b.mean())
    if a.size < 2 or b.size < 2:
        return point, point, point
    rng = np.random.default_rng(_SPEEDUP_SEED)
    means_a = a[rng.integers(0, a.size, size=(n_boot, a.size))].mean(axis=1)
    means_b = b[rng.integers(0, b.size, size=(n_boot, b.size))].mean(axis=1)
    ratios = means_a / means_b
    alpha = 1.0 - confidence
    lo = float(np.quantile(ratios, alpha / 2.0))
    hi = float(np.quantile(ratios, 1.0 - alpha / 2.0))
    return point, min(lo, point), max(hi, point)


def compare(
    baseline: str,
    baseline_times: Sequence[float],
    candidate: str,
    candidate_times: Sequence[float],
    alpha: float = 0.05,
    confidence: float = 0.95,
    n_perm: int = 10_000,
) -> SpeedupVerdict:
    """Full pairwise comparison of two replicate samples.

    *baseline_times* / *candidate_times* are processing times (lower is
    better); the verdict says whether the candidate's advantage (or
    deficit) is distinguishable from seed noise.
    """
    speedup, lo, hi = speedup_distribution(
        baseline_times, candidate_times, confidence=confidence
    )
    p_value, method = permutation_pvalue(
        baseline_times, candidate_times, n_perm=n_perm
    )
    if p_value is None:
        return SpeedupVerdict(
            baseline=baseline, candidate=candidate,
            speedup_mean=speedup, speedup_ci_lo=lo, speedup_ci_hi=hi,
            p_value=None, alpha=alpha, significant=False,
            verdict="insufficient-data", method=method,
        )
    stats_a = summarize(baseline_times, confidence=confidence)
    stats_b = summarize(candidate_times, confidence=confidence)
    significant = (not stats_a.overlaps(stats_b)) or p_value < alpha
    return SpeedupVerdict(
        baseline=baseline, candidate=candidate,
        speedup_mean=speedup, speedup_ci_lo=lo, speedup_ci_hi=hi,
        p_value=p_value, alpha=alpha, significant=significant,
        verdict="significant" if significant else "not-significant",
        method=method,
    )


# -- paired (matched-seed) machinery ---------------------------------------


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta effect size: ``P(a > b) - P(a < b)`` over all pairs.

    Nonparametric and bounded in ``[-1, 1]``: +1 means every value of
    *a* exceeds every value of *b*, 0 means complete overlap.  For
    processing times with *a* the baseline and *b* the candidate, a
    positive delta says the candidate is systematically faster.
    Conventional magnitude labels: |d| < 0.147 negligible, < 0.33 small,
    < 0.474 medium, else large (Romano et al. 2006).
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValidationError("cliffs_delta needs at least one value per group")
    diff = x[:, None] - y[None, :]
    return float((np.sign(diff)).mean())


def cliffs_delta_label(delta: float) -> str:
    """The conventional magnitude label of a Cliff's delta."""
    d = abs(delta)
    if d < 0.147:
        return "negligible"
    if d < 0.33:
        return "small"
    if d < 0.474:
        return "medium"
    return "large"


def paired_permutation_pvalue(
    a: Sequence[float],
    b: Sequence[float],
    n_perm: int = 10_000,
) -> tuple[Optional[float], str]:
    """Two-sided paired (sign-flip) permutation test on mean difference.

    *a* and *b* must be **matched by index** — in a replicated sweep,
    entry *r* of both is the measurement under the same derived seed.
    Under the null, each per-pair difference is symmetric around zero,
    so the test enumerates sign assignments of the differences: all
    ``2^n`` of them when feasible, otherwise *n_perm* seeded random
    flips (with +1 smoothing).  Returns ``(None, "none")`` with fewer
    than two pairs.

    On identical samples every difference is zero, every flip ties the
    observed statistic, and the p-value is exactly 1.0 — "no evidence"
    rather than a division-by-zero corner.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape:
        raise ValidationError(
            f"paired samples must have equal length, got {x.size} and {y.size}"
        )
    n = x.size
    if n < 2:
        return None, "none"
    diffs = x - y
    observed = abs(float(diffs.mean()))
    eps = 1e-12 * max(1.0, observed)
    if 2**n <= EXACT_SIGN_FLIP_LIMIT:
        hits = 0
        total = 2**n
        for mask in range(total):
            signed = 0.0
            for k in range(n):
                signed += diffs[k] if (mask >> k) & 1 else -diffs[k]
            if abs(signed / n) >= observed - eps:
                hits += 1
        return hits / total, "exact-sign-flip"
    rng = np.random.default_rng(_PAIRED_SEED)
    signs = rng.choice((-1.0, 1.0), size=(n_perm, n))
    means = np.abs((signs * diffs).mean(axis=1))
    hits = int((means >= observed - eps).sum())
    return (hits + 1) / (n_perm + 1), "monte-carlo-sign-flip"


def holm_bonferroni(p_values: Sequence[float]) -> list[float]:
    """Holm–Bonferroni step-down correction.

    Returns the adjusted p-values in the input order.  Properties the
    tests pin: every adjusted value is >= its raw value, the adjustment
    preserves the raw ordering (it is a running maximum over the
    step-down products), and everything is clipped to 1.0.
    """
    m = len(p_values)
    if m == 0:
        return []
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"p-values must be in [0, 1], got {p}")
    order = sorted(range(m), key=lambda k: p_values[k])
    adjusted = [0.0] * m
    running = 0.0
    for rank, k in enumerate(order):
        running = max(running, (m - rank) * p_values[k])
        adjusted[k] = min(1.0, running)
    return adjusted


@dataclass(frozen=True)
class PairedVerdict:
    """A matched-seed comparison of one implementation pair at one point.

    ``speedup_mean`` is ``mean(baseline) / mean(candidate)`` (> 1: the
    candidate is faster); ``delta`` is Cliff's delta of baseline over
    candidate times (positive: candidate systematically faster).
    ``p_corrected`` is filled by :func:`correct_verdicts` when the
    verdict is part of a swept family; until then it equals ``p_value``.
    The ``significant`` flag always refers to the *corrected* p-value.
    """

    baseline: str
    candidate: str
    n_pairs: int
    speedup_mean: float
    speedup_ci_lo: float
    speedup_ci_hi: float
    delta: float
    p_value: Optional[float]
    p_corrected: Optional[float]
    alpha: float
    significant: bool
    verdict: str  #: "significant" | "not-significant" | "insufficient-data"
    method: str  #: "exact-sign-flip" | "monte-carlo-sign-flip" | "none"

    @property
    def effect_label(self) -> str:
        """Magnitude label of :attr:`delta` (negligible/small/medium/large)."""
        return cliffs_delta_label(self.delta)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = (
            f"p={self.p_value:.4f} (corrected {self.p_corrected:.4f})"
            if self.p_value is not None and self.p_corrected is not None
            else "p=n/a"
        )
        return (
            f"{self.candidate} vs {self.baseline} [{self.n_pairs} pairs]: "
            f"{self.speedup_mean:.2f}x "
            f"[{self.speedup_ci_lo:.2f}, {self.speedup_ci_hi:.2f}] "
            f"{p} delta={self.delta:+.2f} ({self.effect_label}) "
            f"-> {self.verdict}"
        )


def compare_paired(
    baseline: str,
    baseline_times: Sequence[float],
    candidate: str,
    candidate_times: Sequence[float],
    alpha: float = 0.05,
    confidence: float = 0.95,
    n_perm: int = 10_000,
) -> PairedVerdict:
    """Full paired comparison of two matched replicate samples.

    Inputs must be in replicate order (index *r* of both sides ran the
    same derived seed).  ``p_corrected`` starts equal to the raw
    p-value; apply :func:`correct_verdicts` over a family of verdicts
    when several sizes are tested together.
    """
    speedup, lo, hi = speedup_distribution(
        baseline_times, candidate_times, confidence=confidence
    )
    p_value, method = paired_permutation_pvalue(
        baseline_times, candidate_times, n_perm=n_perm
    )
    n_pairs = len(baseline_times)
    delta = cliffs_delta(baseline_times, candidate_times)
    if p_value is None:
        return PairedVerdict(
            baseline=baseline, candidate=candidate, n_pairs=n_pairs,
            speedup_mean=speedup, speedup_ci_lo=lo, speedup_ci_hi=hi,
            delta=delta, p_value=None, p_corrected=None, alpha=alpha,
            significant=False, verdict="insufficient-data", method=method,
        )
    significant = p_value < alpha
    return PairedVerdict(
        baseline=baseline, candidate=candidate, n_pairs=n_pairs,
        speedup_mean=speedup, speedup_ci_lo=lo, speedup_ci_hi=hi,
        delta=delta, p_value=p_value, p_corrected=p_value, alpha=alpha,
        significant=significant,
        verdict="significant" if significant else "not-significant",
        method=method,
    )


def correct_verdicts(verdicts: Sequence[PairedVerdict]) -> list[PairedVerdict]:
    """Apply Holm–Bonferroni across a family of paired verdicts.

    The family is everything passed in — for the scaling study, one
    baseline/candidate pair across all swept machine sizes.  Verdicts
    without a p-value (insufficient data) pass through unchanged and do
    not count toward the correction's family size.  Each returned
    verdict carries ``p_corrected`` and has ``significant`` /
    ``verdict`` recomputed against it.
    """
    testable = [k for k, v in enumerate(verdicts) if v.p_value is not None]
    adjusted = holm_bonferroni([verdicts[k].p_value for k in testable])  # type: ignore[misc]
    by_index = dict(zip(testable, adjusted))
    out: list[PairedVerdict] = []
    for k, v in enumerate(verdicts):
        if k not in by_index:
            out.append(v)
            continue
        p_corr = by_index[k]
        significant = p_corr < v.alpha
        out.append(
            replace(
                v,
                p_corrected=p_corr,
                significant=significant,
                verdict="significant" if significant else "not-significant",
            )
        )
    return out
