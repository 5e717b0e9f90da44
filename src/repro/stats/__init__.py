"""Multi-seed statistics over sweeps (``repro.stats``).

The paper reports single runs per core count; this layer makes the
reproduction say something stronger — it runs N independent seeds per
sweep point (on top of :class:`repro.exec.SweepRunner`, so serial and
parallel replication are bit-identical), aggregates each point into
mean / median / stddev / bootstrap confidence interval, and compares
implementation pairs with a significance verdict.

Three modules:

* :mod:`repro.stats.aggregate` — :class:`SeedStats` and
  :func:`summarize` (deterministic, seed-order invariant, bootstrap
  percentile CI that always contains the sample mean);
* :mod:`repro.stats.significance` — :func:`compare` /
  :class:`SpeedupVerdict` (speedup distribution with CI + permutation
  test, "insufficient-data" for single runs);
* :mod:`repro.stats.sweep` — :func:`run_replicated` /
  :class:`ReplicateSpec` (the points × seeds expansion; replicate 0
  keeps the base seed so N=1 reproduces the historical single-run
  results bit-identically, replicate r > 0 uses
  :func:`repro.exec.derive_seed`).

The experiments wire this behind a ``seeds=N`` knob (CLI ``--seeds``),
default 1 = today's single-run behavior, unchanged to the byte.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "aggregate": ["DEFAULT_N_BOOT", "SeedStats", "summarize", "summarize_map"],
    "significance": [
        "PairedVerdict",
        "SpeedupVerdict",
        "cliffs_delta",
        "cliffs_delta_label",
        "compare",
        "compare_paired",
        "correct_verdicts",
        "holm_bonferroni",
        "paired_permutation_pvalue",
        "permutation_pvalue",
        "speedup_distribution",
    ],
    "sweep": [
        "ReplicatedPoint",
        "ReplicatedSweep",
        "ReplicateSpec",
        "replicate_seeds",
        "run_replicated",
    ],
})
