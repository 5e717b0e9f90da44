"""Shared ``--cache-dir`` / ``--no-cache`` plumbing for the sweep CLIs.

Every sweep CLI defaults to incremental re-runs: placements and point
results are stored under ``.repro-cache/`` (see :mod:`repro.exec.cache`)
so repeating or extending a sweep only simulates the delta.  Results
are bit-identical either way; ``--no-cache`` is the cold-path escape
hatch that disables both caching tiers.

The flags translate to :func:`repro.exec.cache.configure_cache`, which
speaks through environment variables so pool workers inherit the
setting no matter the start method.
"""

from __future__ import annotations

import argparse

from repro.exec.cache import DEFAULT_CACHE_DIR, configure_cache


def add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the standard cache flags on *parser*."""
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="on-disk cache root for placements and point results; "
             "re-running a sweep only simulates what is not stored yet "
             f"(default {DEFAULT_CACHE_DIR}; results are bit-identical "
             "with or without it)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable both caching tiers — placement memo and point "
             "results — and recompute everything "
             "(the cold path the cached results are verified against)",
    )


def apply_cache_arguments(args: argparse.Namespace) -> None:
    """Apply the parsed flags to the process-wide cache configuration."""
    configure_cache(
        enabled=not args.no_cache,
        directory=None if args.no_cache else args.cache_dir,
    )
