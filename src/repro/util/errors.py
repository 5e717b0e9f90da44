"""The one base class of the errors :mod:`repro` raises on purpose."""

from __future__ import annotations


class ReproError(Exception):
    """Base of every typed :mod:`repro` error.

    Each subclass keeps its builtin base as well (``ValueError``,
    ``RuntimeError`` or ``AssertionError``), so an ``except ValueError``
    written against the subclass alone still catches it; a boundary
    that maps any typed error to a one-line message catches this base.
    """
