"""Shared argument handling for the CLI tools."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, NoReturn

from repro.comm.patterns import square_grid_shape
from repro.topology import presets, serialize
from repro.topology.builder import from_spec
from repro.topology.discover import discover
from repro.topology.tree import Topology


def resolve_topology(
    source: str, parser: argparse.ArgumentParser | None = None
) -> Topology:
    """Turn a CLI topology argument into a :class:`Topology`.

    Accepted forms, tried in order:

    * ``host`` — discover the running machine (Linux sysfs);
    * a preset name (``paper-smp``, ``dual-xeon``, ...);
    * a path to a JSON file produced by :mod:`repro.topology.serialize`;
    * an hwloc-style synthetic spec string (``"numa:2 core:4 pu:1"``).

    A source that is none of these ends the program with one error
    line: through ``parser.error`` (exit 2) when *parser* is given.
    """

    def fail(message: str) -> NoReturn:
        if parser is not None:
            parser.error(message)
        sys.exit(f"error: {message}")

    if source == "host":
        topo = discover()
        if topo is None:
            fail("host topology not discoverable on this system")
        return topo
    if source in presets.PRESETS:
        return presets.by_name(source)
    path = Path(source)
    if path.is_file():
        try:
            if path.suffix.lower() == ".xml":
                from repro.topology.hwloc_xml import load_hwloc_xml

                return load_hwloc_xml(path)
            return serialize.load(path)
        except (OSError, ValueError) as exc:
            fail(f"{source}: not a topology file ({exc})")
    try:
        return from_spec(source)
    except Exception as exc:
        fail(f"{source!r} is not a preset, file, or synthetic spec ({exc})")


def require_whole_sockets(
    parser: argparse.ArgumentParser, cores: Iterable[int], per_socket: int
) -> None:
    """Reject, through ``parser.error`` (exit 2), any core count that is
    not a positive number of whole sockets of *per_socket* cores."""
    for c in cores:
        if c <= 0 or c % per_socket:
            parser.error(f"--cores {c}: core counts must be whole sockets "
                         f"of {per_socket}")


def require_positive(parser: argparse.ArgumentParser, **values: int) -> None:
    """Reject, through ``parser.error`` (exit 2), any count below 1;
    each keyword names a flag without its dashes (``seeds=args.seeds``)."""
    for name, value in values.items():
        if value < 1:
            parser.error(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def require_nonnegative(parser: argparse.ArgumentParser, **values: int) -> None:
    """Like :func:`require_positive`, but 0 is allowed (``--workers 0``
    means all host cores)."""
    for name, value in values.items():
        if value < 0:
            parser.error(f"--{name.replace('_', '-')} must be >= 0, got {value}")


def require_matrix_fits(
    parser: argparse.ArgumentParser, n: int, tasks: int, *, openmp: bool
) -> None:
    """Reject, through ``parser.error`` (exit 2), an ``--n`` too small
    for *tasks*: the ORWL kernel's most-square task grid must fit the
    n x n matrix and, with *openmp*, each of *tasks* OpenMP threads
    needs a strip of at least one row."""
    rows, cols = square_grid_shape(tasks)
    if cols > n:
        parser.error(f"{tasks} tasks lay out as a {rows}x{cols} grid, finer "
                     f"than the {n}x{n} matrix; use fewer tasks or a larger --n")
    if openmp and tasks > n:
        parser.error(f"{tasks} OpenMP strips is finer than the {n} rows of "
                     "the matrix; use fewer cores or a larger --n")
