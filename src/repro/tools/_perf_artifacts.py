"""Shared ``--perf-report DIR`` artifact writer of the sweep CLIs.

Both ``repro.tools.fig1`` and ``repro.tools.scaling`` attach a
:class:`repro.perf.PerfReport` JSON dict to every point when run with
``--perf-report``; this module turns those dicts into the on-disk
artifact set (what the nightly CI job uploads):

* ``<stem>.json`` / ``<stem>.txt`` — each point's full report;
* ``topdown-<group>.txt`` — per sweep group (a core count, a preset),
  the gap attribution of every implementation against the group's
  fastest one.
"""

from __future__ import annotations

from pathlib import Path
import json

from repro.perf.report import PerfReport
from repro.perf.topdown import attribute_gap


def write_point_reports(
    directory: "str | Path",
    entries: list[tuple[str, tuple, "dict | None"]],
) -> int:
    """Write the artifact set; returns the number of files written.

    *entries* are ``(file stem, group key, perf JSON dict)`` triples —
    points whose dict is ``None`` (run without tracing) are skipped.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_files = 0
    groups: dict[tuple, list[PerfReport]] = {}
    for stem, group, perf in entries:
        if perf is None:
            continue
        report = PerfReport.from_json_dict(perf)
        groups.setdefault(group, []).append(report)
        with open(out_dir / f"{stem}.json", "w") as fh:
            json.dump(perf, fh, indent=2, sort_keys=True)
            fh.write("\n")
        (out_dir / f"{stem}.txt").write_text(
            report.render() + "\n", encoding="utf-8"
        )
        n_files += 2
    for group, reports in groups.items():
        if len(reports) < 2:
            continue
        fastest = min(reports, key=lambda r: r.measured_time)
        sections = []
        for report in reports:
            if report is fastest:
                continue
            sections.append(
                attribute_gap(
                    report.attribution, fastest.attribution,
                    slow_label=report.label, fast_label=fastest.label,
                    measured_slow=report.measured_time,
                    measured_fast=fastest.measured_time,
                ).render()
            )
        tag = "-".join(str(g) for g in group)
        (out_dir / f"topdown-{tag}.txt").write_text(
            "\n\n".join(sections) + "\n", encoding="utf-8"
        )
        n_files += 1
    return n_files
