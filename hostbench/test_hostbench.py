"""Checks of the benchmark itself: failed-op accounting and attribution.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest hostbench -q
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import child  # noqa: E402
import hostclock  # noqa: E402
import profile_split  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402


def _openmp_op() -> w.Op:
    wl = w.make_workload("fig1-192", seed=0)
    return next(op for op in next(wl.groups()) if op.kind == "openmp")


def test_correct_fig1_result_passes():
    _start, dt, ok, point = w.run_op(_openmp_op())
    assert ok and dt > 0 and point.time > 0


def test_corrupted_fig1_result_counts_as_failed():
    op = _openmp_op()
    point = op.run()
    assert op.check(point)
    bumped = replace(point, time=math.nextafter(point.time, math.inf))
    corrupted = w.Op(op.kind, lambda: bumped, op.check)
    tally = child.Tally()
    child.run_group(w, [op, corrupted], tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_corrupted_placement_answer_counts_as_failed():
    wl = w.make_workload("place-mix", seed=3)
    wl.prime()
    group = next(wl.groups())
    tally = child.Tally()
    child.run_group(w, group, tally)
    assert (tally.attempted, tally.failed) == (len(group), 0)

    warm = next(op for op in group if op.kind == "warm")
    decision = warm.run()
    pus = list(decision.mapping.pu_of)
    pus[0] = (pus[0] + 1) % 192
    swapped = replace(decision, mapping=replace(decision.mapping, pu_of=tuple(pus)))
    raising = w.Op("warm", lambda: 1 / 0, warm.check)
    bad = [w.Op("warm", lambda: swapped, warm.check), raising]
    child.run_group(w, bad, tally)
    assert tally.failed == 2


def test_repair_answer_using_a_dead_pu_fails():
    wl = w.make_workload("place-mix", seed=3)
    wl.prime()
    repair = next(
        op for group in wl.groups() for op in group if op.kind == "repair"
    )
    decision = repair.run()
    assert repair.check(decision)
    _, dead = repair.spec
    pus = (dead[0],) + decision.mapping.pu_of[1:]
    on_dead = replace(decision, mapping=replace(decision.mapping, pu_of=pus))
    assert not repair.check(on_dead)


def test_declared_layer_metrics_are_benchmark_metrics():
    for cls in w.WORKLOAD_CLASSES.values():
        declared = cls.layer_metrics
        assert len(set(declared)) == len(declared), cls.name
        assert set(declared) <= set(run.PER_LAYER), cls.name


def test_place_span_is_the_public_query_time():
    wl = w.make_workload("place-mix", seed=3)
    wl.prime()
    op = next(op for op in next(wl.groups()) if op.kind == "cold")
    checked = []
    timed = w.Op(op.kind, op.run, lambda r: checked.append(r) or op.check(r))
    spans = w.Spans()
    public, rebuilt, ok = wl.span_op(timed, spans)
    assert ok and checked and rebuilt is None
    assert spans.durations == {w.PLACE_SPANS["cold"]: public}


def test_profile_split_charges_c_time_to_the_calling_package():
    from repro.exec.cache import matrix_digest

    matrix = w.hot_matrices()[0]
    prof = cProfile.Profile()
    prof.enable()
    for _ in range(50):
        matrix_digest(matrix)
    prof.disable()
    shares, calls, total = profile_split.split(pstats.Stats(prof))
    assert total > 0
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    # sha-256 and numpy byte conversion are C code called from exec.
    assert shares["exec"] > 0.5
    assert calls["exec"] >= 50


def test_host_speed_correction_drops_probes_and_scales_by_speed():
    probe = hostclock.SpeedProbe()
    ref = hostclock.REF_PROBE_S
    # Probes ending at 1, 3 and 5 s, each at half the reference speed.
    probe.ends, probe.costs = [1.0, 3.0, 5.0], [2 * ref] * 3
    assert probe.around(1.5, 2.5) == (1.0, 0.5)
    work, speed = probe.around(0.5, 4.0)
    assert math.isclose(work, 3.5 - 4 * ref) and speed == 0.5
    assert math.isclose(
        hostclock.reference_s(1.0, 0.5), 0.5**hostclock.SPEED_EXPONENT
    )
    # Host at reference speed: reference seconds are wall seconds.
    probe.costs = [ref] * 3
    assert hostclock.reference_s(*probe.around(1.5, 2.5)) == 1.0


def test_speed_probe_samples_real_probes():
    probe = hostclock.SpeedProbe()
    probe.sample()
    probe.sample()
    assert len(probe.costs) == 2 and all(c > 0 for c in probe.costs)
    assert probe.median_speed() > 0
    assert hostclock.probe() == hostclock.probe()


def test_package_of():
    assert profile_split.package_of("/x/src/repro/simulate/engine.py") == "simulate"
    assert profile_split.package_of("/x/src/repro/comm/matrix.py") == "placement"
    assert profile_split.package_of("/x/src/repro/util/rng.py") == "other"
    assert profile_split.package_of("/usr/lib/python3/json/encoder.py") is None
    assert profile_split.package_of("~") is None
