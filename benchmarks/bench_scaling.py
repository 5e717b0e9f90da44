"""Scaling-study benchmark — the beyond-the-paper sweep, CI-sized.

Runs the machine-size sweep on the paper's machine plus the 48-socket
scaling preset at a reduced per-core workload, records the simulated
times and speedups, and asserts the qualitative shape: topology-aware
placement wins at both sizes.
"""

from repro.experiments.scaling import run_scaling
from repro.topology.distance import DistanceModel
from repro.topology.presets import by_name


def test_scaling_sweep_small(benchmark):
    result = benchmark.pedantic(
        run_scaling,
        kwargs=dict(
            presets=("paper", "smp48x8"),
            iterations=1,
            cells_per_core=65536,
            seeds=1,
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["table"] = result.speedup_table()
    for preset in result.presets:
        for impl in result.implementations():
            key = f"{impl}@{preset}_sim_time_s"
            benchmark.extra_info[key] = result.point_of(preset, impl).time

    # Placement must pay off at both sizes at this workload.
    for preset in result.presets:
        assert result.speedup(preset, "orwl-nobind") > 1.2


def test_mega_topology_construction(benchmark):
    def construct():
        topo = by_name("smp512x8")
        DistanceModel(topo)
        return topo

    topo = benchmark.pedantic(construct, rounds=1, iterations=1)
    benchmark.extra_info["n_pus"] = topo.nb_pus
    assert topo.nb_pus == 4096
