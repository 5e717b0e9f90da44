"""Tests for Linux sysfs topology discovery against a synthetic tree."""

from repro.topology import discover as disc
from repro.topology.objects import ObjType


def make_sysfs(tmp_path, cpus):
    """Build a fake /sys/devices/system/cpu tree.

    *cpus* is a list of (cpu_id, node, package, core) tuples.
    """
    root = tmp_path / "cpu"
    root.mkdir()
    ids = sorted(c[0] for c in cpus)
    (root / "online").write_text(
        ",".join(str(i) for i in ids) + "\n"
    )
    for cpu, node, pkg, core in cpus:
        base = root / f"cpu{cpu}"
        (base / "topology").mkdir(parents=True)
        (base / "topology" / "physical_package_id").write_text(f"{pkg}\n")
        (base / "topology" / "core_id").write_text(f"{core}\n")
        (base / f"node{node}").mkdir()
    return root


class TestDiscoverSysfs:
    def test_dual_socket_ht(self, tmp_path, monkeypatch):
        # 2 nodes x 1 package x 2 cores x 2 threads = 8 cpus
        cpus = []
        cpu = 0
        for node in range(2):
            for core in range(2):
                for _t in range(2):
                    cpus.append((cpu, node, node, core))
                    cpu += 1
        monkeypatch.setattr(disc, "_SYS_CPU", make_sysfs(tmp_path, cpus))
        topo = disc.discover_linux()
        assert topo is not None
        assert topo.nb_pus == 8
        assert topo.nbobjs_by_type(ObjType.NUMANODE) == 2
        assert topo.nbobjs_by_type(ObjType.CORE) == 4
        assert topo.has_hyperthreading()
        assert topo.arities()  # balanced envelope

    def test_single_cpu(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            disc, "_SYS_CPU", make_sysfs(tmp_path, [(0, 0, 0, 0)])
        )
        topo = disc.discover_linux()
        assert topo.nb_pus == 1

    def test_missing_topology_files_fall_back(self, tmp_path, monkeypatch):
        root = tmp_path / "cpu"
        (root / "cpu0").mkdir(parents=True)
        (root / "cpu1").mkdir()
        (root / "online").write_text("0-1\n")
        monkeypatch.setattr(disc, "_SYS_CPU", root)
        topo = disc.discover_linux()
        assert topo is not None
        assert topo.nb_pus == 2

    def test_no_online_file_enumerates_dirs(self, tmp_path, monkeypatch):
        root = tmp_path / "cpu"
        for k in range(3):
            (root / f"cpu{k}" / "topology").mkdir(parents=True)
            (root / f"cpu{k}" / "topology" / "physical_package_id").write_text("0")
            (root / f"cpu{k}" / "topology" / "core_id").write_text(str(k))
        monkeypatch.setattr(disc, "_SYS_CPU", root)
        topo = disc.discover_linux()
        assert topo.nb_pus == 3

    def test_empty_sysfs_returns_none(self, tmp_path, monkeypatch):
        root = tmp_path / "cpu"
        root.mkdir()
        monkeypatch.setattr(disc, "_SYS_CPU", root)
        assert disc.discover_linux() is None

    def test_discover_wrapper_handles_missing_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disc, "_SYS_CPU", tmp_path / "nonexistent")
        assert disc.discover() is None

    def test_asymmetric_machine_balanced_envelope(self, tmp_path, monkeypatch):
        # Node 0 has 2 cores, node 1 has 1: envelope is 2 cores per node.
        cpus = [(0, 0, 0, 0), (1, 0, 0, 1), (2, 1, 1, 0)]
        monkeypatch.setattr(disc, "_SYS_CPU", make_sysfs(tmp_path, cpus))
        topo = disc.discover_linux()
        assert topo.nbobjs_by_type(ObjType.NUMANODE) == 2
        # Balanced envelope: 2 cores per package even on the small node.
        assert topo.nbobjs_by_type(ObjType.CORE) == 4
        assert topo.arities()
