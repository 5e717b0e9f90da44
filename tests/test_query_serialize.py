"""Tests for topology queries (hwloc API surface) and JSON serialization."""

import pytest
from hypothesis import given, strategies as st

from repro.topology import query, serialize
from repro.topology.builder import from_spec
from repro.topology.cpuset import CpuSet
from repro.topology.objects import ObjType
from repro.topology.tree import TopologyError


class TestQueries:
    def test_get_nbobjs_by_type(self, small_topo):
        assert query.get_nbobjs_by_type(small_topo, ObjType.CORE) == 8
        assert query.get_nbobjs_by_type(small_topo, ObjType.L1) == 0

    def test_get_obj_by_type(self, small_topo):
        core3 = query.get_obj_by_type(small_topo, ObjType.CORE, 3)
        assert core3.logical_index == 3

    def test_get_obj_by_type_out_of_range(self, small_topo):
        with pytest.raises(TopologyError):
            query.get_obj_by_type(small_topo, ObjType.CORE, 42)

    def test_objs_inside_cpuset(self, small_topo):
        cs = CpuSet.from_range(0, 4)
        cores = query.get_objs_inside_cpuset_by_type(small_topo, cs, ObjType.CORE)
        assert len(cores) == 4

    def test_first_largest_cover(self, small_topo):
        # 0-3 is exactly node 0: the cover should be a single object.
        cover = query.get_first_largest_objs_inside_cpuset(
            small_topo, CpuSet.from_range(0, 4)
        )
        assert len(cover) == 1
        assert cover[0].cpuset == CpuSet.from_range(0, 4)

    def test_first_largest_cover_fragmented(self, small_topo):
        cover = query.get_first_largest_objs_inside_cpuset(
            small_topo, CpuSet([0, 1, 5])
        )
        covered = CpuSet()
        for obj in cover:
            covered = covered | obj.cpuset
        assert covered == CpuSet([0, 1, 5])

    def test_closest_pus_orders_by_distance(self, small_topo):
        pu0 = small_topo.pu_by_os_index(0)
        closest = query.get_closest_pus(small_topo, pu0)
        # same-node PUs come before cross-node ones
        same_node = {1, 2, 3}
        assert {p.os_index for p in closest[:3]} == same_node

    def test_closest_pus_limit(self, small_topo):
        pu0 = small_topo.pu_by_os_index(0)
        assert len(query.get_closest_pus(small_topo, pu0, n=2)) == 2

    def test_closest_pus_requires_pu(self, small_topo):
        with pytest.raises(TopologyError):
            query.get_closest_pus(small_topo, small_topo.root)

    def test_cpuset_of_numa_node(self, small_topo):
        assert query.cpuset_of_numa_node(small_topo, 1) == CpuSet.from_range(4, 8)

    def test_distribute_spreads(self, small_topo):
        chosen = query.distribute(small_topo, 2)
        nodes = {small_topo.numa_node_of(p.os_index).logical_index for p in chosen}
        assert nodes == {0, 1}

    def test_distribute_exact_count(self, small_topo):
        assert len(query.distribute(small_topo, 5)) == 5

    def test_distribute_oversubscribed_wraps(self, small_topo):
        chosen = query.distribute(small_topo, 20)
        assert len(chosen) == 20

    def test_distribute_invalid(self, small_topo):
        with pytest.raises(ValueError):
            query.distribute(small_topo, 0)

    def test_summarize(self, small_topo):
        s = query.summarize(small_topo)
        assert s["NUMANODE"] == 2
        assert s["PU"] == 8
        assert "L1" not in s


class TestSerialize:
    def test_roundtrip_preserves_shape(self, small_topo):
        t2 = serialize.loads(serialize.dumps(small_topo))
        assert t2.nb_pus == small_topo.nb_pus
        assert t2.arities() == small_topo.arities()
        assert t2.name == small_topo.name

    def test_roundtrip_preserves_attributes(self, small_topo):
        t2 = serialize.loads(serialize.dumps(small_topo))
        l3 = t2.objects_by_type(ObjType.L3)[0]
        orig = small_topo.objects_by_type(ObjType.L3)[0]
        assert l3.cache.size == orig.cache.size
        node = t2.objects_by_type(ObjType.NUMANODE)[0]
        assert node.memory.local_bytes > 0

    def test_roundtrip_preserves_os_indices(self, ht_topo):
        t2 = serialize.loads(serialize.dumps(ht_topo))
        assert [p.os_index for p in t2.pus()] == [p.os_index for p in ht_topo.pus()]

    def test_file_roundtrip(self, small_topo, tmp_path):
        path = tmp_path / "topo.json"
        serialize.save(small_topo, path)
        t2 = serialize.load(path)
        assert t2.nb_pus == 8

    def test_rejects_wrong_format(self):
        with pytest.raises(TopologyError):
            serialize.from_dict({"format": "something-else"})

    def test_rejects_future_version(self, small_topo):
        d = serialize.to_dict(small_topo)
        d["version"] = 999
        with pytest.raises(TopologyError):
            serialize.from_dict(d)

    def test_rejects_unknown_type(self):
        d = {
            "format": "repro-topology",
            "version": 1,
            "root": {"type": "QUANTUM"},
        }
        with pytest.raises(TopologyError):
            serialize.from_dict(d)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=2),
    )
    def test_roundtrip_property(self, nodes, cores, pus):
        t = from_spec(f"numa:{nodes} core:{cores} pu:{pus}")
        t2 = serialize.loads(serialize.dumps(t))
        assert t2.nb_pus == t.nb_pus
        assert t2.arities() == t.arities()
        assert [p.os_index for p in t2.pus()] == [p.os_index for p in t.pus()]
