"""Tests for topology objects, tree finalization, builder, and presets."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.builder import (
    DEFAULT_CACHE_ATTRS,
    TopologyBuilder,
    flat_topology,
    from_spec,
)
from repro.topology.objects import (
    CacheAttributes,
    MemoryAttributes,
    ObjType,
    TopologyObject,
)
from repro.topology.tree import Topology, TopologyError
from repro.topology import presets


class TestObjects:
    def test_add_child_sets_parent(self):
        root = TopologyObject(ObjType.MACHINE)
        child = TopologyObject(ObjType.NUMANODE)
        root.add_child(child)
        assert child.parent is root
        assert root.children == [child]

    def test_add_child_twice_rejected(self):
        root = TopologyObject(ObjType.MACHINE)
        other = TopologyObject(ObjType.PACKAGE)
        child = TopologyObject(ObjType.NUMANODE)
        root.add_child(child)
        with pytest.raises(ValueError):
            other.add_child(child)

    def test_containment_order_enforced(self):
        pu = TopologyObject(ObjType.PU)
        with pytest.raises(ValueError):
            pu.add_child(TopologyObject(ObjType.CORE))

    def test_cache_attrs_validation(self):
        with pytest.raises(ValueError):
            CacheAttributes(size=0)
        with pytest.raises(ValueError):
            CacheAttributes(size=1024, line_size=0)

    def test_memory_attrs_validation(self):
        with pytest.raises(ValueError):
            MemoryAttributes(local_bytes=-1)

    def test_is_cache(self):
        assert ObjType.L1.is_cache and ObjType.L2.is_cache and ObjType.L3.is_cache
        assert not ObjType.CORE.is_cache
        assert not ObjType.MACHINE.is_cache

    def test_descendants_preorder(self, small_topo):
        names = [o.type for o in small_topo.root.descendants()]
        assert names[0] is ObjType.NUMANODE

    def test_type_label(self, small_topo):
        pu = small_topo.pus()[3]
        assert pu.type_label() == "Pu#3"


class TestTreeFinalization:
    def test_depth_and_levels(self, small_topo):
        # machine > numa > package > l3 > core > pu = 6 levels
        assert small_topo.depth == 6
        assert small_topo.nbobjs_at_depth(0) == 1
        assert small_topo.nbobjs_at_depth(5) == 8

    def test_nb_pus(self, small_topo):
        assert small_topo.nb_pus == 8

    def test_logical_indices_sequential(self, small_topo):
        pus = small_topo.pus()
        assert [p.logical_index for p in pus] == list(range(8))

    def test_os_index_defaults(self, small_topo):
        assert [p.os_index for p in small_topo.pus()] == list(range(8))

    def test_cpusets_bottom_up(self, small_topo):
        node0 = small_topo.objects_by_type(ObjType.NUMANODE)[0]
        assert node0.cpuset.to_list_string() == "0-3"
        assert small_topo.cpuset.weight() == 8

    def test_root_must_be_machine(self):
        with pytest.raises(TopologyError):
            Topology(TopologyObject(ObjType.PACKAGE))

    def test_leaves_must_be_pu(self):
        root = TopologyObject(ObjType.MACHINE)
        root.add_child(TopologyObject(ObjType.CORE))
        with pytest.raises(TopologyError):
            Topology(root)

    def test_leaf_uniform_depth_required(self):
        root = TopologyObject(ObjType.MACHINE)
        core = root.add_child(TopologyObject(ObjType.CORE))
        core.add_child(TopologyObject(ObjType.PU))
        root.add_child(TopologyObject(ObjType.PU))  # a PU at wrong depth
        with pytest.raises(TopologyError):
            Topology(root)

    def test_duplicate_os_index_rejected(self):
        root = TopologyObject(ObjType.MACHINE)
        for _ in range(2):
            core = root.add_child(TopologyObject(ObjType.CORE))
            core.add_child(TopologyObject(ObjType.PU, os_index=0))
        with pytest.raises(TopologyError):
            Topology(root)


class TestTreeQueries:
    def test_arities(self, small_topo):
        assert small_topo.arities() == [2, 1, 1, 4, 1]

    def test_arities_nonuniform_rejected(self):
        root = TopologyObject(ObjType.MACHINE)
        c1 = root.add_child(TopologyObject(ObjType.CORE))
        c2 = root.add_child(TopologyObject(ObjType.CORE))
        c1.add_child(TopologyObject(ObjType.PU))
        c2.add_child(TopologyObject(ObjType.PU))
        c2.add_child(TopologyObject(ObjType.PU))
        topo = Topology(root)
        with pytest.raises(TopologyError):
            topo.arities()

    def test_common_ancestor_same_node(self, small_topo):
        a = small_topo.pu_by_os_index(0)
        b = small_topo.pu_by_os_index(1)
        anc = small_topo.common_ancestor(a, b)
        assert anc.type is ObjType.L3

    def test_common_ancestor_cross_node(self, small_topo):
        assert small_topo.common_ancestor_depth(0, 4) == 0  # machine

    def test_common_ancestor_self(self, small_topo):
        a = small_topo.pu_by_os_index(2)
        assert small_topo.common_ancestor(a, a) is a

    def test_numa_node_of(self, small_topo):
        assert small_topo.numa_node_of(0).logical_index == 0
        assert small_topo.numa_node_of(5).logical_index == 1

    def test_package_core_of(self, small_topo):
        assert small_topo.package_of(0).type is ObjType.PACKAGE
        assert small_topo.core_of(7).type is ObjType.CORE

    def test_core_of_missing_level(self):
        t = from_spec("numa:2 pu:2")
        assert t.core_of(0) is None

    def test_has_hyperthreading(self, small_topo, ht_topo):
        assert not small_topo.has_hyperthreading()
        assert ht_topo.has_hyperthreading()

    def test_pu_lookup_errors(self, small_topo):
        with pytest.raises(TopologyError):
            small_topo.pu_by_os_index(99)
        with pytest.raises(TopologyError):
            small_topo.pu_by_logical_index(99)

    def test_type_depth(self, small_topo):
        assert small_topo.type_depth(ObjType.CORE) == 4
        assert small_topo.type_depth(ObjType.L1) is None

    def test_objects_inside(self, small_topo):
        node0 = small_topo.objects_by_type(ObjType.NUMANODE)[0]
        cores = small_topo.objects_inside(node0.cpuset, ObjType.CORE)
        assert len(cores) == 4

    def test_render_contains_levels(self, small_topo):
        text = small_topo.render()
        assert "Machine#0" in text
        assert text.count("Pu#") == 8

    def test_iter_covers_all(self, small_topo):
        objs = list(small_topo)
        assert len(objs) == 1 + 2 + 2 + 2 + 8 + 8


#: Non-GROUP levels in containment order; a strictly increasing
#: subsequence of these (plus leading GROUPs and the PU leaf) is a
#: valid hierarchy.
_CHAIN = (
    ObjType.NUMANODE,
    ObjType.PACKAGE,
    ObjType.L3,
    ObjType.L2,
    ObjType.L1,
    ObjType.CORE,
)


@st.composite
def level_lists(draw, max_count: int = 3, max_pus: int = 128):
    """``[(type, count), ...]`` outermost first, ending in PU."""
    n_groups = draw(st.integers(min_value=0, max_value=2))
    chain = draw(
        st.lists(st.sampled_from(_CHAIN), unique=True, max_size=4).map(
            lambda ts: sorted(ts, key=int)
        )
    )
    levels = []
    n_pus = 1
    for t in [ObjType.GROUP] * n_groups + chain + [ObjType.PU]:
        count = draw(st.integers(min_value=1, max_value=max_count))
        if n_pus * count > max_pus:
            count = 1
        n_pus *= count
        levels.append((t, count))
    return levels


class TestBuilder:
    def test_paper_machine_shape(self):
        t = presets.paper_smp()
        assert t.nb_pus == 192
        assert t.nbobjs_by_type(ObjType.NUMANODE) == 24
        assert t.nbobjs_by_type(ObjType.CORE) == 192
        assert t.arities() == [24, 1, 1, 8, 1]

    def test_builder_requires_pu_innermost(self):
        b = TopologyBuilder().add_level(ObjType.CORE, 4)
        with pytest.raises(TopologyError):
            b.build()

    def test_builder_rejects_bad_nesting(self):
        b = TopologyBuilder().add_level(ObjType.CORE, 2)
        with pytest.raises(TopologyError):
            b.add_level(ObjType.PACKAGE, 2)

    def test_builder_rejects_children_under_pu(self):
        b = TopologyBuilder().add_level(ObjType.PU, 2)
        with pytest.raises(TopologyError):
            b.add_level(ObjType.PU, 2)

    def test_builder_rejects_machine_level(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().add_level(ObjType.MACHINE, 1)

    def test_group_may_repeat(self):
        topo = from_spec("group:2 group:2 core:2 pu:1")
        assert topo.nb_pus == 8
        assert topo.nbobjs_by_type(ObjType.GROUP) == 6

    @given(levels=level_lists())
    @settings(max_examples=20, deadline=None)
    def test_counts_and_depth_follow_the_levels(self, levels):
        builder = TopologyBuilder("x")
        for type_, count in levels:
            builder.add_level(type_, count)
        topo = builder.build()
        assert topo.nb_pus == math.prod(count for _, count in levels)
        assert topo.depth == len(levels) + 1  # + the implicit MACHINE root
        assert topo.arities() == [count for _, count in levels]
        for type_ in {t for t, _ in levels}:
            expected, running = 0, 1
            for t, count in levels:
                running *= count
                if t is type_:
                    expected += running
            assert topo.nbobjs_by_type(type_) == expected

    def test_builder_empty_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder().build()

    def test_default_cache_attrs_attached(self):
        t = presets.small_numa()
        l3 = t.objects_by_type(ObjType.L3)[0]
        assert l3.cache is not None and l3.cache.size > 0

    def test_default_memory_attached(self):
        t = presets.small_numa()
        node = t.objects_by_type(ObjType.NUMANODE)[0]
        assert node.memory is not None and node.memory.local_bytes > 0

    def test_flat_topology(self):
        t = flat_topology(5)
        assert t.nb_pus == 5
        assert t.arities() == [5, 1]

    def test_flat_topology_invalid(self):
        with pytest.raises(TopologyError):
            flat_topology(0)


class TestFromSpec:
    def test_basic_spec(self):
        t = from_spec("numa:2 package:1 core:4 pu:2")
        assert t.nb_pus == 16
        assert t.has_hyperthreading()

    def test_spec_synonyms(self):
        t1 = from_spec("node:2 socket:2 core:2 pu:1")
        assert t1.nbobjs_by_type(ObjType.PACKAGE) == 4

    def test_bare_number_is_group(self):
        t = from_spec("2 core:2 pu:1")
        assert t.nbobjs_by_type(ObjType.GROUP) == 2

    @pytest.mark.parametrize(
        "spec", ["machine:1 core:2 pu:1", "core:2 numa:2 pu:1", "numa:0 pu:1"]
    )
    def test_bad_levels_raise_topology_error(self, spec):
        with pytest.raises(TopologyError):
            from_spec(spec)

    def test_unknown_type_rejected(self):
        with pytest.raises(TopologyError):
            from_spec("gadget:2 pu:1")

    def test_bad_count_rejected(self):
        with pytest.raises(TopologyError):
            from_spec("core:x pu:1")

    def test_empty_spec_rejected(self):
        with pytest.raises(TopologyError):
            from_spec("   ")


class TestPresets:
    def test_by_name(self):
        t = presets.by_name("small-numa")
        assert t.nb_pus == 8

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            presets.by_name("nonexistent")

    def test_all_presets_build(self):
        for name in presets.PRESETS:
            t = presets.by_name(name)
            assert t.nb_pus > 0
            assert t.arities()  # balanced

    def test_hyperthreaded_preset(self):
        t = presets.hyperthreaded_smp(2, 4)
        assert t.has_hyperthreading()
        assert t.nb_pus == 16

    def test_deep_hierarchy_depth(self):
        t = presets.deep_hierarchy()
        assert t.depth == 7
