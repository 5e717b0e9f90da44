"""Tests for generating machines from level lists.

Every synthetic machine comes out of :class:`TopologyBuilder`, level by
level or through :func:`from_spec`'s hwloc-style string.  These cases
pin the rules a level list must follow (PU innermost, containment
order, no MACHINE level, known type names) and the shape of the paper's
machine as the scaling study names it.  The preset registry's pinned
serialized forms are in ``tests/test_presets.py``.
"""

from __future__ import annotations

import pytest

from repro.topology import presets
from repro.topology.builder import TopologyBuilder, from_spec
from repro.topology.objects import ObjType
from repro.topology.serialize import to_dict
from repro.topology.tree import TopologyError


class TestBuildInvariants:
    def test_count_of_paper_shape(self):
        topo = presets.by_name("paper")
        assert topo.nb_pus == 192
        assert topo.nbobjs_by_type(ObjType.NUMANODE) == 24
        assert topo.nbobjs_by_type(ObjType.CORE) == 192
        assert topo.nbobjs_by_type(ObjType.PU) == 192
        assert topo.nbobjs_by_type(ObjType.GROUP) == 0
        spelled = from_spec("numanode:24 package:1 l3:1 core:8 pu:1", name=topo.name)
        assert to_dict(spelled) == to_dict(topo)


class TestScalingRegistry:
    def test_from_spec_string(self):
        topo = from_spec("numa:2 core:4 pu:1")
        assert topo.nb_pus == 8
        anon = from_spec("2 core:2 pu:1")
        assert anon.root.children[0].type is ObjType.GROUP


class TestValidation:
    def test_innermost_must_be_pu(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("x").add_level(ObjType.NUMANODE, 2).build()
        with pytest.raises(TopologyError):
            from_spec("numa:2")

    def test_containment_order_enforced(self):
        builder = TopologyBuilder("x").add_level(ObjType.CORE, 2)
        with pytest.raises(TopologyError):
            builder.add_level(ObjType.NUMANODE, 2)
        with pytest.raises(TopologyError):
            from_spec("core:2 numa:2 pu:1")

    def test_machine_level_rejected(self):
        with pytest.raises(TopologyError):
            TopologyBuilder("x").add_level(ObjType.MACHINE, 1)
        with pytest.raises(TopologyError):
            from_spec("machine:1 pu:1")

    def test_unknown_type_rejected(self):
        with pytest.raises(TopologyError):
            from_spec("quark:2 pu:1")
        with pytest.raises(TopologyError):
            from_spec("numa:2 quark:2 pu:1")
