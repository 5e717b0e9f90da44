"""Tests for the preset registry (`repro.topology.presets`).

Pinned guarantees:

* **Every machine is pinned** — the sha-256 of each preset's serialized
  form is fixed, so :func:`repro.exec.cache.topology_fingerprint` and
  every placement memo key built on it stay the same.
* **Shapes** — PU, NUMA-node and GROUP counts of the 512-socket
  grouped machine.
* **Scaling names** — every name of ``SCALING_NAMES`` is a registry
  entry, listed smallest machine first.
* **Mega-topology budget** — the 512-socket preset (4096 PUs) builds,
  with its full distance model, in seconds.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.experiments.scaling import scaling_sizes
from repro.topology import presets
from repro.topology.distance import DistanceModel
from repro.topology.objects import ObjType
from repro.topology.serialize import to_dict


def _sha(topo) -> str:
    payload = json.dumps(to_dict(topo), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


_PAPER_24X8 = "bcc202574dec368f5aaf79eaec99d5285ecd8d0c9ff1aa7f6f0b1fd174bc68e0"
_CLUSTER_4X2X8 = "be21c688e7ebf48561b7998f3b26907466f181bb9fbadd65c0b810dacc272bda"

#: Registry name → sha-256 of the machine built at default arguments.
PINNED_PRESETS = {
    "paper-smp": _PAPER_24X8,
    "dual-xeon": "a874b53bb134a9893db14af97e7424e3fa6e23dab79522a2a0796eb822025d1e",
    "ht-smp": "ba061f01acfdc14b0783153f5401260fad02aab9085f572e2d5dd13966f227b9",
    "small-numa": "d2652b09c36191e73e4b9cd2806e792b93facede3806c6cfebf0b1962dae0e34",
    "deep": "0c6617ee52cee8f83e522bb54be7986c35fdcd418159ab89880929c4182082b5",
    "cluster": _CLUSTER_4X2X8,
    "paper": _PAPER_24X8,
    "smp48x8": "3d1438dfe42e7d274d4c508f04bf2352cde387cb04f9cb6dd348e2123051c4de",
    "smp96x8": "1ec6943da70fb6f08483bdbdb4a5060b4967af28d8b7df3a8bc6dcdc9c49a7e5",
    "smp256x8": "02a03eb92505c9c789629cabfc45bef5c9396d2a6ee3b7007d357f31f535fe6f",
    "smp512x8": "0a9c0f34bdd02e6ca4bc9a5e6ba7f2eb347d7fd149cd2d19f8247ccf7ea2c624",
}

#: Sockets (of 8 cores) → sha-256 of ``paper_smp(sockets, 8)``.
PINNED_PAPER_SMP = {
    1: "caaf56bb6eb61b52309a120525747df5b04495372116c42dfaf440c0d9675afe",
    2: "24b83a0a8861cf8bc780a02b87a808fce818be5296ec46bac11695806d1e8e1d",
    8: "df7cbf399cd494870db115e126b35d0a328c7f47052c37e729aee661c3e27d01",
    24: _PAPER_24X8,
}


class TestPinnedMachines:
    def test_registry_is_pinned(self):
        assert sorted(presets.PRESETS) == sorted(PINNED_PRESETS)

    @pytest.mark.parametrize("name", sorted(PINNED_PRESETS))
    def test_preset_serializes_as_pinned(self, name):
        assert _sha(presets.by_name(name)) == PINNED_PRESETS[name]

    @pytest.mark.parametrize("sockets", sorted(PINNED_PAPER_SMP))
    def test_paper_smp_serializes_as_pinned(self, sockets):
        assert _sha(presets.paper_smp(sockets, 8)) == PINNED_PAPER_SMP[sockets]

    def test_cluster_serializes_as_pinned(self):
        assert _sha(presets.cluster(4, 2, 8)) == _CLUSTER_4X2X8


class TestShapes:
    def test_two_tier_shape(self):
        topo = presets.by_name("smp512x8")
        assert topo.nb_pus == 4096
        assert topo.root.children[0].type is ObjType.GROUP
        assert topo.nbobjs_by_type(ObjType.GROUP) == 8
        assert topo.nbobjs_by_type(ObjType.NUMANODE) == 512


class TestScalingNames:
    def test_scaling_names_listed_smallest_first(self):
        sizes = [presets.by_name(name).nb_pus for name in presets.SCALING_NAMES]
        assert sizes == [192, 384, 768, 2048, 4096]

    def test_scaling_sizes_sorted_ascending(self):
        sized = scaling_sizes(["smp96x8", "paper", "smp48x8"])
        assert sized == [("paper", 192), ("smp48x8", 384), ("smp96x8", 768)]

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError):
            presets.by_name("smp7x7")
        with pytest.raises(KeyError):
            scaling_sizes(["smp7x7"])
        with pytest.raises(KeyError):
            scaling_sizes(["small-numa"])  # a preset, but not a scaling one


class TestMegaTopologyBudget:
    def test_512_socket_preset_builds_fast(self):
        t0 = time.perf_counter()
        topo = presets.by_name("smp512x8")
        DistanceModel(topo)
        elapsed = time.perf_counter() - t0
        assert topo.nb_pus == 4096
        assert elapsed < 10.0, f"512-socket build took {elapsed:.1f}s"
