"""Tests for the SVG topology renderer."""

import re
import xml.etree.ElementTree as ET

from repro.tools import lstopo as lstopo_cli
from repro.topology import presets
from repro.topology.svg import save_svg, to_svg


class TestSvg:
    def test_well_formed_xml(self, small_topo):
        doc = to_svg(small_topo)
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")

    def test_one_rect_per_object(self, small_topo):
        doc = to_svg(small_topo)
        # background rect + one per topology object
        n_objects = sum(1 for _ in small_topo)
        assert doc.count("<rect") == n_objects + 1

    def test_pu_labels_present(self, small_topo):
        doc = to_svg(small_topo)
        for pu in small_topo.pus():
            assert f"PU#{pu.os_index}<" in doc

    def test_cache_sizes_rendered(self, small_topo):
        doc = to_svg(small_topo)
        assert "MiB)" in doc  # L3 size label

    def test_title(self, small_topo):
        doc = to_svg(small_topo, title="hello-machine")
        assert "hello-machine" in doc

    def test_dimensions_positive(self, small_topo):
        doc = to_svg(small_topo)
        m = re.search(r'width="(\d+)" height="(\d+)"', doc)
        assert m and int(m.group(1)) > 0 and int(m.group(2)) > 0

    def test_save(self, tmp_path, small_topo):
        dest = tmp_path / "t.svg"
        save_svg(small_topo, str(dest))
        assert dest.read_text().startswith("<svg")

    def test_scales_to_paper_machine(self):
        doc = to_svg(presets.paper_smp())
        assert doc.count("PU#") == 192

    def test_cli_svg_flag(self, tmp_path, capsys):
        dest = tmp_path / "cli.svg"
        assert lstopo_cli.main(["small-numa", "--summary", "--svg", str(dest)]) == 0
        assert dest.exists()
        assert "rendered to" in capsys.readouterr().out


class TestMappingOverlay:
    def test_loaded_pus_highlighted(self, small_topo):
        from repro.treematch.mapping import Mapping

        mp = Mapping((0, 0, 5))
        doc = to_svg(small_topo, mapping=mp)
        # PU 0 has two threads: count annotation present.
        assert "PU#0 x2<" in doc
        # Load colours used.
        assert "#e8c860" in doc  # load-2 colour on PU 0
        assert "#7bc87b" in doc  # load-1 colour on PU 5

    def test_unbound_mapping_no_highlight(self, small_topo):
        from repro.treematch.mapping import Mapping

        doc = to_svg(small_topo, mapping=Mapping((-1, -1)))
        assert "#7bc87b" not in doc

    def test_heavy_load_capped_colour(self, small_topo):
        from repro.treematch.mapping import Mapping

        mp = Mapping(tuple([3] * 9))
        doc = to_svg(small_topo, mapping=mp)
        assert "PU#3 x9<" in doc
        assert "#d95f5f" in doc  # 4+ colour
