"""Tests for the platform model: components, links, latencies, geometry."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.platform.interconnect import LinkKind
from repro.platform.numa import Position
from repro.platform.presets import EPYC_7302_SPEC, EPYC_9634_SPEC
from repro.platform.topology import Platform


class TestComponentCounts:
    def test_7302_hierarchy(self, p7302):
        assert len(p7302.cores) == 16
        assert len(p7302.ccxs) == 8
        assert len(p7302.ccds) == 4
        assert len(p7302.umcs) == 8
        assert len(p7302.dimms) == 8
        assert len(p7302.cxl_devices) == 0

    def test_9634_hierarchy(self, p9634):
        assert len(p9634.cores) == 84
        assert len(p9634.ccxs) == 12
        assert len(p9634.ccds) == 12
        assert len(p9634.umcs) == 12
        assert len(p9634.cxl_devices) == 4

    def test_cores_per_ccx(self, p7302, p9634):
        assert p7302.spec.cores_per_ccx == 2
        assert p9634.spec.cores_per_ccx == 7

    def test_ccx_per_ccd(self, p7302, p9634):
        assert p7302.spec.ccx_per_ccd == 2
        assert p9634.spec.ccx_per_ccd == 1

    def test_every_core_belongs_to_its_ccx(self, platform):
        for core in platform.cores.values():
            ccx = platform.ccxs[core.ccx_id]
            assert core.core_id in ccx.core_ids
            assert ccx.ccd_id == core.ccd_id

    def test_every_ccx_belongs_to_its_ccd(self, platform):
        for ccx in platform.ccxs.values():
            assert ccx.ccx_id in platform.ccds[ccx.ccd_id].ccx_ids

    def test_core_ids_are_dense(self, platform):
        assert sorted(platform.cores) == list(range(platform.spec.cores))

    def test_l3_slices_sum_to_total(self, platform):
        total = sum(ccx.l3_slice_bytes for ccx in platform.ccxs.values())
        assert total == platform.spec.l3_total_bytes

    def test_root_complexes_cover_all_devices(self, p7302, p9634):
        # One RC per CXL module plus one per generic PCIe endpoint.
        assert len(p7302.root_complexes) == 0 + p7302.spec.pcie_device_count
        assert len(p9634.root_complexes) == 4 + p9634.spec.pcie_device_count

    def test_pcie_device_present(self, platform):
        assert len(platform.pcie_devices) == platform.spec.pcie_device_count
        dev = platform.pcie_devices[0]
        assert dev.rc_id in platform.root_complexes


class TestLookups:
    def test_core_lookup(self, platform):
        assert platform.core(0).core_id == 0

    def test_unknown_core_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.core(10_000)

    def test_cores_of_ccx(self, p7302):
        cores = p7302.cores_of_ccx(0)
        assert len(cores) == 2
        assert all(core.ccx_id == 0 for core in cores)

    def test_cores_of_ccd(self, p9634):
        cores = p9634.cores_of_ccd(0)
        assert len(cores) == 7
        assert all(core.ccd_id == 0 for core in cores)

    def test_unknown_ccx_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.cores_of_ccx(999)

    def test_unknown_ccd_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.cores_of_ccd(999)

    def test_repr_mentions_name(self, p7302):
        assert "EPYC 7302" in repr(p7302)


class TestLinks:
    def test_per_ccd_links_exist(self, platform):
        for ccd_id in platform.ccds:
            assert platform.link(f"if/ccd{ccd_id}").kind is LinkKind.IF
            assert platform.link(f"gmi/ccd{ccd_id}").kind is LinkKind.GMI
            assert platform.link(f"hubport/ccd{ccd_id}").kind is LinkKind.IO_HUB

    def test_noc_link(self, platform):
        noc = platform.link("noc")
        assert noc.read_gbps == platform.spec.bandwidth.noc_read_gbps

    def test_unknown_link_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.link("no-such-link")

    def test_links_of_kind(self, p9634):
        cxl_links = p9634.links_of_kind(LinkKind.CXL)
        assert len(cxl_links) == 4

    def test_links_returns_copy(self, platform):
        links = platform.links
        links.clear()
        assert platform.links  # internal registry unaffected

    def test_if_headroom_above_gmi(self, platform):
        # The IF die-to-die link is provisioned above the GMI memory path.
        for ccd_id in platform.ccds:
            if_link = platform.link(f"if/ccd{ccd_id}")
            gmi = platform.link(f"gmi/ccd{ccd_id}")
            assert if_link.read_gbps > gmi.read_gbps

    def test_7302_if_headroom_larger_than_9634(self, p7302, p9634):
        # Figure 3 a/b: the 7302 IF is generously provisioned, the 9634's
        # is tight.
        ratio_7302 = (
            p7302.link("if/ccd0").read_gbps / p7302.link("gmi/ccd0").read_gbps
        )
        ratio_9634 = (
            p9634.link("if/ccd0").read_gbps / p9634.link("gmi/ccd0").read_gbps
        )
        assert ratio_7302 > ratio_9634


class TestGraph:
    def test_graph_has_all_components(self, platform):
        graph = platform.graph()
        assert "iod" in graph
        for core in platform.cores.values():
            assert core.name in graph
        for umc in platform.umcs.values():
            assert umc.name in graph

    def test_graph_is_connected(self, platform):
        import networkx as nx

        assert nx.is_connected(platform.graph())

    def test_core_to_dimm_path_passes_through_iod(self, platform):
        import networkx as nx

        path = nx.shortest_path(platform.graph(), "core0", "dimm0")
        assert "iod" in path

    def test_cxl_path_passes_through_hub_and_rc(self, p9634):
        import networkx as nx

        path = nx.shortest_path(p9634.graph(), "core0", "cxl0")
        assert "iohub0" in path
        assert "rc0" in path

    def test_graph_copy_is_safe(self, platform):
        graph = platform.graph()
        graph.add_node("scribble")
        assert "scribble" not in platform.graph()


_LEAN_IMPORT_PROBE = """
import pickle, sys
import repro.cli
from repro.platform.presets import epyc_7302, epyc_9634
epyc_7302()
epyc_9634()
assert "networkx" not in sys.modules, "networkx imported"
assert b"networkx" not in pickle.dumps(epyc_9634()), "networkx pickled"
"""


def test_cli_import_and_presets_leave_networkx_unloaded():
    # networkx is imported only by Platform.graph() and the escape-network
    # deadlock check, so the CLI, the presets and the Platform pickles a
    # pool worker receives all stay free of it.
    src = Path(__file__).resolve().parent.parent / "src"
    completed = subprocess.run(
        [sys.executable, "-c", _LEAN_IMPORT_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]


class TestLatencies:
    def test_cache_latencies(self, p7302):
        assert p7302.cache_latency_ns(1) == pytest.approx(1.24)
        assert p7302.cache_latency_ns(2) == pytest.approx(5.66)
        assert p7302.cache_latency_ns(3) == pytest.approx(34.3)

    def test_unknown_cache_level(self, platform):
        with pytest.raises(ConfigurationError):
            platform.cache_latency_ns(4)

    def test_dram_position_ordering(self, platform):
        near = platform.dram_latency_at(0, Position.NEAR)
        vertical = platform.dram_latency_at(0, Position.VERTICAL)
        horizontal = platform.dram_latency_at(0, Position.HORIZONTAL)
        diagonal = platform.dram_latency_at(0, Position.DIAGONAL)
        assert near < vertical < horizontal
        assert near < diagonal

    def test_9634_diagonal_faster_than_horizontal(self, p9634):
        # Table 2's surprise: the 9634 routes diagonals without a turn
        # penalty, so diagonal (149) beats horizontal (150).
        diagonal = p9634.dram_latency_at(0, Position.DIAGONAL)
        horizontal = p9634.dram_latency_at(0, Position.HORIZONTAL)
        assert diagonal < horizontal

    def test_7302_diagonal_slower_than_horizontal(self, p7302):
        diagonal = p7302.dram_latency_at(0, Position.DIAGONAL)
        horizontal = p7302.dram_latency_at(0, Position.HORIZONTAL)
        assert diagonal > horizontal

    def test_cxl_slower_than_any_dram(self, p9634):
        cxl = p9634.cxl_latency_ns(0)
        worst_dram = max(
            p9634.dram_latency_at(0, pos) for pos in Position
        )
        assert cxl > worst_dram

    def test_cxl_on_7302_raises(self, p7302):
        with pytest.raises(TopologyError):
            p7302.cxl_latency_ns(0)

    def test_dram_latency_specific_umc(self, platform):
        near_umcs = platform.umcs_at(0, Position.NEAR)
        latency = platform.dram_latency_ns(0, near_umcs[0].umc_id)
        assert latency == platform.dram_latency_at(0, Position.NEAR)


class TestNumaGeometry:
    def test_ccd0_sees_all_positions(self, platform):
        for position in Position:
            assert platform.umcs_at(0, position), position

    def test_umc_position_classification(self, platform):
        ccd = platform.ccds[0]
        for umc in platform.umcs.values():
            position = platform.position_of_umc(0, umc.umc_id)
            dx = abs(umc.coord[0] - ccd.coord[0])
            dy = abs(umc.coord[1] - ccd.coord[1])
            if dx == 0 and dy == 0:
                assert position is Position.NEAR
            elif dx == 0:
                assert position is Position.VERTICAL
            elif dy == 0:
                assert position is Position.HORIZONTAL
            else:
                assert position is Position.DIAGONAL

    def test_unknown_ccd_position_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.position_of_umc(999, 0)

    def test_unknown_umc_position_raises(self, platform):
        with pytest.raises(TopologyError):
            platform.position_of_umc(0, 999)

    def test_mesh_offset(self, platform):
        assert platform.mesh_offset((0, 0), (2, 1)) == (2, 1)
        assert platform.mesh_offset((2, 1), (0, 0)) == (-2, -1)


class TestSpecValidation:
    def test_indivisible_cores_rejected(self):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            Platform(replace(EPYC_7302_SPEC, cores=15))

    def test_indivisible_ccx_rejected(self):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            Platform(replace(EPYC_7302_SPEC, ccx_count=6))

    def test_cxl_without_latency_rejected(self):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            replace(EPYC_7302_SPEC, cxl_device_count=2)

    def test_spec_convenience_properties(self):
        assert EPYC_9634_SPEC.cores_per_ccd == 7
        assert EPYC_7302_SPEC.l3_per_ccx_bytes == 16 * 2**20
