"""Platform specification and the queryable :class:`Platform` model.

A :class:`PlatformSpec` bundles everything Table 1 lists about a processor
(counts, cache sizes, process nodes) together with the calibration constants
(:class:`LatencyParams`, :class:`BandwidthParams`) that make the simulated
machine reproduce the paper's measurements. :class:`Platform` materializes the
spec into component registries, the I/O-die mesh and a link registry; its
networkx connectivity graph (for routing and the device-tree export, §4 #1)
is built on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.platform.components import (
    CCD,
    CCX,
    Core,
    CXLDevice,
    DIMM,
    IOHub,
    PCIeDevice,
    RootComplex,
    UMC,
)
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.platform.numa import Position, classify_position

if TYPE_CHECKING:
    import networkx as nx

Coord = Tuple[int, int]

__all__ = ["LatencyParams", "BandwidthParams", "PlatformSpec", "Platform"]


@dataclass(frozen=True)
class LatencyParams:
    """Unloaded per-stage latencies (ns) along the data path (§3.2, Table 2).

    A DRAM access decomposes as::

        l3_ns (miss detect) + if_link_ns + ccm_ns + mesh hops + cs_ns
        + umc_ns + dram_ns

    and a CXL access as::

        l3_ns + if_link_ns + ccm_ns + mesh hops + io_hub_ns
        + root_complex_ns + p_link_ns + cxl_device_ns

    Mesh hops cost ``x_hop_ns`` / ``y_hop_ns`` per hop plus ``turn_ns`` when
    the XY route changes dimension (negative values model express channels).
    """

    l1_ns: float
    l2_ns: float
    l3_ns: float
    #: Worst-case queueing delay in the per-CCX traffic-control module.
    ccx_queue_max_ns: float
    #: Worst-case queueing at the CCD-level module (0 when absent, e.g. 9634).
    ccd_queue_max_ns: float
    if_link_ns: float
    ccm_ns: float
    x_hop_ns: float
    y_hop_ns: float
    turn_ns: float
    cs_ns: float
    umc_ns: float
    dram_ns: float
    io_hub_ns: float
    root_complex_ns: float
    p_link_ns: float
    #: CXL device internal latency; None when the platform has no CXL memory.
    cxl_device_ns: Optional[float] = None
    #: Generic PCIe endpoint internal latency for a non-posted (MMIO read)
    #: completion; posted doorbell writes complete at the root complex.
    pcie_device_ns: float = 400.0
    #: Extra one-way latency of the inter-socket link (xGMI); None when the
    #: platform has (or models) a single socket.
    xgmi_ns: Optional[float] = None

    @property
    def switching_hop_ns(self) -> float:
        """Representative mesh switching-hop cost (Table 2 "Switching Hop")."""
        return (self.x_hop_ns + self.y_hop_ns) / 2.0

    def mesh_cost_ns(self, dx: int, dy: int) -> float:
        """Cost of an XY route covering ``dx`` x-hops and ``dy`` y-hops."""
        cost = abs(dx) * self.x_hop_ns + abs(dy) * self.y_hop_ns
        if dx != 0 and dy != 0:
            cost += self.turn_ns
        return cost

    def dram_fixed_ns(self, dx: int, dy: int) -> float:
        """Unloaded core→DRAM latency with the given mesh offset."""
        return (
            self.l3_ns
            + self.if_link_ns
            + self.ccm_ns
            + self.mesh_cost_ns(dx, dy)
            + self.cs_ns
            + self.umc_ns
            + self.dram_ns
        )

    def cxl_fixed_ns(self, dx: int, dy: int) -> float:
        """Unloaded core→CXL-device latency with the given mesh offset."""
        if self.cxl_device_ns is None:
            raise ConfigurationError("platform has no CXL memory device")
        return (
            self.l3_ns
            + self.if_link_ns
            + self.ccm_ns
            + self.mesh_cost_ns(dx, dy)
            + self.io_hub_ns
            + self.root_complex_ns
            + self.p_link_ns
            + self.cxl_device_ns
        )

    def device_path_ns(self, dx: int, dy: int) -> float:
        """One-way core→root-complex cost (shared by MMIO and doorbells)."""
        return (
            self.l3_ns
            + self.if_link_ns
            + self.ccm_ns
            + self.mesh_cost_ns(dx, dy)
            + self.io_hub_ns
            + self.root_complex_ns
            + self.p_link_ns
        )

    def mmio_read_ns(self, dx: int, dy: int) -> float:
        """Non-posted MMIO read: request + device turnaround + completion."""
        return self.device_path_ns(dx, dy) + self.pcie_device_ns

    def dma_dram_ns(self, dx: int, dy: int) -> float:
        """Device-initiated DMA to DRAM: P Link → hub → mesh → UMC → DRAM."""
        return (
            self.p_link_ns
            + self.root_complex_ns
            + self.io_hub_ns
            + self.mesh_cost_ns(dx, dy)
            + self.cs_ns
            + self.umc_ns
            + self.dram_ns
        )

    def doorbell_write_ns(self, dx: int, dy: int) -> float:
        """Posted doorbell write: retires once accepted at the root complex
        (the store is globally visible there; no completion returns)."""
        return self.device_path_ns(dx, dy) - self.p_link_ns


@dataclass(frozen=True)
class BandwidthParams:
    """Bandwidth domains (GB/s) and per-core parallelism limits (§3.3, Table 3).

    Each field is one potential bottleneck on the end-to-end path; which one
    binds for a given experiment is *measured*, not configured (see
    :mod:`repro.experiments.table3`).
    """

    #: Max outstanding cacheline reads per core (MSHR/LFB limit), reached
    #: by sequential streams whose prefetchers keep the window full.
    mlp_read: int
    #: Write-combining buffers per core (bounds non-temporal write streams).
    wcb_write: int
    #: Per-CCX traffic-control token pool expressed as read/write GB/s
    #: ceilings; None when CCX == CCD (one CCX per chiplet, e.g. 9634).
    ccx_read_gbps: Optional[float]
    ccx_write_gbps: Optional[float]
    #: GMI port capacity per compute chiplet.
    gmi_read_gbps: float
    gmi_write_gbps: float
    #: Per-UMC (single DRAM channel) service rate.
    umc_read_gbps: float
    umc_write_gbps: float
    #: Aggregate I/O-die NoC routing capacity (binds whole-CPU bandwidth).
    noc_read_gbps: float
    noc_write_gbps: float
    #: Per-CCD share of the mesh→I/O-hub path (binds CCX→device bandwidth).
    hub_port_read_gbps: float
    hub_port_write_gbps: float
    #: Per-root-complex P Link capacity.
    p_link_read_gbps: float
    p_link_write_gbps: float
    #: Per-CXL-device sustained rate; None when the platform has no CXL.
    cxl_dev_read_gbps: Optional[float] = None
    cxl_dev_write_gbps: Optional[float] = None
    #: Max outstanding reads / write buffers per core toward CXL memory
    #: (CXL.mem uses separate credit pools from the DRAM path).
    cxl_mlp_read: int = 0
    cxl_wcb_write: int = 0
    #: Traffic-control token counts of the per-CCX and per-CCD modules
    #: (§3.2). None → derive from the queue-delay bound; explicit values are
    #: calibrated so the measured max queueing lands on Table 2's rows.
    ccx_tokens: Optional[int] = None
    ccd_tokens: Optional[int] = None
    #: Effective outstanding reads for *random* (prefetch-defeating)
    #: accesses; None derives roughly half the sequential MLP.
    mlp_random_read: Optional[int] = None
    #: Inter-socket (xGMI) link capacity; None on single-socket platforms.
    xgmi_read_gbps: Optional[float] = None
    xgmi_write_gbps: Optional[float] = None

    @property
    def effective_random_mlp(self) -> int:
        if self.mlp_random_read is not None:
            return self.mlp_random_read
        return max(4, self.mlp_read // 2)


@dataclass(frozen=True)
class PlatformSpec:
    """Everything needed to build a :class:`Platform` (Table 1 + calibration)."""

    name: str
    microarchitecture: str
    sockets: int
    cores: int
    ccx_count: int
    ccd_count: int
    l1_bytes: int
    l2_bytes: int
    l3_total_bytes: int
    umc_count: int
    dimm_capacity_bytes: int
    cxl_device_count: int
    cxl_device_capacity_bytes: int
    pcie_gen: int
    pcie_lanes: int
    base_ghz: float
    turbo_ghz: float
    compute_process_nm: int
    io_process_nm: int
    latency: LatencyParams
    bandwidth: BandwidthParams
    #: Mesh grid dimensions (columns, rows) of the I/O die.
    mesh_grid: Coord = (3, 2)
    #: GMI-port mesh stop for each CCD (cycled if fewer than ccd_count).
    ccd_coords: Tuple[Coord, ...] = ((0, 0), (2, 0), (0, 1), (2, 1))
    #: Mesh stops hosting UMCs (UMCs are distributed round-robin over these,
    #: ordered so that CCD0 sees one group per position class of Table 2).
    umc_coords: Tuple[Coord, ...] = ((0, 0), (0, 1), (2, 0), (1, 1))
    io_hub_coord: Coord = (1, 0)
    #: Generic PCIe endpoints (NIC-class) attached behind the I/O hub, each
    #: on its own root complex.
    pcie_device_count: int = 1

    def __post_init__(self) -> None:
        if self.cores % self.ccx_count:
            raise ConfigurationError(
                f"{self.name}: {self.cores} cores not divisible by "
                f"{self.ccx_count} CCXs"
            )
        if self.ccx_count % self.ccd_count:
            raise ConfigurationError(
                f"{self.name}: {self.ccx_count} CCXs not divisible by "
                f"{self.ccd_count} CCDs"
            )
        if self.cxl_device_count and self.latency.cxl_device_ns is None:
            raise ConfigurationError(
                f"{self.name}: CXL devices present but no CXL latency configured"
            )

    @property
    def cores_per_ccx(self) -> int:
        return self.cores // self.ccx_count

    @property
    def ccx_per_ccd(self) -> int:
        return self.ccx_count // self.ccd_count

    @property
    def cores_per_ccd(self) -> int:
        return self.cores // self.ccd_count

    @property
    def l3_per_ccx_bytes(self) -> int:
        return self.l3_total_bytes // self.ccx_count


class Platform:
    """A materialized chiplet server SoC: components, links, and routes."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec
        self.cores: Dict[int, Core] = {}
        self.ccxs: Dict[int, CCX] = {}
        self.ccds: Dict[int, CCD] = {}
        self.umcs: Dict[int, UMC] = {}
        self.dimms: Dict[int, DIMM] = {}
        self.io_hubs: Dict[int, IOHub] = {}
        self.root_complexes: Dict[int, RootComplex] = {}
        self.cxl_devices: Dict[int, CXLDevice] = {}
        self.pcie_devices: Dict[int, PCIeDevice] = {}
        self._links: Dict[str, LinkSpec] = {}
        self._build_components()
        self._build_links()

    # ------------------------------------------------------------------ build

    def _build_components(self) -> None:
        spec = self.spec
        per_ccx = spec.cores_per_ccx
        ccx_per_ccd = spec.ccx_per_ccd
        for ccd_id in range(spec.ccd_count):
            coord = spec.ccd_coords[ccd_id % len(spec.ccd_coords)]
            ccx_ids = tuple(
                ccd_id * ccx_per_ccd + i for i in range(ccx_per_ccd)
            )
            self.ccds[ccd_id] = CCD(ccd_id, ccx_ids, coord)
            for ccx_id in ccx_ids:
                core_ids = tuple(
                    ccx_id * per_ccx + i for i in range(per_ccx)
                )
                self.ccxs[ccx_id] = CCX(
                    ccx_id, ccd_id, core_ids, spec.l3_per_ccx_bytes
                )
                for core_id in core_ids:
                    self.cores[core_id] = Core(core_id, ccx_id, ccd_id)
        for umc_id in range(spec.umc_count):
            coord = spec.umc_coords[umc_id % len(spec.umc_coords)]
            self.umcs[umc_id] = UMC(umc_id, coord)
            self.dimms[umc_id] = DIMM(umc_id, umc_id, spec.dimm_capacity_bytes)
        self.io_hubs[0] = IOHub(0, spec.io_hub_coord)
        for dev_id in range(spec.cxl_device_count):
            self.root_complexes[dev_id] = RootComplex(dev_id, hub_id=0)
            self.cxl_devices[dev_id] = CXLDevice(
                dev_id, dev_id, spec.cxl_device_capacity_bytes
            )
        # Generic PCIe endpoints, each behind its own root complex.
        next_rc = spec.cxl_device_count
        for dev_id in range(spec.pcie_device_count):
            rc_id = next_rc + dev_id
            self.root_complexes[rc_id] = RootComplex(rc_id, hub_id=0)
            self.pcie_devices[dev_id] = PCIeDevice(dev_id, rc_id)
        if not self.root_complexes:
            self.root_complexes[0] = RootComplex(0, hub_id=0)

    def _build_links(self) -> None:
        bw = self.spec.bandwidth
        lat = self.spec.latency
        for ccd_id in self.ccds:
            self._add_link(
                LinkSpec(
                    f"if/ccd{ccd_id}", LinkKind.IF, lat.if_link_ns,
                    # The IF die-to-die link is provisioned above the GMI
                    # memory path; how much headroom it has is exactly what
                    # distinguishes the 7302 from the 9634 in Figure 3 a/b.
                    read_gbps=bw.gmi_read_gbps * self._if_headroom(),
                    write_gbps=bw.gmi_write_gbps * self._if_headroom(),
                )
            )
            self._add_link(
                LinkSpec(
                    f"gmi/ccd{ccd_id}", LinkKind.GMI, lat.ccm_ns,
                    read_gbps=bw.gmi_read_gbps, write_gbps=bw.gmi_write_gbps,
                )
            )
            self._add_link(
                LinkSpec(
                    f"hubport/ccd{ccd_id}", LinkKind.IO_HUB, lat.io_hub_ns,
                    read_gbps=bw.hub_port_read_gbps,
                    write_gbps=bw.hub_port_write_gbps,
                )
            )
        for umc_id in self.umcs:
            self._add_link(
                LinkSpec(
                    f"umc{umc_id}", LinkKind.GMI, lat.umc_ns,
                    read_gbps=bw.umc_read_gbps, write_gbps=bw.umc_write_gbps,
                )
            )
        self._add_link(
            LinkSpec(
                "noc", LinkKind.NOC_HOP, lat.switching_hop_ns,
                read_gbps=bw.noc_read_gbps, write_gbps=bw.noc_write_gbps,
            )
        )
        if (
            self.spec.sockets >= 2
            and lat.xgmi_ns is not None
            and bw.xgmi_read_gbps is not None
            and bw.xgmi_write_gbps is not None
        ):
            self._add_link(
                LinkSpec(
                    "xgmi", LinkKind.XGMI, lat.xgmi_ns,
                    read_gbps=bw.xgmi_read_gbps,
                    write_gbps=bw.xgmi_write_gbps,
                )
            )
        for rc_id in self.root_complexes:
            self._add_link(
                LinkSpec(
                    f"plink/rc{rc_id}", LinkKind.P_LINK, lat.p_link_ns,
                    read_gbps=bw.p_link_read_gbps,
                    write_gbps=bw.p_link_write_gbps,
                )
            )
        for dev_id in self.cxl_devices:
            if bw.cxl_dev_read_gbps is None or bw.cxl_dev_write_gbps is None:
                raise ConfigurationError(
                    f"{self.spec.name}: CXL devices present but no CXL "
                    "bandwidth configured"
                )
            self._add_link(
                LinkSpec(
                    f"cxldev{dev_id}", LinkKind.CXL,
                    self.spec.latency.cxl_device_ns or 0.0,
                    read_gbps=bw.cxl_dev_read_gbps,
                    write_gbps=bw.cxl_dev_write_gbps,
                )
            )
        for dev_id in self.pcie_devices:
            # A generic endpoint ingests at its P Link's rate.
            self._add_link(
                LinkSpec(
                    f"pciedev{dev_id}", LinkKind.PCIE,
                    lat.pcie_device_ns,
                    read_gbps=bw.p_link_read_gbps,
                    write_gbps=bw.p_link_write_gbps,
                )
            )

    def _if_headroom(self) -> float:
        """IF capacity as a multiple of the GMI memory-path capacity.

        The 7302 provisions IF well above what its cores can drive (Figure 3a
        is flat); the 9634 is "less-provisioned" (Figure 3b shows a 2× latency
        rise near peak). One CCX per CCD (9634) gets a tight IF; two CCX per
        CCD (7302) gets generous headroom.
        """
        return 1.05 if self.spec.ccx_per_ccd == 1 else 1.8

    def _add_link(self, link: LinkSpec) -> None:
        if link.name in self._links:
            raise ConfigurationError(f"duplicate link {link.name}")
        self._links[link.name] = link

    def graph(self) -> "nx.Graph":
        """Component connectivity graph, new per call (safe to annotate).

        networkx is imported here, on first use, so importing the package
        and building or pickling a Platform never load it.
        """
        import networkx as nx

        graph = nx.Graph()
        for core in self.cores.values():
            graph.add_node(core.name, kind="core")
            graph.add_edge(core.name, f"ccx{core.ccx_id}", kind="l3")
        for ccx in self.ccxs.values():
            graph.add_node(ccx.name, kind="ccx")
            graph.add_edge(ccx.name, f"ccd{ccx.ccd_id}", kind="intra-ccd")
        for ccd in self.ccds.values():
            graph.add_node(ccd.name, kind="ccd", coord=ccd.coord)
            graph.add_edge(ccd.name, "iod", kind=LinkKind.IF.value)
        graph.add_node("iod", kind="io-die")
        for umc in self.umcs.values():
            graph.add_node(umc.name, kind="umc", coord=umc.coord)
            graph.add_edge("iod", umc.name, kind=LinkKind.GMI.value)
            dimm = self.dimms[umc.umc_id]
            graph.add_node(dimm.name, kind="dimm")
            graph.add_edge(umc.name, dimm.name, kind="dram")
        for hub in self.io_hubs.values():
            graph.add_node(hub.name, kind="io-hub", coord=hub.coord)
            graph.add_edge("iod", hub.name, kind=LinkKind.IO_HUB.value)
        for rc in self.root_complexes.values():
            graph.add_node(rc.name, kind="root-complex")
            graph.add_edge(f"iohub{rc.hub_id}", rc.name, kind=LinkKind.P_LINK.value)
        for dev in self.cxl_devices.values():
            graph.add_node(dev.name, kind="cxl-device")
            graph.add_edge(f"rc{dev.rc_id}", dev.name, kind=LinkKind.CXL.value)
        for dev in self.pcie_devices.values():
            graph.add_node(dev.name, kind="pcie-device")
            graph.add_edge(f"rc{dev.rc_id}", dev.name, kind=LinkKind.PCIE.value)
        return graph

    # ----------------------------------------------------------------- lookup

    def __repro_cache_key__(self) -> "PlatformSpec":
        # A Platform is a pure function of its spec (the whole build above
        # is deterministic), so the spec is its content-address surrogate
        # for :mod:`repro.cache`.
        return self.spec

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def links(self) -> Dict[str, LinkSpec]:
        return dict(self._links)

    def link(self, name: str) -> LinkSpec:
        """Look up a link spec by name (TopologyError if unknown)."""
        try:
            return self._links[name]
        except KeyError:
            raise TopologyError(f"unknown link {name!r}") from None

    def links_of_kind(self, kind: LinkKind) -> List[LinkSpec]:
        """All links of one LinkKind."""
        return [link for link in self._links.values() if link.kind is kind]

    def core(self, core_id: int) -> Core:
        """Look up a core by id (TopologyError if unknown)."""
        try:
            return self.cores[core_id]
        except KeyError:
            raise TopologyError(f"unknown core {core_id}") from None

    def cores_of_ccx(self, ccx_id: int) -> List[Core]:
        """The cores of one core complex, in id order."""
        ccx = self.ccxs.get(ccx_id)
        if ccx is None:
            raise TopologyError(f"unknown CCX {ccx_id}")
        return [self.cores[i] for i in ccx.core_ids]

    def cores_of_ccd(self, ccd_id: int) -> List[Core]:
        """The cores of one compute chiplet, in id order."""
        ccd = self.ccds.get(ccd_id)
        if ccd is None:
            raise TopologyError(f"unknown CCD {ccd_id}")
        return [
            core
            for ccx_id in ccd.ccx_ids
            for core in self.cores_of_ccx(ccx_id)
        ]

    # ----------------------------------------------------------- geometry/NUMA

    def position_of_umc(self, ccd_id: int, umc_id: int) -> Position:
        """Table-2 position class of a UMC relative to a CCD's GMI port."""
        ccd = self.ccds.get(ccd_id)
        umc = self.umcs.get(umc_id)
        if ccd is None:
            raise TopologyError(f"unknown CCD {ccd_id}")
        if umc is None:
            raise TopologyError(f"unknown UMC {umc_id}")
        return classify_position(ccd.coord, umc.coord)

    def umcs_at(self, ccd_id: int, position: Position) -> List[UMC]:
        """All UMCs at ``position`` relative to ``ccd_id``."""
        return [
            umc
            for umc in self.umcs.values()
            if self.position_of_umc(ccd_id, umc.umc_id) is position
        ]

    def mesh_offset(self, src: Coord, dst: Coord) -> Tuple[int, int]:
        """Coordinate delta from src to dst mesh stops."""
        return (dst[0] - src[0], dst[1] - src[1])

    # --------------------------------------------------------------- latencies

    def cache_latency_ns(self, level: int) -> float:
        """Unloaded load-to-use latency of cache level 1/2/3."""
        lat = self.spec.latency
        try:
            return {1: lat.l1_ns, 2: lat.l2_ns, 3: lat.l3_ns}[level]
        except KeyError:
            raise ConfigurationError(f"no cache level {level}") from None

    def dram_latency_ns(self, ccd_id: int, umc_id: int) -> float:
        """Unloaded core→DIMM pointer-chase latency (Table 2 bottom rows)."""
        ccd = self.ccds[ccd_id]
        umc = self.umcs[umc_id]
        dx, dy = self.mesh_offset(ccd.coord, umc.coord)
        return self.spec.latency.dram_fixed_ns(dx, dy)

    def dram_latency_at(self, ccd_id: int, position: Position) -> float:
        """Unloaded DRAM latency to the nearest UMC of the given position class."""
        candidates = self.umcs_at(ccd_id, position)
        if not candidates:
            raise TopologyError(
                f"no UMC at position {position.value} relative to ccd{ccd_id}"
            )
        return min(
            self.dram_latency_ns(ccd_id, umc.umc_id) for umc in candidates
        )

    def cxl_latency_ns(self, ccd_id: int, dev_id: int = 0) -> float:
        """Unloaded core→CXL-DIMM latency (Table 2 "CXL DIMM" row)."""
        if dev_id not in self.cxl_devices:
            raise TopologyError(f"platform {self.name} has no CXL device {dev_id}")
        ccd = self.ccds[ccd_id]
        hub = self.io_hubs[0]
        dx, dy = self.mesh_offset(ccd.coord, hub.coord)
        return self.spec.latency.cxl_fixed_ns(dx, dy)

    @property
    def has_remote_socket(self) -> bool:
        """True when the box has a second socket and xGMI is calibrated."""
        return self.spec.sockets >= 2 and self.spec.latency.xgmi_ns is not None

    def remote_dram_latency_ns(self, ccd_id: int, umc_id: int) -> float:
        """Unloaded latency to a DIMM homed on the *other* socket.

        The request crosses this socket's I/O die, the xGMI link, and then
        the remote I/O die's mesh to the target UMC — the longest data path
        a 2-socket chiplet server has.
        """
        if not self.has_remote_socket:
            raise TopologyError(
                f"{self.name} has no remote socket (sockets="
                f"{self.spec.sockets}, xgmi={self.spec.latency.xgmi_ns})"
            )
        return (
            self.dram_latency_ns(ccd_id, umc_id)
            + float(self.spec.latency.xgmi_ns or 0.0)
        )

    def remote_dram_latency_at(self, ccd_id: int, position: Position) -> float:
        """Remote-socket latency to the nearest UMC of a position class."""
        candidates = self.umcs_at(ccd_id, position)
        if not candidates:
            raise TopologyError(
                f"no UMC at position {position.value} relative to ccd{ccd_id}"
            )
        return min(
            self.remote_dram_latency_ns(ccd_id, umc.umc_id)
            for umc in candidates
        )

    def _hub_offset(self, ccd_id: int) -> Tuple[int, int]:
        ccd = self.ccds[ccd_id]
        hub = self.io_hubs[0]
        return self.mesh_offset(ccd.coord, hub.coord)

    def mmio_read_latency_ns(self, ccd_id: int, dev_id: int = 0) -> float:
        """Unloaded non-posted MMIO read latency to a PCIe endpoint."""
        if dev_id not in self.pcie_devices:
            raise TopologyError(
                f"platform {self.name} has no PCIe device {dev_id}"
            )
        return self.spec.latency.mmio_read_ns(*self._hub_offset(ccd_id))

    def doorbell_latency_ns(self, ccd_id: int, dev_id: int = 0) -> float:
        """Unloaded posted doorbell-write latency (retires at the RC)."""
        if dev_id not in self.pcie_devices:
            raise TopologyError(
                f"platform {self.name} has no PCIe device {dev_id}"
            )
        return self.spec.latency.doorbell_write_ns(*self._hub_offset(ccd_id))

    def __repr__(self) -> str:
        spec = self.spec
        return (
            f"Platform({spec.name}: {spec.cores} cores / {spec.ccx_count} CCX"
            f" / {spec.ccd_count} CCD, {spec.umc_count} UMC,"
            f" {spec.cxl_device_count} CXL)"
        )
