"""Myrinet GM transport model (Sec. 5 of the paper).

GM is an OS-bypass transport: the application posts send/receive
descriptors directly to the LANai processor on the NIC, which DMAs
to/from registered memory without kernel involvement.  Consequences the
model captures:

* per-packet *host* cost is tiny (the LANai does segmentation into
  <=4 KB GM packets), so the throughput ceiling is the PCI bus — about
  800 Mb/s on the PCs' 32-bit slots;
* latency is dominated by descriptor post + wire + completion check:
  16 us in the polling and hybrid receive modes;
* the *blocking* receive mode sleeps the process and takes an interrupt
  + scheduler wakeup to resume, which the paper measures at 36 us;
* there is no socket-buffer/ack_rtt quirk — GM flow control is
  credit-based on the NIC.

``IpOverGmModel`` is the kernel's TCP stack running over the GM
interface: it reintroduces the whole per-packet kernel cost (plus the
GM-IP adaptation overhead), which is why the paper finds IP-GM "offers
little more than TCP over Gigabit Ethernet... but at a greater cost".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.hw.cluster import ClusterConfig
from repro.hw.nic import NicKind
from repro.net.base import LinkModel
from repro.net.tcp import TcpModel, TcpTuning
from repro.units import us


class GmReceiveMode(enum.Enum):
    """GM's --gm-recv modes.  Polling and Hybrid perform identically;
    Blocking trades CPU burn for 20 us of wakeup latency."""

    POLLING = "polling"
    BLOCKING = "blocking"
    HYBRID = "hybrid"


#: GM packet (fragment) size.
GM_PACKET_BYTES = 4096

#: Extra one-way latency of the blocking receive mode: interrupt +
#: kernel wakeup path instead of a user-space poll loop (36 us - 16 us).
BLOCKING_MODE_EXTRA = us(20.0)

#: Host-side cost to post/reap one descriptor (user space, no syscall).
DESCRIPTOR_COST = us(1.0)

#: LANai per-packet processing, overlapped with DMA; only the
#: non-overlapped part shows up per fragment.
LANAI_PACKET_COST = us(0.3)


class GmModel(LinkModel):
    """Native GM between two Myrinet NICs."""

    def __init__(
        self,
        config: ClusterConfig,
        receive_mode: GmReceiveMode = GmReceiveMode.HYBRID,
    ):
        if config.nic.kind is not NicKind.MYRINET:
            raise ValueError(f"GM requires a Myrinet NIC, got {config.nic.name}")
        super().__init__(config)
        self.receive_mode = receive_mode

    @cached_property
    def latency0(self) -> float:
        nic, cfg = self.config.nic, self.config
        base = (
            DESCRIPTOR_COST  # post send descriptor
            + nic.wire_latency
            + cfg.path_latency_extra
            + DESCRIPTOR_COST  # completion detection on the receiver
            + 2 * LANAI_PACKET_COST
        )
        if self.receive_mode is GmReceiveMode.BLOCKING:
            base += BLOCKING_MODE_EXTRA
        return base

    @cached_property
    def pipeline_rate(self) -> float:
        """Streaming rate: min(wire after fragment framing, PCI DMA)."""
        nic = self.config.nic
        # 8-byte GM packet header per 4 KB fragment: negligible but real.
        wire = nic.link_rate * GM_PACKET_BYTES / (GM_PACKET_BYTES + 8)
        wire *= nic.link_efficiency
        # Host descriptor processing per fragment:
        host_rate = GM_PACKET_BYTES / (LANAI_PACKET_COST + DESCRIPTOR_COST / 8)
        return min(wire, self.config.pci_bandwidth, host_rate)

    def rate(self, nbytes: int) -> float:
        return self.pipeline_rate

    #: How long the hybrid receive mode spins before blocking.
    HYBRID_SPIN_QUANTUM = us(20.0)

    def cpu_times(self, nbytes: int) -> tuple[float, float]:
        """GM's host CPU story, per receive mode (Sec. 5).

        The LANai does the data movement; the host only posts
        descriptors.  But *polling* receives spin the CPU for the whole
        transfer ("should not burden the CPU as much" is exactly why
        the paper recommends Hybrid), blocking receives pay an
        interrupt + wakeup, and hybrid spins briefly then blocks.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        host = self.config.host
        tx = DESCRIPTOR_COST
        wait = self.transfer_time(nbytes)
        if self.receive_mode is GmReceiveMode.POLLING:
            rx = DESCRIPTOR_COST + wait  # spin until completion
        elif self.receive_mode is GmReceiveMode.BLOCKING:
            rx = DESCRIPTOR_COST + host.interrupt_time + host.sched_wakeup_time
        else:  # HYBRID
            rx = DESCRIPTOR_COST + min(wait, self.HYBRID_SPIN_QUANTUM)
            if wait > self.HYBRID_SPIN_QUANTUM:
                rx += host.interrupt_time + host.sched_wakeup_time
        return tx, rx


class IpOverGmModel(TcpModel):
    """The kernel TCP/IP stack running over the GM interface.

    Implemented as a TcpModel whose per-packet receive cost includes the
    GM-IP adaptation layer, and whose fixed latency rides the Myrinet
    wire instead of Ethernet.  The paper: 48 us latency, throughput
    similar to TCP over GigE.
    """

    #: Extra per-packet throughput cost of the ethernet-emulation shim
    #: over GM (checksum in software, no coalescing firmware, per-packet
    #: callbacks) — calibrated so IP-GM streams like TCP-over-GigE.
    IP_ADAPTATION_COST = us(29.0)
    #: The part of the shim cost on the small-message critical path.
    IP_ADAPTATION_LATENCY = us(17.0)
    #: IP-over-GM runs a 4 KB MTU matching the GM packet size.
    IP_MTU = 4096

    def __init__(self, config: ClusterConfig, tuning: TcpTuning | None = None):
        if config.nic.kind is not NicKind.MYRINET:
            raise ValueError("IP-over-GM requires a Myrinet NIC")
        config = config.with_mtu(self.IP_MTU)
        super().__init__(config, tuning)

    @cached_property
    def rx_cpu_rate(self) -> float:
        host, nic = self.config.host, self.config.nic
        mss = self.framing.mss
        per_seg = (
            nic.rx_per_packet_time
            + self.IP_ADAPTATION_COST
            + host.interrupt_time  # no coalescing firmware in the shim
            + mss / host.memcpy_bandwidth
        )
        return mss / per_seg

    @cached_property
    def latency0(self) -> float:
        host, nic, cfg = self.config.host, self.config.nic, self.config
        return (
            2 * host.syscall_time
            + nic.tx_per_packet_time
            + self.IP_ADAPTATION_LATENCY
            + nic.wire_latency
            + cfg.path_latency_extra
            + host.interrupt_time
            + nic.rx_per_packet_time
            + host.sched_wakeup_time
            + self.tuning.latency_adder
        )
