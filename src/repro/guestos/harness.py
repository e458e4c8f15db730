"""High-level driver harness: the "user-mode script" analog.

The paper exercises drivers with a user-mode program that loads the driver,
invokes standard IOCTLs, performs sends, exercises reception and unloads
(section 3.2).  :class:`DriverHarness` is that program for both the
concrete functional runs (Table 2) and the performance measurements.
"""

from repro.guestos.ndis import NdisEnv
from repro.guestos.structures import NdisStatus, Oid, PacketFilter
from repro.net.medium import Medium
from repro.vm.machine import Machine


class DriverHarness:
    """Boots a driver binary against a device model and drives it."""

    def __init__(self, image, device_cls, mac=b"\x52\x54\x00\x12\x34\x56",
                 exec_backend="compiled"):
        """``exec_backend`` picks the CPU tier the binary runs on:
        ``"compiled"`` (default, DBT + generated-source blocks),
        ``"interp"`` (DBT + tree-walker) or ``"step"``/``None`` (the
        per-instruction interpreter)."""
        self.machine = Machine(exec_backend=exec_backend)
        self.medium = Medium()
        self.device = device_cls(mac, medium=self.medium)
        self.medium.attach(self.device)
        self.env = NdisEnv(self.machine, device=self.device)
        self.image = image
        self.initialized = False

    # ------------------------------------------------------------------
    # Lifecycle

    def boot(self):
        """Load the driver and run its initialize entry point."""
        self.env.load_driver(self.image)
        self.env.allocate_adapter_context()
        status = self.env.call_entry("initialize")
        if status != NdisStatus.SUCCESS:
            raise RuntimeError("driver initialize failed: 0x%08x" % status)
        self.env.service_interrupts()
        self.initialized = True
        return status

    def halt(self):
        """Run the halt (unload) entry point."""
        status = self.env.call_entry("halt")
        self.initialized = False
        return status

    def reset(self):
        """Run the reset entry point."""
        return self.env.call_entry("reset")

    # ------------------------------------------------------------------
    # Data path

    def send(self, frame_bytes):
        """Send one Ethernet frame through the driver."""
        buffer = self.env.alloc(len(frame_bytes))
        self.machine.memory.write_bytes(buffer, frame_bytes)
        status = self.env.call_entry("send", (buffer, len(frame_bytes)))
        self.env.service_interrupts()
        return status

    def inject_rx(self, frame_bytes):
        """Deliver a frame from the wire and let the driver handle the
        receive interrupt; returns frames the driver indicated upward."""
        before = len(self.env.indicated_frames)
        self.medium.inject(frame_bytes)
        self.env.service_interrupts()
        return self.env.indicated_frames[before:]

    # ------------------------------------------------------------------
    # IOCTL-style control operations

    def _set_info(self, oid, payload):
        buffer = self.env.alloc(max(len(payload), 4))
        self.machine.memory.write_bytes(buffer, payload)
        return self.env.call_entry(
            "set_information", (int(oid), buffer, len(payload)))

    def _query_info(self, oid, length):
        buffer = self.env.alloc(max(length, 4))
        status = self.env.call_entry(
            "query_information", (int(oid), buffer, length))
        data = self.machine.memory.read_bytes(buffer, length)
        return status, data

    def set_packet_filter(self, flags):
        """Program the RX packet filter (promiscuous / multicast / ...)."""
        payload = int(flags).to_bytes(4, "little")
        return self._set_info(Oid.GEN_CURRENT_PACKET_FILTER, payload)

    def enable_promiscuous(self):
        return self.set_packet_filter(
            PacketFilter.DIRECTED | PacketFilter.BROADCAST
            | PacketFilter.PROMISCUOUS)

    def query_mac(self):
        """Read the station MAC through the driver."""
        status, data = self._query_info(Oid.E802_3_CURRENT_ADDRESS, 6)
        if status != NdisStatus.SUCCESS:
            raise RuntimeError("MAC query failed: 0x%08x" % status)
        return data

    def set_mac(self, mac):
        """Program a new station MAC through the driver."""
        return self._set_info(Oid.E802_3_STATION_ADDRESS, bytes(mac))

    def set_multicast_list(self, macs):
        """Program the multicast address list."""
        payload = b"".join(bytes(m) for m in macs)
        return self._set_info(Oid.E802_3_MULTICAST_LIST, payload)

    def set_full_duplex(self, enabled):
        """Toggle full-duplex operation."""
        payload = (1 if enabled else 0).to_bytes(4, "little")
        return self._set_info(Oid.GEN_FULL_DUPLEX, payload)

    def enable_wake_on_lan(self):
        """Enable magic-packet wake-up."""
        payload = (1).to_bytes(4, "little")
        return self._set_info(Oid.PNP_ENABLE_WAKE_UP, payload)

    def set_led(self, mode):
        """Drive the proprietary LED-control IOCTL."""
        payload = int(mode).to_bytes(4, "little")
        return self._set_info(Oid.VENDOR_LED_CONTROL, payload)

    def query_link_speed(self):
        status, data = self._query_info(Oid.GEN_LINK_SPEED, 4)
        return status, int.from_bytes(data, "little")
