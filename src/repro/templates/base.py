"""The NIC driver template hierarchy (paper section 4.2, Listing 2).

:class:`NicTemplate` is the paper's generic wired-NIC template: it carries
the OS-specific boilerplate (resource allocation, persistent-state
allocation, registration, interrupt hookup, data-structure adaptation) with
placeholders filled by RevNIC-synthesized entry points.
:class:`DmaNicTemplate` derives from it and adds the DMA-capable flow.

The instantiated template exposes the same high-level operations as the
source-OS harness (:class:`~repro.guestos.harness.DriverHarness`), which is
what makes the Table 2 functional-equivalence comparison symmetric.
"""

from dataclasses import dataclass

from repro.errors import TemplateError
from repro.guestos.structures import ADAPTER_CONTEXT_SIZE, NdisStatus, Oid
from repro.templates.runtime import SyntheticDriverRuntime


@dataclass(frozen=True)
class TemplateInfo:
    """Metadata for Table 3's proxies."""

    target_os: str
    person_days_paper: int     # the paper's reported effort
    boilerplate_loc: int       # proxy: lines of boilerplate in this repo
    api_surface: int           # proxy: adapted OS API entries


#: Table 3 inputs: the paper's person-day numbers plus this repo's proxies
#: (filled by repro.eval.table3 from live introspection; the paper values
#: are carried as reference constants).
TEMPLATE_INFO = {
    "winsim": TemplateInfo("winsim", person_days_paper=5, boilerplate_loc=0,
                           api_surface=0),
    "linsim": TemplateInfo("linsim", person_days_paper=3, boilerplate_loc=0,
                           api_surface=0),
    "ucsim": TemplateInfo("ucsim", person_days_paper=1, boilerplate_loc=0,
                          api_surface=0),
    "kitos": TemplateInfo("kitos", person_days_paper=0, boilerplate_loc=0,
                          api_surface=0),
}


class NicTemplate:
    """Generic wired-NIC template (no DMA assumptions)."""

    def __init__(self, synthesized_driver, target_os, original_image=None,
                 exec_backend=None):
        self.driver = synthesized_driver
        self.os = target_os
        self.runtime = SyntheticDriverRuntime(
            synthesized_driver, target_os, exec_backend=exec_backend)
        if original_image is not None:
            self.runtime.seed_data_image(original_image)
        self.context = 0
        self.initialized = False

    # ------------------------------------------------------------------
    # Boilerplate: init flow (the paper's Listing 2)

    def initialize(self):
        """Template init: allocate persistent state, run the synthesized
        init function, service the post-init interrupt, adapt structures."""
        # -- "the template allocates persistent state. A pointer to this
        #    state is passed to each reverse engineered entry point."
        self.context = self.os.alloc(ADAPTER_CONTEXT_SIZE, align=64)
        # -- "Developers paste calls to RevNIC-synthesized hardware-related
        #    functions here."
        status = self.runtime.call("initialize", [self.context])
        if status != NdisStatus.SUCCESS:
            # -- "Error recovery provided by the template (e.g., unload)"
            self.shutdown()
            raise TemplateError("synthesized initialize failed: 0x%08x"
                                % status)
        self.service_interrupts()
        self.initialized = True
        return status

    def shutdown(self):
        """Template unload path; returns the halt entry point's status."""
        status = NdisStatus.SUCCESS
        if "halt" in self.driver.entry_points:
            status = self.runtime.call("halt", [self.context])
        self.initialized = False
        return status

    def reset(self):
        return self.runtime.call("reset", [self.context])

    # ------------------------------------------------------------------
    # Data path

    def send(self, frame_bytes):
        """OS hands a packet down; the template adapts the OS packet
        structure to the (buffer, length) the synthesized send expects --
        the NDIS_PACKET -> sk_buff adaptation of section 4.2."""
        buffer = self.os.alloc(len(frame_bytes))
        self.os.machine.memory.write_bytes(buffer, frame_bytes)
        status = self.runtime.call("send",
                                   [self.context, buffer, len(frame_bytes)])
        self.service_interrupts()
        return status

    def inject_rx(self, frame_bytes):
        """Wire-side frame arrival; returns newly indicated frames."""
        before = len(self.os.received_frames)
        self.os.medium.inject(frame_bytes)
        self.service_interrupts()
        return self.os.received_frames[before:]

    def service_interrupts(self, max_rounds=8):
        """Template ISR dispatch: "an interrupt handler ... first calls a
        hardware routine to check that the device has indeed triggered the
        interrupt, before handling it"."""
        rounds = 0
        while self.os.irq_pending and rounds < max_rounds:
            self.os.irq_pending = False
            if "isr" in self.driver.entry_points:
                self.runtime.call("isr", [self.context])
            rounds += 1
        return rounds

    def fire_timers(self):
        fired = 0
        for timer in self.os.timers.values():
            if timer["due"]:
                timer["due"] = False
                self.runtime.call_address(timer["handler"], [self.context])
                fired += 1
        return fired

    # ------------------------------------------------------------------
    # Control operations (IOCTL adaptation)

    def _set_info(self, oid, payload):
        buffer = self.os.alloc(max(len(payload), 4))
        self.os.machine.memory.write_bytes(buffer, payload)
        return self.runtime.call(
            "set_information",
            [self.context, int(oid), buffer, len(payload)])

    def _query_info(self, oid, length):
        buffer = self.os.alloc(max(length, 4))
        status = self.runtime.call(
            "query_information", [self.context, int(oid), buffer, length])
        return status, self.os.machine.memory.read_bytes(buffer, length)

    def set_packet_filter(self, flags):
        return self._set_info(Oid.GEN_CURRENT_PACKET_FILTER,
                              int(flags).to_bytes(4, "little"))

    def query_mac(self):
        status, data = self._query_info(Oid.E802_3_CURRENT_ADDRESS, 6)
        if status != NdisStatus.SUCCESS:
            raise TemplateError("MAC query failed: 0x%08x" % status)
        return data

    def set_mac(self, mac):
        return self._set_info(Oid.E802_3_STATION_ADDRESS, bytes(mac))

    def set_multicast_list(self, macs):
        return self._set_info(Oid.E802_3_MULTICAST_LIST,
                              b"".join(bytes(m) for m in macs))

    def set_full_duplex(self, enabled):
        return self._set_info(Oid.GEN_FULL_DUPLEX,
                              (1 if enabled else 0).to_bytes(4, "little"))

    def enable_wake_on_lan(self):
        return self._set_info(Oid.PNP_ENABLE_WAKE_UP,
                              (1).to_bytes(4, "little"))

    def set_led(self, mode):
        return self._set_info(Oid.VENDOR_LED_CONTROL,
                              int(mode).to_bytes(4, "little"))

    def query_link_speed(self):
        """Query the link speed OID -- mirrors
        :meth:`repro.guestos.harness.DriverHarness.query_link_speed` so the
        validation matrix can compare the control plane symmetrically."""
        status, data = self._query_info(Oid.GEN_LINK_SPEED, 4)
        return status, int.from_bytes(data, "little")


class DmaNicTemplate(NicTemplate):
    """Derived template adding DMA capability.

    Bus-master devices fetch descriptors/buffers straight from guest
    memory; the derived template ensures the device model has bus access
    and accounts DMA setup in initialization.
    """

    def initialize(self):
        if self.os.device.bus is None:
            self.os.device.bus = self.os.machine.bus
        return super().initialize()
