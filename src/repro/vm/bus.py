"""I/O bus: routes port I/O and MMIO accesses to device models.

The bus is the point where the paper's "VM catches all hardware accesses"
property comes from: any access through :meth:`Bus.mem_read` /
:meth:`Bus.mem_write` that falls in the MMIO window is a *device* access,
everything else is regular memory.  RevNIC's wiretap taps exactly this
boundary to classify memory operations (paper section 2).
"""

from dataclasses import dataclass

from repro.errors import BusError
from repro.layout import MMIO_BASE, MMIO_LIMIT, PAGE_MASK, PAGE_SHIFT, \
    PAGE_SIZE, is_mmio
from repro.vm.memory import PACK, UNPACK, WIDTH_MASK


@dataclass(frozen=True)
class PortRange:
    """A claimed range in the port-I/O space."""

    base: int
    size: int
    device: object


@dataclass(frozen=True)
class MmioRange:
    """A claimed range in the MMIO window."""

    base: int
    size: int
    device: object


class _RangeMap(dict):
    """``address -> claimed range`` (``None`` when unclaimed), filled on
    the first lookup of each address: one dict lookup per device access,
    and only the few registers a driver touches take up memory."""

    def __init__(self):
        super().__init__()
        self.ranges = []

    def claim(self, entry):
        for existing in self.ranges:
            if entry.base < existing.base + existing.size \
                    and existing.base < entry.base + entry.size:
                return False
        self.ranges.append(entry)
        return True

    def __missing__(self, address):
        for entry in self.ranges:
            if entry.base <= address < entry.base + entry.size:
                self[address] = entry
                return entry
        return None


class Bus:
    """Port + MMIO router in front of :class:`~repro.vm.memory.Memory`.

    :meth:`mem_read` / :meth:`mem_write` repeat the memory's in-page fast
    path against the same fast table, so a RAM access costs one Python
    call; the table never holds an MMIO-window page, so device accesses
    can never take it.  Port and MMIO lookups are one dict lookup each.
    """

    #: True when a load/store at ``address`` would hit a device: the
    #: MMIO-window test itself, with no wrapper frame.
    is_device_address = staticmethod(is_mmio)

    def __init__(self, memory):
        self.memory = memory
        self._fast_pages = memory.fast_pages
        self._ports = _RangeMap()
        self._mmio = _RangeMap()
        #: Optional observer called as ``(kind, address, width, value,
        #: is_write)`` for every device access; RevNIC's wiretap hooks this.
        self.observer = None

    # ------------------------------------------------------------------
    # Device registration

    def attach_ports(self, base, size, device):
        """Claim ``[base, base+size)`` in port space for ``device``."""
        if not self._ports.claim(PortRange(base, size, device)):
            raise ValueError("port range overlap at 0x%x" % base)

    def attach_mmio(self, base, size, device):
        """Claim ``[base, base+size)`` in the MMIO window for ``device``."""
        if not is_mmio(base) or not is_mmio(base + size - 1):
            raise ValueError("MMIO range outside the MMIO window")
        if not self._mmio.claim(MmioRange(base, size, device)):
            raise ValueError("MMIO range overlap at 0x%x" % base)

    # ------------------------------------------------------------------
    # Port I/O

    def io_read(self, port, width):
        """Dispatch an ``IN`` instruction."""
        entry = self._ports[port]
        if entry is None:
            raise BusError("IN from unclaimed port 0x%x" % port)
        value = entry.device.io_read(port - entry.base, width)
        self._observe("port", port, width, value, False)
        return value

    def io_write(self, port, width, value):
        """Dispatch an ``OUT`` instruction."""
        entry = self._ports[port]
        if entry is None:
            raise BusError("OUT to unclaimed port 0x%x" % port)
        self._observe("port", port, width, value, True)
        entry.device.io_write(port - entry.base, width, value)

    # ------------------------------------------------------------------
    # Memory (RAM or MMIO)

    def mem_read(self, address, width):
        """Read memory, routing MMIO-window addresses to devices."""
        page = self._fast_pages.get(address >> PAGE_SHIFT)
        if page is not None:
            offset = address & PAGE_MASK
            if offset + width <= PAGE_SIZE:
                return UNPACK[width](page, offset)[0]
        elif MMIO_BASE <= address < MMIO_LIMIT:
            entry = self._mmio[address]
            if entry is None:
                raise BusError("MMIO read from unclaimed 0x%08x" % address)
            value = entry.device.mmio_read(address - entry.base, width)
            self._observe("mmio", address, width, value, False)
            return value
        return self.memory.read(address, width)

    def mem_write(self, address, width, value):
        """Write memory, routing MMIO-window addresses to devices."""
        page = self._fast_pages.get(address >> PAGE_SHIFT)
        if page is not None:
            offset = address & PAGE_MASK
            if offset + width <= PAGE_SIZE:
                value &= WIDTH_MASK[width]
                memory = self.memory
                if address < memory.watch_hi \
                        and address + width > memory.watch_lo:
                    memory.write_epoch += 1
                PACK[width](page, offset, value)
                return
        elif MMIO_BASE <= address < MMIO_LIMIT:
            entry = self._mmio[address]
            if entry is None:
                raise BusError("MMIO write to unclaimed 0x%08x" % address)
            self._observe("mmio", address, width, value, True)
            entry.device.mmio_write(address - entry.base, width, value)
            return
        self.memory.write(address, width, value)

    # ------------------------------------------------------------------
    # DMA (devices reading/writing guest RAM directly)

    def dma_read(self, address, size):
        """Device-initiated read of guest RAM (descriptor/buffer fetch)."""
        return self.memory.read_bytes(address, size)

    def dma_write(self, address, data):
        """Device-initiated write to guest RAM (received frame, status)."""
        self.memory.write_bytes(address, data)

    def _observe(self, kind, address, width, value, is_write):
        if self.observer is not None:
            self.observer(kind, address, width, value, is_write)
