"""Sparse, region-checked guest physical memory.

Accesses take one of two paths.  The fast path serves an access that
stays inside one page of the *fast table* with one dict lookup and one
struct call.  The checked path -- page-straddling accesses, reads of
pages never written, and faults -- walks the region list.  Both paths
have the same semantics; the checked one is only slower, and counts
itself in :attr:`Memory.checked_accesses`.
"""

from struct import Struct

from repro.errors import MemoryFault
from repro.layout import MMIO_BASE, MMIO_LIMIT, PAGE_MASK, PAGE_SHIFT, \
    PAGE_SIZE

WIDTH_MASK = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF}

#: Width-specialized little-endian accessors for in-page typed accesses
#: (shared with :class:`~repro.vm.bus.Bus`'s copy of the fast path).
UNPACK = {width: Struct("<" + code).unpack_from
          for width, code in ((1, "B"), (2, "H"), (4, "I"))}
PACK = {width: Struct("<" + code).pack_into
        for width, code in ((1, "B"), (2, "H"), (4, "I"))}


class Memory:
    """Byte-addressable guest memory backed by sparse 4 KiB pages.

    Regions must be mapped before use; access outside any mapped region
    raises :class:`~repro.errors.MemoryFault`, which is how wild driver
    accesses surface during both concrete and symbolic runs.
    """

    def __init__(self):
        self._pages = {}
        self._regions = []  # (base, limit, name), sorted
        #: ``page number -> bytearray`` for every page that exists, lies
        #: wholly inside one mapped region and outside the MMIO window.
        #: Filled when a page is created; regions are never unmapped, so
        #: an entry never goes stale.  An access that stays inside one of
        #: these pages needs no region check.  :class:`~repro.vm.bus.Bus`
        #: reads the same dict.
        self.fast_pages = {}
        #: Accesses that missed the fast table and took the checked path.
        #: Deterministic (a pure function of the access sequence).
        self.checked_accesses = 0

    # ------------------------------------------------------------------
    # Region management

    def map_region(self, base, size, name="ram"):
        """Map ``size`` bytes at ``base``; overlapping maps are rejected."""
        if size <= 0:
            raise ValueError("region size must be positive")
        limit = base + size
        for rbase, rlimit, rname in self._regions:
            if base < rlimit and rbase < limit:
                raise ValueError("region %r overlaps %r" % (name, rname))
        self._regions.append((base, limit, name))
        self._regions.sort()
        # No existing page can enter the fast table here: pages are only
        # created by checked writes inside an already mapped region, and
        # regions never overlap, so no page that exists now lies wholly
        # inside the new one.

    def region_name(self, address):
        """Name of the region containing ``address`` or ``None``."""
        for base, limit, name in self._regions:
            if base <= address < limit:
                return name
        return None

    def is_mapped(self, address, size=1):
        """True when ``[address, address+size)`` lies in one region."""
        for base, limit, _name in self._regions:
            if base <= address and address + size <= limit:
                return True
        return False

    def _check(self, address, size, kind):
        self.checked_accesses += 1
        if not self.is_mapped(address, size):
            raise MemoryFault(address, kind)

    # ------------------------------------------------------------------
    # Typed access (``width`` is 1, 2 or 4)

    def read(self, address, width):
        """Read an unsigned little-endian integer of ``width`` bytes."""
        page = self.fast_pages.get(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        if page is not None and offset + width <= PAGE_SIZE:
            return UNPACK[width](page, offset)[0]
        self._check(address, width, "read")
        return int.from_bytes(self._read_raw(address, width), "little")

    def write(self, address, width, value):
        """Write an unsigned little-endian integer of ``width`` bytes."""
        page = self.fast_pages.get(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        if page is not None and offset + width <= PAGE_SIZE:
            PACK[width](page, offset, value & WIDTH_MASK[width])
            return
        self._check(address, width, "write")
        value &= WIDTH_MASK[width]
        self._write_raw(address, value.to_bytes(width, "little"))

    def read_bytes(self, address, size):
        """Read ``size`` raw bytes."""
        if size == 0:
            return b""
        page = self.fast_pages.get(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        if page is not None and offset + size <= PAGE_SIZE:
            return bytes(page[offset:offset + size])
        self._check(address, size, "read")
        return self._read_raw(address, size)

    def write_bytes(self, address, data):
        """Write raw bytes."""
        if not data:
            return
        size = len(data)
        page = self.fast_pages.get(address >> PAGE_SHIFT)
        offset = address & PAGE_MASK
        if page is not None and offset + size <= PAGE_SIZE:
            page[offset:offset + size] = data
            return
        self._check(address, size, "write")
        self._write_raw(address, data)

    # ------------------------------------------------------------------
    # Raw page-level plumbing (the checked path)

    def _page(self, page_number):
        page = self._pages.get(page_number)
        if page is None:
            page = self._pages[page_number] = bytearray(PAGE_SIZE)
            lo = page_number << PAGE_SHIFT
            if self.is_mapped(lo, PAGE_SIZE) \
                    and not (lo < MMIO_LIMIT and MMIO_BASE < lo + PAGE_SIZE):
                self.fast_pages[page_number] = page
        return page

    def _read_raw(self, address, size):
        # Never creates pages: snapshot_pages() seeds symbolic execution,
        # so a read must not make a never-written page appear in it.
        out = bytearray()
        while size:
            page_number, offset = divmod(address, PAGE_SIZE)
            chunk = min(size, PAGE_SIZE - offset)
            page = self._pages.get(page_number)
            if page is None:
                out += b"\0" * chunk
            else:
                out += page[offset:offset + chunk]
            address += chunk
            size -= chunk
        return bytes(out)

    def _write_raw(self, address, data):
        pos = 0
        while pos < len(data):
            page_number, offset = divmod(address + pos, PAGE_SIZE)
            chunk = min(len(data) - pos, PAGE_SIZE - offset)
            self._page(page_number)[offset:offset + chunk] = \
                data[pos:pos + chunk]
            pos += chunk

    def snapshot_pages(self):
        """Return ``{page_number: bytes}`` for all dirty pages (used to seed
        symbolic-execution states with the concrete memory image)."""
        return {n: bytes(p) for n, p in self._pages.items()}
