"""Guest address-space layout shared by the loader, VM, devices and RevNIC.

The layout mirrors the roles the paper's setup needs:

* a driver image region (text + data + bss), mapped by the guest-OS loader;
* a kernel heap from which the OS allocates the driver's persistent state
  ("adapter context") and DMA-shared buffers;
* a stack;
* an MMIO window where device registers of memory-mapped NICs live -- the VM
  bus routes accesses in this window to devices, which is how RevNIC can
  distinguish device-mapped memory from regular memory (paper section 2);
* an import-thunk window: calls to addresses here are intercepted by the VM
  and dispatched to guest-OS API handlers, the analog of a kernel-export
  call in a real Windows driver.
"""

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

#: Base virtual address where driver text is mapped.
TEXT_BASE = 0x0040_0000

#: Kernel heap (adapter context, packet buffers, DMA-shared memory).
HEAP_BASE = 0x0060_0000
HEAP_LIMIT = 0x0078_0000

#: Stack top (grows down).
STACK_TOP = 0x007F_F000
STACK_LIMIT = 0x007E_0000

#: MMIO window: device registers for memory-mapped NICs.
MMIO_BASE = 0xD000_0000
MMIO_LIMIT = 0xD100_0000

#: Import-thunk window: CALL targets here invoke OS API handlers.
IMPORT_BASE = 0xF000_0000
IMPORT_STRIDE = 16

#: Sentinel return address pushed when the OS invokes a driver entry point;
#: a RET to this address returns control to the (concrete, Python) OS.
RETURN_TO_OS = 0xFFFF_FFF0


def page_align(value):
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_MASK) & ~PAGE_MASK


def import_address(index):
    """Virtual address of the import thunk for import slot ``index``."""
    return IMPORT_BASE + index * IMPORT_STRIDE


def import_index(address):
    """Inverse of :func:`import_address`; returns ``None`` if not a thunk."""
    if IMPORT_BASE <= address < IMPORT_BASE + 0x1_0000:
        offset = address - IMPORT_BASE
        if offset % IMPORT_STRIDE == 0:
            return offset // IMPORT_STRIDE
    return None


def is_mmio(address):
    """True when ``address`` falls inside the device-register window."""
    return MMIO_BASE <= address < MMIO_LIMIT
