"""Machine facade: memory + bus + CPU + interrupt lines in one object."""

from repro.layout import HEAP_BASE, HEAP_LIMIT, STACK_LIMIT, STACK_TOP
from repro.vm.bus import Bus
from repro.vm.cpu import Cpu
from repro.vm.memory import Memory


class Machine:
    """A complete guest machine.

    Owns the standard region map (heap + stack; the loader adds the driver
    image regions) and an interrupt-line registry.  Device models raise
    interrupts through :meth:`raise_irq`; the guest-OS simulator registers a
    handler per line (in NDIS terms, the OS dispatches the interrupt to the
    miniport ISR, which is also how RevNIC injects *symbolic* interrupts).
    """

    def __init__(self, exec_backend=None):
        self.memory = Memory()
        self.bus = Bus(self.memory)
        self.cpu = Cpu(self.bus, exec_backend=exec_backend)
        self._irq_handlers = {}
        self._pending_irqs = []
        self.irq_count = 0
        self.memory.map_region(HEAP_BASE, HEAP_LIMIT - HEAP_BASE, "heap")
        self.memory.map_region(STACK_LIMIT, STACK_TOP - STACK_LIMIT + 0x1000,
                               "stack")

    # ------------------------------------------------------------------
    # Interrupts

    def register_irq_handler(self, line, handler):
        """Register ``handler()`` to service interrupt ``line``."""
        self._irq_handlers[line] = handler

    def raise_irq(self, line):
        """Assert interrupt ``line``.

        If a handler is registered it runs immediately when the CPU is not
        inside guest code (devices only raise interrupts from Python-side
        device models, so this is always at an instruction boundary);
        otherwise the interrupt is latched for :meth:`drain_irqs`.
        """
        self.irq_count += 1
        handler = self._irq_handlers.get(line)
        if handler is not None:
            handler()
        else:
            self._pending_irqs.append(line)

    def drain_irqs(self):
        """Return and clear latched interrupts raised before registration."""
        pending, self._pending_irqs = self._pending_irqs, []
        return pending
