"""Execution runtime gluing a synthesized driver to a target OS.

One instance per (synthesized driver, target OS) pair: owns the IR
environment over the target machine and performs stdcall invocations of
recovered entry points, routing their OS API calls through the target OS's
adaptation table.  Entry points execute through a shared
:class:`~repro.ir.backend.ExecutionBackend` -- generated-source compiled
blocks by default, the tree-walking interpreter when ``exec_backend`` is
``"interp"`` (the differential reference and ablation baseline).
"""

from repro.ir.backend import get_backend
from repro.ir.interp import IrEnv
from repro.isa.registers import REG_SP
from repro.layout import STACK_TOP


class SyntheticDriverRuntime:
    """Runs recovered IR functions on a target OS's machine."""

    def __init__(self, driver, target_os, exec_backend=None):
        self.driver = driver
        self.os = target_os
        self.backend = get_backend(exec_backend)
        self.env = IrEnv.for_machine(target_os.machine)
        #: total IR ops retired by synthesized code (perf-model input)
        self.env.ops_retired = 0
        #: entry-point invocations by role (fabric per-endpoint accounting)
        self.call_counts = {}
        self._map_driver_image()

    def _map_driver_image(self):
        """Map the regions the recovered code's absolute addresses expect
        (driver data/bss live at their original virtual addresses --
        synthesized code preserves the original pointer arithmetic)."""
        from repro.layout import TEXT_BASE, page_align

        machine = self.os.machine
        if machine.memory.is_mapped(TEXT_BASE):
            return
        # Reserve a generous window covering text+data+bss images.
        machine.memory.map_region(TEXT_BASE, 0x40000, "synth-driver-image")

    def seed_data_image(self, image, loaded_base=None):
        """Copy the original image's data segment into the target machine
        (the template's "adapt the driver's data structures" step: constant
        tables and strings the recovered code reads live here)."""
        from repro.layout import TEXT_BASE, page_align

        text_base = loaded_base or TEXT_BASE
        data_base = text_base + page_align(max(len(image.text), 1))
        if image.data:
            self.os.machine.memory.write_bytes(data_base, image.data)

    @property
    def ops_retired(self):
        return self.env.ops_retired

    def call(self, role, args, max_blocks=200_000):
        """Invoke entry point ``role`` with ``args`` (after the context)."""
        self.call_counts[role] = self.call_counts.get(role, 0) + 1
        self.env.regs[:] = [0] * 16
        self.env.regs[REG_SP] = STACK_TOP
        return self.driver.run_entry(role, self.env, list(args), self.os,
                                     max_blocks=max_blocks,
                                     backend=self.backend)

    def call_address(self, entry, args, max_blocks=200_000):
        """Invoke an arbitrary recovered function by address."""
        self.env.regs[:] = [0] * 16
        self.env.regs[REG_SP] = STACK_TOP
        return self.driver.run_function(entry, self.env, list(args),
                                        self.os, max_blocks=max_blocks,
                                        backend=self.backend)
