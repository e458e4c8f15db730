"""Tests for the IR, the DBT, and differential CPU-vs-IR execution."""

import pytest

from repro.asm import assemble
from repro.dbt import Translator, translate_block
from repro.ir import IrEnv, TranslationBlock, format_block, run_block
from repro.ir import nodes as N
from repro.isa.registers import REG_SP
from repro.layout import RETURN_TO_OS, STACK_TOP, TEXT_BASE, page_align
from repro.vm import Machine


def load(source):
    """Assemble + map at TEXT_BASE with relocations applied; returns machine."""
    image = assemble(source)
    machine = Machine()
    machine.memory.map_region(TEXT_BASE, page_align(max(len(image.text), 1)),
                              "text")
    text = bytearray(image.text)
    for reloc in image.relocs:
        if reloc.kind.name == "TEXT":
            old = int.from_bytes(text[reloc.site:reloc.site + 4], "little")
            text[reloc.site:reloc.site + 4] = \
                ((old + TEXT_BASE) & 0xFFFFFFFF).to_bytes(4, "little")
    machine.memory.write_bytes(TEXT_BASE, bytes(text))
    return machine


def reader(machine):
    return lambda addr, size: machine.memory.read_bytes(addr, size)


class TestTranslation:
    def test_block_ends_at_branch(self):
        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            beq r1, r2, main
            halt
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        assert len(block.instr_addrs) == 3
        assert isinstance(block.terminator, N.IrCondJump)
        assert block.terminator.fallthrough == TEXT_BASE + 24

    def test_block_ends_at_call(self):
        machine = load("""
        .export main
        main:
            movi r1, 1
            call main
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        term = block.terminator
        assert isinstance(term, N.IrCall)
        assert not term.indirect
        assert term.target == TEXT_BASE

    def test_ret_emits_stack_cleanup(self):
        machine = load("""
        .export main
        main:
            ret 8
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        assert isinstance(block.terminator, N.IrRet)
        assert block.terminator.cleanup == 8

    def test_static_successors(self):
        machine = load("""
        .export main
        main:
            movi r1, 0
            bz r1, main
            halt
        """)
        block = translate_block(reader(machine), TEXT_BASE)
        succs = block.static_successors()
        assert TEXT_BASE in succs and len(succs) == 2

    def test_cache_hit(self):
        machine = load(".export main\nmain:\n halt")
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        second = translator.get(TEXT_BASE)
        assert first is second

    def test_cache_invalidation_on_code_change(self):
        machine = load(".export main\nmain:\n halt")
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        from repro.isa import Instruction, Op, encode
        machine.memory.write_bytes(TEXT_BASE, encode(Instruction(Op.NOP))
                                   + encode(Instruction(Op.HALT)))
        second = translator.get(TEXT_BASE)
        assert second is not first
        assert len(second.instr_addrs) == 2

    def test_cache_invalidation_on_mid_block_patch(self):
        """Code patched *past* the first instruction must retranslate --
        a cache keyed only on the block's first instruction serves a stale
        translation here.  The compiled tier rides the same discipline:
        the fresh block object compiles to a fresh function."""
        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """)
        translator = Translator(reader(machine))
        first = translator.get(TEXT_BASE)
        assert len(first.instr_addrs) == 3
        from repro.ir import compile_block
        first_fn = compile_block(first)
        from repro.isa import INSTR_SIZE, Instruction, Op, encode
        # Patch the *second* instruction (movi r2, 2 -> movi r2, 99).
        machine.memory.write_bytes(TEXT_BASE + INSTR_SIZE,
                                   encode(Instruction(Op.MOVI, 2, imm=99)))
        second = translator.get(TEXT_BASE)
        assert second is not first
        patched = [op for op in second.ops
                   if isinstance(op, N.IrConst) and op.value == 99]
        assert patched, "stale translation served for mid-block patch"
        assert compile_block(second) is not first_fn
        # And an unchanged block is still a cache hit afterwards.
        assert translator.get(TEXT_BASE) is second

    def test_code_changed_drops_both_cpu_caches(self):
        """One hook invalidates every code-derived cache: the decode cache
        (per-instruction tier) and the DBT translation cache -- loaders no
        longer have to remember them separately."""
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        machine = load("""
        .export main
        main:
            movi r1, 1
            movi r2, 2
            halt
        """)
        cpu = machine.cpu
        # Warm the decode cache (per-instruction tier) ...
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu._decode_cache
        assert cpu.regs[2] == 2
        # ... and the DBT translation cache (compiled tier).
        cpu.exec_backend = "compiled"
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu._translator._cache

        # A mid-block patch followed by the one hook.
        machine.memory.write_bytes(TEXT_BASE + INSTR_SIZE,
                                   encode(Instruction(Op.MOVI, 2, imm=99)))
        cpu.code_changed()
        assert not cpu._decode_cache
        assert not cpu._translator._cache

        # Both tiers observe the patch.
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu.regs[2] == 99
        cpu.exec_backend = None
        cpu.regs[2] = 0
        cpu.pc = TEXT_BASE
        cpu.run()
        assert cpu.regs[2] == 99
        cpu._decode_cache[0] = None
        cpu.code_changed()
        assert not cpu._decode_cache

    def test_printer_smoke(self):
        machine = load("""
        .export main
        main:
            movi r1, 5
            ld32 r2, [r1+4]
            st8 [r1+0], r2
            in16 r3, (r1+2)
            out32 (r1+0), r3
            push r2
            pop r3
            not r4, r3
            neg r5, r4
            add r6, r5, 1
            bne r6, r1, main
            halt
        """)
        text = format_block(translate_block(reader(machine), TEXT_BASE))
        for keyword in ("const", "load32", "store8", "in16", "out32",
                        "icmp.ne", "condjump"):
            assert keyword in text


DIFFERENTIAL_PROGRAMS = [
    # Each program ends in HALT; register files are compared afterwards.
    """
    .export main
    main:
        movi r1, 0xDEADBEEF
        movi r2, 0x12345678
        add r3, r1, r2
        sub r4, r1, r2
        xor r5, r1, r2
        and r6, r1, r2
        or r7, r1, r2
        mul r8, r1, r2
        halt
    """,
    """
    .export main
    main:
        movi r1, 0x80000001
        shr r2, r1, 1
        sar r3, r1, 1
        shl r4, r1, 3
        not r5, r1
        neg r6, r1
        movi r7, 13
        divu r8, r1, r7
        remu r9, r1, r7
        halt
    """,
    """
    .export main
    main:
        movi r1, 0
        movi r2, 0
    loop:
        add r2, r2, r1
        add r1, r1, 1
        blt r1, 10, loop
        halt
    """,
    """
    .export main
    main:
        movi r1, 0x00600000
        movi r2, 0xCAFEBABE
        st32 [r1+0], r2
        ld8 r3, [r1+0]
        ld16 r4, [r1+2]
        ld32 r5, [r1+0]
        push r5
        push r3
        pop r6
        pop r7
        halt
    """,
    """
    .export main
    main:
        movi r1, 3
        push r1
        call square
        mov r9, r0
        halt
    square:
        push fp
        mov fp, sp
        ld32 r1, [fp+8]
        mul r0, r1, r1
        pop fp
        ret 4
    """,
]


class TestDifferentialExecution:
    """The IR must have exactly the concrete CPU's semantics."""

    @pytest.mark.parametrize("source", DIFFERENTIAL_PROGRAMS)
    def test_cpu_vs_ir(self, source):
        # Run on the concrete CPU.
        cpu_machine = load(source)
        cpu_machine.cpu.pc = TEXT_BASE
        cpu_machine.cpu.regs[REG_SP] = STACK_TOP
        cpu_machine.cpu.run(max_steps=100_000)
        # Run through DBT + IR interpreter.
        ir_machine = load(source)
        env = IrEnv.for_machine(ir_machine)
        env.regs[REG_SP] = STACK_TOP
        translator = Translator(reader(ir_machine))
        pc = TEXT_BASE
        for _ in range(100_000):
            result = run_block(translator.get(pc), env)
            if result.kind == "halt":
                break
            pc = result.target
        else:
            pytest.fail("IR execution did not halt")
        assert env.regs == cpu_machine.cpu.regs

    def test_memory_side_effects_match(self):
        source = DIFFERENTIAL_PROGRAMS[3]
        cpu_machine = load(source)
        cpu_machine.cpu.pc = TEXT_BASE
        cpu_machine.cpu.regs[REG_SP] = STACK_TOP
        cpu_machine.cpu.run(max_steps=10_000)

        ir_machine = load(source)
        env = IrEnv.for_machine(ir_machine)
        env.regs[REG_SP] = STACK_TOP
        translator = Translator(reader(ir_machine))
        pc = TEXT_BASE
        while True:
            result = run_block(translator.get(pc), env)
            if result.kind == "halt":
                break
            pc = result.target
        assert (ir_machine.memory.read_bytes(0x00600000, 8)
                == cpu_machine.memory.read_bytes(0x00600000, 8))


class TestBlockHelpers:
    def test_contains_and_end(self):
        block = TranslationBlock(pc=0x100, size=16,
                                 instr_addrs=[0x100, 0x108])
        assert block.contains(0x108)
        assert not block.contains(0x110)
        assert block.end_pc == 0x110


# A hot loop whose body crosses two translation blocks (the bltu inside
# splits it), so step limits land both on and between loop iterations.
_HOT_LOOP = """
.export main
main:
    movi r1, 0
    movi r3, 40
loop:
    add r1, r1, 1
    bltu r1, r3, cont
cont:
    add r2, r2, 1
    bltu r1, r3, loop
    halt
"""

# Same loop, but the final iteration stores a word over the back-edge
# branch -- self-modifying code landing inside already-translated code.
_SELF_PATCH = """
.export main
main:
    movi r1, 0
    movi r3, 30
loop:
    add r1, r1, 1
    movi r7, patchsite
    movi r8, 0x0000003F
    bltu r1, r3, cont
    st32 [r7+0], r8
cont:
    add r2, r2, 1
patchsite:
    bltu r1, r3, loop
    halt
"""

# The loop divides by a counter that reaches zero on the last trip: the
# fault is raised from the middle of a hot, already-compiled block.
_FAULTING_LOOP = """
.export main
main:
    movi r1, 20
loop:
    add r2, r2, 1
    bltu r0, r2, body
body:
    sub r1, r1, 1
    divu r5, r2, r1
    bltu r0, r1, loop
    halt
"""


class TestDbtBackendsAgree:
    """The CPU's DBT mode must behave identically on the ``compiled`` and
    ``interp`` backends bit-for-bit: self-patching stores, mid-block
    faults, step-limit boundaries, split runs and ``code_changed()``.
    Both backends dispatch one translation block at a time, so even a
    step limit stops them at the same block boundary."""

    @staticmethod
    def _run(source, exec_backend, max_steps=10_000):
        from repro.errors import VmFault

        machine = load(source)
        cpu = machine.cpu
        cpu.exec_backend = exec_backend
        cpu.pc = TEXT_BASE
        reason = fault = None
        try:
            reason = cpu.run(max_steps=max_steps)
        except VmFault as exc:
            fault = type(exc).__name__
        return (str(reason), fault, list(cpu.regs), cpu.pc, cpu.instret,
                cpu.mem_ops, cpu.io_ops)

    def test_self_patch_identical(self):
        compiled = self._run(_SELF_PATCH, "compiled")
        assert compiled == self._run(_SELF_PATCH, "interp")
        assert compiled[0] == "ExitReason.HALT"

    def test_fault_mid_loop_flushes_counters(self):
        compiled = self._run(_FAULTING_LOOP, "compiled")
        assert compiled[1] == "VmFault"
        assert compiled == self._run(_FAULTING_LOOP, "interp")

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13, 40, 77, 200])
    def test_step_limit_exits_at_same_boundary(self, limit):
        compiled = self._run(_HOT_LOOP, "compiled", max_steps=limit)
        assert compiled == self._run(_HOT_LOOP, "interp", max_steps=limit)

    def test_interrupted_run_resumes_identically(self):
        """Stop mid-loop (where an interrupt window would open), then
        resume: the two-leg run must land exactly where one uninterrupted
        run does, on either backend."""
        def run_split(exec_backend):
            machine = load(_HOT_LOOP)
            cpu = machine.cpu
            cpu.exec_backend = exec_backend
            cpu.pc = TEXT_BASE
            cpu.run(max_steps=37)
            cpu.run(max_steps=10_000)
            return (list(cpu.regs), cpu.pc, cpu.instret)

        whole = self._run(_HOT_LOOP, "compiled")
        split = run_split("compiled")
        assert run_split("interp") == split
        assert split[0] == whole[2] and split[1] == whole[3] \
            and split[2] == whole[4]

    @pytest.mark.parametrize("signal", [True, False],
                             ids=["code_changed", "revalidation"])
    def test_patch_between_runs_follows_new_bytes(self, signal):
        """A patch between runs is observed whether or not the loader
        signals ``code_changed()``: the signal drops every translation,
        and without it the translator's per-block byte revalidation
        retranslates the patched block."""
        from repro.isa import INSTR_SIZE, Instruction, Op, encode

        results = []
        for exec_backend in ("compiled", "interp"):
            machine = load(_HOT_LOOP)
            cpu = machine.cpu
            cpu.exec_backend = exec_backend
            cpu.pc = TEXT_BASE
            cpu.run()
            assert cpu._translator._cache
            machine.memory.write_bytes(
                TEXT_BASE + 4 * INSTR_SIZE,
                encode(Instruction(Op.ADD, 2, 2, imm=5)))
            if signal:
                cpu.code_changed()
                assert not cpu._translator._cache
            cpu.regs[1] = cpu.regs[2] = 0
            cpu.pc = TEXT_BASE
            cpu.run()
            results.append((list(cpu.regs), cpu.pc, cpu.instret))
        assert results[0] == results[1]
        expected = self._run(_HOT_LOOP.replace("add r2, r2, 1",
                                               "add r2, r2, 5"),
                             "compiled")
        assert results[0][0][2] == expected[2][2]
