"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.errors import BusError, MemoryFault, VmFault
from repro.ir.superblock import SuperblockConfig, superblock_counters
from repro.isa import Instruction, Op, decode, encode
from repro.isa.encoding import INSTR_SIZE, NO_REG
from repro.layout import (HEAP_BASE, MMIO_BASE, MMIO_LIMIT, PAGE_SIZE,
                          TEXT_BASE, page_align)
from repro.net.crc import crc32_ethernet
from repro.net.packet import build_udp_packet, parse_udp_packet
from repro.symex import expr as E
from repro.symex.memory import SymMemory
from repro.symex.solver import Solver
from repro.vm import Bus, Machine, Memory

reg = st.integers(min_value=0, max_value=15)
u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
u8 = st.integers(min_value=0, max_value=0xFF)


class TestEncodingProperties:
    @given(a=reg, b=reg, c=reg, imm=u32,
           op=st.sampled_from([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR,
                               Op.MUL, Op.SHL]))
    def test_alu_roundtrip(self, op, a, b, c, imm):
        instr = Instruction(op, a, b, c, imm)
        assert decode(encode(instr)) == instr

    @given(a=reg, b=reg, imm=u32,
           op=st.sampled_from([Op.LD8, Op.LD16, Op.LD32, Op.ST8, Op.ST16,
                               Op.ST32, Op.IN8, Op.OUT32]))
    def test_memory_roundtrip(self, op, a, b, imm):
        instr = Instruction(op, a, b, imm=imm)
        assert decode(encode(instr)) == instr


class TestExprSemantics:
    """Expression builders must agree with direct evaluation."""

    @given(x=u32, y=u32, kind=st.sampled_from(list(E.BINOP_BUILDERS)))
    def test_binop_on_constants_matches_evaluate(self, x, y, kind):
        sym_x, sym_y = E.bv_sym("x"), E.bv_sym("y")
        expr = E.BINOP_BUILDERS[kind](sym_x, sym_y)
        folded = E.BINOP_BUILDERS[kind](x, y)
        assert E.evaluate(expr, {"x": x, "y": y}) == \
            (folded if isinstance(folded, int)
             else E.evaluate(folded, {"x": x, "y": y}))

    @given(x=u32, c=u32, kind=st.sampled_from(
        ["eq", "ne", "ult", "uge", "slt", "sge"]))
    def test_cmp_matches_fold(self, x, c, kind):
        sym = E.bv_sym("x")
        expr = E.bv_cmp(kind, sym, c)
        expected = E.bv_cmp(kind, x, c)
        value = expr if isinstance(expr, int) else \
            E.evaluate(expr, {"x": x})
        assert value == expected

    @given(x=u32, lo=st.integers(min_value=0, max_value=24))
    def test_extract_evaluate(self, x, lo):
        sym = E.bv_sym("x")
        expr = E.bv_extract(sym, lo, 8)
        assert E.evaluate(expr, {"x": x}) == (x >> lo) & 0xFF

    @given(x=u32)
    def test_negation_involution(self, x):
        sym = E.bv_sym("x")
        cond = E.bv_cmp("ult", sym, 100)
        negated = E.bool_not(cond)
        assert E.evaluate(cond, {"x": x}) + E.evaluate(negated, {"x": x}) \
            == 1


_BINOP_KINDS = ("add", "sub", "and", "or", "xor", "shl", "shr", "sar",
                "mul", "divu", "remu")
_CMP_KINDS = ("eq", "ne", "ult", "uge", "slt", "sge")
_STEP_KINDS = _BINOP_KINDS + _CMP_KINDS + (
    "not", "neg", "zext8", "zext1", "extract", "concat", "concat_const")
_EDGE_VALUES = (0, 1, 2, 31, 32, 33, 0x7F, 0x80, 0xFF, 0x7FFFFFFF,
                0x80000000, 0xFFFFFFFF)
edgy_u32 = st.one_of(st.sampled_from(_EDGE_VALUES), u32)


def _reference_eval(expr, model):
    """Independent recursive evaluator of the documented semantics: every
    node's value is masked to its width (``zext`` passes its operand
    through), shift amounts are taken mod 32, signed kinds read 32-bit
    two's complement, division by 0 yields 0, and ``concat`` is
    little-endian with int parts 32 bits wide."""
    if isinstance(expr, int):
        return expr
    kind = expr.kind
    mask = (1 << expr.width) - 1
    if kind == "sym":
        return model.get(expr.name, 0) & mask
    args = [_reference_eval(arg, model) for arg in expr.args]
    if kind == "zext":
        return args[0]
    if kind == "extract":
        return (args[0] >> expr.lo) & mask
    if kind == "concat":
        value = shift = 0
        for part, part_value in zip(expr.args, args):
            part_width = 32 if isinstance(part, int) else part.width
            value |= (part_value & ((1 << part_width) - 1)) << shift
            shift += part_width
        return value & mask
    if kind == "not":
        return ~args[0] & mask
    if kind == "neg":
        return -args[0] & mask
    a, b = args

    def signed(v):
        return v - (1 << 32) if v & (1 << 31) else v

    if kind in _CMP_KINDS:
        return int({"eq": a == b, "ne": a != b, "ult": a < b,
                    "uge": a >= b, "slt": signed(a) < signed(b),
                    "sge": signed(a) >= signed(b)}[kind])
    value = {"add": lambda: a + b, "sub": lambda: a - b,
             "and": lambda: a & b, "or": lambda: a | b,
             "xor": lambda: a ^ b, "mul": lambda: a * b,
             "shl": lambda: a << (b % 32), "shr": lambda: a >> (b % 32),
             "sar": lambda: signed(a) >> (b % 32),
             "divu": lambda: a // b if b else 0,
             "remu": lambda: a % b if b else 0}[kind]()
    return value & mask


def _build_instance(template, names, consts):
    """Instantiate a DAG template with concrete symbol names (two 32-bit
    slots and one 8-bit slot) and constants.  Raw ``Expr`` construction
    skips the smart constructors' folding, so every kind survives and
    instances of one template differ only in names and constants."""
    w32 = [E.Expr("sym", 32, name=names[0]), E.Expr("sym", 32, name=names[1])]
    w8 = [E.Expr("sym", 8, name=names[2])]
    w1 = []

    def operand(index):
        # Indices past the node pool pick a constant slot instead.
        if index >= 8:
            return consts[index % len(consts)]
        return w32[index % len(w32)]

    for kind, i, j in template:
        if kind in _BINOP_KINDS:
            w32.append(E.Expr(kind, 32, args=(operand(i), operand(j))))
        elif kind in _CMP_KINDS:
            w1.append(E.Expr(kind, 1, args=(operand(i), operand(j))))
        elif kind in ("not", "neg"):
            w32.append(E.Expr(kind, 32, args=(w32[i % len(w32)],)))
        elif kind == "zext8":
            w32.append(E.Expr("zext", 32, args=(w8[i % len(w8)],)))
        elif kind == "zext1" and w1:
            w32.append(E.Expr("zext", 32, args=(w1[i % len(w1)],)))
        elif kind == "extract":
            w8.append(E.Expr("extract", 8, args=(w32[i % len(w32)],),
                             lo=j % 25))
        elif kind == "concat":
            parts = tuple(w8[(i + k * j) % len(w8)] for k in range(4))
            w32.append(E.Expr("concat", 32, args=parts))
        elif kind == "concat_const":
            wide = E.Expr("concat", 40, args=(w8[i % len(w8)],
                                              consts[j % len(consts)]))
            w32.append(E.Expr("extract", 32, args=(wide,), lo=j % 9))
    if not w1:
        w1.append(E.Expr("ne", 1, args=(w32[-1], consts[0])))
    return w32[2:] + w8[1:] + w1, tuple(w1)


class TestCompiledDifferential:
    """Compiled programs against an independent reference evaluator.

    Programs of one shape share a compiled factory and differ only in
    their parameters (symbol names, constants).  Instances of one template
    with permuted names and other constants are compiled back to back and
    evaluated interleaved, so a parameter leaking between instances of a
    shape shows up as a wrong value."""

    @settings(max_examples=150, deadline=None)
    @given(template=st.lists(st.tuples(st.sampled_from(_STEP_KINDS),
                                       st.integers(0, 15),
                                       st.integers(0, 15)),
                             min_size=1, max_size=10),
           consts=st.lists(st.lists(edgy_u32, min_size=8, max_size=8),
                           min_size=3, max_size=3),
           models=st.lists(st.dictionaries(
               st.sampled_from(["da0", "da1", "da2", "db2", "dc0", "dc1",
                                "dc2"]), edgy_u32),
               min_size=2, max_size=2))
    def test_compiled_matches_reference(self, template, consts, models):
        names = (("da0", "da1", "da2"), ("da1", "da0", "db2"),
                 ("dc0", "dc1", "dc2"))
        instances = [_build_instance(template, n, c)
                     for n, c in zip(names, consts)]
        programs = [([E.compiled(node) for node in nodes],
                     E.compiled_conjunction(roots))
                    for nodes, roots in instances]
        # The empty model reads every symbol as 0 (zero divisors, shift
        # amounts and sign bits included).
        for model in models + [{}]:
            for index in range(len(instances[0][0])):
                for (nodes, _), (singles, _) in zip(instances, programs):
                    assert singles[index](model) == \
                        _reference_eval(nodes[index], model), nodes[index]
            for (_, roots), (_, conjunction) in zip(instances, programs):
                expected = sum(_reference_eval(root, model) << bit
                               for bit, root in enumerate(roots))
                assert conjunction(model) == expected


class TestSolverSoundness:
    """Any model the solver returns must actually satisfy the query."""

    @settings(max_examples=30)
    @given(bound=u32, mask=u8)
    def test_models_satisfy(self, bound, mask):
        solver = Solver()
        x = E.bv_sym("x")
        constraints = [E.bv_cmp("ult", x, bound)]
        if mask:
            constraints.append(E.bv_cmp("eq", E.bv_and(x, mask), 0))
        model = solver.find_model(constraints)
        if model is not None:
            for constraint in constraints:
                assert E.evaluate(constraint, model) == 1
        else:
            # unsat claims only allowed when the query is truly hard/unsat;
            # bound == 0 makes it genuinely unsatisfiable
            assert bound == 0 or mask


class TestSymMemoryProperties:
    @settings(max_examples=50)
    @given(address=st.integers(min_value=0, max_value=0xFFFF),
           value=u32, width=st.sampled_from([1, 2, 4]))
    def test_write_read_roundtrip(self, address, value, width):
        memory = SymMemory(lambda a, w: 0)
        memory.write(address, width, value)
        assert memory.read(address, width) == \
            value & ((1 << (8 * width)) - 1)

    @settings(max_examples=30)
    @given(address=st.integers(min_value=0, max_value=0xFFFF), value=u32)
    def test_fork_isolation(self, address, value):
        memory = SymMemory(lambda a, w: 0)
        memory.write(address, 4, value)
        child = memory.fork()
        child.write(address, 4, value ^ 0xFFFFFFFF)
        assert memory.read(address, 4) == value
        assert child.read(address, 4) == value ^ 0xFFFFFFFF


class _RefMemory:
    """Reference guest memory for the differential below: a flat byte
    dict behind a region list -- no pages, no fast table, no MMIO
    knowledge.  It states the contract ``Memory`` must keep."""

    def __init__(self):
        self.bytes = {}
        self.regions = []
        self.written_pages = set()
        self.write_epoch = 0
        self.watch = None

    def map(self, base, size):
        if size <= 0 or any(base < limit and lo < base + size
                            for lo, limit in self.regions):
            raise ValueError("bad map")
        self.regions.append((base, base + size))

    def _check(self, address, size, kind):
        if not any(lo <= address and address + size <= limit
                   for lo, limit in self.regions):
            raise MemoryFault(address, kind)

    def read_bytes(self, address, size):
        if size == 0:
            return b""
        self._check(address, size, "read")
        return bytes(self.bytes.get(address + i, 0) for i in range(size))

    def write_bytes(self, address, data):
        if not data:
            return
        self._check(address, len(data), "write")
        if self.watch is not None and address < self.watch[1] \
                and address + len(data) > self.watch[0]:
            self.write_epoch += 1
        for i, byte in enumerate(data):
            self.bytes[address + i] = byte
            self.written_pages.add((address + i) // PAGE_SIZE)

    def read(self, address, width):
        return int.from_bytes(self.read_bytes(address, width), "little")

    def write(self, address, width, value):
        self._check(address, width, "write")
        mask = (1 << (8 * width)) - 1
        self.write_bytes(address, (value & mask).to_bytes(width, "little"))

    def watch_code_span(self, lo, hi):
        if self.watch is None:
            self.watch = (lo, hi)
        else:
            self.watch = (min(self.watch[0], lo), max(self.watch[1], hi))


class _RefBus:
    """Reference bus: MMIO-window addresses go to the claimed device
    range or fault; everything else is reference memory."""

    def __init__(self, memory, device_base, device_size):
        self.memory = memory
        self.device = range(device_base, device_base + device_size)
        self.device_base = device_base
        self.observed = []

    def mem_read(self, address, width):
        if MMIO_BASE <= address < MMIO_LIMIT:
            if address not in self.device:
                raise BusError("unclaimed")
            value = _MmioDevice.value(address - self.device_base, width)
            self.observed.append(("mmio", address, width, value, False))
            return value
        return self.memory.read(address, width)

    def mem_write(self, address, width, value):
        if MMIO_BASE <= address < MMIO_LIMIT:
            if address not in self.device:
                raise BusError("unclaimed")
            self.observed.append(("mmio", address, width, value, True))
            return
        self.memory.write(address, width, value)

    def dma_read(self, address, size):
        return self.memory.read_bytes(address, size)

    def dma_write(self, address, data):
        self.memory.write_bytes(address, data)


class _MmioDevice:
    @staticmethod
    def value(offset, width):
        return (offset * 0x01010101 + width) & ((1 << (8 * width)) - 1)

    def mmio_read(self, offset, width):
        return self.value(offset, width)

    def mmio_write(self, offset, width, value):
        pass


#: Candidate regions: whole pages first, then half pages, a region that
#: straddles a page edge, a 3-byte sliver, one running into the MMIO
#: window and one inside it (plain memory there is never fast, and the
#: bus never routes the window to RAM).
_MEM_REGIONS = [(0x1000, 0x1000), (0x2000, 0x2000), (0x4000, 0x1000),
                (0x0, 0x800), (0x800, 0x800), (0x1800, 0x1000),
                (0x2FFE, 3), (0x5000, 0x1802), (MMIO_BASE - 0x1000, 0x2000),
                (MMIO_BASE + 0x1000, 0x1000)]
#: Typed accesses weigh double.
_MEM_KINDS = ["map", "read", "read", "write", "write", "read_bytes",
              "write_bytes", "watch"]


def _draw_op(data, ref):
    """One random op.  Addresses cluster around the edges of the regions
    mapped so far, the page edges inside them and the MMIO device range,
    where the fast table's invariant has its corner cases."""
    kind = data.draw(st.sampled_from(_MEM_KINDS)) if ref.regions else "map"
    if kind == "map":
        return ("map", data.draw(st.sampled_from(_MEM_REGIONS)))
    edges = {MMIO_BASE, MMIO_BASE + 0x100}
    for lo, hi in ref.regions:
        edges.update((lo, hi))
        edges.update(range(page_align(lo), hi, PAGE_SIZE))
    address = (data.draw(st.sampled_from(sorted(edges)))
               + data.draw(st.integers(min_value=-6, max_value=6))) \
        & 0xFFFFFFFF
    if kind == "read":
        return (kind, address, data.draw(st.sampled_from([1, 2, 4])))
    if kind == "write":
        return (kind, address, data.draw(st.sampled_from([1, 2, 4])),
                data.draw(u32))
    if kind == "read_bytes":
        return (kind, address,
                data.draw(st.sampled_from([0, 1, 3, 8, 0x1003])))
    if kind == "write_bytes":
        return (kind, address, data.draw(st.binary(max_size=12)))
    return (kind, address, data.draw(st.integers(min_value=1,
                                                 max_value=0x20)))


def _apply(bus, op):
    """Run one access op through ``bus`` (real or reference); the
    outcome, faults included."""
    accessor = {"read": bus.mem_read, "write": bus.mem_write,
                "read_bytes": bus.dma_read, "write_bytes": bus.dma_write}
    try:
        return accessor[op[0]](*op[1:])
    except MemoryFault as exc:
        return ("MemoryFault", exc.address, exc.kind)
    except BusError:
        return ("BusError",)


def _drive(memory, ref, op):
    """One op on a ``Memory`` and on the reference; both outcomes."""
    kind = op[0]
    if kind == "map":
        outcomes = []
        for target in (memory.map_region, ref.map):
            try:
                target(*op[1])
                outcomes.append(None)
            except ValueError:
                outcomes.append("ValueError")
        return outcomes
    if kind == "watch":
        memory.watch_code_span(op[1], op[1] + op[2])
        ref.watch_code_span(op[1], op[1] + op[2])
        return [None, None]
    outcomes = []
    for target in (memory, ref):
        try:
            outcomes.append(getattr(target, kind)(*op[1:]))
        except MemoryFault as exc:
            outcomes.append(("MemoryFault", exc.address, exc.kind))
    return outcomes


def _assert_same_state(memory, ref):
    assert memory.write_epoch == ref.write_epoch
    # Reads never create pages: exactly the written pages exist.
    expected = {number: bytearray(PAGE_SIZE) for number in ref.written_pages}
    for address, byte in ref.bytes.items():
        expected[address // PAGE_SIZE][address % PAGE_SIZE] = byte
    pages = memory.snapshot_pages()
    assert pages == {number: bytes(page)
                     for number, page in expected.items()}
    # The fast-table invariant: exactly the existing pages that lie
    # wholly inside one region and outside the MMIO window.
    fast = {number for number in pages
            if memory.is_mapped(number * PAGE_SIZE, PAGE_SIZE)
            and not (number * PAGE_SIZE < MMIO_LIMIT
                     and MMIO_BASE < (number + 1) * PAGE_SIZE)}
    assert set(memory.fast_pages) == fast
    assert all(memory.fast_pages[number] == pages[number]
               for number in fast)


class TestMemoryBusDifferential:
    """``Memory`` and ``Bus`` against a small flat reference model:
    values, ``MemoryFault`` address and kind, ``write_epoch`` and the
    page set, over random op sequences that straddle pages and regions,
    map regions next to pages already written, and hit the MMIO window.
    """

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), steps=st.integers(min_value=1, max_value=40))
    def test_memory_matches_reference(self, data, steps):
        memory, ref = Memory(), _RefMemory()
        for _ in range(steps):
            op = _draw_op(data, ref)
            mine, theirs = _drive(memory, ref, op)
            assert mine == theirs, op
            _assert_same_state(memory, ref)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), steps=st.integers(min_value=1, max_value=40))
    def test_bus_matches_reference(self, data, steps):
        memory, ref_memory = Memory(), _RefMemory()
        bus = Bus(memory)
        bus.attach_mmio(MMIO_BASE, 0x100, _MmioDevice())
        observed = []
        bus.observer = lambda *event: observed.append(event)
        ref = _RefBus(ref_memory, MMIO_BASE, 0x100)
        for _ in range(steps):
            op = _draw_op(data, ref_memory)
            if op[0] in ("map", "watch"):
                mine, theirs = _drive(memory, ref_memory, op)
            else:
                mine, theirs = _apply(bus, op), _apply(ref, op)
            assert mine == theirs, op
            assert observed == ref.observed
            _assert_same_state(memory, ref_memory)


class TestChecksumProperties:
    @given(data=st.binary(min_size=0, max_size=64))
    def test_crc_deterministic(self, data):
        assert crc32_ethernet(data) == crc32_ethernet(data)

    @given(data=st.binary(min_size=1, max_size=64), flip=st.integers(0, 7))
    def test_crc_detects_single_bit_flip(self, data, flip):
        corrupted = bytes([data[0] ^ (1 << flip)]) + data[1:]
        assert crc32_ethernet(data) != crc32_ethernet(corrupted)

    @given(payload=st.binary(min_size=0, max_size=200),
           sport=st.integers(1, 65535), dport=st.integers(1, 65535))
    def test_udp_roundtrip(self, payload, sport, dport):
        packet = build_udp_packet(b"\x0a\0\0\x01", b"\x0a\0\0\x02",
                                  sport, dport, payload)
        parsed = parse_udp_packet(packet)
        assert parsed["payload"] == payload
        assert parsed["src_port"] == sport
        assert parsed["dst_port"] == dport


_GEN_REGS = st.integers(min_value=0, max_value=11)  # r12 reserved: mem base
_MEM_BASE_REG = 12
_SCRATCH = HEAP_BASE + 0x800

_ALU = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.SAR,
        Op.MUL, Op.DIVU, Op.REMU]


@st.composite
def random_instruction(draw):
    """One R32 instruction from the deterministic concrete subset."""
    shape = draw(st.sampled_from(
        ["alu_rr", "alu_ri", "mov", "movi", "not", "neg", "load", "store"]))
    a, b, c = draw(_GEN_REGS), draw(_GEN_REGS), draw(_GEN_REGS)
    imm = draw(u32)
    if shape == "alu_rr":
        return Instruction(draw(st.sampled_from(_ALU)), a, b, c)
    if shape == "alu_ri":
        return Instruction(draw(st.sampled_from(_ALU)), a, b, imm=imm)
    if shape == "mov":
        return Instruction(Op.MOV, a, b)
    if shape == "movi":
        return Instruction(Op.MOVI, a, imm=imm)
    if shape == "not":
        return Instruction(Op.NOT, a, b)
    if shape == "neg":
        return Instruction(Op.NEG, a, b)
    disp = draw(st.integers(min_value=0, max_value=0xFC))
    if shape == "load":
        op = draw(st.sampled_from([Op.LD8, Op.LD16, Op.LD32]))
        return Instruction(op, a, _MEM_BASE_REG, imm=disp)
    op = draw(st.sampled_from([Op.ST8, Op.ST16, Op.ST32]))
    return Instruction(op, _MEM_BASE_REG, b, imm=disp)


class TestBackendDifferential:
    """Random R32 instruction sequences must produce identical register
    files, memory, and faults across the per-instruction CPU interpreter,
    the tree-walking IR interpreter, and the compiled block backend.

    A forward conditional branch is planted mid-sequence so the program
    splits into several translation blocks; DIVU/REMU with arbitrary
    operands makes genuine divide-by-zero faults part of the property.
    """

    @staticmethod
    def _execute(instrs, exec_backend):
        machine = Machine()
        program = [Instruction(Op.MOVI, _MEM_BASE_REG, imm=_SCRATCH)]
        program.extend(instrs)
        # After inserting the branch and appending HALT the program has
        # len(program) + 2 instructions; the HALT sits on the last one.
        end = TEXT_BASE + (len(program) + 1) * INSTR_SIZE
        # Forward branch over the second half: both sides of the split
        # are exercised depending on the generated register contents.
        program.insert(len(program) // 2,
                       Instruction(Op.BLTU, 0, 1, imm=end))
        program.append(Instruction(Op.HALT))
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        cpu = machine.cpu
        cpu.exec_backend = exec_backend
        cpu.pc = TEXT_BASE
        fault = None
        try:
            cpu.run(max_steps=10_000)
        except VmFault as exc:
            fault = type(exc).__name__
        return (fault, list(cpu.regs),
                machine.memory.read_bytes(_SCRATCH, 0x100))

    @settings(max_examples=60, deadline=None)
    @given(instrs=st.lists(random_instruction(), min_size=1, max_size=24))
    def test_three_backends_agree(self, instrs):
        step = self._execute(instrs, None)
        interp = self._execute(instrs, "interp")
        compiled = self._execute(instrs, "compiled")
        assert step == interp
        assert step == compiled


class TestSuperblockDifferential:
    """Random hot-trace-shaped programs -- a loop body crossing several
    translation blocks via a conditional fall-through, a direct jump,
    and the loop back-edge -- must be indistinguishable across all four
    execution tiers.  The superblock tier keeps its architectural
    counters in locals and flushes them in ``finally``, so the tuple
    compared here includes ``instret``/``mem_ops``/``io_ops`` to pin
    the counter contract under faults as well as on clean exits.
    """

    _segment = st.lists(random_instruction(), min_size=1, max_size=8)

    @staticmethod
    def _build(seg_a, seg_b, seg_c, trips):
        program = [
            Instruction(Op.MOVI, _MEM_BASE_REG, imm=_SCRATCH),
            Instruction(Op.MOVI, 13, imm=trips),
            Instruction(Op.MOVI, 14, imm=0),
        ]
        loop_start = len(program)
        program.extend(seg_a)
        branch_at = len(program)
        program.append(None)          # bltu r0, r1, <skip seg_b>
        program.extend(seg_b)
        skip_index = len(program)
        program[branch_at] = Instruction(
            Op.BLTU, 0, 1, imm=TEXT_BASE + skip_index * INSTR_SIZE)
        jump_at = len(program)
        program.append(None)          # jmp <next instruction>
        program[jump_at] = Instruction(
            Op.JMP, imm=TEXT_BASE + (jump_at + 1) * INSTR_SIZE)
        program.extend(seg_c)
        program.append(Instruction(Op.ADD, 14, 14, imm=1))
        program.append(Instruction(
            Op.BLTU, 14, 13, imm=TEXT_BASE + loop_start * INSTR_SIZE))
        program.append(Instruction(Op.HALT))
        return program

    @staticmethod
    def _run(program, backend, superblocks=False):
        machine = Machine()
        code = b"".join(encode(i) for i in program)
        machine.memory.map_region(TEXT_BASE, page_align(len(code)), "text")
        machine.memory.write_bytes(TEXT_BASE, code)
        cpu = machine.cpu
        cpu.exec_backend = backend
        cpu.exec_superblocks = superblocks
        cpu.pc = TEXT_BASE
        fault = None
        try:
            cpu.run(max_steps=10_000)
        except VmFault as exc:
            fault = type(exc).__name__
        arch = (fault, list(cpu.regs), cpu.mem_ops, cpu.io_ops,
                machine.memory.read_bytes(_SCRATCH, 0x100))
        return arch, (cpu.pc, cpu.instret)

    @settings(max_examples=40, deadline=None)
    @given(seg_a=_segment, seg_b=_segment, seg_c=_segment,
           trips=st.integers(min_value=2, max_value=4))
    def test_four_tiers_agree(self, seg_a, seg_b, seg_c, trips):
        program = self._build(seg_a, seg_b, seg_c, trips)
        step, _ = self._run(program, None)
        interp, interp_ret = self._run(program, "interp")
        compiled, compiled_ret = self._run(program, "compiled")
        fused, fused_ret = self._run(
            program, "compiled",
            superblocks=SuperblockConfig(hot_threshold=1))
        assert step == interp
        assert step == compiled
        assert step == fused
        # instret is charged at block entry in every DBT tier and a
        # faulting block reports its head pc (the per-step tier counts
        # and reports the exact instruction), so those two fields are
        # compared across the three DBT tiers only -- exactly.
        assert interp_ret == compiled_ret == fused_ret

    @settings(max_examples=20, deadline=None)
    @given(seg_a=_segment, seg_b=_segment, seg_c=_segment,
           trips=st.integers(min_value=2, max_value=4),
           limit=st.integers(min_value=1, max_value=60))
    def test_step_limit_boundaries_agree(self, seg_a, seg_b, seg_c, trips,
                                         limit):
        """Stopping mid-superblock at an arbitrary ``max_steps`` must
        leave exactly the same architectural state as the per-block
        tier stopping at the same instruction."""
        program = self._build(seg_a, seg_b, seg_c, trips)

        def run_limited(superblocks):
            machine = Machine()
            code = b"".join(encode(i) for i in program)
            machine.memory.map_region(TEXT_BASE, page_align(len(code)),
                                      "text")
            machine.memory.write_bytes(TEXT_BASE, code)
            cpu = machine.cpu
            cpu.exec_backend = "compiled"
            cpu.exec_superblocks = superblocks
            cpu.pc = TEXT_BASE
            fault = None
            reason = None
            try:
                reason = cpu.run(max_steps=limit)
            except VmFault as exc:
                fault = type(exc).__name__
            return (reason, fault, list(cpu.regs), cpu.pc, cpu.instret,
                    cpu.mem_ops, machine.memory.read_bytes(_SCRATCH, 0x100))

        assert run_limited(False) == \
            run_limited(SuperblockConfig(hot_threshold=1))


class TestAssemblerProperties:
    @settings(max_examples=25)
    @given(values=st.lists(u32, min_size=1, max_size=8))
    def test_word_data_roundtrip(self, values):
        source = ".export main\nmain:\n halt\n.data\ntable:\n .word " \
            + ", ".join(str(v) for v in values)
        image = assemble(source)
        for i, value in enumerate(values):
            stored = int.from_bytes(image.data[4 * i:4 * i + 4], "little")
            assert stored == value

    @settings(max_examples=25)
    @given(imm=u32, r=reg)
    def test_movi_roundtrip(self, imm, r):
        image = assemble(".export main\nmain:\n movi r%d, %d\n halt"
                         % (r, imm))
        instr = decode(image.text, 0)
        assert instr.op == Op.MOVI and instr.a == r and instr.imm == imm
