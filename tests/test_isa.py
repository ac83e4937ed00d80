"""Tests for registers, opcodes (semantics) and the MicroOp record."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import (
    OPCODE_INFO,
    FunctionalUnit,
    OpClass,
    Opcode,
    execute,
    opcode_info,
)
from repro.isa.registers import ArchReg, Flags, GPR_REGS, NUM_ARCH_REGS, RegisterFile
from repro.isa.uop import MicroOp, UopBuilder
from repro.isa.values import (
    MACHINE_WIDTH,
    WIDE_MASK,
    carry_propagates,
    is_narrow,
    leading_one_count,
    leading_zero_count,
    truncate,
)

u32 = st.integers(min_value=0, max_value=WIDE_MASK)


class TestRegisters:
    def test_gpr_set(self):
        assert len(GPR_REGS) == 8
        assert ArchReg.EAX in GPR_REGS
        assert ArchReg.FLAGS not in GPR_REGS

    def test_register_kind_predicates(self):
        assert ArchReg.EAX.is_gpr
        assert ArchReg.TMP1.is_temp
        assert ArchReg.FLAGS.is_flags
        assert not ArchReg.FLAGS.is_gpr

    def test_register_file_read_default_zero(self):
        rf = RegisterFile()
        assert rf.read(ArchReg.EBX) == 0

    def test_register_file_write_read(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 0x1234)
        assert rf.read(ArchReg.EAX) == 0x1234

    def test_register_file_truncates(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 1 << 35)
        assert rf.read(ArchReg.EAX) == truncate(1 << 35)

    def test_snapshot_restore(self):
        rf = RegisterFile()
        rf.write(ArchReg.EAX, 1)
        snap = rf.snapshot()
        rf.write(ArchReg.EAX, 2)
        rf.restore(snap)
        assert rf.read(ArchReg.EAX) == 1

    def test_reset(self):
        rf = RegisterFile()
        rf.write(ArchReg.ECX, 9)
        rf.reset()
        assert rf.read(ArchReg.ECX) == 0

    def test_len(self):
        assert len(RegisterFile()) == NUM_ARCH_REGS

    def test_flags_pack_unpack(self):
        value = Flags.pack(cf=True, zf=False, sf=True, of=False)
        unpacked = Flags.unpack(value)
        assert unpacked == {"cf": True, "zf": False, "sf": True, "of": False}


class TestOpcodeInfo:
    def test_every_opcode_has_info(self):
        for opcode in Opcode:
            assert opcode in OPCODE_INFO

    def test_latencies_positive(self):
        for info in OPCODE_INFO.values():
            assert info.latency >= 1

    def test_branch_reads_flags(self):
        assert opcode_info(Opcode.BR_COND).reads_flags
        assert not opcode_info(Opcode.BR_UNCOND).reads_flags

    def test_memory_classification(self):
        assert opcode_info(Opcode.LOAD).is_memory
        assert opcode_info(Opcode.STORE).is_memory
        assert not opcode_info(Opcode.ADD).is_memory

    def test_mul_div_not_splittable(self):
        assert not opcode_info(Opcode.MUL).splittable
        assert not opcode_info(Opcode.DIV).splittable

    def test_add_is_splittable_and_cr_eligible(self):
        info = opcode_info(Opcode.ADD)
        assert info.splittable and info.cr_eligible

    def test_mul_div_not_cr_eligible(self):
        # §3.5: the carry signal cannot flag mispredictions for mul/div.
        assert not opcode_info(Opcode.MUL).cr_eligible
        assert not opcode_info(Opcode.IDIV).cr_eligible

    def test_fp_uses_fpu(self):
        assert opcode_info(Opcode.FADD).unit is FunctionalUnit.FPU


class TestSemantics:
    def test_add(self):
        result, flags = execute(Opcode.ADD, 2, 3)
        assert result == 5
        assert not (flags & Flags.ZF)

    def test_add_wraps_and_sets_carry(self):
        result, flags = execute(Opcode.ADD, 0xFFFFFFFF, 1)
        assert result == 0
        assert flags & Flags.CF
        assert flags & Flags.ZF

    def test_sub_borrow(self):
        result, flags = execute(Opcode.SUB, 1, 2)
        assert result == truncate(-1)
        assert flags & Flags.CF

    def test_cmp_is_sub_flags_only(self):
        _, flags_cmp = execute(Opcode.CMP, 7, 7)
        assert flags_cmp & Flags.ZF

    def test_logic(self):
        assert execute(Opcode.AND, 0xF0, 0x3C)[0] == 0x30
        assert execute(Opcode.OR, 0xF0, 0x0F)[0] == 0xFF
        assert execute(Opcode.XOR, 0xFF, 0x0F)[0] == 0xF0

    def test_shifts(self):
        assert execute(Opcode.SHL, 1, 4)[0] == 16
        assert execute(Opcode.SHR, 16, 4)[0] == 1
        assert execute(Opcode.SAR, truncate(-16), 2)[0] == truncate(-4)

    def test_mov_and_movi(self):
        assert execute(Opcode.MOV, 42, 0)[0] == 42
        assert execute(Opcode.MOVI, 0, 99)[0] == 99

    def test_inc_dec_neg_not(self):
        assert execute(Opcode.INC, 5, 0)[0] == 6
        assert execute(Opcode.DEC, 5, 0)[0] == 4
        assert execute(Opcode.NEG, 5, 0)[0] == truncate(-5)
        assert execute(Opcode.NOT, 0, 0)[0] == WIDE_MASK

    def test_mul_div(self):
        assert execute(Opcode.MUL, 6, 7)[0] == 42
        assert execute(Opcode.DIV, 42, 6)[0] == 7

    def test_div_by_zero_is_total(self):
        assert execute(Opcode.DIV, 42, 0)[0] == 0

    def test_no_semantics_opcodes_return_zero(self):
        assert execute(Opcode.BR_COND, 1, 2) == (0, 0)
        assert execute(Opcode.NOP, 1, 2) == (0, 0)

    @given(u32, u32)
    def test_add_matches_python(self, a, b):
        assert execute(Opcode.ADD, a, b)[0] == truncate(a + b)

    @given(u32, u32)
    def test_sub_matches_python(self, a, b):
        assert execute(Opcode.SUB, a, b)[0] == truncate(a - b)

    @given(u32, u32)
    def test_zero_flag_consistency(self, a, b):
        result, flags = execute(Opcode.XOR, a, b)
        assert bool(flags & Flags.ZF) == (result == 0)


class TestMicroOp:
    def test_builder_assigns_increasing_uids(self):
        builder = UopBuilder()
        a = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,))
        b = builder.alu(Opcode.SUB, ArchReg.EAX, (ArchReg.EBX,))
        assert b.uid == a.uid + 1

    def test_builder_start_uid(self):
        builder = UopBuilder(start_uid=100)
        assert builder.make(Opcode.NOP).uid == 100

    def test_load_shorthand(self):
        builder = UopBuilder()
        load = builder.load(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX, byte=True)
        assert load.opcode is Opcode.LOADB
        assert load.mem_size == 1
        assert load.info.is_load

    def test_store_shorthand(self):
        builder = UopBuilder()
        store = builder.store(ArchReg.EAX, ArchReg.ESI, ArchReg.ECX)
        assert store.info.is_store and not store.has_dest

    def test_branch_shorthand(self):
        builder = UopBuilder()
        br = builder.branch(conditional=True, taken=True)
        assert br.info.is_cond_branch and br.info.reads_flags and br.is_taken
        jmp = builder.branch(conditional=False)
        assert jmp.info.is_branch and not jmp.info.is_cond_branch

    def test_width_helpers(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX))
        uop = uop.with_values([3, 5], 8)
        assert uop.all_sources_narrow()
        assert uop.result_is_narrow()
        assert uop.is_fully_narrow()

    def test_wide_source_detection(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX, ArchReg.ECX))
        uop = uop.with_values([3, 0x10000], 0x10003)
        assert not uop.all_sources_narrow()
        assert not uop.result_is_narrow()
        assert uop.src_is_narrow(0)
        assert not uop.src_is_narrow(1)

    def test_wide_immediate_blocks_narrowness(self):
        builder = UopBuilder()
        uop = builder.alu(Opcode.ADD, ArchReg.EAX, (ArchReg.EBX,), imm=0x12345)
        uop = uop.with_values([1], 0x12346)
        assert not uop.all_sources_narrow()

    def test_latency_from_info(self):
        builder = UopBuilder()
        assert builder.make(Opcode.DIV, dest=ArchReg.EAX).info.latency == 20

    def test_class_predicates(self):
        builder = UopBuilder()
        assert builder.make(Opcode.FADD, dest=ArchReg.TMP3).info.is_fp
        assert builder.make(Opcode.COPY, dest=ArchReg.EAX).info.is_copy
        assert builder.make(Opcode.ADD, dest=ArchReg.EAX).info.op_class is OpClass.ALU


# ---------------------------------------------------------------------------
# Decoded per-uop facts
# ---------------------------------------------------------------------------
#: The oracle formulas as they stood before the facts were decoded at
#: construction; the stored-width oracles must agree with them exactly.
def _ref_all_sources_narrow(uop, width):
    for value in uop.src_values:
        if not is_narrow(value, width):
            return False
    return uop.imm is None or is_narrow(truncate(uop.imm), width)


def _ref_result_is_narrow(uop, width):
    return uop.result_value is None or is_narrow(uop.result_value, width)


def _ref_result_bits(uop):
    if uop.result_value is None:
        return 1
    value = uop.result_value
    return max(1, MACHINE_WIDTH - max(leading_zero_count(value),
                                      leading_one_count(value)))


def _ref_cr_values(uop):
    values = list(uop.src_values)
    if uop.imm is not None:
        values.append(uop.imm)
    return values


def _ref_cr_carry_crosses(uop, width):
    values = _ref_cr_values(uop)
    return len(values) >= 2 and carry_propagates(values[0], values[1], width)


def _ref_cr_operated_narrow(uop, width):
    values = _ref_cr_values(uop)
    if len(values) >= 2:
        wide = [v for v in values if not is_narrow(v, width)]
        if len(wide) == 1 and len(wide) != len(values):
            return not _ref_cr_carry_crosses(uop, width)
    return False


#: The 15 recorded fields, in constructor order.
RECORDED = tuple(f.name for f in dataclasses.fields(MicroOp) if f.init)
DERIVED = ("info", "has_dest", "effective_producers", "src_bits",
           "result_bits")


def _facts(uop):
    return tuple(getattr(uop, name) for name in DERIVED)


def _sample_uop(**overrides):
    fields = dict(uid=7, pc=0x4000, opcode=Opcode.ADD,
                  srcs=(ArchReg.EAX, ArchReg.EBX), dest=ArchReg.ECX,
                  src_values=(0x12, 0x12345), result_value=0x12357,
                  producer_uids=(3, None))
    fields.update(overrides)
    return MicroOp(**fields)


class TestDecodedOracles:
    @given(src_values=st.lists(u32, max_size=3),
           result=st.none() | u32,
           imm=st.none() | st.integers(min_value=-(1 << 31), max_value=WIDE_MASK))
    def test_oracles_match_reference_at_every_width(self, src_values, result, imm):
        uop = MicroOp(uid=0, pc=0, opcode=Opcode.ADD,
                      srcs=(ArchReg.EAX,) * len(src_values), dest=ArchReg.EAX,
                      imm=imm, src_values=tuple(src_values), result_value=result)
        assert uop.result_bits == _ref_result_bits(uop)
        for width in range(1, MACHINE_WIDTH + 1):
            sources = _ref_all_sources_narrow(uop, width)
            outcome = _ref_result_is_narrow(uop, width)
            assert uop.all_sources_narrow(width) == sources
            assert uop.result_is_narrow(width) == outcome
            assert uop.is_fully_narrow(width) == (sources and outcome)
            assert uop.cr_carry_crosses(width) == _ref_cr_carry_crosses(uop, width)
            assert (uop.cr_operated_narrow(width)
                    == _ref_cr_operated_narrow(uop, width))

    def test_effective_producers(self):
        assert _sample_uop().effective_producers == (3,)
        branch = MicroOp(uid=9, pc=0, opcode=Opcode.BR_COND,
                         srcs=(ArchReg.FLAGS,), flags_producer_uid=5)
        assert branch.effective_producers == (5,)
        covered = dataclasses.replace(branch, producer_uids=(4,))
        assert covered.effective_producers == (4,)

    def test_class_predicates_live_on_opcode_info(self):
        for opcode, info in OPCODE_INFO.items():
            assert info.is_load == (info.op_class is OpClass.LOAD)
            assert info.is_store == (info.op_class is OpClass.STORE)
            assert info.is_branch == (info.op_class in (OpClass.BRANCH,
                                                        OpClass.JUMP))
            assert info.is_cond_branch == (info.op_class is OpClass.BRANCH)
            assert info.is_fp == (info.op_class is OpClass.FP)
            assert info.is_copy == (info.op_class is OpClass.COPY)


class TestRecordContract:
    def test_no_instance_dict(self):
        uop = _sample_uop()
        assert not hasattr(uop, "__dict__")
        with pytest.raises(AttributeError):
            uop._memo = (8, True)

    def test_with_values_rederives(self):
        uop = _sample_uop().with_values([1, 2], 3)
        assert (uop.src_bits, uop.result_bits) == (2, 2)
        assert uop.all_sources_narrow() and uop.result_is_narrow()

    def test_replace_rederives(self):
        uop = _sample_uop()
        store = dataclasses.replace(uop, opcode=Opcode.STORE,
                                    producer_uids=(1, 2))
        assert store.info is opcode_info(Opcode.STORE)
        assert not store.has_dest
        assert store.effective_producers == (1, 2)
        narrow = dataclasses.replace(uop, src_values=(1, 2), imm=-3)
        assert narrow.src_bits == 2 and narrow.all_sources_narrow()

    def test_text_loader_rederives(self, tmp_path):
        from repro.trace.serialization import load_trace, save_trace
        from repro.trace.trace import Trace
        uops = [_sample_uop(),
                _sample_uop(uid=8, opcode=Opcode.LOAD, imm=-4,
                            result_value=None, mem_addr=0x100)]
        path = save_trace(Trace(name="t", uops=uops), tmp_path / "t.jsonl")
        loaded = load_trace(path).uops
        assert loaded == uops
        assert [_facts(u) for u in loaded] == [_facts(u) for u in uops]

    def test_pickle_carries_recorded_fields_only(self):
        uop = _sample_uop(imm=-9, flags_value=0x4)
        payload = pickle.dumps(uop, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(payload)
        assert clone == uop
        assert _facts(clone) == _facts(uop)
        constructor, args = uop.__reduce__()
        assert constructor is MicroOp
        assert args == tuple(getattr(uop, name) for name in RECORDED)
        assert len(args) == 15
        for name in DERIVED + ("OpcodeInfo",):
            assert name.encode() not in payload


class TestTraceViewsUnchanged:
    """Trace-level reductions over the decoded facts on a fixed trace."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.trace.profiles import get_profile
        from repro.trace.synthetic import generate_trace
        return generate_trace(get_profile("gcc"), 2000, seed=7)

    STATS = {
        8: (1081, 1151),
        16: (1210, 1229),
    }
    NARROWNESS = {
        8: dict(narrow_dependent_operands=2654, total_register_operands=3930,
                alu_one_narrow_operand=813, alu_two_narrow_wide_result=3,
                alu_two_narrow_narrow_result=405, alu_total=1350),
        16: dict(narrow_dependent_operands=2734, total_register_operands=3930,
                 alu_one_narrow_operand=737, alu_two_narrow_wide_result=4,
                 alu_two_narrow_narrow_result=482, alu_total=1350),
    }

    @pytest.mark.parametrize("width", [8, 16])
    def test_stats(self, trace, width):
        stats = trace.stats(width)
        assert stats.num_uops == 2382
        assert {cls.name: n for cls, n in stats.class_counts.items()} == {
            "ALU": 1380, "MUL": 92, "LOAD": 405, "STORE": 222, "BRANCH": 232,
            "JUMP": 5, "FP": 46}
        assert (stats.narrow_result_count,
                stats.narrow_all_source_count) == self.STATS[width]
        assert (stats.cond_branch_count, stats.taken_branch_count,
                stats.load_count, stats.store_count,
                stats.byte_load_count) == (232, 202, 405, 222, 15)

    @pytest.mark.parametrize("width", [8, 16])
    def test_narrowness(self, trace, width):
        from repro.analysis.narrowness import analyze_narrowness
        report = dataclasses.asdict(analyze_narrowness(trace, width))
        assert report == {"benchmark": "gcc", **self.NARROWNESS[width]}
