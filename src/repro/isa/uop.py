"""The micro-operation record and a builder for constructing uop streams.

A :class:`MicroOp` is the unit the simulator fetches, renames, steers,
executes and commits.  Traces (:mod:`repro.trace`) are sequences of MicroOps
with *concrete* source and result values attached — the trace generator
functionally emulates the stream so that every uop's dataflow is consistent.
Width predictors in the core library are only allowed to observe values at
the architecturally correct time (writeback); the concrete values attached to
a uop are the oracle against which predictions are scored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.isa.opcodes import Opcode, OpcodeInfo, opcode_info
from repro.isa.registers import ArchReg
from repro.isa.values import (
    NARROW_WIDTH,
    carry_propagates,
    is_narrow,
    truncate,
    value_width,
)


@dataclass(slots=True)
class MicroOp:
    """One micro-operation of the trace.

    Attributes
    ----------
    uid:
        Unique, monotonically increasing identifier within a trace.  Used to
        express producer/consumer relations and program order.
    pc:
        Program counter of the parent IA-32 instruction (width predictors are
        PC-indexed, §3.2).
    opcode:
        The uop opcode.
    srcs:
        Architectural source register names (0–3 of them).
    dest:
        Architectural destination register, or ``None``.
    imm:
        Immediate operand value, or ``None``.
    src_values / result_value / flags_value:
        Concrete values observed by the functional emulation; ``None`` until
        the trace generator fills them in.
    mem_addr / mem_size:
        Effective address and access size in bytes for memory uops.
    is_taken:
        For branches, whether the branch is taken.
    producer_uids:
        uid of the most recent producer of each source register (or ``None``
        for live-ins), parallel to ``srcs``.
    flags_producer_uid:
        uid of the most recent writer of FLAGS before this uop (relevant for
        conditional branches).
    synthetic:
        True for uops injected by the microarchitecture itself (copies, split
        chunks); these never appear in input traces.

    The fields after ``synthetic`` are decoded from the recorded ones once,
    at construction (``__post_init__``), and are not part of equality or of
    a pickle.  A record is therefore treated as immutable once built:
    change a field through :meth:`with_values` or ``dataclasses.replace``,
    which re-derive them.

    info:
        Static :class:`OpcodeInfo` of the opcode (class, latency, flag bits
        and the ``is_*`` class predicates).
    has_dest:
        Whether the uop writes an integer register result.
    effective_producers:
        Producer uids this uop waits on, FLAGS producer included (see
        :meth:`__post_init__`).
    src_bits / result_bits:
        Two's-complement widths (:func:`~repro.isa.values.value_width`) of
        the widest source, the immediate included, and of the result.  A
        uop with no sources or no result counts as 1 bit, so it fits any
        datapath.
    """

    uid: int
    pc: int
    opcode: Opcode
    srcs: Tuple[ArchReg, ...] = ()
    dest: Optional[ArchReg] = None
    imm: Optional[int] = None
    src_values: Tuple[int, ...] = ()
    result_value: Optional[int] = None
    flags_value: Optional[int] = None
    mem_addr: Optional[int] = None
    mem_size: int = 4
    is_taken: bool = False
    producer_uids: Tuple[Optional[int], ...] = ()
    flags_producer_uid: Optional[int] = None
    synthetic: bool = False

    info: OpcodeInfo = field(init=False, repr=False, compare=False)
    has_dest: bool = field(init=False, repr=False, compare=False)
    effective_producers: Tuple[int, ...] = field(init=False, repr=False,
                                                 compare=False)
    src_bits: int = field(init=False, repr=False, compare=False)
    result_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        info = self.info = opcode_info(self.opcode)
        self.has_dest = self.dest is not None and info.has_dest
        # The FLAGS producer joins the register producers only when they do
        # not already cover every source slot (dispatch's historical
        # dependence-resolution rule); ``None`` live-ins are dropped.
        producers = self.producer_uids
        if None in producers:
            producers = tuple(uid for uid in producers if uid is not None)
        if (info.reads_flags and self.flags_producer_uid is not None
                and len(self.producer_uids) < len(self.srcs)):
            producers = (*producers, self.flags_producer_uid)
        self.effective_producers = producers
        bits = 1 if self.imm is None else value_width(self.imm)
        for value in self.src_values:
            width = value_width(value)
            if width > bits:
                bits = width
        self.src_bits = bits
        self.result_bits = (1 if self.result_value is None
                            else value_width(self.result_value))

    def __reduce__(self):
        """Pickle the recorded fields only; a load re-derives the rest."""
        return (MicroOp, (self.uid, self.pc, self.opcode, self.srcs, self.dest,
                          self.imm, self.src_values, self.result_value,
                          self.flags_value, self.mem_addr, self.mem_size,
                          self.is_taken, self.producer_uids,
                          self.flags_producer_uid, self.synthetic))

    # --------------------------------------------------------------- widths
    def src_is_narrow(self, index: int, narrow_width: int = NARROW_WIDTH) -> bool:
        """True if the ``index``-th source value is narrow (oracle view)."""
        if index >= len(self.src_values):
            return True
        return is_narrow(self.src_values[index], narrow_width)

    def all_sources_narrow(self, narrow_width: int = NARROW_WIDTH) -> bool:
        """True if every source value (and the immediate) is narrow."""
        return self.src_bits <= narrow_width

    def result_is_narrow(self, narrow_width: int = NARROW_WIDTH) -> bool:
        """True if the result value is narrow (uops with no result count as narrow)."""
        return self.result_bits <= narrow_width

    def is_fully_narrow(self, narrow_width: int = NARROW_WIDTH) -> bool:
        """The 8-8-8 oracle condition of §3.2: all sources and the result narrow."""
        return self.src_bits <= narrow_width and self.result_bits <= narrow_width

    # ------------------------------------------------------- CR oracles (§3.5)
    def _cr_values(self) -> Tuple[int, ...]:
        if self.imm is None:
            return self.src_values
        return (*self.src_values, self.imm)

    def cr_carry_crosses(self, narrow_width: int = NARROW_WIDTH) -> bool:
        """Carry out of the low byte when summing the two primary operands."""
        values = self._cr_values()
        return len(values) >= 2 and carry_propagates(values[0], values[1],
                                                     narrow_width)

    def cr_operated_narrow(self, narrow_width: int = NARROW_WIDTH) -> bool:
        """Did this (potential CR) uop actually operate on the low byte only?

        Set when the instruction had the one-narrow/one-wide operand pattern
        and the carry did not propagate past the low byte.
        """
        values = self._cr_values()
        if len(values) < 2:
            return False
        wide = 0
        for value in values:
            if not is_narrow(value, narrow_width):
                wide += 1
        return (wide == 1
                and not carry_propagates(values[0], values[1], narrow_width))

    # --------------------------------------------------------------- helpers
    def with_values(
        self,
        src_values: Sequence[int],
        result_value: Optional[int],
        flags_value: Optional[int] = None,
    ) -> "MicroOp":
        """Return a copy with concrete values filled in."""
        return replace(
            self,
            src_values=tuple(truncate(v) for v in src_values),
            result_value=None if result_value is None else truncate(result_value),
            flags_value=flags_value,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srcs = ",".join(r.name for r in self.srcs)
        dest = self.dest.name if self.dest is not None else "-"
        return (
            f"MicroOp(uid={self.uid}, pc={self.pc:#x}, {self.opcode.name} "
            f"{dest} <- [{srcs}] imm={self.imm})"
        )


class UopBuilder:
    """Convenience factory producing MicroOps with sequential uids.

    The builder only fills in the *static* fields; concrete values and
    producer links are attached by the functional emulator in
    :mod:`repro.trace.synthetic` (or by hand in tests).
    """

    def __init__(self, start_uid: int = 0) -> None:
        self._counter = itertools.count(start_uid)

    def next_uid(self) -> int:
        return next(self._counter)

    def make(
        self,
        opcode: Opcode,
        *,
        pc: int = 0,
        srcs: Sequence[ArchReg] = (),
        dest: Optional[ArchReg] = None,
        imm: Optional[int] = None,
        mem_addr: Optional[int] = None,
        mem_size: int = 4,
        is_taken: bool = False,
        synthetic: bool = False,
    ) -> MicroOp:
        """Create a new MicroOp with the next uid."""
        return MicroOp(
            uid=self.next_uid(),
            pc=pc,
            opcode=Opcode(opcode),
            srcs=tuple(ArchReg(s) for s in srcs),
            dest=None if dest is None else ArchReg(dest),
            imm=None if imm is None else truncate(imm),
            mem_addr=None if mem_addr is None else truncate(mem_addr),
            mem_size=mem_size,
            is_taken=is_taken,
            synthetic=synthetic,
        )

    def alu(self, opcode: Opcode, dest: ArchReg, srcs: Sequence[ArchReg], *, pc: int = 0,
            imm: Optional[int] = None) -> MicroOp:
        """Shorthand for an ALU-class uop."""
        return self.make(opcode, pc=pc, srcs=srcs, dest=dest, imm=imm)

    def load(self, dest: ArchReg, base: ArchReg, offset: ArchReg, *, pc: int = 0,
             byte: bool = False, addr: Optional[int] = None) -> MicroOp:
        """Shorthand for a load uop (LOADB when ``byte`` is set)."""
        opcode = Opcode.LOADB if byte else Opcode.LOAD
        return self.make(opcode, pc=pc, srcs=(base, offset), dest=dest,
                         mem_addr=addr, mem_size=1 if byte else 4)

    def store(self, data: ArchReg, base: ArchReg, offset: ArchReg, *, pc: int = 0,
              byte: bool = False, addr: Optional[int] = None) -> MicroOp:
        """Shorthand for a store uop (STOREB when ``byte`` is set)."""
        opcode = Opcode.STOREB if byte else Opcode.STORE
        return self.make(opcode, pc=pc, srcs=(base, offset, data),
                         mem_addr=addr, mem_size=1 if byte else 4)

    def branch(self, *, pc: int = 0, conditional: bool = True, taken: bool = False) -> MicroOp:
        """Shorthand for a branch uop."""
        opcode = Opcode.BR_COND if conditional else Opcode.BR_UNCOND
        srcs: Tuple[ArchReg, ...] = (ArchReg.FLAGS,) if conditional else ()
        return self.make(opcode, pc=pc, srcs=srcs, is_taken=taken)
