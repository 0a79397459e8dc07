"""Unit tests for the text assembler and the builder DSL."""

import pytest

from repro.isa import (
    DATA_BASE,
    TEXT_BASE,
    AssemblerError,
    Opcode,
    Program,
    ProgramBuilder,
    assemble,
    disassemble,
)


class TestProgramBuilder:
    def test_simple_program(self):
        b = ProgramBuilder()
        b.label("main")
        b.addi("$t0", "$zero", 5)
        b.halt()
        prog = b.build()
        assert prog.entry == TEXT_BASE
        assert len(prog.instructions) == 2
        assert prog.instructions[0].op is Opcode.ADDI

    def test_data_labels_and_layout(self):
        b = ProgramBuilder()
        addr = b.data_label("a")
        b.word(1, 2, 3)
        addr_b = b.data_label("b")
        b.half(7)
        b.label("main")
        b.halt()
        prog = b.build()
        assert addr == DATA_BASE
        assert addr_b == DATA_BASE + 12
        assert prog.data[:4] == (1).to_bytes(4, "little")
        assert prog.labels["a"] == DATA_BASE

    def test_alignment(self):
        b = ProgramBuilder()
        b.byte(1)
        b.word(2)  # must align to 4
        b.label("main")
        b.halt()
        prog = b.build()
        assert len(prog.data) == 8
        assert prog.data[4:8] == (2).to_bytes(4, "little")

    def test_branch_label_resolution(self):
        b = ProgramBuilder()
        b.label("main")
        b.label_aliases = None
        b.beq("$t0", "$t1", "done")
        b.nop()
        b.label("done")
        b.halt()
        prog = b.build()
        assert prog.instructions[0].target == TEXT_BASE + 8

    def test_la_splits_address(self):
        b = ProgramBuilder()
        b.data_label("arr")
        b.word(0)
        b.label("main")
        b.la("$t0", "arr")
        b.halt()
        prog = b.build()
        lui, ori = prog.instructions[0], prog.instructions[1]
        assert lui.op is Opcode.LUI and ori.op is Opcode.ORI
        assert (lui.imm << 16) | ori.imm == DATA_BASE

    def test_li_small_one_instruction(self):
        b = ProgramBuilder()
        b.label("main")
        b.li("$t0", 42)
        b.li("$t1", -7)
        b.halt()
        prog = b.build()
        assert prog.instructions[0].op is Opcode.ADDI
        assert prog.instructions[1].op is Opcode.ADDI

    def test_li_large_two_instructions(self):
        b = ProgramBuilder()
        b.label("main")
        b.li("$t0", 0x12345678)
        b.halt()
        prog = b.build()
        assert [i.op for i in prog.instructions[:2]] == [Opcode.LUI,
                                                         Opcode.ORI]

    def test_duplicate_label_rejected(self):
        b = ProgramBuilder()
        b.label("x")
        with pytest.raises(AssemblerError):
            b.label("x")
        with pytest.raises(AssemblerError):
            b.data_label("x")

    def test_unresolved_label_rejected(self):
        b = ProgramBuilder()
        b.label("main")
        b.j("nowhere")
        with pytest.raises(AssemblerError):
            b.build()

    def test_blt_pseudo_expansion(self):
        b = ProgramBuilder()
        b.label("main")
        b.blt("$t0", "$t1", "main")
        b.halt()
        prog = b.build()
        assert prog.instructions[0].op is Opcode.SLT
        assert prog.instructions[1].op is Opcode.BNE

    def test_hardware_registers_rejected(self):
        b = ProgramBuilder()
        with pytest.raises(Exception):
            b.addi("$agi", "$zero", 0)


def _word_per_value(builder, *values):
    """The reference ``ProgramBuilder.word``: one ``to_bytes`` per value."""
    builder.align(4)
    for value in values:
        builder._data += (value & 0xFFFFFFFF).to_bytes(4, "little")


class TestWordPacking:
    """``ProgramBuilder.word`` packs a call's values in one step; the
    bytes equal a per-value ``to_bytes`` reference."""

    def test_values_mask_to_32_bits_little_endian(self):
        values = (0, 1, -1, 0x12345678, 0xFFFFFFFF, 1 << 40, -(1 << 31),
                  True)
        b, ref = ProgramBuilder(), ProgramBuilder()
        for builder, word in ((b, ProgramBuilder.word),
                              (ref, _word_per_value)):
            builder.byte(9)
            word(builder)           # no values: alignment only
            word(builder, *values)
        assert bytes(b._data) == bytes(ref._data)
        assert len(b._data) == 4 + 4 * len(values)

    def test_data_segments_of_all_workloads_match_per_value_reference(
            self, monkeypatch):
        from repro.workloads import ALL_NAMES, get_workload
        specs = [get_workload(name) for name in ALL_NAMES]
        packed = [spec.build(spec.iterations(0.15)).data for spec in specs]
        monkeypatch.setattr(ProgramBuilder, "word", _word_per_value)
        for spec, data in zip(specs, packed):
            assert spec.build(spec.iterations(0.15)).data == data, spec.name


class TestTextAssembler:
    SOURCE = """
        .data
    arr:    .word 10, 20, 30
    buf:    .space 8
        .text
    main:   la   $t0, arr
            lw   $t1, 0($t0)
            addi $t1, $t1, 1    # comment here
            sw   $t1, 4($t0)
            beq  $t1, $zero, main
            halt
    """

    def test_assembles(self):
        prog = assemble(self.SOURCE)
        assert isinstance(prog, Program)
        assert prog.labels["arr"] == DATA_BASE
        assert prog.labels["buf"] == DATA_BASE + 12
        ops = [i.op for i in prog.instructions]
        assert Opcode.LW in ops and Opcode.SW in ops and Opcode.HALT in ops

    def test_entry_defaults_to_main(self):
        prog = assemble(self.SOURCE)
        assert prog.entry == prog.labels["main"]

    def test_error_reports_line(self):
        with pytest.raises(AssemblerError) as err:
            assemble(".text\nmain: frobnicate $t0\n")
        assert "line 2" in str(err.value)

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError):
            assemble(".text\nmain: lw $t0, nope\n")

    @pytest.mark.parametrize("line, mnem, expected, given", [
        ("add $t0, $t1", "add", 3, 2),
        ("lw $t0", "lw", 2, 1),
        ("beq $t0, $t1", "beq", 3, 2),
        ("addi $t0", "addi", 3, 1),
    ])
    def test_wrong_operand_count_names_line_and_counts(self, line, mnem,
                                                       expected, given):
        with pytest.raises(AssemblerError) as err:
            assemble(".text\nmain: %s\n halt\n" % line)
        message = str(err.value)
        assert message.startswith("line 2: %s takes %d operand"
                                  % (mnem, expected))
        assert "got %d" % given in message

    def test_unknown_directive(self):
        with pytest.raises(AssemblerError):
            assemble(".quux 3\nmain: halt\n")

    def test_pseudo_instructions(self):
        prog = assemble("""
            .text
        main:   li   $t0, 100000
                move $t1, $t0
                b    end
                nop
        end:    halt
        """)
        ops = [i.op for i in prog.instructions]
        assert ops[0] is Opcode.LUI      # big li
        assert Opcode.BEQ in ops         # b expands to beq

    def test_jalr_forms(self):
        # MIPS: ``jalr rs`` links $ra, ``jalr rd, rs`` links rd.
        prog = assemble("""
            .text
        main:   jalr $t0
                jalr $t0, $t9
                jalr $ra, $ra
                halt
        """)
        one, two, same = prog.instructions[:3]
        assert (one.op, one.rd, one.rs) == (Opcode.JALR, 31, 8)
        assert (two.rd, two.rs) == (8, 25)
        assert (same.rd, same.rs) == (31, 31)
        with pytest.raises(AssemblerError):
            assemble(".text\nmain: jalr $t0, $t1, $t2\n")

    def test_jalr_disassembly_assembles_back(self):
        prog = assemble(".text\nmain: jalr $t0\n jalr $s1, $t9\n"
                        " jalr $ra, $ra\n halt\n")
        text = "\n".join([".text", "main:"] + [
            "  " + disassemble(instr) for instr in prog.instructions])
        assert assemble(text).instructions == prog.instructions


class TestProgramHelpers:
    def test_pc_index_roundtrip(self):
        prog = assemble(".text\nmain: nop\n nop\n halt\n")
        for index in range(3):
            pc = prog.pc_of_index(index)
            assert prog.index_of_pc(pc) == index

    def test_instruction_at_rejects_bad_pc(self):
        prog = assemble(".text\nmain: halt\n")
        with pytest.raises(AssemblerError):
            prog.instruction_at(TEXT_BASE + 100)
        with pytest.raises(AssemblerError):
            prog.instruction_at(TEXT_BASE + 2)

    def test_disassemble_lists_labels(self):
        prog = assemble(".text\nmain: nop\nloop: b loop\n halt\n")
        listing = prog.disassemble()
        assert "main:" in listing and "loop:" in listing
