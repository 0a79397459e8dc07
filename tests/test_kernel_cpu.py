"""Unit tests for the functional CPU's architectural semantics."""

import pytest

from repro.isa import ProgramBuilder, assemble
from repro.kernel import ExecutionError, FunctionalCpu, to_signed, to_unsigned
from repro.kernel.memory import MemoryError_


def run_asm(source, max_instructions=100_000):
    cpu = FunctionalCpu(assemble(source))
    cpu.run_trace(max_instructions=max_instructions)
    return cpu


def reg(cpu, name):
    from repro.isa import parse_register
    return cpu.regs[parse_register(name)]


class TestSignHelpers:
    def test_to_signed(self):
        assert to_signed(0) == 0
        assert to_signed(0x7FFFFFFF) == 2147483647
        assert to_signed(0x80000000) == -2147483648
        assert to_signed(0xFFFFFFFF) == -1

    def test_to_unsigned(self):
        assert to_unsigned(-1) == 0xFFFFFFFF
        assert to_unsigned(1 << 33) == 0


class TestArithmetic:
    def test_add_sub_wrap(self):
        cpu = run_asm("""
            .text
        main: li  $t0, 0x7FFFFFFF
              addi $t1, $t0, 1
              sub  $t2, $zero, $t1
              halt
        """)
        assert reg(cpu, "$t1") == 0x80000000
        assert reg(cpu, "$t2") == 0x80000000  # -(-2^31) wraps

    def test_logic_ops(self):
        cpu = run_asm("""
            .text
        main: li  $t0, 0xF0F0
              li  $t1, 0x0FF0
              and $t2, $t0, $t1
              or  $t3, $t0, $t1
              xor $t4, $t0, $t1
              nor $t5, $t0, $t1
              halt
        """)
        assert reg(cpu, "$t2") == 0x00F0
        assert reg(cpu, "$t3") == 0xFFF0
        assert reg(cpu, "$t4") == 0xFF00
        assert reg(cpu, "$t5") == 0xFFFF000F

    def test_slt_signed_vs_unsigned(self):
        cpu = run_asm("""
            .text
        main: li   $t0, -1
              li   $t1, 1
              slt  $t2, $t0, $t1
              sltu $t3, $t0, $t1
              slti $t4, $t0, 0
              sltiu $t5, $t1, 2
              halt
        """)
        assert reg(cpu, "$t2") == 1   # -1 < 1 signed
        assert reg(cpu, "$t3") == 0   # 0xFFFFFFFF > 1 unsigned
        assert reg(cpu, "$t4") == 1
        assert reg(cpu, "$t5") == 1

    def test_shifts(self):
        cpu = run_asm("""
            .text
        main: li  $t0, 0x80000000
              srl $t1, $t0, 4
              sra $t2, $t0, 4
              li  $t3, 3
              li  $t4, 1
              sllv $t5, $t4, $t3
              halt
        """)
        assert reg(cpu, "$t1") == 0x08000000
        assert reg(cpu, "$t2") == 0xF8000000
        assert reg(cpu, "$t5") == 8

    def test_mul_div_rem(self):
        cpu = run_asm("""
            .text
        main: li  $t0, -6
              li  $t1, 4
              mul $t2, $t0, $t1
              mulh $t3, $t0, $t1
              div $t4, $t0, $t1
              rem $t5, $t0, $t1
              halt
        """)
        assert to_signed(reg(cpu, "$t2")) == -24
        assert to_signed(reg(cpu, "$t3")) == -1    # high word of -24
        assert to_signed(reg(cpu, "$t4")) == -1    # trunc(-1.5)
        assert to_signed(reg(cpu, "$t5")) == -2    # -6 - (-1*4)

    def test_divide_by_zero_yields_zero(self):
        cpu = run_asm("""
            .text
        main: li  $t0, 5
              div $t1, $t0, $zero
              rem $t2, $t0, $zero
              halt
        """)
        assert reg(cpu, "$t1") == 0
        assert reg(cpu, "$t2") == 0

    def test_fp_marked_ops_are_integer_semantics(self):
        cpu = run_asm("""
            .text
        main: li   $t0, 6
              li   $t1, 7
              fadd $t2, $t0, $t1
              fmul $t3, $t0, $t1
              fsub $t4, $t0, $t1
              fdiv $t5, $t3, $t1
              halt
        """)
        assert reg(cpu, "$t2") == 13
        assert reg(cpu, "$t3") == 42
        assert to_signed(reg(cpu, "$t4")) == -1
        assert reg(cpu, "$t5") == 6

    def test_zero_register_is_immutable(self):
        cpu = run_asm("""
            .text
        main: addi $zero, $zero, 5
              add  $t0, $zero, $zero
              halt
        """)
        assert reg(cpu, "$t0") == 0


class TestMemoryOps:
    def test_word_store_load(self):
        cpu = run_asm("""
            .data
        buf: .space 16
            .text
        main: la $t0, buf
              li $t1, 0x12345678
              sw $t1, 4($t0)
              lw $t2, 4($t0)
              halt
        """)
        assert reg(cpu, "$t2") == 0x12345678

    def test_signed_and_unsigned_subword_loads(self):
        cpu = run_asm("""
            .data
        buf: .word 0
            .text
        main: la  $t0, buf
              li  $t1, 0x8081
              sh  $t1, 0($t0)
              lh  $t2, 0($t0)
              lhu $t3, 0($t0)
              lb  $t4, 1($t0)
              lbu $t5, 1($t0)
              halt
        """)
        assert reg(cpu, "$t2") == 0xFFFF8081
        assert reg(cpu, "$t3") == 0x8081
        assert reg(cpu, "$t4") == 0xFFFFFF80
        assert reg(cpu, "$t5") == 0x80

    def test_byte_store_does_not_clobber_neighbours(self):
        cpu = run_asm("""
            .data
        buf: .word 0x11223344
            .text
        main: la $t0, buf
              li $t1, 0xAA
              sb $t1, 1($t0)
              lw $t2, 0($t0)
              halt
        """)
        assert reg(cpu, "$t2") == 0x1122AA44


class TestControlFlow:
    def test_loop_sum(self):
        cpu = run_asm("""
            .text
        main:  li $t0, 0
               li $t1, 0
        loop:  add $t1, $t1, $t0
               addi $t0, $t0, 1
               slti $t2, $t0, 10
               bnez $t2, loop
               halt
        """)
        assert reg(cpu, "$t1") == 45

    def test_branch_variants(self):
        cpu = run_asm("""
            .text
        main:  li $t0, -3
               blez $t0, a
               li $t9, 1
        a:     bltz $t0, b
               li $t9, 2
        b:     bgez $zero, c
               li $t9, 3
        c:     li $t1, 5
               bgtz $t1, d
               li $t9, 4
        d:     halt
        """)
        assert reg(cpu, "$t9") == 0  # every branch taken

    def test_jal_jr_call(self):
        cpu = run_asm("""
            .text
        main:  jal f
               li $t1, 7
               halt
        f:     li $t0, 3
               jr $ra
        """)
        assert reg(cpu, "$t0") == 3
        assert reg(cpu, "$t1") == 7

    def test_runaway_program_raises(self):
        with pytest.raises(ExecutionError):
            run_asm("""
                .text
            main: j main
            """, max_instructions=100)

    def test_instruction_count(self):
        cpu = run_asm("""
            .text
        main: nop
              nop
              halt
        """)
        assert cpu.instruction_count == 3
        assert cpu.halted

    def test_jalr_links_rd_and_jumps_to_rs(self):
        cpu = run_asm("""
            .text
        main:  la   $t9, f
               jalr $s1, $t9
               li   $t1, 7
               halt
        f:     li   $t0, 3
               jr   $s1
        """)
        assert reg(cpu, "$t0") == 3
        assert reg(cpu, "$t1") == 7
        assert reg(cpu, "$s1") == cpu.program.labels["main"] + 12
        assert reg(cpu, "$ra") == 0

    def test_jalr_reads_rs_before_linking_when_rd_is_rs(self):
        # ``jalr $ra`` (rd == rs == $ra) jumps to the old $ra, then
        # links: MIPS reads rs first.
        cpu = FunctionalCpu(assemble("""
            .text
        main:  la   $ra, f
               jalr $ra
               li   $t0, 1
               halt
        f:     li   $t1, 2
               jr   $ra
        """))
        trace = cpu.run_trace()
        jalr = trace[2]
        assert jalr.next_pc == cpu.program.labels["f"] and jalr.taken
        assert reg(cpu, "$t1") == 2
        assert reg(cpu, "$t0") == 1          # returned through the link
        assert reg(cpu, "$ra") == jalr.pc + 4

    def test_jalr_to_zero_links_nothing(self):
        cpu = run_asm("""
            .text
        main:  la   $t9, f
               jalr $zero, $t9
               halt
        f:     halt
        """)
        assert cpu.regs[0] == 0
        assert cpu.pc == cpu.program.labels["f"] + 4


class TestLeavingTheText:
    """A pc outside the text segment, or not word-aligned, is an
    ExecutionError that names the pc and the dynamic instruction."""

    def test_jr_into_data(self):
        cpu = FunctionalCpu(assemble("""
            .data
        buf:   .word 0
            .text
        main:  la $t0, buf
               jr $t0
        """))
        with pytest.raises(ExecutionError,
                           match=r"dynamic instruction 3: pc 0x10000000 "
                                 r"is outside the text segment"):
            cpu.run_trace()
        assert cpu.pc == 0x1000_0000
        assert cpu.instruction_count == 3 and not cpu.halted

    def test_misaligned_jump_target(self):
        cpu = FunctionalCpu(assemble("""
            .text
        main:  la   $t0, main
               addi $t0, $t0, 2
               jr   $t0
        """))
        with pytest.raises(ExecutionError,
                           match=r"dynamic instruction 4: pc 0x400002 "
                                 r"is misaligned in the text segment"):
            cpu.run_trace()

    def test_program_without_halt_runs_off_the_end(self):
        cpu = FunctionalCpu(assemble("""
            .text
        main:  nop
        """))
        with pytest.raises(ExecutionError,
                           match=r"dynamic instruction 1: pc 0x400004 "
                                 r"is outside the text segment"):
            cpu.run_trace()


class TestEdges:
    def test_instruction_cap_message_and_state(self):
        cpu = FunctionalCpu(assemble("""
            .text
        main: j main
        """))
        with pytest.raises(ExecutionError,
                           match=r"^instruction cap 100 reached at "
                                 r"pc=0x400000$"):
            cpu.run_trace(max_instructions=100)
        assert cpu.instruction_count == 100 and not cpu.halted

    @pytest.mark.parametrize("access", ["lw $t1, 2($t0)", "lh $t1, 1($t0)",
                                        "sw $t1, 2($t0)", "sh $t1, 3($t0)"])
    def test_misaligned_access_raises(self, access):
        cpu = FunctionalCpu(assemble("""
            .data
        buf:  .word 0, 0
            .text
        main: la $t0, buf
              li $t1, 5
              %s
              halt
        """ % access))
        with pytest.raises(MemoryError_, match="misaligned"):
            cpu.run_trace()
        assert cpu.instruction_count == 3
        assert cpu.pc == cpu.program.labels["main"] + 12
        assert cpu.memory.read(cpu.program.data_base, 4) == 0

    def test_unimplemented_opcode_fails_before_running(self):
        from repro.isa import Instruction, Opcode, Program
        program = Program(instructions=(Instruction(Opcode.NOP),
                                        Instruction(Opcode.AGI, rd=8, rs=9,
                                                    imm=4)),
                          data=b"", labels={})
        cpu = FunctionalCpu(program)
        with pytest.raises(ExecutionError,
                           match="unimplemented opcode AGI at pc 0x400004"):
            cpu.run_trace()
        assert cpu.instruction_count == 0 and cpu.pc == 0x400000

    def test_halted_cpu_records_an_empty_trace(self):
        cpu = run_asm("""
            .text
        main: halt
        """)
        assert cpu.halted and cpu.pc == 0x400004
        assert len(cpu.run_trace()) == 0
        assert cpu.instruction_count == 1
