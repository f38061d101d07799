// Unit tests for the mini ISA: program representation, assembler and
// functional executor.
#include <gtest/gtest.h>

#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"

namespace vasim::isa {
namespace {

TEST(Program, PcIndexRoundTrip) {
  Program p;
  p.append(Instr{});
  p.append(Instr{});
  EXPECT_EQ(Program::pc_of(0), kTextBase);
  EXPECT_EQ(Program::pc_of(1), kTextBase + 4);
  EXPECT_EQ(p.index_of(kTextBase + 4), 1u);
  EXPECT_THROW((void)p.index_of(kTextBase + 8), std::out_of_range);
  EXPECT_THROW((void)p.index_of(kTextBase + 2), std::out_of_range);
  EXPECT_THROW((void)p.index_of(0), std::out_of_range);
}

TEST(Program, OpClassMapping) {
  EXPECT_EQ(op_class(Opcode::kAdd), OpClass::kIntAlu);
  EXPECT_EQ(op_class(Opcode::kMul), OpClass::kIntMul);
  EXPECT_EQ(op_class(Opcode::kDiv), OpClass::kIntDiv);
  EXPECT_EQ(op_class(Opcode::kLd), OpClass::kLoad);
  EXPECT_EQ(op_class(Opcode::kSt), OpClass::kStore);
  EXPECT_EQ(op_class(Opcode::kBeq), OpClass::kBranch);
  EXPECT_EQ(op_class(Opcode::kJmp), OpClass::kBranch);
  EXPECT_EQ(op_class(Opcode::kHalt), OpClass::kNop);
}

TEST(Assembler, ParsesAllForms) {
  const Program p = assemble(R"(
    # comment line
    start: addi r1, r0, 10
    lui  r2, 0x2
    add  r3, r1, r2       # trailing comment
    ld   r4, 8(r3)
    st   r4, 16(r3)
    beq  r1, r2, start
    jmp  start
    halt
  )");
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(p.at(0).op, Opcode::kAddi);
  EXPECT_EQ(p.at(0).imm, 10);
  EXPECT_EQ(p.at(1).imm, 2);
  EXPECT_EQ(p.at(3).rs1, 3);
  EXPECT_EQ(p.at(3).imm, 8);
  EXPECT_EQ(p.at(4).rs2, 4);  // store value register
  EXPECT_EQ(p.at(5).imm, 0);  // label resolved to index 0
  EXPECT_EQ(p.at(6).imm, 0);
}

struct BadSource {
  const char* name;
  const char* text;
};

// Printed in place of the struct's pointer bytes so that the test names
// (which carry the printed parameter) are the same in every build and run.
void PrintTo(const BadSource& s, std::ostream* os) { *os << s.name; }

class AssemblerErrors : public ::testing::TestWithParam<BadSource> {};

TEST_P(AssemblerErrors, Raises) {
  EXPECT_THROW(assemble(GetParam().text), AssemblerError);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerErrors,
    ::testing::Values(BadSource{"unknown_mnemonic", "frob r1, r2, r3"},
                      BadSource{"bad_register", "add rx, r1, r2"},
                      BadSource{"register_range", "add r32, r1, r2"},
                      BadSource{"operand_count", "add r1, r2"},
                      BadSource{"bad_imm", "addi r1, r2, zz"},
                      BadSource{"bad_mem_operand", "ld r1, r2"},
                      BadSource{"undefined_label", "jmp nowhere"},
                      BadSource{"duplicate_label", "a: nop\na: nop"},
                      BadSource{"empty_label", ": nop"}),
    [](const ::testing::TestParamInfo<BadSource>& info) { return info.param.name; });

TEST(AssemblerErrors, ReportsLineNumber) {
  try {
    assemble("nop\nfrob r1\n");
    FAIL();
  } catch (const AssemblerError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Executor, ArithmeticAndImmediates) {
  const Program p = assemble(R"(
    addi r1, r0, 6
    addi r2, r0, 7
    mul  r3, r1, r2
    sub  r4, r3, r1
    div  r5, r3, r2
    slt  r6, r1, r2
    shl  r7, r1, r6
    halt
  )");
  FunctionalCore core(&p);
  DynInst d;
  while (core.next(d)) {
  }
  EXPECT_EQ(core.reg(3), 42u);
  EXPECT_EQ(core.reg(4), 36u);
  EXPECT_EQ(core.reg(5), 6u);
  EXPECT_EQ(core.reg(6), 1u);
  EXPECT_EQ(core.reg(7), 12u);
  EXPECT_TRUE(core.halted());
}

TEST(Executor, R0IsHardwiredZero) {
  const Program p = assemble("addi r0, r0, 99\nhalt\n");
  FunctionalCore core(&p);
  DynInst d;
  while (core.next(d)) {
  }
  EXPECT_EQ(core.reg(0), 0u);
}

TEST(Executor, LoadStoreRoundTrip) {
  const Program p = assemble(R"(
    lui  r1, 0x10
    addi r2, r0, 1234
    st   r2, 8(r1)
    ld   r3, 8(r1)
    halt
  )");
  FunctionalCore core(&p);
  DynInst d;
  std::vector<DynInst> trace;
  while (core.next(d)) trace.push_back(d);
  EXPECT_EQ(core.reg(3), 1234u);
  // The store and load share the effective address.
  EXPECT_EQ(trace[2].mem_addr, trace[3].mem_addr);
  EXPECT_EQ(trace[2].op, OpClass::kStore);
  EXPECT_EQ(trace[3].op, OpClass::kLoad);
}

TEST(Executor, LoopSumsAndBranchMetadata) {
  // sum = 1 + 2 + ... + 10
  const Program p = assemble(R"(
      addi r1, r0, 0      # sum
      addi r2, r0, 1      # i
      addi r3, r0, 11     # bound
    loop:
      add  r1, r1, r2
      addi r2, r2, 1
      blt  r2, r3, loop
      halt
  )");
  FunctionalCore core(&p);
  DynInst d;
  int taken = 0, not_taken = 0;
  while (core.next(d)) {
    if (d.op == OpClass::kBranch) {
      if (d.taken) {
        ++taken;
        EXPECT_EQ(d.next_pc, Program::pc_of(3));
      } else {
        ++not_taken;
        EXPECT_EQ(d.next_pc, d.pc + 4);
      }
    }
  }
  EXPECT_EQ(core.reg(1), 55u);
  EXPECT_EQ(taken, 9);
  EXPECT_EQ(not_taken, 1);
}

TEST(Executor, EmitsArchRegistersAndSeqMetadata) {
  const Program p = assemble("addi r1, r0, 5\nadd r2, r1, r1\nhalt\n");
  FunctionalCore core(&p);
  DynInst d;
  ASSERT_TRUE(core.next(d));
  EXPECT_EQ(d.dst, 1);
  EXPECT_EQ(d.src1, 0);
  EXPECT_EQ(d.pc, kTextBase);
  ASSERT_TRUE(core.next(d));
  EXPECT_EQ(d.src1, 1);
  EXPECT_EQ(d.src2, 1);
  EXPECT_EQ(d.op, OpClass::kIntAlu);
}

TEST(Executor, InstructionCapStopsStream) {
  const Program p = assemble("top: jmp top\n");
  FunctionalCore core(&p, 100);
  DynInst d;
  u64 n = 0;
  while (core.next(d)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_FALSE(core.halted());
}

TEST(Executor, DivByZeroSaturates) {
  const Program p = assemble("addi r1, r0, 5\ndiv r2, r1, r0\nhalt\n");
  FunctionalCore core(&p);
  DynInst d;
  while (core.next(d)) {
  }
  EXPECT_EQ(core.reg(2), ~0ULL);
}

TEST(Executor, FallsOffTextEndsStream) {
  const Program p = assemble("nop\n");
  FunctionalCore core(&p);
  DynInst d;
  EXPECT_TRUE(core.next(d));
  EXPECT_FALSE(core.next(d));
  EXPECT_TRUE(core.halted());
}

}  // namespace
}  // namespace vasim::isa
