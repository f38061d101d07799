// Cross-validation tests: the gate-level ALU against the ISA executor's
// arithmetic, and netlist invariants over every builder (the properties a
// synthesis flow would rely on when consuming the Verilog export).
#include <gtest/gtest.h>

#include <functional>

#include "src/circuit/gatesim.hpp"
#include "src/circuit/scheduler_blocks.hpp"
#include "src/circuit/verilog.hpp"
#include "src/common/rng.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"

namespace vasim::circuit {
namespace {

TEST(CrossValidation, GateLevelAluAgreesWithIsaExecutor) {
  // The same operation computed two ways: through the mini-ISA functional
  // core and through the synthesized 16-bit ALU netlist.
  const Component alu = build_simple_alu(16);
  GateSim sim(&alu.netlist);
  Pcg32 rng(99);
  const struct {
    AluOp gate_op;
    const char* mnemonic;
  } ops[] = {{AluOp::kAdd, "add"}, {AluOp::kSub, "sub"}, {AluOp::kAnd, "and"},
             {AluOp::kOr, "or"},   {AluOp::kXor, "xor"}};
  for (const auto& op : ops) {
    for (int t = 0; t < 20; ++t) {
      const u64 a = rng.next_u64() & 0xFFFF;
      const u64 b = rng.next_u64() & 0xFFFF;
      // ISA path.
      const isa::Program prog =
          isa::assemble(std::string(op.mnemonic) + " r3, r1, r2\nhalt\n");
      isa::FunctionalCore core(&prog);
      core.set_reg(1, a);
      core.set_reg(2, b);
      isa::DynInst d;
      while (core.next(d)) {
      }
      // Gate path.
      std::vector<u8> in;
      GateSim::pack_bits(a, 16, in);
      GateSim::pack_bits(b, 16, in);
      GateSim::pack_bits(static_cast<u64>(op.gate_op), 3, in);
      sim.evaluate(in);
      const Bus result(alu.outputs.begin(), alu.outputs.begin() + 16);
      EXPECT_EQ(sim.read_bus(result), core.reg(3) & 0xFFFF)
          << op.mnemonic << " a=" << a << " b=" << b;
    }
  }
}

/// Builders under test for the structural-invariant sweep.
struct BuilderCase {
  const char* name;
  std::function<Component()> build;
};

// Printed in place of the pointer and std::function bytes so that the test
// names are the same in every build and run.
void PrintTo(const BuilderCase& b, std::ostream* os) { *os << b.name; }

class BuilderInvariants : public ::testing::TestWithParam<BuilderCase> {};

TEST_P(BuilderInvariants, NetlistIsWellFormedAndExportable) {
  const Component c = GetParam().build();
  const Netlist& n = c.netlist;
  // 1. IO bookkeeping matches the netlist.
  EXPECT_EQ(static_cast<int>(c.inputs.size()), n.num_inputs());
  EXPECT_EQ(c.outputs.size(), n.outputs().size());
  for (const SigId s : n.outputs()) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, n.num_signals());
  }
  // 2. Topological ordering: every gate reads strictly earlier signals.
  for (SigId i = 0; i < n.num_signals(); ++i) {
    const Gate& g = n.gate(i);
    const int fanin = cell_info(g.kind).fanin;
    for (int k = 0; k < fanin; ++k) {
      EXPECT_GE(g.in[k], 0);
      EXPECT_LT(g.in[k], i);
    }
  }
  // 3. Evaluation is deterministic and total.
  GateSim sim(&n);
  std::vector<u8> zeros(static_cast<std::size_t>(n.num_inputs()), 0);
  const std::vector<u8> v1 = sim.evaluate(zeros);
  const std::vector<u8> v2 = sim.evaluate(zeros);
  EXPECT_EQ(v1, v2);
  // 4. The Verilog export covers every signal exactly once.
  const std::string verilog = to_verilog(c, "dut");
  std::size_t assigns = 0;
  for (std::size_t pos = verilog.find("assign"); pos != std::string::npos;
       pos = verilog.find("assign", pos + 1)) {
    ++assigns;
  }
  EXPECT_EQ(assigns,
            static_cast<std::size_t>(n.num_signals() - n.num_inputs()) + c.outputs.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllBuilders, BuilderInvariants,
    ::testing::Values(
        BuilderCase{"alu32", [] { return build_simple_alu(32); }},
        BuilderCase{"alu8", [] { return build_simple_alu(8); }},
        BuilderCase{"issue_select", [] { return build_issue_select(32, 4); }},
        BuilderCase{"agen", [] { return build_agen(32, 16); }},
        BuilderCase{"forward_check", [] { return build_forward_check(4, 4, 7); }},
        BuilderCase{"multiplier", [] { return build_array_multiplier(8); }},
        BuilderCase{"lsq_cam", [] { return build_lsq_cam(24, 12); }},
        BuilderCase{"wakeup_cam", [] { return build_wakeup_cam({}); }},
        BuilderCase{"age_select", [] { return build_age_select({}); }},
        BuilderCase{"countdown", [] { return build_countdown({}); }},
        BuilderCase{"payload", [] { return build_payload({}); }},
        BuilderCase{"vte_addon", [] { return build_vte_addon({}); }},
        BuilderCase{"cdl", [] { return build_cdl({}); }}),
    [](const ::testing::TestParamInfo<BuilderCase>& info) { return info.param.name; });

}  // namespace
}  // namespace vasim::circuit
