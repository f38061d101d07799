// Unit tests for src/timing: voltage scaling, process variation, environment
// sensors, the per-PC path model and the fault oracle.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/common/stats.hpp"
#include "src/timing/fault_model.hpp"
#include "src/timing/path_model.hpp"
#include "src/timing/process_variation.hpp"
#include "src/timing/sensors.hpp"
#include "src/timing/state_delay.hpp"
#include "src/timing/voltage.hpp"

namespace vasim::timing {
namespace {

TEST(VoltageModel, NominalScaleIsOne) {
  VoltageModel vm;
  EXPECT_NEAR(vm.delay_scale(SupplyPoints::kNominal), 1.0, 1e-12);
}

TEST(VoltageModel, DelayGrowsAsSupplyDrops) {
  VoltageModel vm;
  const double s104 = vm.delay_scale(SupplyPoints::kLowFault);
  const double s097 = vm.delay_scale(SupplyPoints::kHighFault);
  EXPECT_GT(s104, 1.0);
  EXPECT_GT(s097, s104);
  // Alpha-power law magnitudes for Vth=0.3, alpha=1.3.
  EXPECT_NEAR(s104, 1.046, 0.005);
  EXPECT_NEAR(s097, 1.110, 0.005);
}

TEST(VoltageModel, EnergyScales) {
  VoltageModel vm;
  EXPECT_NEAR(vm.dynamic_energy_scale(1.10), 1.0, 1e-12);
  EXPECT_NEAR(vm.dynamic_energy_scale(0.97), (0.97 * 0.97) / (1.1 * 1.1), 1e-12);
  EXPECT_NEAR(vm.leakage_power_scale(0.97), 0.97 / 1.1, 1e-12);
}

TEST(VoltageModel, RejectsSubThresholdSupplies) {
  VoltageModel vm;
  EXPECT_THROW((void)vm.delay_scale(0.2), std::invalid_argument);
  EXPECT_THROW(VoltageModel(1.2, 1.3, 1.1), std::invalid_argument);
}

TEST(ProcessVariation, DeterministicPerGate) {
  ProcessVariation pv;
  EXPECT_DOUBLE_EQ(pv.delay_factor(1, 5), pv.delay_factor(1, 5));
  EXPECT_NE(pv.delay_factor(1, 5), pv.delay_factor(1, 6));
  EXPECT_NE(pv.delay_factor(1, 5), pv.delay_factor(2, 5));
}

TEST(ProcessVariation, ParamsMatchThreeSigmaSpec) {
  ProcessVariation pv;
  RunningStat l;
  for (u64 g = 0; g < 20000; ++g) l.add(pv.sample_params(0, g).dlength);
  // +/-20% at 3 sigma => sigma = 0.0667.
  EXPECT_NEAR(l.stddev(), 0.20 / 3.0, 0.002);
  EXPECT_NEAR(l.mean(), 0.0, 0.002);
}

TEST(ProcessVariation, DelayFactorSigmaMatchesAnalytic) {
  ProcessVariation pv;
  RunningStat s;
  for (u64 g = 0; g < 20000; ++g) s.add(pv.delay_factor(0, g));
  EXPECT_NEAR(s.mean(), 1.0, 0.005);
  EXPECT_NEAR(s.stddev(), pv.delay_factor_sigma(), 0.01);
}

TEST(SpatialVariation, MeanAndSigmaMatchBase) {
  SpatialConfig cfg;
  SpatialVariation sv(cfg);
  const ProcessVariation base(cfg.base);
  RunningStat s;
  const u64 total = 4096;
  for (u64 g = 0; g < total; ++g) s.add(sv.delay_factor(0, g, total));
  EXPECT_NEAR(s.mean(), 1.0, 0.05);
  EXPECT_NEAR(s.stddev(), base.delay_factor_sigma(), 0.25 * base.delay_factor_sigma());
}

TEST(SpatialVariation, NeighborsCorrelateMoreThanStrangers) {
  SpatialConfig cfg;
  cfg.systematic_fraction = 0.8;
  SpatialVariation sv(cfg);
  const u64 total = 4096;  // 64x64 pseudo-placement
  double near_diff = 0, far_diff = 0;
  int n = 0;
  for (u64 die = 0; die < 24; ++die) {
    for (u64 g = 100; g < 600; g += 7) {
      near_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 1, total));
      far_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 2048, total));
      ++n;
    }
  }
  EXPECT_LT(near_diff / n, far_diff / n)
      << "systematic field must make neighbors more alike than distant gates";
}

TEST(SpatialVariation, PureRandomHasNoCorrelation) {
  SpatialConfig cfg;
  cfg.systematic_fraction = 0.0;
  SpatialVariation sv(cfg);
  const u64 total = 4096;
  double near_diff = 0, far_diff = 0;
  int n = 0;
  for (u64 die = 0; die < 24; ++die) {
    for (u64 g = 100; g < 600; g += 7) {
      near_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 1, total));
      far_diff += std::abs(sv.delay_factor(die, g, total) - sv.delay_factor(die, g + 2048, total));
      ++n;
    }
  }
  EXPECT_NEAR(near_diff / n, far_diff / n, 0.15 * far_diff / n);
}

TEST(SpatialVariation, RejectsBadConfig) {
  SpatialConfig bad;
  bad.grid = 1;
  EXPECT_THROW(SpatialVariation{bad}, std::invalid_argument);
  bad.grid = 8;
  bad.systematic_fraction = 1.5;
  EXPECT_THROW(SpatialVariation{bad}, std::invalid_argument);
}

TEST(Environment, ModulationBounded) {
  Environment env;
  for (Cycle c = 0; c < 100000; c += 7) {
    const double m = env.modulation(c);
    EXPECT_GE(m, 1.0 - env.config().clamp);
    EXPECT_LE(m, 1.0 + env.config().clamp);
  }
}

TEST(Environment, ThermalWavePeriodic) {
  Environment env;
  const Cycle p = env.config().thermal_period;
  EXPECT_NEAR(env.thermal_component(100), env.thermal_component(100 + p), 1e-12);
  EXPECT_NEAR(env.thermal_component(0), 0.0, 1e-12);
}

TEST(Environment, SensorsThreshold) {
  Environment env;
  ThermalSensor ts(&env);
  VoltageSensor vs(&env);
  int hot = 0, droopy = 0;
  const int n = 20000;
  for (Cycle c = 0; c < static_cast<Cycle>(n); ++c) {
    hot += ts.hot(c);
    droopy += vs.droopy(c);
  }
  // Both components are symmetric around zero: ~half the time unfavorable.
  EXPECT_NEAR(hot / static_cast<double>(n), 0.5, 0.1);
  EXPECT_NEAR(droopy / static_cast<double>(n), 0.5, 0.1);
}

TEST(PathModel, DeterministicPerPc) {
  const VoltageModel vm;
  PathModelConfig cfg{123, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  EXPECT_DOUBLE_EQ(m.path_factor(0x1000), m.path_factor(0x1000));
  EXPECT_LE(m.path_factor(0x1000), 0.97);
  EXPECT_GT(m.path_factor(0x1000), 0.0);
}

TEST(PathModel, StaticBandMassTracksTargets) {
  const VoltageModel vm;
  PathModelConfig cfg{99, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  const double s_low = vm.delay_scale(SupplyPoints::kLowFault);
  const double s_high = vm.delay_scale(SupplyPoints::kHighFault);
  int low = 0, high = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const Pc pc = 0x1000 + static_cast<Pc>(i) * 4;
    low += m.core_faulty(pc, s_low);
    high += m.core_faulty(pc, s_high);
  }
  // Static mass approximates the configured dynamic targets (band yield
  // correction keeps them the same order).
  EXPECT_NEAR(low / static_cast<double>(n), 0.02, 0.01);
  EXPECT_NEAR(high / static_cast<double>(n), 0.08, 0.02);
}

TEST(PathModel, NoFaultsAtNominal) {
  const VoltageModel vm;
  PathModelConfig cfg{7, 0.10, 0.03};
  const SensitizedPathModel m(cfg, vm);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_FALSE(m.core_faulty(0x1000 + static_cast<Pc>(i) * 4, 1.0));
  }
}

TEST(PathModel, FaultyStageSkewedToWakeupSelect) {
  const VoltageModel vm;
  PathModelConfig cfg{5, 0.08, 0.02};
  const SensitizedPathModel m(cfg, vm);
  int issue = 0, mem = 0, n = 20000;
  for (int i = 0; i < n; ++i) {
    const Pc pc = static_cast<Pc>(i) * 4;
    issue += m.faulty_stage(pc, FaultClass::kAluLike) == OooStage::kIssueSelect;
    mem += m.faulty_stage(pc, FaultClass::kMemLike) == OooStage::kMemory;
  }
  // Sec 3.3.1: wakeup/select dominates ALU-like faults.
  EXPECT_NEAR(issue / static_cast<double>(n), 0.70, 0.03);
  // Sec 3.3.4: LSQ CAM is the second hot spot for memory ops.
  EXPECT_NEAR(mem / static_cast<double>(n), 0.33, 0.03);
}

TEST(PathModel, MemClassNeverFaultsInExecute) {
  const VoltageModel vm;
  const SensitizedPathModel m(PathModelConfig{11, 0.08, 0.02}, vm);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_NE(m.faulty_stage(static_cast<Pc>(i) * 4, FaultClass::kMemLike),
              OooStage::kExecute);
  }
}

TEST(PathModel, CommonalityInS1Range) {
  const VoltageModel vm;
  const SensitizedPathModel m(PathModelConfig{3, 0.08, 0.02}, vm);
  RunningStat s;
  for (int i = 0; i < 10000; ++i) s.add(m.commonality(static_cast<Pc>(i) * 4));
  // S1 reports 87-92% average commonality.
  EXPECT_NEAR(s.mean(), 0.90, 0.01);
  EXPECT_GE(s.min(), 0.75);
  EXPECT_LE(s.max(), 0.98);
}

TEST(PathModel, RejectsBadTargets) {
  const VoltageModel vm;
  EXPECT_THROW(SensitizedPathModel(PathModelConfig{1, 0.01, 0.05}, vm), std::invalid_argument);
}

TEST(FaultModel, DisabledAtNominalSupply) {
  const FaultModel fm(PathModelConfig{1, 0.08, 0.02}, SupplyPoints::kNominal);
  EXPECT_FALSE(fm.enabled());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(fm.query(static_cast<Pc>(i) * 4, FaultClass::kAluLike, i).faulty);
  }
}

class FaultModelRates : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FaultModelRates, RateTracksTarget) {
  const auto [vdd, p_low, p_high] = GetParam();
  const FaultModel fm(PathModelConfig{77, p_high, p_low}, vdd);
  int faults = 0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    faults += fm.query(0x1000 + static_cast<Pc>(i % 8000) * 4, FaultClass::kAluLike,
                       static_cast<Cycle>(i)).faulty;
  }
  const double target = vdd < 1.0 ? p_high : p_low;
  EXPECT_NEAR(faults / static_cast<double>(n), target, target * 0.5 + 0.005);
}

INSTANTIATE_TEST_SUITE_P(
    Supplies, FaultModelRates,
    ::testing::Values(std::make_tuple(1.04, 0.02, 0.08), std::make_tuple(0.97, 0.02, 0.08),
                      std::make_tuple(1.04, 0.015, 0.06), std::make_tuple(0.97, 0.015, 0.10),
                      std::make_tuple(1.04, 0.022, 0.09), std::make_tuple(0.97, 0.013, 0.055)));

TEST(FaultModel, CoreFaultyPCsRecur) {
  const FaultModel fm(PathModelConfig{13, 0.10, 0.03}, 0.97);
  // Find a core-faulty PC, then verify every instance faults except possibly
  // boundary modulation flips (core-faulty deep PCs never flip).
  for (int i = 0; i < 20000; ++i) {
    const Pc pc = 0x1000 + static_cast<Pc>(i) * 4;
    const FaultDecision d0 = fm.query(pc, FaultClass::kAluLike, 0);
    if (!d0.core_faulty || d0.path_factor < 0.93) continue;
    int recur = 0;
    for (Cycle c = 0; c < 1000; ++c) recur += fm.query(pc, FaultClass::kAluLike, c * 37).faulty;
    EXPECT_GT(recur, 800) << "core-faulty PC should fault on most instances";
    return;
  }
  FAIL() << "no core-faulty PC found";
}

TEST(FaultModel, StageStableAcrossInstances) {
  const FaultModel fm(PathModelConfig{17, 0.10, 0.03}, 0.97);
  for (int i = 0; i < 100; ++i) {
    const Pc pc = 0x2000 + static_cast<Pc>(i) * 4;
    const OooStage s = fm.query(pc, FaultClass::kAluLike, 1).stage;
    for (Cycle c = 2; c < 50; ++c) {
      EXPECT_EQ(fm.query(pc, FaultClass::kAluLike, c).stage, s);
    }
  }
}

// ---- per-run oracle memo ----------------------------------------------------

/// PCs that all map to one memo slot (same pc >> 2 modulo the table size),
/// for a few slots, interleaved so every lookup evicts its predecessor.
std::vector<Pc> colliding_pcs() {
  std::vector<Pc> pcs;
  constexpr Pc kStride = static_cast<Pc>(FaultMemo::kSlots) * 4;
  for (Pc base = 0x400000; base < 0x400000 + 64 * 4; base += 4) {
    for (Pc k = 0; k < 4; ++k) pcs.push_back(base + k * kStride);
    pcs.push_back(base + (Pc{0xdead} << 40));  // high bits differ, same slot
  }
  return pcs;
}

/// Cycles crossing droop epochs (16 cycles): from cycle 0, around the
/// thermal wave's trough and across its period boundary (20000 cycles).
std::vector<Cycle> epoch_crossing_cycles() {
  std::vector<Cycle> cycles;
  for (const Cycle start : {Cycle{0}, Cycle{14'980}, Cycle{19'970}}) {
    for (Cycle c = start; c < start + 60; ++c) cycles.push_back(c);
  }
  return cycles;
}

void expect_same(const FaultDecision& memo, const FaultDecision& ref, Pc pc, Cycle c) {
  EXPECT_EQ(memo.faulty, ref.faulty) << std::hex << pc << std::dec << " @" << c;
  EXPECT_EQ(memo.core_faulty, ref.core_faulty) << std::hex << pc << std::dec << " @" << c;
  EXPECT_EQ(memo.stage, ref.stage) << std::hex << pc << std::dec << " @" << c;
  EXPECT_EQ(memo.path_factor, ref.path_factor) << std::hex << pc << std::dec << " @" << c;
}

TEST(FaultMemo, MatchesQueryBitForBitAcrossSlotCollisions) {
  const std::vector<Pc> pcs = colliding_pcs();
  for (const double vdd : {SupplyPoints::kHighFault, SupplyPoints::kLowFault,
                           SupplyPoints::kNominal}) {
    const FaultModel fm(PathModelConfig{29, 0.10, 0.03}, vdd);
    FaultMemo memo(fm);
    u64 faults = 0;
    std::set<Pc> flipped;  // PCs whose verdict changed with the cycle
    for (const Pc pc : pcs) {
      for (const FaultClass cls : {FaultClass::kAluLike, FaultClass::kMemLike}) {
        const bool first = fm.query(pc, cls, 0).faulty;
        for (const Cycle c : epoch_crossing_cycles()) {
          const FaultDecision ref = fm.query(pc, cls, c);
          expect_same(memo.query(pc, cls, c, 1.0, 1.0), ref, pc, c);
          faults += ref.faulty ? 1 : 0;
          if (ref.faulty != first) flipped.insert(pc);
        }
      }
    }
    if (vdd == SupplyPoints::kNominal) {
      EXPECT_EQ(faults, 0u);
    } else {
      EXPECT_GT(faults, 0u) << vdd << " V";
    }
    if (vdd == SupplyPoints::kHighFault) {
      EXPECT_FALSE(flipped.empty()) << "no boundary PC: modulation never exercised";
    }
  }
}

TEST(FaultMemo, MatchesAdaptiveQueryWithStateModel) {
  FaultModel fm(PathModelConfig{31, 0.10, 0.03}, SupplyPoints::kLowFault);
  ProcessConfig pcfg;
  pcfg.seed = 5;
  const StateDelayModel sd(StateDelayConfig{}, ProcessVariation(pcfg), SupplyPoints::kLowFault);
  fm.set_state_model(&sd);
  FaultMemo memo(fm);
  u64 faults = 0;
  for (const double period : {0.97, 1.0, 1.02}) {
    for (const Cycle c : epoch_crossing_cycles()) {
      for (const Pc pc : colliding_pcs()) {
        const u64 sig = hash_combine(pc, c);  // a fresh operand state per instance
        for (const FaultClass cls : {FaultClass::kAluLike, FaultClass::kMemLike}) {
          const FaultDecision ref = fm.query_adaptive(pc, cls, c, period, sig);
          expect_same(memo.query(pc, cls, c, fm.state_factor(pc, sig, cls), period), ref, pc,
                      c);
          faults += ref.faulty ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(faults, 0u);
}

TEST(FaultModel, StaticQueryIsAdaptiveAtNominalPeriodWithoutStateModel) {
  const FaultModel fm(PathModelConfig{37, 0.10, 0.03}, SupplyPoints::kHighFault);
  for (const Pc pc : colliding_pcs()) {
    for (const Cycle c : epoch_crossing_cycles()) {
      expect_same(fm.query(pc, FaultClass::kMemLike, c),
                  fm.query_adaptive(pc, FaultClass::kMemLike, c, 1.0, c), pc, c);
    }
  }
}

}  // namespace
}  // namespace vasim::timing
