// Steady-state cycle-loop probe: pregenerates a trace buffer, replays it
// through the pipeline, and reports simulated MIPS for the step() loop only
// (no trace generation or construction in the timed region).
//
//   kernel_probe [--iq N] [--rob N] [--phys N] [--reps R]
//
// The window knobs mirror the vasim CLI so the probe can time the scheduler
// kernel at any issue-queue size.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"

using namespace vasim;

namespace {

class ReplaySource final : public isa::InstructionSource {
 public:
  explicit ReplaySource(const std::vector<isa::DynInst>* buf) : buf_(buf) {}
  bool next(isa::DynInst& out) override {
    out = (*buf_)[i_];
    if (++i_ == buf_->size()) i_ = 0;
    return true;
  }
  [[nodiscard]] std::string name() const override { return "replay"; }

 private:
  const std::vector<isa::DynInst>* buf_;
  std::size_t i_ = 0;
};

double measure_mips(const std::vector<isa::DynInst>& buf, const cpu::CoreConfig& cfg,
                    bool with_faults) {
  const auto prof = workload::spec2006_profile("sjeng");
  ReplaySource src(&buf);
  timing::PathModelConfig pcfg{prof.seed, prof.fr_high_pct / 100.0, prof.fr_low_pct / 100.0};
  const timing::FaultModel fm(pcfg, 0.97);
  core::TimingErrorPredictor tep({}, &fm.environment());
  cpu::Pipeline p(cfg, with_faults ? cpu::scheme_abs() : cpu::scheme_fault_free(), &src,
                  with_faults ? &fm : nullptr, with_faults ? &tep : nullptr);
  constexpr u64 kWarm = 30'000;
  constexpr u64 kMeasure = 300'000;
  while (p.committed() < kWarm) p.step();
  const auto t0 = std::chrono::steady_clock::now();
  while (p.committed() < kWarm + kMeasure) p.step();
  const auto t1 = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(t1 - t0).count();
  return static_cast<double>(kMeasure) / s;
}

}  // namespace

int main(int argc, char** argv) {
  cpu::CoreConfig cfg;
  int reps = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--iq") == 0) {
      cfg.iq_entries = std::atoi(val);
    } else if (std::strcmp(key, "--rob") == 0) {
      cfg.rob_entries = std::atoi(val);
    } else if (std::strcmp(key, "--phys") == 0) {
      cfg.phys_regs = std::atoi(val);
    } else if (std::strcmp(key, "--reps") == 0) {
      reps = std::atoi(val);
    } else {
      std::fprintf(stderr,
                   "usage: kernel_probe [--iq N] [--rob N] [--phys N] [--reps R]\n");
      return 2;
    }
  }
  try {
    cpu::validate_core_config(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const auto prof = workload::spec2006_profile("sjeng");
  workload::TraceGenerator gen(prof);
  std::vector<isa::DynInst> buf(400'000);
  for (isa::DynInst& d : buf) gen.next(d);

  double best_ff = 0.0;
  double best_abs = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double ff = measure_mips(buf, cfg, false);
    const double ab = measure_mips(buf, cfg, true);
    if (ff > best_ff) best_ff = ff;
    if (ab > best_abs) best_abs = ab;
  }
  std::printf("iq %d\n", cfg.iq_entries);
  std::printf("kernel_mips_fault_free %.0f\nkernel_mips_abs %.0f\n", best_ff, best_abs);
  return 0;
}
