#include "src/timing/fault_model.hpp"

namespace vasim::timing {

FaultModel::FaultModel(const PathModelConfig& path_cfg, double vdd, const VoltageModel& vm,
                       const EnvironmentConfig& env_cfg)
    : vm_(vm), paths_(path_cfg, vm), env_(env_cfg), vdd_(vdd),
      delay_scale_(vm.delay_scale(vdd)) {}

InOrderFaultDecision FaultModel::query_inorder_adaptive(Pc pc, Cycle cycle,
                                                        double inorder_scale,
                                                        double period_scale) const {
  InOrderFaultDecision d;
  if (inorder_scale <= 0.0) return d;
  // Reuse the OoO per-PC population, thinned to the in-order rate: only PCs
  // in the faulty band whose secondary draw clears the scale fault here.
  const double pf = paths_.path_factor(hash_mix(pc ^ 0x1a0cdeULL));
  if (!decide(pf, OooStage{}, 1.0, env_.modulation(cycle), period_scale).faulty) return d;
  const u64 h = hash_combine(hash_combine(paths_.config().seed, 0x10de7ULL), pc);
  if (hash_to_unit(h) >= inorder_scale) return d;
  d.faulty = true;
  // Rename/dispatch/retire dominate; fetch/decode stay rare ([17]).
  const double u = hash_to_unit(hash_mix(h ^ 0x5151ULL));
  if (u < 0.35) {
    d.stage = InOrderStage::kRename;
  } else if (u < 0.70) {
    d.stage = InOrderStage::kDispatch;
  } else if (u < 0.90) {
    d.stage = InOrderStage::kRetire;
  } else if (u < 0.95) {
    d.stage = InOrderStage::kFetch;
  } else {
    d.stage = InOrderStage::kDecode;
  }
  return d;
}

FaultMemo::FaultMemo(const FaultModel& fm)
    : fm_(&fm), table_(kSlots), mod_(fm.environment().modulation(0)) {
  // An empty slot holds a tag that indexes the next slot, so it can never
  // match a PC that maps here.
  for (std::size_t i = 0; i < kSlots; ++i) table_[i].pc = static_cast<Pc>(i + 1) << 2;
}

void FaultMemo::fill(Entry& e, Pc pc) const {
  const SensitizedPathModel& paths = fm_->paths();
  e.pc = pc;
  e.path_factor = paths.path_factor(pc);
  e.stage[static_cast<std::size_t>(FaultClass::kAluLike)] =
      paths.faulty_stage(pc, FaultClass::kAluLike);
  e.stage[static_cast<std::size_t>(FaultClass::kMemLike)] =
      paths.faulty_stage(pc, FaultClass::kMemLike);
}

}  // namespace vasim::timing
