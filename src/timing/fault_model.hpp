// Dynamic timing-fault oracle combining the per-PC path population, the
// alpha-power voltage scaling and the environmental modulation.
//
// Section 4.3: "Faults are assumed to occur when the 95% confidence interval
// of the stage delay exceeds the cycle time (mu + 2 sigma)."  The path
// factor already encodes mu+2sigma at the nominal supply; a dynamic instance
// at cycle c and supply V violates timing iff
//
//   path_factor(pc) * delay_scale(V) * modulation(c) > 1.0 .
//
// The first two terms are per-PC/per-supply constants (the predictable
// component); the modulation term flips instances near the boundary, which
// is what produces the occasional mispredicted fault handled by replay.
#ifndef VASIM_TIMING_FAULT_MODEL_HPP
#define VASIM_TIMING_FAULT_MODEL_HPP

#include <cstddef>
#include <vector>

#include "src/timing/path_model.hpp"
#include "src/timing/sensors.hpp"
#include "src/timing/stage.hpp"
#include "src/timing/state_delay.hpp"
#include "src/timing/voltage.hpp"

namespace vasim::timing {

/// Outcome of querying the oracle for one dynamic instruction instance.
struct FaultDecision {
  bool faulty = false;        ///< this instance actually violates timing
  bool core_faulty = false;   ///< the deterministic (recurring) component
  OooStage stage = OooStage::kIssueSelect;  ///< where the violation occurs
  double path_factor = 0.0;   ///< mu+2sigma delay / nominal cycle time
};

/// Outcome of an in-order-engine query (Section 2.2).
struct InOrderFaultDecision {
  bool faulty = false;
  InOrderStage stage = InOrderStage::kRename;
};

/// Per-run fault oracle.  One instance per (workload, supply) simulation.
class FaultModel {
 public:
  FaultModel(const PathModelConfig& path_cfg, double vdd,
             const VoltageModel& vm = VoltageModel(),
             const EnvironmentConfig& env_cfg = {});

  /// Decision for the dynamic instance of `pc` evaluated at `cycle`: the
  /// adaptive query at the nominal period with no state factor.
  [[nodiscard]] FaultDecision query(Pc pc, FaultClass cls, Cycle cycle) const {
    return decide(paths_.path_factor(pc), paths_.faulty_stage(pc, cls), 1.0,
                  env_.modulation(cycle), 1.0);
  }

  /// Adaptive-clock query: the violation condition generalizes to
  ///   path_factor * delay_scale * state_factor * modulation > period_scale
  /// where `period_scale` is the current clock period as a fraction of the
  /// nominal period (src/adapt/ DVFS controllers move it) and the optional
  /// state-dependent model (set_state_model) contributes the per-instance
  /// operand-toggle factor.  With period_scale == 1.0 and no state model the
  /// decision is bit-identical to query().
  [[nodiscard]] FaultDecision query_adaptive(Pc pc, FaultClass cls, Cycle cycle,
                                             double period_scale, u64 state_sig) const {
    return decide(paths_.path_factor(pc), paths_.faulty_stage(pc, cls),
                  state_factor(pc, state_sig, cls), env_.modulation(cycle), period_scale);
  }

  /// The one violation comparison every query path shares, from the
  /// per-PC terms (`path_factor`, `stage`) and the per-instance ones:
  ///   (path_factor * delay_scale * state_factor) * modulation > period_scale.
  /// A state factor of exactly 1.0 leaves the product bit-identical.
  [[nodiscard]] FaultDecision decide(double path_factor, OooStage stage, double state_factor,
                                     double modulation, double period_scale) const {
    FaultDecision d;
    d.path_factor = path_factor;
    d.stage = stage;
    const double scaled = path_factor * delay_scale_ * state_factor;
    d.core_faulty = scaled > period_scale;
    d.faulty = scaled * modulation > period_scale;
    return d;
  }

  /// Operand-state delay factor of one instance from the attached state
  /// model; 1.0 when none is attached.
  [[nodiscard]] double state_factor(Pc pc, u64 state_sig, FaultClass cls) const {
    return state_model_ != nullptr ? state_model_->factor(pc, state_sig, cls) : 1.0;
  }

  /// In-order engine faults are far rarer than OoO ones (Section 2.2 /
  /// [17]: fetch and decode see small thermal/voltage fluctuation);
  /// `inorder_scale` is their rate relative to the OoO population.  None at
  /// all when the supply cannot produce faults (enabled()).
  [[nodiscard]] InOrderFaultDecision query_inorder(Pc pc, Cycle cycle,
                                                   double inorder_scale = 0.05) const {
    if (!enabled()) return {};
    return query_inorder_adaptive(pc, cycle, inorder_scale, 1.0);
  }

  /// Adaptive-clock in-order query; unlike query_inorder this does not
  /// short-circuit on enabled(), because an overclocked period can violate
  /// even at the nominal supply.
  [[nodiscard]] InOrderFaultDecision query_inorder_adaptive(Pc pc, Cycle cycle,
                                                            double inorder_scale,
                                                            double period_scale) const;

  /// Attaches (or detaches, with nullptr) the state-dependent delay model
  /// used by the adaptive queries.  Not owned.
  void set_state_model(const StateDelayModel* m) { state_model_ = m; }

  /// True when the configured supply can produce faults at all.
  [[nodiscard]] bool enabled() const { return delay_scale_ > 1.0 / 0.97; }

  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] double delay_scale() const { return delay_scale_; }
  [[nodiscard]] const SensitizedPathModel& paths() const { return paths_; }
  [[nodiscard]] const Environment& environment() const { return env_; }
  [[nodiscard]] const VoltageModel& voltage_model() const { return vm_; }

 private:
  VoltageModel vm_;
  SensitizedPathModel paths_;
  Environment env_;
  double vdd_;
  double delay_scale_;
  const StateDelayModel* state_model_ = nullptr;
};

/// Per-run memo in front of FaultModel::decide for the select-time oracle.
///
/// Caches what is constant per static instruction (Supplement S1): the
/// path factor and the faulty stage of both fault classes, in a
/// direct-mapped table indexed by the instruction index (pc >> 2) and
/// tagged with the full PC, so any PC (generated, trace-file, assembled)
/// stays exact and a collision only costs a refill.  The environment
/// modulation depends only on the cycle and is computed once per cycle.
/// The operand-state factor varies per instance and is never cached.
/// Derived state: never serialized, rebuilt on demand after a restore.
class FaultMemo {
 public:
  /// Table size: the profiles' static footprints are 256-768 blocks of
  /// 4-12 instructions (at most about 10k PCs), so contiguous code does
  /// not collide.
  static constexpr std::size_t kSlots = 16384;

  /// Allocates the whole table once; `fm` must outlive the memo.
  explicit FaultMemo(const FaultModel& fm);

  /// Bit-identical to fm.query_adaptive / fm.query for the same inputs
  /// (`state_factor` as FaultModel::state_factor returns it, 1.0 for the
  /// static query).
  [[nodiscard]] FaultDecision query(Pc pc, FaultClass cls, Cycle cycle, double state_factor,
                                    double period_scale) {
    const Entry& e = lookup(pc);
    if (cycle != mod_cycle_) {
      mod_cycle_ = cycle;
      mod_ = fm_->environment().modulation(cycle);
    }
    return fm_->decide(e.path_factor, e.stage[static_cast<std::size_t>(cls)], state_factor,
                       mod_, period_scale);
  }

 private:
  struct Entry {
    Pc pc;
    double path_factor;
    OooStage stage[2];  ///< indexed by FaultClass
  };

  static std::size_t slot(Pc pc) { return static_cast<std::size_t>(pc >> 2) & (kSlots - 1); }

  const Entry& lookup(Pc pc) {
    Entry& e = table_[slot(pc)];
    if (e.pc != pc) fill(e, pc);
    return e;
  }
  void fill(Entry& e, Pc pc) const;

  const FaultModel* fm_;
  std::vector<Entry> table_;
  Cycle mod_cycle_ = 0;  ///< cycle of the cached modulation
  double mod_;
};

}  // namespace vasim::timing

#endif  // VASIM_TIMING_FAULT_MODEL_HPP
