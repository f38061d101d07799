// Runtime checker for the paper's cycle-level scheduling semantics.
//
// SemanticsChecker attaches to a Pipeline as one more PipelineObserver (the
// pipeline's single event interface) and maintains its own shadow model of
// the issue window, register-ready state, FU reservation table (FUSR) and
// LSQ gating flags.  Every event is validated against the shadow model, turning
// the paper's prose rules into machine-checked per-cycle invariants:
//
//   delayed-broadcast   VTE pads a predicted-faulty instruction by exactly
//                       one cycle: its tag broadcast arrives at
//                       issue + exec_lat + 1 (Sections 3.2-3.3).
//   completion-time     completion always trails the broadcast by one cycle.
//   slot-freeze         a writeback-stage predicted fault freezes exactly
//                       one global issue slot the following scheduling
//                       cycle, and no cycle issues more than
//                       issue_width - frozen instructions (Section 3.3.5).
//   fusr-occupancy      no instruction is allocated to a busy functional
//                       unit; unpipelined (divide) ops occupy the unit for
//                       their full latency; the VTE freeze adds exactly one
//                       cycle (Section 3.3.3).
//   select-order        each selection pass visits ready candidates oldest
//                       first (seq order == 6-bit ABS timestamp order mod
//                       64); ABS never picks a younger ready instruction
//                       over an older one it skipped (Section 3.5.1).
//   select-candidate    everything the select stage touches is actually
//                       eligible: dispatched on an earlier cycle, operands
//                       ready, not already issued, in the right policy
//                       class for the pass (FFS/CDS preferred class first).
//   cdl-count           a broadcast's reported dependent count equals the
//                       shadow count of waiting consumers of that tag.
//   cds-threshold       criticality feedback fires iff the dependent count
//                       reaches CT (= 8 in the paper, Section 3.5.2).
//   lsq-spacing         no load/store CAM search happens in the blocked
//                       cycle behind a predicted-faulty memory-stage
//                       instruction (Section 3.3.4).
//   stl-order           a load never issues past an older un-issued
//                       matching store (idealized disambiguation).
//   ep-padding          under Error Padding every predicted-faulty
//                       instruction pays exactly one global stall cycle at
//                       its predicted stage's offset, and every EP-flagged
//                       stall cycle is backed by such an event.
//   razor-replay        an unpredicted (or stage-mispredicted) actual fault
//                       always replays before commit; a covered VTE/EP
//                       fault never replays (Section 2.1.2).
//   commit-order        commits are program order, one seq exactly once,
//                       completed instructions only, never wrong-path, at
//                       most commit_width per cycle.
//   dispatch-order      dispatch consumes seq numbers contiguously
//                       (squashes rewind them exactly once).
//
// The checker is read-only: the pipeline never reads anything back, so an
// attached checker cannot change simulation results (the golden fixture
// pins this).  Violations are collected, not thrown, so a run reports every
// broken rule; ExperimentRunner turns them into a test failure.
#ifndef VASIM_CHECK_SEMANTICS_HPP
#define VASIM_CHECK_SEMANTICS_HPP

#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/config.hpp"
#include "src/cpu/hooks.hpp"
#include "src/cpu/observer.hpp"
#include "src/snap/io.hpp"

namespace vasim::cpu {
class Pipeline;
}

namespace vasim::check {

/// One detected rule violation.
struct Violation {
  std::string invariant;  ///< stable key, e.g. "delayed-broadcast"
  std::string detail;
  Cycle cycle = 0;
};

/// Per-invariant firing statistics (for report()).
struct InvariantCount {
  std::string invariant;
  u64 violations = 0;
};

class SemanticsChecker final : public cpu::PipelineObserver {
 public:
  SemanticsChecker(const cpu::CoreConfig& cfg, const cpu::SchemeConfig& scheme);

  /// Attaches to the pipeline's event stream (Pipeline::add_observer).
  void attach(cpu::Pipeline& pipe);

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] u64 violation_count() const { return total_violations_; }
  /// First kMaxRecorded violations in detection order.
  [[nodiscard]] const std::vector<Violation>& violations() const { return violations_; }
  /// Number of individual invariant evaluations performed (a sanity signal
  /// that the checker actually saw events).
  [[nodiscard]] u64 checks() const { return checks_; }
  [[nodiscard]] u64 cycles_observed() const { return cycles_observed_; }
  [[nodiscard]] u64 commits_observed() const { return commits_observed_; }
  /// Human-readable summary: per-invariant violation counts plus the first
  /// recorded details.  Empty string when ok().
  [[nodiscard]] std::string report() const;

  /// Serializes the full shadow model (records, register/FU shadows, time
  /// base, program-order trackers, tally counters) so a restored run's
  /// checker continues with a bit-identical checks() count.  Only an ok()
  /// checker may be saved: violations are not serialized.
  void save_state(snap::Writer& w) const;
  /// Restores into a checker constructed with the same configs and already
  /// attached to the restored pipeline.
  void restore_state(snap::Reader& r);

  // ---- PipelineObserver ------------------------------------------------------
  void on_cycle_start(Cycle now, int slots_frozen, bool mem_blocked) override;
  void on_global_stall(Cycle now, bool ep_padding) override;
  void on_dispatched(Cycle now, const cpu::InstState& is) override;
  void on_select_pass(Cycle now, int pass) override;
  void on_select_visit(Cycle now, const cpu::InstState& is, cpu::SelectOutcome outcome) override;
  void on_fu_allocated(Cycle now, const cpu::InstState& is, int unit, Cycle next_free) override;
  void on_issued(Cycle now, const cpu::InstState& is, Cycle exec_lat, Cycle lat_delta) override;
  void on_lsq_search(Cycle now, const cpu::InstState& is) override;
  void on_tag_broadcast(Cycle now, const cpu::InstState& is, int deps) override;
  void on_mark_critical(Cycle now, const cpu::InstState& is, int deps, bool critical) override;
  void on_completed(Cycle now, const cpu::InstState& is) override;
  void on_ep_stall(Cycle now, const cpu::InstState& is) override;
  void on_replay(Cycle now, const cpu::InstState& is) override;
  void on_committed(Cycle now, const cpu::InstState& is) override;
  void on_squashed(Cycle now, SeqNum first, SeqNum last) override;

 private:
  static constexpr std::size_t kMaxRecorded = 32;

  /// Shadow record for one in-flight instruction (dispatch..commit/squash).
  struct Rec {
    SeqNum seq = 0;
    bool valid = false;
    u64 age = 0;
    isa::OpClass op = isa::OpClass::kIntAlu;
    u64 line_addr = 0;
    Pc pc = 0;
    int dst = kNoReg;
    int src1 = kNoReg;
    int src2 = kNoReg;
    bool wait1 = false;  ///< src1 outstanding at dispatch, not yet woken
    bool wait2 = false;
    u8 pending = 0;
    Cycle dispatch_cycle = 0;
    bool issued = false;
    bool completed = false;
    bool pred_fault = false;
    bool pred_critical = false;
    timing::OooStage pred_stage = timing::OooStage::kIssueSelect;
    bool actual_fault = false;
    timing::OooStage actual_stage = timing::OooStage::kIssueSelect;
    bool safe_mode = false;
    bool wrong_path = false;
    bool covered = false;         ///< fault predicted well enough to avoid replay
    bool replay_expected = false;
    bool replay_seen = false;
    // Expected event times in *stored* cycles (absolute minus the global
    // stall shift, mirroring the pipeline's event wheel keys so the +1
    // rules stay exact across stalls).
    Cycle bcast_due = 0;
    bool bcast_pending = false;
    Cycle complete_due = 0;
    bool complete_pending = false;
    Cycle ep_due = 0;
    bool ep_pending = false;
  };

  [[nodiscard]] Cycle stored(Cycle now) const { return now - shift_; }
  [[nodiscard]] Rec* rec_of(SeqNum seq);
  [[nodiscard]] const Rec* oldest_rec() const;
  void fail(const char* invariant, Cycle now, std::string detail);
  void check(bool cond, const char* invariant, Cycle now, const char* what, SeqNum seq);
  /// Mirror of Pipeline::stage_offset (EP padding point).
  [[nodiscard]] Cycle ep_offset(timing::OooStage stage, Cycle exec_lat) const;
  /// Shadow wake: returns the CDL count and clears matching wait flags.
  int shadow_wake(int dst_phys);
  /// Shadow mirror of IssueWindow::load_may_issue.
  [[nodiscard]] bool shadow_load_may_issue(const Rec& load) const;

  cpu::CoreConfig cfg_;
  cpu::SchemeConfig scheme_;

  std::vector<Rec> recs_;
  u32 rec_mask_ = 0;
  std::vector<u8> phys_ready_;

  // Time base.
  Cycle shift_ = 0;             ///< mirror of the pipeline's event_shift_
  Cycle last_cycle_start_ = 0;
  bool saw_cycle_start_ = false;
  u64 cycles_observed_ = 0;
  u64 stall_cycles_ = 0;

  // Per-cycle state.
  int frozen_reported_ = 0;
  bool mem_blocked_reported_ = false;
  int expected_frozen_next_ = 0;
  bool expected_mem_blocked_next_ = false;
  int issues_this_cycle_ = 0;
  int commits_this_cycle_ = 0;

  // Selection-pass state.
  int cur_pass_ = 1;
  bool visit_seen_ = false;
  SeqNum last_visit_seq_ = 0;
  u8 last_visit_dist_ = 0;

  // FU shadow (absolute next-free cycles; shifted on global stalls like the
  // real pool).
  std::vector<Cycle> fu_free_;
  bool fu_alloc_pending_ = false;
  SeqNum fu_alloc_seq_ = 0;
  int fu_alloc_unit_ = -1;
  Cycle fu_alloc_next_free_ = 0;

  // Program-order tracking.
  SeqNum next_commit_seq_ = 0;
  SeqNum next_dispatch_seq_ = 0;
  SeqNum max_dispatched_seq_ = 0;
  bool any_dispatched_ = false;

  // EP stall accounting.
  u64 ep_stalls_owed_ = 0;

  u64 commits_observed_ = 0;

  u64 checks_ = 0;
  u64 total_violations_ = 0;
  std::vector<Violation> violations_;
  std::vector<InvariantCount> by_invariant_;
};

}  // namespace vasim::check

#endif  // VASIM_CHECK_SEMANTICS_HPP
