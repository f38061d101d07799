// The pipeline's event interface, plus the Kanata and Perfetto trace writers
// built on it.
//
// A PipelineObserver sees every instruction's lifecycle (fetch, dispatch,
// issue, completion, commit, squash) and the cycle-level scheduling
// decisions the paper's rules constrain: select-pass visit order and
// outcomes, FU reservations (the FUSR of Section 3.3.3), tag broadcasts with
// their CDL dependent counts (Section 3.5.2), Error-Padding stall and Razor
// replay events, and the per-cycle freeze / LSQ CAM-block state.  It is the
// pipeline's only event interface, and it has no compile-time gate:
// Pipeline::add_observer attaches any number of observers, and with none
// attached each emission site costs one empty check.  The pipeline never
// reads anything back from an observer, so attaching one cannot perturb
// simulation results.
//
// Subscribers: the Kanata writer below (https://github.com/shioyadan/Konata,
// invaluable when debugging slot freezes and replays), the Perfetto
// TraceObserver, the semantics checker (src/check/semantics.hpp) and the
// commit trail behind the golden divergence printer.
#ifndef VASIM_CPU_OBSERVER_HPP
#define VASIM_CPU_OBSERVER_HPP

#include <ostream>
#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/cpu/sched_kernel.hpp"
#include "src/isa/dyninst.hpp"
#include "src/obs/trace.hpp"

namespace vasim::cpu {

/// What happened to one candidate the select stage visited.
enum class SelectOutcome : u8 {
  kIssued,       ///< selected and left the issue queue
  kFuBusy,       ///< structural hazard: no functional unit free (FUSR)
  kLoadBlocked,  ///< load gated by an un-issued older matching store
};

/// Pipeline event sink.  All callbacks default to no-ops so observers
/// override only what they need; every InstState reference is only valid
/// for the duration of the call.  Sequence numbers are re-assigned after a
/// squash.
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  /// Start of a scheduling step (never fired for global-stall cycles) with
  /// the freeze state that constrains this cycle's selection.
  virtual void on_cycle_start(Cycle now, int slots_frozen, bool mem_blocked) {
    (void)now, (void)slots_frozen, (void)mem_blocked;
  }
  /// One global-stall cycle applied (EP padding or replay recirculation).
  /// All pending event/FU reservations shift by one with it.
  virtual void on_global_stall(Cycle now, bool ep_padding) { (void)now, (void)ep_padding; }
  /// Instruction entered the front end (fetch or refetch; wrong-path work
  /// included).
  virtual void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) {
    (void)now, (void)seq, (void)di;
  }
  /// Instruction entered the issue window (rename complete, fault
  /// prediction attached).
  virtual void on_dispatched(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// A selection pass begins: pass 0 visits the policy's preferred class
  /// (FFS predicted-faulty, CDS predicted-faulty-and-critical), pass 1 the
  /// remainder (everything, for plain age order).
  virtual void on_select_pass(Cycle now, int pass) { (void)now, (void)pass; }
  /// The select stage considered one candidate (in scan order).
  virtual void on_select_visit(Cycle now, const InstState& is, SelectOutcome outcome) {
    (void)now, (void)is, (void)outcome;
  }
  /// A functional unit was reserved; `next_free` is the first cycle the
  /// unit accepts again (includes the VTE freeze cycle when applicable).
  virtual void on_fu_allocated(Cycle now, const InstState& is, int unit, Cycle next_free) {
    (void)now, (void)is, (void)unit, (void)next_free;
  }
  /// Issue succeeded; `exec_lat` is the operation latency, `lat_delta` the
  /// extra cycles added by the VTE pad and/or safe-mode re-execution.
  virtual void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) {
    (void)now, (void)is, (void)exec_lat, (void)lat_delta;
  }
  /// A load/store performed its LSQ CAM search this cycle.
  virtual void on_lsq_search(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Result-tag broadcast; `deps` is the CDL count of waiting dependents
  /// woken by this tag.
  virtual void on_tag_broadcast(Cycle now, const InstState& is, int deps) {
    (void)now, (void)is, (void)deps;
  }
  /// CDL criticality feedback sent to the predictor.
  virtual void on_mark_critical(Cycle now, const InstState& is, int deps, bool critical) {
    (void)now, (void)is, (void)deps, (void)critical;
  }
  /// Execution finished (writeback complete, retire-eligible next).
  virtual void on_completed(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// An Error-Padding stall event fired for this instruction's transit.
  virtual void on_ep_stall(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// A Razor replay fired for an unpredicted (or mispredicted-stage) fault.
  virtual void on_replay(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Head-of-ROB retirement (program order).
  virtual void on_committed(Cycle now, const InstState& is) { (void)now, (void)is; }
  /// Sequence numbers [first, last] were squashed and will be recycled.
  virtual void on_squashed(Cycle now, SeqNum first, SeqNum last) {
    (void)now, (void)first, (void)last;
  }
};

/// Writes a Kanata 0004 log.  Stages emitted: F (fetch/front end),
/// Ds (dispatch/queue), Is (issue/execute), Cm (completed, waiting for
/// retire).  Predicted-faulty instructions are annotated.
class KanataTraceWriter final : public PipelineObserver {
 public:
  /// `out` must outlive the writer.  `max_instructions` caps the log size.
  explicit KanataTraceWriter(std::ostream* out, u64 max_instructions = 10'000);

  void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) override;
  void on_dispatched(Cycle now, const InstState& is) override;
  void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) override;
  void on_completed(Cycle now, const InstState& is) override;
  void on_committed(Cycle now, const InstState& is) override;
  void on_squashed(Cycle now, SeqNum first, SeqNum last) override;

  [[nodiscard]] u64 instructions_logged() const { return logged_; }

 private:
  [[nodiscard]] bool tracked(SeqNum seq) const;
  void sync_cycle(Cycle now);

  std::ostream* out_;
  u64 max_instructions_;
  u64 logged_ = 0;
  Cycle emitted_cycle_ = 0;
  bool header_written_ = false;
  u64 retire_id_ = 0;
};

/// Streams per-instruction pipeline events as Chrome-trace-event spans
/// (open the file in https://ui.perfetto.dev or chrome://tracing).  Each
/// tracked instruction gets one viewer row (tid = seq) with spans for its
/// frontend (fetch->dispatch), queue (dispatch->issue), execute
/// (issue->complete) and retire-wait (complete->commit) phases; simulated
/// cycles map 1:1 onto trace microseconds.  Squashed instructions emit an
/// instant "squash" marker and their record resets, so a refetch that
/// re-assigns the SeqNum restarts the row cleanly.
class TraceObserver final : public PipelineObserver {
 public:
  /// `writer` must outlive the observer.  `max_instructions` caps how many
  /// sequence numbers get rows (the stream itself is unbounded).
  explicit TraceObserver(obs::ChromeTraceWriter* writer, u64 max_instructions = 10'000);

  void on_fetched(Cycle now, SeqNum seq, const isa::DynInst& di) override;
  void on_dispatched(Cycle now, const InstState& is) override;
  void on_issued(Cycle now, const InstState& is, Cycle exec_lat, Cycle lat_delta) override;
  void on_completed(Cycle now, const InstState& is) override;
  void on_committed(Cycle now, const InstState& is) override;
  void on_squashed(Cycle now, SeqNum first, SeqNum last) override;

  [[nodiscard]] u64 instructions_traced() const { return traced_; }

 private:
  struct Rec {
    Cycle fetch = 0;
    Cycle dispatch = 0;
    Cycle issue = 0;
    Cycle complete = 0;
    Pc pc = 0;
    isa::OpClass op = isa::OpClass::kIntAlu;
    u8 phase = 0;  ///< 0 idle, 1 fetched, 2 dispatched, 3 issued, 4 completed
    bool pred_fault = false;
  };

  [[nodiscard]] bool tracked(SeqNum seq) const { return seq < max_instructions_; }
  Rec* rec(SeqNum seq);

  obs::ChromeTraceWriter* writer_;
  u64 max_instructions_;
  u64 traced_ = 0;
  std::vector<Rec> recs_;
};

}  // namespace vasim::cpu

#endif  // VASIM_CPU_OBSERVER_HPP
