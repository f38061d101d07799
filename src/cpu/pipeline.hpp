// Cycle-level 4-wide out-of-order pipeline with timing-fault injection and
// the paper's fault-handling schemes.
//
// Model summary (see DESIGN.md section 5 for the fidelity argument):
//  * Trace-driven: the committed path comes from an InstructionSource; on a
//    branch mispredict, fetch stalls until the branch resolves (wrong-path
//    work is not simulated).
//  * An instruction selected at cycle t broadcasts its result tag at
//    t + exec_latency (back-to-back wakeup for 1-cycle ops) and completes at
//    t + exec_latency + 1.
//  * A timing fault is decided at select time by the FaultModel oracle.  A
//    correctly predicted fault is "handled": under VTE the instruction takes
//    one extra cycle and the resource it occupies is frozen for one cycle;
//    under Error Padding the whole pipeline stalls for one cycle when the
//    instruction transits its faulty stage.  An unpredicted (or
//    mispredicted-stage) fault triggers Razor-style replay.
//
// Storage layer: the scheduler state lives in the data-oriented kernel of
// src/cpu/sched_kernel.hpp (structure-of-arrays issue window with bitmask
// wakeup/select, ring-buffered frontend/refetch queues, a countdown event
// wheel, all carved from one arena) -- see docs/perf.md.  The model itself
// is unchanged; tests/test_golden_equiv.cpp pins bitwise-identical results.
#ifndef VASIM_CPU_PIPELINE_HPP
#define VASIM_CPU_PIPELINE_HPP

#include <array>
#include <optional>
#include <vector>

#include "src/adapt/clock.hpp"
#include "src/common/stats.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/registry.hpp"
#include "src/obs/timeline.hpp"
#include "src/cpu/branch_pred.hpp"
#include "src/cpu/cache.hpp"
#include "src/cpu/config.hpp"
#include "src/cpu/fu_pool.hpp"
#include "src/cpu/hooks.hpp"
#include "src/cpu/observer.hpp"
#include "src/cpu/sched_kernel.hpp"
#include "src/isa/dyninst.hpp"
#include "src/timing/fault_model.hpp"

namespace vasim::cpu {

/// Outcome of a pipeline run.
struct PipelineResult {
  u64 committed = 0;
  Cycle cycles = 0;
  StatSet stats;
  /// Per-cause commit-slot attribution for the measured window; the
  /// invariant cpi.total() == cycles * commit_width always holds.
  obs::CpiStack cpi;

  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(committed) / static_cast<double>(cycles);
  }
};

/// The simulator.  One instance per (workload, scheme, supply) run.
class Pipeline {
 public:
  /// `fault_model` may be null (fault-free); `predictor` may be null (Razor
  /// or fault-free).  Non-owning pointers; must outlive the pipeline.
  Pipeline(const CoreConfig& cfg, const SchemeConfig& scheme, isa::InstructionSource* source,
           const timing::FaultModel* fault_model, FaultPredictor* predictor);

  /// Runs until `max_committed` instructions commit (or the source drains).
  /// `warmup_committed` instructions are executed first with the same
  /// machinery but excluded from the reported statistics -- caches, branch
  /// predictor and TEP reach steady state, mirroring the paper's SimPoint
  /// phase methodology.
  PipelineResult run(u64 max_committed, u64 warmup_committed = 0);

  /// Advances one cycle; false when everything has drained.
  bool step();

  /// Advances up to `max_cycles` cycles, stopping early when the commit
  /// limit is reached or everything drains.  Returns the cycles actually
  /// executed.  Exactly equivalent to calling step() in a loop with the
  /// same commit-limit guard -- the batched lockstep driver uses this to
  /// amortize the per-job call overhead over a slice of cycles.
  u32 step_n(u32 max_cycles);

  /// True when the source is exhausted and every in-flight structure is
  /// empty: step() would return false.
  [[nodiscard]] bool drained() const {
    return source_done_ && window_.empty() && frontend_.empty() && refetch_.empty();
  }

  /// Batch entry point: prefetches the scheduler's hot mask words ahead of
  /// this pipeline's next step() slice (see IssueWindow::prefetch_hot).
  void prefetch_hot_state() const { window_.prefetch_hot(); }

  // ---- external run driving (snapshot capture / warm-start restore) --------
  // run() is a thin composition of these three primitives; an external
  // driver (core::Runner's snapshot paths) uses them directly so it can
  // pause at arbitrary commit counts *without* perturbing the commit
  // quantization run() would have produced.

  /// Pins the total-commit ceiling the commit stage honours during step().
  /// Must match the phase boundary run() would have used (warmup, then
  /// warmup + instructions) for bit-identical continuation.
  void set_commit_limit(u64 limit) { commit_limit_ = limit; }

  /// Assembles the measured-window result exactly as run() does, given the
  /// base observations captured at the warmup boundary.
  [[nodiscard]] PipelineResult result_window(const StatSet& base, u64 base_committed,
                                             Cycle base_cycles) const;

  /// Serializes the complete deterministic machine state: rename/free-list/
  /// ready/producer maps, the SoA issue window (ROB/LSQ occupancy included),
  /// frontend/refetch rings, the event wheel with its global-stall shift,
  /// caches, branch predictor, FU reservations, all cycle-state scalars, the
  /// cold StatSet and every registry counter.  Scratch arrays (due_/re_/
  /// cand_words_) are dead between step() calls and are not serialized.
  void save_state(snap::Writer& w) const;

  /// Restores into a pipeline freshly constructed with the same CoreConfig,
  /// SchemeConfig and wiring.  Throws snap::SnapshotError on any geometry
  /// mismatch; continuation after a successful restore is bit-identical to
  /// the uninterrupted run (tests/test_snap.cpp, golden grid).
  void restore_state(snap::Reader& r);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] u64 committed() const { return committed_; }
  /// Cold-path StatSet only (registry counters live elsewhere); use
  /// snapshot_stats() for the complete picture.
  [[nodiscard]] const StatSet& stats() const { return stats_; }
  [[nodiscard]] StatSet& stats() { return stats_; }
  /// Cumulative run-so-far statistics: the cold StatSet merged with every
  /// registry counter, cache/branch-predictor state and the cycle count.
  [[nodiscard]] StatSet snapshot_stats() const;
  /// The zero-lookup metric registry backing the hot-path counters.
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  /// Cumulative CPI stack (commit-slot attribution) since construction.
  [[nodiscard]] obs::CpiStack cpi_stack() const;

  /// Attaches one more event observer (e.g. a KanataTraceWriter, a
  /// TraceObserver and the semantics checker on the same run); events reach
  /// observers in attach order.  Non-owning; null is ignored.  The pipeline
  /// never reads back from an observer.
  void add_observer(PipelineObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  /// Attaches an interval sampler: `timeline` records one window at the
  /// first cycle boundary at or past each `interval`-commit threshold
  /// (null detaches).  Non-owning; the timeline must have been built over
  /// this pipeline's registry().  Calling again after a state restore
  /// re-arms the next threshold from the restored commit count.
  void set_timeline(obs::Timeline* timeline, u64 interval);
  [[nodiscard]] obs::Timeline* timeline() const { return timeline_; }

  /// Attaches an adaptive clock domain (null detaches).  Non-owning.  The
  /// first attach registers the dvfs counters in registry() -- static runs
  /// never attach one, so their registry geometry, checksums and snapshots
  /// are bit-identical to builds without the subsystem.  The epoch stepper
  /// follows the timeline discipline: one controller step at the first
  /// cycle boundary at or past each epoch-commit threshold; re-attaching
  /// after a state restore re-arms the threshold from the restored commit
  /// count and refreshes the cached period scale.
  void set_clock(adapt::ClockDomain* clock);
  [[nodiscard]] adapt::ClockDomain* clock() const { return clock_; }

  /// Attaches the wall-time self-profiler (null detaches).  Non-owning.
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] obs::Profiler* profiler() const { return profiler_; }

  [[nodiscard]] const MemoryHierarchy& memory() const { return memory_; }
  [[nodiscard]] const BranchPredictor& branch_predictor() const { return bpred_; }
  [[nodiscard]] const FuPool& fu_pool() const { return fus_; }

 private:
  struct FetchedInst {
    isa::DynInst di;
    SeqNum seq = 0;
    Cycle arrive = 0;  ///< cycle the instruction becomes dispatchable
    FaultPrediction pred;
    u64 history = 0;
    bool safe_mode = false;
    bool retire_fault = false;
    bool wrong_path = false;
  };

  struct RefetchInst {
    isa::DynInst di;
    bool safe_mode = false;
  };

  // ---- per-cycle stages --------------------------------------------------
  void process_events();
  void commit_stage();
  void select_stage();
  void dispatch_stage();
  void fetch_stage();

  // ---- helpers ------------------------------------------------------------
  [[nodiscard]] InstState* find(SeqNum seq) { return window_.find(seq); }
  [[nodiscard]] bool operands_ready(const InstState& is) const;
  [[nodiscard]] bool load_may_issue(const InstState& load, bool* forwarded) const;
  /// Returns true when the instruction actually left the queue this cycle.
  bool issue_one(InstState& is, bool fwd);
  /// Why no instruction can retire this cycle (CPI-stack attribution).
  [[nodiscard]] obs::CpiCause classify_empty_window() const;
  [[nodiscard]] obs::CpiCause classify_unretirable_head(const InstState& head);
  /// Queues `cycles` global-stall cycles attributed to `cause` (EP stall or
  /// replay recirculation).
  void push_global_stall(int cycles, obs::CpiCause cause);
  void do_replay(SeqNum seq);
  /// Squashes every instruction younger than `last_kept`; when
  /// `refetch_true_path` is set, squashed true-path work re-enters the
  /// refetch queue (replay recovery); wrong-path work is always discarded.
  void squash_younger(SeqNum last_kept, bool refetch_true_path);
  [[nodiscard]] isa::DynInst synthesize_wrong_path(Pc pc);
  void apply_global_stall();
  void shift_all_times(Cycle delta);
  void schedule(Cycle cycle, EventKind kind, SeqNum seq);
  void broadcast(InstState& is);
  [[nodiscard]] Cycle stage_offset(timing::OooStage stage, Cycle exec_lat) const;
  [[nodiscard]] bool faults_enabled() const;
  void train_predictor(const InstState& is, bool faulty);

  /// Emits one event to every attached observer; one empty check when
  /// nothing is attached.
  template <typename F>
  void fire(F&& f) const {
    for (PipelineObserver* o : observers_) f(*o);
  }

  /// Samples the timeline when the cycle that just ended crossed a K-commit
  /// threshold; one predictable branch per cycle when detached.
  void note_timeline() {
    if (timeline_ != nullptr && committed_ >= timeline_next_) {
      timeline_->sample(now_, committed_);
      timeline_next_ = (committed_ / timeline_interval_ + 1) * timeline_interval_;
    }
  }

  /// Advances the adaptive clock one cycle and steps the DVFS controller at
  /// epoch-commit thresholds (same re-arm discipline as note_timeline, so
  /// every driver -- run, batch, shard, serve -- steps it identically).
  void note_clock() {
    if (clock_ == nullptr) return;
    clock_->tick();
    if (committed_ >= clock_next_) {
      clock_->step_epoch(epoch_sample());
      clock_period_scale_ = clock_->period_scale();
      clock_next_ = (committed_ / clock_interval_ + 1) * clock_interval_;
    }
  }

  /// Cumulative totals for one controller step.
  [[nodiscard]] adapt::EpochSample epoch_sample() const;

  // ---- configuration -------------------------------------------------------
  CoreConfig cfg_;
  SchemeConfig scheme_;
  std::vector<PipelineObserver*> observers_;
  obs::Timeline* timeline_ = nullptr;
  u64 timeline_interval_ = 0;
  u64 timeline_next_ = ~0ULL;  ///< next commit threshold; ~0 when detached
  adapt::ClockDomain* clock_ = nullptr;
  u64 clock_interval_ = 0;
  u64 clock_next_ = ~0ULL;          ///< next epoch-commit threshold
  double clock_period_scale_ = 1.0; ///< cached period for the fault oracle
  obs::Profiler* profiler_ = nullptr;
  isa::InstructionSource* source_;
  const timing::FaultModel* fault_model_;
  std::optional<timing::FaultMemo> fault_memo_;  ///< set iff fault_model_ is
  FaultPredictor* predictor_;

  // ---- metrics --------------------------------------------------------------
  // Declared before the components so memory_/fus_ can register their
  // counters during construction.
  obs::Registry registry_;
  // Hot-path counter handles, registered once in the constructor; each
  // increment is a single pointer bump (no string hashing per event).
  obs::Counter c_broadcast_, c_wakeup_match_, c_ep_stalls_, c_replays_,
      c_squash_, c_dcache_write_, c_committed_faulty_, c_commit_,
      c_inorder_stall_, c_inorder_replay_, c_sel_no_ready_, c_sel_blocked_,
      c_sel_issued_, c_sel_iq_occ_, c_sel_window_, c_sel_frontend_, c_select_,
      c_regread_, c_lsq_search_, c_stl_forward_, c_dcache_read_,
      c_fault_actual_, c_fault_handled_, c_fault_predicted_,
      c_fault_false_pos_, c_fault_false_neg_, c_dispatch_, c_iq_write_,
      c_fetch_, c_wrongpath_fetch_, c_branch_mispredict_, c_stall_cycles_;
  std::array<obs::Counter, timing::kNumOooStages> c_fault_stage_{};
  std::array<obs::Counter, obs::kNumCpiCauses> c_cpi_{};

  // ---- components -----------------------------------------------------------
  MemoryHierarchy memory_;
  BranchPredictor bpred_;
  FuPool fus_;

  // ---- rename state ---------------------------------------------------------
  std::vector<int> rename_map_;   // arch -> phys
  std::vector<int> free_list_;    // stack of free phys regs
  std::vector<u8> phys_ready_;
  std::vector<SeqNum> phys_producer_;  // phys reg -> producing seq (CPI attribution)

  // ---- scheduler kernel -----------------------------------------------------
  // One arena holds every per-run scratch structure: the SoA issue window,
  // the frontend/refetch rings, the event wheel's node pool, and the
  // per-cycle scratch arrays.  After construction the cycle loop never
  // touches the heap (tests/test_sched_kernel.cpp asserts this).
  Arena arena_;
  IssueWindow window_;            ///< ROB / issue window, SoA + bitmasks
  SeqNum next_seq_ = 0;
  Ring<FetchedInst> frontend_;    ///< fetched, not yet dispatched
  Ring<RefetchInst> refetch_;     ///< squashed work awaiting refetch
  // Pending events in a countdown wheel keyed by *stored* cycle: effective
  // due cycle = stored + event_shift_, which makes the global stall shift
  // O(1) for events (only the offset moves).
  EventWheel wheel_;
  Cycle event_shift_ = 0;
  Event* due_ = nullptr;          ///< per-cycle event scratch (arena)
  u32 due_n_ = 0;
  u64* cand_words_ = nullptr;     ///< select-stage candidate mask scratch
  RefetchInst* re_ = nullptr;     ///< squash-path refetch collection scratch
  u32 re_n_ = 0;

  // ---- cycle state ---------------------------------------------------------
  Cycle now_ = 0;
  u64 committed_ = 0;
  u64 commit_limit_ = ~0ULL;  ///< run() pins this for exact instruction counts
  u64 age_counter_ = 0;
  int iq_count_ = 0;
  int lq_count_ = 0;
  int sq_count_ = 0;
  bool source_done_ = false;
  Cycle fetch_stall_until_ = 0;
  std::optional<SeqNum> fetch_blocked_on_;  ///< unresolved mispredicted branch
  bool wrong_path_active_ = false;          ///< fetching down the wrong path
  Pc wrong_path_pc_ = 0;
  int stall_pending_ = 0;            ///< queued global-stall cycles
  int stall_pending_ep_ = 0;         ///< how many of those are EP padding
  Cycle squash_recover_until_ = 0;   ///< replay squash still refilling the ROB
  int slots_frozen_now_ = 0;         ///< issue slots frozen this cycle (VTE)
  int slots_frozen_next_ = 0;
  bool mem_blocked_now_ = false;     ///< LSQ CAM spacing (VTE memory stage)
  bool mem_blocked_next_ = false;
  Cycle last_commit_cycle_ = 0;

  StatSet stats_;
};

/// Named scheme configurations of Section 5.
SchemeConfig scheme_fault_free();
SchemeConfig scheme_razor();
SchemeConfig scheme_error_padding();
SchemeConfig scheme_abs();
SchemeConfig scheme_ffs();
SchemeConfig scheme_cds();

}  // namespace vasim::cpu

#endif  // VASIM_CPU_PIPELINE_HPP
