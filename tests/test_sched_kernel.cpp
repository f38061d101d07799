// Unit tests for the data-oriented scheduler kernel (sched_kernel.hpp):
// arena/ring bounds, event-wheel schedule/pop/squash semantics, the
// issue window's bitmask select order across slot wraparound, the ABS
// 6-bit timestamp wrap, and the zero-steady-state-allocation guarantee of
// the whole pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/check/semantics.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/cpu/sched_kernel.hpp"
#include "src/isa/program.hpp"
#include "src/obs/cpi.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every heap allocation in this binary; the steady-state test asserts
// the pipeline's cycle loop performs none.

namespace {
std::atomic<vasim::u64> g_allocs{0};
}  // namespace

// The replaced operators pair malloc with free; GCC cannot see that the
// replacement is global and warns at inlined call sites.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace vasim;
using cpu::Arena;
using cpu::Event;
using cpu::EventKind;
using cpu::EventWheel;
using cpu::InstState;
using cpu::IssueWindow;
using cpu::Ring;

// ---- arena ------------------------------------------------------------------

TEST(SchedArena, CarvesAlignedArraysAndThrowsOnOverrun) {
  Arena a;
  a.reserve(Arena::need<u64>(4) + Arena::need<u8>(3));
  u8* bytes = a.alloc<u8>(3);
  u64* words = a.alloc<u64>(4);
  ASSERT_NE(bytes, nullptr);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(words) % alignof(u64), 0u);
  words[3] = 42;  // in-bounds write
  EXPECT_THROW((void)a.alloc<u64>(1), std::logic_error);
}

// ---- ring -------------------------------------------------------------------

TEST(SchedRing, WrapsBothEndsAndEnforcesCapacity) {
  Arena a;
  a.reserve(Arena::need<int>(4));
  Ring<int> r;
  r.init(a.alloc<int>(4), 4);
  ASSERT_TRUE(r.empty());
  r.push_back(1);
  r.push_back(2);
  r.push_front(0);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 2);
  EXPECT_EQ(r.at(1), 1);
  r.pop_front();
  r.push_back(3);
  r.push_back(4);  // head has moved; storage wraps; ring is now full
  EXPECT_EQ(r.front(), 1);
  EXPECT_EQ(r.back(), 4);
  EXPECT_THROW(r.push_back(5), std::logic_error);
  r.pop_back();
  EXPECT_EQ(r.back(), 3);
}

// ---- event wheel ------------------------------------------------------------

struct WheelFixture {
  Arena a;
  EventWheel w;
  explicit WheelFixture(u32 buckets = 64, u32 pool = 32) {
    a.reserve(EventWheel::bytes_needed(buckets, pool));
    w.init(a, buckets, pool);
  }
};

TEST(SchedEventWheel, PopsExactlyTheDueBucket) {
  WheelFixture f;
  f.w.schedule(0, EventKind::kBroadcast, 1);
  f.w.schedule(2, EventKind::kComplete, 2);
  f.w.schedule(2, EventKind::kReplay, 3);
  Event out[8];
  ASSERT_EQ(f.w.pop_due(0, out), 1u);
  EXPECT_EQ(out[0].seq, 1u);
  ASSERT_EQ(f.w.pop_due(1, out), 0u);
  ASSERT_EQ(f.w.pop_due(2, out), 2u);  // both cycle-2 events, any order
  EXPECT_EQ(out[0].seq + out[1].seq, 5u);
}

TEST(SchedEventWheel, PastDueScheduleSnapsToNextPop) {
  WheelFixture f;
  Event out[8];
  ASSERT_EQ(f.w.pop_due(0, out), 0u);
  // Error Padding schedules at stage offset 0, i.e. for the cycle whose
  // bucket was already drained; it must land in the next pop.
  f.w.schedule(0, EventKind::kEpStall, 7);
  ASSERT_EQ(f.w.pop_due(1, out), 1u);
  EXPECT_EQ(out[0].kind, EventKind::kEpStall);
  EXPECT_EQ(out[0].seq, 7u);
}

TEST(SchedEventWheel, RejectsBeyondHorizonAndRecyclesPool) {
  WheelFixture f(/*buckets=*/64, /*pool=*/8);
  EXPECT_THROW(f.w.schedule(64, EventKind::kComplete, 1), std::logic_error);
  // Pool nodes recycle: far more schedules than pool capacity, never more
  // than `pool` outstanding.
  Event out[8];
  for (Cycle c = 0; c < 1000; ++c) {
    f.w.schedule(c, EventKind::kBroadcast, static_cast<SeqNum>(c));
    ASSERT_EQ(f.w.pop_due(c, out), 1u);
    EXPECT_EQ(out[0].seq, static_cast<SeqNum>(c));
  }
}

TEST(SchedEventWheel, SquashDuringGlobalStallKeepsStoredTimeBase) {
  // The pipeline keys the wheel by *stored* cycles (absolute minus the
  // accumulated global-stall shift), so a stall freezes stored time while
  // absolute time advances.  A squash landing mid-stall must drop exactly
  // the squashed seqs and leave the survivors poppable at their unchanged
  // stored cycles once the stall drains.
  WheelFixture f;
  f.w.schedule(2, EventKind::kBroadcast, 5);
  f.w.schedule(2, EventKind::kComplete, 12);
  f.w.schedule(4, EventKind::kReplay, 20);
  Event out[8];
  ASSERT_EQ(f.w.pop_due(0, out), 0u);
  ASSERT_EQ(f.w.pop_due(1, out), 0u);
  // Global stall: the pipeline stops popping (stored time holds at 2) and a
  // replay-triggered squash cuts everything younger than seq 10.
  f.w.filter_squashed(/*last_kept=*/10);
  // Refetch reuses the squashed seq numbers; the recycled seq 12 schedules a
  // fresh event at a later stored cycle and must not collide with the stale
  // one that was just dropped.
  f.w.schedule(3, EventKind::kBroadcast, 12);
  ASSERT_EQ(f.w.pop_due(2, out), 1u);  // only the survivor remains at stored 2
  EXPECT_EQ(out[0].seq, 5u);
  EXPECT_EQ(out[0].kind, EventKind::kBroadcast);
  ASSERT_EQ(f.w.pop_due(3, out), 1u);  // the recycled seq's fresh event
  EXPECT_EQ(out[0].seq, 12u);
  ASSERT_EQ(f.w.pop_due(4, out), 0u);  // squashed seq 20 never reappears
}

TEST(SchedEventWheel, ClearEventsEmptiesWheelAndRecyclesWholePool) {
  WheelFixture f(/*buckets=*/64, /*pool=*/8);
  for (u32 i = 0; i < 8; ++i) {
    f.w.schedule(1 + (i % 4), EventKind::kBroadcast, i);
  }
  // The pool is exhausted: one more pending event cannot be represented.
  EXPECT_THROW(f.w.schedule(5, EventKind::kComplete, 99), std::logic_error);
  f.w.clear_events();
  // Nothing survives the full squash...
  Event out[8];
  for (Cycle c = 0; c < 8; ++c) {
    EXPECT_EQ(f.w.pop_due(c, out), 0u) << "stale event at stored cycle " << c;
  }
  // ...and every pool node is free again: a full pool's worth of fresh
  // events schedules without throwing and pops at the right cycles.
  for (u32 i = 0; i < 8; ++i) {
    f.w.schedule(10 + i, EventKind::kComplete, 100 + i);
  }
  for (u32 i = 0; i < 8; ++i) {
    ASSERT_EQ(f.w.pop_due(10 + i, out), 1u);
    EXPECT_EQ(out[0].seq, 100u + i);
  }
  // The time base persisted across the clear: a past-due schedule still
  // snaps to the next pop instead of vanishing into a drained bucket.
  f.w.schedule(0, EventKind::kEpStall, 7);
  ASSERT_EQ(f.w.pop_due(18, out), 1u);
  EXPECT_EQ(out[0].kind, EventKind::kEpStall);
}

TEST(SchedEventWheel, FilterSquashedDropsRecycledSeqsOnly) {
  WheelFixture f;
  f.w.schedule(1, EventKind::kBroadcast, 5);
  f.w.schedule(1, EventKind::kComplete, 12);
  f.w.schedule(3, EventKind::kComplete, 3);   // bucket max_seq below cut: skipped
  f.w.schedule(5, EventKind::kReplay, 20);    // entire bucket squashed
  f.w.filter_squashed(/*last_kept=*/10);
  Event out[8];
  ASSERT_EQ(f.w.pop_due(0, out), 0u);
  ASSERT_EQ(f.w.pop_due(1, out), 1u);  // seq 12 dropped, seq 5 survives
  EXPECT_EQ(out[0].seq, 5u);
  ASSERT_EQ(f.w.pop_due(2, out), 0u);
  ASSERT_EQ(f.w.pop_due(3, out), 1u);
  EXPECT_EQ(out[0].seq, 3u);
  ASSERT_EQ(f.w.pop_due(4, out), 0u);
  ASSERT_EQ(f.w.pop_due(5, out), 0u);  // fully squashed bucket is empty
}

// ---- issue window -----------------------------------------------------------

InstState make_inst(SeqNum seq, u64 age, isa::OpClass op = isa::OpClass::kIntAlu,
                    bool pred_fault = false, bool pred_critical = false) {
  InstState is;
  is.di.seq = seq;
  is.di.op = op;
  is.age = age;
  is.in_iq = true;
  is.pred_fault = pred_fault;
  is.pred_critical = pred_critical;
  return is;
}

constexpr u32 kTestPhys = 64;  // physical-register count for waiter masks

struct WindowFixture {
  Arena a;
  IssueWindow w;
  explicit WindowFixture(u32 cap = 64) {
    a.reserve(IssueWindow::bytes_needed(cap, kTestPhys));
    w.init(a, cap, kTestPhys);
  }
};

TEST(SchedIssueWindow, SelectOrderIsSeqOrderAcrossSlotWrap) {
  WindowFixture f(64);
  // Seqs 100..163 wrap the 64-slot ring (slot = seq & 63 starts at 36).
  for (SeqNum s = 100; s < 164; ++s) f.w.push_back(make_inst(s, s), false, false);
  ASSERT_EQ(f.w.size(), 64u);
  std::vector<u64> cand(f.w.mask_words());
  ASSERT_TRUE(f.w.collect_candidates(false, cand.data()));
  std::vector<SeqNum> visited;
  f.w.for_each_in_order(cand.data(), nullptr, false, [&](u32 slot) {
    visited.push_back(f.w.slot_state(slot).di.seq);
    return true;
  });
  ASSERT_EQ(visited.size(), 64u);
  for (std::size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], 100u + i);
}

TEST(SchedIssueWindow, FilteredPassesSplitPolicyClassesInAgeOrder) {
  WindowFixture f(64);
  // FFS-style: predicted-faulty first, then the rest, each oldest-first.
  for (SeqNum s = 0; s < 8; ++s) {
    f.w.push_back(make_inst(s, s, isa::OpClass::kIntAlu, /*pred_fault=*/(s % 3) == 1),
                  false, false);
  }
  std::vector<u64> cand(f.w.mask_words());
  ASSERT_TRUE(f.w.collect_candidates(false, cand.data()));
  std::vector<SeqNum> order;
  const auto visit = [&](u32 slot) {
    order.push_back(f.w.slot_state(slot).di.seq);
    return true;
  };
  f.w.for_each_in_order(cand.data(), f.w.predf_mask(), false, visit);
  f.w.for_each_in_order(cand.data(), f.w.predf_mask(), true, visit);
  const std::vector<SeqNum> expect = {1, 4, 7, 0, 2, 3, 5, 6};
  EXPECT_EQ(order, expect);
}

TEST(SchedIssueWindow, WakeCountsOnlyMatchingWaiters) {
  WindowFixture f(64);
  InstState a = make_inst(0, 0);
  a.phys_src1 = 40;
  InstState b = make_inst(1, 1);
  b.phys_src1 = 40;
  b.phys_src2 = 40;  // both sources on the same tag: one dep, pending 2 -> 0
  InstState c = make_inst(2, 2);
  c.phys_src1 = 41;
  f.w.push_back(a, true, false);
  f.w.push_back(b, true, true);
  f.w.push_back(c, true, false);
  EXPECT_EQ(f.w.wake(40), 2);
  std::vector<u64> cand(f.w.mask_words());
  ASSERT_TRUE(f.w.collect_candidates(false, cand.data()));
  EXPECT_EQ(cand[0], 0b011u);  // a and b ready; c still waits on 41
  EXPECT_EQ(f.w.wake(41), 1);
  f.w.collect_candidates(false, cand.data());
  EXPECT_EQ(cand[0], 0b111u);
}

TEST(SchedIssueWindow, StoreToLoadGateYoungestStoreDecides) {
  WindowFixture f(64);
  InstState st1 = make_inst(0, 0, isa::OpClass::kStore);
  st1.di.mem_addr = 0x1000;
  InstState st2 = make_inst(1, 1, isa::OpClass::kStore);
  st2.di.mem_addr = 0x1000;
  f.w.push_back(st1, false, false);
  f.w.push_back(st2, false, false);
  f.w.push_back(make_inst(2, 2, isa::OpClass::kLoad), false, false);
  bool fwd = false;
  // Youngest matching store (seq 1) has not issued: the load is blocked.
  EXPECT_FALSE(f.w.load_may_issue(2, 0x1000, &fwd));
  EXPECT_FALSE(fwd);
  // Once it issues the load forwards from it -- even though the older store
  // (seq 0) never issued.
  f.w.slot_state(f.w.slot_of(1)).issued = true;
  f.w.on_issued(1);
  EXPECT_TRUE(f.w.load_may_issue(2, 0x1000, &fwd));
  EXPECT_TRUE(fwd);
  // A different line never matches.
  EXPECT_TRUE(f.w.load_may_issue(2, 0x2000, &fwd));
  EXPECT_FALSE(fwd);
}

// ---- ABS 6-bit timestamp wraparound -----------------------------------------

TEST(SchedAbsTimestamp, WrappedDistanceRecoversOldestFirstOrder) {
  // The hardware ABS key is a mod-64 dispatch timestamp.  Push a window
  // whose ages cross the 6-bit wrap (ages 40..103: timestamps 40..63 then
  // 0..39) and check the wrapped distance from the head's timestamp is
  // strictly increasing in true age -- i.e. oldest-first selection (ABS, and
  // the age tie-break inside each CDS class) survives the wrap.
  WindowFixture f(64);
  for (SeqNum s = 0; s < 64; ++s) {
    f.w.push_back(make_inst(s, /*age=*/40 + s, isa::OpClass::kIntAlu,
                            /*pred_fault=*/(s & 1) != 0, /*pred_critical=*/(s & 3) == 1),
                  false, false);
  }
  const u8 head_ts = f.w.abs_timestamp(f.w.slot_of(f.w.head_seq()));
  EXPECT_EQ(head_ts, 40u);
  u8 prev = 0;
  for (SeqNum s = 0; s < 64; ++s) {
    const u8 ts = f.w.abs_timestamp(f.w.slot_of(s));
    EXPECT_EQ(ts, (40 + s) & 63) << "s=" << s;
    const u8 d = IssueWindow::abs_distance(ts, head_ts);
    EXPECT_EQ(d, static_cast<u8>(s)) << "s=" << s;
    if (s > 0) {
      EXPECT_GT(d, prev) << "wrap broke oldest-first order at s=" << s;
    }
    prev = d;
  }
  // The CDS preferred class (predicted-faulty and critical) also visits
  // oldest-first across the wrap.
  std::vector<u64> cand(f.w.mask_words());
  ASSERT_TRUE(f.w.collect_candidates(false, cand.data()));
  u64 prev_age = 0;
  bool first = true;
  f.w.for_each_in_order(cand.data(), f.w.crit_mask(), false, [&](u32 slot) {
    const InstState& is = f.w.slot_state(slot);
    EXPECT_TRUE(is.pred_fault && is.pred_critical);
    if (!first) {
      EXPECT_GT(is.age, prev_age);
    }
    prev_age = is.age;
    first = false;
    return true;
  });
  EXPECT_FALSE(first) << "no critical candidates visited";
}

// ---- zero steady-state allocations ------------------------------------------

/// Deterministic synthetic workload that never touches the heap in next():
/// a mix of ALU, loads, stores, mul/div and a loop branch.
class FlatSource final : public isa::InstructionSource {
 public:
  /// A non-zero `alias_stride` moves each pass over the 97-instruction
  /// loop to a fresh copy `alias_stride` bytes past the previous one, so
  /// static PCs never repeat.
  explicit FlatSource(Pc alias_stride = 0) : alias_stride_(alias_stride) {}

  bool next(isa::DynInst& out) override {
    const u64 i = n_++;
    out = isa::DynInst{};
    out.pc = 0x1000 + (i % 97) * isa::kInstrBytes + (i / 97) * alias_stride_;
    out.next_pc = out.pc + isa::kInstrBytes;
    out.src1 = 1 + static_cast<int>(i % 7);
    out.dst = 1 + static_cast<int>((i * 5) % 11);
    switch (i % 11) {
      case 0:
        out.op = isa::OpClass::kLoad;
        out.mem_addr = 0x2000 + (i % 512) * 8;
        break;
      case 3:
        out.op = isa::OpClass::kStore;
        out.mem_addr = 0x2000 + ((i + 4) % 512) * 8;
        break;
      case 5:
        out.op = isa::OpClass::kIntMul;
        break;
      case 7:
        out.op = isa::OpClass::kBranch;
        out.dst = kNoReg;
        out.taken = (i % 3) == 0;
        out.next_pc = out.taken ? 0x1000 : out.next_pc;
        break;
      case 9:
        out.op = isa::OpClass::kIntDiv;
        break;
      default:
        out.op = isa::OpClass::kIntAlu;
        out.src2 = 1 + static_cast<int>((i * 3) % 7);
        break;
    }
    return true;
  }
  [[nodiscard]] std::string name() const override { return "flat"; }

 private:
  Pc alias_stride_;
  u64 n_ = 0;
};

// ---- ABS wrap under continuous slot freezing --------------------------------

/// Predicts a writeback-stage fault for every instruction: under a VTE
/// scheme each issue pads its broadcast and freezes one issue slot the next
/// cycle -- the densest slot-freeze pattern the model can produce.
class AlwaysWritebackPredictor final : public cpu::FaultPredictor {
 public:
  cpu::FaultPrediction predict(Pc, u64, Cycle) override {
    return {/*predicted=*/true, timing::OooStage::kWriteback, /*critical=*/false};
  }
  void train(Pc, u64, bool, timing::OooStage) override {}
  void mark_critical(Pc, u64, bool) override {}
};

TEST(SchedAbsTimestamp, WrapUnderContinuousSlotFreezingStaysSound) {
  // A 128-entry window drained at one issue per cycle (half of them lost to
  // freezes) backs up far past 64 in-flight ages, so the ABS 6-bit
  // timestamps wrap continuously *while* slots are frozen.  The semantics
  // checker validates every select pass, freeze rotation and pad against
  // the shadow model for the whole run.
  FlatSource src;
  cpu::CoreConfig cfg;
  cfg.rob_entries = 128;
  cfg.iq_entries = 128;
  cfg.issue_width = 1;
  AlwaysWritebackPredictor pred;
  const cpu::SchemeConfig scheme = cpu::scheme_abs();
  // Predictions are only consulted when faults are enabled at all, so run
  // at the high-fault supply point; the mispredicted stages (any actual
  // fault not at writeback) exercise the replay path under freezing too.
  const timing::PathModelConfig pcfg{7, 0.10, 0.03};
  const timing::FaultModel fm(pcfg, timing::SupplyPoints::kHighFault);
  cpu::Pipeline p(cfg, scheme, &src, &fm, &pred);
  check::SemanticsChecker checker(cfg, scheme);
  checker.attach(p);
  const cpu::PipelineResult r = p.run(3'000, 1'000);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(r.committed, 3'000u);
  // The freeze pattern actually bit: a large share of issue slots was lost
  // to frozen slots, and the run is far slower than unconstrained issue.
  EXPECT_GT(r.cpi.slots[static_cast<std::size_t>(obs::CpiCause::kSlotFreeze)], 1'000u);
  EXPECT_GT(r.cycles, r.committed);
}

// ---- ABS wrap and wheel squash-skip across issue-queue sizes -----------------
// At 64, 256 and 512 entries the in-flight window is 1x, 4x and 8x the
// 64-value timestamp space; the 6-bit ABS timestamp and the wheel's
// per-bucket max_seq squash skip must stay sound at each size.

class SchedAbsWrapAtSize : public ::testing::TestWithParam<int> {};

TEST_P(SchedAbsWrapAtSize, ContinuousFreezingWrapStaysSound) {
  const int iq = GetParam();
  FlatSource src;
  cpu::CoreConfig cfg;
  cfg.rob_entries = iq;
  cfg.iq_entries = iq;
  cfg.phys_regs = 96 + iq / 2;  // keep renaming ahead of the larger window
  cfg.issue_width = 1;          // drain slowly so the window backs up past 64 ages
  AlwaysWritebackPredictor pred;
  const cpu::SchemeConfig scheme = cpu::scheme_abs();
  const timing::PathModelConfig pcfg{7, 0.10, 0.03};
  const timing::FaultModel fm(pcfg, timing::SupplyPoints::kHighFault);
  cpu::Pipeline p(cfg, scheme, &src, &fm, &pred);
  check::SemanticsChecker checker(cfg, scheme);
  checker.attach(p);
  const cpu::PipelineResult r = p.run(3'000, 1'000);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(r.committed, 3'000u);
  EXPECT_GT(r.cpi.slots[static_cast<std::size_t>(obs::CpiCause::kSlotFreeze)], 1'000u);
}

INSTANTIATE_TEST_SUITE_P(IqSizes, SchedAbsWrapAtSize, ::testing::Values(64, 256, 512));

class SchedWheelSquashSkipAtSize : public ::testing::TestWithParam<u32> {};

TEST_P(SchedWheelSquashSkipAtSize, FilterSquashedSkipsAndDropsCorrectBuckets) {
  // Spread events across the whole wheel (buckets scale with iq_entries in
  // the pipeline): an old-seq bucket near the horizon edge must be *skipped*
  // by the max_seq fast path, mixed buckets filtered node by node, and
  // all-young buckets emptied -- at every wheel size.
  const u32 buckets = GetParam();
  WheelFixture f(buckets, /*pool=*/64);
  const Cycle edge = buckets - 1;  // horizon edge: farthest schedulable cycle
  f.w.schedule(1, EventKind::kBroadcast, 5);    // survivor
  f.w.schedule(1, EventKind::kComplete, 500);   // squashed (mixed bucket)
  f.w.schedule(edge / 2, EventKind::kComplete, 3);   // max_seq below cut: skipped
  f.w.schedule(edge / 2, EventKind::kBroadcast, 9);  // same bucket, also old
  f.w.schedule(edge, EventKind::kReplay, 600);       // entire bucket squashed
  f.w.filter_squashed(/*last_kept=*/10);
  // Refetch recycles a squashed seq into a fresh event; it must survive the
  // earlier filter untouched.
  f.w.schedule(2, EventKind::kBroadcast, 500);
  Event out[8];
  ASSERT_EQ(f.w.pop_due(0, out), 0u);
  ASSERT_EQ(f.w.pop_due(1, out), 1u);
  EXPECT_EQ(out[0].seq, 5u);
  ASSERT_EQ(f.w.pop_due(2, out), 1u);
  EXPECT_EQ(out[0].seq, 500u);
  for (Cycle c = 3; c <= edge; ++c) {
    const u32 n = f.w.pop_due(c, out);
    if (c == edge / 2) {
      ASSERT_EQ(n, 2u) << "skipped bucket lost events at size " << buckets;
      EXPECT_EQ(out[0].seq + out[1].seq, 12u);  // seqs 3 and 9, either order
    } else {
      ASSERT_EQ(n, 0u) << "stale event at stored cycle " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WheelSizes, SchedWheelSquashSkipAtSize,
                         ::testing::Values(64u, 256u, 512u));

/// Steps `p` past cold start (cache fills, branch predictor training, the
/// deepest load-miss events in flight), then asserts 20k more cycles make
/// no heap allocation and commit more than `min_committed` instructions.
void expect_steady_state_allocation_free(cpu::Pipeline& p, u64 min_committed) {
  for (int i = 0; i < 5'000; ++i) {
    ASSERT_TRUE(p.step());
  }
  const u64 before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 20'000; ++i) {
    ASSERT_TRUE(p.step());
  }
  const u64 after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "cycle loop allocated " << (after - before) << " times in 20k cycles";
  EXPECT_GT(p.committed(), min_committed);  // the loop did real work
}

TEST(SchedKernelAllocations, SteadyStateCycleLoopIsAllocationFree) {
  FlatSource src;
  cpu::CoreConfig cfg;
  cpu::Pipeline p(cfg, cpu::scheme_razor(), &src, nullptr, nullptr);
  expect_steady_state_allocation_free(p, 10'000);

  // Faulting ABS with a TEP: the fault oracle's memo is allocated once at
  // construction.  Every pass runs a new code copy one memo table past the
  // last, so each lookup meets a PC never seen before in an occupied slot
  // (and every fetch line is cold, hence the low commit floor).
  FlatSource wide(timing::FaultMemo::kSlots * isa::kInstrBytes);
  const timing::FaultModel fm(timing::PathModelConfig{7, 0.10, 0.03},
                              timing::SupplyPoints::kHighFault);
  core::TimingErrorPredictor tep({}, &fm.environment());
  cpu::Pipeline abs(cfg, cpu::scheme_abs(), &wide, &fm, &tep);
  expect_steady_state_allocation_free(abs, 500);
  EXPECT_GT(abs.registry().counter_value("fault.actual"), 0u);
}

}  // namespace
