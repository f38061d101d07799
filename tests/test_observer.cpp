// Tests for the pipeline event interface and the Kanata trace writer.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/job_context.hpp"
#include "src/core/tep.hpp"
#include "src/cpu/observer.hpp"
#include "src/cpu/pipeline.hpp"
#include "src/isa/assembler.hpp"
#include "src/isa/executor.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/profiles.hpp"
#include "src/workload/trace_generator.hpp"

namespace vasim::cpu {
namespace {

u64 fnv1a(std::string_view bytes) {
  u64 h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Counts lifecycle events and checks per-instruction ordering.
struct CountingObserver final : PipelineObserver {
  u64 fetches = 0, dispatches = 0, issues = 0, completes = 0, commits = 0, squashed = 0;
  std::vector<u8> state;  // per-seq lifecycle stage

  void bump(SeqNum seq, u8 expect, u8 next) {
    if (state.size() <= seq) state.resize(static_cast<std::size_t>(seq) + 1, 0);
    EXPECT_EQ(state[static_cast<std::size_t>(seq)], expect) << "seq " << seq;
    state[static_cast<std::size_t>(seq)] = next;
  }
  void on_fetched(Cycle, SeqNum seq, const isa::DynInst&) override {
    ++fetches;
    if (state.size() <= seq) state.resize(static_cast<std::size_t>(seq) + 1, 0);
    state[static_cast<std::size_t>(seq)] = 1;  // refetch after squash resets
  }
  void on_dispatched(Cycle, const InstState& is) override {
    ++dispatches;
    bump(is.di.seq, 1, 2);
  }
  void on_issued(Cycle, const InstState& is, Cycle, Cycle) override {
    ++issues;
    bump(is.di.seq, 2, 3);
  }
  void on_completed(Cycle, const InstState& is) override {
    ++completes;
    bump(is.di.seq, 3, 4);
  }
  void on_committed(Cycle, const InstState& is) override {
    ++commits;
    bump(is.di.seq, 4, 5);
  }
  void on_squashed(Cycle, SeqNum first, SeqNum last) override { squashed += last - first + 1; }
};

TEST(Observer, LifecycleOrderingFaultFree) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  CountingObserver obs;
  p.add_observer(&obs);
  const PipelineResult r = p.run(5000);
  EXPECT_EQ(r.committed, 5000u);
  EXPECT_EQ(obs.commits, 5000u);
  EXPECT_GE(obs.fetches, obs.dispatches);
  EXPECT_GE(obs.dispatches, obs.issues);
  EXPECT_GE(obs.issues, obs.completes);
  EXPECT_GE(obs.completes, obs.commits);
}

TEST(Observer, SquashEventsUnderReplay) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  CountingObserver obs;
  p.add_observer(&obs);
  const PipelineResult r = p.run(5000);
  EXPECT_EQ(r.committed, 5000u);
  EXPECT_GT(obs.squashed, 0u);
  EXPECT_EQ(obs.squashed, r.stats.count("ev.squash"));
  EXPECT_EQ(obs.commits, 5000u);
}

TEST(Kanata, WellFormedTrace) {
  const isa::Program prog = isa::assemble(R"(
      addi r1, r0, 0
      addi r2, r0, 1
      addi r3, r0, 40
    loop:
      add  r1, r1, r2
      addi r2, r2, 1
      blt  r2, r3, loop
      halt
  )");
  isa::FunctionalCore src(&prog);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &src, nullptr, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 1000);
  p.add_observer(&writer);
  p.run(1'000'000);

  const std::string t = trace.str();
  EXPECT_EQ(t.rfind("Kanata\t0004\n", 0), 0u) << "header first";
  EXPECT_NE(t.find("\nS\t0\t0\tF\n"), std::string::npos) << "fetch stage for seq 0";
  EXPECT_NE(t.find("\nS\t0\t0\tIs\n"), std::string::npos);
  EXPECT_NE(t.find("\nR\t0\t0\t0\n"), std::string::npos) << "seq 0 retires first";
  EXPECT_NE(t.find(": alu"), std::string::npos) << "disassembly labels";
  EXPECT_GT(writer.instructions_logged(), 100u);
  // Every logged instruction eventually retires (no flushes here).
  std::size_t retires = 0;
  for (std::size_t pos = t.find("\nR\t"); pos != std::string::npos;
       pos = t.find("\nR\t", pos + 1)) {
    ++retires;
  }
  EXPECT_EQ(retires, writer.instructions_logged());
}

TEST(Kanata, SquashEmitsFlushRetirementsAndRefetchRestartsRows) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  CoreConfig cfg;
  Pipeline p(cfg, razor, &g, &fm, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 100'000);
  p.add_observer(&writer);
  const PipelineResult r = p.run(5000);
  ASSERT_GT(r.stats.count("ev.squash"), 0u) << "test needs at least one squash";

  // Split the log into lines and tally per-record-type counts.
  const std::string t = trace.str();
  u64 flushes = 0, retires = 0;
  std::map<std::string, int> fetches_of;  // I-line count per seq id
  std::istringstream lines(t);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("R\t", 0) == 0) {
      // R <id> <retire-id> <type>; type 1 = flushed by a squash.
      (line.size() >= 2 && line.compare(line.size() - 2, 2, "\t1") == 0) ? ++flushes : ++retires;
    } else if (line.rfind("I\t", 0) == 0) {
      ++fetches_of[line.substr(2, line.find('\t', 2) - 2)];
    }
  }
  EXPECT_EQ(flushes, r.stats.count("ev.squash"))
      << "every squashed instruction gets a type-1 retirement";
  EXPECT_EQ(retires, r.committed) << "every committed instruction gets a normal retirement";
  // The refetch after a squash re-assigns the same SeqNums, so at least one
  // id must have been fetched (I-line) more than once.
  int refetched = 0;
  for (const auto& [id, n] : fetches_of) refetched += n > 1 ? 1 : 0;
  EXPECT_GT(refetched, 0) << "squash-refetch re-fetches the flushed ids";
}

TEST(Kanata, MicroReplayHasNoFlushRecords) {
  // Razor's default recovery is the squashless micro-replay: faults replay
  // in place, so the Kanata log must contain normal retirements only.
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_razor(), &g, &fm, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 100'000);
  p.add_observer(&writer);
  const PipelineResult r = p.run(3000);
  ASSERT_GT(r.stats.count("fault.replays"), 0u) << "test needs at least one replay";
  EXPECT_EQ(trace.str().find("\t0\t1\n"), std::string::npos) << "no flushed retirements";
}

TEST(Observer, PipelineFansEventsOutToEveryObserver) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  CountingObserver a, b;
  p.add_observer(&a);
  p.add_observer(&b);
  const PipelineResult r = p.run(2000);
  EXPECT_EQ(a.commits, r.committed);
  EXPECT_EQ(b.commits, r.committed);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.issues, b.issues);
}

TEST(Kanata, CapsLogSize) {
  const auto prof = workload::spec2006_profile("bzip2");
  workload::TraceGenerator g(prof);
  CoreConfig cfg;
  Pipeline p(cfg, scheme_fault_free(), &g, nullptr, nullptr);
  std::ostringstream trace;
  KanataTraceWriter writer(&trace, 50);
  p.add_observer(&writer);
  p.run(5000);
  EXPECT_EQ(writer.instructions_logged(), 50u);
}

struct TraceDigests {
  u64 kanata = 0;
  u64 perfetto = 0;
  u64 trail = 0;
  bool flushed = false;         ///< a Kanata type-1 (squash) retirement
  bool predicted_faulty = false;  ///< a Kanata predicted-faulty label
};

/// Runs gobmk at 0.97 V with a Kanata writer, a Perfetto observer and a
/// commit trail attached, and digests the three outputs.
TraceDigests digest_run(const SchemeConfig& scheme, bool with_tep) {
  const auto prof = workload::spec2006_profile("gobmk");
  workload::TraceGenerator g(prof);
  timing::PathModelConfig pcfg{prof.seed, 0.12, 0.04};
  const timing::FaultModel fm(pcfg, 0.97);
  core::TimingErrorPredictor tep({}, &fm.environment());
  CoreConfig cfg;
  Pipeline p(cfg, scheme, &g, &fm, with_tep ? &tep : nullptr);
  std::ostringstream kanata_out, perfetto_out;
  KanataTraceWriter kanata(&kanata_out, 100'000);
  obs::ChromeTraceWriter chrome(&perfetto_out);
  TraceObserver perfetto(&chrome, 100'000);
  std::vector<Cycle> trail;
  core::detail::CommitTrailObserver trail_obs(100, &trail);
  p.add_observer(&kanata);
  p.add_observer(&perfetto);
  p.add_observer(&trail_obs);
  const PipelineResult r = p.run(5000);
  chrome.finish();
  EXPECT_EQ(r.committed, 5000u);
  EXPECT_EQ(trail.size(), 50u);
  std::string trail_bytes;
  for (const Cycle c : trail) trail_bytes += std::to_string(c) + ",";
  const std::string k = kanata_out.str();
  return {fnv1a(k), fnv1a(perfetto_out.str()), fnv1a(trail_bytes),
          k.find("\t0\t1\n") != std::string::npos,
          k.find("[predicted faulty]") != std::string::npos};
}

// Pins the exact bytes of both trace formats and the commit trail, so a
// change to how the pipeline publishes events cannot move what the
// observers write.  Squash-refetch Razor exercises the squash and refetch
// rows; ABS with a TEP exercises predicted-faulty issue annotations.
TEST(TraceBytes, KanataPerfettoAndTrailDigestsArePinned) {
  SchemeConfig razor = scheme_razor();
  razor.recovery = RecoveryModel::kSquashRefetch;
  const TraceDigests rz = digest_run(razor, /*with_tep=*/false);
  EXPECT_TRUE(rz.flushed);
  EXPECT_EQ(rz.kanata, 0x732566646bcf4758ULL);
  EXPECT_EQ(rz.perfetto, 0xec0bb20301b70140ULL);
  EXPECT_EQ(rz.trail, 0x0b51dcb4eac6bce0ULL);

  const TraceDigests abs = digest_run(scheme_abs(), /*with_tep=*/true);
  EXPECT_TRUE(abs.predicted_faulty);
  EXPECT_EQ(abs.kanata, 0x5fe2438b5834d685ULL);
  EXPECT_EQ(abs.perfetto, 0xd68beab4aebb6beeULL);
  EXPECT_EQ(abs.trail, 0x2f8e1074c8e6b904ULL);
}

}  // namespace
}  // namespace vasim::cpu
