// vasim command-line driver.
//
// Usage:
//   vasim list
//       List the available benchmark profiles and schemes.
//   vasim run --bench <name> --scheme <name> [--vdd V] [--instr N]
//             [--warmup N] [--predictor tep|mre|tvp] [--kanata FILE]
//             [--trace FILE] [--timeline FILE] [--timeline-interval K]
//             [--dvfs static|reactive|predictive] [--epoch N]
//             [--period-min P] [--period-max P]
//             [--stats] [--csv] [--cpi] [--progress] [--profile]
//       Run one simulation and print a summary (or CSV row / full stats).
//       --cpi adds the per-cause commit-slot (CPI stack) table; --trace
//       writes per-instruction Chrome-trace JSON for Perfetto; --timeline
//       samples every registry counter each K commits (default 10000) and
//       writes the per-window series as JSON (or CSV when FILE ends in
//       .csv); --progress prints a live commits/s + ETA line on stderr;
//       --profile attributes the simulator's own wall-time to its pipeline
//       stages (docs/observability.md).
//   vasim sweep --bench <name>|all [--instr N] [--warmup N] [--jobs N]
//               [--batch B] [--shard i/N] [--json FILE] [--trace FILE]
//               [--timeline-interval K] [--dvfs POLICY] [--epoch N]
//               [--cpi] [--progress] [--profile]
//       Run every scheme at both faulty supplies for one benchmark (or the
//       whole suite), fanned out over a thread pool (VASIM_JOBS or --jobs;
//       results are deterministic at any worker count), optionally dumping
//       the machine-readable JSON result sink to FILE, a Chrome-trace span
//       per job to --trace, per-scheme CPI stacks with --cpi, and a live
//       done/total + ETA line on stderr with --progress.  --batch (or
//       VASIM_BATCH) advances B jobs per worker through the lockstep engine;
//       --shard runs only the i-th of N deterministic grid partitions and
//       writes a JSON fragment instead of the tables (docs/sweep.md);
//       --timeline-interval embeds a per-job timeline in the JSON sink and
//       appends Perfetto counter tracks to --trace; --profile prints
//       per-worker and whole-sweep simulator self-profiles.
//   vasim sweep-merge FRAGMENT... --out FILE
//       Join per-shard fragments back into one submission-ordered schema-4
//       report; the FNV checksum is bitwise identical to the unsharded run.
//   vasim record --bench <name> --out FILE [--instr N]
//       Capture a committed-path trace to a vasim-trace file.
//   vasim replay --trace FILE --scheme <name> [--vdd V] [--instr N]
//       Drive the pipeline from a recorded (or external) trace file.
//   vasim snap save --bench <name> --scheme <name> --out FILE [--vdd V]
//                   [--instr N] [--warmup N] [--at N] [--predictor tep|mre|tvp]
//       Simulate to the --at commit point (default: end of warmup) and write
//       a checksummed snapshot; resume with `vasim run --from-snapshot`.
//   vasim snap info FILE
//       Pretty-print a snapshot's header, chunk table, CRC status and META.
//   vasim serve --listen unix:PATH|tcp:PORT [--workers N] [--queue N]
//               [--cache N] [--max-cells N] [--instr N] [--warmup N]
//               [--timeline-interval K] [--profile]
//       Run the sweep-as-a-service daemon (docs/serve.md): a line-delimited
//       JSON protocol over a local socket with a bounded admission queue and
//       a cross-request warm-start snapshot cache.  Runs until a client
//       sends {"op":"shutdown"}.
//   vasim loadgen --connect ENDPOINT [--clients N] [--jobs N] [--cells N]
//                 [--interval MS] [--cancel-frac F] [--seed S] [--instr N]
//                 [--warmup N] [--benches a,b] [--schemes x,y] [--vdds v,w]
//                 [--json FILE] [--shutdown]
//       Replay a seed-deterministic open-loop request mix against a running
//       daemon and record latency percentiles, backpressure counts and the
//       cross-client checksum-consistency verdict to BENCH_serve.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "src/adapt/dvfs.hpp"
#include "src/common/env.hpp"
#include "src/common/table.hpp"
#include "src/cpu/config.hpp"
#include "src/core/runner.hpp"
#include "src/core/shard.hpp"
#include "src/core/snapshot.hpp"
#include "src/core/sweep.hpp"
#include "src/cpu/observer.hpp"
#include "src/obs/cpi.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/timeline.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/loadgen.hpp"
#include "src/serve/server.hpp"
#include "src/serve/socket.hpp"
#include "src/snap/format.hpp"
#include "src/workload/trace_file.hpp"
#include "src/workload/trace_generator.hpp"

namespace {

using namespace vasim;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return options.count(key) != 0; }
};

/// `keys` plus runner_config's, which every command that builds a run reads.
std::set<std::string> with_runner_keys(std::set<std::string> keys) {
  keys.insert({"instr", "warmup", "predictor", "timeline-interval", "iq", "rob", "phys", "dvfs",
               "epoch", "period-min", "period-max"});
  return keys;
}

/// The --keys each command reads; any other key is refused by name rather
/// than silently ignored.  Null for an unknown command (usage handles it).
const std::set<std::string>* accepted_keys(const std::string& command) {
  static const std::map<std::string, std::set<std::string>> kKeys = {
      {"list", {}},
      {"run", with_runner_keys({"bench", "scheme", "vdd", "from-snapshot", "kanata", "trace",
                                "timeline", "stats", "csv", "cpi", "progress", "profile"})},
      {"sweep", with_runner_keys({"bench", "jobs", "batch", "shard", "json", "trace", "cpi",
                                  "progress", "reuse-warmup", "profile"})},
      {"record", {"bench", "out", "instr"}},
      {"replay", with_runner_keys({"trace", "scheme", "vdd", "seed"})},
      {"serve", with_runner_keys({"listen", "workers", "queue", "cache", "max-cells", "profile"})},
      {"loadgen", {"connect", "clients", "jobs", "cells", "interval", "cancel-frac", "seed",
                   "instr", "warmup", "benches", "schemes", "vdds", "json", "shutdown"}},
      {"snap save", with_runner_keys({"bench", "scheme", "out", "vdd", "at"})},
  };
  const auto it = kKeys.find(command);
  return it == kKeys.end() ? nullptr : &it->second;
}

bool parse_options(int start, int argc, char** argv, Args& a) {
  const std::set<std::string>* accepted = accepted_keys(a.command);
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (accepted != nullptr && accepted->count(key) == 0) {
      throw std::invalid_argument("unknown option --" + key + " for 'vasim " + a.command +
                                  "'");
    }
    if (key == "stats" || key == "csv" || key == "cpi" || key == "progress" ||
        key == "reuse-warmup" || key == "profile" || key == "shutdown") {
      a.options[key] = "1";
    } else {
      if (i + 1 >= argc) return false;
      a.options[key] = argv[++i];
    }
  }
  return true;
}

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args a;
  a.command = argv[1];
  if (!parse_options(2, argc, argv, a)) return std::nullopt;
  return a;
}

int usage() {
  std::cerr << "usage:\n"
            << "  vasim list\n"
            << "  vasim run --bench <name> --scheme "
               "fault-free|razor|ep|abs|ffs|cds [--vdd V]\n"
            << "            [--instr N] [--warmup N] [--predictor tep|mre|tvp]\n"
            << "            [--iq N] [--rob N] [--phys N]\n"
            << "            [--kanata FILE] [--trace FILE] [--timeline FILE]\n"
            << "            [--timeline-interval K] [--stats] [--csv] [--cpi]\n"
            << "            [--dvfs static|reactive|predictive] [--epoch N]\n"
            << "            [--period-min P] [--period-max P]\n"
            << "            [--progress] [--profile]\n"
            << "  vasim run --from-snapshot FILE [--instr N] [--timeline FILE]\n"
            << "            [--stats] [--csv] [--cpi] [--progress] [--profile]\n"
            << "  vasim sweep --bench <name>|all [--instr N] [--warmup N] [--jobs N]\n"
            << "              [--iq N] [--rob N] [--phys N]\n"
            << "              [--batch B] [--shard i/N] [--json FILE] [--trace FILE]\n"
            << "              [--timeline-interval K] [--dvfs POLICY] [--epoch N]\n"
            << "              [--period-min P] [--period-max P] [--cpi] [--progress]\n"
            << "              [--reuse-warmup] [--profile]\n"
            << "  vasim sweep-merge FRAGMENT... --out FILE\n"
            << "  vasim snap save --bench <name> --scheme <name> --out FILE [--vdd V]\n"
            << "                  [--instr N] [--warmup N] [--at N] [--predictor tep|mre|tvp]\n"
            << "  vasim snap info FILE\n"
            << "  vasim serve --listen unix:PATH|tcp:PORT [--workers N] [--queue N]\n"
            << "              [--cache N] [--max-cells N] [--instr N] [--warmup N]\n"
            << "              [--timeline-interval K] [--dvfs POLICY] [--epoch N] [--profile]\n"
            << "  vasim loadgen --connect ENDPOINT [--clients N] [--jobs N] [--cells N]\n"
            << "                [--interval MS] [--cancel-frac F] [--seed S] [--instr N]\n"
            << "                [--warmup N] [--benches a,b] [--schemes x,y] [--vdds v,w]\n"
            << "                [--json FILE] [--shutdown]\n";
  return 2;
}

int cmd_list() {
  TextTable t({"benchmark", "paper-IPC", "FR%@0.97", "FR%@1.04"});
  for (const auto& p : workload::spec2006_profiles()) {
    t.add_row({p.name, TextTable::fmt(p.paper_ipc, 2), TextTable::fmt(p.fr_high_pct, 2),
               TextTable::fmt(p.fr_low_pct, 2)});
  }
  std::cout << t.render("SPEC2006-like benchmark profiles") << "\n";
  std::cout << "schemes: fault-free razor ep abs ffs cds\n"
            << "supplies: 1.10 (fault-free) 1.04 (low FR) 0.97 (high FR)\n";
  return 0;
}

core::RunnerConfig runner_config(const Args& args) {
  core::RunnerConfig rc;
  rc.instructions = std::strtoull(args.get("instr", "150000").c_str(), nullptr, 10);
  rc.warmup = std::strtoull(args.get("warmup", "150000").c_str(), nullptr, 10);
  const std::string pred = args.get("predictor", "tep");
  if (pred == "mre") {
    rc.predictor = core::PredictorKind::kMre;
  } else if (pred == "tvp") {
    rc.predictor = core::PredictorKind::kTvp;
  }
  rc.timeline_interval = std::strtoull(args.get("timeline-interval", "0").c_str(), nullptr, 10);
  if (args.has("iq")) rc.core.iq_entries = std::atoi(args.get("iq", "").c_str());
  if (args.has("rob")) rc.core.rob_entries = std::atoi(args.get("rob", "").c_str());
  if (args.has("phys")) rc.core.phys_regs = std::atoi(args.get("phys", "").c_str());
  cpu::validate_core_config(rc.core);  // fail fast with the named reason
  if (args.has("dvfs")) rc.dvfs.policy = adapt::dvfs_policy_from_string(args.get("dvfs", ""));
  if (args.has("epoch")) {
    rc.dvfs.epoch = std::strtoull(args.get("epoch", "0").c_str(), nullptr, 10);
  }
  if (args.has("period-min")) {
    rc.dvfs.period_min_permille =
        static_cast<u32>(std::strtoul(args.get("period-min", "0").c_str(), nullptr, 10));
  }
  if (args.has("period-max")) {
    rc.dvfs.period_max_permille =
        static_cast<u32>(std::strtoul(args.get("period-max", "0").c_str(), nullptr, 10));
  }
  adapt::validate_dvfs_config(rc.dvfs);  // same fail-fast style as the core knobs
  return rc;
}

/// Default sampling grain when --timeline names a file but no interval.
constexpr u64 kDefaultTimelineInterval = 10'000;

/// Copies a just-written result JSON into the tracked bench/results/
/// directory (VASIM_RESULTS_DIR, injected by CMake) -- the same hook
/// bench_micro uses, so `vasim loadgen` updates the repo's serve-perf
/// trajectory without a manual cp.  Disabled with VASIM_RESULTS=0; quietly
/// skipped when the directory is absent.
void copy_to_results(const std::string& path) {
#ifdef VASIM_RESULTS_DIR
  if (env_u64("VASIM_RESULTS", 1) == 0) return;
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  // Strip any directory prefix: results are tracked flat by file name.
  const std::size_t slash = path.find_last_of('/');
  const std::string fname = slash == std::string::npos ? path : path.substr(slash + 1);
  std::ofstream out(std::string(VASIM_RESULTS_DIR) + "/" + fname, std::ios::binary);
  if (!out) return;
  out << in.rdbuf();
#else
  (void)path;
#endif
}

/// Writes a finalized timeline as JSON, or CSV when the path ends in .csv.
int write_timeline_file(const obs::Timeline& tl, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return 2;
  }
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    tl.write_csv(out);
  } else {
    tl.write_json(out);
  }
  std::cout << "timeline with " << tl.windows() << " windows (every " << tl.interval()
            << " commits) written to " << path << "\n";
  return 0;
}

/// The --profile report: whole-run stage attribution, plus a per-worker
/// breakdown when more than one host thread contributed.
void print_profile_tables(const obs::ProfilerHub& hub) {
  const obs::Profiler::Snapshot total = hub.total();
  const double total_ns = static_cast<double>(total.total_ns());
  TextTable t({"phase", "calls", "ms", "share%"});
  for (int p = 0; p < obs::kNumProfPhases; ++p) {
    const auto phase = static_cast<obs::ProfPhase>(p);
    const auto i = static_cast<std::size_t>(p);
    t.add_row({std::string(obs::to_string(phase)), std::to_string(total.calls[i]),
               TextTable::fmt(static_cast<double>(total.ns[i]) / 1e6, 2),
               TextTable::fmt(total_ns == 0.0 ? 0.0
                                              : static_cast<double>(total.ns[i]) / total_ns * 100.0,
                              1)});
  }
  std::cout << t.render("simulator self-profile") << "\n"
            << "(fault-check is part of select, event-wheel part of execute; shares are\n"
            << " of the five top-level phases)\n";
  const std::vector<obs::ProfilerHub::WorkerReport> workers = hub.per_worker();
  if (workers.size() > 1) {
    std::vector<std::string> header = {"worker"};
    for (int p = 0; p < obs::kNumProfPhases; ++p) {
      header.emplace_back(obs::to_string(static_cast<obs::ProfPhase>(p)));
    }
    header.emplace_back("total");
    TextTable wt(header);
    for (const obs::ProfilerHub::WorkerReport& w : workers) {
      std::vector<std::string> row = {std::to_string(w.worker)};
      for (int p = 0; p < obs::kNumProfPhases; ++p) {
        row.push_back(TextTable::fmt(static_cast<double>(w.snap.ns[static_cast<std::size_t>(p)]) / 1e6, 2));
      }
      row.push_back(TextTable::fmt(static_cast<double>(w.snap.total_ns()) / 1e6, 2));
      wt.add_row(row);
    }
    std::cout << wt.render("self-profile per worker (ms)") << "\n";
  }
}

void print_result(const core::RunResult& r, const core::RunResult* baseline, bool csv) {
  if (csv) {
    // Columns mirror the sweep JSON schema (docs/sweep.md) field for field.
    std::cout << r.benchmark << "," << r.scheme << "," << r.vdd << "," << r.committed << ","
              << r.cycles << "," << TextTable::fmt(r.ipc, 4) << ","
              << TextTable::fmt(r.fault_rate_pct, 3) << "," << r.replays << ","
              << TextTable::fmt(r.predictor_accuracy, 4) << ","
              << TextTable::fmt(r.energy.total_nj(), 1) << ","
              << TextTable::fmt(r.energy.edp, 0) << "\n";
    return;
  }
  std::cout << r.benchmark << " / " << r.scheme << " @ " << TextTable::fmt(r.vdd, 2)
            << " V: IPC " << TextTable::fmt(r.ipc) << ", FR " << TextTable::fmt(r.fault_rate_pct, 2)
            << "%, replays " << TextTable::fmt(r.replays, 0) << ", energy "
            << TextTable::fmt(r.energy.total_nj(), 1) << " nJ\n";
  if (baseline != nullptr) {
    const core::Overheads o = core::overhead_vs(*baseline, r);
    std::cout << "  vs fault-free: perf overhead " << TextTable::fmt(o.perf_pct, 2)
              << "%, ED overhead " << TextTable::fmt(o.ed_pct, 2) << "%\n";
  }
  if (r.dvfs) {
    const core::DvfsSummary& d = *r.dvfs;
    std::cout << "  dvfs " << d.policy << ": " << d.epochs << " epochs, period "
              << d.period_final << "‰ (range " << d.period_lo << "-" << d.period_hi
              << "‰, avg " << TextTable::fmt(d.avg_period_permille, 1)
              << "‰), throughput " << TextTable::fmt(d.throughput, 4)
              << " instr/nominal-cycle\n";
  }
}

void print_cpi_table(const std::string& title, const obs::CpiStack& cpi, int commit_width,
                     u64 committed) {
  TextTable t({"cause", "slots", "cpi", "share%"});
  const u64 total = cpi.total();
  for (int c = 0; c < obs::kNumCpiCauses; ++c) {
    const auto cause = static_cast<obs::CpiCause>(c);
    const u64 slots = cpi[cause];
    if (slots == 0 && cause != obs::CpiCause::kBase) continue;
    t.add_row({std::string(obs::to_string(cause)), std::to_string(slots),
               TextTable::fmt(cpi.cpi_of(cause, commit_width, committed), 4),
               TextTable::fmt(total == 0 ? 0.0
                                         : static_cast<double>(slots) /
                                               static_cast<double>(total) * 100.0,
                              1)});
  }
  std::cout << t.render("CPI stack: " + title) << "\n";
}

int cmd_run_from_snapshot(const Args& args) {
  try {
    const core::RunSnapshot snap = core::RunSnapshot::read_file(args.get("from-snapshot", ""));
    const core::RunMeta& m = snap.meta();
    // The runner configuration is rebuilt from META so the resume is
    // warmup-compatible by construction; only the measurement length may be
    // overridden from the command line.
    core::RunnerConfig rc;
    rc.instructions = args.has("instr")
                          ? std::strtoull(args.get("instr", "").c_str(), nullptr, 10)
                          : m.instructions;
    rc.warmup = m.warmup;
    rc.core = m.core;
    rc.tep = m.tep;
    rc.predictor = m.predictor;
    rc.check_semantics = m.check_semantics;
    rc.commit_trail_stride = m.commit_trail_stride;
    rc.dvfs = m.dvfs;
    rc.timeline_interval =
        std::strtoull(args.get("timeline-interval", "0").c_str(), nullptr, 10);
    if (args.has("timeline") && rc.timeline_interval == 0) {
      rc.timeline_interval = kDefaultTimelineInterval;
    }
    rc.progress = args.has("progress");
    obs::ProfilerHub hub;
    if (args.has("profile")) rc.profiler_hub = &hub;
    const core::ExperimentRunner runner(rc);
    const core::RunResult r = runner.run_from(snap);
    if (args.has("csv")) {
      std::cout << "benchmark,scheme,vdd,committed,cycles,ipc,fault_rate_pct,replays,"
                   "predictor_accuracy,energy_nj,edp\n";
    }
    print_result(r, nullptr, args.has("csv"));
    if (args.has("stats")) std::cout << "\n" << r.stats.to_string();
    if (args.has("cpi")) print_cpi_table(r.benchmark + "/" + r.scheme, r.cpi, rc.core.commit_width, r.committed);
    if (args.has("timeline") && r.timeline != nullptr) {
      const int rcio = write_timeline_file(*r.timeline, args.get("timeline", ""));
      if (rcio != 0) return rcio;
    }
    if (args.has("profile")) print_profile_tables(hub);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_run(const Args& args) {
  if (args.has("from-snapshot")) return cmd_run_from_snapshot(args);
  if (!args.has("bench") || !args.has("scheme")) return usage();
  const auto scheme = core::scheme_by_name(args.get("scheme", ""));
  if (!scheme) {
    std::cerr << "unknown scheme '" << args.get("scheme", "") << "'\n";
    return 2;
  }
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double vdd = std::strtod(args.get("vdd", "0.97").c_str(), nullptr);
  core::RunnerConfig rc = runner_config(args);
  if (args.has("timeline") && rc.timeline_interval == 0) {
    rc.timeline_interval = kDefaultTimelineInterval;
  }
  rc.progress = args.has("progress");
  obs::ProfilerHub hub;
  if (args.has("profile")) rc.profiler_hub = &hub;
  const core::ExperimentRunner runner(rc);
  // The fault-free comparison run keeps the plain configuration: its
  // telemetry would only shadow the requested scheme's.
  core::RunnerConfig rc_baseline = rc;
  rc_baseline.timeline_interval = 0;
  rc_baseline.progress = false;
  rc_baseline.profiler_hub = nullptr;

  if (args.has("kanata") || args.has("trace")) {
    if (rc.dvfs.adaptive()) {
      throw std::invalid_argument(
          "dvfs: adaptive policies are not supported with --kanata/--trace "
          "(the trace path bypasses the experiment runner); drop the trace "
          "flags or use --dvfs static");
    }
    // Trace dumps need a hand-built pipeline to attach observers; both
    // writers can ride the same run as two observers.
    workload::TraceGenerator gen(prof);
    timing::PathModelConfig pcfg;
    pcfg.seed = prof.seed;
    pcfg.p_faulty_high = prof.fr_high_pct / 100.0 * prof.fr_calib_high;
    pcfg.p_faulty_low = prof.fr_low_pct / 100.0 * prof.fr_calib_low;
    const timing::FaultModel fm(pcfg, vdd);
    core::TimingErrorPredictor tep(rc.tep, &fm.environment());
    cpu::Pipeline pipe(rc.core, *scheme, &gen, &fm,
                       scheme->use_predictor ? &tep : nullptr);
    std::unique_ptr<std::ofstream> kanata_out;
    std::unique_ptr<cpu::KanataTraceWriter> kanata;
    if (args.has("kanata")) {
      kanata_out = std::make_unique<std::ofstream>(args.get("kanata", "trace.kanata"));
      kanata = std::make_unique<cpu::KanataTraceWriter>(kanata_out.get(), 20'000);
      pipe.add_observer(kanata.get());
    }
    std::unique_ptr<std::ofstream> trace_out;
    std::unique_ptr<obs::ChromeTraceWriter> trace;
    std::unique_ptr<cpu::TraceObserver> trace_obs;
    if (args.has("trace")) {
      trace_out = std::make_unique<std::ofstream>(args.get("trace", "trace.json"));
      trace = std::make_unique<obs::ChromeTraceWriter>(trace_out.get());
      trace_obs = std::make_unique<cpu::TraceObserver>(trace.get(), 20'000);
      pipe.add_observer(trace_obs.get());
    }
    std::optional<obs::Timeline> tl;
    if (rc.timeline_interval > 0) {
      obs::Timeline::Config tc;
      tc.interval = rc.timeline_interval;
      tc.capacity_hint =
          static_cast<std::size_t>((rc.warmup + rc.instructions) / rc.timeline_interval) + 8;
      tl.emplace(tc, &pipe.registry());
      pipe.set_timeline(&*tl, tc.interval);
    }
    std::optional<obs::Profiler> profiler;
    if (args.has("profile")) {
      profiler.emplace();
      pipe.set_profiler(&*profiler);
    }
    const cpu::PipelineResult pr = pipe.run(rc.instructions, rc.warmup);
    if (tl) tl->finalize(pipe.now(), pipe.committed());
    std::cout << "committed " << pr.committed << " in " << pr.cycles << " cycles (IPC "
              << TextTable::fmt(pr.ipc()) << ")\n";
    if (kanata) {
      std::cout << "Kanata trace with " << kanata->instructions_logged()
                << " instructions written to " << args.get("kanata", "") << "\n";
    }
    if (trace) {
      if (tl && tl->windows() > 0) {
        // The instruction spans place one cycle at one microsecond (pid 1);
        // the counter tracks share that timebase on their own process row.
        trace->process_name(2, "timeline");
        tl->append_counter_tracks(*trace, 2, 0, "", 0.0, 1.0);
      }
      trace->finish();
      std::cout << "Chrome trace with " << trace_obs->instructions_traced()
                << " instructions written to " << args.get("trace", "")
                << " (open in ui.perfetto.dev)\n";
    }
    if (args.has("cpi")) {
      print_cpi_table(prof.name + "/" + scheme->name, pr.cpi, rc.core.commit_width,
                      pr.committed);
    }
    if (args.has("timeline") && tl) {
      const int rcio = write_timeline_file(*tl, args.get("timeline", ""));
      if (rcio != 0) return rcio;
    }
    if (profiler) {
      hub.merge(profiler->snapshot());
      print_profile_tables(hub);
    }
    return 0;
  }

  const core::RunResult r = scheme->name == "fault-free"
                                ? runner.run_fault_free(prof, vdd)
                                : runner.run(prof, *scheme, vdd);
  std::optional<core::RunResult> baseline;
  if (scheme->name != "fault-free") {
    baseline = core::ExperimentRunner(rc_baseline).run_fault_free(prof, vdd);
  }
  if (args.has("csv")) {
    std::cout << "benchmark,scheme,vdd,committed,cycles,ipc,fault_rate_pct,replays,"
                 "predictor_accuracy,energy_nj,edp\n";
  }
  print_result(r, baseline ? &*baseline : nullptr, args.has("csv"));
  if (args.has("stats")) std::cout << "\n" << r.stats.to_string();
  if (args.has("cpi")) {
    print_cpi_table(prof.name + "/" + scheme->name, r.cpi, rc.core.commit_width, r.committed);
  }
  if (args.has("timeline") && r.timeline != nullptr) {
    const int rcio = write_timeline_file(*r.timeline, args.get("timeline", ""));
    if (rcio != 0) return rcio;
  }
  if (args.has("profile")) print_profile_tables(hub);
  return 0;
}

int cmd_sweep(const Args& args) {
  if (!args.has("bench")) return usage();
  std::vector<workload::BenchmarkProfile> profiles;
  const std::string which = args.get("bench", "");
  if (which == "all") {
    profiles = workload::spec2006_profiles();
  } else {
    try {
      profiles.push_back(workload::spec2006_profile(which));
    } catch (const std::out_of_range& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  const std::size_t workers =
      args.has("jobs") ? std::strtoull(args.get("jobs", "1").c_str(), nullptr, 10)
                       : core::sweep_workers_from_env();
  core::RunnerConfig sweep_rc = runner_config(args);
  obs::ProfilerHub hub;
  if (args.has("profile")) sweep_rc.profiler_hub = &hub;
  core::SweepRunner sweeper(sweep_rc, workers);
  if (args.has("progress")) sweeper.set_progress(true);
  if (args.has("reuse-warmup")) sweeper.set_reuse_warmup(true);
  if (args.has("batch")) {
    sweeper.set_batch(std::strtoull(args.get("batch", "1").c_str(), nullptr, 10));
  }

  // (fault-free + every scheme) x both faulty supplies per profile, one
  // thread-pooled grid; results come back in submission order.
  const double vdds[] = {timing::SupplyPoints::kLowFault, timing::SupplyPoints::kHighFault};
  std::vector<core::SweepJob> jobs;
  for (const auto& prof : profiles) {
    for (const double vdd : vdds) {
      jobs.push_back({prof, std::nullopt, vdd, std::nullopt});
      for (const auto& scheme : core::comparative_schemes()) {
        jobs.push_back({prof, scheme, vdd, std::nullopt});
      }
    }
  }

  if (args.has("shard")) {
    // Shard mode: run only this shard's deterministic partition of the full
    // grid and emit a fragment (job indices are global, so the per-supply
    // tables would be misleading -- the merge side renders the report).
    core::ShardSpec spec;
    try {
      spec = core::parse_shard(args.get("shard", ""));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    const std::vector<std::size_t> indices =
        core::shard_indices(jobs, spec, args.has("reuse-warmup"), sweeper.config());
    std::vector<core::SweepJob> shard_jobs;
    shard_jobs.reserve(indices.size());
    for (const std::size_t i : indices) shard_jobs.push_back(jobs[i]);
    core::SweepReport shard_report;
    try {
      shard_report = sweeper.run(shard_jobs);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    const double wall_ms = shard_report.wall_ms;
    const core::SweepFragment frag = core::make_fragment(
        "cli_sweep", spec, jobs.size(), indices, std::move(shard_report));
    const std::string path =
        args.has("json") ? args.get("json", "")
                         : "BENCH_sweep.shard_" + std::to_string(spec.index) + "_of_" +
                               std::to_string(spec.count) + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot open " << path << "\n";
      return 2;
    }
    core::write_fragment_json(out, frag);
    std::cout << "shard " << spec.index << "/" << spec.count << ": " << indices.size()
              << " of " << jobs.size() << " jobs in " << TextTable::fmt(wall_ms, 0)
              << " ms; fragment written to " << path << "\n";
    return 0;
  }

  const core::SweepReport report = sweeper.run(jobs);

  const int commit_width = sweeper.config().core.commit_width;
  std::size_t at = 0;
  for (const auto& prof : profiles) {
    for (const double vdd : vdds) {
      const std::size_t base_at = at;
      const core::RunResult& base = report.jobs[at++].result;
      TextTable t({"scheme", "IPC", "FR%", "replays", "perf-ovh%", "ED-ovh%"});
      t.add_row({"fault-free", TextTable::fmt(base.ipc), "-", "-", "0.00", "0.00"});
      for (std::size_t s = 0; s < core::comparative_schemes().size(); ++s) {
        const core::RunResult& r = report.jobs[at++].result;
        const core::Overheads o = core::overhead_vs(base, r);
        t.add_row({r.scheme, TextTable::fmt(r.ipc), TextTable::fmt(r.fault_rate_pct, 2),
                   TextTable::fmt(r.replays, 0), TextTable::fmt(o.perf_pct, 2),
                   TextTable::fmt(o.ed_pct, 2)});
      }
      std::cout << t.render(prof.name + " @ " + TextTable::fmt(vdd, 2) + " V") << "\n";
      if (args.has("cpi")) {
        // One row per scheme, one column per cause: where every lost commit
        // slot went, in cycles-per-instruction units.
        std::vector<std::string> header = {"scheme"};
        for (int c = 0; c < obs::kNumCpiCauses; ++c) {
          header.emplace_back(obs::to_string(static_cast<obs::CpiCause>(c)));
        }
        header.emplace_back("cpi");
        TextTable ct(header);
        for (std::size_t j = base_at; j < at; ++j) {
          const core::RunResult& r = report.jobs[j].result;
          std::vector<std::string> row = {r.scheme};
          for (int c = 0; c < obs::kNumCpiCauses; ++c) {
            row.push_back(TextTable::fmt(
                r.cpi.cpi_of(static_cast<obs::CpiCause>(c), commit_width, r.committed), 3));
          }
          row.push_back(TextTable::fmt(
              r.committed == 0 ? 0.0
                               : static_cast<double>(r.cycles) / static_cast<double>(r.committed),
              3));
          ct.add_row(row);
        }
        std::cout << ct.render("CPI stacks: " + prof.name + " @ " + TextTable::fmt(vdd, 2) + " V")
                  << "\n";
      }
    }
  }
  std::cout << report.jobs.size() << " runs in " << TextTable::fmt(report.wall_ms, 0)
            << " ms on " << report.workers << " worker(s)\n";
  if (args.has("profile")) print_profile_tables(hub);
  if (args.has("reuse-warmup")) {
    std::cout << "warmup sharing: " << report.warmup_groups << " shared group(s), "
              << report.warmup_cycles_simulated << " warmup cycles simulated, "
              << report.warmup_cycles_saved << " saved\n";
  }

  if (args.has("json")) {
    std::ofstream out(args.get("json", ""));
    if (!out) {
      std::cerr << "cannot open " << args.get("json", "") << "\n";
      return 2;
    }
    core::write_sweep_json(out, "cli_sweep", report);
    std::cout << "JSON results written to " << args.get("json", "") << "\n";
  }
  if (args.has("trace")) {
    std::ofstream out(args.get("trace", ""));
    if (!out) {
      std::cerr << "cannot open " << args.get("trace", "") << "\n";
      return 2;
    }
    core::write_chrome_trace(out, report);
    std::cout << "Chrome trace written to " << args.get("trace", "")
              << " (open in ui.perfetto.dev)\n";
  }
  return 0;
}

}  // namespace

namespace {

int cmd_record(const Args& args) {
  if (!args.has("bench") || !args.has("out")) return usage();
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const u64 n = std::strtoull(args.get("instr", "100000").c_str(), nullptr, 10);
  workload::TraceGenerator gen(prof);
  const auto trace = workload::record_trace(gen, n);
  std::ofstream out(args.get("out", ""));
  if (!out) {
    std::cerr << "cannot open " << args.get("out", "") << "\n";
    return 2;
  }
  workload::write_trace(out, trace);
  std::cout << "wrote " << trace.size() << " instructions to " << args.get("out", "") << "\n";
  return 0;
}

int cmd_replay(const Args& args) {
  if (!args.has("trace") || !args.has("scheme")) return usage();
  const auto scheme = core::scheme_by_name(args.get("scheme", ""));
  if (!scheme) {
    std::cerr << "unknown scheme '" << args.get("scheme", "") << "'\n";
    return 2;
  }
  std::ifstream in(args.get("trace", ""));
  if (!in) {
    std::cerr << "cannot open " << args.get("trace", "") << "\n";
    return 2;
  }
  std::unique_ptr<workload::TraceFileSource> src;
  try {
    src = std::make_unique<workload::TraceFileSource>(in, /*loop=*/true);
  } catch (const workload::TraceFormatError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double vdd = std::strtod(args.get("vdd", "0.97").c_str(), nullptr);
  const core::RunnerConfig rc = runner_config(args);
  timing::PathModelConfig pcfg;
  pcfg.seed = std::strtoull(args.get("seed", "2013").c_str(), nullptr, 10);
  const timing::FaultModel fm(pcfg, vdd);
  core::TimingErrorPredictor tep(rc.tep, &fm.environment());
  cpu::Pipeline pipe(rc.core, *scheme, src.get(), &fm,
                     scheme->use_predictor ? &tep : nullptr);
  const cpu::PipelineResult pr = pipe.run(rc.instructions, rc.warmup);
  std::cout << "trace of " << src->size() << " instructions (looped): committed "
            << pr.committed << " in " << pr.cycles << " cycles (IPC "
            << TextTable::fmt(pr.ipc()) << "), " << pr.stats.count("fault.actual")
            << " faults, " << pr.stats.count("fault.replays") << " replays\n";
  return 0;
}

int cmd_snap_save(const Args& args) {
  if (!args.has("bench") || !args.has("scheme") || !args.has("out")) return usage();
  const auto scheme = core::scheme_by_name(args.get("scheme", ""));
  if (!scheme) {
    std::cerr << "unknown scheme '" << args.get("scheme", "") << "'\n";
    return 2;
  }
  workload::BenchmarkProfile prof;
  try {
    prof = workload::spec2006_profile(args.get("bench", ""));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double vdd = std::strtod(args.get("vdd", "0.97").c_str(), nullptr);
  const core::RunnerConfig rc = runner_config(args);
  const u64 at = args.has("at") ? std::strtoull(args.get("at", "").c_str(), nullptr, 10)
                                : rc.warmup;
  // Like run/sweep, the "fault-free" scheme name selects the baseline
  // wiring: no fault model, no predictors.
  const std::optional<cpu::SchemeConfig> scheme_opt =
      scheme->name == "fault-free" ? std::optional<cpu::SchemeConfig>{} : scheme;
  try {
    const core::ExperimentRunner runner(rc);
    const core::RunSnapshot snap = runner.capture(prof, scheme_opt, vdd, at);
    snap.write_file(args.get("out", ""));
    std::cout << "snapshot of " << prof.name << " / " << args.get("scheme", "") << " @ "
              << TextTable::fmt(vdd, 2) << " V at commit " << snap.meta().captured_committed
              << " (cycle " << snap.meta().captured_cycle << ") written to "
              << args.get("out", "") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_snap_info(const std::string& path) {
  snap::SnapshotInfo info;
  try {
    info = snap::read_snapshot_info(path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  std::cout << path << ": snapshot format v" << info.format_version << ", " << info.file_size
            << " bytes, endianness " << (info.endian_ok ? "ok" : "MISMATCH") << "\n";
  TextTable t({"chunk", "version", "bytes", "crc"});
  bool all_crc_ok = info.endian_ok;
  for (const snap::ChunkInfo& c : info.chunks) {
    all_crc_ok = all_crc_ok && c.crc_ok;
    char crc[32];
    std::snprintf(crc, sizeof crc, c.crc_ok ? "%08x" : "%08x MISMATCH", c.crc_stored);
    t.add_row({snap::tag_name(c.tag), std::to_string(c.version), std::to_string(c.size), crc});
  }
  std::cout << t.render("chunks") << "\n";
  if (!all_crc_ok) {
    std::cerr << "snapshot is damaged; it will be rejected on load\n";
    return 2;
  }
  try {
    const core::RunSnapshot s = core::RunSnapshot::read_file(path);
    const core::RunMeta& m = s.meta();
    TextTable mt({"field", "value"});
    mt.add_row({"benchmark", m.profile.name});
    mt.add_row({"scheme", m.fault_free ? "fault-free (baseline wiring)" : m.scheme.name});
    mt.add_row({"vdd", TextTable::fmt(m.vdd, 2)});
    mt.add_row({"warmup / instructions",
                std::to_string(m.warmup) + " / " + std::to_string(m.instructions)});
    mt.add_row({"captured at commit", std::to_string(m.captured_committed)});
    mt.add_row({"captured at cycle", std::to_string(m.captured_cycle)});
    mt.add_row({"measurement base", m.base_captured
                                        ? "captured (commit " + std::to_string(m.base_committed) + ")"
                                        : "pre-warmup (re-derived on resume)"});
    mt.add_row({"semantics checker", m.check_semantics ? "attached" : "off"});
    mt.add_row({"dvfs", m.dvfs.adaptive()
                            ? std::string(adapt::to_string(m.dvfs.policy)) + " (epoch " +
                                  std::to_string(m.dvfs.epoch) + ", period " +
                                  std::to_string(m.dvfs.period_min_permille) + "-" +
                                  std::to_string(m.dvfs.period_max_permille) + " permille)"
                            : "static"});
    char key[32];
    std::snprintf(key, sizeof key, "%016llx", static_cast<unsigned long long>(m.warmup_key));
    mt.add_row({"warmup key", key});
    std::cout << mt.render("META") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_sweep_merge(int argc, char** argv) {
  // Positional fragment paths plus --out; parsed by hand because the
  // generic parser only understands --key value pairs.
  std::vector<std::string> paths;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || out_path.empty()) return usage();
  try {
    std::vector<core::SweepFragment> fragments;
    fragments.reserve(paths.size());
    for (const std::string& p : paths) {
      std::ifstream in(p);
      if (!in) {
        std::cerr << "cannot open " << p << "\n";
        return 2;
      }
      fragments.push_back(core::read_fragment_json(in, p));
    }
    const std::string name = fragments.front().name;
    const core::SweepReport merged = core::merge_fragments(std::move(fragments));
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 2;
    }
    core::write_sweep_json(out, name, merged);
    char checksum[32];
    std::snprintf(checksum, sizeof checksum, "%016llx",
                  static_cast<unsigned long long>(core::sweep_checksum(merged)));
    std::cout << "merged " << paths.size() << " fragment(s) -> " << merged.jobs.size()
              << " jobs, checksum " << checksum << ", report written to " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string item = s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cmd_serve(const Args& args) {
  if (!args.has("listen")) return usage();
  try {
    serve::ServeConfig sc;
    sc.workers = std::strtoull(args.get("workers", "2").c_str(), nullptr, 10);
    sc.queue_limit = std::strtoull(args.get("queue", "8").c_str(), nullptr, 10);
    sc.cache_capacity = std::strtoull(args.get("cache", "32").c_str(), nullptr, 10);
    sc.max_cells_per_job = std::strtoull(args.get("max-cells", "1024").c_str(), nullptr, 10);
    sc.runner = runner_config(args);
    obs::ProfilerHub hub;
    if (args.has("profile")) sc.profiler_hub = &hub;
    serve::Server server(sc);
    const serve::Endpoint ep = serve::parse_endpoint(args.get("listen", ""));
    serve::SocketServer transport(server, ep);
    transport.start();
    // One parseable "ready" line (flushed) so scripts can wait on it.
    if (ep.kind == serve::Endpoint::Kind::kTcp) {
      std::cout << "vasim serve: listening on tcp:127.0.0.1:" << transport.resolved_port();
    } else {
      std::cout << "vasim serve: listening on unix:" << ep.path;
    }
    std::cout << " (" << sc.workers << " workers, queue " << sc.queue_limit << ", cache "
              << sc.cache_capacity << ")" << std::endl;
    transport.serve_until_shutdown();
    const StatSet s = server.stats();
    std::cout << "vasim serve: shut down after " << s.count("serve.jobs.submitted")
              << " jobs (" << s.count("serve.jobs.completed") << " done, "
              << s.count("serve.jobs.cancelled") << " cancelled, "
              << s.count("serve.jobs.failed") << " failed, "
              << s.count("serve.jobs.rejected") << " rejected); cache "
              << s.count("serve.cache.hit") << " hits / " << s.count("serve.cache.miss")
              << " misses, queue peak " << s.scalar("serve.queue.peak") << "\n";
    if (args.has("profile")) print_profile_tables(hub);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_loadgen(const Args& args) {
  if (!args.has("connect")) return usage();
  serve::LoadgenConfig lc;
  lc.endpoint = args.get("connect", "");
  lc.clients = std::strtoull(args.get("clients", "4").c_str(), nullptr, 10);
  lc.jobs_per_client = std::strtoull(args.get("jobs", "8").c_str(), nullptr, 10);
  lc.cells_per_job = std::strtoull(args.get("cells", "2").c_str(), nullptr, 10);
  lc.submit_interval_ms = std::strtod(args.get("interval", "5").c_str(), nullptr);
  lc.cancel_fraction = std::strtod(args.get("cancel-frac", "0").c_str(), nullptr);
  lc.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
  lc.instructions = std::strtoull(args.get("instr", "0").c_str(), nullptr, 10);
  lc.warmup = std::strtoull(args.get("warmup", "0").c_str(), nullptr, 10);
  if (args.has("benches")) lc.benches = split_csv(args.get("benches", ""));
  if (args.has("schemes")) lc.schemes = split_csv(args.get("schemes", ""));
  if (args.has("vdds")) {
    lc.vdds.clear();
    for (const std::string& v : split_csv(args.get("vdds", ""))) {
      lc.vdds.push_back(std::strtod(v.c_str(), nullptr));
    }
  }
  if (lc.benches.empty() || lc.schemes.empty() || lc.vdds.empty()) {
    std::cerr << "loadgen needs non-empty --benches/--schemes/--vdds\n";
    return 2;
  }
  lc.out_json = args.get("json", "BENCH_serve.json");
  try {
    const serve::LoadgenReport rep = serve::run_loadgen(lc);
    std::cout << serve::loadgen_summary(rep);
    if (!lc.out_json.empty()) {
      if (!serve::write_loadgen_json(lc.out_json, lc, rep)) {
        std::cerr << "cannot write " << lc.out_json << "\n";
        return 2;
      }
      copy_to_results(lc.out_json);
      std::cout << "loadgen report written to " << lc.out_json << "\n";
    }
    if (args.has("shutdown")) {
      serve::Client c(serve::parse_endpoint(lc.endpoint));
      const std::string reply = c.request("{\"op\":\"shutdown\"}");
      std::cout << "shutdown requested: " << reply << "\n";
    }
    // The mix itself is the check: inconsistent checksums, failed jobs or a
    // drain timeout make the exit status visible to CI.
    return rep.checksums_consistent && !rep.timed_out && rep.jobs_failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}

int cmd_snap(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string sub = argv[2];
  if (sub == "info") {
    if (argc != 4 || std::string(argv[3]).rfind("--", 0) == 0) return usage();
    return cmd_snap_info(argv[3]);
  }
  if (sub == "save") {
    Args a;
    a.command = "snap save";
    if (!parse_options(3, argc, argv, a)) return usage();
    return cmd_snap_save(a);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "snap") == 0) return cmd_snap(argc, argv);
    if (argc >= 2 && std::strcmp(argv[1], "sweep-merge") == 0) return cmd_sweep_merge(argc, argv);
    const auto args = parse(argc, argv);
    if (!args) return usage();
    if (args->command == "list") return cmd_list();
    if (args->command == "run") return cmd_run(*args);
    if (args->command == "sweep") return cmd_sweep(*args);
    if (args->command == "record") return cmd_record(*args);
    if (args->command == "replay") return cmd_replay(*args);
    if (args->command == "serve") return cmd_serve(*args);
    if (args->command == "loadgen") return cmd_loadgen(*args);
    return usage();
  } catch (const std::invalid_argument& e) {
    // Config validation (validate_core_config) reports the named
    // constraint; anything else is a real bug and may terminate.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
