// Shared pieces of the vasim benchmark binary: options, workload sizes,
// metric collection, percentiles, the checksum reference table and the
// job-mix builders every workload and the traced run draw from.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/sweep.hpp"

namespace perfbench {

using vasim::u64;
using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms(Clock::time_point a, Clock::time_point b) { return secs(a, b) * 1e3; }

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;           ///< tiny sizes for the benchmark's own tests
  std::string vasim = ".bench_build/vasim";  ///< CLI binary serve_mix spawns
  std::string out_dir = ".bench_out";        ///< the only place runs write
  std::string reference;        ///< checksum table (empty = none)
  std::size_t workers = std::max(1u, std::thread::hardware_concurrency());  ///< nproc
};

/// Per-job simulation sizes and the serve schedule.  Fixed by the benchmark
/// so parent and change always measure the same work.
struct Sizes {
  u64 grid_instr, grid_warmup;    // paper_grid and its traced replay
  u64 probe_instr, probe_warmup;  // baseline_probe
  u64 cell_instr, cell_warmup;    // serve_mix cells
  std::size_t serve_jobs;         // serve_mix jobs per pass of the schedule
  double serve_rate;              // serve_mix jobs per second (open loop)
  u64 timeline_interval;          // baseline_probe sampling grain
  int setup_reps;                 // baseline_probe set-ups per run (median)
  int daemon_starts;              // serve_mix daemon set-ups per run (median)
};
Sizes sizes(bool smoke);

/// Named value with its unit, printed by name.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run produced.  `metrics` is BENCHMARK.json's metric
/// set (end-to-end without --trace, per-layer with it); `report` holds the
/// extra report-only figures (error_frac, fig4_ratio_err, host-side counts).
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions

  void add(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  void note(const std::string& name, const std::string& unit, double v) {
    report.push_back({name, unit, v});
  }
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Peak resident set (VmHWM) of `pid` less its file-backed pages, in MB:
/// how many of a binary's and its libraries' pages stay mapped depends on
/// the host's page cache, not on the program.  0 when unreadable.
double peak_rss_mb(long pid);

/// CPU seconds (user + system, every thread) `pid` has used so far; the
/// kernel reports them in clock ticks.  -1 when unreadable.
double process_cpu_s(long pid);

/// Checksum reference table: `key<TAB>hex` lines.  Written only by the
/// explicit regenerate step (`perfbench --regen-ref FILE`).
class RefTable {
 public:
  void load(const std::string& path);
  [[nodiscard]] std::optional<u64> find(const std::string& key) const;
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  void put(const std::string& key, u64 v) { entries_[key] = v; }
  void save(const std::string& path) const;

 private:
  std::map<std::string, u64> entries_;
};

/// The workload seed perturbs every profile's trace seed; the simulator
/// only ever sees the resulting profiles.
vasim::workload::BenchmarkProfile perturb(vasim::workload::BenchmarkProfile p, u64 seed);

/// paper_grid's 144 jobs: 12 profiles x {1.04, 0.97} V x {fault-free, razor,
/// ep, abs, ffs, cds}, the grid of `vasim sweep --bench all`.
std::vector<vasim::core::SweepJob> grid_jobs(u64 seed);

/// baseline_probe's 12 jobs: every profile fault-free at 1.10 V.
std::vector<vasim::core::SweepJob> probe_jobs(u64 seed);

/// Stable reference-table key of one job.
std::string job_key(const std::string& workload, u64 seed, const vasim::core::SweepJob& job);

/// Structural checks any correct result passes, whatever the seed:
/// the measured window committed exactly `instr`, and the CPI stack
/// accounts for every commit slot.  Empty string when it passes.
std::string check_invariants(const vasim::core::RunResult& r, u64 instr, int commit_width);

/// Mean absolute % error of fault-free IPC against the paper's Table 1.
double ipc_err_pct(const std::vector<vasim::core::RunResult>& fault_free);

/// |mean ABS/EP performance-overhead ratio at 1.04 V - 0.13| (Figure 4)
/// over a grid's results in grid_jobs order.
double fig4_ratio_err(const std::vector<vasim::core::RunResult>& grid);

// Workloads.  Each returns its end-to-end metrics, or with opt.trace its
// per-layer metrics.
Outcome run_paper_grid(const Options& opt);
Outcome run_baseline_probe(const Options& opt);
Outcome run_serve_mix(const Options& opt);

// Per-layer pieces (traced.cpp).
Outcome trace_paper_grid(const Options& opt);
Outcome trace_baseline_probe(const Options& opt);

/// RunnerConfig with the benchmark's sizes and every other knob at its
/// default (the configuration `vasim sweep` and `vasim serve` use).
vasim::core::RunnerConfig runner_config(u64 instr, u64 warmup);

/// Turns per-layer values into the full per-layer metric list (zero for a
/// layer the workload does not exercise); empties it when any check failed.
Outcome finish_layers(const std::map<std::string, double>& values, Outcome out);

/// serve_mix's standalone reference jobs, keyed like the reference table.
std::vector<std::pair<std::string, vasim::core::SweepJob>> serve_reference_jobs(const Sizes& sz);

/// serve_mix's in-process layers (snap, adapt, replay of the static cells),
/// added to `values`.
void trace_serve_layers(const Options& opt, const std::vector<vasim::core::SweepJob>& cells,
                        std::map<std::string, double>& values, Outcome& out);

/// Writes the checksum reference table for the default and held-out seeds.
int regenerate_reference(const Options& opt, const std::string& path);

inline constexpr u64 kDefaultSeed = 1;
inline constexpr u64 kHeldOutSeed = 2;

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
