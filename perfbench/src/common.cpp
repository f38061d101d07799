#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "bench.hpp"
#include "src/common/rng.hpp"
#include "src/workload/profiles.hpp"

namespace perfbench {

using namespace vasim;

Sizes sizes(bool smoke) {
  if (smoke) {
    return {.grid_instr = 3'000, .grid_warmup = 1'000, .probe_instr = 3'000,
            .probe_warmup = 1'000, .cell_instr = 2'000, .cell_warmup = 1'000,
            .serve_jobs = 8, .serve_rate = 40.0, .timeline_interval = 1'000, .setup_reps = 3,
            .daemon_starts = 2};
  }
  // serve_rate is about half the daemon's capacity measured when the
  // benchmark was defined (4-CPU host, 3 workers); see perfbench/README.md.
  return {.grid_instr = 100'000, .grid_warmup = 50'000, .probe_instr = 100'000,
          .probe_warmup = 50'000, .cell_instr = 30'000, .cell_warmup = 30'000,
          .serve_jobs = 100, .serve_rate = 20.0, .timeline_interval = 10'000,
          .setup_reps = 25, .daemon_starts = 15};
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  double hwm_kb = 0.0, file_kb = 0.0;
  const auto field = [&](const char* name, double& kb) {
    const std::size_t n = std::char_traits<char>::length(name);
    if (line.compare(0, n, name) == 0) kb = std::strtod(line.c_str() + n, nullptr);
  };
  while (std::getline(in, line)) {
    field("VmHWM:", hwm_kb);
    double kb = 0.0;
    field("RssFile:", kb);
    field("RssShmem:", kb);
    file_kb += kb;
  }
  // Mapped file pages only grow while the process runs (unless the page
  // cache drops them), so the peak less today's file pages is the peak of
  // the process's own memory.
  return std::max(0.0, hwm_kb - file_kb) / 1024.0;  // kB -> MB
}

double process_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  double utime = 0.0, stime = 0.0;
  if (!(fields >> utime >> stime)) return -1.0;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void RefTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference table " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos) throw std::runtime_error("bad reference line: " + line);
    entries_[line.substr(0, tab)] = std::strtoull(line.c_str() + tab + 1, nullptr, 16);
  }
}

std::optional<u64> RefTable::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void RefTable::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# vasim benchmark checksum reference (core::result_checksum per job).\n"
         "# Regenerate only with: python3 perfbench/run.py --regen-ref (README.md).\n";
  for (const auto& [key, v] : entries_) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, static_cast<std::uint64_t>(v));
    out << key << '\t' << hex << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference table " + path);
}

workload::BenchmarkProfile perturb(workload::BenchmarkProfile p, u64 seed) {
  p.seed = hash_combine(p.seed, hash_mix(seed));
  return p;
}

std::vector<core::SweepJob> grid_jobs(u64 seed) {
  std::vector<core::SweepJob> jobs;
  for (const workload::BenchmarkProfile& base : workload::spec2006_profiles()) {
    const workload::BenchmarkProfile p = perturb(base, seed);
    for (const double vdd : {timing::SupplyPoints::kLowFault, timing::SupplyPoints::kHighFault}) {
      jobs.push_back({p, std::nullopt, vdd, std::nullopt});
      for (const cpu::SchemeConfig& s : core::comparative_schemes()) {
        jobs.push_back({p, s, vdd, std::nullopt});
      }
    }
  }
  return jobs;
}

std::vector<core::SweepJob> probe_jobs(u64 seed) {
  std::vector<core::SweepJob> jobs;
  for (const workload::BenchmarkProfile& p : workload::spec2006_profiles()) {
    jobs.push_back({perturb(p, seed), std::nullopt, timing::SupplyPoints::kNominal, {}});
  }
  return jobs;
}

std::string job_key(const std::string& workload, u64 seed, const core::SweepJob& job) {
  std::ostringstream os;
  os << workload << "/s" << seed << '/' << job.profile.name << '/'
     << (job.scheme ? job.scheme->name : std::string("fault-free")) << '/' << job.vdd;
  return os.str();
}

std::string check_invariants(const core::RunResult& r, u64 instr, int commit_width) {
  if (r.committed != instr) {
    return r.benchmark + "/" + r.scheme + ": committed " + std::to_string(r.committed) +
           " != " + std::to_string(instr);
  }
  const u64 slots = static_cast<u64>(r.cycles) * static_cast<u64>(commit_width);
  if (r.cpi.total() != slots) {
    return r.benchmark + "/" + r.scheme + ": cpi total " + std::to_string(r.cpi.total()) +
           " != cycles x width " + std::to_string(slots);
  }
  return {};
}

double ipc_err_pct(const std::vector<core::RunResult>& fault_free) {
  double sum = 0.0;
  for (const core::RunResult& r : fault_free) {
    const double paper = workload::spec2006_profile(r.benchmark).paper_ipc;
    sum += std::fabs(r.ipc - paper) / paper * 100.0;
  }
  return fault_free.empty() ? 0.0 : sum / static_cast<double>(fault_free.size());
}

double fig4_ratio_err(const std::vector<core::RunResult>& grid) {
  // grid_jobs order: per profile, per vdd, [fault-free, razor, ep, abs, ffs, cds].
  constexpr std::size_t kPerVdd = 6;
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = 0; i + kPerVdd <= grid.size(); i += kPerVdd) {
    if (grid[i].vdd != timing::SupplyPoints::kLowFault) continue;
    const core::RunResult& ff = grid[i];
    const double ep = core::overhead_vs(ff, grid[i + 2]).perf_pct;
    const double abs = core::overhead_vs(ff, grid[i + 3]).perf_pct;
    sum += ep > 0.0 ? std::max(0.0, abs) / ep : 0.0;  // bench_fig4_5's normalization
    ++n;
  }
  return n == 0 ? 0.0 : std::fabs(sum / n - 0.13);
}

}  // namespace perfbench
