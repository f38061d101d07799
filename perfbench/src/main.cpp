// perfbench: the vasim benchmark's measuring binary.
//
//   perfbench --workload paper_grid|baseline_probe|serve_mix --seed N
//             --seconds S [--trace 0|1] [--smoke]
//             [--vasim PATH] [--out DIR] [--reference FILE]
//   perfbench --regen-ref FILE
//
// Prints a human-readable report, then one JSON line with the metrics,
// attempted/failed counts and the first failures.  perfbench/run.py builds
// this binary and wraps it with host facts; see perfbench/README.md.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "src/obs/profiler.hpp"
#include "src/serve/json.hpp"

using namespace vasim;
using namespace perfbench;

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload paper_grid|baseline_probe|serve_mix --seed N\n"
               "                 --seconds S [--trace 0|1] [--smoke]\n"
               "                 [--vasim PATH] [--out DIR] [--reference FILE]\n"
               "       perfbench --regen-ref FILE\n";
  return 2;
}

std::string num(double v) {
  // Failed or refused serve jobs are +inf latencies: beyond any limit.
  if (!std::isfinite(v)) v = 1e12;
  return serve::json_double(v);
}

void print_metrics(std::ostream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? "," : "") << "\"" << ms[i].name << "\":{\"value\":" << num(ms[i].value)
       << ",\"unit\":\"" << ms[i].unit << "\"}";
  }
  os << "}";
}

}  // namespace

namespace perfbench {

int regenerate_reference(const Options& opt, const std::string& path) {
  const Sizes sz = sizes(false);
  RefTable ref;
  core::SweepRunner grid(runner_config(sz.grid_instr, sz.grid_warmup), opt.workers);
  grid.set_batch(1);
  obs::ProfilerHub hub;
  core::RunnerConfig probe_cfg = runner_config(sz.probe_instr, sz.probe_warmup);
  probe_cfg.profiler_hub = &hub;
  probe_cfg.timeline_interval = sz.timeline_interval;
  const core::ExperimentRunner probe(probe_cfg);
  for (const u64 seed : {kDefaultSeed, kHeldOutSeed}) {
    const std::vector<core::SweepJob> jobs = grid_jobs(seed);
    const std::vector<core::RunResult> rs = grid.run_results(jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ref.put(job_key("paper_grid", seed, jobs[i]), core::result_checksum(rs[i]));
    }
    for (const core::SweepJob& j : probe_jobs(seed)) {
      ref.put(job_key("baseline_probe", seed, j),
              core::result_checksum(probe.run_fault_free(j.profile, j.vdd)));
    }
  }
  const auto cells = serve_reference_jobs(sz);
  std::vector<core::SweepJob> jobs;
  for (const auto& [key, job] : cells) jobs.push_back(job);
  const std::vector<core::RunResult> rs = grid.run_results(jobs);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ref.put(cells[i].first, core::result_checksum(rs[i]));
  }
  ref.save(path);
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  // Every child and every library call must leave tracked files alone and
  // run the configuration the benchmark fixes, whatever the caller's
  // environment holds.
  setenv("VASIM_RESULTS", "0", 1);
  setenv("VASIM_JSON", "0", 1);
  unsetenv("VASIM_JOBS");
  unsetenv("VASIM_BATCH");

  Options opt;
  std::string regen;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = val();
      else if (a == "--seed") opt.seed = std::stoull(val());
      else if (a == "--seconds") opt.seconds = std::stod(val());
      else if (a == "--trace") opt.trace = val() == "1";
      else if (a == "--smoke") opt.smoke = true;
      else if (a == "--vasim") opt.vasim = val();
      else if (a == "--out") opt.out_dir = val();
      else if (a == "--reference") opt.reference = val();
      else if (a == "--regen-ref") regen = val();
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (!regen.empty()) return regenerate_reference(opt, regen);

  Outcome out;
  try {
    if (opt.workload == "paper_grid") out = run_paper_grid(opt);
    else if (opt.workload == "baseline_probe") out = run_baseline_probe(opt);
    else if (opt.workload == "serve_mix") out = run_serve_mix(opt);
    else return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }

  std::cout << "perfbench " << opt.workload << " seed " << opt.seed << " seconds " << opt.seconds
            << (opt.trace ? " traced" : "") << (opt.smoke ? " smoke" : "") << " workers "
            << opt.workers << "\n";
  for (const Metric& m : out.metrics) std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  for (const Metric& m : out.report) std::cout << "  (" << m.name << " = " << num(m.value) << " " << m.unit << ")\n";
  for (const std::string& e : out.errors) std::cout << "  FAILED: " << e << "\n";

  std::ostringstream js;
  js << "{\"workload\":\"" << opt.workload << "\",\"correct\":"
     << (out.failed == 0 ? "true" : "false") << ",\"attempted\":" << out.attempted
     << ",\"failed\":" << out.failed << ",\"metrics\":";
  print_metrics(js, out.metrics);
  js << ",\"report\":";
  print_metrics(js, out.report);
  js << ",\"errors\":[";
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    js << (i ? "," : "") << "\"" << serve::json_escape(out.errors[i]) << "\"";
  }
  js << "]}";
  std::cout << js.str() << std::endl;
  return 0;
}
