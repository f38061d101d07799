// paper_grid and baseline_probe: the two in-process workloads.
//
// Both repeat their whole job mix ("a pass") while a further pass still fits
// in --seconds and report medians over the passes.  sim_mips counts CPU
// time, not wall time: on a shared host the wall clock also counts the time
// other processes hold the CPUs.  Correctness checks run after each job or
// pass, outside the timed region.
#include <algorithm>
#include <ctime>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <unistd.h>

#include "bench.hpp"
#include "src/obs/profiler.hpp"

namespace perfbench {

using namespace vasim;

namespace {

/// Checks one job against the reference table (default and held-out seeds
/// at full size) and the seed-independent invariants.
void check_job(const std::string& workload, const Options& opt, const RefTable& ref,
               const core::SweepJob& job, const core::RunResult& r, u64 instr, Outcome& out) {
  ++out.attempted;
  const std::string bad = check_invariants(r, instr, core::RunnerConfig{}.core.commit_width);
  if (!bad.empty()) return out.fail(bad);
  const std::string key = job_key(workload, opt.seed, job);
  const std::optional<u64> want = ref.find(key);
  if (!want) {
    // Every full-size job of the default and held-out seeds is in the table.
    if (!ref.empty()) out.fail("no reference checksum for " + key);
  } else if (*want != core::result_checksum(r)) {
    out.fail("checksum mismatch on " + key);
  }
}

/// The reference table when the run's jobs are in it (full size, default or
/// held-out seed), else an empty table.
RefTable load_reference(const Options& opt) {
  RefTable ref;
  if (!opt.smoke && (opt.seed == kDefaultSeed || opt.seed == kHeldOutSeed)) {
    if (opt.reference.empty()) throw std::runtime_error("seed needs --reference");
    ref.load(opt.reference);
  }
  return ref;
}

/// Runs passes while another one fits in the budget (always at least one).
template <typename Pass>
void run_passes(const Options& opt, Pass&& pass) {
  const auto start = Clock::now();
  double last = 0.0;
  do {
    last = pass();
  } while (secs(start, Clock::now()) + last <= opt.seconds);
}

/// Peak memory of this process so far.  Read once, after the first pass, so
/// the figure is "set up and run the mix once" whatever the host's speed.
double own_peak_rss_mb() { return peak_rss_mb(static_cast<long>(getpid())); }

/// CPU seconds used so far by this process (every thread) or this thread.
double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// `pass_cpu_s` is the CPU time of one pass (median over the passes) and
/// `instr` the instructions a pass simulates; `job_ms` holds every job's
/// wall time.
void common_metrics(Outcome& out, u64 instr, double pass_cpu_s, std::size_t passes,
                    const std::vector<double>& job_ms, const std::vector<double>& setup,
                    double rss, double ipc_err) {
  out.add("sim_mips", "Minst/cpu-s", static_cast<double>(instr) / pass_cpu_s / 1e6);
  out.add("setup_s", "s", median(setup));
  out.add("ipc_err_pct", "%", ipc_err);
  out.note("job_p50_ms", "ms", percentile(job_ms, 50));
  out.note("job_p90_ms", "ms", percentile(job_ms, 90));
  out.note("peak_rss_mb", "MB", rss);
  out.note("passes", "count", static_cast<double>(passes));
  out.note("jobs_timed", "count", static_cast<double>(job_ms.size()));
}

}  // namespace

Outcome run_paper_grid(const Options& opt) {
  if (opt.trace) return trace_paper_grid(opt);
  const Sizes sz = sizes(opt.smoke);
  Outcome out;
  const RefTable ref = load_reference(opt);

  // Each pass sets up from scratch: set-up runs from building the grid to
  // the first job's start inside SweepRunner::run (pool start included).
  std::vector<double> job_ms, setup, pass_cpu, pass_mips;
  u64 instr = 0;
  double rss = 0.0;
  std::optional<u64> first_checksum;
  std::vector<core::RunResult> last;
  run_passes(opt, [&] {
    const auto t0 = Clock::now();
    const std::vector<core::SweepJob> jobs = grid_jobs(opt.seed);
    core::SweepRunner sweeper(runner_config(sz.grid_instr, sz.grid_warmup), opt.workers);
    sweeper.set_batch(1);  // straight through: no batching, no warmup reuse
    const double pre_run_s = secs(t0, Clock::now());
    const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);  // this thread only waits in run()
    const core::SweepReport rep = sweeper.run(jobs);
    pass_cpu.push_back(cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    const u64 chk = core::sweep_checksum(rep);
    {
      std::ofstream json(opt.out_dir + "/paper_grid.sweep.json");
      core::write_sweep_json(json, "paper_grid", rep);
    }
    const double s = secs(t0, Clock::now());
    double first_start_ms = rep.wall_ms;
    instr = 0;
    last.clear();
    for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
      const core::RunResult& r = rep.jobs[i].result;
      first_start_ms = std::min(first_start_ms, rep.jobs[i].start_ms);
      instr += sz.grid_warmup + r.committed;
      job_ms.push_back(rep.jobs[i].wall_ms);
      check_job("paper_grid", opt, ref, jobs[i], r, sz.grid_instr, out);
      last.push_back(r);
    }
    setup.push_back(pre_run_s + first_start_ms / 1e3);
    pass_mips.push_back(static_cast<double>(instr) / s / 1e6);
    if (!first_checksum) {
      first_checksum = chk;
      rss = own_peak_rss_mb();
    }
    if (chk != *first_checksum) out.fail("sweep checksum changed between passes");
    return s;
  });

  std::vector<core::RunResult> ff;
  for (const core::RunResult& r : last) {
    if (r.scheme == "fault-free" && r.vdd == timing::SupplyPoints::kLowFault) ff.push_back(r);
  }
  common_metrics(out, instr, median(pass_cpu), pass_cpu.size(), job_ms, setup, rss,
                 ipc_err_pct(ff));
  out.note("fig4_ratio_err", "ratio", fig4_ratio_err(last));
  // The whole grid over its wall time at nproc workers (median pass).
  out.note("grid_wall_mips", "Minst/s", median(pass_mips));
  return out;
}

Outcome run_baseline_probe(const Options& opt) {
  if (opt.trace) return trace_baseline_probe(opt);
  const Sizes sz = sizes(opt.smoke);
  Outcome out;

  // Set-up: profiles and a profiled, timeline-sampling runner (the
  // `vasim run --profile --timeline` path), up to the runner's first result.
  // run_fault_free builds a job's generator, pipeline, timeline and profiler
  // inside the call, so that per-job set-up is timed as a one-instruction
  // job through the same configuration.
  const RefTable ref = load_reference(opt);
  std::vector<double> setup;
  std::vector<core::SweepJob> jobs;
  obs::ProfilerHub hub, setup_hub;
  std::optional<core::ExperimentRunner> runner;
  for (int i = 0; i < sz.setup_reps; ++i) {
    const auto t0 = Clock::now();
    jobs = probe_jobs(opt.seed);
    core::RunnerConfig rc = runner_config(sz.probe_instr, sz.probe_warmup);
    rc.profiler_hub = &hub;
    rc.timeline_interval = sz.timeline_interval;
    runner.emplace(rc);
    rc.instructions = 1;
    rc.warmup = 0;
    rc.profiler_hub = &setup_hub;
    const core::RunResult first =
        core::ExperimentRunner(rc).run_fault_free(jobs[0].profile, jobs[0].vdd);
    setup.push_back(secs(t0, Clock::now()));
    if (first.committed != 1) out.fail("one-instruction set-up job committed " +
                                       std::to_string(first.committed));
  }

  // One thread runs the jobs back to back, so a burst of host noise lands on
  // whichever job is running: take each job's median over the passes.
  std::vector<std::vector<double>> job_cpu(jobs.size());
  std::vector<double> job_ms;
  u64 instr = 0;
  double rss = 0.0;
  std::vector<core::RunResult> last;
  run_passes(opt, [&] {
    double s = 0.0;
    instr = 0;
    last.clear();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto t0 = Clock::now();
      const double cpu0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      core::RunResult r = runner->run_fault_free(jobs[i].profile, jobs[i].vdd);
      job_cpu[i].push_back(cpu_s(CLOCK_THREAD_CPUTIME_ID) - cpu0);
      const double job_s = secs(t0, Clock::now());
      s += job_s;
      job_ms.push_back(job_s * 1e3);
      instr += sz.probe_warmup + r.committed;
      check_job("baseline_probe", opt, ref, jobs[i], r, sz.probe_instr, out);
      if (!r.timeline || r.timeline->windows() == 0) out.fail("no timeline on " + r.benchmark);
      last.push_back(std::move(r));
    }
    if (rss == 0.0) rss = own_peak_rss_mb();
    return s;
  });
  if (hub.total().total_ns() == 0) out.fail("profiler hub recorded nothing");
  double cpu = 0.0;
  for (const std::vector<double>& t : job_cpu) cpu += median(t);
  common_metrics(out, instr, cpu, job_cpu[0].size(), job_ms, setup, rss, ipc_err_pct(last));
  return out;
}

}  // namespace perfbench
