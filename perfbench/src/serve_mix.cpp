// serve_mix: an open loop against a fresh `vasim serve` daemon.
//
// One generator thread on two connections (one submits, one polls) sends a
// seeded schedule of 2-cell jobs at a fixed rate.  Latency runs from each
// job's *scheduled* send time to the poll that sees it finish, so a stalled
// generator or a full queue shows as latency, not as less offered load.
// The schedule is replayed in passes: an untimed first pass fills the
// daemon's snapshot cache, then timed passes repeat while another fits in
// --seconds.  sim_mips is the daemon's CPU time per simulated instruction,
// median over the timed passes.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <limits>
#include <map>
#include <poll.h>
#include <set>
#include <stdexcept>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "src/common/rng.hpp"
#include "src/serve/json.hpp"
#include "src/serve/socket.hpp"
#include "src/workload/profiles.hpp"

namespace perfbench {

using namespace vasim;

namespace {

constexpr double kPredictiveShare = 0.25;  // jobs that set dvfs: predictive
constexpr double kDrainTimeoutS = 60.0;

const std::vector<std::string> kBenches = {"bzip2", "gcc", "mcf"};
const std::vector<std::string> kSchemes = {"fault-free", "abs", "razor"};
const std::vector<double> kVdds = {1.04, 0.97};

/// A `vasim serve` child process.  The destructor kills and reaps it if it
/// is still running, so no exit path leaves a daemon behind.
class Daemon {
 public:
  Daemon(const Options& opt, const Sizes& sz, int index) {
    socket_ = opt.out_dir + "/serve-" + std::to_string(getpid()) + "-" +
              std::to_string(index) + ".sock";
    const std::size_t workers = std::max<std::size_t>(1, opt.workers - 1);
    std::vector<std::string> args = {opt.vasim,
                                     "serve",
                                     "--listen",
                                     "unix:" + socket_,
                                     "--workers",
                                     std::to_string(workers),
                                     "--queue",
                                     "64",
                                     "--cache",
                                     "32",
                                     "--instr",
                                     std::to_string(sz.cell_instr),
                                     "--warmup",
                                     std::to_string(sz.cell_warmup)};
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    // Wait for the flushed ready line.
    std::string line;
    const auto t0 = Clock::now();
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      const int left = static_cast<int>(30'000 - ms(t0, Clock::now()));
      if (left <= 0 || poll(&p, 1, left) <= 0) throw std::runtime_error("daemon not ready");
      char buf[256];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("daemon exited before ready: " + line);
      line.append(buf, static_cast<std::size_t>(n));
    }
    if (line.find("listening on") == std::string::npos) {
      throw std::runtime_error("unexpected daemon banner: " + line);
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
    unlink(socket_.c_str());
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] serve::Endpoint endpoint() const { return serve::parse_endpoint("unix:" + socket_); }
  [[nodiscard]] long pid() const { return pid_; }

  /// Asks the daemon to shut down and reaps it; returns its exit status.
  int shutdown(serve::Client& c) {
    (void)c.request(R"({"op":"shutdown"})");
    const auto t0 = Clock::now();
    int status = 0;
    while (secs(t0, Clock::now()) < 30.0) {
      // Drain the summary so a full pipe can never block the daemon's exit.
      char buf[512];
      while (true) {
        pollfd p{out_fd_, POLLIN, 0};
        if (poll(&p, 1, 0) <= 0 || read(out_fd_, buf, sizeof buf) <= 0) break;
      }
      const pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;  // the destructor kills it
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

struct Cell {
  std::string bench, scheme;
  double vdd = 0.0;
};

struct PlannedJob {
  double due_s = 0.0;
  std::vector<Cell> cells;
  bool predictive = false;
};

std::vector<PlannedJob> schedule(u64 seed, std::size_t n, double rate) {
  Pcg32 rng(hash_mix(seed), 0x5e7e);
  std::vector<PlannedJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i].due_s = static_cast<double>(i) / rate;
    for (int c = 0; c < 2; ++c) {
      jobs[i].cells.push_back({kBenches[rng.next_below(3)], kSchemes[rng.next_below(3)],
                               kVdds[rng.next_below(2)]});
    }
    jobs[i].predictive = rng.next_double() < kPredictiveShare;
  }
  return jobs;
}

std::string submit_frame(const PlannedJob& j) {
  std::ostringstream os;
  os << R"({"op":"submit","cells":[)";
  for (std::size_t i = 0; i < j.cells.size(); ++i) {
    os << (i ? "," : "") << R"({"bench":")" << j.cells[i].bench << R"(","scheme":")"
       << j.cells[i].scheme << R"(","vdd":)" << serve::json_double(j.cells[i].vdd) << "}";
  }
  os << "]" << (j.predictive ? R"(,"dvfs":"predictive")" : "") << "}";
  return os.str();
}

/// Identity of a served cell for the standalone comparison: the dvfs policy
/// only reaches scheme cells.
std::string cell_key(const std::string& bench, const std::string& scheme, double vdd,
                     bool predictive) {
  std::ostringstream os;
  os << "serve_mix/" << bench << '/' << scheme << '/' << vdd << '/'
     << (predictive && scheme != "fault-free" ? "predictive" : "static");
  return os.str();
}

u64 parse_hex(const std::string& s) { return std::strtoull(s.c_str(), nullptr, 16); }

struct Live {
  std::size_t index = 0;
  u64 id = 0;
  std::size_t seen = 0;
  double exec_ms = 0.0;
  u64 instr = 0;
};

/// Every served cell's checksum and fault-free IPC, over all passes.
struct Served {
  std::map<std::string, std::set<u64>> checksums;  // cell key -> checksums seen
  std::map<std::string, double> ff_ipc;            // bench -> fault-free IPC
};

/// What one pass of the schedule produced, per job in schedule order.
struct Pass {
  std::vector<double> latency;  // ms from scheduled send to done; inf if it failed
  std::vector<double> exec;     // Σ cell wall_ms: the daemon's simulation time
  std::vector<double> rtt, lag;
  u64 instr = 0;                // simulated instructions (a warm hit skips the warmup)
  double daemon_cpu_s = 0.0;    // CPU time the daemon used during the pass
  std::size_t refused = 0, polls = 0;
};

/// Sends the schedule once, open loop, and waits until every job is done.
Pass run_pass(const std::vector<PlannedJob>& plan, const Sizes& sz, long daemon_pid,
              serve::Client& submit_conn, serve::Client& poll_conn, Served& served,
              Outcome& out) {
  const double inf = std::numeric_limits<double>::infinity();
  Pass pass;
  pass.latency.assign(plan.size(), inf);
  pass.exec.assign(plan.size(), inf);
  const double cpu0 = process_cpu_s(daemon_pid);
  std::size_t next = 0, rr = 0;
  std::vector<Live> live;
  out.attempted += plan.size();
  const auto t0 = Clock::now();
  const auto now_s = [&] { return secs(t0, Clock::now()); };

  while (next < plan.size() || !live.empty()) {
    if (now_s() > plan.back().due_s + kDrainTimeoutS) break;
    if (next < plan.size() && now_s() >= plan[next].due_s) {
      const PlannedJob& j = plan[next];
      const double sent = now_s();
      pass.lag.push_back((sent - j.due_s) * 1e3);
      const std::string reply = submit_conn.request(submit_frame(j));
      pass.rtt.push_back((now_s() - sent) * 1e3);
      const serve::JsonValue v = serve::parse_json(reply);
      const serve::JsonValue* ok = v.find("ok");
      if (ok != nullptr && ok->boolean) {
        live.push_back({next, v.find("job")->as_u64(), 0, 0.0, 0});
      } else {
        const serve::JsonValue* err = v.find("error");
        if (err != nullptr && err->str == "queue_full") ++pass.refused;
        out.fail("submit refused: " + reply);
      }
      ++next;
      continue;
    }
    if (!live.empty()) {
      Live& l = live[rr++ % live.size()];
      const std::string reply = poll_conn.request(
          R"({"op":"poll","job":)" + std::to_string(l.id) + R"(,"since":)" +
          std::to_string(l.seen) + "}");
      ++pass.polls;
      const double seen_at = now_s();
      const serve::JsonValue v = serve::parse_json(reply);
      const PlannedJob& j = plan[l.index];
      const serve::JsonValue* results = v.find("results");
      if (results == nullptr) {
        out.fail("poll refused: " + reply);
        l = live.back();
        live.pop_back();
        continue;
      }
      for (const serve::JsonValue& c : results->array) {
        ++l.seen;
        if (c.find("cancelled")->boolean) continue;
        const std::string scheme = c.find("scheme")->str;
        const std::string bench = c.find("benchmark")->str;
        l.exec_ms += c.find("wall_ms")->number;
        const u64 committed = c.find("committed")->as_u64();
        l.instr += committed + (c.find("warm_hit")->boolean ? 0 : sz.cell_warmup);
        if (committed != sz.cell_instr) out.fail("cell committed short: " + bench);
        served.checksums[cell_key(bench, scheme, c.find("vdd")->number, j.predictive)].insert(
            parse_hex(c.find("checksum")->str));
        if (scheme == "fault-free") served.ff_ipc[bench] = c.find("ipc")->number;
      }
      const std::string state = v.find("state")->str;
      if (state == "done" || state == "failed" || state == "cancelled") {
        if (state == "done" && l.seen == j.cells.size()) {
          pass.latency[l.index] = (seen_at - j.due_s) * 1e3;
          pass.exec[l.index] = l.exec_ms;
          pass.instr += l.instr;
        } else {
          out.fail("job " + std::to_string(l.id) + " ended " + state);
        }
        l = live.back();
        live.pop_back();
        continue;
      }
    }
    // Poll about every millisecond, but never sleep past the next due time.
    double wait = 1e-3;
    if (next < plan.size()) wait = std::min(wait, plan[next].due_s - now_s());
    if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
  for (const Live& l : live) out.fail("job " + std::to_string(l.id) + " timed out");
  pass.daemon_cpu_s = process_cpu_s(daemon_pid) - cpu0;
  if (cpu0 < 0.0 || pass.daemon_cpu_s <= 0.0) out.fail("daemon CPU time unreadable");
  return pass;
}

}  // namespace

std::vector<std::pair<std::string, core::SweepJob>> serve_reference_jobs(const Sizes& sz) {
  std::vector<std::pair<std::string, core::SweepJob>> out;
  for (const std::string& b : kBenches) {
    for (const std::string& s : kSchemes) {
      for (const double v : kVdds) {
        for (const bool pred : {false, true}) {
          if (pred && s == "fault-free") continue;
          core::RunnerConfig rc = runner_config(sz.cell_instr, sz.cell_warmup);
          if (pred) rc.dvfs.policy = adapt::DvfsPolicy::kPredictive;
          std::optional<cpu::SchemeConfig> scheme;
          if (s != "fault-free") scheme = core::scheme_by_name(s);
          out.push_back({cell_key(b, s, v, pred),
                         core::SweepJob{workload::spec2006_profile(b), scheme, v, rc}});
        }
      }
    }
  }
  return out;
}

Outcome run_serve_mix(const Options& opt) {
  const Sizes sz = sizes(opt.smoke);
  Outcome out;
  // The table holds every full-size cell, whatever the seed.
  RefTable ref;
  if (!opt.smoke) {
    if (opt.reference.empty()) throw std::runtime_error("serve_mix needs --reference");
    ref.load(opt.reference);
  }

  // Set-up: daemon start to ready, plus both client connections.  Repeated
  // with throwaway daemons; the last one serves the run.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  std::optional<serve::Client> submit_conn, poll_conn;
  for (int i = 0; i < sz.daemon_starts; ++i) {
    if (daemon) {
      daemon->shutdown(*submit_conn);
      submit_conn.reset();
      poll_conn.reset();
    }
    const auto t0 = Clock::now();
    daemon = std::make_unique<Daemon>(opt, sz, i);
    submit_conn.emplace(daemon->endpoint());
    poll_conn.emplace(daemon->endpoint());
    setup.push_back(secs(t0, Clock::now()));
  }
  const std::vector<PlannedJob> plan = schedule(opt.seed, sz.serve_jobs, sz.serve_rate);
  Served served;
  run_pass(plan, sz, daemon->pid(), *submit_conn, *poll_conn, served, out);  // fills the cache

  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  double last = 0.0;
  do {
    const auto p0 = Clock::now();
    passes.push_back(run_pass(plan, sz, daemon->pid(), *submit_conn, *poll_conn, served, out));
    last = secs(p0, Clock::now());
  } while (secs(t0, Clock::now()) + last <= opt.seconds);

  const double inf = std::numeric_limits<double>::infinity();  // failed or refused: over any limit
  std::vector<double> latency, pass_mips;
  std::size_t refused = 0, polls = 0;
  for (const Pass& p : passes) {
    latency.insert(latency.end(), p.latency.begin(), p.latency.end());
    pass_mips.push_back(static_cast<double>(p.instr) / p.daemon_cpu_s / 1e6);
    refused += p.refused;
    polls += p.polls;
  }

  const serve::JsonValue stats = serve::parse_json(poll_conn->request(R"({"op":"stats"})"));
  const double rss = peak_rss_mb(daemon->pid());
  const int rc = daemon->shutdown(*submit_conn);
  if (rc != 0) out.fail("daemon exit status " + std::to_string(rc));

  // Correctness: every served cell must match the standalone ExperimentRunner
  // checksum for the same cell (and the reference table at full size).
  const auto refs = serve_reference_jobs(sz);
  std::vector<core::SweepJob> jobs;
  for (const auto& [key, job] : refs) jobs.push_back(job);
  core::SweepRunner sweeper(runner_config(sz.cell_instr, sz.cell_warmup), opt.workers);
  sweeper.set_batch(1);
  const std::vector<core::RunResult> standalone = sweeper.run_results(jobs);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto it = served.checksums.find(refs[i].first);
    if (it == served.checksums.end()) continue;
    const u64 want = core::result_checksum(standalone[i]);
    if (it->second.size() != 1 || *it->second.begin() != want) {
      out.fail("served checksum differs from standalone on " + refs[i].first);
    }
    const std::optional<u64> r = ref.find(refs[i].first);
    if (!r && !ref.empty()) out.fail("no reference checksum for " + refs[i].first);
    if (r && *r != want) {
      out.fail("standalone checksum differs from reference on " + refs[i].first);
    }
  }

  double ipc_err = 0.0;
  for (const auto& [bench, ipc] : served.ff_ipc) {
    const double paper = workload::spec2006_profile(bench).paper_ipc;
    ipc_err += std::fabs(ipc - paper) / paper * 100.0;
  }
  ipc_err = served.ff_ipc.empty() ? 0.0 : ipc_err / static_cast<double>(served.ff_ipc.size());
  const serve::JsonValue* cache = stats.find("cache");
  const double hit = cache != nullptr ? cache->find("hit_rate")->number : 0.0;

  const double timed_jobs = static_cast<double>(plan.size() * passes.size());
  if (!opt.trace) {
    // Served instructions over the CPU time the daemon spent serving them,
    // not over the window: the schedule fixes the window, not the speed.
    out.add("sim_mips", "Minst/cpu-s", median(pass_mips));
    out.add("setup_s", "s", median(setup));
    out.add("ipc_err_pct", "%", ipc_err);
    out.note("job_p50_ms", "ms", percentile(latency, 50));
    out.note("job_p90_ms", "ms", percentile(latency, 90));
    out.note("peak_rss_mb", "MB", rss);
    out.note("passes", "count", static_cast<double>(passes.size()));
    out.note("jobs_per_pass", "count", static_cast<double>(plan.size()));
    out.note("rate", "1/s", sz.serve_rate);
    out.note("cache_hit_frac", "frac", hit);
    out.note("queue_full", "count", static_cast<double>(refused));
    return out;
  }

  std::vector<double> rtt, lag, wait, exec_done;
  for (const Pass& p : passes) {
    rtt.insert(rtt.end(), p.rtt.begin(), p.rtt.end());
    lag.insert(lag.end(), p.lag.begin(), p.lag.end());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (p.latency[i] == inf) continue;
      exec_done.push_back(p.exec[i]);
      wait.push_back(std::max(0.0, p.latency[i] - p.exec[i]));
    }
  }
  std::map<std::string, double> values = {
      {"serve.submit_rtt_ms_p50", percentile(rtt, 50)},
      {"serve.exec_ms_p50", percentile(exec_done, 50)},
      {"serve.queue_wait_ms_p50", percentile(wait, 50)},
      {"serve.queue_wait_ms_p90", percentile(wait, 90)},
      {"serve.cache_hit_frac", hit},
      {"serve.polls_per_job", static_cast<double>(polls) / timed_jobs},
      {"serve.queue_full_frac", static_cast<double>(refused) / timed_jobs},
      {"gen.lag_ms_max", percentile(lag, 100)},
  };
  std::vector<core::SweepJob> static_cells;
  for (const auto& [key, job] : refs) {
    if (job.config->dvfs.policy == adapt::DvfsPolicy::kStatic) static_cells.push_back(job);
  }
  trace_serve_layers(opt, static_cells, values, out);
  return finish_layers(values, std::move(out));
}

}  // namespace perfbench
