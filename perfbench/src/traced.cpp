// The traced run: per-layer metrics, measured from outside the program.
//
// Each job of a workload's mix is replayed single-threaded twice: once
// through core::ExperimentRunner (the untraced reference) and once through a
// pipeline built directly, the way tools/kernel_probe.cpp builds one, with a
// timing wrapper around the isa::InstructionSource and one around the
// cpu::FaultPredictor.  The traced job must reproduce the reference's
// committed/cycles exactly, or no per-layer number is reported.  Spans (name,
// start, end, parent, job) stay in memory and are written once at the end.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "src/core/snapshot.hpp"
#include "src/obs/profiler.hpp"
#include "src/snap/format.hpp"
#include "src/timing/fault_model.hpp"
#include "src/workload/trace_generator.hpp"

namespace perfbench {

using namespace vasim;

namespace {

// One call in kSampleEvery is timed; every call is counted.  Timing each
// call would double the cost of the cheap ones.
constexpr u64 kSampleEvery = 16;
constexpr std::size_t kQueryRecord = 100'000;

double clock_read_ns() {
  std::vector<double> v;
  for (int i = 0; i < 2001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return median(v);
}

struct Sampled {
  u64 calls = 0;
  u64 samples = 0;
  double ns = 0.0;
  void add(Clock::time_point a, Clock::time_point b) {
    ns += std::chrono::duration<double, std::nano>(b - a).count();
    ++samples;
  }
  [[nodiscard]] bool due() { return ++calls % kSampleEvery == 0; }
  void merge(const Sampled& o) {
    calls += o.calls;
    samples += o.samples;
    ns += o.ns;
  }
  /// Mean per-call cost with the clock's own read cost removed.
  [[nodiscard]] double mean_ns(double clock_ns) const {
    return samples == 0 ? 0.0 : std::max(0.0, ns / static_cast<double>(samples) - clock_ns);
  }
};

struct OracleRec {
  Pc pc;
  isa::OpClass op;
};

class TimedSource final : public isa::InstructionSource {
 public:
  TimedSource(isa::InstructionSource* inner, std::vector<OracleRec>* record)
      : inner_(inner), record_(record) {}
  bool next(isa::DynInst& out) override {
    bool ok = false;
    if (stat.due()) {
      const auto a = Clock::now();
      ok = inner_->next(out);
      stat.add(a, Clock::now());
    } else {
      ok = inner_->next(out);
    }
    if (record_ != nullptr && record_->size() < kQueryRecord) record_->push_back({out.pc, out.op});
    return ok;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Sampled stat;

 private:
  isa::InstructionSource* inner_;
  std::vector<OracleRec>* record_;
};

class TimedPredictor final : public cpu::FaultPredictor {
 public:
  explicit TimedPredictor(cpu::FaultPredictor* inner) : inner_(inner) {}
  cpu::FaultPrediction predict(Pc pc, u64 history, Cycle now) override {
    if (!predict_stat.due()) return inner_->predict(pc, history, now);
    const auto a = Clock::now();
    const cpu::FaultPrediction p = inner_->predict(pc, history, now);
    predict_stat.add(a, Clock::now());
    return p;
  }
  void train(Pc pc, u64 history, bool faulty, timing::OooStage stage) override {
    if (!train_stat.due()) return inner_->train(pc, history, faulty, stage);
    const auto a = Clock::now();
    inner_->train(pc, history, faulty, stage);
    train_stat.add(a, Clock::now());
  }
  void mark_critical(Pc pc, u64 history, bool critical) override {
    inner_->mark_critical(pc, history, critical);
  }
  Sampled predict_stat;
  Sampled train_stat;

 private:
  cpu::FaultPredictor* inner_;
};

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  int job = -1;
};

class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}
  int open(const std::string& name, int parent, int job) {
    spans_.push_back({name, us(Clock::now()), 0.0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = us(Clock::now());
    return (s.end_us - s.start_us) / 1e3;  // ms
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
          << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent << ",\"job\":" << s.job
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - t0_).count();
  }
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Sums over the replayed jobs, turned into metrics by replay().
struct Layers {
  double clock_ns = clock_read_ns();
  SpanLog log;
  std::vector<double> construct_ms, run_ms;
  double traced_ms = 0.0, reference_ms = 0.0;
  // cpu self time (step loop minus the sampled source/predictor time) and
  // whole-run commits, split by scheme.
  double self_ns_ff = 0.0, self_ns_abs = 0.0;
  u64 commits_ff = 0, commits_abs = 0;
  std::map<std::string, std::pair<double, double>> per_ns_by_cell;  // (ff, abs) ns/inst
  Sampled next, predict, train;
  u64 fetched = 0, commits_all = 0, commits_pred = 0;
  double query_ns = 0.0;
  u64 queries = 0, query_faulty = 0;
  // Measured-window counts (identical between reference and traced wiring).
  u64 committed = 0, cycles = 0, issued = 0, replays = 0, squashes = 0, blocked = 0;
  u64 scheme_committed = 0, faults = 0;
  u64 pred_committed = 0, handled = 0, actual = 0, false_pos = 0;
  u64 mismatches = 0;
};

cpu::SchemeConfig scheme_of(const core::SweepJob& job) {
  return job.scheme ? *job.scheme : cpu::scheme_fault_free();
}

void replay_job(const core::RunnerConfig& cfg, const core::SweepJob& job, int id, Layers& L,
                Outcome& out) {
  const int root = L.log.open("job", -1, id);
  const core::ExperimentRunner runner(cfg);
  int s = L.log.open("runner.run", root, id);
  const core::RunResult ref = job.scheme ? runner.run(job.profile, *job.scheme, job.vdd)
                                         : runner.run_fault_free(job.profile, job.vdd);
  const double ref_ms = L.log.close(s);

  const cpu::SchemeConfig scheme = scheme_of(job);
  const bool faulty = job.scheme.has_value();
  std::vector<OracleRec> record;
  record.reserve(faulty ? kQueryRecord : 0);

  s = L.log.open("runner.construct", root, id);
  workload::TraceGenerator gen(job.profile);
  TimedSource src(&gen, faulty ? &record : nullptr);
  std::optional<timing::FaultModel> fm;
  std::optional<core::TimingErrorPredictor> tep;
  std::optional<TimedPredictor> pred;
  if (faulty) {
    timing::PathModelConfig path_cfg;
    path_cfg.seed = job.profile.seed;
    path_cfg.p_faulty_high = job.profile.fr_high_pct / 100.0 * job.profile.fr_calib_high;
    path_cfg.p_faulty_low = job.profile.fr_low_pct / 100.0 * job.profile.fr_calib_low;
    fm.emplace(path_cfg, job.vdd);
    tep.emplace(cfg.tep, &fm->environment());
    if (scheme.use_predictor) pred.emplace(&*tep);
  }
  cpu::Pipeline pipe(cfg.core, scheme, &src, fm ? &*fm : nullptr, pred ? &*pred : nullptr);
  const double construct_ms = L.log.close(s);

  // The phase structure of ExperimentRunner's run loop: warmup under its
  // own commit limit, read the measurement base, then measure.
  s = L.log.open("cpu.step.warmup", root, id);
  pipe.set_commit_limit(cfg.warmup);
  while (pipe.committed() < cfg.warmup && pipe.step()) {
  }
  double step_ms = L.log.close(s);
  const StatSet base = pipe.snapshot_stats();
  const u64 base_committed = pipe.committed();
  const Cycle base_cycles = pipe.now();
  s = L.log.open("cpu.step.measure", root, id);
  pipe.set_commit_limit(cfg.warmup + cfg.instructions);
  while (pipe.committed() < cfg.warmup + cfg.instructions && pipe.step()) {
  }
  step_ms += L.log.close(s);
  const cpu::PipelineResult pr = pipe.result_window(base, base_committed, base_cycles);

  if (pr.committed != ref.committed || pr.cycles != ref.cycles) {
    ++L.mismatches;
    out.fail("traced wiring diverged on " + job.profile.name + "/" + scheme.name + ": committed " +
             std::to_string(pr.committed) + " cycles " + std::to_string(pr.cycles) +
             " vs runner " + std::to_string(ref.committed) + "/" + std::to_string(ref.cycles));
  }

  double child_ns = static_cast<double>(src.stat.calls) * src.stat.mean_ns(L.clock_ns);
  if (pred) {
    child_ns += static_cast<double>(pred->predict_stat.calls) * pred->predict_stat.mean_ns(L.clock_ns);
    child_ns += static_cast<double>(pred->train_stat.calls) * pred->train_stat.mean_ns(L.clock_ns);
    L.predict.merge(pred->predict_stat);
    L.train.merge(pred->train_stat);
    L.commits_pred += pipe.committed();
  }
  const double self_ns = std::max(0.0, step_ms * 1e6 - child_ns);
  const double per_inst = self_ns / static_cast<double>(std::max<u64>(1, pipe.committed()));
  auto& cell = L.per_ns_by_cell[job.profile.name + "@" + std::to_string(job.vdd)];
  if (!faulty) {
    L.self_ns_ff += self_ns;
    L.commits_ff += pipe.committed();
    cell.first = per_inst;
  } else if (scheme.name == "abs") {
    L.self_ns_abs += self_ns;
    L.commits_abs += pipe.committed();
    cell.second = per_inst;
  }
  L.next.merge(src.stat);
  L.fetched += src.stat.calls;
  L.commits_all += pipe.committed();

  if (faulty && fm->enabled()) {
    // The fault oracle over the recorded PC/class stream.
    s = L.log.open("timing.query", root, id);
    u64 hits = 0;
    for (std::size_t i = 0; i < record.size(); ++i) {
      const timing::FaultClass cls = isa::is_mem(record[i].op) ? timing::FaultClass::kMemLike
                                                               : timing::FaultClass::kAluLike;
      hits += fm->query(record[i].pc, cls, static_cast<Cycle>(i)).faulty ? 1 : 0;
    }
    L.query_ns += L.log.close(s) * 1e6;
    L.queries += record.size();
    L.query_faulty += hits;
  }
  L.log.close(root);

  L.construct_ms.push_back(construct_ms);
  L.run_ms.push_back(ref_ms);
  L.traced_ms += construct_ms + step_ms;
  L.reference_ms += ref_ms;
  const StatSet& st = ref.stats;
  L.committed += ref.committed;
  L.cycles += ref.cycles;
  L.issued += st.count("sel.issued_total");
  L.replays += st.count("fault.replays");
  L.squashes += st.count("ev.squash");
  L.blocked += st.count("sel.cycles_blocked");
  if (faulty) {
    L.scheme_committed += ref.committed;
    L.faults += st.count("fault.actual");
  }
  if (pred) {
    L.pred_committed += ref.committed;
    L.handled += st.count("fault.handled");
    L.actual += st.count("fault.actual");
    L.false_pos += st.count("fault.false_positive");
  }
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Per-layer values by metric name; finish_layers fills in the rest.
using LayerMetrics = std::map<std::string, double>;

/// Every per-layer metric with its unit, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> u = {
      {"sweep.worker_busy_frac", "frac"},
      {"sweep.tail_idle_s", "s"},
      {"sweep.job_ms_p50", "ms"},
      {"sweep.job_ms_max", "ms"},
      {"runner.construct_ms", "ms"},
      {"runner.run_ms", "ms"},
      {"report.json_ms", "ms"},
      {"report.checksum_ms", "ms"},
      {"report.fig4_ratio_err", "ratio"},
      {"cpu.step_ns_per_inst.fault_free", "ns"},
      {"cpu.step_ns_per_inst.abs", "ns"},
      {"cpu.issued_per_commit", "ratio"},
      {"cpu.replays_per_kinst", "1/kinst"},
      {"cpu.squash_per_kinst", "1/kinst"},
      {"cpu.sel_blocked_frac", "frac"},
      {"cpu.ipc", "inst/cycle"},
      {"timing.query_ns", "ns"},
      {"timing.fault_overhead_ns_per_inst", "ns"},
      {"timing.faults_per_kinst", "1/kinst"},
      {"tep.predict_ns", "ns"},
      {"tep.train_ns", "ns"},
      {"tep.predict_calls_per_commit", "ratio"},
      {"tep.accuracy", "frac"},
      {"tep.false_pos_per_kinst", "1/kinst"},
      {"workload.next_ns", "ns"},
      {"workload.fetched_per_commit", "ratio"},
      {"obs.overhead_frac", "frac"},
      {"obs.profiler_scopes_per_commit", "ratio"},
      {"obs.timeline_windows", "count"},
      {"snap.capture_ms", "ms"},
      {"snap.run_from_ms", "ms"},
      {"snap.bytes", "bytes"},
      {"serve.submit_rtt_ms_p50", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p90", "ms"},
      {"serve.cache_hit_frac", "frac"},
      {"serve.polls_per_job", "ratio"},
      {"serve.queue_full_frac", "frac"},
      {"gen.lag_ms_max", "ms"},
      {"adapt.overhead_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return u;
}

/// Replays `jobs` and fills the runner/cpu/timing/tep/workload layers.
void replay(const core::RunnerConfig& cfg, const std::vector<core::SweepJob>& jobs,
            const Options& opt, LayerMetrics& m, Outcome& out) {
  Layers L;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    replay_job(cfg, jobs[i], static_cast<int>(i), L, out);
    ++out.attempted;
  }
  L.log.write(opt.out_dir + "/" + opt.workload + ".spans.json");
  double ovh_sum = 0.0;
  int ovh_n = 0;
  for (const auto& [cell, ns] : L.per_ns_by_cell) {
    if (ns.first > 0.0 && ns.second > 0.0) {
      ovh_sum += ns.second - ns.first;
      ++ovh_n;
    }
  }
  m["runner.construct_ms"] = median(L.construct_ms);
  m["runner.run_ms"] = median(L.run_ms);
  m["cpu.step_ns_per_inst.fault_free"] = ratio(L.self_ns_ff, static_cast<double>(L.commits_ff));
  m["cpu.step_ns_per_inst.abs"] = ratio(L.self_ns_abs, static_cast<double>(L.commits_abs));
  const auto d = [](u64 x) { return static_cast<double>(x); };
  m["cpu.issued_per_commit"] = ratio(d(L.issued), d(L.committed));
  m["cpu.replays_per_kinst"] = ratio(d(L.replays) * 1e3, d(L.committed));
  m["cpu.squash_per_kinst"] = ratio(d(L.squashes) * 1e3, d(L.committed));
  m["cpu.sel_blocked_frac"] = ratio(d(L.blocked), d(L.cycles));
  m["cpu.ipc"] = ratio(d(L.committed), d(L.cycles));
  m["timing.query_ns"] = ratio(L.query_ns, d(L.queries));
  m["timing.fault_overhead_ns_per_inst"] = ovh_n == 0 ? 0.0 : ovh_sum / ovh_n;
  m["timing.faults_per_kinst"] = ratio(d(L.faults) * 1e3, d(L.scheme_committed));
  m["tep.predict_ns"] = L.predict.mean_ns(L.clock_ns);
  m["tep.train_ns"] = L.train.mean_ns(L.clock_ns);
  m["tep.predict_calls_per_commit"] = ratio(d(L.predict.calls), d(L.commits_pred));
  m["tep.accuracy"] = ratio(d(L.handled), d(L.actual));
  m["tep.false_pos_per_kinst"] = ratio(d(L.false_pos) * 1e3, d(L.pred_committed));
  m["workload.next_ns"] = L.next.mean_ns(L.clock_ns);
  m["workload.fetched_per_commit"] = ratio(d(L.fetched), d(L.commits_all));
  m["trace.overhead_frac"] = ratio(L.traced_ms, L.reference_ms) - 1.0;
  out.note("trace.jobs_replayed", "count", static_cast<double>(jobs.size()));
  out.note("trace.wiring_mismatches", "count", static_cast<double>(L.mismatches));
  out.note("trace.clock_read_ns", "ns", L.clock_ns);
  out.note("timing.query_faulty_frac", "frac", ratio(d(L.query_faulty), d(L.queries)));
}

}  // namespace

core::RunnerConfig runner_config(u64 instr, u64 warmup) {
  core::RunnerConfig rc;
  rc.instructions = instr;
  rc.warmup = warmup;
  return rc;
}

Outcome finish_layers(const std::map<std::string, double>& values, Outcome out) {
  for (const auto& [name, unit] : layer_units()) {
    const auto it = values.find(name);
    out.add(name, unit, it == values.end() ? 0.0 : it->second);
  }
  // Refuse the per-layer numbers when the traced wiring diverged.
  if (out.failed > 0) out.metrics.clear();
  return out;
}

Outcome trace_paper_grid(const Options& opt) {
  const Sizes sz = sizes(opt.smoke);
  const core::RunnerConfig rc = runner_config(sz.grid_instr, sz.grid_warmup);
  const std::vector<core::SweepJob> jobs = grid_jobs(opt.seed);
  Outcome out;
  LayerMetrics m;

  // core.sweep and core.report: one straight-through pass of the grid.
  core::SweepRunner sweeper(rc, opt.workers);
  sweeper.set_batch(1);
  const core::SweepReport rep = sweeper.run(jobs);
  std::vector<double> job_ms;
  double busy_ms = 0.0;
  std::map<std::size_t, double> last_end;
  for (const core::SweepOutcome& o : rep.jobs) {
    job_ms.push_back(o.wall_ms);
    busy_ms += o.wall_ms;
    double& e = last_end[o.worker];
    e = std::max(e, o.start_ms + o.wall_ms);
  }
  double first_idle = rep.wall_ms;
  for (const auto& [w, e] : last_end) first_idle = std::min(first_idle, e);
  m["sweep.worker_busy_frac"] = busy_ms / (rep.wall_ms * static_cast<double>(rep.workers));
  m["sweep.tail_idle_s"] = (rep.wall_ms - first_idle) / 1e3;
  m["sweep.job_ms_p50"] = percentile(job_ms, 50);
  m["sweep.job_ms_max"] = percentile(job_ms, 100);
  auto t0 = Clock::now();
  std::ostringstream json;
  core::write_sweep_json(json, "paper_grid", rep);
  m["report.json_ms"] = ms(t0, Clock::now());
  t0 = Clock::now();
  [[maybe_unused]] const u64 chk = core::sweep_checksum(rep);
  m["report.checksum_ms"] = ms(t0, Clock::now());
  std::vector<core::RunResult> results;
  for (const core::SweepOutcome& o : rep.jobs) results.push_back(o.result);
  m["report.fig4_ratio_err"] = fig4_ratio_err(results);

  // Single-threaded replay: the high-fault supply, both baselines and ABS.
  std::vector<core::SweepJob> subset;
  for (const core::SweepJob& j : jobs) {
    const std::string s = j.scheme ? j.scheme->name : "fault-free";
    if (j.vdd == timing::SupplyPoints::kHighFault &&
        (s == "fault-free" || s == "razor" || s == "ep" || s == "abs")) {
      subset.push_back(j);
    }
  }
  replay(rc, subset, opt, m, out);
  return finish_layers(m, std::move(out));
}

Outcome trace_baseline_probe(const Options& opt) {
  const Sizes sz = sizes(opt.smoke);
  const core::RunnerConfig plain = runner_config(sz.probe_instr, sz.probe_warmup);
  const std::vector<core::SweepJob> jobs = probe_jobs(opt.seed);
  Outcome out;
  LayerMetrics m;

  // obs: the same jobs with and without the profiler hub + timeline,
  // alternating so host drift hits both sides alike.
  obs::ProfilerHub hub;
  core::RunnerConfig observed = plain;
  observed.profiler_hub = &hub;
  observed.timeline_interval = sz.timeline_interval;
  double with_ms = 0.0, without_ms = 0.0;
  u64 windows = 0, commits = 0;
  for (const core::SweepJob& j : jobs) {
    auto t0 = Clock::now();
    const core::RunResult a = core::ExperimentRunner(plain).run_fault_free(j.profile, j.vdd);
    without_ms += ms(t0, Clock::now());
    t0 = Clock::now();
    const core::RunResult b = core::ExperimentRunner(observed).run_fault_free(j.profile, j.vdd);
    with_ms += ms(t0, Clock::now());
    if (core::result_checksum(a) != core::result_checksum(b)) {
      out.fail("profiling changed the result of " + j.profile.name);
    }
    windows += b.timeline ? b.timeline->windows() : 0;
    commits += plain.warmup + b.committed;
  }
  const obs::Profiler::Snapshot total = hub.total();
  u64 scopes = 0;
  for (const u64 c : total.calls) scopes += c;
  m["obs.overhead_frac"] = with_ms / without_ms - 1.0;
  m["obs.profiler_scopes_per_commit"] =
      static_cast<double>(scopes) / static_cast<double>(commits);
  m["obs.timeline_windows"] = static_cast<double>(windows);

  replay(plain, jobs, opt, m, out);
  return finish_layers(m, std::move(out));
}

/// serve_mix's in-process layers: snap (capture / run_from on the served
/// cells), adapt (predictive vs static on the scheme cells) and the
/// single-threaded replay of the static cells.
void trace_serve_layers(const Options& opt, const std::vector<core::SweepJob>& cells,
                        LayerMetrics& m, Outcome& out) {
  const Sizes sz = sizes(opt.smoke);
  const core::RunnerConfig rc = runner_config(sz.cell_instr, sz.cell_warmup);
  const core::ExperimentRunner runner(rc);
  std::vector<double> cap_ms, from_ms, bytes;
  for (const core::SweepJob& c : cells) {
    auto t0 = Clock::now();
    const core::RunSnapshot snap = runner.capture(c.profile, c.scheme, c.vdd, rc.warmup);
    cap_ms.push_back(ms(t0, Clock::now()));
    t0 = Clock::now();
    const core::RunResult r = runner.run_from(snap, c.vdd);
    from_ms.push_back(ms(t0, Clock::now()));
    bytes.push_back(static_cast<double>(snap::encode_snapshot(snap.container()).size()));
    if (r.committed != rc.instructions) out.fail("run_from committed short on " + c.profile.name);
  }
  m["snap.capture_ms"] = median(cap_ms);
  m["snap.run_from_ms"] = median(from_ms);
  m["snap.bytes"] = median(bytes);

  core::RunnerConfig pred = rc;
  pred.dvfs.policy = adapt::DvfsPolicy::kPredictive;
  double static_ms = 0.0, pred_ms = 0.0;
  for (const core::SweepJob& c : cells) {
    if (!c.scheme) continue;
    auto t0 = Clock::now();
    (void)core::ExperimentRunner(rc).run(c.profile, *c.scheme, c.vdd);
    static_ms += ms(t0, Clock::now());
    t0 = Clock::now();
    (void)core::ExperimentRunner(pred).run(c.profile, *c.scheme, c.vdd);
    pred_ms += ms(t0, Clock::now());
  }
  m["adapt.overhead_frac"] = static_ms == 0.0 ? 0.0 : pred_ms / static_ms - 1.0;

  replay(rc, cells, opt, m, out);
}

}  // namespace perfbench
