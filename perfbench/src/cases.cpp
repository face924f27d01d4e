// The benchmark workloads and the runs that measure them.
//
// Every workload is expressed as harness JobSpecs, so the cells the
// benchmark runs are exactly the cells dresar-sweep would run:
//
//   fft-flit    FFT 16K points, sd-1024, flit-level network
//   tpcc-trace  trace-driven TPC-C, 8M references, sd-1024
//   fig8-sweep  sweeps/fig8.spec through harness::runJobs on 2 workers
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "harness/aggregate.h"
#include "harness/run_context.h"
#include "harness/sweep_spec.h"
#include "sim/simulation.h"
#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"

namespace perfbench {

void Report::attempt(const std::string& label, const std::function<void()>& fn) {
  ++attempted;
  try {
    fn();
  } catch (const std::exception& e) {
    ++failed;
    errors.push_back(label + ": " + e.what());
  }
}

void Report::matchFingerprint(const Fingerprint& fp) {
  if (fingerprint.empty()) {
    fingerprint = fp;
  } else if (fp != fingerprint) {
    throw std::runtime_error("simulated counts differ from the first run of this invocation");
  }
}

namespace {

using namespace dresar;
using harness::JobKind;
using harness::JobSpec;

constexpr std::uint64_t kTpccRefs = 8'000'000;
/// ~2k batches per 8M-reference run, so p99 has ~20 batches beyond it.
constexpr std::size_t kTraceBatch = 4096;
constexpr unsigned kSweepWorkers = 2;
/// Set-up repeats per untraced invocation (setup_s is their median): at
/// least kSetupMinRepeats, and more until kSetupMinSeconds have passed.
constexpr int kSetupMinRepeats = 15;
constexpr int kSetupMaxRepeats = 500;
constexpr double kSetupMinSeconds = 1.0;

// ---------------------------------------------------------------------------
// Per-layer totals of one traced run, or summed over every cell of a sweep:
// the traced runs only ever add to them.

struct LayerTotals {
  // Host seconds per span.
  double construct = 0, setup = 0, kernelRun = 0, verify = 0, collect = 0, check = 0,
         recordWrite = 0, traceGen = 0, traceSim = 0;
  std::vector<double> batchUs;  ///< TraceSimulator::access time per batch
  // Exact counts, execution-driven runs.
  std::uint64_t sciRuns = 0, sciRefs = 0, events = 0, flitGrants = 0, flitTransmitted = 0,
                creditStalls = 0, netMessages = 0, linkBusy = 0, sunk = 0, sdDeposits = 0,
                sdInitiated = 0, sdRetries = 0, switchServed = 0, homeServed = 0,
                readMisses = 0, l2Hits = 0, homeCtoC = 0, mshrFull = 0, cohRetries = 0,
                dirRequests = 0, dirQueued = 0;
  // Exact counts, trace-driven runs.
  std::uint64_t traceRefs = 0, traceReads = 0, traceReadMisses = 0, traceCtoC = 0,
                traceSwitchDir = 0, traceStale = 0;
  std::uint64_t execCycles = 0;

  void emit(Report& r) const;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1))];
}

/// One sample per per-layer metric. Layers the run never entered are left
/// out; run.py reports them as 0 ("not exercised").
void LayerTotals::emit(Report& r) const {
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  r.add("sim.construct_s", construct);
  r.add("sim.collect_s", collect);
  r.add("sim.record_write_s", recordWrite);
  r.add("sim.exec_cycles", n(execCycles));
  if (sciRuns > 0) {
    r.add("workloads.setup_s", setup);
    r.add("workloads.verify_s", verify);
    r.add("sim.check_s", check);
    r.add("kernel.run_s", kernelRun);
    r.add("kernel.events", n(events));
    r.add("kernel.events_per_s", ratio(n(events), kernelRun));
    r.add("kernel.ns_per_event", ratio(kernelRun * 1e9, n(events)));
    r.add("kernel.events_per_ref", ratio(events, sciRefs));
    r.add("flit.grants", n(flitGrants));
    r.add("flit.transmitted", n(flitTransmitted));
    r.add("flit.credit_stall_cycles", n(creditStalls));
    r.add("net.messages", n(netMessages));
    r.add("net.link_busy_cycles", n(linkBusy));
    r.add("switchdir.sunk", n(sunk));
    r.add("switchdir.deposits", n(sdDeposits));
    r.add("switchdir.ctoc_initiated", n(sdInitiated));
    r.add("switchdir.retries", n(sdRetries));
    r.add("switchdir.hit_ratio", ratio(switchServed, switchServed + homeServed));
    r.add("switchdir.retry_ratio", ratio(sdRetries, sdInitiated));
    r.add("coherence.read_misses", n(readMisses));
    r.add("coherence.l2_hit_ratio", ratio(l2Hits, l2Hits + readMisses));
    r.add("coherence.home_ctoc", n(homeCtoC));
    r.add("coherence.mshr_full_stalls", n(mshrFull));
    r.add("coherence.retries", n(cohRetries));
    r.add("dir.requests", n(dirRequests));
    r.add("dir.queued", n(dirQueued));
  }
  if (traceRefs > 0) {
    r.add("trace.gen_s", traceGen);
    r.add("trace.sim_s", traceSim);
    r.add("trace.gen_ns_per_ref", ratio(traceGen * 1e9, n(traceRefs)));
    r.add("trace.sim_ns_per_ref", ratio(traceSim * 1e9, n(traceRefs)));
    r.add("trace.batch_us_p50", percentile(batchUs, 0.50));
    r.add("trace.batch_us_p99", percentile(batchUs, 0.99));
    r.add("trace.read_miss_ratio", ratio(traceReadMisses, traceReads));
    r.add("trace.sd_hit_ratio", ratio(traceSwitchDir, traceCtoC));
    r.add("trace.stale_retries", n(traceStale));
  }
}

// ---------------------------------------------------------------------------
// Execution-driven runs.

/// The SystemConfig harness::executeJob builds for a scientific job, for the
/// JobSpec fields the benchmark's jobs use. The fig8-sweep traced pass checks
/// every cell against executeJob's own result, so a drift here fails the run.
SystemConfig sciConfig(const JobSpec& j) {
  SystemConfig cfg = SystemConfig::paperTable2();
  cfg.numNodes = j.numNodes;
  cfg.switchDir = j.sdTemplate;
  cfg.switchDir.entries = j.sdEntries;
  cfg.switchDir.associativity = j.assoc;
  cfg.switchDir.pendingBufferEntries = j.pendingBuffer;
  cfg.switchDir.replacementPolicy = j.sdReplacement;
  cfg.switchDir.arbitrationPolicy = j.sdArbitration;
  cfg.switchCache.replacementPolicy = j.sdReplacement;
  cfg.switchCache.arbitrationPolicy = j.sdArbitration;
  cfg.net.routing = j.routing;
  cfg.net.flitLevel = j.flitLevel;
  return cfg;
}

std::uint64_t refsOf(const RunMetrics& m) { return m.reads + m.stores; }

void requireClean(const CheckReport& rep) {
  if (!rep.ok()) throw std::runtime_error("protocol check failed: " + rep.summary());
}

/// Result of one run of a workload's simulation step.
struct StepResult {
  double wall = 0.0;  ///< host seconds of the simulation step
  std::uint64_t refs = 0;
  Fingerprint fp;
  std::vector<std::pair<std::string, double>> metrics;  ///< record metrics, exact
};

StepResult sciResult(const RunMetrics& m, std::uint64_t events, double wall) {
  StepResult s;
  s.wall = wall;
  s.refs = refsOf(m);
  s.fp = {{"exec_cycles", m.execTime},      {"refs", s.refs},
          {"read_misses", m.readMisses},    {"ctoc_home", m.svcCtoCHome},
          {"ctoc_switch", m.svcCtoCSwitch}, {"ctoc_switch_wb", m.svcSwitchWB},
          {"net_messages", m.netMessages},  {"events", events}};
  s.metrics = harness::makeSciRecord("", "", 0, 0.0, 0, m).metrics;
  return s;
}

/// Set-up only: construction plus Workload::setup.
double sciSetup(const JobSpec& j) {
  const auto t0 = Clock::now();
  Simulation sim(sciConfig(j));
  std::unique_ptr<Workload> w = makeWorkload(j.app, j.scale);
  w->setup(sim.system());
  return since(t0);
}

/// Untraced: one Simulation::run, timed as a whole, then the checker.
StepResult sciUntraced(const JobSpec& j) {
  Simulation sim(sciConfig(j));
  const auto t0 = Clock::now();
  const RunMetrics m = sim.run({.workload = j.app, .scale = j.scale});
  const double wall = since(t0);
  requireClean(sim.check());
  return sciResult(m, sim.system().kernel().executedEvents(), wall);
}

SimTask procBody(Workload& w, System& sys, ThreadContext& ctx) {
  co_await w.body(sys, ctx);
  co_await ctx.fence();
  ctx.markDone(ctx.now());
}

/// Traced: the steps of runWorkload, each inside its own span, then the
/// checker and the record write. `wall` spans what Simulation::run covers.
StepResult sciTraced(const JobSpec& j, const std::string& recordPath, LayerTotals& l) {
  auto t0 = Clock::now();
  Simulation sim(sciConfig(j));
  System& sys = sim.system();
  l.construct += since(t0);

  const auto wall0 = Clock::now();
  t0 = wall0;
  std::unique_ptr<Workload> w = makeWorkload(j.app, j.scale);
  w->setup(sys);
  l.setup += since(t0);
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    sys.spawn(n, procBody(*w, sys, sys.ctx(n)));
  }
  t0 = Clock::now();
  sys.run();
  l.kernelRun += since(t0);
  if (!sys.quiescent()) throw std::runtime_error(j.app + ": system not quiescent after run");
  t0 = Clock::now();
  const WorkloadResult v = w->verify(sys);
  l.verify += since(t0);
  if (!v.ok) throw std::runtime_error(j.app + ": verification failed: " + v.detail);
  t0 = Clock::now();
  RunMetrics m = RunMetrics::collect(sys, w->name());
  w->annotate(m);
  l.collect += since(t0);
  const std::uint64_t events = sys.kernel().executedEvents();
  const StepResult s = sciResult(m, events, since(wall0));

  t0 = Clock::now();
  requireClean(sim.check());
  l.check += since(t0);

  t0 = Clock::now();
  RunRecorder rec;
  rec.setBench("perfbench");
  rec.add(harness::makeSciRecord(j.displayApp(), j.configTag(), j.sdEntries, s.wall, events, m));
  if (!rec.writeFile(recordPath)) throw std::runtime_error("cannot write " + recordPath);
  l.recordWrite += since(t0);

  const StatRegistry& st = sys.stats();
  const auto perNode = [&](const std::string& family, const std::string& counter) {
    std::uint64_t sum = 0;
    for (NodeId n = 0; n < sys.config().numNodes; ++n) {
      sum += st.counterValue(family + "." + std::to_string(n) + "." + counter);
    }
    return sum;
  };
  const CongestionTelemetry* ct = sys.net().congestion();
  l.sciRuns += 1;
  l.sciRefs += s.refs;
  l.events += events;
  l.flitGrants += st.counterValue("flit.grants");
  l.flitTransmitted += st.counterValue("flit.transmitted");
  l.creditStalls += ct != nullptr ? ct->creditStallCycles : 0;
  l.netMessages += m.netMessages;
  l.linkBusy += st.counterValue("net.link.busy_cycles");
  l.sunk += st.counterValue("net.sunk");
  l.sdDeposits += m.sdDeposits;
  l.sdInitiated += m.sdCtoCInitiated;
  l.sdRetries += m.sdRetries;
  l.switchServed += m.svcCtoCSwitch + m.svcSwitchWB;
  l.homeServed += m.svcCtoCHome;
  l.readMisses += m.readMisses;
  l.l2Hits += perNode("cache", "l2_hits");
  l.homeCtoC += m.homeCtoC;
  l.mshrFull += perNode("cache", "mshr_full_stalls");
  l.cohRetries += m.retriesObserved;
  l.dirRequests += perNode("dir", "requests");
  l.dirQueued += perNode("dir", "queued");
  l.execCycles += m.execTime;
  return s;
}

// ---------------------------------------------------------------------------
// Trace-driven runs.

/// The TraceConfig and TPC stream harness::executeJob builds for a trace
/// job, seed mixing included.
TraceConfig traceConfig(const JobSpec& j) {
  TraceConfig cfg = TraceConfig::paperTable3();
  cfg.numNodes = j.numNodes;
  cfg.switchDir = j.sdTemplate;
  cfg.switchDir.entries = j.sdEntries;
  cfg.switchDir.associativity = j.assoc;
  cfg.switchDir.pendingBufferEntries = j.pendingBuffer;
  cfg.switchDir.replacementPolicy = j.sdReplacement;
  cfg.switchDir.arbitrationPolicy = j.sdArbitration;
  return cfg;
}

TpcParams tpcParams(const JobSpec& j) {
  TpcParams p = j.app == "tpcd" ? TpcParams::tpcd(j.traceRefs) : TpcParams::tpcc(j.traceRefs);
  p.numProcs = j.numNodes;
  if (j.seed > 1) {
    Rng mix(j.seed);
    p.seed ^= mix.next();
  }
  return p;
}

Fingerprint traceFingerprint(const TraceMetrics& m) {
  return {{"exec_cycles", m.execTime},        {"refs", m.refs},
          {"read_misses", m.readMisses},      {"ctoc_home", m.svcCtoCLocal + m.svcCtoCRemote},
          {"ctoc_switch", m.svcSwitchDir},    {"sd_stale_retries", m.sdStaleRetries}};
}

/// Every reference must be classified as exactly one read or write.
void requireTraceComplete(const TraceMetrics& m, std::uint64_t refs) {
  if (m.refs != refs || m.reads + m.writes != refs) {
    throw std::runtime_error("trace run classified " + std::to_string(m.reads + m.writes) +
                             " of " + std::to_string(refs) + " references");
  }
}

StepResult traceResult(const TraceMetrics& m, double wall) {
  StepResult s;
  s.wall = wall;
  s.refs = m.refs;
  s.fp = traceFingerprint(m);
  s.metrics = harness::makeTraceRecord("", "", 0, 0.0, m).metrics;
  return s;
}

double traceSetup(const JobSpec& j) {
  const auto t0 = Clock::now();
  TraceSimulator sim(traceConfig(j));
  TpcGenerator gen(tpcParams(j));
  return since(t0);
}

StepResult traceUntraced(const JobSpec& j) {
  TraceSimulator sim(traceConfig(j));
  TpcGenerator gen(tpcParams(j));
  const auto t0 = Clock::now();
  sim.run(gen);
  const double wall = since(t0);
  requireTraceComplete(sim.metrics(), j.traceRefs);
  return traceResult(sim.metrics(), wall);
}

/// Traced: generator pulls and TraceSimulator::access timed apart, in
/// fixed-size batches.
StepResult traceTraced(const JobSpec& j, const std::string& recordPath, LayerTotals& l) {
  auto t0 = Clock::now();
  TraceSimulator sim(traceConfig(j));
  TpcGenerator gen(tpcParams(j));
  l.construct += since(t0);

  std::vector<TraceRecord> batch(kTraceBatch);
  const auto wall0 = Clock::now();
  for (;;) {
    t0 = Clock::now();
    std::size_t n = 0;
    while (n < batch.size() && gen.next(batch[n])) ++n;
    l.traceGen += since(t0);
    if (n == 0) break;
    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) sim.access(batch[i]);
    const double dt = since(t0);
    l.traceSim += dt;
    l.batchUs.push_back(dt * 1e6);
  }
  sim.finalize();
  t0 = Clock::now();
  const TraceMetrics m = sim.metrics();
  requireTraceComplete(m, j.traceRefs);
  l.collect += since(t0);
  StepResult s = traceResult(m, since(wall0));

  t0 = Clock::now();
  RunRecorder rec;
  rec.setBench("perfbench");
  rec.add(harness::makeTraceRecord(j.displayApp(), j.configTag(), j.sdEntries, s.wall, m));
  if (!rec.writeFile(recordPath)) throw std::runtime_error("cannot write " + recordPath);
  l.recordWrite += since(t0);

  l.traceRefs += m.refs;
  l.traceReads += m.reads;
  l.traceReadMisses += m.readMisses;
  l.traceCtoC += m.ctoc();
  l.traceSwitchDir += m.svcSwitchDir;
  l.traceStale += m.sdStaleRetries;
  l.execCycles += m.execTime;
  return s;
}

// ---------------------------------------------------------------------------
// Single-job dispatch.

double setupJob(const JobSpec& j) {
  return j.kind == JobKind::Scientific ? sciSetup(j) : traceSetup(j);
}
StepResult untracedJob(const JobSpec& j) {
  return j.kind == JobKind::Scientific ? sciUntraced(j) : traceUntraced(j);
}
StepResult tracedJob(const JobSpec& j, const std::string& recordPath, LayerTotals& l) {
  return j.kind == JobKind::Scientific ? sciTraced(j, recordPath, l)
                                       : traceTraced(j, recordPath, l);
}

// ---------------------------------------------------------------------------
// Workloads.

/// One benchmark workload: what a set-up costs, what one untraced run of its
/// simulation step measures, and what its traced pass records.
class Case {
 public:
  virtual ~Case() = default;
  virtual double setup() = 0;
  virtual StepResult untraced() = 0;
  /// One traced run; spans and counts go to `r` (or are kept for finish()).
  virtual StepResult traced(Report& r) = 0;
  /// Work done once per traced invocation after the measured loop.
  virtual void finish(Report&) {}
};

/// Host cost per simulated reference of one configuration, over the traced
/// runs of an invocation.
struct Attribution {
  std::vector<double> nsPerRef, eventsPerRef, kernelNsPerEvent;

  void add(const StepResult& s, const LayerTotals& l) {
    nsPerRef.push_back(ratio(s.wall * 1e9, static_cast<double>(s.refs)));
    eventsPerRef.push_back(ratio(l.events, s.refs));
    kernelNsPerEvent.push_back(ratio(l.kernelRun * 1e9, static_cast<double>(l.events)));
  }
  void note(Report& r, const std::string& prefix) const {
    r.notes[prefix + ".ns_per_ref"] = percentile(nsPerRef, 0.5);
    r.notes[prefix + ".events_per_ref"] = percentile(eventsPerRef, 0.5);
    r.notes[prefix + ".kernel_ns_per_event"] = percentile(kernelNsPerEvent, 0.5);
  }
};

/// An overhead metric: ns per reference of configuration `with` minus that
/// of `without`, which lacks one mechanism. Index 0 is the workload's own
/// job, index k > 0 its k-th variant.
struct Overhead {
  std::string metric;
  std::size_t with = 0;
  std::size_t without = 0;
};

/// fft-flit and tpcc-trace: one simulation per run. Each traced run is
/// followed by one traced run of every variant, so that the configurations
/// compared by `overheads` see the same host state.
class JobCase final : public Case {
 public:
  JobCase(const Options& o, JobSpec job, std::vector<JobSpec> variants = {},
          std::vector<Overhead> overheads = {})
      : o_(o), overheads_(std::move(overheads)), attribution_(variants.size() + 1) {
    jobs_.push_back(std::move(job));
    for (JobSpec& v : variants) jobs_.push_back(std::move(v));
  }

  double setup() override { return setupJob(jobs_[0]); }
  StepResult untraced() override { return untracedJob(jobs_[0]); }

  StepResult traced(Report& r) override {
    StepResult main;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      LayerTotals l;
      const StepResult s = tracedJob(jobs_[i], o_.outDir + "/record.json", l);
      if (i == 0) {
        l.emit(r);
        main = s;
      }
      attribution_[i].add(s, l);
    }
    for (const Overhead& o : overheads_) {
      r.add(o.metric, attribution_[o.with].nsPerRef.back() -
                          attribution_[o.without].nsPerRef.back());
    }
    return main;
  }

  void finish(Report& r) override {
    if (jobs_.size() < 2) return;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      attribution_[i].note(r, jobs_[i].configKey());
    }
  }

 private:
  const Options& o_;
  std::vector<JobSpec> jobs_;
  std::vector<Overhead> overheads_;
  std::vector<Attribution> attribution_;
};

/// fig8-sweep: the committed spec, expanded, run through harness::runJobs
/// and written as the sweep aggregate document, as dresar-sweep does it.
class SweepCase final : public Case {
 public:
  explicit SweepCase(const Options& o) : o_(o) {}

  double setup() override {
    const auto t0 = Clock::now();
    for (const JobSpec& j : jobsOf(loadSpec())) setupJob(j);
    return since(t0);
  }

  StepResult untraced() override { return sweep(nullptr); }
  StepResult traced(Report& r) override { return sweep(&r); }

  /// Every cell once more, serially, through the traced single-job path:
  /// this gives the sweep's per-layer split, and each cell must reproduce
  /// the metrics runJobs produced for it.
  void finish(Report& r) override {
    r.attempt("cell-by-cell pass", [&] {
      LayerTotals all;
      for (std::size_t i = 0; i < lastJobs_.size(); ++i) {
        const StepResult s = tracedJob(lastJobs_[i], o_.outDir + "/record.json", all);
        if (s.metrics != lastMetrics_.at(i)) {
          throw std::runtime_error(lastJobs_[i].configKey() +
                                   ": traced run differs from harness::runJobs");
        }
      }
      all.emit(r);
    });
  }

 private:
  harness::SweepSpec loadSpec() const { return harness::SweepSpec::parseFile(o_.specPath); }

  std::vector<JobSpec> jobsOf(const harness::SweepSpec& spec) const {
    std::vector<JobSpec> jobs = spec.expand();
    for (JobSpec& j : jobs) j.seed = o_.seed;
    return jobs;
  }

  StepResult sweep(Report* spans) {
    const auto t0 = Clock::now();
    const harness::SweepSpec spec = loadSpec();
    const std::vector<JobSpec> jobs = jobsOf(spec);
    const double expandS = since(t0);

    auto t1 = Clock::now();
    harness::RunContext ctx;
    const std::vector<harness::JobResult> results = harness::runJobs(ctx, jobs, kSweepWorkers);
    const double runS = since(t1);

    t1 = Clock::now();
    harness::SweepJsonOptions jo;
    jo.specName = spec.name;
    jo.jobs = kSweepWorkers;
    const std::string doc =
        harness::sweepToJson(ctx.recorder, harness::aggregate(ctx.recorder.runs()), jo);
    writeFile(o_.outDir + "/fig8-sweep.json", doc);
    const double writeS = since(t1);

    StepResult s;
    s.wall = since(t0);
    lastJobs_ = jobs;
    lastMetrics_.clear();
    std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over every cell's metrics
    for (const harness::JobResult& res : results) {
      if (!res.ok) throw std::runtime_error(res.job.configKey() + ": " + res.error);
      const bool sci = res.job.kind == JobKind::Scientific;
      if (!sci) requireTraceComplete(res.trace, res.job.traceRefs);
      const StepResult cell = sci ? sciResult(res.sci, res.record.events, res.wallSeconds)
                                  : traceResult(res.trace, res.wallSeconds);
      s.refs += cell.refs;
      for (const auto& [k, v] : cell.fp) s.fp[k] += v;
      for (const auto& [k, v] : cell.metrics) {
        for (const char c : k) {
          digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        }
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        digest = (digest ^ bits) * 1099511628211ull;
      }
      lastMetrics_.push_back(cell.metrics);
    }
    s.fp["cells"] = results.size();
    s.fp["cells_digest"] = digest;
    if (spans != nullptr) {
      spans->add("harness.spec_expand_s", expandS);
      spans->add("harness.run_jobs_s", runS);
      spans->add("harness.aggregate_write_s", writeS);
    }
    return s;
  }

  static void writeFile(const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    if (std::fclose(f) != 0 || !ok) throw std::runtime_error("cannot write " + path);
  }

  const Options& o_;
  std::vector<JobSpec> lastJobs_;
  std::vector<std::vector<std::pair<std::string, double>>> lastMetrics_;
};

JobSpec sciJob(const std::string& app, std::uint32_t sdEntries, bool flitLevel) {
  JobSpec j;
  j.kind = JobKind::Scientific;
  j.app = app;
  j.sdEntries = sdEntries;
  j.flitLevel = flitLevel;
  j.scale.fftPoints = 16384;  // paper Table 2 FFT
  return j;
}

std::unique_ptr<Case> makeCase(const Options& o) {
  if (o.workload == "fft-flit") {
    // Variants on the message-level network: sd-1024, then base.
    return std::make_unique<JobCase>(
        o, sciJob("fft", 1024, true), std::vector{sciJob("fft", 1024, false), sciJob("fft", 0, false)},
        std::vector<Overhead>{{"flit.overhead_ns_per_ref", 0, 1},
                              {"switchdir.overhead_ns_per_ref", 1, 2}});
  }
  if (o.workload == "tpcc-trace") {
    JobSpec j;
    j.kind = JobKind::Trace;
    j.app = "tpcc";
    j.sdEntries = 1024;
    j.traceRefs = kTpccRefs;
    j.seed = o.seed;
    return std::make_unique<JobCase>(o, j);
  }
  if (o.workload == "fig8-sweep") return std::make_unique<SweepCase>(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace

void runWorkload(const Options& o, Report& r) {
  const std::unique_ptr<Case> c = makeCase(o);
  const auto measure = [&](const std::function<void()>& once) {
    const auto t0 = Clock::now();
    do once(); while (since(t0) < o.seconds);
  };

  if (!o.trace) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupMaxRepeats; ++i) {
      if (i >= kSetupMinRepeats && since(t0) >= kSetupMinSeconds) break;
      r.attempt("setup", [&] { r.add("setup_s", c->setup()); });
    }
    measure([&] {
      r.attempt("run", [&] {
        const StepResult s = c->untraced();
        r.matchFingerprint(s.fp);
        r.add("wall_s", s.wall);
        r.add("refs_per_s", static_cast<double>(s.refs) / s.wall);
      });
    });
    return;
  }

  // Traced invocation: untraced and traced runs alternate, so both see the
  // same machine state; each pair gives one trace_overhead_pct sample and
  // must agree on every simulated metric (for a single job, the step-by-step
  // run against Simulation::run or TraceSimulator::run).
  measure([&] {
    StepResult plain;
    r.attempt("run", [&] {
      plain = c->untraced();
      r.matchFingerprint(plain.fp);
    });
    r.attempt("traced run", [&] {
      const StepResult s = c->traced(r);
      r.matchFingerprint(s.fp);
      if (plain.wall > 0.0) {
        if (s.metrics != plain.metrics) {
          throw std::runtime_error("traced run's metrics differ from the untraced run");
        }
        r.add("trace_overhead_pct", (s.wall - plain.wall) / plain.wall * 100.0);
      }
    });
  });
  c->finish(r);
  runComponents(o.seed, r);
}

}  // namespace perfbench
