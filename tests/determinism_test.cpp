// Golden determinism: two fresh simulations of the same configuration must
// produce byte-identical statistics. This is the property the bench harness
// relies on when it claims performance work (event queue, route tables, stat
// handles) changed wall-clock time but not results.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/metrics.h"
#include "sim/simulation.h"
#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"

namespace dresar {
namespace {

std::string scientificStatsDump(const std::string& app, std::uint32_t sdEntries,
                                const FaultPlan& fault = {}, std::uint32_t numNodes = 16) {
  SystemConfig cfg;
  cfg.numNodes = numNodes;
  cfg.switchDir.entries = sdEntries;
  cfg.fault = fault;
  Simulation sim(cfg);
  (void)sim.run({.workload = app, .scale = WorkloadScale::tiny()});
  std::ostringstream os;
  sim.system().stats().dump(os);
  os << "exec_time=" << sim.system().now()
     << " events=" << sim.system().kernel().executedEvents();
  return os.str();
}

TEST(Determinism, ScientificRunsAreReproducible) {
  for (const char* app : {"sor", "fft"}) {
    for (const std::uint32_t sd : {0u, 512u}) {
      const std::string first = scientificStatsDump(app, sd);
      const std::string second = scientificStatsDump(app, sd);
      EXPECT_EQ(first, second) << app << " sd=" << sd;
      EXPECT_FALSE(first.empty());
    }
  }
}

// A deeper (32-node, three-stage) network on the one-thread event kernel must
// repeat byte for byte too.
TEST(ParallelEquivalence, SimThreadsOneIsReproducible) {
  const std::string first = scientificStatsDump("fft", 512, {}, 32);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, scientificStatsDump("fft", 512, {}, 32));
}

TEST(Determinism, ZeroFaultRatesAreByteIdenticalToFaultFree) {
  // A FaultPlan with every rate zero is disabled: no injector is built, no
  // fault.* counters registered, and the whole run — stats dump included —
  // must match a run with no plan at all byte for byte.
  FaultPlan zero;
  zero.seed = 99;  // a seed alone must not enable anything
  const std::string without = scientificStatsDump("sor", 512);
  const std::string with = scientificStatsDump("sor", 512, zero);
  EXPECT_EQ(without, with);
}

TEST(Determinism, FaultCampaignsAreReproducible) {
  FaultPlan plan;
  plan.msgDropRate = 0.01;
  plan.msgDelayRate = 0.02;
  plan.sdEntryLossRate = 0.05;
  plan.seed = 7;
  const std::string first = scientificStatsDump("sor", 512, plan);
  const std::string second = scientificStatsDump("sor", 512, plan);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, FaultCampaignDiffersFromFaultFreeRun) {
  FaultPlan plan;
  plan.msgDropRate = 0.02;
  plan.seed = 7;
  const std::string faultFree = scientificStatsDump("sor", 512);
  const std::string faulted = scientificStatsDump("sor", 512, plan);
  EXPECT_NE(faultFree, faulted) << "injection at a 2% drop rate must perturb the run";
}

std::string traceStatsDump(bool tpcd, std::uint32_t sdEntries) {
  TraceConfig cfg;
  cfg.switchDir.entries = sdEntries;
  TraceSimulator sim(cfg);
  TpcGenerator gen(tpcd ? TpcParams::tpcd(50'000) : TpcParams::tpcc(50'000));
  sim.run(gen);
  const TraceMetrics& m = sim.metrics();
  std::ostringstream os;
  os << m.refs << ' ' << m.reads << ' ' << m.writes << ' ' << m.readHits << ' ' << m.readMisses
     << ' ' << m.svcCleanLocal << ' ' << m.svcCleanRemote << ' ' << m.svcCtoCLocal << ' '
     << m.svcCtoCRemote << ' ' << m.svcSwitchDir << ' ' << m.homeCtoC << ' ' << m.sdDeposits
     << ' ' << m.totalReadLatency << ' ' << m.execTime;
  return os.str();
}

TEST(Determinism, TraceRunsAreReproducible) {
  for (const bool tpcd : {false, true}) {
    for (const std::uint32_t sd : {0u, 1024u}) {
      const std::string first = traceStatsDump(tpcd, sd);
      const std::string second = traceStatsDump(tpcd, sd);
      EXPECT_EQ(first, second) << (tpcd ? "TPC-D" : "TPC-C") << " sd=" << sd;
    }
  }
}

}  // namespace
}  // namespace dresar
