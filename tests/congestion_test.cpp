// Congestion-lab tests: the flit network's saturation telemetry (credit
// stalls, stage occupancy, wormhole-lock hold times), the fault link-stall
// interaction with credit backpressure (a stalled switch starves its
// upstream stage, then the tree drains to quiescence), and the hotspot /
// incast profiles' offered-vs-accepted load annotation at system level.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/scheduler.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "interconnect/flit_network.h"
#include "interconnect/network.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {
namespace {

Message wb(NodeId src, NodeId dstMem, Addr a) {
  Message m;
  m.type = MsgType::WriteBack;  // carries data: 5 flits at default geometry
  m.src = procEp(src);
  m.dst = memEp(dstMem);
  m.addr = a;
  m.requester = src;
  return m;
}

TEST(FlitCongestion, FanInPopulatesSaturationTelemetry) {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 1;  // most aggressive backpressure
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr});
  int delivered = 0;
  sink.on(memEp(0), [&](const Message&) { ++delivered; });
  for (NodeId p = 0; p < 16; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.inFlight(), 0u);

  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  // 16 five-flit messages funneling into one memory port with one-flit
  // buffers must stall on credits and busy links somewhere.
  EXPECT_GT(ct->creditStallCycles + ct->sourceCreditStalls, 0u);
  EXPECT_GT(ct->linkBusySkips, 0u);
  // Per-switch attribution sums to the machine-wide count.
  ASSERT_EQ(ct->perSwitchCreditStalls.size(), net.topology().totalSwitches());
  const std::uint64_t perSwitchSum = std::accumulate(
      ct->perSwitchCreditStalls.begin(), ct->perSwitchCreditStalls.end(), std::uint64_t{0});
  EXPECT_EQ(perSwitchSum, ct->creditStallCycles);
  // Every stage sampled occupancy while the network was live, and the log2
  // histograms mirror the samplers sample for sample.
  ASSERT_EQ(ct->stageOccupancy.size(), net.topology().numStages());
  ASSERT_EQ(ct->stageOccupancyHist.size(), net.topology().numStages());
  for (std::size_t s = 0; s < ct->stageOccupancy.size(); ++s) {
    EXPECT_GT(ct->stageOccupancy[s].count(), 0u);
    EXPECT_EQ(ct->stageOccupancyHist[s].total(), ct->stageOccupancy[s].count());
    EXPECT_TRUE(ct->stageOccupancyHist[s].isLogSpaced());
  }
}

TEST(FlitCongestion, LockHoldTracksWormholeChains) {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr});
  sink.on(memEp(9), [](const Message&) {});
  net.send(wb(5, 9, 0x100));
  kernel.run();
  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  // A data message streams 5 flits through each switch under one wormhole
  // lock; the hold must span the serialization of the chain.
  ASSERT_GT(ct->lockHold.count(), 0u);
  EXPECT_GE(ct->lockHold.max(), static_cast<double>(cfg.linkCyclesPerFlit));
  EXPECT_EQ(ct->lockHoldHist.total(), ct->lockHold.count());
  EXPECT_TRUE(ct->lockHoldHist.isLogSpaced());
}

TEST(FlitCongestion, MessageLevelNetworkExposesNoTelemetry) {
  // The message-level model's unbounded queues have no credit state to
  // observe; congestion() must stay null so schema emission is flit-gated.
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  Network net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr});
  EXPECT_EQ(net.congestion(), nullptr);
}

TEST(FlitCongestion, LinkStallTreeFormsUpstreamAndDrains) {
  // Freeze the top-stage switch over memories 0..3 for a long window while
  // every processor writes back to memory 0. Credit backpressure must
  // propagate the starvation into stage 0 (the stall tree), the frozen
  // switch itself attempts no grants, and once the window passes the whole
  // tree drains to quiescence with nothing stranded.
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 2;
  FaultPlan plan;
  plan.linkStall = LinkStallSpec{/*stage=*/1, /*index=*/0, /*startCycle=*/0,
                                 /*lengthCycles=*/400};
  FaultInjector inj(plan, kernel.registry());
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, &inj});
  int delivered = 0;
  Cycle lastDelivery = 0;
  sink.on(memEp(0), [&](const Message&) {
    ++delivered;
    lastDelivery = kernel.now();
  });
  for (NodeId p = 0; p < 16; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();

  // The tree drains: everything delivered, no live flits, stalls balanced
  // (link stalls perturb timing only, so nothing needs recovery).
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(net.inFlight(), 0u);
  EXPECT_NO_THROW(inj.requireBalanced());
  // Delivery cannot complete inside the frozen window.
  EXPECT_GT(lastDelivery, Cycle{400});
  EXPECT_GT(kernel.registry().counterValue("fault.injected_stall_cycles"), 0u);

  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  const Butterfly& topo = net.topology();
  // Stage-0 switches choke on exhausted credits toward the frozen switch.
  std::uint64_t stage0Stalls = 0;
  for (std::uint32_t i = 0; i < topo.switchesPerStage(); ++i) {
    stage0Stalls += ct->perSwitchCreditStalls[topo.flat(SwitchId{0, i})];
  }
  EXPECT_GT(stage0Stalls, 0u);
  // The frozen switch skips its grant pass entirely during the window and
  // feeds only credit-less memory ports afterwards: no stalls charged to it.
  EXPECT_EQ(ct->perSwitchCreditStalls[topo.flat(SwitchId{1, 0})], 0u);
  // Its input buffers visibly filled while frozen.
  ASSERT_EQ(ct->stageOccupancy.size(), 2u);
  EXPECT_GT(ct->stageOccupancy[1].max(), 0.0);
}

// Every switch records exactly one occupancy sample per network tick, busy
// or idle, so the stage histograms describe time and not just activity. The
// tick is the only event besides flit arrivals here (no snoop, no fault
// delay), so ticks = executed events - transmitted flits.
TEST(FlitCongestion, EverySwitchSamplesOccupancyEveryTick) {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr});
  sink.on(memEp(0), [](const Message&) {});
  sink.on(memEp(13), [](const Message&) {});
  // Two bursts with an idle gap between them, so the tick stops and re-arms;
  // most switches never see a flit (only procs 0..3 and memories 0..3 / 12..15).
  for (NodeId p = 0; p < 4; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();
  net.send(wb(2, 13, 0x900));
  kernel.run();
  EXPECT_EQ(net.inFlight(), 0u);

  const std::uint64_t transmitted = kernel.registry().counterValue("flit.transmitted");
  const std::uint64_t ticks = kernel.executedEvents() - transmitted;
  ASSERT_GT(transmitted, 0u);
  ASSERT_GT(ticks, 0u);
  const CongestionTelemetry* ct = net.congestion();
  ASSERT_NE(ct, nullptr);
  const Butterfly& topo = net.topology();
  ASSERT_EQ(ct->stageOccupancy.size(), topo.numStages());
  for (std::size_t s = 0; s < ct->stageOccupancy.size(); ++s) {
    EXPECT_EQ(ct->stageOccupancy[s].count(), topo.switchesPerStage() * ticks) << "stage " << s;
    EXPECT_EQ(ct->stageOccupancyHist[s].total(), topo.switchesPerStage() * ticks);
  }
}

// A stall window on a switch that no message crosses still charges every
// stalled cycle: the fault check runs on idle switches too.
TEST(FlitCongestion, LinkStallOnUntouchedSwitchCountsEveryCycle) {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 1;
  FaultPlan plan;
  // Traffic to memory 0 climbs through stage-1 switch 0 only; switch 3 of
  // stage 1 fronts memories 12..15 and stays untouched.
  plan.linkStall = LinkStallSpec{/*stage=*/1, /*index=*/3, /*startCycle=*/10,
                                 /*lengthCycles=*/50};
  FaultInjector inj(plan, kernel.registry());
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, &inj});
  Cycle lastDelivery = 0;
  sink.on(memEp(0), [&](const Message&) { lastDelivery = kernel.now(); });
  for (NodeId p = 0; p < 16; ++p) net.send(wb(p, 0, 0x100 + 0x40ull * p));
  kernel.run();

  // The network stayed live across the whole window, so every cycle of it
  // was counted as stalled.
  ASSERT_GT(lastDelivery, Cycle{60});
  EXPECT_EQ(kernel.registry().counterValue("fault.injected_stall_cycles"), 50u);
}

TEST(SystemCongestion, HotspotAndIncastAnnotateOfferedAndAcceptedLoad) {
  for (const char* profile : {"hotspot", "incast"}) {
    SystemConfig cfg;
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 400;
    auto w = makeWorkload(profile, s);
    const RunMetrics m = runWorkload(sys, *w);
    EXPECT_TRUE(m.congestionEnabled) << profile;
    EXPECT_EQ(m.congRuns, 1u) << profile;
    EXPECT_GT(m.congOfferedRate, 0.0) << profile;
    EXPECT_GT(m.congAcceptedRate, 0.0) << profile;
  }
}

TEST(SystemCongestion, NonCongestionWorkloadsStayCongestionFree) {
  // sor (scientific) and oltp (v5 traffic) must not grow a congestion block
  // on the message-level network — their output is byte-identity-gated.
  for (const char* name : {"sor", "oltp"}) {
    SystemConfig cfg;
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 400;
    auto w = makeWorkload(name, s);
    const RunMetrics m = runWorkload(sys, *w);
    EXPECT_FALSE(m.congestionEnabled) << name;
    EXPECT_EQ(m.congOfferedRate, 0.0) << name;
    EXPECT_EQ(m.congRuns, 0u) << name;
  }
}

RunMetrics runFlitHotspot(const std::string& routing, double offeredLoad) {
  SystemConfig cfg;
  cfg.net.flitLevel = true;
  cfg.net.routing = routing;
  System sys(cfg);
  WorkloadScale s = WorkloadScale::tiny();
  s.trafficRefsPerNode = 250;
  s.offeredLoad = offeredLoad;
  auto w = makeWorkload("hotspot", s);
  return runWorkload(sys, *w);
}

TEST(SystemCongestion, FlitHotspotPopulatesTelemetryDeterministically) {
  const RunMetrics a = runFlitHotspot("lca", 1.0);
  const RunMetrics b = runFlitHotspot("lca", 1.0);
  EXPECT_TRUE(a.congestionEnabled);
  EXPECT_GT(a.congOfferedRate, 0.0);
  EXPECT_GT(a.congAcceptedRate, 0.0);
  ASSERT_FALSE(a.congestion.stageOccupancy.empty());
  EXPECT_GT(a.congestion.stageOccupancy[0].count(), 0u);
  // Bit-reproducible: same config, same seed path, same telemetry.
  EXPECT_EQ(a.execTime, b.execTime);
  EXPECT_EQ(a.congestion.creditStallCycles, b.congestion.creditStallCycles);
  EXPECT_EQ(a.congestion.sourceCreditStalls, b.congestion.sourceCreditStalls);
  EXPECT_EQ(a.congAcceptedRate, b.congAcceptedRate);
}

TEST(SystemCongestion, AdaptiveRoutingRunsHotspotToCompletion) {
  const RunMetrics lca = runFlitHotspot("lca", 1.0);
  const RunMetrics ada = runFlitHotspot("adaptive", 1.0);
  // Routing changes timing, never the reference stream or the protocol's
  // ability to finish.
  EXPECT_TRUE(ada.congestionEnabled);
  EXPECT_EQ(ada.reads, lca.reads);
  EXPECT_GT(ada.congAcceptedRate, 0.0);
}

TEST(SystemCongestion, AcceptedRateFallsBehindOfferedUnderPressure) {
  // Cranking the offered-load axis must raise what the streams ask for
  // faster than what the machine completes: the saturation-curve shape.
  SystemConfig cfg;
  double ratioLow = 0.0, ratioHigh = 0.0;
  for (const double ol : {0.5, 4.0}) {
    System sys(cfg);
    WorkloadScale s = WorkloadScale::tiny();
    s.trafficRefsPerNode = 600;
    s.offeredLoad = ol;
    auto w = makeWorkload("hotspot", s);
    const RunMetrics m = runWorkload(sys, *w);
    ASSERT_GT(m.congOfferedRate, 0.0);
    (ol < 1.0 ? ratioLow : ratioHigh) = m.congAcceptedRate / m.congOfferedRate;
  }
  // Higher pressure, lower fraction of offered work accepted.
  EXPECT_LT(ratioHigh, ratioLow);
  EXPECT_LT(ratioHigh, 1.0);
}

}  // namespace
}  // namespace dresar
