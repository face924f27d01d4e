// Flit-level wormhole network tests: pipelined latency, per-VC ordering,
// credit backpressure, snoop sink/spawn at head flits, and end-to-end
// equivalence with the message-level model on a full workload.
#include "interconnect/flit_network.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"
#include "common/stats.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "sim/metrics.h"
#include "sim/system.h"
#include "workloads/workload.h"

namespace dresar {
namespace {

// Observer wiring is immutable (NetworkHooks at construction): snoops come
// in through the fixture constructor, delivery handlers register on FnSink.
struct Fixture {
  SimKernel kernel;
  NetworkConfig cfg;
  FnSink sink;
  FlitNetwork net;
  StatRegistry& stats = kernel.registry();

  explicit Fixture(ISwitchSnoop* snoop = nullptr)
      : net(cfg, 16, 32, kernel, NetworkHooks{&sink, snoop, nullptr, nullptr}) {}

  void run() { kernel.run(); }
  [[nodiscard]] Cycle now() const { return kernel.now(); }
};

Message mkMsg(MsgType t, Endpoint src, Endpoint dst, Addr a = 0x100) {
  Message m;
  m.type = t;
  m.src = src;
  m.dst = dst;
  m.addr = a;
  m.requester = src.kind == EndpointKind::Proc ? src.node : kInvalidNode;
  return m;
}

TEST(FlitNetwork, DeliversHeaderMessage) {
  Fixture f;
  Cycle arrival = kNoCycle;
  f.sink.on(memEp(9), [&](const Message& m) {
    EXPECT_EQ(m.addr, 0x100u);
    arrival = f.now();
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_NE(arrival, kNoCycle);
  // 3 link traversals of 4 cycles + 2 core delays of 4, plus pipeline slack.
  EXPECT_GE(arrival, 20u);
  EXPECT_LE(arrival, 32u);
  EXPECT_EQ(f.net.inFlight(), 0u);
}

TEST(FlitNetwork, DataMessagePipelinesFlits) {
  Fixture f;
  Cycle headerArrival = 0, dataArrival = 0;
  f.sink.on(memEp(9), [&](const Message& m) {
    (carriesData(m.type) ? dataArrival : headerArrival) = f.now();
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));
  f.run();
  // Wormhole pipelining: 5 flits cost 4 extra link cycles per flit on the
  // last link only (cut-through), far less than store-and-forward.
  const Cycle dataLatency = dataArrival - headerArrival;
  EXPECT_GT(dataLatency, 12u);   // strictly longer than the 1-flit message
  EXPECT_LT(dataLatency, 3 * 20u);  // but not 3 full serializations
}

TEST(FlitNetwork, PerPathOrderingHolds) {
  Fixture f;
  std::vector<Addr> order;
  f.sink.on(memEp(9), [&](const Message& m) { order.push_back(m.addr); });
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xA));
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9), 0xB));
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xC));
  f.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0xAu);
  EXPECT_EQ(order[1], 0xBu);
  EXPECT_EQ(order[2], 0xCu);
}

TEST(FlitNetwork, ManyToOneContentionDeliversEverything) {
  Fixture f;
  int delivered = 0;
  f.sink.on(memEp(0), [&](const Message&) { ++delivered; });
  for (NodeId p = 0; p < 16; ++p) {
    f.net.send(mkMsg(MsgType::WriteBack, procEp(p), memEp(0), 0x100 + 0x40ull * p));
  }
  f.run();
  EXPECT_EQ(delivered, 16);
  EXPECT_EQ(f.net.inFlight(), 0u);
}

TEST(FlitNetwork, TinyBuffersStillDrainViaCredits) {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 1;  // most aggressive backpressure
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr});
  int delivered = 0;
  sink.on(memEp(3), [&](const Message&) { ++delivered; });
  for (int i = 0; i < 8; ++i) {
    Message m = mkMsg(MsgType::WriteBack, procEp(1), memEp(3), 0x40ull * i);
    net.send(m);
  }
  kernel.run();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(net.inFlight(), 0u);
}

TEST(FlitNetwork, RejectsZeroBufferFlits) {
  // A zero-depth input buffer could never accept a flit.
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.bufferFlits = 0;
  FnSink sink;
  EXPECT_THROW(FlitNetwork(cfg, 16, 32, kernel, NetworkHooks{&sink, nullptr, nullptr, nullptr}),
               std::invalid_argument);
}

class HeadSnoop : public ISwitchSnoop {
 public:
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>& spawn) override {
    ++seen;
    if (sink && sw.stage == 1) {
      if (reply) {
        Message r;
        r.type = MsgType::Retry;
        r.src = procEp(m.requester);
        r.dst = procEp(m.requester);
        r.addr = m.addr;
        r.requester = m.requester;
        r.marked = true;
        spawn.push_back(r);
      }
      return {false, 0};
    }
    return {};
  }
  int seen = 0;
  bool sink = false;
  bool reply = false;
};

TEST(FlitNetwork, SnoopRunsOncePerSwitch) {
  HeadSnoop snoop;
  Fixture f(&snoop);
  f.sink.on(memEp(9), [](const Message&) {});
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));  // 5 flits
  f.run();
  EXPECT_EQ(snoop.seen, 2);  // once per switch despite 5 flits
}

TEST(FlitNetwork, SunkMessageIsDrainedCompletely) {
  HeadSnoop snoop;
  snoop.sink = true;
  Fixture f(&snoop);
  bool delivered = false;
  f.sink.on(memEp(9), [&](const Message&) { delivered = true; });
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9)));
  f.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(f.net.messagesSunk(), 1u);
  EXPECT_EQ(f.net.inFlight(), 0u);  // every flit drained, credits restored
}

// Sinks the one message carrying `addr` at its stage-1 switch.
class AddrSinkSnoop : public ISwitchSnoop {
 public:
  explicit AddrSinkSnoop(Addr addr) : addr_(addr) {}
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>&) override {
    if (sw.stage == 1 && m.addr == addr_) return {false, 0};
    return {};
  }

 private:
  Addr addr_;
};

TEST(FlitNetwork, SinkingAMultiFlitMessageReleasesUpstreamLocks) {
  // Procs 4..7 share a leaf switch and all write back to mem 9, so their
  // five-flit messages queue for one output. Proc 5's is sunk at stage 1
  // while its body is still upstream: the leaf switch must stream the body
  // and tail on to the sinking switch, or its output lock is never released
  // and the messages behind it wait forever.
  AddrSinkSnoop snoop(0xA00);
  Fixture f(&snoop);
  int delivered = 0;
  f.sink.on(memEp(9), [&](const Message&) { ++delivered; });
  f.net.send(mkMsg(MsgType::WriteBack, procEp(5), memEp(9), 0xA00));
  for (const NodeId p : {4u, 6u, 7u}) {
    f.net.send(mkMsg(MsgType::WriteBack, procEp(p), memEp(9), 0x1000 + 0x40ull * p));
  }
  EXPECT_TRUE(f.kernel.run(/*limit=*/5000)) << "network did not drain";
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(f.net.messagesSunk(), 1u);
  EXPECT_EQ(f.net.inFlight(), 0u);
}

TEST(FlitNetwork, SpawnedMessageUsesInjectionPort) {
  HeadSnoop snoop;
  snoop.sink = true;
  snoop.reply = true;
  Fixture f(&snoop);
  bool retryArrived = false;
  f.sink.on(memEp(9), [](const Message&) {});
  f.sink.on(procEp(5), [&](const Message& m) {
    retryArrived = m.type == MsgType::Retry;
  });
  f.net.send(mkMsg(MsgType::ReadRequest, procEp(5), memEp(9)));
  f.run();
  EXPECT_TRUE(retryArrived);
  EXPECT_GT(f.stats.counterValue("net.switch_injected"), 0u);
}

// The headline check: the full system produces the same protocol behaviour
// on both network models; only timing differs (and not wildly).
TEST(FlitNetwork, FullSystemMatchesMessageLevelProtocol) {
  RunMetrics msg, flit;
  for (const bool flitLevel : {false, true}) {
    SystemConfig cfg;
    cfg.net.flitLevel = flitLevel;
    cfg.switchDir.entries = 1024;
    System sys(cfg);
    auto w = makeWorkload("sor", WorkloadScale::tiny());
    (flitLevel ? flit : msg) = runWorkload(sys, *w);
  }
  // Deterministic kernels: identical read/miss structure.
  EXPECT_EQ(flit.reads, msg.reads);
  // Protocol shape agrees: switch directories capture transfers under both.
  EXPECT_GT(flit.svcCtoCSwitch + flit.svcSwitchWB, 0u);
  const double c2cRatio =
      static_cast<double>(flit.ctocServiced()) / std::max<std::uint64_t>(1, msg.ctocServiced());
  EXPECT_GT(c2cRatio, 0.7);
  EXPECT_LT(c2cRatio, 1.4);
  // Timing within a sane band of each other (wormhole is usually faster for
  // data messages; queueing detail differs).
  const double execRatio = static_cast<double>(flit.execTime) / static_cast<double>(msg.execTime);
  EXPECT_GT(execRatio, 0.5);
  EXPECT_LT(execRatio, 2.0);
}

// ---------------------------------------------------------------------------
// Golden scenario. Pins the flit model's exact behaviour — delivery order and
// cycle, every flit.* / net.* statistic, the congestion telemetry and the
// executed event count — on a mix that reaches every FlitNetwork path:
// adaptive turnaround routing, a snoop that sinks requests and spawns
// replies through the injection port (five-flit data replies, and
// notifications with a free turnaround digit), one-flit buffers and a
// link-stall window. A pure
// performance change to FlitNetwork must leave the digest untouched; a
// deliberate behaviour change re-pins it and says so.

class GoldenSnoop : public ISwitchSnoop {
 public:
  SnoopOutcome onMessage(SwitchId sw, Cycle, Message& m, std::vector<Message>& spawn) override {
    const Addr block = m.addr / 64;
    if (sw.stage == 0 && m.type == MsgType::ReadRequest && block % 7 == 0) {
      // Pass, and notify a processor in another cluster: a switch->proc
      // turnaround with four candidate digits under adaptive routing.
      spawn.push_back(reply(MsgType::Retry, m, (m.requester + 5) % 16));
      return {};
    }
    if (sw.stage == 1 && m.type == MsgType::ReadRequest && block % 5 == 0) {
      // Sink and answer with data. Only header-only messages are sunk, as
      // in the protocol: requests carry no data.
      spawn.push_back(reply(MsgType::ReadReply, m, m.requester));
      return {false, 0};
    }
    return {};
  }

 private:
  static Message reply(MsgType t, const Message& m, NodeId to) {
    Message r;
    r.type = t;
    r.src = m.src;
    r.dst = procEp(to);
    r.addr = m.addr;
    r.requester = m.requester;
    r.marked = true;
    return r;
  }
};

// Recorded on the map-based FlitNetwork this scenario was introduced with.
constexpr std::size_t kGoldenDeliveries = 370;
constexpr Cycle kGoldenFinalCycle = 1493;
constexpr std::uint64_t kGoldenEvents = 6672;
constexpr const char* kGoldenDigest = "83496605bbc00f9d";

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void put(std::ostringstream& os, const char* tag, const Sampler& s) {
  os << tag << ' ' << s.count() << ' ' << s.sum() << ' ' << s.min() << ' ' << s.max() << '\n';
}

void put(std::ostringstream& os, const char* tag, const Histogram& h) {
  os << tag << ' ' << h.total() << ' ' << h.underflowCount();
  for (const std::uint64_t b : h.buckets()) os << ' ' << b;
  os << '\n';
}

struct GoldenRun {
  std::string text;
  std::size_t deliveries = 0;
  Cycle finalCycle = 0;
  std::uint64_t events = 0;
};

GoldenRun runGoldenScenario() {
  SimKernel kernel;
  NetworkConfig cfg;
  cfg.routing = "adaptive";
  cfg.bufferFlits = 1;
  FaultPlan plan;
  plan.linkStall = LinkStallSpec{/*stage=*/1, /*index=*/2, /*startCycle=*/150,
                                 /*lengthCycles=*/120};
  FaultInjector inj(plan, kernel.registry());
  GoldenSnoop snoop;
  FnSink sink;
  FlitNetwork net(cfg, 16, 32, kernel, NetworkHooks{&sink, &snoop, nullptr, &inj});

  std::ostringstream os;
  os << std::setprecision(17);
  GoldenRun g;
  for (NodeId n = 0; n < 16; ++n) {
    for (const Endpoint ep : {procEp(n), memEp(n)}) {
      sink.on(ep, [&, ep](const Message& m) {
        ++g.deliveries;
        os << "D " << kernel.now() << ' ' << toString(ep) << ' ' << m.id << ' '
           << toString(m.type) << ' ' << m.addr << ' ' << m.birth << '\n';
      });
    }
  }

  Rng rng(2024);
  Scheduler& sched = kernel.scheduler();
  for (int i = 0; i < 360; ++i) {
    const auto at = static_cast<Cycle>(rng.below(500));
    const auto a = static_cast<NodeId>(rng.below(16));
    auto b = static_cast<NodeId>(rng.below(16));
    Message m;
    m.addr = rng.below(4096) * 64;
    switch (rng.below(4)) {
      case 0: m = mkMsg(MsgType::ReadRequest, procEp(a), memEp(b), m.addr); break;
      case 1: m = mkMsg(MsgType::WriteBack, procEp(a), memEp(b), m.addr); break;
      case 2:
        m = mkMsg(MsgType::ReadReply, memEp(b), procEp(a), m.addr);
        m.requester = a;
        break;
      default:
        if (b == a) b = (a + 1) % 16;
        m = mkMsg(MsgType::CtoCReply, procEp(a), procEp(b), m.addr);
        break;
    }
    sched.scheduleAt(at, [&net, m] { net.send(m); });
  }
  kernel.run();
  EXPECT_EQ(net.inFlight(), 0u);

  const StatRegistry& stats = kernel.registry();
  for (const auto& [name, v] : stats.counters()) {
    if (name.rfind("flit.", 0) == 0 || name.rfind("net.", 0) == 0)
      os << "C " << name << ' ' << v << '\n';
  }
  for (const auto& [name, s] : stats.samplers()) {
    if (name.rfind("net.", 0) == 0) put(os, ("S " + name).c_str(), s);
  }
  os << "F " << stats.counterValue("fault.injected_stall_cycles") << '\n';
  const CongestionTelemetry& ct = *net.congestion();
  os << "T " << ct.creditStallCycles << ' ' << ct.linkBusySkips << ' '
     << ct.sourceCreditStalls << '\n';
  for (const std::uint64_t v : ct.perSwitchCreditStalls) os << "P " << v << '\n';
  for (std::size_t s = 0; s < ct.stageOccupancy.size(); ++s) {
    put(os, "O", ct.stageOccupancy[s]);
    put(os, "OH", ct.stageOccupancyHist[s]);
  }
  put(os, "L", ct.lockHold);
  put(os, "LH", ct.lockHoldHist);
  g.finalCycle = kernel.now();
  g.events = kernel.executedEvents();
  os << "E " << g.finalCycle << ' ' << g.events << ' ' << net.messagesSent() << ' '
     << net.messagesSunk() << '\n';
  g.text = os.str();
  return g;
}

TEST(FlitNetworkGolden, ScenarioDigestIsPinned) {
  const GoldenRun g = runGoldenScenario();
  // Summary figures first, so a mismatch says roughly what moved.
  EXPECT_EQ(g.deliveries, kGoldenDeliveries);
  EXPECT_EQ(g.finalCycle, kGoldenFinalCycle);
  EXPECT_EQ(g.events, kGoldenEvents);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fnv1a(g.text)));
  EXPECT_EQ(std::string(hex), kGoldenDigest) << g.text;
}

}  // namespace
}  // namespace dresar
