// Component microbenchmarks (google-benchmark): the hot structures of the
// simulator itself — event queue, switch-directory SRAM model, routing, the
// flit-level network, trace generation and the sequential trace simulator.
#include <benchmark/benchmark.h>

#include "common/event_queue.h"
#include "common/rng.h"
#include "common/scheduler.h"
#include "common/stats.h"
#include "interconnect/flit_network.h"
#include "interconnect/topology.h"
#include "switchdir/dir_cache.h"
#include "switchdir/port_schedule.h"
#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"

namespace dresar {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue eq;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      eq.scheduleAt(static_cast<Cycle>(i % 97), [&sink] { ++sink; });
    }
    eq.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_SwitchDirLookup(benchmark::State& state) {
  SwitchDirCache cache(static_cast<std::uint32_t>(state.range(0)), 4, 32);
  Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    if (SDEntry* e = cache.allocate(static_cast<Addr>(rng.below(1u << 20)) * 32)) {
      e->state = SDState::Modified;
      e->owner = static_cast<NodeId>(rng.below(16));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.find(static_cast<Addr>(rng.below(1u << 20)) * 32));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchDirLookup)->Arg(256)->Arg(1024)->Arg(2048);

void BM_ButterflyRoute(benchmark::State& state) {
  Butterfly topo(16, 8);
  Rng rng(3);
  for (auto _ : state) {
    const auto p = static_cast<NodeId>(rng.below(16));
    const auto m = static_cast<NodeId>(rng.below(16));
    benchmark::DoNotOptimize(topo.route(procEp(p), memEp(m)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ButterflyRoute);

void BM_PortSchedule(benchmark::State& state) {
  PortSchedule ps(2);
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ps.reserve(now));
    now += (now % 3 == 0) ? 1 : 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortSchedule);

void BM_FlitNetworkAllToAll(benchmark::State& state) {
  // Every processor writes a line back to every memory at once (256 five-flit
  // messages on the 16-node machine): the all-to-all burst an FFT transpose
  // drives through the flit model. Network construction is included; items
  // are flit link traversals.
  std::uint64_t flits = 0;
  for (auto _ : state) {
    SimKernel kernel;
    FnSink sink;
    FlitNetwork net(NetworkConfig{}, 16, 32, kernel,
                    NetworkHooks{&sink, nullptr, nullptr, nullptr});
    for (NodeId m = 0; m < 16; ++m) sink.on(memEp(m), [](const Message&) {});
    for (NodeId p = 0; p < 16; ++p) {
      for (NodeId m = 0; m < 16; ++m) {
        Message msg;
        msg.type = MsgType::WriteBack;
        msg.src = procEp(p);
        msg.dst = memEp(m);
        msg.addr = (Addr{p} * 16 + m) * 32;
        msg.requester = p;
        net.send(msg);
      }
    }
    kernel.run();
    flits += kernel.registry().counterValue("flit.transmitted");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flits));
}
BENCHMARK(BM_FlitNetworkAllToAll);

// The generator's region tables scale with the trace length, so build it at
// the 8M references of a realistic TPC-C trace and restart it when it runs dry.
constexpr std::uint64_t kTraceRefs = 8'000'000;

void nextRef(TpcGenerator& gen, TraceRecord& r) {
  if (!gen.next(r)) {
    gen = TpcGenerator(TpcParams::tpcc(kTraceRefs));
    gen.next(r);
  }
}

void BM_TpcGenerator(benchmark::State& state) {
  TpcGenerator gen(TpcParams::tpcc(kTraceRefs));
  TraceRecord r;
  for (auto _ : state) {
    nextRef(gen, r);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TpcGenerator);

void BM_TraceSimAccess(benchmark::State& state) {
  TraceConfig cfg = TraceConfig::paperTable3();
  cfg.switchDir.entries = static_cast<std::uint32_t>(state.range(0));
  TraceSimulator sim(cfg);
  TpcGenerator gen(TpcParams::tpcc(kTraceRefs));
  TraceRecord r;
  for (auto _ : state) {
    nextRef(gen, r);
    sim.access(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSimAccess)->Arg(0)->Arg(1024);

}  // namespace
}  // namespace dresar

BENCHMARK_MAIN();
