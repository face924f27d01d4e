// component.* timings: each layer's hot public call timed directly, on one
// reference stream drawn from the benchmark seed (the TPC-C stream of the
// tpcc-trace workload). Each timing is repeated; run.py reports the median.
//
// The generator is built at the workload's reference count. TpcParams scales
// its hot/warm block tables with `refs`, so an effectively unbounded count
// (as bench/micro_components passes) exhausts memory.
#include <cstdint>
#include <vector>

#include "bench.h"
#include "coherence/cache_array.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "interconnect/topology.h"
#include "switchdir/dir_cache.h"
#include "trace/tpc_gen.h"
#include "trace/trace_sim.h"

namespace perfbench {
namespace {

using namespace dresar;

constexpr std::uint64_t kWorkloadRefs = 8'000'000;
constexpr std::size_t kOps = 1u << 18;
constexpr int kRepeats = 5;

TpcParams streamParams(std::uint64_t seed) {
  TpcParams p = TpcParams::tpcc(kWorkloadRefs);
  if (seed > 1) {
    Rng mix(seed);
    p.seed ^= mix.next();
  }
  return p;
}

/// Nanoseconds per operation of `body`, which performs `ops` operations.
template <typename F>
double nsPerOp(std::size_t ops, F&& body) {
  const auto t0 = Clock::now();
  body();
  return since(t0) * 1e9 / static_cast<double>(ops);
}

}  // namespace

void runComponents(std::uint64_t seed, Report& r) {
  std::vector<TraceRecord> refs(kOps);
  {
    TpcGenerator gen(streamParams(seed));
    for (TraceRecord& rec : refs) gen.next(rec);
  }
  const TraceConfig tcfg = TraceConfig::paperTable3();
  // Folded into the report so no timed loop can be optimized away.
  std::uint64_t sink = 0;

  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      TpcGenerator gen(streamParams(seed));
      TraceRecord rec;
      r.add("component.tpcgen_ns_per_ref", nsPerOp(kOps, [&] {
              for (std::size_t i = 0; i < kOps; ++i) {
                gen.next(rec);
                sink += rec.addr;
              }
            }));
    }
    {
      SwitchDirCache sd(1024, 4, tcfg.lineBytes);
      r.add("component.sdcache_allocate_ns", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) {
                if (SDEntry* e = sd.allocate(tcfg.blockOf(rec.addr)); e != nullptr) {
                  e->state = SDState::Modified;
                  e->owner = rec.pid;
                }
              }
            }));
      r.add("component.sdcache_find_ns", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) sink += sd.find(tcfg.blockOf(rec.addr)) != nullptr;
            }));
    }
    {
      const Butterfly topo(tcfg.numNodes, 8);
      r.add("component.route_ns", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) {
                sink += topo.route(procEp(rec.pid), memEp(tcfg.homeOf(rec.addr))).size();
              }
            }));
    }
    {
      EventQueue eq;
      r.add("component.eventq_ns_per_event", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) {
                eq.scheduleAfter(rec.addr % 97, [&sink] { ++sink; });
              }
              eq.run();
            }));
    }
    {
      CacheArray cache(tcfg.cacheBytes, tcfg.cacheAssoc, tcfg.lineBytes);
      Victim v;
      for (const TraceRecord& rec : refs) {
        const Addr b = tcfg.blockOf(rec.addr);
        if (cache.find(b) == nullptr) cache.allocate(b, v)->state = CacheState::S;
      }
      r.add("component.cache_array_lookup_ns", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) {
                sink += cache.find(tcfg.blockOf(rec.addr)) != nullptr;
              }
            }));
    }
    {
      TraceConfig cfg = tcfg;
      cfg.switchDir.entries = 1024;
      TraceSimulator sim(cfg);
      r.add("component.tracesim_access_ns", nsPerOp(kOps, [&] {
              for (const TraceRecord& rec : refs) sink += sim.access(rec);
            }));
    }
  }
  r.notes["component.sink"] = static_cast<double>(sink % 1000003);
}

}  // namespace perfbench
