// Synthetic TPC-C / TPC-D memory-reference generators.
//
// The paper evaluated commercial workloads from proprietary IBM COMPASS
// traces; these generators replace them (DESIGN.md substitution #2) with
// streams calibrated to the sharing statistics the paper publishes:
//
//   * TPC-C: ~38% of read misses are cache-to-cache; at 16M references,
//     ~440K read misses over ~130K distinct blocks with ~170K c2c; the top
//     10% of blocks account for ~88% of the c2c transfers (Figure 2).
//   * TPC-D: ~62% of read misses are cache-to-cache.
//
// Structure: each processor mixes (a) private data (cold misses, then cache
// resident), (b) a migratory hot set — a Zipf-ranked pool of blocks that a
// processor reads and then updates, handing dirty ownership around (OLTP
// rows / DSS shared intermediates), and (c) a read-mostly warm set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "trace/ref_stream.h"

namespace dresar {

struct TpcParams {
  const char* name = "TPC-C";
  std::uint64_t refs = 2'000'000;
  std::uint32_t numProcs = 16;
  std::uint32_t lineBytes = 32;
  // Region sizes, in blocks.
  std::uint32_t privatePerProc = 6000;
  std::uint32_t hotBlocks = 12000;
  std::uint32_t warmBlocks = 8000;
  // Reference mix.
  double pHot = 0.047;   ///< probability a step is a migratory read+write pair
  double pWarm = 0.015;  ///< probability a step is a warm-set access
  double privateWriteFrac = 0.25;
  double warmWriteFrac = 0.01;
  double zipfHot = 0.5;
  double zipfPrivate = 0.35;
  std::uint64_t seed = 0x7357'c0de;

  /// OLTP profile (Figure 1: ~38% dirty reads). Region sizes scale with
  /// `refs`; throws std::invalid_argument when one would pass 2^32 blocks.
  static TpcParams tpcc(std::uint64_t refs);
  /// DSS profile (Figure 1: ~62% dirty reads).
  static TpcParams tpcd(std::uint64_t refs);
};

/// Deterministic pull-based generator: call next() until it returns false.
/// Implements RefStream, so it plugs into every trace-driven consumer
/// without materializing a single record.
class TpcGenerator final : public RefStream {
 public:
  explicit TpcGenerator(const TpcParams& p);

  /// Produces the next record; false when `refs` records have been emitted.
  bool next(TraceRecord& out) override;

  [[nodiscard]] const TpcParams& params() const { return p_; }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

  /// Address helpers (used by tests to reason about regions).
  [[nodiscard]] Addr privateAddr(NodeId pid, std::uint32_t block) const;
  [[nodiscard]] Addr hotAddr(std::uint32_t block) const;
  [[nodiscard]] Addr warmAddr(std::uint32_t block) const;

 private:
  void synthesizeStep();

  TpcParams p_;
  Rng rng_;
  ZipfSampler hotZipf_;
  ZipfSampler privZipf_;
  std::uint64_t emitted_ = 0;
  std::vector<TraceRecord> pending_;  ///< records queued by the current step
  std::size_t pendingIdx_ = 0;
  std::vector<NodeId> hotOwner_;      ///< last writer per hot block
};

}  // namespace dresar
