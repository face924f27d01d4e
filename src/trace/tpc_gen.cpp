#include "trace/tpc_gen.h"

#include <stdexcept>
#include <string>

namespace dresar {

namespace {
// Region bases, far apart so regions never overlap and page-interleave
// across all homes.
constexpr Addr kPrivateBase = Addr{1} << 33;
constexpr Addr kHotBase = Addr{1} << 34;
constexpr Addr kWarmBase = Addr{1} << 35;
constexpr Addr kPrivateStride = Addr{1} << 28;  // per-processor private arena
}  // namespace

namespace {
// Region sizes are calibrated at 2M references; scaling them with the trace
// length keeps the Figure 1/2 ratios (dirty fraction, block-count
// concentration) length-invariant — cold misses stay proportional to reuse
// misses. A size past 32 bits throws: the tables it would size are indexed
// by uint32_t and could never be allocated anyway.
std::uint32_t scaled(std::uint32_t at2M, std::uint64_t refs, std::uint32_t floor) {
  const double f = static_cast<double>(refs) / 2'000'000.0;
  const double v = static_cast<double>(at2M) * f;
  if (!(v < 4294967296.0)) {
    throw std::invalid_argument("TpcParams: " + std::to_string(refs) +
                                " references scale a block table past 2^32 entries");
  }
  return std::max(static_cast<std::uint32_t>(v), floor);
}
}  // namespace

TpcParams TpcParams::tpcc(std::uint64_t refs) {
  TpcParams p;
  p.name = "TPC-C";
  p.refs = refs;
  p.privatePerProc = scaled(p.privatePerProc, refs, 200);
  p.hotBlocks = scaled(p.hotBlocks, refs, 400);
  p.warmBlocks = scaled(p.warmBlocks, refs, 200);
  return p;
}

TpcParams TpcParams::tpcd(std::uint64_t refs) {
  // DSS: most read misses touch shared, recently produced data (scan results
  // and intermediates migrating between producers and consumers), so the
  // dirty fraction is much higher and the private cold-miss mass smaller.
  TpcParams p;
  p.name = "TPC-D";
  p.refs = refs;
  p.privatePerProc = scaled(1200, refs, 100);
  p.hotBlocks = scaled(48000, refs, 1000);
  p.warmBlocks = scaled(2500, refs, 200);
  p.pHot = 0.09;
  p.pWarm = 0.012;
  p.privateWriteFrac = 0.2;
  p.warmWriteFrac = 0.005;
  p.zipfHot = 0.25;
  p.seed = 0xd55'7ab1e;
  return p;
}

TpcGenerator::TpcGenerator(const TpcParams& p)
    : p_(p),
      rng_(p.seed),
      hotZipf_(p.hotBlocks, p.zipfHot),
      privZipf_(p.privatePerProc, p.zipfPrivate),
      hotOwner_(p.hotBlocks, kInvalidNode) {
  pending_.reserve(4);
}

Addr TpcGenerator::privateAddr(NodeId pid, std::uint32_t block) const {
  return kPrivateBase + pid * kPrivateStride + static_cast<Addr>(block) * p_.lineBytes;
}

Addr TpcGenerator::hotAddr(std::uint32_t block) const {
  return kHotBase + static_cast<Addr>(block) * p_.lineBytes;
}

Addr TpcGenerator::warmAddr(std::uint32_t block) const {
  return kWarmBase + static_cast<Addr>(block) * p_.lineBytes;
}

void TpcGenerator::synthesizeStep() {
  pending_.clear();
  pendingIdx_ = 0;
  const auto pid = static_cast<NodeId>(rng_.below(p_.numProcs));
  const double dice = rng_.uniform();
  if (dice < p_.pHot) {
    // Migratory access: read the row (c2c from the previous writer), then
    // update it. Prefer a processor other than the current owner so the
    // block keeps migrating.
    auto block = static_cast<std::uint32_t>(hotZipf_.sample(rng_));
    NodeId actor = pid;
    if (hotOwner_[block] == actor) actor = (actor + 1) % p_.numProcs;
    pending_.push_back({actor, hotAddr(block), false});
    pending_.push_back({actor, hotAddr(block), true});
    hotOwner_[block] = actor;
    return;
  }
  if (dice < p_.pHot + p_.pWarm) {
    auto block = static_cast<std::uint32_t>(rng_.below(p_.warmBlocks));
    pending_.push_back({pid, warmAddr(block), rng_.chance(p_.warmWriteFrac)});
    return;
  }
  auto block = static_cast<std::uint32_t>(privZipf_.sample(rng_));
  pending_.push_back({pid, privateAddr(pid, block), rng_.chance(p_.privateWriteFrac)});
}

bool TpcGenerator::next(TraceRecord& out) {
  if (emitted_ >= p_.refs) return false;
  while (pendingIdx_ >= pending_.size()) synthesizeStep();
  out = pending_[pendingIdx_++];
  ++emitted_;
  return true;
}

}  // namespace dresar
