// Host-performance benchmark of the DRESAR simulator: shared pieces.
//
// One invocation runs one workload in one mode. Untraced (--trace 0) it
// times whole public calls (set-up, then the simulation step) and gives the
// end-to-end samples; traced (--trace 1) it drives the same workload through
// the simulator's public API step by step, records a span around every call
// and reads the exact simulated counts, which gives the per-layer samples.
// Samples are raw, one per repeat; run.py turns them into median, quartiles
// and n.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact simulated counts of one run, printed so a speed-only change can
/// show they did not move.
using Fingerprint = std::map<std::string, std::uint64_t>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir;    ///< where record / aggregate documents are written
  std::string specPath;  ///< sweep spec of the fig8-sweep workload
};

/// Everything one invocation measured and checked.
struct Report {
  std::map<std::string, std::vector<double>> samples;
  Fingerprint fingerprint;  ///< of the first run; every later run must match
  /// Free-form numbers printed beside the metrics (attribution runs).
  std::map<std::string, double> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const std::string& name, double v) { samples[name].push_back(v); }

  /// Runs one simulation attempt. Anything `fn` throws — a failed verify, a
  /// non-quiescent system, a checker violation, a mismatch against an
  /// earlier run — counts the attempt as failed and is kept for the report.
  void attempt(const std::string& label, const std::function<void()>& fn);

  /// Records the first run's fingerprint; throws if a later one differs.
  void matchFingerprint(const Fingerprint& fp);
};

/// Runs `o.workload` in the mode `o.trace` selects for about `o.seconds`
/// of measurement and fills `r`. Throws std::invalid_argument on an unknown
/// workload.
void runWorkload(const Options& o, Report& r);

/// component.* samples: each layer's hot public call timed directly on
/// inputs drawn from `seed`.
void runComponents(std::uint64_t seed, Report& r);

}  // namespace perfbench
