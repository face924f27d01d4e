// dresar_perfbench: measures one workload and prints its raw samples as one
// JSON document on stdout. run.py builds and drives it; see NOTES.md.
//
//   dresar_perfbench --workload fft-flit --seed 1 --seconds 35 --trace 0
//       --out-dir .bench_build/perfbench/out --spec sweeps/fig8.spec
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "sim/json_writer.h"

namespace {

using perfbench::Options;
using perfbench::Report;

constexpr const char* kUsage =
    "usage: dresar_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
    "--out-dir DIR --spec FILE\n";

Options parse(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out-dir") {
      o.outDir = v;
    } else if (flag == "--spec") {
      o.specPath = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload || o.outDir.empty() || o.specPath.empty()) {
    throw std::invalid_argument("--workload, --out-dir and --spec are required");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void write(const Options& o, const Report& r, std::ostream& os) {
  dresar::JsonWriter w(os);
  w.beginObject();
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("trace", o.trace);
  w.key("provenance");
  w.beginObject();
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("compiler", __VERSION__);
  w.field("nproc", std::thread::hardware_concurrency());
  w.endObject();
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.key("errors");
  w.beginArray();
  for (const std::string& e : r.errors) w.value(e);
  w.endArray();
  w.key("fingerprint");
  w.beginObject();
  for (const auto& [k, v] : r.fingerprint) w.field(k, v);
  w.endObject();
  w.key("notes");
  w.beginObject();
  for (const auto& [k, v] : r.notes) w.fieldPrecise(k, v);
  w.endObject();
  w.key("samples");
  w.beginObject();
  for (const auto& [name, xs] : r.samples) {
    w.key(name);
    w.beginArray();
    for (const double x : xs) w.valuePrecise(x);
    w.endArray();
  }
  w.endObject();
  w.endObject();
  os << "\n";
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "error: unoptimized build; build with RelWithDebInfo or Release\n");
  return 2;
#endif
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(), kUsage);
    return 2;
  }
  Report r;
  try {
    perfbench::runWorkload(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!o.trace) r.add("peak_rss_mb", peakRssMiB());
  write(o, r, std::cout);
  return r.failed == 0 ? 0 : 1;
}
