// Entry point and shared plumbing of the end-to-end benchmark.
//
//   perfbench --workload search_sv|search_tn|serve_durable --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// Prints diagnostic lines, then one `{"context": ...}` line (workload, seed,
// machine fingerprint, deterministic counts), then the result object as the
// LAST line of stdout. A failed output check prints the result with
// "correct": false and exits 1.
#include "bench.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/log.hpp"
#include "sim/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace fs = std::filesystem;
using qarch::json::Value;

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t bytes_written() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value)
    if (key == "wchar:") return value;
  return 0;
}

namespace {

std::string fs_type_name(const std::string& dir) {
  struct statfs info{};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace

Value machine_fingerprint(const std::string& store_dir) {
  Value fp = Value::object();
  fp.set("nproc", static_cast<std::size_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  fp.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  fp.set("compiler", std::string("gcc ") + __VERSION__);
#else
  fp.set("compiler", "unknown");
#endif
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("avx2_dispatch", qarch::sim::simd::active());
  fp.set("store_fs", fs_type_name(store_dir));
  return fp;
}

void remove_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void reset_dir(const std::string& dir) {
  remove_dir(dir);
  fs::create_directories(dir);
}

std::uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) { origin_ = now(); }

double Tracer::now() const {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
             .count() -
         origin_;
}

long Tracer::add(std::string name, double start, double end, long parent,
                 std::string id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, end, parent, std::move(id)});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::close(long index, double end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

double Tracer::total(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end - s.start;
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(),
      [&](const Span& s) { return s.name == name; }));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

namespace {

/// Every digit as measured: rounding would hide run-to-run differences.
std::string number(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

int parse_args(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::stoull(value);
    else if (key == "--seconds") options.seconds = std::stod(value);
    else if (key == "--trace") options.trace = value == "1";
    else if (key == "--work-dir") options.work_dir = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.work_dir.empty() ||
      !(options.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  if (const int rc = parse_args(argc, argv, options); rc != 0) return rc;
  qarch::log::set_level(qarch::log::Level::Warn);
  reset_dir(options.work_dir);
  const Value fingerprint = machine_fingerprint(options.work_dir);

  Result result;
  try {
    if (options.workload == "search_sv" || options.workload == "search_tn") {
      result = run_search(options);
    } else if (options.workload == "serve_durable") {
      result = run_serve(options);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    remove_dir(options.work_dir);
    return 1;
  }
  remove_dir(options.work_dir);

  for (const std::string& e : result.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());

  Value context = Value::object();
  context.set("workload", options.workload);
  context.set("seed", static_cast<double>(options.seed));
  context.set("trace", options.trace);
  context.set("fingerprint", fingerprint);
  Value counts = Value::object();
  for (const auto& [name, value] : result.counts)
    counts.set(name, static_cast<double>(value));
  context.set("counts", std::move(counts));
  std::printf("{\"context\": %s}\n", context.dump().c_str());

  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(metric.first) +
               ", \"unit\": \"" + metric.second + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      result.correct ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  std::fflush(stdout);
  return result.correct && result.failed == 0 ? 0 : 1;
}
