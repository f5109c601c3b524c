// Shared plumbing of the end-to-end benchmark: options, sample statistics,
// the in-memory span tracer, process probes (peak RSS, bytes written), the
// machine fingerprint, and the result record every workload fills in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

/// Command line of one run (see run.py for the flags).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch root for store files (inside checkout)
};

/// Median of `xs`; 0 when empty.
double median(std::vector<double> xs);

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

/// Bytes this process handed to write(2) so far (/proc/self/io wchar).
/// Socket traffic goes through send(2) and is not counted.
std::uint64_t bytes_written();

/// nproc, compiler, build type, AVX2 dispatch, and the filesystem type of
/// `store_dir`.
qarch::json::Value machine_fingerprint(const std::string& store_dir);

/// Removes a directory tree (best effort) and recreates it empty.
void reset_dir(const std::string& dir);
void remove_dir(const std::string& dir);
std::uint64_t file_size(const std::string& path);

/// One finished span of the traced run.
struct Span {
  std::string name;
  double start = 0.0;  ///< seconds on the tracer clock
  double end = 0.0;
  long parent = -1;    ///< index of the enclosing span, -1 = root
  std::string id;      ///< candidate or request id
};

/// In-memory span store. Thread-safe; spans are appended (a parent is
/// closed once its children are in) and summarised at the end of the run.
class Tracer {
 public:
  /// A disabled tracer keeps the clock but stores nothing: the untraced
  /// twin of a traced pass, for measuring the tracing overhead.
  explicit Tracer(bool enabled = true);
  [[nodiscard]] double now() const;
  /// Records a closed span and returns its index.
  long add(std::string name, double start, double end, long parent,
           std::string id);
  /// Sets the end of a span recorded open (end == start), so that a parent
  /// can be recorded before its children.
  void close(long index, double end);
  /// Total duration of every span with this name, in seconds.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  double origin_ = 0.0;
  bool enabled_ = true;
};

/// The result a workload hands back to main(): correctness, operation
/// accounting, metrics (value + unit), the deterministic counts, and
/// free-form notes printed before the result line.
struct Result {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed output check; the run then exits non-zero.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

Result run_search(const RunOptions& options);
Result run_serve(const RunOptions& options);

}  // namespace perfbench
