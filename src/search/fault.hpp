// Deterministic fault injection for the evaluation service.
//
// Robustness paths (retry with backoff, park/resume, crash-safe restart)
// only stay healthy if something exercises them continuously. This harness
// injects three kinds of trouble, all seeded and reproducible:
//
//   * evaluation FAILURES — a seeded hash of (job key, attempt) fails a
//     fraction of evaluations, or `fail_first=N` fails every job's first N
//     attempts (deterministic retry tests);
//   * DELAYS — a seeded fraction of evaluations sleeps before running,
//     shaking out timeout/deadline handling;
//   * CRASH POINTS — the Nth visit to a named program point (e.g. the
//     "checkpoint" persist) hard-kills the process with _Exit(137),
//     simulating a SIGKILL for the crash-resume tests and CI smoke.
//
// Activated by the QARCH_FAULT environment variable (read once, at first
// use) or programmatically via FaultInjector::configure(). Grammar —
// comma-separated key=value:
//
//   QARCH_FAULT="fail=0.1,seed=7"            10% seeded failures
//   QARCH_FAULT="failfirst=2"                first 2 attempts of every job fail
//   QARCH_FAULT="delay=0.01@0.5"             50% of evals sleep 10ms
//   QARCH_FAULT="crash=checkpoint:3"         _Exit(137) on 3rd checkpoint write
//   QARCH_FAULT="crash=append:3"             _Exit(137) inside a store append
//                                            (the point fires before and
//                                            after each append's fdatasync)
//   QARCH_FAULT="drop=0.3,seed=7"            qarchd drops 30% of connections
//
// The wire-level faults extend the same harness over the qarchd daemon:
// `drop=p` makes the server abandon a seeded fraction of accepted
// connections after reading the request and before answering (the client
// sees a clean TCP close mid-exchange and must retry), and
// `crash=server_response:N` kills the daemon between a response's header
// and body sends — a half-written response on the wire, exactly what a
// retrying client and a restarted daemon have to converge through.
//
// When QARCH_FAULT is unset the injector is inert: one branch per
// evaluation, nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/annotations.hpp"

namespace qarch::search {

/// Thrown for an injected evaluation failure (caught by the service's retry
/// machinery like any real evaluation error).
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

/// Parsed injection plan. Default-constructed = no faults.
struct FaultPlan {
  double fail_rate = 0.0;       ///< seeded per-(key, attempt) failure prob
  std::uint64_t seed = 0;       ///< stream seed for fail/delay verdicts
  std::uint64_t fail_first = 0; ///< fail every job's first N attempts
  double delay_seconds = 0.0;   ///< injected sleep length
  double delay_rate = 0.0;      ///< fraction of evaluations delayed
  std::string crash_point;      ///< named point that kills the process
  std::uint64_t crash_after = 0;///< which visit to the point crashes (1-based)
  double drop_rate = 0.0;       ///< fraction of server connections dropped

  [[nodiscard]] bool enabled() const {
    return fail_rate > 0.0 || fail_first > 0 ||
           (delay_rate > 0.0 && delay_seconds > 0.0) ||
           !crash_point.empty() || drop_rate > 0.0;
  }
};

/// Parses the QARCH_FAULT grammar. Throws qarch::Error on malformed specs.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Process-wide injector. All verdicts are pure functions of
/// (plan, key, attempt) except crash-point counting, which is a mutex-held
/// visit counter — so concurrent workers see one deterministic Nth visit.
class FaultInjector {
 public:
  /// The process singleton; reads QARCH_FAULT once on first access.
  static FaultInjector& instance();

  /// Replaces the active plan (tests). Resets all counters.
  void configure(const FaultPlan& plan);

  /// Back to "whatever QARCH_FAULT says" with fresh counters.
  void reset();

  /// Snapshot of the active plan (by value: configure() may swap the plan
  /// concurrently, so handing out a reference would race).
  [[nodiscard]] FaultPlan plan() const;

  /// Call before evaluating `key` for the given 0-based attempt. May sleep
  /// (injected delay) and may throw FaultInjected.
  void on_evaluation(const std::string& key, std::uint64_t attempt);

  /// Announces reaching a named program point; the configured Nth visit to
  /// the crash point terminates the process with _Exit(137).
  void at_point(const char* point);

  /// Wire-fault verdict for the `conn_id`-th accepted server connection
  /// (a process-lifetime ordinal): true = the server should close the
  /// socket without responding. Pure in (plan, conn_id), so a given
  /// connection ordinal drops identically across reruns.
  [[nodiscard]] bool drop_connection(std::uint64_t conn_id);

  /// Counters for tests/reports.
  [[nodiscard]] std::uint64_t injected_failures() const;
  [[nodiscard]] std::uint64_t injected_delays() const;
  [[nodiscard]] std::uint64_t dropped_connections() const;

 private:
  FaultInjector();

  mutable Mutex mutex_{80, "fault.injector"};
  /// The active plan. configure()/reset() replace it while workers read it,
  /// so every read goes through a mutex-held copy; the `armed_` atomic keeps
  /// the QARCH_FAULT-unset fast path lock-free (one relaxed load).
  FaultPlan plan_ QARCH_GUARDED_BY(mutex_);
  std::atomic<bool> armed_{false};
  std::uint64_t failures_ QARCH_GUARDED_BY(mutex_) = 0;
  std::uint64_t delays_ QARCH_GUARDED_BY(mutex_) = 0;
  std::uint64_t drops_ QARCH_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::string, std::uint64_t> point_visits_
      QARCH_GUARDED_BY(mutex_);
};

/// The sanctioned sleep for retry backoff in src/search / src/server
/// (tools/qarch_lint.py bans naked sleep_for there so every delay in the
/// service path stays observable from one place and can be faulted or
/// virtualized later). Injected fault delays also route through here.
void backoff_sleep(double seconds);

}  // namespace qarch::search
