// Search report persistence: JSON round-trip for SearchReport.
//
// Long HPC searches checkpoint their results; this module serializes every
// evaluated candidate (mixer, depth, energies, trained parameters) so a
// report can be reloaded for later analysis without re-running the search.
#pragma once

#include <string>

#include "common/json.hpp"
#include "optim/optimizer.hpp"
#include "qtensor/plan_cache.hpp"
#include "search/engine.hpp"
#include "search/store.hpp"

namespace qarch::search {

/// Serializes a candidate to a JSON object.
json::Value candidate_to_json(const CandidateResult& candidate);

/// Parses a candidate from JSON (inverse of candidate_to_json).
CandidateResult candidate_from_json(const json::Value& value);

/// Serializes a whole report (best, all candidates, timings, rejections).
json::Value report_to_json(const SearchReport& report);

/// Parses a report from JSON (inverse of report_to_json).
SearchReport report_from_json(const json::Value& value);

/// Writes a report to `path` as pretty-printed JSON.
void save_report(const SearchReport& report, const std::string& path);

/// Loads a report previously written by save_report.
SearchReport load_report(const std::string& path);

// -- EvalService persistent result cache -------------------------------------

/// One persisted candidate-result cache entry. Together with the mixer and
/// depth riding inside `result`, the on-disk key is (graph fingerprint,
/// mixer encoding, p, training budget, engine, cache code version) — the
/// fingerprint is raw bytes here and hex-encoded on disk.
struct CacheEntry {
  std::string graph_fp;             ///< raw graph_fingerprint() bytes
  std::size_t training_evals = 0;   ///< COBYLA budget the result was run at
  std::string engine;               ///< resolved engine ("sv" / "tn")
  std::string objective;            ///< ObjectiveSpec::tag(), "" = default
  std::string hamiltonian;          ///< HamiltonianSpec::tag(), "" = default
  CandidateResult result;
};

/// Identity of a persisted entry: the candidate key (graph, mixer, p,
/// budget, objective/Hamiltonian tags) plus the engine that produced it —
/// one candidate may have an sv and a tn twin in one file.
std::string cache_identity(const CacheEntry& entry);

/// Serializes cache entries under the given cache code version.
json::Value result_cache_to_json(const std::vector<CacheEntry>& entries,
                                 const std::string& code_version);

/// Parses cache entries. A file written under a DIFFERENT code version
/// yields no entries (results are not comparable across evaluation-semantics
/// changes); individually malformed entries are skipped, not fatal.
std::vector<CacheEntry> result_cache_from_json(const json::Value& value,
                                               const std::string& code_version);

/// The journal record of one result-cache upsert (store.hpp).
json::Value result_record(const CacheEntry& entry,
                          const std::string& code_version);

/// A store image's entries: the snapshot's (gated by code version as a
/// whole) with the journal's records replayed on top (gated per record).
/// Journal entries come first, newest first, like the service's LRU order.
std::vector<CacheEntry> result_cache_from_image(
    const StoreImage& image, const std::string& code_version);

/// Atomically rewrites `path` (tmp file + rename) with the given entries,
/// under a fresh generation (so any journal beside it no longer applies).
/// Throws Error when the file cannot be written.
void save_result_cache(const std::vector<CacheEntry>& entries,
                       const std::string& path,
                       const std::string& code_version);

/// Loads a cache: the snapshot plus the valid records of its journal.
/// Corruption-tolerant: a missing, unparsable, or version-mismatched
/// snapshot yields no snapshot entries, and a torn journal tail ends the
/// replay (warm starts are an optimization, never a correctness
/// requirement).
std::vector<CacheEntry> load_result_cache(const std::string& path,
                                          const std::string& code_version);
/// The same through a caller's RecordLog, which then knows the generation
/// it extends without re-reading the snapshot.
std::vector<CacheEntry> load_result_cache(RecordLog& log,
                                          const std::string& code_version);

// -- persistent contraction-plan cache ----------------------------------------
//
// Same file discipline as the result cache — snapshot + journal,
// corruption-tolerant version-gated loads — but for qtensor planning
// decisions: (lightcone shape key, network structure hash) -> elimination
// order. Reloading an order is sound regardless of tensor data; the guard
// hash only protects against applying an order to a structurally different
// network.

/// Serializes plan-cache entries under the given cache code version.
json::Value plan_cache_to_json(const std::vector<qtensor::CachedPlan>& plans,
                               const std::string& code_version);

/// Parses plan-cache entries; version mismatch yields no entries and
/// individually malformed entries are skipped.
std::vector<qtensor::CachedPlan> plan_cache_from_json(
    const json::Value& value, const std::string& code_version);

/// The journal record of one plan-cache upsert.
json::Value plan_record(const qtensor::CachedPlan& plan,
                        const std::string& code_version);

/// A store image's plans (snapshot + journal upserts).
std::vector<qtensor::CachedPlan> plan_cache_from_image(
    const StoreImage& image, const std::string& code_version);

/// Atomically rewrites `path` (tmp file + rename) with the given plans.
void save_plan_cache(const std::vector<qtensor::CachedPlan>& plans,
                     const std::string& path, const std::string& code_version);

/// Loads a plan cache (snapshot + journal); missing/corrupt/mismatched
/// snapshots yield no snapshot entries.
std::vector<qtensor::CachedPlan> load_plan_cache(
    const std::string& path, const std::string& code_version);
std::vector<qtensor::CachedPlan> load_plan_cache(
    RecordLog& log, const std::string& code_version);

// -- in-flight training checkpoints -------------------------------------------
//
// Same file discipline again (snapshot + journal, version-gated,
// corruption-tolerant load) for the evaluation service's in-flight training
// checkpoints: a killed process restarted on the same checkpoint_path
// resumes every parked/running candidate mid-training instead of from
// step 0. Every capture appends one put record; a completion appends an
// erase.

/// Serializes an opaque optimizer state. Doubles round-trip bit-exactly
/// (%.17g); non-finite values (e.g. an untouched +inf incumbent) and 64-bit
/// words cross as strings.
json::Value optim_state_to_json(const optim::OptimState& state);

/// Parses an optimizer state (inverse of optim_state_to_json).
optim::OptimState optim_state_from_json(const json::Value& value);

/// One persisted in-flight training run, keyed like the result cache —
/// (graph fingerprint, mixer, p, budget, engine) — plus the optimizer state
/// that resumes it.
struct TrainingCheckpoint {
  std::string graph_fp;            ///< raw graph_fingerprint() bytes
  qaoa::MixerSpec mixer;
  std::size_t p = 0;
  std::size_t training_evals = 0;  ///< full budget of the checkpointed run
  std::string engine;              ///< resolved engine ("sv" / "tn")
  std::string objective;           ///< ObjectiveSpec::tag(), "" = default
  std::string hamiltonian;         ///< HamiltonianSpec::tag(), "" = default
  optim::OptimState state;
};

/// Serializes checkpoints under the given checkpoint code version.
json::Value checkpoints_to_json(const std::vector<TrainingCheckpoint>& entries,
                                const std::string& code_version);

/// Parses checkpoints; version mismatch yields no entries and individually
/// malformed entries are skipped.
std::vector<TrainingCheckpoint> checkpoints_from_json(
    const json::Value& value, const std::string& code_version);

/// Journal records of one checkpoint capture and of its removal (the erase
/// carries the candidate key only).
json::Value checkpoint_put_record(const TrainingCheckpoint& entry,
                                  const std::string& code_version);
json::Value checkpoint_erase_record(const TrainingCheckpoint& entry,
                                    const std::string& code_version);

/// A store image's live checkpoints: puts and erases replayed in order over
/// the snapshot's set.
std::vector<TrainingCheckpoint> checkpoints_from_image(
    const StoreImage& image, const std::string& code_version);

/// Atomically rewrites `path` with the given checkpoints.
void save_checkpoints(const std::vector<TrainingCheckpoint>& entries,
                      const std::string& path,
                      const std::string& code_version);

/// Loads checkpoints (snapshot + journal); missing/corrupt/mismatched
/// snapshots yield no snapshot entries.
std::vector<TrainingCheckpoint> load_checkpoints(
    const std::string& path, const std::string& code_version);
std::vector<TrainingCheckpoint> load_checkpoints(
    RecordLog& log, const std::string& code_version);

}  // namespace qarch::search
