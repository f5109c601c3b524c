// Durable store files: a JSON snapshot plus an append-only record journal.
//
// Every persistent store of the evaluation service (result cache, plan
// cache, in-flight checkpoints) is one snapshot file in the format
// report_io.hpp documents, and beside it `<path>.journal`:
//
//   header   "qarch-journal 1 <generation>\n"
//   record   u32 payload length | u32 CRC32 of the payload | payload
//            (little-endian; the payload is one compact JSON object)
//
// A write to the store is then one small append + one fdatasync, whatever
// the store's size; a compaction folds the journal back into a fresh
// snapshot once it grows larger than the snapshot, and at shutdown.
//
// Each snapshot write stamps a fresh top-level "generation" id and the
// journal header repeats the id of the snapshot it extends. A journal whose
// header names any other generation (a leftover beside a reused path, or
// the old journal of a compaction that crashed after publishing its
// snapshot) is ignored on load and reset on the next append. A torn or
// corrupt record (short tail, CRC mismatch, unparsable payload) ends the
// replay; the next append truncates it away first.
//
// Appends and compactions of one store take an exclusive flock(2) on its
// journal file and loads take a shared one, so processes (and services
// inside one process) sharing a path never lose each other's records or see
// a snapshot without its journal. A RecordLog object itself is not
// thread-safe: its owner serializes calls (EvalService's io mutex).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace qarch::search {

/// What one store holds on disk.
struct StoreImage {
  json::Value snapshot;  ///< parsed snapshot; Null when missing or corrupt
  std::string error;     ///< why an existing snapshot did not parse ("" = ok)
  std::vector<json::Value> records;  ///< valid journal payloads, append order
};

/// Whole-file-or-nothing JSON publish: `document` gets a fresh "generation"
/// field, is pretty-printed to a unique tmp file, fsync'd, renamed over
/// `path`, and the directory is fsync'd (best-effort). Returns the new
/// generation. Throws Error when the file cannot be written; `what` names
/// the caller in the message.
std::string write_snapshot(json::Value document, const std::string& path,
                           const char* what);

/// The journal file beside the snapshot at `path`.
std::string journal_path(const std::string& path);

/// One store's snapshot + journal pair.
class RecordLog {
 public:
  explicit RecordLog(std::string path);
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Reads the snapshot and the journal records that belong to it, under a
  /// shared lock. Never writes.
  StoreImage load();

  /// Appends `records` as ONE write() followed by ONE fdatasync(). Returns
  /// false, writing nothing, when the snapshot carries no generation to
  /// extend (missing, corrupt, or written before journals existed): the
  /// caller compacts first and retries. Throws Error on an I/O failure.
  bool append(const std::vector<json::Value>& records);

  /// Folds disk state into a new snapshot: `build` receives what is on disk
  /// and returns the full snapshot document, which is written under a
  /// fresh generation; then the journal is removed. Throws Error when the
  /// snapshot cannot be written (the journal is then left as it was).
  void compact(const std::function<json::Value(const StoreImage&)>& build);

  /// True once the valid journal is larger than its snapshot (and than a
  /// 64 KiB floor) — the compaction trigger that keeps appends amortized
  /// O(1): a compaction rewrites at most as many bytes as were appended
  /// since the last one.
  [[nodiscard]] bool oversized() const;

 private:
  /// (device, inode, size, mtime ns): a snapshot is replaced by rename,
  /// and an in-place overwrite changes size or mtime.
  using FileId = std::array<std::uint64_t, 4>;

  void lock_journal();
  void unlock_journal();
  /// Reads the snapshot, caching its id, size and generation.
  StoreImage read_snapshot();
  /// Re-reads the snapshot's generation when the file changed identity.
  void refresh_generation();
  /// Adds the records of the journal open as `fd` to `image` when its
  /// header names the cached snapshot generation.
  void read_journal(int fd, StoreImage& image) const;

  std::string path_;
  std::string journal_;
  int fd_ = -1;                  ///< open (locked while in use) journal
  std::uint64_t valid_end_ = 0;  ///< journal bytes known to be valid
  FileId snapshot_id_;           ///< snapshot the cached fields describe
  std::string generation_;       ///< its generation ("" = none)
  std::uint64_t snapshot_bytes_ = 0;
};

}  // namespace qarch::search
