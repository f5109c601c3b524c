#include "search/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "common/error.hpp"
#include "search/fault.hpp"

namespace qarch::search {

namespace {

/// Upper bound on one record's payload; a length field above it is garbage.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;
constexpr std::size_t kRecordHead = 8;  // u32 length + u32 CRC32
/// A journal never compacts below this size: a near-empty snapshot (a cold
/// store, or the few live in-flight checkpoints) would otherwise be
/// rewritten every record or two.
constexpr std::uint64_t kCompactFloorBytes = 64u << 10;

std::uint32_t crc32(const char* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ static_cast<unsigned char>(data[i])) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k)
    out.push_back(static_cast<char>((v >> (8 * k)) & 0xffu));
}

std::uint32_t get_u32(const std::string& in, std::size_t at) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[at + k]))
         << (8 * k);
  return v;
}

std::string journal_header(const std::string& generation) {
  return "qarch-journal 1 " + generation + "\n";
}

/// Hex id unique across processes and snapshot writes: wall-clock
/// nanoseconds, the pid and a process-wide counter, mixed by splitmix64.
std::string fresh_generation() {
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x =
      static_cast<std::uint64_t>(
          std::chrono::system_clock::now().time_since_epoch().count()) ^
      (static_cast<std::uint64_t>(::getpid()) << 40) ^
      (counter.fetch_add(1) * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads [offset, offset + size) of `fd`; false on error or a short file.
bool pread_all(int fd, std::string& out, std::size_t size,
               std::uint64_t offset) {
  out.assign(size, '\0');
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out.data() + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t file_size(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw Error("record log: fstat failed");
  return static_cast<std::uint64_t>(st.st_size);
}

std::array<std::uint64_t, 4> file_id(const struct stat& st) {
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::uint64_t>(st.st_size),
          static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
              static_cast<std::uint64_t>(st.st_mtim.tv_nsec)};
}

void lock_fd(int fd, int operation) {
  while (::flock(fd, operation) != 0)
    if (errno != EINTR) throw Error("record log: flock failed");
}

/// True while `path` still names the file open as `fd` (a compaction by
/// another holder unlinks the journal while we wait for its lock).
bool still_linked(int fd, const std::string& path) {
  struct stat open_st {}, path_st {};
  return ::fstat(fd, &open_st) == 0 && ::stat(path.c_str(), &path_st) == 0 &&
         open_st.st_dev == path_st.st_dev && open_st.st_ino == path_st.st_ino;
}

/// Validates records from `from` on; appends their payloads to `out` when
/// given. Returns the offset just past the last valid record.
std::size_t scan_records(const std::string& bytes, std::size_t from,
                         std::vector<json::Value>* out) {
  std::size_t at = from;
  while (bytes.size() - at >= kRecordHead) {
    const std::uint32_t length = get_u32(bytes, at);
    if (length == 0 || length > kMaxRecordBytes ||
        bytes.size() - at - kRecordHead < length)
      break;  // torn tail or garbage length
    const char* payload = bytes.data() + at + kRecordHead;
    if (crc32(payload, length) != get_u32(bytes, at + 4)) break;
    try {
      json::Value record = json::parse(std::string(payload, length));
      if (out != nullptr) out->push_back(std::move(record));
    } catch (const std::exception&) {
      break;
    }
    at += kRecordHead + length;
  }
  return at;
}

}  // namespace

std::string journal_path(const std::string& path) { return path + ".journal"; }

std::string write_snapshot(json::Value document, const std::string& path,
                           const char* what) {
  // Unique tmp name (pid + process-wide counter), so concurrent writers —
  // other processes AND other services in this process — never interleave
  // into one scratch file. The data is fsync'd BEFORE the rename (a rename
  // only orders metadata: without the flush a crash right after the publish
  // can leave the destination pointing at a truncated file), so readers see
  // either the old complete file or the new one. The directory fsync makes
  // the rename itself durable; it is best-effort because some filesystems
  // refuse directory fds.
  static std::atomic<unsigned> save_counter{0};
  const std::string generation = fresh_generation();
  document.set("generation", generation);
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(save_counter.fetch_add(1));
  const std::string payload = document.dump(2) + '\n';
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr)
    throw Error(std::string(what) + ": cannot open " + tmp);
  bool ok =
      std::fwrite(payload.data(), 1, payload.size(), out) == payload.size();
  ok = std::fflush(out) == 0 && ok;
  ok = ::fsync(::fileno(out)) == 0 && ok;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw Error(std::string(what) + ": write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error(std::string(what) + ": cannot rename " + tmp + " to " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  const int dir_fd = ::open(dir.empty() ? "/" : dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return generation;
}

RecordLog::RecordLog(std::string path)
    : path_(std::move(path)), journal_(journal_path(path_)) {}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);
}

void RecordLog::lock_journal() {
  for (;;) {
    if (fd_ < 0) {
      fd_ = ::open(journal_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                   0644);
      if (fd_ < 0) throw Error("record log: cannot open " + journal_);
      valid_end_ = 0;
    }
    lock_fd(fd_, LOCK_EX);
    if (still_linked(fd_, journal_)) return;
    ::close(fd_);  // compacted away while we waited: take the new one
    fd_ = -1;
  }
}

void RecordLog::unlock_journal() {
  if (fd_ >= 0) ::flock(fd_, LOCK_UN);
}

StoreImage RecordLog::read_snapshot() {
  StoreImage image;
  snapshot_id_ = {};
  generation_.clear();
  snapshot_bytes_ = 0;
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return image;  // no snapshot yet
  struct stat st {};
  std::string text;
  const bool ok = ::fstat(fd, &st) == 0 &&
                  pread_all(fd, text, static_cast<std::size_t>(st.st_size), 0);
  ::close(fd);
  if (!ok) {
    image.error = "read failed";
    return image;
  }
  try {
    image.snapshot = json::parse(text);
    if (image.snapshot.type() == json::Value::Type::Object &&
        image.snapshot.contains("generation"))
      generation_ = image.snapshot.at("generation").as_string();
  } catch (const std::exception& e) {
    image.snapshot = json::Value();
    image.error = e.what();
    generation_.clear();
  }
  snapshot_id_ = file_id(st);
  snapshot_bytes_ = static_cast<std::uint64_t>(st.st_size);
  return image;
}

void RecordLog::refresh_generation() {
  struct stat st {};
  if (::stat(path_.c_str(), &st) == 0 && snapshot_id_ == file_id(st))
    return;  // the snapshot this log last read or wrote
  (void)read_snapshot();
}

void RecordLog::read_journal(int fd, StoreImage& image) const {
  std::string bytes;
  const std::string head = journal_header(generation_);
  if (!generation_.empty() &&
      pread_all(fd, bytes, static_cast<std::size_t>(file_size(fd)), 0) &&
      bytes.compare(0, head.size(), head) == 0)
    scan_records(bytes, head.size(), &image.records);
}

StoreImage RecordLog::load() {
  // A shared lock on the journal (when one exists) keeps appends and
  // compactions out between reading the snapshot and reading its journal.
  int jfd = -1;
  for (int attempt = 0; attempt < 16; ++attempt) {
    jfd = ::open(journal_.c_str(), O_RDONLY | O_CLOEXEC);
    if (jfd < 0) break;
    if (::flock(jfd, LOCK_SH) == 0 && still_linked(jfd, journal_)) break;
    ::close(jfd);  // compacted away meanwhile (or unlockable): retry
    jfd = -1;
  }
  StoreImage image = read_snapshot();
  if (jfd >= 0) {
    read_journal(jfd, image);
    ::close(jfd);  // releases the shared lock
  }
  return image;
}

bool RecordLog::append(const std::vector<json::Value>& records) {
  if (records.empty()) return true;
  lock_journal();
  struct Unlock {
    RecordLog* log;
    ~Unlock() { log->unlock_journal(); }
  } unlock{this};
  refresh_generation();
  if (generation_.empty()) return false;

  const std::string head = journal_header(generation_);
  std::uint64_t size = file_size(fd_);
  std::string present;
  if (size < head.size() || !pread_all(fd_, present, head.size(), 0) ||
      present != head) {
    // Empty, torn, or another generation's journal: start it over.
    if (::ftruncate(fd_, 0) != 0 || !write_all(fd_, head))
      throw Error("record log: cannot reset " + journal_);
    valid_end_ = size = head.size();
  } else {
    if (valid_end_ < head.size() || valid_end_ > size) valid_end_ = head.size();
    if (size > valid_end_) {
      // Records appended by another holder, or a torn tail: validate them
      // and cut the journal back to the last good record.
      std::string tail;
      if (!pread_all(fd_, tail, static_cast<std::size_t>(size - valid_end_),
                     valid_end_))
        throw Error("record log: cannot read " + journal_);
      valid_end_ += scan_records(tail, 0, nullptr);
      if (valid_end_ < size &&
          ::ftruncate(fd_, static_cast<off_t>(valid_end_)) != 0)
        throw Error("record log: cannot truncate " + journal_);
    }
  }

  std::string buffer;
  for (const json::Value& record : records) {
    const std::string payload = record.dump();
    put_u32(buffer, static_cast<std::uint32_t>(payload.size()));
    put_u32(buffer, crc32(payload.data(), payload.size()));
    buffer += payload;
  }
  if (!write_all(fd_, buffer)) {
    (void)::ftruncate(fd_, static_cast<off_t>(valid_end_));
    throw Error("record log: append failed for " + journal_);
  }
  FaultInjector::instance().at_point("append");
  if (::fdatasync(fd_) != 0)
    throw Error("record log: fdatasync failed for " + journal_);
  FaultInjector::instance().at_point("append");
  valid_end_ += buffer.size();
  return true;
}

void RecordLog::compact(
    const std::function<json::Value(const StoreImage&)>& build) {
  lock_journal();
  struct Unlock {
    RecordLog* log;
    ~Unlock() { log->unlock_journal(); }
  } unlock{this};
  StoreImage image = read_snapshot();
  read_journal(fd_, image);

  generation_ = write_snapshot(build(image), path_, "compaction");
  struct stat st {};
  if (::stat(path_.c_str(), &st) == 0) {
    snapshot_id_ = file_id(st);
    snapshot_bytes_ = static_cast<std::uint64_t>(st.st_size);
  }
  // Everything the journal held is in the new snapshot. Unlinking under the
  // lock sends waiting holders to a fresh journal; a crash before the unlink
  // leaves a journal of the old generation, which is ignored.
  ::unlink(journal_.c_str());
  ::close(fd_);
  fd_ = -1;
  valid_end_ = 0;
}

bool RecordLog::oversized() const {
  return valid_end_ >
         std::max<std::uint64_t>(snapshot_bytes_, kCompactFloorBytes);
}

}  // namespace qarch::search
