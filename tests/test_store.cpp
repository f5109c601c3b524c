// Durable store tests: the snapshot + journal RecordLog under torn tails,
// corrupt CRCs, stale generations and the compaction trigger, plus the
// evaluation service's use of it — two services sharing one cache_path,
// and a journal that grows by the same bytes per completion whatever the
// store's size.
//
// No fork() here: the TSan CI leg runs this suite.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "search/combinations.hpp"
#include "search/eval_service.hpp"
#include "search/report_io.hpp"
#include "search/store.hpp"
#include "session.hpp"

namespace {

using namespace qarch;

constexpr const char* kVersion = "store-test-v1";

/// A fresh store path under the test temp dir, snapshot and journal gone.
std::string store_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "qarch_store_" + name;
  std::remove(path.c_str());
  std::remove(search::journal_path(path).c_str());
  return path;
}

void remove_store(const std::string& path) {
  std::remove(path.c_str());
  std::remove(search::journal_path(path).c_str());
}

search::CacheEntry entry(int i) {
  search::CacheEntry e;
  e.graph_fp = "fp-" + std::to_string(i);
  e.training_evals = 30;
  e.engine = "sv";
  e.result.mixer = qaoa::MixerSpec::qnas();
  e.result.p = 1;
  e.result.energy = -1.0 - i;
  e.result.theta = {0.25 * i, -0.5};
  e.result.evaluations = 30;
  return e;
}

std::vector<std::string> fingerprints(
    const std::vector<search::CacheEntry>& entries) {
  std::vector<std::string> out;
  for (const auto& e : entries) out.push_back(e.graph_fp);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::uint64_t inode(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_ino)
                                        : 0;
}

/// Appends one result record through a log that loaded the store first.
void append_result(const std::string& path, int i) {
  search::RecordLog log(path);
  (void)log.load();
  ASSERT_TRUE(log.append({search::result_record(entry(i), kVersion)}));
}

TEST(RecordLog, TornTailAtEveryByteOfTheLastRecord) {
  const std::string path = store_path("torn.json");
  search::save_result_cache({entry(0)}, path, kVersion);
  append_result(path, 1);
  const std::uint64_t first_end = file_size(search::journal_path(path));
  append_result(path, 2);
  const std::string full = read_file(search::journal_path(path));
  ASSERT_GT(full.size(), first_end);

  // Newest journal record first, then the snapshot's entries.
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-2", "fp-1", "fp-0"}));
  for (std::size_t cut = first_end; cut < full.size(); ++cut) {
    write_file(search::journal_path(path), full.substr(0, cut));
    EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
              (std::vector<std::string>{"fp-1", "fp-0"}))
        << "journal cut at byte " << cut;
  }

  // The next append cuts the torn tail away before writing.
  append_result(path, 3);
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-3", "fp-1", "fp-0"}));
  remove_store(path);
}

TEST(RecordLog, CorruptCrcStopsTheReplayAtThatRecord) {
  const std::string path = store_path("crc.json");
  search::save_result_cache({entry(0)}, path, kVersion);
  append_result(path, 1);
  const std::uint64_t second = file_size(search::journal_path(path));
  append_result(path, 2);
  append_result(path, 3);

  std::string bytes = read_file(search::journal_path(path));
  bytes[second + 4] ^= 0x01;  // the CRC field of record 2
  write_file(search::journal_path(path), bytes);
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-1", "fp-0"}));
  remove_store(path);
}

TEST(RecordLog, StaleGenerationJournalIsIgnored) {
  const std::string path = store_path("stale.json");
  search::save_result_cache({entry(0)}, path, kVersion);
  append_result(path, 1);

  // A new snapshot (another generation) replaces the store: the old
  // journal no longer applies, on load or on the next append.
  search::save_result_cache({entry(5)}, path, kVersion);
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-5"}));
  append_result(path, 6);
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-6", "fp-5"}));

  // A journal left beside a deleted snapshot never merges into the next.
  std::remove(path.c_str());
  EXPECT_TRUE(search::load_result_cache(path, kVersion).empty());
  search::save_result_cache({}, path, kVersion);
  EXPECT_TRUE(search::load_result_cache(path, kVersion).empty());
  remove_store(path);
}

TEST(RecordLog, RecordsAreGatedByTheirOwnVersion) {
  const std::string path = store_path("version.json");
  search::save_result_cache({entry(0)}, path, kVersion);
  search::RecordLog log(path);
  (void)log.load();
  ASSERT_TRUE(log.append({search::result_record(entry(1), "other-version"),
                          search::result_record(entry(2), kVersion)}));
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-2", "fp-0"}));
  remove_store(path);
}

TEST(RecordLog, AppendNeedsASnapshotGenerationAndCompactionFolds) {
  const std::string path = store_path("fold.json");
  search::RecordLog log(path);
  (void)log.load();
  const json::Value record = search::result_record(entry(1), kVersion);
  EXPECT_FALSE(log.append({record}));  // no snapshot to extend yet

  // A snapshot without a generation (written before journals existed)
  // loads as before, but cannot be extended either.
  write_file(path, search::result_cache_to_json({entry(0)}, kVersion).dump(2));
  EXPECT_EQ(search::load_result_cache(path, kVersion).size(), 1u);
  EXPECT_FALSE(log.append({record}));

  log.compact([](const search::StoreImage& disk) {
    return search::result_cache_to_json(
        search::result_cache_from_image(disk, kVersion), kVersion);
  });
  ASSERT_TRUE(log.append({record}));
  EXPECT_EQ(fingerprints(search::load_result_cache(path, kVersion)),
            (std::vector<std::string>{"fp-1", "fp-0"}));

  // Appends grow the journal until it outgrows its snapshot (and the
  // floor); compaction then folds it into a new snapshot and drops it.
  const std::uint64_t snapshot_inode = inode(path);
  int appended = 1;
  while (!log.oversized()) {
    ASSERT_TRUE(
        log.append({search::result_record(entry(++appended), kVersion)}));
    ASSERT_EQ(inode(path), snapshot_inode);
  }
  EXPECT_GT(file_size(search::journal_path(path)), 64u << 10);
  log.compact([](const search::StoreImage& disk) {
    return search::result_cache_to_json(
        search::result_cache_from_image(disk, kVersion), kVersion);
  });
  EXPECT_NE(inode(path), snapshot_inode);
  EXPECT_EQ(file_size(search::journal_path(path)), 0u);
  EXPECT_FALSE(log.oversized());
  EXPECT_EQ(search::load_result_cache(path, kVersion).size(),
            static_cast<std::size_t>(appended) + 1);
  // The compacted snapshot is today's format, generation aside.
  const json::Value doc = json::parse(read_file(path));
  EXPECT_EQ(doc.at("format").as_string(), "qarch-result-cache");
  EXPECT_EQ(doc.at("code_version").as_string(), kVersion);
  EXPECT_FALSE(doc.at("generation").as_string().empty());
  EXPECT_EQ(search::result_cache_from_json(doc, kVersion).size(),
            static_cast<std::size_t>(appended) + 1);
  remove_store(path);
}

TEST(RecordLog, CheckpointPutsAndErasesReplayInOrder) {
  const std::string path = store_path("ckpt.json");
  search::TrainingCheckpoint a;
  a.graph_fp = "fp-a";
  a.mixer = qaoa::MixerSpec::qnas();
  a.p = 1;
  a.training_evals = 30;
  a.engine = "sv";
  a.state.optimizer = "cobyla";
  a.state.evaluations = 5;
  search::TrainingCheckpoint b = a;
  b.graph_fp = "fp-b";
  search::save_checkpoints({a}, path, kVersion);

  search::RecordLog log(path);
  (void)log.load();
  search::TrainingCheckpoint a10 = a;
  a10.state.evaluations = 10;
  ASSERT_TRUE(log.append({search::checkpoint_put_record(b, kVersion),
                          search::checkpoint_put_record(a10, kVersion),
                          search::checkpoint_erase_record(b, kVersion)}));
  auto loaded = search::load_checkpoints(path, kVersion);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].graph_fp, "fp-a");
  EXPECT_EQ(loaded[0].state.evaluations, 10u);

  ASSERT_TRUE(log.append({search::checkpoint_erase_record(a, kVersion),
                          search::checkpoint_put_record(b, kVersion)}));
  loaded = search::load_checkpoints(path, kVersion);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].graph_fp, "fp-b");
  remove_store(path);
}

// ---------------------------------------------------------------------------
// The evaluation service on top of the store
// ---------------------------------------------------------------------------

SessionConfig durable_session(const std::string& cache,
                              const std::string& ckpt) {
  SessionConfig s;
  s.backend = BackendChoice::Statevector;
  s.training_evals = 30;
  s.shots = 32;
  s.sample_trials = 2;
  s.workers = 1;
  s.cache_path = cache;
  s.checkpoint_path = ckpt;
  return s;
}

graph::Graph test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return graph::random_regular(6, 3, rng);
}

std::vector<qaoa::MixerSpec> cohort() {
  return search::all_combinations(search::GateAlphabet::standard(), 2,
                                  search::CombinationMode::Product);
}

TEST(DurableStore, TwoServicesSharingOneCachePathKeepEveryResult) {
  const std::string cache = store_path("shared.json");
  const std::string ckpt_a = store_path("shared_a_ckpt.json");
  const std::string ckpt_b = store_path("shared_b_ckpt.json");
  const auto g = test_graph(301);
  const auto mixers = cohort();
  ASSERT_GE(mixers.size(), 8u);
  {
    search::EvalService a(durable_session(cache, ckpt_a));
    search::EvalService b(durable_session(cache, ckpt_b));
    std::vector<search::EvalTicket> tickets;
    for (std::size_t i = 0; i < 8; ++i)
      tickets.push_back((i % 2 == 0 ? a : b).submit(g, mixers[i], 1));
    for (const auto& t : tickets) (void)t.wait();
    // Every completion is on disk before its ticket resolved.
    search::EvalService reader([&] {
      SessionConfig s = durable_session(cache, "");
      s.cache_write = false;
      return s;
    }());
    EXPECT_EQ(reader.stats().cache_loaded, 8u);
  }  // both compact: each merges the other's records instead of dropping them

  {
    search::EvalService reloaded(durable_session(cache, ckpt_a));
    EXPECT_EQ(reloaded.stats().cache_loaded, 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      auto t = reloaded.submit(g, mixers[i], 1);
      (void)t.wait();
      EXPECT_TRUE(t.cache_hit()) << mixers[i].to_string();
    }
  }  // its shutdown compaction writes the stores once more
  remove_store(cache);
  remove_store(ckpt_a);
  remove_store(ckpt_b);
}

/// The result-cache code version the service writes under (read back from
/// an empty store it saved), so a synthetic preload loads like its own.
std::string service_cache_version(const std::string& cache) {
  SessionConfig s = durable_session(cache, "");
  (void)search::EvalService(s).save_cache();
  return json::parse(read_file(cache)).at("code_version").as_string();
}

/// Journal growth per completion of a durable service over a result store
/// preloaded with `preload` entries; the snapshot must not be touched.
std::vector<std::uint64_t> journal_growth(std::size_t preload) {
  const std::string cache = store_path("growth.json");
  const std::string ckpt = store_path("growth_ckpt.json");
  const std::string version = service_cache_version(cache);
  std::vector<search::CacheEntry> entries;
  for (std::size_t i = 0; i < preload; ++i)
    entries.push_back(entry(static_cast<int>(i)));
  search::save_result_cache(entries, cache, version);
  const std::uint64_t snapshot_inode = inode(cache);
  const auto g = test_graph(307);
  const auto mixers = cohort();
  std::vector<std::uint64_t> growth;
  {
    SessionConfig session = durable_session(cache, ckpt);
    session.result_cache = preload + 64;
    search::EvalService service(session);
    EXPECT_EQ(service.stats().cache_loaded, preload);
    std::uint64_t before = file_size(search::journal_path(cache));
    for (std::size_t i = 0; i < 6; ++i) {
      (void)service.submit(g, mixers[i], 1).wait();
      const std::uint64_t after = file_size(search::journal_path(cache));
      growth.push_back(after - before);
      before = after;
      EXPECT_EQ(inode(cache), snapshot_inode) << "snapshot rewritten";
    }
  }
  EXPECT_NE(inode(cache), snapshot_inode);  // compacted at shutdown
  EXPECT_EQ(search::load_result_cache(cache, version).size(), preload + 6);
  remove_store(cache);
  remove_store(ckpt);
  return growth;
}

TEST(DurableStore, JournalGrowsByTheSameBytesPerCompletionAtAnySize) {
  const auto small = journal_growth(100);
  const auto large = journal_growth(2000);
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    // One result record each (the first also writes the journal header);
    // timing fields make records differ by a few bytes of %.17g digits.
    EXPECT_GT(small[i], 200u);
    EXPECT_LT(small[i], 2048u);
    EXPECT_NEAR(static_cast<double>(small[i]), static_cast<double>(large[i]),
                16.0)
        << "completion " << i;
  }
}

}  // namespace
