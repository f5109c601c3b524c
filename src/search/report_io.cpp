#include "search/report_io.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/log.hpp"
#include "search/store.hpp"

namespace qarch::search {

namespace {

// Graph fingerprints are raw bytes (packed integers + doubles), not UTF-8;
// they cross the JSON boundary hex-encoded.
std::string hex_encode(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xf]);
  }
  return out;
}

std::string hex_decode(const std::string& hex) {
  QARCH_REQUIRE(hex.size() % 2 == 0, "odd-length hex string");
  const auto nibble = [](char c) -> unsigned {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    throw InvalidArgument("invalid hex digit");
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2)
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  return out;
}

}  // namespace

json::Value candidate_to_json(const CandidateResult& candidate) {
  json::Value obj = json::Value::object();
  json::Value gates = json::Value::array();
  for (circuit::GateKind g : candidate.mixer.gates)
    gates.push_back(circuit::gate_name(g));
  obj.set("mixer", std::move(gates));
  obj.set("p", candidate.p);
  obj.set("energy", candidate.energy);
  obj.set("ratio", candidate.ratio);
  obj.set("sampled_ratio", candidate.sampled_ratio);
  obj.set("evaluations", candidate.evaluations);
  obj.set("queue_seconds", candidate.queue_seconds);
  obj.set("eval_seconds", candidate.eval_seconds);
  obj.set("from_cache", candidate.from_cache);
  json::Value theta = json::Value::array();
  for (double t : candidate.theta) theta.push_back(t);
  obj.set("theta", std::move(theta));
  return obj;
}

CandidateResult candidate_from_json(const json::Value& value) {
  CandidateResult c;
  const json::Value& gates = value.at("mixer");
  for (std::size_t i = 0; i < gates.size(); ++i)
    c.mixer.gates.push_back(circuit::gate_from_name(gates.at(i).as_string()));
  c.p = static_cast<std::size_t>(value.at("p").as_number());
  c.energy = value.at("energy").as_number();
  c.ratio = value.at("ratio").as_number();
  c.sampled_ratio = value.at("sampled_ratio").as_number();
  c.evaluations =
      static_cast<std::size_t>(value.at("evaluations").as_number());
  // Accounting fields postdate the original schema; absent in old reports.
  if (value.contains("queue_seconds"))
    c.queue_seconds = value.at("queue_seconds").as_number();
  if (value.contains("eval_seconds"))
    c.eval_seconds = value.at("eval_seconds").as_number();
  if (value.contains("from_cache"))
    c.from_cache = value.at("from_cache").as_bool();
  const json::Value& theta = value.at("theta");
  for (std::size_t i = 0; i < theta.size(); ++i)
    c.theta.push_back(theta.at(i).as_number());
  return c;
}

json::Value report_to_json(const SearchReport& report) {
  json::Value obj = json::Value::object();
  obj.set("best", candidate_to_json(report.best));
  json::Value all = json::Value::array();
  for (const CandidateResult& c : report.evaluated)
    all.push_back(candidate_to_json(c));
  obj.set("evaluated", std::move(all));
  obj.set("seconds", report.seconds);
  obj.set("num_candidates", report.num_candidates);
  obj.set("cache_hits", report.cache_hits);
  obj.set("cache_misses", report.cache_misses);
  json::Value rej = json::Value::object();
  for (const auto& [name, count] : report.rejections) rej.set(name, count);
  obj.set("rejections", std::move(rej));
  return obj;
}

SearchReport report_from_json(const json::Value& value) {
  SearchReport r;
  r.best = candidate_from_json(value.at("best"));
  const json::Value& all = value.at("evaluated");
  for (std::size_t i = 0; i < all.size(); ++i)
    r.evaluated.push_back(candidate_from_json(all.at(i)));
  r.seconds = value.at("seconds").as_number();
  r.num_candidates =
      static_cast<std::size_t>(value.at("num_candidates").as_number());
  if (value.contains("cache_hits"))
    r.cache_hits =
        static_cast<std::size_t>(value.at("cache_hits").as_number());
  if (value.contains("cache_misses"))
    r.cache_misses =
        static_cast<std::size_t>(value.at("cache_misses").as_number());
  if (value.contains("rejections"))
    for (const auto& [name, count] : value.at("rejections").items())
      r.rejections[name] = static_cast<std::size_t>(count.as_number());
  return r;
}

void save_report(const SearchReport& report, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("save_report: cannot open " + path);
  out << report_to_json(report).dump(2) << '\n';
}

SearchReport load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("load_report: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return report_from_json(json::parse(buffer.str()));
}

namespace {

/// Shared shape of the three stores' snapshot documents.
json::Value store_document(const char* format, const std::string& code_version,
                           json::Value entries) {
  json::Value obj = json::Value::object();
  obj.set("format", format);
  obj.set("code_version", code_version);
  obj.set("entries", std::move(entries));
  return obj;
}

/// The snapshot's entry list, or nullptr when the document is of another
/// format or code version (its entries are not comparable).
const json::Value* snapshot_entries(const json::Value& value,
                                    const char* format,
                                    const std::string& code_version) {
  if (value.type() != json::Value::Type::Object) return nullptr;
  if (!value.contains("format") || value.at("format").as_string() != format)
    return nullptr;
  if (!value.contains("code_version") ||
      value.at("code_version").as_string() != code_version)
    return nullptr;
  if (!value.contains("entries")) return nullptr;
  return &value.at("entries");
}

/// A journal record: {"kind", "version", "entry"}.
json::Value store_record(const char* kind, const std::string& code_version,
                         json::Value entry) {
  json::Value obj = json::Value::object();
  obj.set("kind", kind);
  obj.set("version", code_version);
  obj.set("entry", std::move(entry));
  return obj;
}

/// The record's entry when it is of `kind` under `code_version` — the
/// per-record form of the snapshot's version gate — else nullptr.
const json::Value* record_entry(const json::Value& record, const char* kind,
                                const std::string& code_version) {
  try {
    if (record.at("kind").as_string() != kind ||
        record.at("version").as_string() != code_version)
      return nullptr;
    return &record.at("entry");
  } catch (const std::exception&) {
    return nullptr;
  }
}

/// Parses every element of `list` with `parse`, skipping mangled ones: one
/// bad entry must not poison the rest of a warm start.
template <class T, class Parse>
std::vector<T> parse_entries(const json::Value& list, Parse parse) {
  std::vector<T> out;
  for (std::size_t i = 0; i < list.size(); ++i) {
    try {
      out.push_back(parse(list.at(i)));
    } catch (const std::exception&) {
    }
  }
  return out;
}

json::Value result_entry_to_json(const CacheEntry& e) {
  json::Value entry = json::Value::object();
  entry.set("graph_fp", hex_encode(e.graph_fp));
  entry.set("training_evals", e.training_evals);
  entry.set("engine", e.engine);
  // Spec tags are written only when non-default, so files produced by
  // default-objective runs stay byte-compatible with older readers.
  if (!e.objective.empty()) entry.set("objective", e.objective);
  if (!e.hamiltonian.empty()) entry.set("hamiltonian", e.hamiltonian);
  entry.set("result", candidate_to_json(e.result));
  return entry;
}

CacheEntry result_entry_from_json(const json::Value& item) {
  CacheEntry e;
  e.graph_fp = hex_decode(item.at("graph_fp").as_string());
  e.training_evals =
      static_cast<std::size_t>(item.at("training_evals").as_number());
  e.engine = item.at("engine").as_string();
  if (item.contains("objective"))
    e.objective = item.at("objective").as_string();
  if (item.contains("hamiltonian"))
    e.hamiltonian = item.at("hamiltonian").as_string();
  e.result = candidate_from_json(item.at("result"));
  return e;
}

json::Value plan_entry_to_json(const qtensor::CachedPlan& p) {
  json::Value entry = json::Value::object();
  entry.set("shape_key", p.shape_key);
  // 64-bit hashes do not round-trip through JSON doubles; go via string.
  entry.set("structure_hash", std::to_string(p.structure_hash));
  entry.set("heuristic", p.heuristic);
  json::Value order = json::Value::array();
  for (qtensor::VarId v : p.order) order.push_back(v);
  entry.set("order", std::move(order));
  return entry;
}

qtensor::CachedPlan plan_entry_from_json(const json::Value& item) {
  qtensor::CachedPlan p;
  p.shape_key = item.at("shape_key").as_string();
  p.structure_hash = std::stoull(item.at("structure_hash").as_string());
  p.heuristic = item.at("heuristic").as_string();
  const json::Value& order = item.at("order");
  for (std::size_t k = 0; k < order.size(); ++k)
    p.order.push_back(static_cast<qtensor::VarId>(order.at(k).as_number()));
  return p;
}

std::string plan_identity(const qtensor::CachedPlan& p) {
  return p.shape_key + '\x1f' + std::to_string(p.structure_hash);
}

/// Folds a store image into one entry list: the journal's records, newest
/// first (replaying one identity twice keeps its latest record), then the
/// snapshot's entries no record superseded.
template <class T, class FromJson, class Identity>
std::vector<T> replay(const StoreImage& image, const char* format,
                      const char* kind, const std::string& code_version,
                      FromJson from_json, Identity identity) {
  std::vector<T> out;
  std::unordered_set<std::string> seen;
  for (auto it = image.records.rbegin(); it != image.records.rend(); ++it) {
    const json::Value* entry = record_entry(*it, kind, code_version);
    if (entry == nullptr) continue;
    try {
      T e = from_json(*entry);
      if (seen.insert(identity(e)).second) out.push_back(std::move(e));
    } catch (const std::exception&) {
    }
  }
  const json::Value* list =
      snapshot_entries(image.snapshot, format, code_version);
  if (list == nullptr) return out;
  std::vector<T> snapshot = parse_entries<T>(*list, from_json);
  if (seen.empty()) return snapshot;  // nothing to supersede
  for (T& e : snapshot)
    if (seen.insert(identity(e)).second) out.push_back(std::move(e));
  return out;
}

}  // namespace

std::string cache_identity(const CacheEntry& e) {
  std::string id = e.graph_fp;
  id += '\x1e' + e.result.mixer.to_string() + "@p" +
        std::to_string(e.result.p) + "@e" + std::to_string(e.training_evals);
  if (!e.objective.empty()) id += "@o" + e.objective;
  if (!e.hamiltonian.empty()) id += "@h" + e.hamiltonian;
  return id + '\x1f' + e.engine;
}

json::Value result_cache_to_json(const std::vector<CacheEntry>& entries,
                                 const std::string& code_version) {
  json::Value list = json::Value::array();
  for (const CacheEntry& e : entries) list.push_back(result_entry_to_json(e));
  return store_document("qarch-result-cache", code_version, std::move(list));
}

std::vector<CacheEntry> result_cache_from_json(
    const json::Value& value, const std::string& code_version) {
  const json::Value* list =
      snapshot_entries(value, "qarch-result-cache", code_version);
  if (list == nullptr) return {};  // stale semantics: not comparable
  return parse_entries<CacheEntry>(*list, result_entry_from_json);
}

json::Value result_record(const CacheEntry& entry,
                          const std::string& code_version) {
  return store_record("result", code_version, result_entry_to_json(entry));
}

std::vector<CacheEntry> result_cache_from_image(
    const StoreImage& image, const std::string& code_version) {
  return replay<CacheEntry>(image, "qarch-result-cache", "result",
                            code_version, result_entry_from_json,
                            cache_identity);
}

void save_result_cache(const std::vector<CacheEntry>& entries,
                       const std::string& path,
                       const std::string& code_version) {
  write_snapshot(result_cache_to_json(entries, code_version), path,
                 "save_result_cache");
}

std::vector<CacheEntry> load_result_cache(RecordLog& store,
                                          const std::string& code_version) {
  const StoreImage image = store.load();
  if (!image.error.empty())
    log::warn("ignoring corrupt result cache ", store.path(), ": ",
              image.error);
  return result_cache_from_image(image, code_version);
}

std::vector<CacheEntry> load_result_cache(
    const std::string& path, const std::string& code_version) {
  RecordLog store(path);
  return load_result_cache(store, code_version);
}

json::Value plan_cache_to_json(const std::vector<qtensor::CachedPlan>& plans,
                               const std::string& code_version) {
  json::Value list = json::Value::array();
  for (const qtensor::CachedPlan& p : plans)
    list.push_back(plan_entry_to_json(p));
  return store_document("qarch-plan-cache", code_version, std::move(list));
}

std::vector<qtensor::CachedPlan> plan_cache_from_json(
    const json::Value& value, const std::string& code_version) {
  const json::Value* list =
      snapshot_entries(value, "qarch-plan-cache", code_version);
  if (list == nullptr) return {};  // planner semantics changed: replan
  return parse_entries<qtensor::CachedPlan>(*list, plan_entry_from_json);
}

json::Value plan_record(const qtensor::CachedPlan& plan,
                        const std::string& code_version) {
  return store_record("plan", code_version, plan_entry_to_json(plan));
}

std::vector<qtensor::CachedPlan> plan_cache_from_image(
    const StoreImage& image, const std::string& code_version) {
  return replay<qtensor::CachedPlan>(image, "qarch-plan-cache", "plan",
                                     code_version, plan_entry_from_json,
                                     plan_identity);
}

void save_plan_cache(const std::vector<qtensor::CachedPlan>& plans,
                     const std::string& path,
                     const std::string& code_version) {
  write_snapshot(plan_cache_to_json(plans, code_version), path,
                 "save_plan_cache");
}

std::vector<qtensor::CachedPlan> load_plan_cache(RecordLog& store,
                                          const std::string& code_version) {
  const StoreImage image = store.load();
  if (!image.error.empty())
    log::warn("ignoring corrupt plan cache ", store.path(), ": ", image.error);
  return plan_cache_from_image(image, code_version);
}

std::vector<qtensor::CachedPlan> load_plan_cache(
    const std::string& path, const std::string& code_version) {
  RecordLog store(path);
  return load_plan_cache(store, code_version);
}

namespace {

// Optimizer internals may legitimately hold non-finite doubles (an untouched
// +inf incumbent before any restart completes). JSON has no inf/nan tokens,
// so those cross as tagged strings; everything finite stays a plain number
// (%.17g — bit-exact round trip).
json::Value finite_or_tag(double v) {
  if (std::isfinite(v)) return {v};
  if (std::isnan(v)) return {"nan"};
  return {v > 0 ? "inf" : "-inf"};
}

double number_or_tag(const json::Value& v) {
  if (v.type() == json::Value::Type::String) {
    const std::string& s = v.as_string();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
    throw InvalidArgument("bad tagged number: " + s);
  }
  return v.as_number();
}

}  // namespace

json::Value optim_state_to_json(const optim::OptimState& state) {
  json::Value obj = json::Value::object();
  obj.set("optimizer", state.optimizer);
  obj.set("evaluations", state.evaluations);
  json::Value history = json::Value::array();
  for (double h : state.history) history.push_back(finite_or_tag(h));
  obj.set("history", std::move(history));
  json::Value numbers = json::Value::array();
  for (double n : state.numbers) numbers.push_back(finite_or_tag(n));
  obj.set("numbers", std::move(numbers));
  // 64-bit words (counters, RNG state) do not round-trip through JSON
  // doubles; go via strings like the plan cache's structure hashes.
  json::Value words = json::Value::array();
  for (std::uint64_t w : state.words) words.push_back(std::to_string(w));
  obj.set("words", std::move(words));
  json::Value child = json::Value::array();
  for (const optim::OptimState& c : state.child)
    child.push_back(optim_state_to_json(c));
  obj.set("child", std::move(child));
  return obj;
}

optim::OptimState optim_state_from_json(const json::Value& value) {
  optim::OptimState state;
  state.optimizer = value.at("optimizer").as_string();
  state.evaluations =
      static_cast<std::size_t>(value.at("evaluations").as_number());
  const json::Value& history = value.at("history");
  for (std::size_t i = 0; i < history.size(); ++i)
    state.history.push_back(number_or_tag(history.at(i)));
  const json::Value& numbers = value.at("numbers");
  for (std::size_t i = 0; i < numbers.size(); ++i)
    state.numbers.push_back(number_or_tag(numbers.at(i)));
  const json::Value& words = value.at("words");
  for (std::size_t i = 0; i < words.size(); ++i)
    state.words.push_back(std::stoull(words.at(i).as_string()));
  const json::Value& child = value.at("child");
  for (std::size_t i = 0; i < child.size(); ++i)
    state.child.push_back(optim_state_from_json(child.at(i)));
  return state;
}

namespace {

json::Value checkpoint_entry_to_json(const TrainingCheckpoint& e,
                                     bool with_state) {
  json::Value entry = json::Value::object();
  entry.set("graph_fp", hex_encode(e.graph_fp));
  json::Value gates = json::Value::array();
  for (circuit::GateKind g : e.mixer.gates)
    gates.push_back(circuit::gate_name(g));
  entry.set("mixer", std::move(gates));
  entry.set("p", e.p);
  entry.set("training_evals", e.training_evals);
  entry.set("engine", e.engine);
  if (!e.objective.empty()) entry.set("objective", e.objective);
  if (!e.hamiltonian.empty()) entry.set("hamiltonian", e.hamiltonian);
  if (with_state) entry.set("state", optim_state_to_json(e.state));
  return entry;
}

TrainingCheckpoint checkpoint_entry_from_json(const json::Value& item,
                                              bool with_state) {
  TrainingCheckpoint e;
  e.graph_fp = hex_decode(item.at("graph_fp").as_string());
  const json::Value& gates = item.at("mixer");
  for (std::size_t k = 0; k < gates.size(); ++k)
    e.mixer.gates.push_back(circuit::gate_from_name(gates.at(k).as_string()));
  e.p = static_cast<std::size_t>(item.at("p").as_number());
  e.training_evals =
      static_cast<std::size_t>(item.at("training_evals").as_number());
  e.engine = item.at("engine").as_string();
  if (item.contains("objective"))
    e.objective = item.at("objective").as_string();
  if (item.contains("hamiltonian"))
    e.hamiltonian = item.at("hamiltonian").as_string();
  if (with_state) e.state = optim_state_from_json(item.at("state"));
  return e;
}

TrainingCheckpoint checkpoint_from_json(const json::Value& item) {
  return checkpoint_entry_from_json(item, true);
}

/// A checkpoint's candidate identity (one in-flight run per candidate,
/// whatever engine produced its state).
std::string checkpoint_identity(const TrainingCheckpoint& e) {
  std::string id = e.graph_fp;
  id += '\x1e' + e.mixer.to_string() + "@p" + std::to_string(e.p) + "@e" +
        std::to_string(e.training_evals);
  if (!e.objective.empty()) id += "@o" + e.objective;
  if (!e.hamiltonian.empty()) id += "@h" + e.hamiltonian;
  return id;
}

}  // namespace

json::Value checkpoints_to_json(const std::vector<TrainingCheckpoint>& entries,
                                const std::string& code_version) {
  json::Value list = json::Value::array();
  for (const TrainingCheckpoint& e : entries)
    list.push_back(checkpoint_entry_to_json(e, true));
  return store_document("qarch-checkpoints", code_version, std::move(list));
}

std::vector<TrainingCheckpoint> checkpoints_from_json(
    const json::Value& value, const std::string& code_version) {
  const json::Value* list =
      snapshot_entries(value, "qarch-checkpoints", code_version);
  if (list == nullptr) return {};  // optimizer internals changed: retrain
  // A mangled checkpoint is skipped; that candidate retrains from scratch.
  return parse_entries<TrainingCheckpoint>(*list, checkpoint_from_json);
}

json::Value checkpoint_put_record(const TrainingCheckpoint& entry,
                                  const std::string& code_version) {
  return store_record("checkpoint", code_version,
                      checkpoint_entry_to_json(entry, true));
}

json::Value checkpoint_erase_record(const TrainingCheckpoint& entry,
                                    const std::string& code_version) {
  return store_record("checkpoint-erase", code_version,
                      checkpoint_entry_to_json(entry, false));
}

std::vector<TrainingCheckpoint> checkpoints_from_image(
    const StoreImage& image, const std::string& code_version) {
  // Puts and erases replay in order over the snapshot's set.
  std::vector<TrainingCheckpoint> out;
  std::unordered_map<std::string, std::size_t> index;
  const auto put = [&](TrainingCheckpoint e) {
    const std::string id = checkpoint_identity(e);
    if (const auto it = index.find(id); it != index.end()) {
      out[it->second] = std::move(e);
    } else {
      index.emplace(id, out.size());
      out.push_back(std::move(e));
    }
  };
  for (TrainingCheckpoint& e :
       checkpoints_from_json(image.snapshot, code_version))
    put(std::move(e));
  std::unordered_set<std::string> erased;
  for (const json::Value& record : image.records) {
    try {
      if (const json::Value* entry =
              record_entry(record, "checkpoint", code_version)) {
        TrainingCheckpoint e = checkpoint_entry_from_json(*entry, true);
        erased.erase(checkpoint_identity(e));
        put(std::move(e));
      } else if (const json::Value* gone = record_entry(
                     record, "checkpoint-erase", code_version)) {
        erased.insert(
            checkpoint_identity(checkpoint_entry_from_json(*gone, false)));
      }
    } catch (const std::exception&) {
    }
  }
  std::vector<TrainingCheckpoint> live;
  for (TrainingCheckpoint& e : out)
    if (erased.count(checkpoint_identity(e)) == 0) live.push_back(std::move(e));
  return live;
}

void save_checkpoints(const std::vector<TrainingCheckpoint>& entries,
                      const std::string& path,
                      const std::string& code_version) {
  write_snapshot(checkpoints_to_json(entries, code_version), path,
                 "save_checkpoints");
}

std::vector<TrainingCheckpoint> load_checkpoints(RecordLog& store,
                                          const std::string& code_version) {
  const StoreImage image = store.load();
  if (!image.error.empty())
    log::warn("ignoring corrupt checkpoint file ", store.path(), ": ",
              image.error);
  return checkpoints_from_image(image, code_version);
}

std::vector<TrainingCheckpoint> load_checkpoints(
    const std::string& path, const std::string& code_version) {
  RecordLog store(path);
  return load_checkpoints(store, code_version);
}

}  // namespace qarch::search
