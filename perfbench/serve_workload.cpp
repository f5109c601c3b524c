// serve_durable: qarchd in its durable posture under a closed-loop mix.
//
// Set-up (timed as setup_s): an in-process QarchServer on a loopback
// ephemeral port with cache_path, plan_cache_path and checkpoint_path in a
// fresh directory that holds a copy of the preload — the store an earlier
// seeded study (kPreloadEntries candidates on small graphs, run through
// the service itself) left behind. The preload is made once per run.
//
// Script (timed as wall_s): kClients keep-alive QarchClients across two
// tenants of weight 3 and 1. Each client owns one seeded n=10 graph and a
// pool of candidate identities on it, and walks a seeded list of
//   * evaluate() of a new identity (a fresh evaluation),
//   * evaluate() of an identity it already saw (a result-cache hit),
//   * /v1/sample of a fixed-theta ansatz on the tensor-network engine.
// Identities never repeat across clients, so the number of fresh
// evaluations is exactly the number of distinct identities in the script.
//
// The traced run plays the script once, replays its hit requests through
// QarchServer::handle() with no socket, reproduces every fresh evaluation
// from public calls, and re-draws every sample in-process.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "qtensor/network.hpp"
#include "qtensor/planner.hpp"
#include "reproduce.hpp"
#include "search/alphabet.hpp"
#include "search/combinations.hpp"
#include "search/eval_service.hpp"
#include "search/report_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/sim_program.hpp"

namespace perfbench {

using namespace qarch;

namespace {

constexpr std::size_t kQubits = 10;
constexpr std::size_t kClients = 3;
constexpr std::size_t kFreshPerClient = 40;
constexpr std::size_t kHitsPerClient = 150;
constexpr std::size_t kSamplesPerClient = 12;
constexpr std::size_t kSampleShots = 8;
constexpr std::size_t kSampleDepth = 2;  ///< samples use MixerSpec::qnas()
constexpr std::size_t kBudget = 100;
constexpr std::size_t kPreloadEntries = 2000;
constexpr std::size_t kPreloadBudget = 10;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kParitySubset = 12;
constexpr std::size_t kSetupSamples = 3;

struct Op {
  enum Kind { Fresh, Hit, Sample } kind = Fresh;
  std::size_t identity = 0;  ///< Fresh / Hit: index into the client's pool
  std::vector<double> theta; ///< Sample only
  std::uint64_t seed = 0;    ///< Sample only
};

struct ClientScript {
  graph::Graph graph;
  std::vector<std::pair<qaoa::MixerSpec, std::size_t>> pool;
  std::vector<Op> ops;
  std::string api_key;
};

std::vector<ClientScript> make_scripts(std::uint64_t seed) {
  const auto mixers = search::all_combinations(
      search::GateAlphabet::standard(), 2, search::CombinationMode::Product);
  std::vector<ClientScript> scripts(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    ClientScript& s = scripts[c];
    // Fixed graph and identity pool per client, so every seed does the same
    // work; the seed orders the script and draws the sample requests.
    Rng base(0xba5e + c);
    s.graph = graph::random_regular(kQubits, 3, base);
    s.api_key = c + 1 < kClients ? "interactive-key" : "batch-key";
    for (std::size_t p = 1; p <= 2; ++p)
      for (const auto& m : mixers) s.pool.emplace_back(m, p);
    std::shuffle(s.pool.begin(), s.pool.end(), base);
    s.pool.resize(kFreshPerClient);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c);

    std::vector<Op::Kind> kinds;
    kinds.insert(kinds.end(), kFreshPerClient, Op::Fresh);
    kinds.insert(kinds.end(), kHitsPerClient, Op::Hit);
    kinds.insert(kinds.end(), kSamplesPerClient, Op::Sample);
    std::shuffle(kinds.begin(), kinds.end(), rng);
    // A repeat needs an identity seen before: the first evaluation is new.
    const auto first_eval = std::find_if(kinds.begin(), kinds.end(), [](auto k) {
      return k != Op::Sample;
    });
    if (*first_eval == Op::Hit)
      std::iter_swap(first_eval, std::find(kinds.begin(), kinds.end(), Op::Fresh));
    std::size_t introduced = 0;
    for (const Op::Kind kind : kinds) {
      Op op;
      op.kind = kind;
      if (kind == Op::Fresh) {
        op.identity = introduced++;
      } else if (kind == Op::Hit) {
        op.identity = static_cast<std::size_t>(rng.uniform_int(introduced));
      } else {
        for (std::size_t i = 0; i < 2 * kSampleDepth; ++i)
          op.theta.push_back(rng.uniform(0.0, 3.0));
        op.seed = rng.uniform_int(1000000000);
      }
      s.ops.push_back(std::move(op));
    }
  }
  return scripts;
}

SessionConfig serve_session(const std::string& dir) {
  SessionConfig s;
  s.backend = BackendChoice::Auto;  // n=10 resolves to the statevector
  s.workers = kWorkers;
  s.training_evals = kBudget;
  if (!dir.empty()) {
    s.cache_path = dir + "/results.json";
    s.plan_cache_path = dir + "/plans.json";
    s.checkpoint_path = dir + "/checkpoints.json";
  }
  return s;
}

json::Value sample_body(const ClientScript& s, const Op& op) {
  json::Value body = server::QarchClient::submit_body(
      s.graph, qaoa::MixerSpec::qnas().to_string(), kSampleDepth);
  json::Value theta = json::Value::array();
  for (double x : op.theta) theta.push_back(x);
  body.set("theta", std::move(theta));
  body.set("shots", kSampleShots);
  body.set("seed", static_cast<double>(op.seed));
  body.set("engine", "tn");
  return body;
}

/// The preload store: an earlier seeded study through the service itself.
std::size_t make_preload(const std::string& dir, std::uint64_t seed) {
  reset_dir(dir);
  SessionConfig session = serve_session(dir);
  session.checkpoint_path.clear();
  session.training_evals = kPreloadBudget;
  session.workers = 4;
  session.result_cache = kPreloadEntries + 64;
  const auto mixers = search::all_combinations(
      search::GateAlphabet::standard(), 2, search::CombinationMode::Product);
  search::EvalService service(session);
  std::vector<search::EvalTicket> tickets;
  Rng rng(seed * 0x9e37ULL + 77);
  while (tickets.size() < kPreloadEntries) {
    const graph::Graph g = graph::random_regular(6, 3, rng);
    for (std::size_t p = 1; p <= 2 && tickets.size() < kPreloadEntries; ++p)
      for (const auto& m : mixers)
        if (tickets.size() < kPreloadEntries)
          tickets.push_back(service.submit(g, m, p));
  }
  (void)service.collect(tickets);
  return service.save_cache();
}

void copy_store(const std::string& from, const std::string& to) {
  reset_dir(to);
  for (const auto& entry : std::filesystem::directory_iterator(from))
    std::filesystem::copy_file(entry.path(), to + "/" +
                                                 entry.path().filename().string());
}

struct OpTiming {
  std::size_t client = 0;
  std::size_t op = 0;
  double seconds = 0.0;
  search::CandidateResult result;      ///< evaluations
  std::vector<std::size_t> draws;      ///< samples
};

struct ServeRun {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  std::vector<OpTiming> ops;
  search::EvalService::Stats stats;
  server::QarchServer::Counters counters;
  std::uint64_t program_compiles = 0, network_builds = 0, planner_calls = 0;
  std::uint64_t bytes = 0;
  std::size_t failed = 0;
};

/// One repetition: set up on a fresh copy of the preload, play the script.
/// When `keep` is given the server is handed back still running.
ServeRun play(const std::vector<ClientScript>& scripts,
              const std::string& preload, const std::string& dir,
              std::unique_ptr<server::QarchServer>* keep = nullptr) {
  ServeRun run;
  copy_store(preload, dir);
  server::ServerConfig config;
  config.session = serve_session(dir);
  config.tenants = {
      server::TenantSpec{.name = "interactive", .api_key = "interactive-key",
                         .weight = 3.0},
      server::TenantSpec{.name = "batch", .api_key = "batch-key",
                         .weight = 1.0}};

  // Set-up is sampled kSetupSamples times per repetition, each on its own
  // fresh copy of the preload; the script runs on the last server.
  for (std::size_t i = 0; i + 1 < kSetupSamples; ++i) {
    const std::string probe_dir = dir + "-setup" + std::to_string(i);
    copy_store(preload, probe_dir);
    server::ServerConfig probe_config = config;
    probe_config.session = serve_session(probe_dir);
    {
      Timer t;
      server::QarchServer probe(probe_config);
      probe.start();
      run.setup_s.push_back(t.seconds());
      probe.stop(5.0);
    }  // destroyed first: its destructor persists the stores once more
    remove_dir(probe_dir);
  }
  Timer setup;
  auto server = std::make_unique<server::QarchServer>(config);
  server->start();
  run.setup_s.push_back(setup.seconds());

  const std::uint64_t compiles0 = sim::program_compile_count();
  const std::uint64_t builds0 = qtensor::network_build_count();
  const std::size_t planner0 = qtensor::planner_invocation_count();
  const std::uint64_t bytes0 = bytes_written();
  std::vector<std::vector<OpTiming>> per_client(kClients);
  std::atomic<std::size_t> failed{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      const ClientScript& s = scripts[c];
      server::ClientOptions options;
      options.port = server->port();
      options.api_key = s.api_key;
      server::QarchClient client(options);
      for (std::size_t i = 0; i < s.ops.size(); ++i) {
        const Op& op = s.ops[i];
        OpTiming t;
        t.client = c;
        t.op = i;
        try {
          Timer timer;
          if (op.kind == Op::Sample) {
            const json::Value r = client.request(
                "POST", "/v1/sample", sample_body(s, op).dump());
            t.seconds = timer.seconds();
            const json::Value& samples = r.at("samples");
            for (std::size_t k = 0; k < samples.size(); ++k)
              t.draws.push_back(
                  static_cast<std::size_t>(samples.at(k).as_number()));
          } else {
            const auto& [mixer, p] = s.pool[op.identity];
            t.result = client.evaluate(server::QarchClient::submit_body(
                s.graph, mixer.to_string(), p));
            t.seconds = timer.seconds();
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "client %zu op %zu: %s\n", c, i, e.what());
          ++failed;
        }
        per_client[c].push_back(std::move(t));
      }
    });
  for (std::thread& th : threads) th.join();
  run.wall_s = wall.seconds();
  run.bytes = bytes_written() - bytes0;
  run.program_compiles = sim::program_compile_count() - compiles0;
  run.network_builds = qtensor::network_build_count() - builds0;
  run.planner_calls = qtensor::planner_invocation_count() - planner0;
  run.failed = failed;
  run.stats = server->service().stats();
  run.counters = server->counters();
  for (auto& ops : per_client)
    for (auto& t : ops) run.ops.push_back(std::move(t));
  if (keep != nullptr) {
    *keep = std::move(server);
  } else {
    server->stop(5.0);
  }
  return run;
}

const Op& op_of(const std::vector<ClientScript>& scripts, const OpTiming& t) {
  return scripts[t.client].ops[t.op];
}

/// Output checks that need no tracing.
void check_run(const std::vector<ClientScript>& scripts, const ServeRun& run,
               std::size_t preload_entries, Result& result) {
  result.check(run.stats.cache_loaded == preload_entries,
               "service loaded the whole preload (" +
                   std::to_string(run.stats.cache_loaded) + " of " +
                   std::to_string(preload_entries) + ")");
  result.check(run.stats.cache_misses == kClients * kFreshPerClient,
               "fresh evaluations equal the distinct identities");
  for (const OpTiming& t : run.ops) {
    const Op& op = op_of(scripts, t);
    if (op.kind == Op::Fresh && t.result.from_cache)
      result.check(false, "a first sight was served from the cache");
    if (op.kind == Op::Hit && !t.result.from_cache)
      result.check(false, "a repeat was evaluated fresh");
  }
}

/// A seeded subset of wire results against an in-process EvalService.
void check_parity(const std::vector<ClientScript>& scripts,
                  const ServeRun& run, std::uint64_t seed, Result& result) {
  std::vector<const OpTiming*> fresh;
  for (const OpTiming& t : run.ops)
    if (op_of(scripts, t).kind == Op::Fresh) fresh.push_back(&t);
  Rng rng(seed + 5);
  std::shuffle(fresh.begin(), fresh.end(), rng);
  fresh.resize(std::min(fresh.size(), kParitySubset));
  search::EvalService direct(serve_session(""));
  std::vector<search::EvalTicket> tickets;
  for (const OpTiming* t : fresh) {
    const auto& [mixer, p] = scripts[t->client].pool[op_of(scripts, *t).identity];
    tickets.push_back(direct.submit(scripts[t->client].graph, mixer, p));
  }
  const auto results = direct.collect(tickets);
  std::size_t same = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i)
    if (same_result(results[i], fresh[i]->result)) ++same;
  result.check(same == fresh.size(),
               "wire results bit-identical to in-process EvalService on " +
                   std::to_string(same) + "/" + std::to_string(fresh.size()));
}

/// Re-draws samples in-process; returns (compile, sample) seconds per call.
std::vector<std::pair<double, double>> check_samples(
    const std::vector<ClientScript>& scripts, const ServeRun& run,
    std::size_t limit, Result& result) {
  const SessionConfig session = serve_session("");
  const query::SamplerOptions so =
      sampler_options(session, qaoa::EngineKind::TensorNetwork);
  std::vector<std::pair<double, double>> times;
  for (const OpTiming& t : run.ops) {
    const Op& op = op_of(scripts, t);
    if (op.kind != Op::Sample || times.size() >= limit) continue;
    const ClientScript& s = scripts[t.client];
    const circuit::Circuit ansatz =
        simplified_ansatz(s.graph, kSampleDepth, qaoa::MixerSpec::qnas());
    Timer compile;
    const query::Sampler sampler(ansatz, so);
    const double compile_s = compile.seconds();
    Timer draw;
    Rng rng(op.seed);
    const auto draws = sampler.sample(op.theta, kSampleShots, rng);
    times.emplace_back(compile_s, draw.seconds());
    result.check(draws == t.draws,
                 "wire sample draws equal an in-process Sampler");
  }
  return times;
}

std::string code_version(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return json::parse(text.str()).at("code_version").as_string();
}

void traced_run(const std::vector<ClientScript>& scripts,
                const std::string& preload, std::size_t preload_entries,
                const RunOptions& options, Result& result) {
  const std::string dir = options.work_dir + "/store";
  std::unique_ptr<server::QarchServer> server;
  const ServeRun run = play(scripts, preload, dir, &server);
  check_run(scripts, run, preload_entries, result);
  result.attempted = run.ops.size();
  result.failed = run.failed;

  // Wire layers: every hit of the script replayed through handle().
  std::vector<double> handle, dump, parse, hit_rtt;
  for (const OpTiming& t : run.ops) {
    const Op& op = op_of(scripts, t);
    if (op.kind != Op::Hit) continue;
    hit_rtt.push_back(t.seconds);
    const ClientScript& s = scripts[t.client];
    const auto& [mixer, p] = s.pool[op.identity];
    Timer td;
    const std::string body =
        server::QarchClient::submit_body(s.graph, mixer.to_string(), p).dump();
    dump.push_back(td.seconds());
    server::HttpRequest submit;
    submit.method = "POST";
    submit.path = "/v1/submit";
    submit.headers["x-api-key"] = s.api_key;
    submit.body = body;
    Timer th;
    const server::HttpResponse submitted = server->handle(submit);
    double handle_s = th.seconds();
    Timer tp;
    const std::string ticket = json::parse(submitted.body).at("ticket").as_string();
    double parse_s = tp.seconds();
    server::HttpRequest poll;
    poll.method = "GET";
    poll.path = "/v1/result/" + ticket;
    poll.headers["x-api-key"] = s.api_key;
    th.reset();
    const server::HttpResponse polled = server->handle(poll);
    handle_s += th.seconds();
    tp.reset();
    const json::Value answer = json::parse(polled.body);
    parse_s += tp.seconds();
    handle.push_back(handle_s);
    parse.push_back(parse_s);
    result.check(answer.at("status").as_string() == "done",
                 "replayed hit resolves at once");
  }
  const double handle_med = median(handle);
  const double wire_med = median(hit_rtt) - handle_med;
  result.metric("server.handle_us", handle_med * 1e6, "us");
  result.metric("server.wire_us", wire_med * 1e6, "us");
  result.metric("common.json_dump_us", median(dump) * 1e6, "us");
  result.metric("common.json_parse_us", median(parse) * 1e6, "us");
  result.metric("server.connections",
                static_cast<double>(run.counters.connections), "count");
  server->stop(5.0);
  server.reset();

  // Service layer from the wire results of fresh evaluations.
  std::vector<double> queue, eval;
  double eval_sum = 0.0, residual_sum = 0.0, rtt_sum = 0.0;
  std::size_t objective_calls = 0;
  std::vector<const OpTiming*> fresh;
  for (const OpTiming& t : run.ops) {
    if (op_of(scripts, t).kind != Op::Fresh) continue;
    fresh.push_back(&t);
    queue.push_back(t.result.queue_seconds);
    eval.push_back(t.result.eval_seconds);
    eval_sum += t.result.eval_seconds;
    objective_calls += t.result.evaluations;
    // Client round trip = handle + wire (two requests, as a hit) + queue +
    // eval; whatever is left is uncovered (persistence, long-poll wake-up).
    rtt_sum += t.seconds;
    residual_sum += t.seconds - (handle_med + wire_med) - t.result.queue_seconds -
                    t.result.eval_seconds;
  }
  const double fresh_n = static_cast<double>(fresh.size());
  result.metric("search.worker_busy_frac",
                eval_sum / (run.wall_s * static_cast<double>(kWorkers)),
                "fraction");
  result.metric("search.queue_ms_p50", median(queue) * 1e3, "ms");
  result.metric("search.eval_ms_p50", median(eval) * 1e3, "ms");
  result.metric("search.cache_hit_frac",
                static_cast<double>(run.stats.cache_hits) /
                    static_cast<double>(run.stats.cache_hits +
                                        run.stats.cache_misses),
                "fraction");
  result.metric("search.fresh_evals",
                static_cast<double>(run.stats.cache_misses), "count");
  result.metric("search.objective_calls", static_cast<double>(objective_calls),
                "count");
  result.metric("search.failed", static_cast<double>(run.stats.failed), "count");
  result.metric("search.retried", static_cast<double>(run.stats.retried),
                "count");
  result.metric("search.bytes_per_completion",
                static_cast<double>(run.bytes) / fresh_n, "B");
  std::printf("fresh round trips %.4f s: %.2f%% not covered by "
              "handle + wire + queue + eval\n",
              rtt_sum, 100.0 * residual_sum / rtt_sum);

  // Persistence at the end size of the run's own store files.
  {
    const std::string results = dir + "/results.json";
    const std::string plans = dir + "/plans.json";
    const std::string ckpts = dir + "/checkpoints.json";
    const std::string out = options.work_dir + "/probe";
    reset_dir(out);
    const std::string rv = code_version(results);
    Timer load;
    const auto entries = search::load_result_cache(results, rv);
    std::vector<qtensor::CachedPlan> plan_entries;
    std::string pv;
    if (file_size(plans) > 0) {
      pv = code_version(plans);
      plan_entries = search::load_plan_cache(plans, pv);
    }
    std::vector<search::TrainingCheckpoint> ckpt_entries;
    std::string cv;
    if (file_size(ckpts) > 0) {
      cv = code_version(ckpts);
      ckpt_entries = search::load_checkpoints(ckpts, cv);
    }
    const double load_s = load.seconds();
    Timer save;
    search::save_result_cache(entries, out + "/results.json", rv);
    if (!pv.empty()) search::save_plan_cache(plan_entries, out + "/plans.json", pv);
    if (!cv.empty())
      search::save_checkpoints(ckpt_entries, out + "/checkpoints.json", cv);
    const double save_s = save.seconds();
    result.check(entries.size() == preload_entries + fresh.size(),
                 "result store holds the preload plus every fresh result");
    result.metric("search.load_ms", load_s * 1e3, "ms");
    result.metric("search.persist_ms", save_s * 1e3, "ms");
    remove_dir(out);
  }

  // Compute layers: every fresh evaluation reproduced from public calls on
  // the service's worker count, once untraced and once traced.
  const SessionConfig session = serve_session("");
  std::vector<std::unique_ptr<ReproContext>> contexts;
  for (const ClientScript& s : scripts)
    contexts.push_back(std::make_unique<ReproContext>(
        s.graph,
        session.evaluator_options(qaoa::EngineKind::Statevector, kBudget)));
  const auto reproduce_fresh = [&](Tracer& tracer,
                                   std::vector<Reproduced>& out) {
    out.assign(fresh.size(), {});
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    Timer wall;
    for (std::size_t w = 0; w < kWorkers; ++w)
      threads.emplace_back([&] {
        for (std::size_t i = next++; i < fresh.size(); i = next++)
          out[i] = reproduce(*contexts[fresh[i]->client], fresh[i]->result,
                             std::to_string(i), tracer);
      });
    for (std::thread& th : threads) th.join();
    return wall.seconds();
  };
  std::vector<Reproduced> repro;
  Tracer untraced(false);
  const double untraced_wall = reproduce_fresh(untraced, repro);
  Tracer tracer;
  const std::uint64_t compiles0 = sim::program_compile_count();
  const double traced_wall = reproduce_fresh(tracer, repro);
  const std::uint64_t compiles = sim::program_compile_count() - compiles0;
  std::size_t same = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i)
    if (same_result(repro[i].result, fresh[i]->result)) ++same;
  result.check(same == fresh.size(),
               "reproduced fresh evaluations bit-identical on " +
                   std::to_string(same) + "/" + std::to_string(fresh.size()));
  const LayerSplit split = layer_split(tracer);
  report_compute_layers(split, fresh.size(), 1, result);

  const double dim = static_cast<double>(std::size_t{1} << kQubits);
  double bytes_sum = 0.0, bytes_replayed = 0.0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const ClientScript& s = scripts[fresh[i]->client];
    const double bytes =
        static_cast<double>(memory_passes(
            session, simplified_ansatz(s.graph, fresh[i]->result.p,
                                       fresh[i]->result.mixer))) *
        dim * 16.0;
    bytes_sum += bytes;
    bytes_replayed += bytes * static_cast<double>(repro[i].replays);
  }
  result.metric("sim.bytes_per_replay", bytes_sum / fresh_n, "B");
  result.metric("sim.replay_gbps", bytes_replayed / split.replay / 1e9, "GB/s");
  result.metric("sim.program_compiles", static_cast<double>(compiles), "count");

  // Query and tensor-network layers: every sample re-drawn in-process on the
  // tensor-network engine, plus the compiled energy plan of each sampled
  // ansatz cross-checked against the statevector engine.
  const std::uint64_t builds0 = qtensor::network_build_count();
  const std::size_t planner0 = qtensor::planner_invocation_count();
  const auto sample_times = check_samples(scripts, run, run.ops.size(), result);
  result.metric("qtensor.network_builds",
                static_cast<double>(qtensor::network_build_count() - builds0),
                "count");
  result.metric("qtensor.planner_calls",
                static_cast<double>(qtensor::planner_invocation_count() -
                                    planner0),
                "count");
  std::vector<double> q_compile, q_sample;
  for (const auto& [c, s] : sample_times) {
    q_compile.push_back(c);
    q_sample.push_back(s);
  }
  result.metric("query.compile_ms", median(q_compile) * 1e3, "ms");
  result.metric("query.sample_ms", median(q_sample) * 1e3, "ms");

  std::size_t programs = 0, shapes = 0;
  for (const ClientScript& s : scripts) {
    const qaoa::EnergyEvaluator tn(
        s.graph, session.energy_options(qaoa::EngineKind::TensorNetwork));
    const qaoa::EnergyEvaluator sv(
        s.graph, session.energy_options(qaoa::EngineKind::Statevector));
    for (const Op& op : s.ops) {
      if (op.kind != Op::Sample) continue;
      const circuit::Circuit ansatz =
          simplified_ansatz(s.graph, kSampleDepth, qaoa::MixerSpec::qnas());
      const auto plan = tn.plan_for(ansatz);
      programs += plan->info().compiled_programs;
      shapes += plan->info().distinct_shapes;
      result.check(std::abs(plan->energy(op.theta) -
                            sv.plan_for(ansatz)->energy(op.theta)) <= 1e-9,
                   "tn and sv energies agree at the sampled theta");
    }
  }
  result.metric("qtensor.compiled_programs", static_cast<double>(programs),
                "count");
  result.metric("qtensor.distinct_shapes", static_cast<double>(shapes), "count");

  result.metric("trace.overhead_s", traced_wall - untraced_wall, "s");
  result.metric("trace.residual_frac", residual_sum / rtt_sum, "fraction");
  result.metric("trace.spans", static_cast<double>(tracer.size()), "count");
  std::printf("tracing: reproduction %.4f s untraced, %.4f s traced, "
              "%zu spans\n",
              untraced_wall, traced_wall, tracer.size());
}

}  // namespace

Result run_serve(const RunOptions& options) {
  const std::vector<ClientScript> scripts = make_scripts(options.seed);
  const std::string preload = options.work_dir + "/preload";
  const std::size_t preload_entries = make_preload(preload, options.seed);
  Result result;
  if (options.trace) {
    traced_run(scripts, preload, preload_entries, options, result);
    return result;
  }

  // Untraced: repeat set-up + script for --seconds (at least twice).
  std::vector<ServeRun> runs;
  Timer budget;
  while (runs.size() < 2 || budget.seconds() < options.seconds)
    runs.push_back(play(scripts, preload,
                        options.work_dir + "/store" + std::to_string(runs.size())));
  const ServeRun& first = runs.front();
  check_parity(scripts, first, options.seed, result);
  (void)check_samples(scripts, first, 4, result);

  std::vector<double> setup, wall;
  for (const ServeRun& r : runs) {
    check_run(scripts, r, preload_entries, result);
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    wall.push_back(r.wall_s);
    result.attempted += r.ops.size();
    result.failed += r.failed + r.stats.failed + r.stats.deadline_expired;
    result.check(r.program_compiles == first.program_compiles &&
                     r.network_builds == first.network_builds &&
                     r.planner_calls == first.planner_calls &&
                     r.stats.cache_misses == first.stats.cache_misses,
                 "deterministic counts repeat across repetitions");
    std::printf("repetition: setup %.4f s, wall %.4f s, %llu bytes written\n",
                median(r.setup_s), r.wall_s,
                static_cast<unsigned long long>(r.bytes));
  }

  result.metric("setup_s", median(setup), "s");
  result.metric("wall_s", median(wall), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  std::uint64_t objective_calls = 0;
  for (const OpTiming& t : first.ops)
    if (op_of(scripts, t).kind == Op::Fresh) objective_calls += t.result.evaluations;
  result.counts = {
      {"fresh_evals", first.stats.cache_misses},
      {"objective_calls", objective_calls},
      {"program_compiles", first.program_compiles},
      {"network_builds", first.network_builds},
      {"planner_calls", first.planner_calls},
      {"cache_hits", first.stats.cache_hits},
      {"bytes_per_completion", first.bytes / first.stats.cache_misses}};
  return result;
}

}  // namespace perfbench
