// search_sv / search_tn: the paper's Algorithm 1 in-process.
//
// One repetition of the fixed script is an exhaustive search (k <= 2 over
// the 5-gate alphabet, p <= 2: 60 candidates, COBYLA budget 200) through
// SearchEngine against a fresh, cold EvalService. The untraced run repeats
// it for --seconds and reports medians.
//
// The traced run runs the search once, then plays 3 to 5 rounds over
// its cohort in the engine's batches: each batch evaluated by a fresh
// EvalService, then reproduced from public calls (build -> optimize ->
// plan_for -> COBYLA over EnergyPlan::energy -> expected_best_cut) on the
// same outer x inner worker configuration, once untraced and once with one
// span per layer.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qtensor/network.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "query/sampler.hpp"
#include "search/engine.hpp"
#include "search/report_io.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "sim/sim_program.hpp"
#include "reproduce.hpp"

namespace perfbench {

using namespace qarch;

namespace {

constexpr std::size_t kMaxK = 2;
constexpr std::size_t kMaxP = 2;
constexpr std::size_t kBudget = 200;
constexpr std::size_t kSetupSamples = 10;
/// The traced run plays kMinRounds rounds, and more up to kMaxRounds while
/// --seconds allow; the layer-sum check needs several to average out noise.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 5;
constexpr std::size_t kWireProbes = 20;
constexpr std::size_t kSampleProbes = 3;
/// How far the reproduced layer times may sum from the service's
/// evaluation times, as a share of the latter. On a shared 4-vCPU host the
/// residual moved between -4.4% and +5.7% over 17 traced runs; the gate
/// leaves room for that noise and still fails if a layer of a tenth of the
/// candidate time went unaccounted.
constexpr double kLayerSumTolerance = 0.10;

struct SearchSpec {
  std::size_t n = 14;
  std::size_t degree = 4;
  BackendChoice backend = BackendChoice::Statevector;
  std::size_t outer = 4;
  std::size_t inner = 1;
  std::size_t sample_shots = 64;  ///< shots of the query-layer probe
  std::uint64_t graph_salt = 0x5eed;  ///< seeds the fixed graph
  std::uint64_t seed = 1;             ///< the run's --seed
};

SearchSpec spec_for(const std::string& workload) {
  SearchSpec s;
  if (workload == "search_tn") {
    s.n = 16;
    s.degree = 3;
    s.backend = BackendChoice::TensorNetwork;
    s.outer = 2;
    s.inner = 2;
    s.sample_shots = 3;
    s.graph_salt = 0x7e57;
  }
  return s;
}

qaoa::EngineKind engine_of(BackendChoice b) {
  return b == BackendChoice::TensorNetwork ? qaoa::EngineKind::TensorNetwork
                                           : qaoa::EngineKind::Statevector;
}

SessionConfig session_for(const SearchSpec& spec) {
  SessionConfig s;
  s.base.sample_seed = spec.seed * 0x2545f4914f6cdd1dULL + 99;
  s.backend = spec.backend;
  s.workers = spec.outer;
  s.inner_workers = spec.inner;
  s.training_evals = kBudget;
  return s;
}

/// Deterministic counts of one script repetition.
struct ScriptCounts {
  std::uint64_t fresh = 0, objective_calls = 0, program_compiles = 0,
                network_builds = 0, planner_calls = 0, hits = 0;
  bool operator==(const ScriptCounts&) const = default;
};

struct ScriptRun {
  std::vector<double> setup_s;
  double wall_s = 0.0;
  search::SearchReport report;
  search::EvalService::Stats stats;
  ScriptCounts counts;
};

ScriptRun run_script(const SearchSpec& spec, const graph::Graph& g) {
  ScriptRun run;
  const SessionConfig session = session_for(spec);
  search::SearchConfig config;
  config.p_max = kMaxP;
  config.session = session;
  const search::SearchEngine engine(config);

  // Set-up is sub-millisecond, so it is sampled several times per
  // repetition; the service the script then uses is the last one built.
  for (std::size_t i = 0; i + 1 < kSetupSamples; ++i) {
    Timer t;
    { const search::EvalService probe(session); }
    run.setup_s.push_back(t.seconds());
  }
  Timer setup;
  search::EvalService service(session);
  run.setup_s.push_back(setup.seconds());

  const std::uint64_t compiles0 = sim::program_compile_count();
  const std::uint64_t builds0 = qtensor::network_build_count();
  const std::size_t planner0 = qtensor::planner_invocation_count();
  Timer wall;
  run.report = engine.run_exhaustive(service, g, kMaxK);
  run.wall_s = wall.seconds();
  run.counts.program_compiles = sim::program_compile_count() - compiles0;
  run.counts.network_builds = qtensor::network_build_count() - builds0;
  run.counts.planner_calls = qtensor::planner_invocation_count() - planner0;

  run.stats = service.stats();
  run.counts.fresh = run.stats.cache_misses;
  run.counts.hits = run.stats.cache_hits;
  for (const search::CandidateResult& c : run.report.evaluated)
    run.counts.objective_calls += c.evaluations;
  return run;
}

bool same_report(const ScriptRun& a, const ScriptRun& b) {
  const auto& x = a.report.evaluated;
  const auto& y = b.report.evaluated;
  bool same = x.size() == y.size();
  for (std::size_t i = 0; same && i < x.size(); ++i)
    same = same_result(x[i], y[i]);
  return same;
}

/// Checks every output of a repetition that does not need tracing.
void check_script(const graph::Graph& g, const ScriptRun& run,
                  Result& result) {
  const std::size_t cohort = run.report.evaluated.size();
  result.check(cohort == 60, "cohort has 60 candidates");
  result.check(run.stats.failed == 0 && run.stats.deadline_expired == 0,
               "no evaluation failed or expired");
  for (std::size_t p = 1; p <= kMaxP; ++p) {
    const search::CandidateResult& best = run.report.best_at_depth(p);
    const double oracle =
        oracle_energy(g, qaoa::build_qaoa_circuit(g, p, best.mixer),
                      best.theta);
    result.check(std::abs(oracle - best.energy) <= 1e-9,
                 "best candidate at p=" + std::to_string(p) +
                     " re-scores within 1e-9 on the statevector oracle");
  }
}

// -- traced reproduction -------------------------------------------------------

/// The engine's batches of the cohort: 4 x outer submissions, one depth per
/// batch, a barrier between batches.
std::vector<std::pair<std::size_t, std::size_t>> batches_of(
    const SearchSpec& spec, const std::vector<search::CandidateResult>& cohort) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t begin = 0;
  while (begin < cohort.size()) {
    std::size_t end = begin;
    while (end < cohort.size() && end - begin < 4 * spec.outer &&
           cohort[end].p == cohort[begin].p)
      ++end;
    out.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

/// Evaluator options with a cold plan store of their own, as a fresh
/// service has.
search::EvaluatorOptions cold_options(const SearchSpec& spec) {
  search::EvaluatorOptions opt =
      session_for(spec).evaluator_options(engine_of(spec.backend), kBudget);
  opt.energy.qtensor.plan_cache = std::make_shared<qtensor::PlanCache>();
  return opt;
}

/// Reproduces cohort[begin, end) on `outer` threads; returns the wall time.
double reproduce_batch(const SearchSpec& spec, const ReproContext& ctx,
                       const std::vector<search::CandidateResult>& cohort,
                       std::size_t begin, std::size_t end, Tracer& tracer,
                       std::vector<Reproduced>& out) {
  Timer wall;
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < spec.outer; ++w)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < end; i = next++)
        out[i] = reproduce(ctx, cohort[i], std::to_string(i), tracer);
    });
  for (std::thread& th : threads) th.join();
  return wall.seconds();
}

/// One round of the traced run: batch by batch, a fresh service evaluates
/// the batch and the batch is reproduced untraced and traced. Alternating
/// at batch granularity keeps a slow phase of the host from landing on only
/// one of the three, and every other batch runs the service last so that
/// neither side always runs first.
struct Round {
  std::vector<search::CandidateResult> service;
  std::vector<Reproduced> traced;
  double untraced_s = 0.0, traced_s = 0.0;
  /// Probe counters of the traced reproduction (the service is idle then).
  std::uint64_t compiles = 0, builds = 0, planner = 0;
};

Round play_round(const SearchSpec& spec, const graph::Graph& g,
                 const std::vector<search::CandidateResult>& cohort,
                 Tracer& tracer) {
  search::EvalService service(session_for(spec));
  const search::EvalClient client = service.register_client("search");
  search::JobOptions job;
  job.client = client.id();
  const ReproContext untraced_ctx(g, cold_options(spec));
  const ReproContext traced_ctx(g, cold_options(spec));
  Tracer untraced(false);
  std::vector<Reproduced> scratch(cohort.size());
  Round round;
  round.service.resize(cohort.size());
  round.traced.resize(cohort.size());
  const auto evaluate = [&](std::size_t begin, std::size_t end) {
    std::vector<qaoa::MixerSpec> mixers;
    for (std::size_t i = begin; i < end; ++i) mixers.push_back(cohort[i].mixer);
    std::vector<search::CandidateResult> results = service.collect(
        service.submit_batch(g, mixers, cohort[begin].p, job));
    std::move(results.begin(), results.end(), round.service.begin() + begin);
  };
  const auto reproduce_both = [&](std::size_t begin, std::size_t end) {
    round.untraced_s += reproduce_batch(spec, untraced_ctx, cohort, begin, end,
                                        untraced, scratch);
    const std::uint64_t compiles0 = sim::program_compile_count();
    const std::uint64_t builds0 = qtensor::network_build_count();
    const std::size_t planner0 = qtensor::planner_invocation_count();
    round.traced_s += reproduce_batch(spec, traced_ctx, cohort, begin, end,
                                      tracer, round.traced);
    round.compiles += sim::program_compile_count() - compiles0;
    round.builds += qtensor::network_build_count() - builds0;
    round.planner += qtensor::planner_invocation_count() - planner0;
  };
  const auto batches = batches_of(spec, cohort);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto [begin, end] = batches[b];
    if (b % 2 == 0) {
      evaluate(begin, end);
      reproduce_both(begin, end);
    } else {
      reproduce_both(begin, end);
      evaluate(begin, end);
    }
  }
  return round;
}

/// The per-layer metrics of the persistence, wire and query layers, which
/// the search workloads do not exercise. Every traced run prints every
/// per-layer metric, so here they come from small probes on this run's own
/// results: the cohort persisted and loaded once, /v1/stats served by an
/// in-process qarchd, and the best candidate sampled. Compare these layers
/// across versions on serve_durable, where they are the workload's own work.
void probe_idle_layers(const SearchSpec& spec, const graph::Graph& g,
                       const search::SearchReport& report,
                       const std::string& work_dir, Result& result) {
  const SessionConfig session = session_for(spec);
  const auto& cohort = report.evaluated;
  {
    reset_dir(work_dir);
    std::vector<search::CacheEntry> entries;
    for (const auto& c : cohort)
      entries.push_back({search::graph_fingerprint(g), kBudget,
                         backend_name(spec.backend), "", "", c});
    const std::string path = work_dir + "/results.json";
    Timer save;
    search::save_result_cache(entries, path, "perfbench");
    result.metric("search.persist_ms", save.seconds() * 1e3, "ms");
    Timer load;
    const auto loaded = search::load_result_cache(path, "perfbench");
    result.metric("search.load_ms", load.seconds() * 1e3, "ms");
    result.check(loaded.size() == entries.size(), "persistence probe round-trips");
    result.metric("search.bytes_per_completion",
                  static_cast<double>(file_size(path)) /
                      static_cast<double>(cohort.size()),
                  "B");
    remove_dir(work_dir);
  }
  {
    server::ServerConfig config;
    config.session = session;
    config.tenants = {server::TenantSpec{.name = "bench", .api_key = "k"}};
    server::QarchServer server(config);
    server.start();
    server::ClientOptions copt;
    copt.port = server.port();
    copt.api_key = "k";
    server::QarchClient client(copt);
    server::HttpRequest stats;
    stats.method = "GET";
    stats.path = "/v1/stats";
    stats.headers["x-api-key"] = "k";
    std::vector<double> handle, wire, parse, dump;
    for (std::size_t i = 0; i < kWireProbes; ++i) {
      Timer th;
      const server::HttpResponse direct = server.handle(stats);
      handle.push_back(th.seconds());
      Timer tp;
      const json::Value parsed = json::parse(direct.body);
      parse.push_back(tp.seconds());
      Timer td;
      (void)parsed.dump();
      dump.push_back(td.seconds());
      Timer tw;
      (void)client.stats();
      wire.push_back(tw.seconds() - handle.back());
    }
    result.metric("server.handle_us", median(handle) * 1e6, "us");
    result.metric("server.wire_us", median(wire) * 1e6, "us");
    result.metric("common.json_parse_us", median(parse) * 1e6, "us");
    result.metric("common.json_dump_us", median(dump) * 1e6, "us");
    result.metric("server.connections",
                  static_cast<double>(server.counters().connections), "count");
    server.stop(5.0);
  }
  {
    const search::CandidateResult& best = report.best_at_depth(kMaxP);
    const circuit::Circuit ansatz = simplified_ansatz(g, best.p, best.mixer);
    const query::SamplerOptions so =
        sampler_options(session, engine_of(spec.backend));
    std::vector<double> compile, sample;
    std::vector<std::vector<std::size_t>> draws;
    for (std::size_t i = 0; i < kSampleProbes; ++i) {
      Timer tc;
      const query::Sampler sampler(ansatz, so);
      compile.push_back(tc.seconds());
      Rng rng(spec.seed);
      Timer ts;
      draws.push_back(sampler.sample(best.theta, spec.sample_shots, rng));
      sample.push_back(ts.seconds());
    }
    for (const auto& d : draws)
      result.check(d == draws.front(), "sampler draws repeat for one seed");
    result.metric("query.compile_ms", median(compile) * 1e3, "ms");
    result.metric("query.sample_ms", median(sample) * 1e3, "ms");
  }
}

void traced_run(const SearchSpec& spec, const graph::Graph& g,
                const RunOptions& options, Result& result) {
  const SessionConfig session = session_for(spec);
  const ScriptRun run = run_script(spec, g);
  check_script(g, run, result);
  const auto& cohort = run.report.evaluated;
  const double cohort_n = static_cast<double>(cohort.size());

  Tracer tracer;
  std::vector<Round> rounds;
  const Timer budget;
  while (rounds.size() < kMinRounds ||
         (rounds.size() < kMaxRounds && budget.seconds() < options.seconds))
    rounds.push_back(play_round(spec, g, cohort, tracer));
  const std::size_t n_rounds = rounds.size();
  const std::uint64_t repro_compiles = rounds.front().compiles;
  std::uint64_t repro_builds = rounds.front().builds;
  std::uint64_t repro_planner = rounds.front().planner;

  std::size_t identical = 0;
  for (const Round& round : rounds) {
    bool same = round.service.size() == cohort.size();
    for (std::size_t i = 0; same && i < cohort.size(); ++i)
      same = same_result(round.service[i], cohort[i]);
    result.check(same, "batch-wise service results equal the search's");
    for (std::size_t i = 0; i < cohort.size(); ++i)
      if (same_result(round.traced[i].result, cohort[i])) ++identical;
  }
  result.check(identical == n_rounds * cohort.size(),
               "traced reproduction bit-identical on " +
                   std::to_string(identical) + "/" +
                   std::to_string(n_rounds * cohort.size()) +
                   " candidates");

  // Layer-sum check: over every round, the traced reproduction's layer
  // times against the service-stamped eval_seconds of the same candidates.
  // Single candidates differ widely (which candidates share the cores
  // differs between the two executions), so the gate is on the sums and
  // the per-candidate spread is printed.
  double service_eval = 0.0, layer_sum = 0.0;
  std::vector<double> per_candidate;
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    double eval = 0.0, layers = 0.0;
    for (const Round& round : rounds) {
      eval += round.service[i].eval_seconds;
      layers += round.traced[i].layer_seconds;
    }
    service_eval += eval;
    layer_sum += layers;
    per_candidate.push_back((eval - layers) / eval);
  }
  const double residual = (service_eval - layer_sum) / service_eval;
  std::sort(per_candidate.begin(), per_candidate.end());
  std::printf("service eval %.4f s, layers %.4f s over %zu rounds: residual "
              "%.2f%% (per candidate %.2f%% .. %.2f%%, median %.2f%%)\n",
              service_eval, layer_sum, n_rounds, 100.0 * residual,
              100.0 * per_candidate.front(), 100.0 * per_candidate.back(),
              100.0 * median(per_candidate));
  result.check(std::abs(residual) <= kLayerSumTolerance,
               "reproduced layer times sum to the service's eval_seconds "
               "within 10%");

  const LayerSplit split = layer_split(tracer);
  report_compute_layers(split, cohort.size(), n_rounds, result);

  // Statevector layer. On the sv workload these are the reproduction's own
  // replays; on the tn workload every candidate is cross-checked on the
  // compiled statevector engine (also the sv-vs-tn gate on all candidates).
  const std::size_t dim = std::size_t{1} << g.num_vertices();
  double sv_bytes = 0.0, sv_seconds = 0.0, passes_sum = 0.0;
  if (spec.backend == BackendChoice::Statevector) {
    for (std::size_t i = 0; i < cohort.size(); ++i) {
      const double bytes =
          static_cast<double>(memory_passes(
              session, simplified_ansatz(g, cohort[i].p, cohort[i].mixer))) *
          static_cast<double>(dim) * 16.0;
      passes_sum += bytes;
      for (const Round& round : rounds)
        sv_bytes += bytes * static_cast<double>(round.traced[i].replays);
    }
    sv_seconds = split.replay;
  } else {
    const qaoa::EnergyEvaluator sv(
        g, session.energy_options(qaoa::EngineKind::Statevector));
    std::size_t agree = 0;
    for (const auto& c : cohort) {
      const circuit::Circuit ansatz = simplified_ansatz(g, c.p, c.mixer);
      const auto plan = sv.plan_for(ansatz);
      Timer t;
      const double e = plan->energy(c.theta);
      sv_seconds += t.seconds();
      if (std::abs(e - c.energy) <= 1e-9) ++agree;
      const double bytes = static_cast<double>(memory_passes(session, ansatz)) *
                           static_cast<double>(dim) * 16.0;
      passes_sum += bytes;
      sv_bytes += bytes;
    }
    result.check(agree == cohort.size(),
                 "tn energies agree with the compiled sv engine within 1e-9");
  }
  result.metric("sim.bytes_per_replay", passes_sum / cohort_n, "B");
  result.metric("sim.replay_gbps", sv_bytes / sv_seconds / 1e9, "GB/s");
  result.metric("sim.program_compiles", static_cast<double>(repro_compiles),
                "count");

  // Tensor-network layer: the reproduction itself on tn; on sv the best
  // candidate of each depth is cross-checked on a cold tn engine.
  std::size_t programs = 0, shapes = 0;
  if (spec.backend == BackendChoice::TensorNetwork) {
    for (const Reproduced& r : rounds.front().traced) {
      programs += r.info.compiled_programs;
      shapes += r.info.distinct_shapes;
    }
  } else {
    qaoa::EnergyOptions tn_opts =
        session.energy_options(qaoa::EngineKind::TensorNetwork);
    tn_opts.qtensor.plan_cache = std::make_shared<qtensor::PlanCache>();
    const qaoa::EnergyEvaluator tn(g, tn_opts);
    const std::uint64_t b0 = qtensor::network_build_count();
    const std::size_t p0 = qtensor::planner_invocation_count();
    for (std::size_t p = 1; p <= kMaxP; ++p) {
      const auto& best = run.report.best_at_depth(p);
      const auto plan = tn.plan_for(simplified_ansatz(g, p, best.mixer));
      const double e = plan->energy(best.theta);
      result.check(std::abs(e - best.energy) <= 1e-9,
                   "sv best at p=" + std::to_string(p) +
                       " agrees with the tn engine within 1e-9");
      programs += plan->info().compiled_programs;
      shapes += plan->info().distinct_shapes;
    }
    repro_builds = qtensor::network_build_count() - b0;
    repro_planner = qtensor::planner_invocation_count() - p0;
  }
  result.metric("qtensor.planner_calls", static_cast<double>(repro_planner),
                "count");
  result.metric("qtensor.network_builds", static_cast<double>(repro_builds),
                "count");
  result.metric("qtensor.compiled_programs", static_cast<double>(programs),
                "count");
  result.metric("qtensor.distinct_shapes", static_cast<double>(shapes),
                "count");

  // Service layer, from the first round's tickets and stats.
  std::vector<double> queue, eval;
  double eval_sum = 0.0;
  for (const auto& c : cohort) {
    queue.push_back(c.queue_seconds);
    eval.push_back(c.eval_seconds);
    eval_sum += c.eval_seconds;
  }
  result.metric("search.worker_busy_frac",
                eval_sum / (run.report.seconds * static_cast<double>(spec.outer)),
                "fraction");
  result.metric("search.queue_ms_p50", median(queue) * 1e3, "ms");
  result.metric("search.eval_ms_p50", median(eval) * 1e3, "ms");
  result.metric("search.cache_hit_frac",
                static_cast<double>(run.stats.cache_hits) /
                    static_cast<double>(run.stats.cache_hits +
                                        run.stats.cache_misses),
                "fraction");
  result.metric("search.fresh_evals", static_cast<double>(run.counts.fresh),
                "count");
  result.metric("search.objective_calls",
                static_cast<double>(run.counts.objective_calls), "count");
  result.metric("search.failed", static_cast<double>(run.stats.failed), "count");
  result.metric("search.retried", static_cast<double>(run.stats.retried),
                "count");

  probe_idle_layers(spec, g, run.report, options.work_dir + "/probe", result);

  std::vector<double> untraced_wall, traced_wall;
  for (const Round& round : rounds) {
    untraced_wall.push_back(round.untraced_s);
    traced_wall.push_back(round.traced_s);
  }
  result.metric("trace.overhead_s",
                median(traced_wall) - median(untraced_wall), "s");
  result.metric("trace.residual_frac", residual, "fraction");
  result.metric("trace.spans",
                static_cast<double>(tracer.size() / n_rounds), "count");
  std::printf("tracing: search %.3f s; reproduction %.3f s untraced, "
              "%.3f s traced (medians of %zu rounds), %zu spans per round\n",
              run.wall_s, median(untraced_wall), median(traced_wall),
              n_rounds, tracer.size() / n_rounds);
  result.attempted = cohort.size() * (1 + n_rounds);
  result.failed = run.stats.failed + run.stats.deadline_expired;
}

}  // namespace

Result run_search(const RunOptions& options) {
  SearchSpec spec = spec_for(options.workload);
  spec.seed = options.seed;
  // The graph is fixed per workload, so every seed runs the same search;
  // the seed drives the Eq. 3 scoring stream.
  Rng graph_rng(spec.graph_salt);
  const graph::Graph g = graph::random_regular(spec.n, spec.degree, graph_rng);
  Result result;
  if (options.trace) {
    traced_run(spec, g, options, result);
    return result;
  }

  // Untraced: repeat the script for --seconds (at least twice, so the
  // deterministic counts and results can be compared across repetitions).
  std::vector<ScriptRun> runs;
  Timer budget;
  while (runs.size() < 2 || budget.seconds() < options.seconds)
    runs.push_back(run_script(spec, g));
  check_script(g, runs.front(), result);

  std::vector<double> setup, wall;
  for (const ScriptRun& r : runs) {
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    wall.push_back(r.wall_s);
    result.attempted += r.report.evaluated.size();
    result.failed += r.stats.failed + r.stats.deadline_expired;
    result.check(r.counts == runs.front().counts,
                 "deterministic counts repeat across repetitions");
    result.check(same_report(r, runs.front()),
                 "search results repeat bit for bit");
  }
  std::printf("%zu repetitions, wall %s s\n", runs.size(), [&] {
    std::string s;
    for (double w : wall) s += (s.empty() ? "" : " ") + std::to_string(w);
    return s;
  }().c_str());

  result.metric("setup_s", median(setup), "s");
  result.metric("wall_s", median(wall), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  const ScriptCounts& c = runs.front().counts;
  result.counts = {{"fresh_evals", c.fresh},
                   {"objective_calls", c.objective_calls},
                   {"program_compiles", c.program_compiles},
                   {"network_builds", c.network_builds},
                   {"planner_calls", c.planner_calls},
                   {"cache_hits", c.hits}};
  return result;
}

}  // namespace perfbench
