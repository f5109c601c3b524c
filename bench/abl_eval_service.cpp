// Ablation: the shared evaluation service vs the old per-driver loops.
//
// Nine sections, all on one graph + candidate cohort:
//   1. Parity + compile-once probe: two concurrent SearchEngine clients
//      share one EvalService; their best candidate must match the old-style
//      private loop (one Evaluator, serial sweep) bit for bit, while
//      sim::program_compile_count() proves each (candidate, graph) plan
//      compiled exactly ONCE service-wide (the acceptance criterion of the
//      service API).
//   2. Throughput vs client count: N client threads submitting the same
//      cohort; candidates/second and the result-cache hit rate as dedup
//      absorbs the duplicate load.
//   3. Queue accounting: mean queue-wait vs evaluation latency off the
//      service-side ticket timestamps.
//   4. backend=Auto pick counts on a small (statevector) and a large sparse
//      (tensor-network) instance.
//   5. Fairness: a greedy client floods the service while an interactive
//      client submits small batches; per-client makespans and the max/min
//      client-latency ratio, FIFO (one shared default queue) vs fair-share
//      (per-client registered queues).
//   6. Warm start: the same cohort through a cache_path-backed service
//      twice; the second service must serve ≥ 90% from the persisted cache
//      with zero plan recompiles.
//   7. Plan-cache tier: a retraining run (results deliberately not cached)
//      still reloads every contraction plan and never invokes the planner.
//   8. Preemption: interactive p50/p99 single-candidate latency under a
//      batch flood — FIFO vs fair-share vs fair-share + a 2 ms preemption
//      quantum (running batch evaluations park at a safe point instead of
//      holding a worker for their whole training run).
//   9. Durable completions: per-completion persist time and bytes written by
//      a cache_path + checkpoint_path service over a result store preloaded
//      with 100 / 1k / 10k entries — flat, since each completion appends
//      one journal record instead of rewriting the store.
//
// Results land in BENCH_eval_service.json (section "eval_service").
//
// Flags: --qubits N (8) --degree D (3) --p P (1) --kmax K (2) --evals E (60)
//        --workers W (4) --max-clients C (4) --out PATH
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "qtensor/planner.hpp"
#include "search/eval_service.hpp"
#include "search/report_io.hpp"
#include "search/store.hpp"
#include "sim/sim_program.hpp"

using namespace qarch;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("qubits", 8));
  const auto degree = static_cast<std::size_t>(cli.get_int("degree", 3));
  const auto p = static_cast<std::size_t>(cli.get_int("p", 1));
  const auto k_max = static_cast<std::size_t>(cli.get_int("kmax", 2));
  const auto evals = static_cast<std::size_t>(cli.get_int("evals", 60));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 4));
  const auto max_clients =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   cli.get_int("max-clients", 4)));
  const std::string out = cli.get("out", "BENCH_eval_service.json");

  Rng rng(7);
  const auto g = graph::random_regular(n, degree, rng);
  const auto cohort = search::all_combinations(
      search::GateAlphabet::standard(), k_max,
      search::CombinationMode::Product);

  SessionConfig session;
  session.backend = BackendChoice::Statevector;
  session.training_evals = evals;
  session.workers = workers;

  std::printf("eval-service ablation: %s, %zu candidates (k<=%zu), p=%zu, "
              "%zu evals, %zu workers\n\n",
              g.to_string().c_str(), cohort.size(), k_max, p, evals, workers);
  json::Value section = json::Value::object();
  section.set("qubits", n);
  section.set("p", p);
  section.set("candidates", cohort.size());
  section.set("evals", evals);
  section.set("workers", workers);

  // -- 1. parity + compile-once: old private loop vs two service clients ----
  const search::Evaluator old_style(
      g, session.evaluator_options(qaoa::EngineKind::Statevector));
  sim::reset_program_compile_count();
  Timer t_old;
  search::CandidateResult old_best;
  old_best.energy = -1.0;
  for (const auto& mixer : cohort) {
    auto r = old_style.evaluate(mixer, p);
    if (r.energy > old_best.energy) old_best = std::move(r);
  }
  const double old_seconds = t_old.seconds();
  const auto old_compiles = sim::program_compile_count();

  search::SearchConfig scfg;
  scfg.p_max = p;
  scfg.session = session;
  const search::SearchEngine engine(scfg);
  search::EvalService shared(session);
  sim::reset_program_compile_count();
  Timer t_shared;
  std::vector<search::SearchReport> reports(2);
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 2; ++c)
      clients.emplace_back([&, c] {
        reports[c] = engine.run_exhaustive(shared, g, k_max);
      });
    for (auto& t : clients) t.join();
  }
  const double shared_seconds = t_shared.seconds();
  const auto shared_compiles = sim::program_compile_count();

  const bool parity = reports[0].best.mixer == old_best.mixer &&
                      reports[1].best.mixer == old_best.mixer &&
                      reports[0].best.energy == old_best.energy &&
                      reports[1].best.energy == old_best.energy;
  std::printf("old private loop:   best %-18s <C>=%.6f  %zu compiles  %.2fs\n",
              old_best.mixer.to_string().c_str(), old_best.energy,
              static_cast<std::size_t>(old_compiles), old_seconds);
  std::printf("2 service clients:  best %-18s <C>=%.6f  %zu compiles  %.2fs\n",
              reports[0].best.mixer.to_string().c_str(),
              reports[0].best.energy,
              static_cast<std::size_t>(shared_compiles), shared_seconds);
  std::printf("best-candidate parity: %s, duplicate compiles: %zu\n\n",
              parity ? "YES" : "NO",
              static_cast<std::size_t>(shared_compiles > old_compiles
                                           ? shared_compiles - old_compiles
                                           : 0));
  section.set("old_loop_seconds", old_seconds);
  section.set("old_loop_compiles", static_cast<std::size_t>(old_compiles));
  section.set("two_client_seconds", shared_seconds);
  section.set("two_client_compiles",
              static_cast<std::size_t>(shared_compiles));
  section.set("best_parity", parity);

  // -- 2. throughput vs client count ----------------------------------------
  std::printf("%-8s %-10s %-12s %-10s %-10s\n", "clients", "seconds",
              "cand/s", "hits", "misses");
  json::Value throughput = json::Value::array();
  for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
    search::EvalService service(session);
    Timer timer;
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c)
      pool.emplace_back([&] {
        (void)service.collect(service.submit_batch(g, cohort, p));
      });
    for (auto& t : pool) t.join();
    const double seconds = timer.seconds();
    const auto stats = service.stats();
    const double rate =
        static_cast<double>(clients * cohort.size()) / seconds;
    std::printf("%-8zu %-10.2f %-12.1f %-10zu %-10zu\n", clients, seconds,
                rate, stats.cache_hits, stats.cache_misses);
    json::Value row = json::Value::object();
    row.set("clients", clients);
    row.set("seconds", seconds);
    row.set("candidates_per_second", rate);
    row.set("cache_hits", stats.cache_hits);
    row.set("cache_misses", stats.cache_misses);
    row.set("hit_rate", static_cast<double>(stats.cache_hits) /
                            static_cast<double>(clients * cohort.size()));
    throughput.push_back(std::move(row));
  }
  section.set("throughput", std::move(throughput));

  // -- 3. queue accounting off the service-side timestamps ------------------
  {
    search::EvalService service(session);
    const auto tickets = service.submit_batch(g, cohort, p);
    const auto results = service.collect(tickets);
    double queue_sum = 0.0, eval_sum = 0.0;
    for (const auto& r : results) {
      queue_sum += r.queue_seconds;
      eval_sum += r.eval_seconds;
    }
    const double mean_queue = queue_sum / static_cast<double>(results.size());
    const double mean_eval = eval_sum / static_cast<double>(results.size());
    std::printf("\nper-candidate latency (1 client, %zu workers): "
                "%.1f ms queued, %.1f ms evaluating\n",
                workers, mean_queue * 1e3, mean_eval * 1e3);
    section.set("mean_queue_seconds", mean_queue);
    section.set("mean_eval_seconds", mean_eval);
  }

  // -- 4. backend=Auto pick counts ------------------------------------------
  {
    SessionConfig auto_session = session;
    auto_session.backend = BackendChoice::Auto;
    auto_session.training_evals = 15;
    search::EvalService service(auto_session);
    Rng big_rng(11);
    const auto big = graph::random_regular(
        std::max<std::size_t>(16, auto_session.auto_statevector_qubits + 2),
        3, big_rng);
    const auto small_tickets =
        service.submit_batch(g, {qaoa::MixerSpec::baseline(),
                                 qaoa::MixerSpec::qnas()}, 1);
    const auto big_tickets =
        service.submit_batch(big, {qaoa::MixerSpec::baseline(),
                                   qaoa::MixerSpec::qnas()}, 1);
    (void)service.collect(small_tickets);
    (void)service.collect(big_tickets);
    const auto stats = service.stats();
    std::printf("backend=auto picks: %zu statevector (n=%zu), "
                "%zu tensor-network (n=%zu)\n",
                stats.picked_statevector, g.num_vertices(),
                stats.picked_tensornetwork, big.num_vertices());
    json::Value auto_section = json::Value::object();
    auto_section.set("small_qubits", g.num_vertices());
    auto_section.set("large_qubits", big.num_vertices());
    auto_section.set("picked_statevector", stats.picked_statevector);
    auto_section.set("picked_tensornetwork", stats.picked_tensornetwork);
    section.set("auto_backend", std::move(auto_section));
  }

  // -- 5. fairness: greedy vs interactive client, FIFO vs fair-share --------
  {
    // The greedy client floods the whole cohort at 8x budget; the
    // interactive client submits 3-candidate batches at 1x and waits for
    // each. Two workers keep the pool saturated: under FIFO (both clients
    // in the default queue) every interactive batch parks behind the whole
    // remaining flood; with registered queues the scheduler alternates
    // budget-fairly.
    SessionConfig contended = session;
    contended.workers = 2;
    const auto run_leg = [&](bool fair, json::Value& leg) {
      search::EvalService service(contended);
      const std::size_t batches =
          std::max<std::size_t>(2, cohort.size() / 6);
      double greedy_span = 0.0, interactive_span = 0.0;
      double interactive_batch_mean = 0.0;
      std::thread greedy([&] {
        search::EvalClient me;
        search::JobOptions job;
        job.training_evals = 8 * evals;
        if (fair) {
          me = service.register_client("greedy");
          job.client = me.id();
        }
        const auto tickets = service.submit_batch(g, cohort, p, job);
        (void)service.collect(tickets);
        double first = tickets.front().submitted_at(), last = 0.0;
        for (const auto& t : tickets) last = std::max(last, t.finished_at());
        greedy_span = last - first;
      });
      std::thread interactive([&] {
        search::EvalClient me;
        // +1 eval: unique keys, so nothing dedups against the greedy flood.
        search::JobOptions job;
        job.training_evals = evals + 1;
        if (fair) {
          me = service.register_client("interactive");
          job.client = me.id();
        }
        double first = -1.0, last = 0.0, batch_sum = 0.0;
        for (std::size_t b = 0; b < batches; ++b) {
          std::vector<qaoa::MixerSpec> batch(
              cohort.begin() + static_cast<std::ptrdiff_t>(
                                   (3 * b) % (cohort.size() - 2)),
              cohort.begin() + static_cast<std::ptrdiff_t>(
                                   (3 * b) % (cohort.size() - 2) + 3));
          job.training_evals = evals + 1 + b;  // fresh work every batch
          const auto tickets = service.submit_batch(g, batch, p, job);
          (void)service.collect(tickets);
          if (first < 0.0) first = tickets.front().submitted_at();
          double batch_last = 0.0;
          for (const auto& t : tickets)
            batch_last = std::max(batch_last, t.finished_at());
          batch_sum += batch_last - tickets.front().submitted_at();
          last = std::max(last, batch_last);
        }
        interactive_span = last - first;
        interactive_batch_mean = batch_sum / static_cast<double>(batches);
      });
      greedy.join();
      interactive.join();
      // The client-latency metric is the interactive client's mean BATCH
      // turnaround — what a human at a prompt feels. (A max/min ratio of
      // total spans would reward FIFO for holding the light client hostage
      // until the flood drains: both "finish together" then.)
      leg.set("greedy_span_seconds", greedy_span);
      leg.set("interactive_span_seconds", interactive_span);
      leg.set("interactive_mean_batch_seconds", interactive_batch_mean);
      return interactive_batch_mean;
    };
    json::Value fifo = json::Value::object(), fair = json::Value::object();
    const double fifo_batch = run_leg(false, fifo);
    const double fair_batch = run_leg(true, fair);
    std::printf("\nfairness (greedy flood vs interactive batches):\n"
                "  fifo:       interactive batch %.1f ms\n"
                "  fair-share: interactive batch %.1f ms  (%.1fx better)\n",
                fifo_batch * 1e3, fair_batch * 1e3,
                fifo_batch / std::max(1e-9, fair_batch));
    json::Value fairness = json::Value::object();
    fairness.set("fifo", std::move(fifo));
    fairness.set("fair_share", std::move(fair));
    fairness.set("interactive_batch_speedup",
                 fifo_batch / std::max(1e-9, fair_batch));
    section.set("fairness", std::move(fairness));
  }

  // -- 6. persistent cache: cold run, then warm start from disk -------------
  {
    const std::string cache_file = out + ".cache";
    std::remove(cache_file.c_str());
    SessionConfig persisted = session;
    persisted.cache_path = cache_file;
    double cold_seconds = 0.0, warm_seconds = 0.0;
    {
      search::EvalService cold(persisted);
      Timer t;
      (void)cold.collect(cold.submit_batch(g, cohort, p));
      cold_seconds = t.seconds();
    }  // destructor persists the result cache
    sim::reset_program_compile_count();
    std::size_t warm_hits = 0, warm_loaded = 0;
    {
      search::EvalService warm(persisted);
      warm_loaded = warm.stats().cache_loaded;
      Timer t;
      (void)warm.collect(warm.submit_batch(g, cohort, p));
      warm_seconds = t.seconds();
      warm_hits = warm.stats().cache_hits;
    }
    const auto warm_compiles =
        static_cast<std::size_t>(sim::program_compile_count());
    const double hit_rate =
        static_cast<double>(warm_hits) / static_cast<double>(cohort.size());
    std::printf("\nwarm start via %s: cold %.2fs -> warm %.3fs, "
                "%zu/%zu cache hits (%.0f%%), %zu loaded, %zu recompiles\n",
                cache_file.c_str(), cold_seconds, warm_seconds, warm_hits,
                cohort.size(), hit_rate * 100.0, warm_loaded, warm_compiles);
    json::Value warm_section = json::Value::object();
    warm_section.set("cold_seconds", cold_seconds);
    warm_section.set("warm_seconds", warm_seconds);
    warm_section.set("warm_hit_rate", hit_rate);
    warm_section.set("cache_loaded", warm_loaded);
    warm_section.set("warm_plan_recompiles", warm_compiles);
    section.set("warm_start", std::move(warm_section));
    std::remove(cache_file.c_str());
  }

  // -- 7. plan-cache tier: a RETRAINING run still skips the planner ---------
  // Unlike the result cache above, the contraction-plan cache pays off even
  // when every candidate is new: with cache_path EMPTY the second service
  // retrains the whole cohort, yet compiles every tensor-network program
  // from persisted elimination orders — zero planner invocations.
  {
    const std::string plan_file = out + ".plans";
    std::remove(plan_file.c_str());
    SessionConfig planned = session;
    planned.backend = BackendChoice::TensorNetwork;
    planned.cache_path.clear();
    planned.plan_cache_path = plan_file;
    std::vector<qaoa::MixerSpec> tn_cohort(
        cohort.begin(), cohort.begin() + std::min<std::size_t>(4, cohort.size()));
    double cold_seconds = 0.0, warm_seconds = 0.0;
    qtensor::reset_planner_invocation_count();
    {
      search::EvalService cold(planned);
      Timer t;
      (void)cold.collect(cold.submit_batch(g, tn_cohort, p));
      cold_seconds = t.seconds();
    }  // destructor persists the plan cache
    const auto cold_plans =
        static_cast<std::size_t>(qtensor::planner_invocation_count());
    qtensor::reset_planner_invocation_count();
    std::size_t plans_loaded = 0;
    {
      search::EvalService warm(planned);
      plans_loaded = warm.stats().plans_loaded;
      Timer t;
      (void)warm.collect(warm.submit_batch(g, tn_cohort, p));
      warm_seconds = t.seconds();
    }
    const auto warm_plans =
        static_cast<std::size_t>(qtensor::planner_invocation_count());
    std::printf("\nplan-cache tier via %s (results NOT cached — both runs "
                "retrain):\n"
                "  cold %.2fs, %zu planner invocations -> warm %.2fs, "
                "%zu invocations (%zu plans loaded)\n",
                plan_file.c_str(), cold_seconds, cold_plans, warm_seconds,
                warm_plans, plans_loaded);
    if (warm_plans != 0)
      std::printf("ERROR: warm run invoked the planner!\n");
    json::Value plan_section = json::Value::object();
    plan_section.set("cold_seconds", cold_seconds);
    plan_section.set("warm_seconds", warm_seconds);
    plan_section.set("cold_planner_invocations", cold_plans);
    plan_section.set("warm_planner_invocations", warm_plans);
    plan_section.set("plans_loaded", plans_loaded);
    section.set("plan_cache", std::move(plan_section));
    std::remove(plan_file.c_str());
  }

  // -- 8. preemption: interactive tail latency under a batch flood ----------
  {
    // A batch client floods the whole cohort at 8x budget while an
    // interactive client submits singles and waits for each one. Fair-share
    // alone only reorders the QUEUES — an interactive single can still sit
    // behind a full 8x training run already holding both workers. With a
    // preemption quantum the running batch evaluation parks at its next
    // safe point, the interactive job borrows the worker, and the batch
    // job later resumes from its in-memory checkpoint.
    SessionConfig contended = session;
    contended.workers = 2;
    const std::size_t singles = 24;
    const auto run_leg = [&](bool fair, double quantum, json::Value& leg) {
      SessionConfig cfg = contended;
      cfg.preempt_quantum_seconds = quantum;
      search::EvalService service(cfg);
      std::vector<double> latencies;
      latencies.reserve(singles);
      std::thread batch([&] {
        search::EvalClient me;
        search::JobOptions job;
        // 200x budget: each flood job runs for many quanta, so without
        // preemption an interactive single waits for a WHOLE training run
        // to finish even under fair-share queue ordering.
        job.training_evals = 200 * evals;
        if (fair) {
          me = service.register_client("batch");
          job.client = me.id();
        }
        // Deeper circuits (p+1): the flood's training runs are long enough
        // to span many quanta even when COBYLA converges early.
        (void)service.collect(service.submit_batch(g, cohort, p + 1, job));
      });
      std::thread interactive([&] {
        search::EvalClient me;
        search::JobOptions job;
        if (fair) {
          me = service.register_client("interactive");
          job.client = me.id();
        }
        for (std::size_t i = 0; i < singles; ++i) {
          // Unique budget per single: nothing dedups against the flood.
          job.training_evals = evals + 1 + i;
          auto ticket = service.submit(g, cohort[i % cohort.size()], p, job);
          (void)ticket.wait();
          latencies.push_back(ticket.finished_at() - ticket.submitted_at());
        }
      });
      batch.join();
      interactive.join();
      std::sort(latencies.begin(), latencies.end());
      const double p50 = latencies[latencies.size() / 2];
      const double p99 = latencies[std::min(latencies.size() - 1,
                                            latencies.size() * 99 / 100)];
      const auto stats = service.stats();
      leg.set("interactive_p50_seconds", p50);
      leg.set("interactive_p99_seconds", p99);
      leg.set("parked", stats.parked);
      leg.set("resumed", stats.resumed);
      return p99;
    };
    json::Value fifo = json::Value::object();
    json::Value fair = json::Value::object();
    json::Value preempt = json::Value::object();
    const double fifo_p99 = run_leg(false, 0.0, fifo);
    const double fair_p99 = run_leg(true, 0.0, fair);
    const double preempt_p99 = run_leg(true, 0.002, preempt);
    std::printf("\npreemption (interactive p99 under a batch flood):\n"
                "  fifo:                 p99 %.1f ms\n"
                "  fair-share:           p99 %.1f ms\n"
                "  fair-share + preempt: p99 %.1f ms  (%.1fx better than "
                "fifo, %zu parks)\n",
                fifo_p99 * 1e3, fair_p99 * 1e3, preempt_p99 * 1e3,
                fifo_p99 / std::max(1e-9, preempt_p99),
                static_cast<std::size_t>(preempt.at("parked").as_number()));
    json::Value preemption = json::Value::object();
    preemption.set("fifo", std::move(fifo));
    preemption.set("fair_share", std::move(fair));
    preemption.set("fair_share_preempt", std::move(preempt));
    preemption.set("interactive_p99_speedup_vs_fifo",
                   fifo_p99 / std::max(1e-9, preempt_p99));
    section.set("preemption", std::move(preemption));
  }

  // -- 9. durable completions: persist cost vs store size -------------------
  {
    // A durable service (cache_path + checkpoint_path) over a result store
    // preloaded with N synthetic entries runs the cohort one candidate at a
    // time. Per completion: the time from the end of the evaluation to the
    // ticket resolving (the service persists the result before resolving
    // it; a store-less service gives the bookkeeping baseline) and the
    // bytes the process wrote (/proc/self/io wchar). Both should stay flat
    // from 100 to 10k entries: one journal record + one fdatasync each.
    const std::string cache_file = out + ".durable.json";
    const std::string ckpt_file = out + ".durable_ckpt.json";
    const auto remove_store = [](const std::string& path) {
      std::remove(path.c_str());
      std::remove(search::journal_path(path).c_str());
    };
    const auto bytes_written = [] {
      std::ifstream in("/proc/self/io");
      std::string key;
      std::uint64_t value = 0;
      while (in >> key >> value)
        if (key == "wchar:") return value;
      return std::uint64_t{0};
    };
    const std::size_t completions = std::min<std::size_t>(cohort.size(), 20);
    // Resolution latency after each evaluation, median over the cohort.
    const auto resolve_ms = [&](const SessionConfig& cfg,
                                std::uint64_t* bytes) {
      search::EvalService service(cfg);
      std::vector<double> after_eval;
      const std::uint64_t bytes0 = bytes_written();
      for (std::size_t i = 0; i < completions; ++i) {
        auto ticket = service.submit(g, cohort[i], p);
        const auto& r = ticket.wait();
        after_eval.push_back(ticket.finished_at() - ticket.submitted_at() -
                             r.queue_seconds - r.eval_seconds);
      }
      if (bytes != nullptr) *bytes = bytes_written() - bytes0;
      std::sort(after_eval.begin(), after_eval.end());
      return after_eval[after_eval.size() / 2] * 1e3;
    };
    SessionConfig plain = session;
    plain.workers = 1;
    const double baseline_ms = resolve_ms(plain, nullptr);
    // The code version the service writes under, read back from an empty
    // store it saved, so the synthetic preload loads like its own entries.
    remove_store(cache_file);
    {
      SessionConfig probe = plain;
      probe.cache_path = cache_file;
      (void)search::EvalService(probe).save_cache();
    }
    std::string version;
    {
      std::ifstream in(cache_file);
      std::stringstream text;
      text << in.rdbuf();
      version = json::parse(text.str()).at("code_version").as_string();
    }
    json::Value durable = json::Value::object();
    durable.set("completions", completions);
    durable.set("baseline_resolve_ms", baseline_ms);
    std::printf("\ndurable completions (persist before resolve, %zu per "
                "store size; store-less baseline %.3f ms):\n",
                completions, baseline_ms);
    double persist_100 = 0.0, persist_10k = 0.0;
    for (const std::size_t preload : {100, 1000, 10000}) {
      remove_store(cache_file);
      remove_store(ckpt_file);
      std::vector<search::CacheEntry> entries;
      for (std::size_t i = 0; i < preload; ++i) {
        search::CacheEntry e;
        e.graph_fp = "preload-" + std::to_string(i);
        e.training_evals = evals;
        e.engine = "sv";
        e.result.mixer = cohort[i % cohort.size()];
        e.result.p = p;
        e.result.energy = -1.0 - 1e-3 * static_cast<double>(i);
        e.result.theta = {0.1, 0.2};
        e.result.evaluations = evals;
        entries.push_back(std::move(e));
      }
      search::save_result_cache(entries, cache_file, version);
      SessionConfig cfg = plain;
      cfg.cache_path = cache_file;
      cfg.checkpoint_path = ckpt_file;
      cfg.result_cache = preload + completions + 64;
      std::uint64_t bytes = 0;
      const double persist_ms = resolve_ms(cfg, &bytes) - baseline_ms;
      const double per_completion =
          static_cast<double>(bytes) / static_cast<double>(completions);
      std::printf("  %5zu entries: %.3f ms, %.0f B written per completion\n",
                  preload, persist_ms, per_completion);
      json::Value leg = json::Value::object();
      leg.set("persist_ms", persist_ms);
      leg.set("bytes_per_completion", per_completion);
      durable.set("preload_" + std::to_string(preload), std::move(leg));
      if (preload == 100) persist_100 = persist_ms;
      if (preload == 10000) persist_10k = persist_ms;
    }
    durable.set("persist_ratio_10k_vs_100",
                persist_10k / std::max(1e-9, persist_100));
    section.set("durable_completion", std::move(durable));
    remove_store(cache_file);
    remove_store(ckpt_file);
  }

  bench::update_bench_json(out, "eval_service", std::move(section));
  return 0;
}
