#include "reproduce.hpp"

#include <cstring>

#include "circuit/optimizer.hpp"
#include "graph/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/sampling.hpp"
#include "sim/sim_program.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

using namespace qarch;

query::SamplerOptions sampler_options(const SessionConfig& session,
                                      qaoa::EngineKind engine) {
  const qaoa::EnergyOptions energy = session.energy_options(engine);
  query::SamplerOptions so;
  so.engine = engine == qaoa::EngineKind::Statevector
                  ? query::SamplerEngine::Statevector
                  : query::SamplerEngine::TensorNetwork;
  so.query = query::query_options(energy.qtensor);
  so.tn_backend = energy.qtensor.backend;
  so.sv_plan = energy.sv_plan;
  so.sv_workers = energy.inner_workers;
  return so;
}

circuit::Circuit simplified_ansatz(const graph::Graph& g, std::size_t p,
                                   const qaoa::MixerSpec& mixer) {
  return circuit::optimize(qaoa::build_qaoa_circuit(g, p, mixer));
}

bool same_result(const search::CandidateResult& a,
                 const search::CandidateResult& b) {
  return a.mixer == b.mixer && a.p == b.p && a.evaluations == b.evaluations &&
         std::memcmp(&a.energy, &b.energy, sizeof(double)) == 0 &&
         std::memcmp(&a.sampled_ratio, &b.sampled_ratio, sizeof(double)) ==
             0 &&
         a.theta == b.theta;
}

double oracle_energy(const graph::Graph& g, const circuit::Circuit& ansatz,
                     const std::vector<double>& theta) {
  const sim::StatevectorSimulator sv;
  const sim::State state = sv.run_from_plus(ansatz, theta);
  const qaoa::Hamiltonian ham(g);
  std::vector<double> zz;
  for (const qaoa::ZZTerm& t : ham.terms())
    zz.push_back(sim::expectation_zz(state, t.u, t.v));
  return ham.energy(zz);
}

std::size_t memory_passes(const SessionConfig& session,
                          const circuit::Circuit& ansatz) {
  const qaoa::EnergyOptions e =
      session.energy_options(qaoa::EngineKind::Statevector);
  const sim::SimProgram program(ansatz, e.sv_plan);
  return program.stats().memory_passes;
}

ReproContext::ReproContext(const graph::Graph& g,
                           const search::EvaluatorOptions& opts)
    : graph(g),
      options(opts),
      energy(opts.hamiltonian.build(g), opts.effective_energy()),
      optimum(graph::maxcut_exact(g).value) {}

Reproduced reproduce(const ReproContext& ctx,
                     const search::CandidateResult& target,
                     const std::string& id, Tracer& tracer) {
  const search::EvaluatorOptions& opt = ctx.options;
  Reproduced out;
  const double t0 = tracer.now();
  const long root = tracer.add("candidate", t0, t0, -1, id);  // closed below
  double layers = 0.0;
  const auto layer = [&](const char* name, double start) {
    const double end = tracer.now();
    tracer.add(name, start, end, root, id);
    layers += end - start;
  };

  double t = tracer.now();
  circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(ctx.graph, target.p, target.mixer);
  if (opt.simplify_circuit) ansatz = circuit::optimize(ansatz);
  layer("circuit.build", t);

  t = tracer.now();
  const std::shared_ptr<const qaoa::EnergyPlan> plan =
      ctx.energy.plan_for(ansatz);
  layer("qaoa.compile", t);
  out.info = plan->info();

  // Replay spans are parented to the candidate, not to the minimize span
  // that encloses them: that span is recorded only once it closes.
  const optim::Cobyla cobyla(opt.cobyla);
  t = tracer.now();
  const optim::Objective objective = [&](std::span<const double> theta) {
    const double s = tracer.now();
    const double value = -plan->energy(theta);
    const double e = tracer.now();
    tracer.add("qaoa.replay", s, e, root, id);
    ++out.replays;
    return value;
  };
  std::vector<double> x0(ansatz.num_params(), opt.train.initial_value);
  optim::OptimState state;
  const optim::OptimResult r =
      cobyla.minimize(objective, std::move(x0), state, nullptr);
  layer("optim.minimize", t);

  t = tracer.now();
  Rng sample_rng(opt.sample_seed ^ (target.p * 0x9e3779b97f4a7c15ULL) ^
                 target.mixer.gates.size());
  const double best_cut = qaoa::expected_best_cut(
      ansatz, r.x, ctx.graph, opt.shots, opt.sample_trials, sample_rng);
  layer("qaoa.score", t);
  tracer.close(root, tracer.now());
  out.layer_seconds = layers;

  const double optimum = ctx.optimum;
  out.result.mixer = target.mixer;
  out.result.p = target.p;
  out.result.energy = -r.value;
  out.result.ratio = optimum > 0.0 ? out.result.energy / optimum : 0.0;
  out.result.sampled_ratio = optimum > 0.0 ? best_cut / optimum : 0.0;
  out.result.theta = r.x;
  out.result.evaluations = r.evaluations;
  return out;
}

LayerSplit layer_split(const Tracer& tracer) {
  LayerSplit s;
  s.build = tracer.total("circuit.build");
  s.compile = tracer.total("qaoa.compile");
  s.minimize = tracer.total("optim.minimize");
  s.replay = tracer.total("qaoa.replay");
  s.score = tracer.total("qaoa.score");
  s.replays = tracer.count("qaoa.replay");
  return s;
}

void report_compute_layers(const LayerSplit& split, std::size_t candidates,
                           std::size_t rounds, Result& result) {
  const double n = static_cast<double>(candidates * rounds);
  result.metric("qaoa.replay_us",
                split.replay / static_cast<double>(split.replays) * 1e6, "us");
  result.metric("qaoa.replays",
                static_cast<double>(split.replays / rounds), "count");
  result.metric("qaoa.compile_ms", split.compile / n * 1e3, "ms");
  result.metric("qaoa.score_ms", split.score / n * 1e3, "ms");
  result.metric("optim.overhead_ms", (split.minimize - split.replay) / n * 1e3,
                "ms");
  result.metric("circuit.build_ms", split.build / n * 1e3, "ms");
  std::printf("layer split (s): build %.4f compile %.4f replay %.4f "
              "optimizer %.4f score %.4f over %zu x %zu reproductions\n",
              split.build, split.compile, split.replay,
              split.minimize - split.replay, split.score, candidates, rounds);
}

}  // namespace perfbench
