// Public-call reproduction of one candidate evaluation, shared by the traced
// runs of every workload, plus the small helpers the output checks use.
//
// Evaluator::evaluate is  build_qaoa_circuit -> circuit::optimize ->
// EnergyEvaluator::plan_for -> COBYLA over EnergyPlan::energy ->
// expected_best_cut.  reproduce() makes the same calls in the same order with
// the same options and seeds, so its result is bit-identical to the
// service's, and records one span per layer on the way.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "circuit/circuit.hpp"
#include "graph/graph.hpp"
#include "qaoa/energy.hpp"
#include "query/sampler.hpp"
#include "search/evaluator.hpp"
#include "session.hpp"

namespace perfbench {

/// The sampler options the server and the Evaluator derive from a session.
qarch::query::SamplerOptions sampler_options(
    const qarch::SessionConfig& session, qarch::qaoa::EngineKind engine);

/// The ansatz the evaluator simulates: built, then peephole-optimized.
qarch::circuit::Circuit simplified_ansatz(const qarch::graph::Graph& g,
                                          std::size_t p,
                                          const qarch::qaoa::MixerSpec& mixer);

/// Bit-level equality of everything an evaluation computes (energy, theta,
/// sampled ratio, objective calls).
bool same_result(const qarch::search::CandidateResult& a,
                 const qarch::search::CandidateResult& b);

/// <C> at theta on the plain per-gate StatevectorSimulator (the oracle).
double oracle_energy(const qarch::graph::Graph& g,
                     const qarch::circuit::Circuit& ansatz,
                     const std::vector<double>& theta);

/// Memory passes of the compiled statevector program for `ansatz`.
std::size_t memory_passes(const qarch::SessionConfig& session,
                          const qarch::circuit::Circuit& ansatz);

/// One reproduced candidate and its layer accounting.
struct Reproduced {
  qarch::search::CandidateResult result;
  std::size_t replays = 0;
  double layer_seconds = 0.0;  ///< build + compile + minimize + score
  qarch::qaoa::EnergyPlanInfo info;
};

/// The per-graph state a reproduction shares across candidates, as the
/// service's Evaluator does.
struct ReproContext {
  ReproContext(const qarch::graph::Graph& g,
               const qarch::search::EvaluatorOptions& options);
  qarch::graph::Graph graph;
  qarch::search::EvaluatorOptions options;
  qarch::qaoa::EnergyEvaluator energy;
  double optimum = 0.0;
};

/// Reproduces (target.mixer, target.p) under a root span "candidate" with
/// child spans "circuit.build", "qaoa.compile", "optim.minimize",
/// "qaoa.replay" (one per objective call) and "qaoa.score", all named by `id`.
Reproduced reproduce(const ReproContext& ctx,
                     const qarch::search::CandidateResult& target,
                     const std::string& id, Tracer& tracer);

/// Sums of the layer spans a set of reproductions recorded.
struct LayerSplit {
  double build = 0.0, compile = 0.0, minimize = 0.0, replay = 0.0,
         score = 0.0;
  std::size_t replays = 0;
  [[nodiscard]] double layers() const {
    return build + compile + minimize + score;
  }
};
LayerSplit layer_split(const Tracer& tracer);

/// Records the per-candidate compute-layer metrics shared by all workloads;
/// the split holds `candidates` reproductions, each `rounds` times.
void report_compute_layers(const LayerSplit& split, std::size_t candidates,
                           std::size_t rounds, Result& result);

}  // namespace perfbench
