// The compiled query subsystem (src/query): amplitude programs vs the
// statevector, batched amplitude slices, reduced-density-matrix marginals
// (sliced and unsliced), direct tensor-network sampling (determinism per
// seed, agreement in distribution with the statevector engine), the
// compile-time width ceiling, and the shared-plan-cache warm-replay probe.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/extra_generators.hpp"
#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "qaoa/mixer.hpp"
#include "qtensor/backend.hpp"
#include "qtensor/contraction.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"
#include "qtensor/program.hpp"
#include "query/program.hpp"
#include "query/sampler.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qarch;
using linalg::cplx;

std::vector<double> random_theta(std::size_t params, Rng& rng) {
  std::vector<double> theta(params);
  for (double& t : theta) t = rng.uniform(-2.0, 2.0);
  return theta;
}

std::vector<int> bits_of(std::size_t basis, std::size_t n) {
  std::vector<int> bits(n);
  for (std::size_t q = 0; q < n; ++q) bits[q] = (basis >> q) & 1U ? 1 : 0;
  return bits;
}

/// A varied pool of small test instances (graph, mixer, p).
struct Instance {
  graph::Graph g;
  qaoa::MixerSpec mixer;
  std::size_t p;
};

std::vector<Instance> test_instances(Rng& rng) {
  std::vector<Instance> out;
  out.push_back({graph::cycle(5), qaoa::MixerSpec::parse("rx"), 2});
  out.push_back({graph::complete(4), qaoa::MixerSpec::parse("rx,ry"), 1});
  out.push_back(
      {graph::random_regular(6, 3, rng), qaoa::MixerSpec::parse("rx,cz"), 1});
  out.push_back(
      {graph::erdos_renyi_connected(5, 0.6, rng), qaoa::MixerSpec::parse("h,rz,h"), 2});
  return out;
}

/// Reference reduced density matrix of `targets` from the full state:
/// ref[r * 2^k + c] with bit j of r and c being the value of targets[j].
std::vector<cplx> reference_rdm(const sim::State& psi, std::size_t n,
                                const std::vector<std::size_t>& targets) {
  const std::size_t k = targets.size();
  const std::size_t dim = std::size_t{1} << k;
  std::vector<cplx> ref(dim * dim, cplx{0.0, 0.0});
  auto embed = [&](std::size_t rest, std::size_t t) {
    // `rest` enumerates the non-target qubits (ascending), `t` the targets.
    std::size_t basis = 0, ri = 0;
    for (std::size_t q = 0; q < n; ++q) {
      bool is_target = false;
      for (std::size_t j = 0; j < k; ++j)
        if (targets[j] == q) {
          basis |= ((t >> j) & 1U) << q;
          is_target = true;
        }
      if (!is_target) {
        basis |= ((rest >> ri) & 1U) << q;
        ++ri;
      }
    }
    return basis;
  };
  for (std::size_t rest = 0; rest < (std::size_t{1} << (n - k)); ++rest)
    for (std::size_t r = 0; r < dim; ++r)
      for (std::size_t c = 0; c < dim; ++c)
        ref[r * dim + c] +=
            psi[embed(rest, r)] * std::conj(psi[embed(rest, c)]);
  return ref;
}

/// Forces the compile-time slicing decision on any query network.
qtensor::ProgramOptions sliced_options() {
  qtensor::ProgramOptions options;
  options.slice_above_width = 2;
  options.max_slice_vars = 3;
  return options;
}

// ---------------------------------------------------------------------------
// Amplitudes: compiled program vs the statevector oracle.
// ---------------------------------------------------------------------------

TEST(AmplitudeProgram, MatchesStatevector) {
  Rng rng(101);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;

  for (Instance& inst : test_instances(rng)) {
    const circuit::Circuit ansatz =
        qaoa::build_qaoa_circuit(inst.g, inst.p, inst.mixer);
    const query::AmplitudeProgram program(ansatz);
    const std::size_t n = inst.g.num_vertices();
    for (int step = 0; step < 3; ++step) {
      const auto theta = random_theta(ansatz.num_params(), rng);
      const sim::State psi = sv.run_from_plus(ansatz, theta);
      for (int trial = 0; trial < 4; ++trial) {
        const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
        const std::vector<int> bits = bits_of(basis, n);
        const cplx compiled = program.amplitude(theta, bits, backend);
        EXPECT_NEAR(compiled.real(), psi[basis].real(), 1e-8);
        EXPECT_NEAR(compiled.imag(), psi[basis].imag(), 1e-8);
      }
    }
  }
}

TEST(BatchedAmplitudeProgram, SlicesMatchSingleAmplitudes) {
  Rng rng(202);
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> open = {1, 4};
  const query::BatchedAmplitudeProgram batched(ansatz, open);
  const query::AmplitudeProgram single(ansatz);

  const auto theta = random_theta(ansatz.num_params(), rng);
  // Fix the non-open qubits to a random assignment (ascending qubit order).
  std::vector<int> fixed;
  std::vector<int> bits(n, 0);
  for (std::size_t q = 0; q < n; ++q) {
    if (q == open[0] || q == open[1]) continue;
    const int b = rng.bernoulli(0.5) ? 1 : 0;
    fixed.push_back(b);
    bits[q] = b;
  }
  const std::vector<cplx> batch = batched.amplitudes(theta, fixed, backend);
  ASSERT_EQ(batch.size(), 4U);
  // Output index bit j = value of open_qubits[j] (LSB-first).
  for (std::size_t idx = 0; idx < 4; ++idx) {
    bits[open[0]] = static_cast<int>(idx & 1U);
    bits[open[1]] = static_cast<int>((idx >> 1) & 1U);
    const cplx expect = single.amplitude(theta, bits, backend);
    EXPECT_NEAR(batch[idx].real(), expect.real(), 1e-8);
    EXPECT_NEAR(batch[idx].imag(), expect.imag(), 1e-8);
  }
}

TEST(BatchedAmplitudeProgram, SlicedMatchesStatevector) {
  Rng rng(212);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> open = {0, 2, 5};
  const query::BatchedAmplitudeProgram batched(ansatz, open, sliced_options());
  EXPECT_GE(batched.stats().slice_vars, 1U);
  EXPECT_EQ(batched.stats().open_labels, open.size());

  const auto theta = random_theta(ansatz.num_params(), rng);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  const std::vector<int> fixed = {1, 0, 1};  // qubits 1, 3, 4
  const std::vector<cplx> batch = batched.amplitudes(theta, fixed, backend);
  ASSERT_EQ(batch.size(), 8U);
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    std::size_t basis = (1U << 1) | (1U << 4);
    for (std::size_t j = 0; j < open.size(); ++j)
      basis |= ((idx >> j) & 1U) << open[j];
    ASSERT_LT(basis, std::size_t{1} << n);
    EXPECT_NEAR(batch[idx].real(), psi[basis].real(), 1e-9) << idx;
    EXPECT_NEAR(batch[idx].imag(), psi[basis].imag(), 1e-9) << idx;
  }
}

// ---------------------------------------------------------------------------
// Marginals: RDM vs the statevector partial trace.
// ---------------------------------------------------------------------------

TEST(MarginalProgram, MatchesStatevectorPartialTrace) {
  Rng rng(303);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::erdos_renyi_connected(6, 0.5, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const std::size_t n = g.num_vertices();

  const std::vector<std::size_t> targets = {0, 3};
  const query::MarginalProgram program(ansatz, targets);
  const std::size_t k = targets.size();
  const std::size_t dim = std::size_t{1} << k;

  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<cplx> rdm = program.rdm(theta, backend);
  ASSERT_EQ(rdm.size(), dim * dim);

  // Reference partial trace from the full state.
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  const std::vector<cplx> ref = reference_rdm(psi, n, targets);

  double trace = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    trace += rdm[r * dim + r].real();
    for (std::size_t c = 0; c < dim; ++c) {
      EXPECT_NEAR(rdm[r * dim + c].real(), ref[r * dim + c].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), ref[r * dim + c].imag(), 1e-8);
      // Hermitian: rho[r][c] == conj(rho[c][r]).
      EXPECT_NEAR(rdm[r * dim + c].real(), rdm[c * dim + r].real(), 1e-8);
      EXPECT_NEAR(rdm[r * dim + c].imag(), -rdm[c * dim + r].imag(), 1e-8);
    }
  }
  EXPECT_NEAR(trace, 1.0, 1e-8);

  // probabilities() is the clamped diagonal.
  const std::vector<double> probs = program.probabilities(theta, backend);
  ASSERT_EQ(probs.size(), dim);
  double total = 0.0;
  for (std::size_t r = 0; r < dim; ++r) {
    EXPECT_NEAR(probs[r], ref[r * dim + r].real(), 1e-8);
    total += probs[r];
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(MarginalProgram, SlicedMatchesStatevector) {
  Rng rng(313);
  const sim::StatevectorSimulator sv;
  const qtensor::SerialCpuBackend backend;
  const graph::Graph g = graph::erdos_renyi_connected(6, 0.5, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));

  const std::vector<std::size_t> targets = {1, 4};
  const query::MarginalProgram program(ansatz, targets, sliced_options());
  EXPECT_GE(program.stats().slice_vars, 1U);
  EXPECT_EQ(program.stats().open_labels, 2 * targets.size());

  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<cplx> rdm = program.rdm(theta, backend);
  const std::vector<cplx> ref = reference_rdm(
      sv.run_from_plus(ansatz, theta), g.num_vertices(), targets);
  ASSERT_EQ(rdm.size(), ref.size());
  for (std::size_t i = 0; i < rdm.size(); ++i) {
    EXPECT_NEAR(rdm[i].real(), ref[i].real(), 1e-9) << i;
    EXPECT_NEAR(rdm[i].imag(), ref[i].imag(), 1e-9) << i;
  }
}

TEST(MarginalProgram, RejectsUnsortedTargets) {
  // Outputs index bit j as targets[j], which the network's ascending-qubit
  // label order only honours for sorted targets.
  circuit::Circuit c(3);  // prepared from |+++>
  c.h(0);
  c.x(0);  // q0 = |1>
  c.h(2);  // q2 = |0>
  const std::vector<std::size_t> sorted = {0, 2};
  const query::MarginalProgram program(c, sorted);
  const qtensor::SerialCpuBackend backend;
  const std::vector<double> probs = program.probabilities({}, backend);
  EXPECT_NEAR(probs[1], 1.0, 1e-12);  // q0 = 1, q2 = 0

  const std::vector<std::size_t> unsorted = {2, 0};
  EXPECT_THROW(query::MarginalProgram(c, unsorted), qarch::Error);
  const std::vector<std::size_t> duplicate = {1, 1};
  EXPECT_THROW(query::MarginalProgram(c, duplicate), qarch::Error);
}

TEST(MarginalProgram, RejectsOpenLabelsAboveWidthCeiling) {
  // 16 cut wires leave 32 open labels: no slicing can bring that under the
  // ceiling, so the compile fails before any 2^32-entry buffer exists.
  const graph::Graph g = graph::cycle(16);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx"));
  std::vector<std::size_t> targets(16);
  for (std::size_t q = 0; q < targets.size(); ++q) targets[q] = q;
  ASSERT_GT(2 * targets.size(), qtensor::ContractionProgram::kMaxWidth);
  EXPECT_THROW(query::MarginalProgram(ansatz, targets), qarch::Error);
}

// ---------------------------------------------------------------------------
// Sampling: exact probabilities, per-seed determinism, distributions.
// ---------------------------------------------------------------------------

query::SamplerOptions tn_sampler_options(const std::string& backend_spec) {
  query::SamplerOptions so;
  so.engine = query::SamplerEngine::TensorNetwork;
  so.tn_backend = backend_spec;
  return so;
}

TEST(Sampler, ProbabilityMatchesStatevector) {
  Rng rng(404);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(6);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();

  query::SamplerOptions sv_opts;  // statevector engine default
  const query::Sampler sv_sampler(ansatz, sv_opts);
  const query::Sampler tn_sampler(ansatz, tn_sampler_options("serial"));
  ASSERT_EQ(sv_sampler.engine(), query::SamplerEngine::Statevector);
  ASSERT_EQ(tn_sampler.engine(), query::SamplerEngine::TensorNetwork);

  const auto theta = random_theta(ansatz.num_params(), rng);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t basis = rng.uniform_int(std::size_t{1} << n);
    const double expect = std::norm(psi[basis]);
    EXPECT_NEAR(sv_sampler.probability(theta, basis), expect, 1e-8);
    EXPECT_NEAR(tn_sampler.probability(theta, basis), expect, 1e-8);
  }
}

TEST(Sampler, SeededDrawsAreDeterministicAcrossWorkerCounts) {
  Rng rng(505);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx,ry"));
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::size_t shots = 64;

  // Tensor-network engine: serial vs parallel backend, same seed.
  const query::Sampler tn_serial(ansatz, tn_sampler_options("serial"));
  const query::Sampler tn_parallel(ansatz, tn_sampler_options("parallel:3"));
  Rng r1(99), r2(99);
  const auto a = tn_serial.sample(theta, shots, r1);
  const auto b = tn_parallel.sample(theta, shots, r2);
  EXPECT_EQ(a, b);

  // Statevector engine: 1 vs 4 replay workers, same seed.
  query::SamplerOptions sv1, sv4;
  sv4.sv_workers = 4;
  const query::Sampler sampler1(ansatz, sv1);
  const query::Sampler sampler4(ansatz, sv4);
  Rng r3(99), r4(99);
  const auto c = sampler1.sample(theta, shots, r3);
  const auto d = sampler4.sample(theta, shots, r4);
  EXPECT_EQ(c, d);

  // Replaying the same seed on the same sampler reproduces the draws.
  Rng r5(99);
  EXPECT_EQ(a, tn_serial.sample(theta, shots, r5));
}

TEST(Sampler, EnginesAgreeInDistribution) {
  Rng rng(606);
  const sim::StatevectorSimulator sv;
  const graph::Graph g = graph::cycle(5);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 1, qaoa::MixerSpec::parse("rx"));
  const std::size_t n = g.num_vertices();
  const auto theta = random_theta(ansatz.num_params(), rng);

  const query::Sampler tn(ansatz, tn_sampler_options("serial"));
  const std::size_t shots = 4000;
  Rng draw(7);
  const auto samples = tn.sample(theta, shots, draw);

  std::vector<double> empirical(std::size_t{1} << n, 0.0);
  for (const std::size_t s : samples) empirical[s] += 1.0 / double(shots);
  const sim::State psi = sv.run_from_plus(ansatz, theta);
  double tv = 0.0;
  for (std::size_t basis = 0; basis < empirical.size(); ++basis)
    tv += std::abs(empirical[basis] - std::norm(psi[basis]));
  tv *= 0.5;
  // 4000 draws over 32 outcomes: TV distance ~ O(sqrt(32/4000)) ~ 0.045;
  // 0.1 gives a comfortable deterministic-seed margin.
  EXPECT_LT(tv, 0.1);
}

// ---------------------------------------------------------------------------
// Plan reuse: a warm plan cache compiles query programs with ZERO planner
// invocations (the acceptance probe of the compiled-query pipeline).
// ---------------------------------------------------------------------------

TEST(QueryPlanCache, WarmCompilesWithoutPlanner) {
  Rng rng(707);
  const graph::Graph g = graph::random_regular(6, 3, rng);
  const circuit::Circuit ansatz =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::parse("rx"));

  qtensor::ProgramOptions options;
  options.plan_cache = std::make_shared<qtensor::PlanCache>();

  // Cold: compiling plans at least once.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram cold(ansatz, options);
  const std::vector<std::size_t> targets = {0, 2};
  const query::MarginalProgram cold_marginal(ansatz, targets, options);
  EXPECT_GT(qtensor::planner_invocation_count(), 0U);
  EXPECT_FALSE(cold.stats().plan_cached);

  // Warm: the same shapes replay straight from the shared cache.
  qtensor::reset_planner_invocation_count();
  const query::AmplitudeProgram warm(ansatz, options);
  const query::MarginalProgram warm_marginal(ansatz, targets, options);
  EXPECT_EQ(qtensor::planner_invocation_count(), 0U);
  EXPECT_TRUE(warm.stats().plan_cached);
  EXPECT_TRUE(warm_marginal.stats().plan_cached);

  // Warm replays still produce the same numbers.
  const qtensor::SerialCpuBackend backend;
  const auto theta = random_theta(ansatz.num_params(), rng);
  const std::vector<int> bits(g.num_vertices(), 0);
  const cplx cold_amp = cold.amplitude(theta, bits, backend);
  const cplx warm_amp = warm.amplitude(theta, bits, backend);
  EXPECT_NEAR(cold_amp.real(), warm_amp.real(), 1e-12);
  EXPECT_NEAR(cold_amp.imag(), warm_amp.imag(), 1e-12);
}

}  // namespace
