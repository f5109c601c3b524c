// Bucket-elimination contraction and the high-level QTensor simulator facade.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "qtensor/backend.hpp"
#include "qtensor/network.hpp"
#include "qtensor/ordering.hpp"
#include "qtensor/planner.hpp"
#include "qtensor/program.hpp"

namespace qarch::qtensor {

/// Outcome of a full network contraction.
struct ContractionResult {
  cplx value{0.0, 0.0};   ///< scalar value of the closed network
  std::size_t width = 0;  ///< max intermediate tensor rank encountered
};

/// Contracts a closed network by eliminating variables in `order`
/// (must cover every variable of the network). Backend provides the
/// bucket-product kernel.
ContractionResult contract(const TensorNetwork& network,
                           const std::vector<VarId>& order,
                           const Backend& backend);

/// Configuration for the QTensor simulator facade AND the qtensor energy
/// engine selected through qaoa::EnergyOptions (engine=TensorNetwork).
struct QTensorOptions {
  NetworkOptions network;          ///< diagonal/lightcone opts
  std::string backend = "serial";  ///< make_backend spec
  PlannerOptions planner;          ///< heuristics competing at program compile
  /// Compile-time slicing decision: slice when the planned width exceeds
  /// this (0 disables; see ProgramOptions).
  std::size_t slice_above_width = 30;
  std::size_t max_slice_vars = 4;
  /// Shared store of planned orders, consulted before every program compile
  /// and fed by every live plan. Injected by search::EvalService (which
  /// also persists it when SessionConfig::plan_cache_path is set); null
  /// disables plan reuse across programs.
  std::shared_ptr<PlanCache> plan_cache;

  /// The ProgramOptions every compiled program (energy plans and queries)
  /// derives from these fields — the ONE reconciliation point, so new
  /// program knobs cannot silently diverge between callers.
  [[nodiscard]] ProgramOptions program_options() const {
    ProgramOptions po;
    po.network = network;
    po.planner = planner;
    po.slice_above_width = slice_above_width;
    po.max_slice_vars = max_slice_vars;
    po.plan_cache = plan_cache;
    return po;
  }
};

/// Uncompiled reference simulator: every call builds the network and
/// contracts it along a greedy-degree order. Tests and the replan-per-call
/// leg of abl_plan_reuse compare the compiled programs against it.
///
/// Thread-safe for concurrent calls (each call builds its own network and
/// contraction state; the backend is stateless).
class QTensorSimulator {
 public:
  explicit QTensorSimulator(QTensorOptions options = {});

  /// <+|^n U† Z_u Z_v U |+>^n. Real part returned (imaginary part is
  /// numerically ~0 for a Hermitian observable and is asserted small).
  [[nodiscard]] double expectation_zz(const circuit::Circuit& circuit,
                                      std::span<const double> theta,
                                      std::size_t u, std::size_t v) const;

 private:
  QTensorOptions options_;
  std::shared_ptr<const Backend> backend_;
};

}  // namespace qarch::qtensor
