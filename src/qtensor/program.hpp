// Compiled contraction programs — the qtensor analogue of sim::SimProgram.
//
// A ContractionProgram compiles one tensor network ONCE and replays it for
// any theta. The network comes with its rebind points — gate tensors that
// depend on theta (GateBinding) and basis caps/projectors that depend on a
// per-replay bit (CapBinding) — and a set of OPEN labels that stay
// uneliminated. A closed <Z_u Z_v> / <Z_q> expectation is simply a program
// with no caps and zero open labels (the circuit constructors below); the
// query layers in src/query build amplitudes, reduced density matrices and
// sampling marginals as programs with caps and open labels.
//
//   * the tensor network is built a single time (topology, simplified
//     lightcone, diagonal rank reduction) and its tensors baked, except the
//     rebind points;
//   * the contraction order comes from the planner (planner.cpp competing
//     the ordering.cpp heuristics under the exact FLOP cost model) or from
//     the shared plan cache; open labels are filtered out of the order;
//   * the slicing decision is taken at compile time: if the planned width
//     exceeds the budget, slice variables (never open labels) are chosen and
//     the schedule is compiled against the projected structure. A schedule
//     still wider than kMaxWidth after slicing is rejected at compile time;
//   * bucket elimination is flattened into a static schedule of product+sum
//     steps over preallocated scratch buffers; the surviving open-label
//     slots are combined by one Backend::product_into into the caller's
//     2^k output buffer (closed programs multiply their scalars instead).
//
// A new theta then costs only a per-symbol-gate rebind (a few trig calls),
// a per-cap 2-entry rewrite, plus the replay — no network rebuild, no
// ordering, no per-step set algebra, no intermediate allocations. Replays
// are const and thread-safe: concurrent callers lease per-thread scratch
// workspaces from an internal pool, so one program can be shared across
// search workers and per-edge parallel_for lanes. qaoa::EnergyEvaluator
// keys programs into its plan_for fingerprint cache, giving
// `backend=qtensor` the same one-compile-per-candidate contract the
// statevector engine has (probe: network_build_count()).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/annotations.hpp"
#include "qtensor/backend.hpp"
#include "qtensor/network.hpp"
#include "qtensor/plan_cache.hpp"
#include "qtensor/planner.hpp"

namespace qarch::qtensor {

/// Compile-time configuration of a ContractionProgram.
struct ProgramOptions {
  NetworkOptions network;   ///< lightcone / diagonal rank-reduction toggles
  PlannerOptions planner;   ///< which ordering heuristics compete
  /// Slicing decision: when the planned contraction width exceeds this,
  /// slice variables are chosen (greedy max-degree, re-planning after each)
  /// until the projected width fits or max_slice_vars is reached. The
  /// threshold is a width (intermediate-tensor rank): 30 ≈ 16 GiB, far above
  /// any QAOA lightcone this repo contracts, so slicing is effectively a
  /// safety valve by default. 0 disables slicing entirely.
  std::size_t slice_above_width = 30;
  std::size_t max_slice_vars = 4;  ///< at most 2^this sub-contractions
  /// When set, compile() consults this shared store before invoking the
  /// planner (keyed by shape_key + network structure hash) and records the
  /// winning order after a live plan. Cached orders skip planning entirely
  /// — the warm-run path of the persistent plan cache.
  std::shared_ptr<PlanCache> plan_cache;
  /// Plan-cache key of the network. The circuit constructors compute the
  /// canonical lightcone shape (or "z:<q>") on demand when it is empty and a
  /// plan_cache is attached (energy.cpp's dedup pass passes it in); the
  /// query layers key their networks "q:amp…", "q:rdm…" and "q:chain…".
  std::string shape_key;
};

/// Compile-time facts about one program (reported by benches/tests).
struct ProgramStats {
  std::size_t tensors = 0;        ///< network tensors (inputs)
  std::size_t bound_tensors = 0;  ///< tensors rebound per theta
  std::size_t cap_tensors = 0;    ///< bit-rebindable caps / projectors
  std::size_t open_labels = 0;    ///< open output variables (output rank)
  std::size_t steps = 0;          ///< bucket-elimination steps
  std::size_t width = 0;          ///< max intermediate rank (incl. output)
  double est_flops = 0.0;         ///< planner cost model, per slice
  std::size_t slice_vars = 0;     ///< 0 = unsliced
  std::size_t scratch_entries = 0;  ///< preallocated cplx entries per lease
  std::string heuristic;          ///< winning ordering heuristic
  bool plan_cached = false;       ///< order came from the plan cache
  std::string shape_key;          ///< plan-cache key (if any)
};

/// One network compiled against fixed circuit structure, replayable for any
/// theta and cap assignment.
class ContractionProgram {
 public:
  /// Hard ceiling on the planned width after slicing (2^30 complex entries
  /// = 16 GiB per intermediate). Wider programs fail at compile time.
  static constexpr std::size_t kMaxWidth = 30;

  /// Compiles `network`, eliminating every variable except its open labels.
  /// `final_labels` must be a permutation of network.open_labels and fixes
  /// the output layout (first label outermost); `num_params` is the length
  /// of the theta vectors the gate bindings read.
  ContractionProgram(QueryNetwork network, std::vector<VarId> final_labels,
                     std::size_t num_params, const ProgramOptions& options);

  /// Closed <Z_u Z_v> expectation of `circuit`.
  ContractionProgram(const circuit::Circuit& circuit, std::size_t u,
                     std::size_t v, const ProgramOptions& options = {});

  /// Single-qubit form: compiles <Z_q> instead of <Z_u Z_v> (Hamiltonians
  /// with field terms). Plan-cache keyed under "z:<q>" + structure hash.
  ContractionProgram(const circuit::Circuit& circuit, std::size_t q,
                     const ProgramOptions& options = {});
  ~ContractionProgram();

  // Non-copyable and non-movable (the scratch pool is address-stable);
  // containers hold programs through unique_ptr.
  ContractionProgram(const ContractionProgram&) = delete;
  ContractionProgram& operator=(const ContractionProgram&) = delete;

  /// Rebinds gates to `theta` and caps to `cap_bits` (one 0/1 per cap, in
  /// the network's cap order), replays the compiled schedule, and writes
  /// the 2^k output tensor over the final labels into `out`
  /// (out.size() == output_entries()). Thread-safe; `backend` provides the
  /// bucket kernels.
  void run(std::span<const double> theta, std::span<const int> cap_bits,
           const Backend& backend, std::span<cplx> out) const;

  /// run() for a program without caps or open labels, with the
  /// Hermitian-expectation check applied: the imaginary part is asserted ~0
  /// and the real part returned.
  [[nodiscard]] double expectation_zz(std::span<const double> theta,
                                      const Backend& backend) const;

  [[nodiscard]] std::size_t output_entries() const {
    return std::size_t{1} << final_labels_.size();
  }
  [[nodiscard]] const ProgramStats& stats() const { return stats_; }

 private:
  /// One flattened bucket-elimination step: Backend::product_sum_into
  /// multiplies `factors` over `out_labels` (eliminated variable first) and
  /// folds out that variable as it produces, writing the 2^(rank-1)-entry
  /// result straight into slot `out_slot` — the full product is never
  /// materialized.
  struct Step {
    std::vector<std::size_t> factors;   ///< input slot ids
    std::vector<VarId> out_labels;      ///< union labels, eliminated var first
    std::size_t out_slot = 0;
    std::size_t entries = 0;            ///< 2^|out_labels|
  };

  /// Per-replay workspace: slot tensors (inputs + intermediates) and
  /// unprojected copies of slice-carrying inputs.
  struct Scratch;
  struct ScratchLease;

  void compile(TensorNetwork net);
  void init_scratch(Scratch& s) const;
  [[nodiscard]] Tensor& rebind_target(Scratch& s,
                                      std::size_t tensor_index) const;
  void run_schedule(Scratch& s, const Backend& backend, cplx* out) const;
  /// Writes `full` with every slice variable fixed by `assignment` (bit k =
  /// slice_vars_[k]) into `out`, in the projected layout.
  void project_slice(const Tensor& full, std::size_t assignment,
                     cplx* out) const;
  [[nodiscard]] ScratchLease lease() const;

  ProgramOptions options_;
  std::size_t num_params_ = 0;
  std::vector<Tensor> inputs_;          ///< baked network tensors (unprojected)
  std::vector<GateBinding> bindings_;   ///< theta-dependent inputs
  std::vector<CapBinding> caps_;        ///< bit-dependent inputs
  std::vector<VarId> final_labels_;     ///< output label order
  std::vector<VarId> slice_vars_;
  std::vector<std::size_t> sliced_inputs_;  ///< inputs carrying a slice var
  std::vector<Step> steps_;
  std::vector<std::size_t> final_slots_;    ///< live slots at the end
  std::size_t num_slots_ = 0;
  ProgramStats stats_;

  mutable Mutex pool_mutex_{60, "cache.scratch"};
  mutable std::vector<std::unique_ptr<Scratch>> pool_
      QARCH_GUARDED_BY(pool_mutex_);
};

}  // namespace qarch::qtensor
