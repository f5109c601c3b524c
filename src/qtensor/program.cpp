#include "qtensor/program.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/error.hpp"
#include "qtensor/shape.hpp"
#include "qtensor/slicing.hpp"

namespace qarch::qtensor {

namespace {

/// A cached order is applicable iff it repeats nothing, touches no open
/// variable, and covers every closed variable of the network. The
/// structure-hash guard should guarantee this; validating anyway turns hash
/// collisions and corrupt cache entries into a silent replan instead of a
/// failed compile.
bool order_applicable(const TensorNetwork& net, const std::set<VarId>& open,
                      const std::vector<VarId>& order) {
  std::set<VarId> seen(order.begin(), order.end());
  if (seen.size() != order.size()) return false;
  for (VarId v : order)
    if (open.count(v) > 0) return false;
  for (VarId v : net.variables())
    if (open.count(v) == 0 && seen.count(v) == 0) return false;
  return true;
}

/// The planner orders every variable; open labels are output axes, not
/// eliminations, so they are dropped from the schedule's order.
std::vector<VarId> closed_order(const std::vector<VarId>& order,
                                const std::set<VarId>& open) {
  std::vector<VarId> out;
  out.reserve(order.size());
  for (VarId v : order)
    if (open.count(v) == 0) out.push_back(v);
  return out;
}

/// The <Z_u Z_v> (two targets) or <Z_q> (one target) network of `circuit`,
/// with its gate bindings and no caps or open labels. Any probe theta
/// produces the same structure; zeros keep the baked data deterministic.
QueryNetwork expectation_network(const circuit::Circuit& circuit,
                                 const std::vector<std::size_t>& targets,
                                 const NetworkOptions& options) {
  const std::vector<double> probe(circuit.num_params(), 0.0);
  QueryNetwork qn;
  qn.net = targets.size() == 2
               ? expectation_zz_network(circuit, probe, targets[0],
                                        targets[1], options, &qn.bindings)
               : expectation_z_network(circuit, probe, targets[0], options,
                                       &qn.bindings);
  return qn;
}

/// `options` with the plan-cache key of an expectation program filled in:
/// the canonical lightcone shape for <Z_u Z_v>, "z:<q>" for <Z_q>. Only
/// computed when a plan cache will be consulted.
ProgramOptions keyed(ProgramOptions options, const circuit::Circuit& circuit,
                     const std::vector<std::size_t>& targets) {
  if (options.plan_cache != nullptr && options.shape_key.empty())
    options.shape_key =
        targets.size() == 2
            ? lightcone_shape(circuit, targets[0], targets[1]).key
            : "z:" + std::to_string(targets[0]);
  return options;
}

}  // namespace

struct ContractionProgram::Scratch {
  bool ready = false;
  std::vector<Tensor> slots;     ///< inputs_ copies + step intermediates
  std::vector<Tensor> full;      ///< unprojected slice-carrying inputs,
                                 ///< parallel to sliced_inputs_
  std::vector<cplx> partial;     ///< one slice's output (sliced programs)
  std::vector<const Tensor*> factors;  ///< reusable factor-pointer list
};

/// RAII pool lease: scratch workspaces persist across replays (buffer reuse
/// is the point of compiling) and across threads (the pool grows to the
/// peak replay concurrency, then stabilizes).
struct ContractionProgram::ScratchLease {
  const ContractionProgram* program;
  std::unique_ptr<Scratch> scratch;

  ScratchLease(const ContractionProgram* p, std::unique_ptr<Scratch> s)
      : program(p), scratch(std::move(s)) {}
  ScratchLease(ScratchLease&&) = default;
  ScratchLease(const ScratchLease&) = delete;
  ~ScratchLease() {
    if (scratch == nullptr) return;
    LockGuard lock(program->pool_mutex_);
    program->pool_.push_back(std::move(scratch));
  }
};

ContractionProgram::ContractionProgram(QueryNetwork network,
                                       std::vector<VarId> final_labels,
                                       std::size_t num_params,
                                       const ProgramOptions& options)
    : options_(options),
      num_params_(num_params),
      bindings_(std::move(network.bindings)),
      caps_(std::move(network.caps)) {
  {
    std::set<VarId> want(network.open_labels.begin(),
                         network.open_labels.end());
    std::set<VarId> got(final_labels.begin(), final_labels.end());
    QARCH_REQUIRE(want == got && final_labels.size() ==
                                     network.open_labels.size(),
                  "final_labels must permute the network's open labels");
  }
  QARCH_REQUIRE(final_labels.size() <= kMaxWidth,
                "contraction has more open labels than the width ceiling "
                "(too many open qubits or marginal targets)");
  final_labels_ = std::move(final_labels);
  compile(std::move(network.net));
}

ContractionProgram::ContractionProgram(const circuit::Circuit& circuit,
                                       std::size_t u, std::size_t v,
                                       const ProgramOptions& options)
    : ContractionProgram(expectation_network(circuit, {u, v},
                                             options.network),
                         {}, circuit.num_params(),
                         keyed(options, circuit, {u, v})) {}

ContractionProgram::ContractionProgram(const circuit::Circuit& circuit,
                                       std::size_t q,
                                       const ProgramOptions& options)
    : ContractionProgram(expectation_network(circuit, {q}, options.network),
                         {}, circuit.num_params(),
                         keyed(options, circuit, {q})) {}

ContractionProgram::~ContractionProgram() = default;

void ContractionProgram::compile(TensorNetwork net) {
  const std::set<VarId> open(final_labels_.begin(), final_labels_.end());

  // Contraction order: a plan-cache hit (keyed by shape key + exact
  // structure hash) replays a previously chosen order with zero planner
  // work; otherwise the planner competes the ordering heuristics under the
  // exact bucket-elimination cost model, keeps the cheapest, and records
  // its closed order for every later program of the same shape.
  std::vector<VarId> order;
  std::string heuristic;
  bool plan_cached = false;
  std::uint64_t structure = 0;
  if (options_.plan_cache != nullptr) {
    structure = network_structure_hash(net);
    if (auto hit = options_.plan_cache->find(options_.shape_key, structure);
        hit.has_value() && order_applicable(net, open, hit->order)) {
      order = std::move(hit->order);
      heuristic = hit->heuristic + "+cached";
      plan_cached = true;
    }
  }
  if (!plan_cached) {
    ContractionPlan plan = plan_contraction(net, options_.planner);
    heuristic = std::move(plan.heuristic);
    order = closed_order(plan.order, open);
    if (options_.plan_cache != nullptr)
      options_.plan_cache->insert(
          {options_.shape_key, structure, order, heuristic});
  }
  stats_.plan_cached = plan_cached;
  stats_.shape_key = options_.shape_key;

  // Score the actual schedule: open labels survive to the end, so the
  // output rank is part of the width.
  PlanCost cost = CostModel(net).cost(order);
  std::size_t width = std::max(cost.width, open.size());

  // Slicing decision (step-dependent parallelization): if the planned width
  // blows the budget, fix greedy max-degree closed variables one at a time
  // and re-plan the projected structure until it fits. The projected copy
  // is only materialized when slicing actually triggers; the common path
  // schedules against `net` directly.
  TensorNetwork projected;
  const TensorNetwork* scheduled = &net;
  if (options_.slice_above_width > 0 && width > options_.slice_above_width) {
    const std::vector<VarId> keep(open.begin(), open.end());
    for (std::size_t s = 1; s <= options_.max_slice_vars; ++s) {
      std::vector<VarId> vars = choose_slice_vars(net, s, keep);
      if (vars.empty()) break;  // every variable is open
      slice_vars_ = std::move(vars);
      // Projection is structural: every assignment removes the same labels,
      // so assignment 0 stands in for all 2^s of them.
      projected = project_network(net, slice_vars_, 0);
      scheduled = &projected;
      ContractionPlan plan = plan_contraction(projected, options_.planner);
      heuristic = std::move(plan.heuristic);
      order = closed_order(plan.order, open);
      cost = CostModel(projected).cost(order);
      width = std::max(cost.width, open.size());
      if (width <= options_.slice_above_width) break;
    }
  }
  QARCH_REQUIRE(width <= kMaxWidth,
                "contraction width exceeds the ceiling of 30 even after "
                "slicing (too many open qubits or too wide a lightcone)");

  for (std::size_t i = 0; i < net.tensors.size(); ++i) {
    const auto& labels = net.tensors[i].labels();
    const bool carries = std::any_of(
        slice_vars_.begin(), slice_vars_.end(), [&](VarId sv) {
          return std::find(labels.begin(), labels.end(), sv) != labels.end();
        });
    if (carries) sliced_inputs_.push_back(i);
  }

  // Flatten bucket elimination over the scheduled structure into a static
  // step list. Mirrors contract(): per eliminated variable, the bucket is
  // every live slot carrying it; the product spans the union label set with
  // the variable first, so the post-product sum is a halves fold.
  struct Live {
    std::size_t slot;
    std::vector<VarId> labels;
  };
  std::vector<Live> live;
  live.reserve(scheduled->tensors.size());
  QARCH_CHECK(scheduled->tensors.size() == net.tensors.size(),
              "projection changed the tensor count");
  for (std::size_t i = 0; i < scheduled->tensors.size(); ++i)
    live.push_back({i, scheduled->tensors[i].labels()});
  num_slots_ = net.tensors.size();

  {
    // The order must cover exactly the closed variables of the scheduled
    // structure.
    std::set<VarId> in_order(order.begin(), order.end());
    QARCH_CHECK(in_order.size() == order.size(),
                "compiled order repeats a variable");
    for (VarId var : scheduled->variables())
      QARCH_CHECK(open.count(var) > 0 || in_order.count(var) > 0,
                  "compiled order misses a network variable");
  }

  for (VarId var : order) {
    std::vector<Live> rest;
    rest.reserve(live.size());
    Step step;
    std::set<VarId> union_set;
    for (Live& l : live) {
      if (std::find(l.labels.begin(), l.labels.end(), var) != l.labels.end()) {
        step.factors.push_back(l.slot);
        union_set.insert(l.labels.begin(), l.labels.end());
      } else {
        rest.push_back(std::move(l));
      }
    }
    if (step.factors.empty()) {
      live = std::move(rest);
      continue;
    }
    step.out_labels.reserve(union_set.size());
    step.out_labels.push_back(var);
    for (VarId w : union_set)
      if (w != var) step.out_labels.push_back(w);
    step.entries = std::size_t{1} << step.out_labels.size();
    step.out_slot = num_slots_++;
    stats_.width = std::max(stats_.width, step.out_labels.size());

    Live produced;
    produced.slot = step.out_slot;
    produced.labels.assign(step.out_labels.begin() + 1,
                           step.out_labels.end());
    rest.push_back(std::move(produced));
    steps_.push_back(std::move(step));
    live = std::move(rest);
  }

  // Everything still alive is a factor of the final output: scalars for a
  // closed program, tensors over open labels otherwise.
  std::set<VarId> covered;
  for (const Live& l : live) {
    for (VarId v : l.labels) {
      QARCH_CHECK(open.count(v) > 0,
                  "compiled schedule left a closed variable uneliminated");
      covered.insert(v);
    }
    final_slots_.push_back(l.slot);
  }
  QARCH_CHECK(!final_slots_.empty(),
              "compiled schedule consumed every tensor");
  QARCH_CHECK(covered.size() == open.size(),
              "an open label vanished from the network");
  stats_.width = std::max(stats_.width, final_labels_.size());

  // Inputs keep the UNPROJECTED tensors: rebinding happens against the full
  // gate tensors, projection (if any) happens per replay assignment.
  inputs_ = std::move(net.tensors);

  stats_.tensors = inputs_.size();
  stats_.bound_tensors = bindings_.size();
  stats_.cap_tensors = caps_.size();
  stats_.open_labels = final_labels_.size();
  stats_.steps = steps_.size();
  stats_.est_flops = cost.flops;
  stats_.slice_vars = slice_vars_.size();
  stats_.heuristic = std::move(heuristic);
  // Intermediate slot entries only: the fused product_sum_into kernel never
  // materializes a full bucket product.
  stats_.scratch_entries = 0;
  for (const Step& s : steps_) stats_.scratch_entries += s.entries / 2;
}

void ContractionProgram::init_scratch(Scratch& s) const {
  s.slots.clear();
  s.slots.reserve(num_slots_);
  s.full.clear();
  for (std::size_t i = 0; i < inputs_.size(); ++i) s.slots.push_back(inputs_[i]);
  for (std::size_t i : sliced_inputs_) {
    s.full.push_back(inputs_[i]);
    // Shape the slot to the projected layout (values filled per assignment).
    Tensor projected = inputs_[i];
    for (VarId sv : slice_vars_)
      projected = project(projected, sv, 0);
    s.slots[i] = std::move(projected);
  }
  for (const Step& st : steps_) {
    std::vector<VarId> labels(st.out_labels.begin() + 1, st.out_labels.end());
    s.slots.emplace_back(std::move(labels),
                         std::vector<cplx>(st.entries / 2));
  }
  if (!slice_vars_.empty()) s.partial.assign(output_entries(), cplx{});
  s.ready = true;
}

Tensor& ContractionProgram::rebind_target(Scratch& s,
                                          std::size_t tensor_index) const {
  // Slice-carrying tensors are rebound in their FULL form; the projection
  // into the slot happens per assignment inside run().
  const auto it = std::find(sliced_inputs_.begin(), sliced_inputs_.end(),
                            tensor_index);
  return it == sliced_inputs_.end()
             ? s.slots[tensor_index]
             : s.full[static_cast<std::size_t>(it - sliced_inputs_.begin())];
}

void ContractionProgram::project_slice(const Tensor& full,
                                       std::size_t assignment,
                                       cplx* out) const {
  // Label k of a rank-r tensor is index bit r-1-k. The entries whose slice
  // bits equal the assignment, in index order, are exactly what projecting
  // out each slice variable in turn (slicing.hpp's project) leaves.
  const std::vector<VarId>& labels = full.labels();
  std::size_t mask = 0, want = 0;
  for (std::size_t k = 0; k < slice_vars_.size(); ++k) {
    const auto it = std::find(labels.begin(), labels.end(), slice_vars_[k]);
    if (it == labels.end()) continue;
    const std::size_t bit = std::size_t{1}
                            << (labels.size() - 1 -
                                static_cast<std::size_t>(it - labels.begin()));
    mask |= bit;
    if ((assignment >> k) & 1) want |= bit;
  }
  const std::vector<cplx>& data = full.data();
  for (std::size_t i = 0; i < data.size(); ++i)
    if ((i & mask) == want) *out++ = data[i];
}

void ContractionProgram::run_schedule(Scratch& s, const Backend& backend,
                                      cplx* out) const {
  for (const Step& st : steps_) {
    s.factors.clear();
    for (std::size_t f : st.factors) s.factors.push_back(&s.slots[f]);
    // Fused bucket step: the product over out_labels summed over the
    // eliminated (first) variable, written straight into the output slot —
    // the full product tensor is never materialized.
    backend.product_sum_into(s.factors, st.out_labels,
                             s.slots[st.out_slot].data().data());
  }
  if (final_labels_.empty()) {
    cplx value{1.0, 0.0};
    for (std::size_t slot : final_slots_)
      value *= s.slots[slot].scalar_value();
    *out = value;
    return;
  }
  // The surviving slots' labels are all open, so one broadcast product lays
  // the result out along final_labels_ (rank-0 survivors broadcast as
  // scalars).
  s.factors.clear();
  for (std::size_t slot : final_slots_) s.factors.push_back(&s.slots[slot]);
  backend.product_into(s.factors, final_labels_, out);
}

ContractionProgram::ScratchLease ContractionProgram::lease() const {
  {
    LockGuard lock(pool_mutex_);
    if (!pool_.empty()) {
      std::unique_ptr<Scratch> s = std::move(pool_.back());
      pool_.pop_back();
      return {this, std::move(s)};
    }
  }
  return {this, std::make_unique<Scratch>()};
}

void ContractionProgram::run(std::span<const double> theta,
                             std::span<const int> cap_bits,
                             const Backend& backend,
                             std::span<cplx> out) const {
  QARCH_REQUIRE(theta.size() >= num_params_,
                "parameter vector too short for compiled program");
  QARCH_REQUIRE(cap_bits.size() == caps_.size(),
                "cap_bits size must match the program's cap count");
  QARCH_REQUIRE(out.size() == output_entries(),
                "output buffer size must be 2^open_labels");
  ScratchLease l = lease();
  Scratch& s = *l.scratch;
  if (!s.ready) init_scratch(s);
  for (const GateBinding& b : bindings_)
    gate_tensor_data(b.gate, theta, b.diagonal,
                     rebind_target(s, b.tensor_index).data());
  for (std::size_t i = 0; i < caps_.size(); ++i)
    cap_tensor_data(cap_bits[i],
                    rebind_target(s, caps_[i].tensor_index).data());
  if (slice_vars_.empty()) {
    run_schedule(s, backend, out.data());
    return;
  }

  // Sliced: the 2^s projected sub-contractions add up to the result. Each
  // slice-carrying input is projected straight into its slot, which
  // init_scratch shaped to the projected layout, so a sliced replay
  // allocates nothing once its lease is initialized.
  const std::size_t num_slices = std::size_t{1} << slice_vars_.size();
  for (std::size_t assignment = 0; assignment < num_slices; ++assignment) {
    for (std::size_t j = 0; j < sliced_inputs_.size(); ++j)
      project_slice(s.full[j], assignment,
                    s.slots[sliced_inputs_[j]].data().data());
    if (assignment == 0) {
      run_schedule(s, backend, out.data());
      continue;
    }
    run_schedule(s, backend, s.partial.data());
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += s.partial[i];
  }
}

double ContractionProgram::expectation_zz(std::span<const double> theta,
                                          const Backend& backend) const {
  cplx value;
  run(theta, {}, backend, std::span<cplx>(&value, 1));
  QARCH_CHECK(std::abs(value.imag()) < 1e-8,
              "Hermitian expectation has a large imaginary part");
  return value.real();
}

}  // namespace qarch::qtensor
