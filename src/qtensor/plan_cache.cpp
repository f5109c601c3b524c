#include "qtensor/plan_cache.hpp"

#include <algorithm>

namespace qarch::qtensor {

std::string PlanCache::map_key(const std::string& shape_key,
                               std::uint64_t structure_hash) {
  return shape_key + '\x1f' + std::to_string(structure_hash);
}

std::optional<CachedPlan> PlanCache::find(const std::string& shape_key,
                                          std::uint64_t structure_hash) const {
  LockGuard lock(mutex_);
  const auto it = plans_.find(map_key(shape_key, structure_hash));
  if (it == plans_.end()) return std::nullopt;
  return it->second;
}

void PlanCache::insert(CachedPlan plan) {
  std::string key = map_key(plan.shape_key, plan.structure_hash);
  LockGuard lock(mutex_);
  plans_[key] = std::move(plan);
  unsaved_.push_back(std::move(key));
}

std::vector<CachedPlan> PlanCache::take_unsaved() {
  std::vector<CachedPlan> out;
  LockGuard lock(mutex_);
  std::sort(unsaved_.begin(), unsaved_.end());
  unsaved_.erase(std::unique(unsaved_.begin(), unsaved_.end()), unsaved_.end());
  out.reserve(unsaved_.size());
  for (const std::string& key : unsaved_) out.push_back(plans_.at(key));
  unsaved_.clear();
  return out;
}

void PlanCache::merge(std::vector<CachedPlan> plans) {
  LockGuard lock(mutex_);
  for (CachedPlan& p : plans) {
    const std::string key = map_key(p.shape_key, p.structure_hash);
    plans_.emplace(key, std::move(p));  // keep the in-memory entry on clash
  }
}

std::vector<CachedPlan> PlanCache::snapshot() const {
  std::vector<CachedPlan> out;
  {
    LockGuard lock(mutex_);
    out.reserve(plans_.size());
    for (const auto& [key, plan] : plans_) out.push_back(plan);
  }
  std::sort(out.begin(), out.end(),
            [](const CachedPlan& a, const CachedPlan& b) {
              if (a.shape_key != b.shape_key) return a.shape_key < b.shape_key;
              return a.structure_hash < b.structure_hash;
            });
  return out;
}

std::size_t PlanCache::size() const {
  LockGuard lock(mutex_);
  return plans_.size();
}

}  // namespace qarch::qtensor
