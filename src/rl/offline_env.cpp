#include "rl/offline_env.h"

#include "costmodel/weighted_cost.h"
#include "telemetry/registry.h"
#include "util/hash.h"

namespace lpa::rl {

namespace {

/// Cost-model evaluation volume: one tick per cache probe (a QueryCost call
/// or a weighted query of WorkloadCost, hit or not). The hit/miss/eviction
/// breakdown lives in the CostCache's own `costmodel.cost_cache_*.count`
/// counters — this is deliberately the only counter the env adds on top.
struct OfflineEnvMetrics {
  telemetry::Counter& evals;

  static OfflineEnvMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static OfflineEnvMetrics* m = new OfflineEnvMetrics{
        reg.GetCounter("costmodel.cache_evals.count")};
    return *m;
  }
};

}  // namespace

double PartitioningEnv::WorkloadCost(const partition::PartitioningState& state,
                                     const std::vector<double>& frequencies,
                                     EvalContext* /*ctx*/) {
  return costmodel::WeightedCost(
      workload().num_queries(), frequencies,
      [&](int j, double f) { return QueryCost(j, state, f); });
}

OfflineEnv::OfflineEnv(const costmodel::CostModel* model,
                       const workload::Workload* workload)
    : model_(model), workload_(workload) {
  SyncWorkload();
}

void OfflineEnv::SyncWorkload() {
  while (static_cast<int>(query_tables_.size()) < workload_->num_queries()) {
    query_tables_.push_back(
        workload_->query(static_cast<int>(query_tables_.size())).tables());
  }
}

uint64_t OfflineEnv::CacheKey(int query_index,
                              const partition::PartitioningState& state) const {
  const auto& tables = query_tables_[static_cast<size_t>(query_index)];
  return HashCombine(Hash64(static_cast<uint64_t>(query_index)),
                     state.DesignFingerprint(tables));
}

double OfflineEnv::QueryCost(int query_index,
                             const partition::PartitioningState& state,
                             double /*frequency*/) {
  OfflineEnvMetrics::Get().evals.Add();
  return cache_.GetOrCompute(CacheKey(query_index, state), [&] {
    return model_->QueryCost(workload_->query(query_index), state);
  });
}

double OfflineEnv::WorkloadCost(const partition::PartitioningState& state,
                                const std::vector<double>& frequencies,
                                EvalContext* ctx) {
  const int num_queries = workload_->num_queries();
  // Probe every weighted query on this thread; hits land in their slots.
  std::vector<double> costs(static_cast<size_t>(num_queries), 0.0);
  std::vector<int> misses;
  std::vector<uint64_t> miss_keys;
  uint64_t probes = 0;
  for (int j = 0; j < num_queries; ++j) {
    if (costmodel::FrequencyAt(frequencies, j) <= 0.0) continue;
    ++probes;
    uint64_t key = CacheKey(j, state);
    if (auto hit = cache_.Lookup(key)) {
      costs[static_cast<size_t>(j)] = *hit;
    } else {
      misses.push_back(j);
      miss_keys.push_back(key);
    }
  }
  OfflineEnvMetrics::Get().evals.Add(probes);

  // Plan the misses. Each plan is a pure function of (query, state) written
  // to its own slot, so the fan-out is scheduling-independent; the cache
  // tolerates concurrent inserts.
  auto plan = [&](size_t i) {
    int j = misses[i];
    double cost = model_->QueryCost(workload_->query(j), state);
    costs[static_cast<size_t>(j)] = cost;
    cache_.Insert(miss_keys[i], cost);
  };
  if (ctx != nullptr && ctx->pool() != nullptr && misses.size() > 1) {
    ctx->pool()->ParallelForEach(misses.size(), 1, plan);
  } else {
    for (size_t i = 0; i < misses.size(); ++i) plan(i);
  }
  return costmodel::WeightedCost(costs, frequencies);
}

}  // namespace lpa::rl
