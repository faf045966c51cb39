#pragma once

#include "costmodel/cost_cache.h"
#include "costmodel/cost_model.h"
#include "rl/environment.h"

namespace lpa::rl {

/// \brief Offline-training environment (Sec 4.1): rewards come from the
/// network-centric cost model `cm(P, q)`; no database is touched.
///
/// Query costs are memoized in a sharded LRU CostCache keyed by the 64-bit
/// fingerprint of (query index, physical design restricted to the query's
/// tables) — the same key structure as the online Query Runtime Cache,
/// exploiting that a query's cost only depends on the states of the tables
/// it references. Fingerprints come from the state's incrementally
/// maintained per-table design hashes, so a probe costs O(|query tables|)
/// hash combines and no string construction.
///
/// This cache is the only memo that prices offline states. The cost model
/// is stateless, so QueryCost is pure and thread-safe, and WorkloadCost
/// probes the cache for every weighted query on the calling thread, then
/// plans only the misses — across the context's thread pool when there are
/// at least two.
class OfflineEnv : public PartitioningEnv {
 public:
  OfflineEnv(const costmodel::CostModel* model,
             const workload::Workload* workload);

  const workload::Workload& workload() const override { return *workload_; }

  double QueryCost(int query_index, const partition::PartitioningState& state,
                   double frequency) override;

  /// \brief Probe the cache for every query with f > 0, plan the misses
  /// (fanned out over `ctx`'s pool when it has one and at least two queries
  /// missed; each plan lands in its own slot and is inserted into the
  /// cache), then reduce in query order. Bit-identical to the serial
  /// QueryCost loop at every thread count.
  double WorkloadCost(const partition::PartitioningState& state,
                      const std::vector<double>& frequencies,
                      EvalContext* ctx = nullptr) override;

  bool PureQueryCost() const override { return true; }

  /// \brief Extend the per-query table lists after the workload gained
  /// queries (incremental training). NOT thread-safe; call between
  /// evaluations, never concurrently with them.
  void SyncWorkload();

  size_t cache_size() const { return cache_.size(); }
  size_t cache_hits() const { return cache_.stats().hits; }
  /// \brief Cost-model cache probes (hits + misses): one per QueryCost
  /// call and one per weighted query of a WorkloadCost call.
  size_t evaluations() const {
    auto s = cache_.stats();
    return s.hits + s.misses;
  }

 private:
  /// Cache key of query `query_index` under `state`: the query index
  /// combined with the fingerprint of the design of the query's tables.
  uint64_t CacheKey(int query_index,
                    const partition::PartitioningState& state) const;

  const costmodel::CostModel* model_;
  const workload::Workload* workload_;
  /// Tables referenced per query (cache-key scope), built eagerly in the
  /// constructor and extended only by SyncWorkload(), so concurrent
  /// QueryCost calls only ever read.
  std::vector<std::vector<schema::TableId>> query_tables_;
  costmodel::CostCache cache_;
};

}  // namespace lpa::rl
