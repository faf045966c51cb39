#pragma once

#include <functional>
#include <vector>

#include "partition/partition_state.h"
#include "schema/schema.h"
#include "workload/workload.h"

namespace lpa::search {

/// \brief Prices one query under a state. Must be a pure,
/// frequency-independent function of (query index, designs of the query's
/// tables) — e.g. `OfflineEnv::QueryCost`, which goes through the env's
/// cost cache.
using QueryCostFn = std::function<double(
    int query_index, const partition::PartitioningState& state)>;

/// \brief All physical-design options of one table: hash partitioning by
/// each partitionable column, plus replication. The enumeration order is
/// stable (column order, replication last) — DP node expansion, exhaustive
/// verification, and bound enumeration all share it.
std::vector<partition::TablePartition> TableDesignOptions(
    const schema::Schema& schema, schema::TableId t);

/// \brief Per-query admissible lower bounds: `lb[j]` lower-bounds query j's
/// cost under EVERY physical design.
///
/// Exploits the cost model's locality contract — a query's cost depends only
/// on the designs of the tables it references — by enumerating all design
/// combinations of exactly those tables and taking the true minimum. The
/// enumeration for a query is capped at `max_enum` combinations; beyond the
/// cap the bound falls back to 0, which is trivially admissible (costs are
/// non-negative), just less informative.
///
/// `query_cost` must honour the `QueryCostFn` contract.
std::vector<double> ComputeQueryLowerBounds(
    const schema::Schema& schema, const workload::Workload& workload,
    const partition::EdgeSet& edges,
    const QueryCostFn& query_cost,
    int max_enum = 4096);

/// \brief Frequency-weighted sum of per-query lower bounds — the global
/// floor no design can beat (`B_global = Σ f_j · lb_j` over f > 0).
double WeightedLowerBound(const std::vector<double>& query_lb,
                          const std::vector<double>& frequencies);

}  // namespace lpa::search
