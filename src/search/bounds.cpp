#include "search/bounds.h"

#include <algorithm>

#include "costmodel/weighted_cost.h"
#include "util/logging.h"

namespace lpa::search {

std::vector<partition::TablePartition> TableDesignOptions(
    const schema::Schema& schema, schema::TableId t) {
  std::vector<partition::TablePartition> options;
  const auto& table = schema.table(t);
  for (size_t c = 0; c < table.columns.size(); ++c) {
    if (table.columns[c].partitionable) {
      options.push_back(
          partition::TablePartition{false, static_cast<schema::ColumnId>(c)});
    }
  }
  options.push_back(partition::TablePartition{true, -1});
  return options;
}

namespace {

void ApplyOption(partition::PartitioningState* s, schema::TableId t,
                 const partition::TablePartition& option) {
  // Idempotent on purpose: scratch states are reused across enumerations,
  // and Replicate refuses an already-replicated table.
  const partition::TablePartition& current = s->table_partition(t);
  if (current.replicated == option.replicated &&
      current.column == option.column) {
    return;
  }
  if (option.replicated) {
    LPA_CHECK(s->Replicate(t).ok());
  } else {
    LPA_CHECK(s->PartitionBy(t, option.column).ok());
  }
}

}  // namespace

std::vector<double> ComputeQueryLowerBounds(
    const schema::Schema& schema, const workload::Workload& workload,
    const partition::EdgeSet& edges,
    const QueryCostFn& query_cost,
    int max_enum) {
  const int n = workload.num_queries();
  std::vector<double> lb(static_cast<size_t>(n), 0.0);
  // Scratch state mutated in place: a query's cost only reads the designs of
  // its own tables, so leftovers from previous queries are irrelevant.
  partition::PartitioningState scratch =
      partition::PartitioningState::Initial(&schema, &edges);
  for (int j = 0; j < n; ++j) {
    const std::vector<schema::TableId> tables = workload.query(j).tables();
    std::vector<std::vector<partition::TablePartition>> options;
    long long combos = 1;
    for (schema::TableId t : tables) {
      options.push_back(TableDesignOptions(schema, t));
      combos *= static_cast<long long>(options.back().size());
      if (combos > max_enum) break;
    }
    if (combos > max_enum || tables.empty()) continue;  // lb stays 0
    std::vector<size_t> idx(tables.size(), 0);
    double best = 0.0;
    bool first = true;
    while (true) {
      for (size_t k = 0; k < tables.size(); ++k) {
        ApplyOption(&scratch, tables[k], options[k][idx[k]]);
      }
      double cost = query_cost(j, scratch);
      if (first || cost < best) best = cost;
      first = false;
      // Odometer increment over the option indices.
      size_t k = 0;
      while (k < idx.size() && ++idx[k] == options[k].size()) {
        idx[k] = 0;
        ++k;
      }
      if (k == idx.size()) break;
    }
    lb[static_cast<size_t>(j)] = std::max(0.0, best);
  }
  return lb;
}

double WeightedLowerBound(const std::vector<double>& query_lb,
                          const std::vector<double>& frequencies) {
  return costmodel::WeightedCost(query_lb, frequencies);
}

}  // namespace lpa::search
