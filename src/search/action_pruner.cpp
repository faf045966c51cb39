#include "search/action_pruner.h"

#include <algorithm>
#include <functional>

#include "costmodel/weighted_cost.h"
#include "util/logging.h"

namespace lpa::search {

ActionPruner::ActionPruner(const schema::Schema* schema,
                           const workload::Workload* workload,
                           const partition::EdgeSet* edges,
                           QueryCostFn query_cost, ActionPrunerConfig config)
    : query_cost_(std::move(query_cost)), config_(config) {
  LPA_CHECK(config_.prune_epsilon >= 0.0);
  minq_ = ComputeQueryLowerBounds(*schema, *workload, *edges, query_cost_,
                                  config_.max_bound_enum);
  table_queries_.resize(static_cast<size_t>(schema->num_tables()));
  for (int j = 0; j < workload->num_queries(); ++j) {
    for (schema::TableId t : workload->query(j).tables()) {
      table_queries_[static_cast<size_t>(t)].push_back(j);
    }
  }
}

double ActionPruner::GlobalLowerBound(
    const std::vector<double>& frequencies) const {
  return WeightedLowerBound(minq_, frequencies);
}

std::unique_ptr<ActionPruner::Session> ActionPruner::NewSession() const {
  return std::unique_ptr<Session>(new Session(this));
}

ActionPruner::Session::Session(const ActionPruner* owner)
    : owner_(owner),
      costs_(owner->minq_.size(), 0.0),
      priced_(owner->minq_.size(), 0) {}

double ActionPruner::Session::PriceExact(
    const partition::PartitioningState& state,
    const std::vector<double>& frequencies) {
  std::fill(priced_.begin(), priced_.end(), 0);
  last_total_ = costmodel::WeightedCost(
      static_cast<int>(costs_.size()), frequencies, [&](int j, double) {
        size_t sj = static_cast<size_t>(j);
        costs_[sj] = owner_->query_cost_(j, state);
        priced_[sj] = 1;
        return costs_[sj];
      });
  pending_.clear();
  priced_once_ = true;
  return last_total_;
}

double ActionPruner::Session::DeltaLowerBound(
    const std::vector<double>& frequencies) const {
  std::vector<char> touched(costs_.size(), 0);
  for (schema::TableId t : pending_) {
    for (int j : owner_->table_queries_[static_cast<size_t>(t)]) {
      touched[static_cast<size_t>(j)] = 1;
    }
  }
  return costmodel::WeightedCost(
      static_cast<int>(costs_.size()), frequencies, [&](int j, double) {
        size_t sj = static_cast<size_t>(j);
        return touched[sj] || !priced_[sj] ? owner_->minq_[sj] : costs_[sj];
      });
}

ActionPruner::Session::PriceResult ActionPruner::Session::PriceOrPrune(
    const partition::PartitioningState& state,
    const std::vector<schema::TableId>& affected,
    const std::vector<double>& frequencies, double threshold) {
  pending_.insert(pending_.end(), affected.begin(), affected.end());
  const double lb = DeltaLowerBound(frequencies);
  if (lb * (1.0 + owner_->config_.prune_epsilon) >= threshold) {
    // The bound already rules out beating the threshold; leave the state
    // unpriced and remember the drifted tables for the next exact pricing.
    return PriceResult{lb, false};
  }
  return PriceResult{PriceExact(state, frequencies), true};
}

double ActionPruner::Session::ReachableLowerBound(
    const std::vector<double>& frequencies, int horizon) const {
  LPA_CHECK(synced());
  if (horizon <= 0) return last_total_;
  const int num_tables = static_cast<int>(owner_->table_queries_.size());
  // potential(t): the most the total can drop if table t is re-designed —
  // every query on t falls from its current cost to its floor. A query on
  // two re-designed tables is counted twice, which only loosens the bound.
  std::vector<double> potentials;
  potentials.reserve(static_cast<size_t>(num_tables));
  for (schema::TableId t = 0; t < num_tables; ++t) {
    double p = 0.0;
    for (int j : owner_->table_queries_[static_cast<size_t>(t)]) {
      double f = costmodel::FrequencyAt(frequencies, j);
      size_t sj = static_cast<size_t>(j);
      if (f <= 0.0 || !priced_[sj]) continue;
      p += f * std::max(0.0, costs_[sj] - owner_->minq_[sj]);
    }
    potentials.push_back(p);
  }
  // Each action re-designs at most two tables, so within the horizon at
  // most min(2·horizon, T) tables can move: subtract the largest potentials.
  size_t movable = std::min(static_cast<size_t>(num_tables),
                            static_cast<size_t>(horizon) * 2);
  std::partial_sort(potentials.begin(),
                    potentials.begin() + static_cast<long>(movable),
                    potentials.end(), std::greater<double>());
  double drop = 0.0;
  for (size_t i = 0; i < movable; ++i) drop += potentials[i];
  return last_total_ - drop;
}

}  // namespace lpa::search
