#include "baselines/optimizer_designer.h"

#include "baselines/heuristics.h"
#include "costmodel/cost_cache.h"
#include "costmodel/weighted_cost.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::baselines {

namespace {

using partition::PartitioningState;
using partition::TablePartition;

/// Workload-estimate evaluator over per-table designs.
///
/// The hill climb mutates one table per probe, so most (query, design)
/// pairs repeat across probes; the fingerprint-keyed CostCache makes every
/// repeat free (including restored originals and restarts). Totals are
/// reduced by costmodel::WeightedCost, so they match the plain loop bit for
/// bit.
class Evaluator {
 public:
  Evaluator(const schema::Schema& schema, const workload::Workload& workload,
            const partition::EdgeSet& edges,
            const costmodel::CostModel& estimator)
      : schema_(schema), workload_(workload), edges_(&edges),
        estimator_(estimator) {
    for (const auto& q : workload.queries()) {
      query_tables_.push_back(q.tables());
    }
  }

  double Cost(const std::vector<TablePartition>& design) {
    auto state = PartitioningState::FromDesign(&schema_, edges_, design);
    return costmodel::WeightedCost(
        workload_.num_queries(), workload_.frequencies(), [&](int j, double) {
          uint64_t key = HashCombine(
              Hash64(static_cast<uint64_t>(j)),
              state.DesignFingerprint(query_tables_[static_cast<size_t>(j)]));
          return cache_.GetOrCompute(key, [&] {
            return estimator_.QueryCost(workload_.query(j), state);
          });
        });
  }

 private:
  const schema::Schema& schema_;
  const workload::Workload& workload_;
  const partition::EdgeSet* edges_ = nullptr;
  const costmodel::CostModel& estimator_;
  std::vector<std::vector<schema::TableId>> query_tables_;
  costmodel::CostCache cache_;
};

/// All per-table design options.
std::vector<TablePartition> TableOptions(const schema::Schema& schema,
                                         schema::TableId t) {
  std::vector<TablePartition> options;
  const auto& table = schema.table(t);
  for (size_t c = 0; c < table.columns.size(); ++c) {
    if (table.columns[c].partitionable) {
      options.push_back(TablePartition{false, static_cast<schema::ColumnId>(c)});
    }
  }
  options.push_back(TablePartition{true, -1});
  return options;
}

/// Steepest-descent hill climbing over single-table changes.
std::vector<TablePartition> HillClimb(const schema::Schema& schema,
                                      std::vector<TablePartition> design,
                                      Evaluator* eval, int max_iterations) {
  double best = eval->Cost(design);
  for (int iter = 0; iter < max_iterations; ++iter) {
    double round_best = best;
    schema::TableId round_table = -1;
    TablePartition round_option;
    for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
      TablePartition original = design[static_cast<size_t>(t)];
      for (const auto& option : TableOptions(schema, t)) {
        if (option == original) continue;
        design[static_cast<size_t>(t)] = option;
        double cost = eval->Cost(design);
        if (cost < round_best) {
          round_best = cost;
          round_table = t;
          round_option = option;
        }
      }
      design[static_cast<size_t>(t)] = original;
    }
    if (round_table < 0) break;  // local optimum
    design[static_cast<size_t>(round_table)] = round_option;
    best = round_best;
  }
  return design;
}

std::vector<TablePartition> RandomDesign(const schema::Schema& schema,
                                         Rng* rng) {
  std::vector<TablePartition> design;
  design.reserve(static_cast<size_t>(schema.num_tables()));
  for (schema::TableId t = 0; t < schema.num_tables(); ++t) {
    auto options = TableOptions(schema, t);
    design.push_back(options[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(options.size()) - 1))]);
  }
  return design;
}

}  // namespace

PartitioningState MinimizeOptimizerCost(const schema::Schema& schema,
                                        const workload::Workload& workload,
                                        const partition::EdgeSet& edges,
                                        const costmodel::CostModel& estimator,
                                        const OptimizerDesignerConfig& config) {
  Evaluator eval(schema, workload, edges, estimator);
  Rng rng(config.seed);

  std::vector<std::vector<TablePartition>> starts;
  starts.push_back(
      PartitioningState::Initial(&schema, &edges).table_partitions());
  starts.push_back(HeuristicA(schema, workload, edges).table_partitions());
  starts.push_back(HeuristicB(schema, workload, edges).table_partitions());
  for (int r = 0; r < config.random_restarts; ++r) {
    starts.push_back(RandomDesign(schema, &rng));
  }

  double best_cost = 1e300;
  std::vector<TablePartition> best;
  for (auto& start : starts) {
    auto local = HillClimb(schema, std::move(start), &eval,
                           config.max_iterations);
    double cost = eval.Cost(local);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(local);
    }
  }
  return PartitioningState::FromDesign(&schema, &edges, best);
}

}  // namespace lpa::baselines
