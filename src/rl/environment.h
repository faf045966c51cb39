#pragma once

#include <vector>

#include "partition/partition_state.h"
#include "util/eval_context.h"
#include "workload/workload.h"

namespace lpa::rl {

/// \brief Reward source for the DQN agent: something that can price a query
/// under a partitioning (the cost-model simulation offline, the sampled
/// cluster online).
class PartitioningEnv {
 public:
  virtual ~PartitioningEnv() = default;

  virtual const workload::Workload& workload() const = 0;

  /// \brief Cost (seconds, full-database scale) of query `query_index` under
  /// `state`. `frequency` is the query's current workload frequency — the
  /// online environment needs it for the timeout optimization (Sec 4.2).
  virtual double QueryCost(int query_index,
                           const partition::PartitioningState& state,
                           double frequency) = 0;

  /// \brief Frequency-weighted workload cost `sum_j f_j * c(P, q_j)`,
  /// reduced by `costmodel::WeightedCost`: queries in order, entries with
  /// zero frequency skipped (and never executed).
  ///
  /// The base class prices each query serially through QueryCost and
  /// ignores `ctx`; overrides may use `ctx` for their own parallelism (the
  /// offline env fans its cost-cache misses over the pool, the online env
  /// hands the pool to the engine) but must return the serial loop's total
  /// bit for bit.
  virtual double WorkloadCost(const partition::PartitioningState& state,
                              const std::vector<double>& frequencies,
                              EvalContext* ctx = nullptr);

  /// \brief Whether QueryCost is a pure, frequency-independent function of
  /// (query, designs of the query's tables) that may be called from several
  /// threads at once. Callers rely on it to run rollouts, committee experts
  /// and pruning bounds concurrently or from per-query cost floors. The
  /// online environment returns false: it deploys designs and accounts
  /// runtimes per call, and its costs carry noise and timeout effects.
  virtual bool PureQueryCost() const { return false; }
};

}  // namespace lpa::rl
