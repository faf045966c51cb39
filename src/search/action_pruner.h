#pragma once

#include <memory>
#include <vector>

#include "partition/partition_state.h"
#include "schema/schema.h"
#include "search/bounds.h"
#include "workload/workload.h"

namespace lpa::search {

/// \brief Slack and budget of inference-time action-space pruning.
struct ActionPrunerConfig {
  /// Per-query option-combination cap for the admissible floors (see
  /// `ComputeQueryLowerBounds`); beyond it a query's floor is 0.
  int max_bound_enum = 4096;
  /// Pricing slack: a state is left unpriced when its lower bound LB
  /// satisfies LB·(1+ε) ≥ threshold. ε = 0 skips only states provably
  /// unable to beat the threshold — rollout outcomes are bit-identical
  /// to unpruned execution. ε > 0 trades a (1+ε)-bounded quality loss for
  /// more skips.
  double prune_epsilon = 0.0;
};

/// \brief Admissible-bound machinery that lets a Q-driven rollout skip cost
/// evaluations (and whole rollout tails) that provably cannot improve the
/// incumbent.
///
/// Construction precomputes per-query unconstrained cost floors minq_j
/// (`ComputeQueryLowerBounds`) and the table→queries index. Each rollout
/// owns a `Session`: the per-query costs of its last exact pricing plus the
/// set of tables whose design drifted since then ("pending"). On every
/// visited state the session forms the bound
///
///   LB = Σ_{j: f_j>0} f_j · (touched(j) ? minq_j : cost_j)
///
/// where touched(j) ⇔ query j references a pending-or-just-changed table
/// (or was not priced). LB lower-bounds the state's true cost, so when
/// LB·(1+ε) ≥ threshold the exact pricing is skipped — with a strict-<
/// incumbent update and ε = 0, skipping is output-identical.
///
/// An exact pricing prices every f>0 query through `query_cost` (so, for the
/// advisor, through the offline env's cost cache) and reduces with
/// `costmodel::WeightedCost`, so its total is bit-identical to
/// `OfflineEnv::WorkloadCost`.
///
/// Sound only for plain workload-cost objectives: transition-cost terms are
/// not part of the bound. The pruner covers the workload's queries at
/// construction; rebuild it after the workload grows.
class ActionPruner {
 public:
  ActionPruner(const schema::Schema* schema, const workload::Workload* workload,
               const partition::EdgeSet* edges, QueryCostFn query_cost,
               ActionPrunerConfig config = {});

  /// \brief Per-query admissible floors (index = query index).
  const std::vector<double>& query_lower_bounds() const { return minq_; }

  /// \brief Frequency-weighted floor no design can beat.
  double GlobalLowerBound(const std::vector<double>& frequencies) const;

  double prune_epsilon() const { return config_.prune_epsilon; }

  /// \brief One rollout's pricing state. Not thread-safe; create one per
  /// rollout (sessions share only the immutable floors).
  class Session {
   public:
    struct PriceResult {
      double cost = 0.0;  ///< exact cost, or a lower bound when !exact
      bool exact = false;
    };

    /// \brief Price every f>0 query of `state` exactly, clearing the
    /// pending set.
    double PriceExact(const partition::PartitioningState& state,
                      const std::vector<double>& frequencies);

    /// \brief Price `state` exactly unless its admissible lower bound
    /// already rules out beating `threshold` (LB·(1+ε) ≥ threshold), in
    /// which case the bound is returned, the exact evaluation is skipped,
    /// and `affected` joins the pending set.
    PriceResult PriceOrPrune(const partition::PartitioningState& state,
                             const std::vector<schema::TableId>& affected,
                             const std::vector<double>& frequencies,
                             double threshold);

    /// \brief Record that `affected` tables drifted WITHOUT pricing — for
    /// steps whose exact cost the caller already knows (e.g. replaying a
    /// cached trajectory). The next pricing folds the drift in.
    void Defer(const std::vector<schema::TableId>& affected) {
      pending_.insert(pending_.end(), affected.begin(), affected.end());
    }

    /// \brief True when the last visited state was priced exactly — the
    /// precondition for `ReachableLowerBound`.
    bool synced() const { return priced_once_ && pending_.empty(); }

    /// \brief Admissible lower bound on the cost of EVERY state reachable
    /// from the last exactly-priced state within `horizon` actions: each
    /// action re-designs at most two tables, so at most `2·horizon` tables
    /// can drop from their current cost contribution to their floor.
    /// Requires `synced()`. When this clears the incumbent, the remaining
    /// rollout tail cannot improve it and can be skipped wholesale.
    double ReachableLowerBound(const std::vector<double>& frequencies,
                               int horizon) const;

   private:
    friend class ActionPruner;
    Session(const ActionPruner* owner);

    /// Σ f_j · (touched(j) || !priced(j) ? minq_j : cost_j) over f_j > 0,
    /// touched(j) ⇔ query j references a pending table. Prices nothing.
    double DeltaLowerBound(const std::vector<double>& frequencies) const;

    const ActionPruner* owner_;
    /// costs_[j]: query j's cost at the last exact pricing, meaningful iff
    /// priced_[j] (query j had f > 0 then).
    std::vector<double> costs_;
    std::vector<char> priced_;
    /// Tables whose design drifted across skipped pricings.
    std::vector<schema::TableId> pending_;
    double last_total_ = 0.0;
    bool priced_once_ = false;
  };

  std::unique_ptr<Session> NewSession() const;

 private:
  QueryCostFn query_cost_;
  ActionPrunerConfig config_;
  std::vector<double> minq_;
  /// table_queries_[t]: indices of the queries referencing table t.
  std::vector<std::vector<int>> table_queries_;
};

}  // namespace lpa::search
