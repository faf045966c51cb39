#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor_handle.h"
#include "autopilot/drift_monitor.h"
#include "serving/model_registry.h"
#include "util/eval_context.h"

namespace lpa::autopilot {

/// \brief Tuning of the retrain → validate → swap → probation pipeline.
struct RetrainConfig {
  /// Incremental episodes per retrain; < 0 picks the Exp 3c default
  /// (`offline_episodes / 6`).
  int episodes = -1;
  /// Recent mixes the candidate and incumbent designs are costed over
  /// before a swap (the holdout-validation window). Kept at the detector's
  /// patience so a post-verdict holdout contains only post-drift mixes —
  /// widening it dilutes the gate with pre-drift traffic the candidate was
  /// never meant to serve.
  int holdout_mixes = 3;
  /// Relative improvement the candidate must show over the incumbent on the
  /// holdout (`candidate <= incumbent * (1 - swap_margin)`).
  double swap_margin = 0.02;
  /// When false, every retrained candidate swaps in unvalidated — the
  /// chaos-drill mode that exercises the rollback path (probation still
  /// guards the deployment).
  bool validation_gate = true;
  /// Relative regression vs the rolled-back design, averaged over the
  /// probation window, that triggers an automatic rollback.
  double rollback_margin = 0.08;
  /// Ticks the post-swap probation window lasts.
  int probation_ticks = 3;
  /// Train candidates on a background thread (`Poll` applies the result)
  /// instead of inline in `HandleDrift`.
  bool async = false;
  /// Threads of the background training EvalContext.
  int threads = 1;
  uint64_t seed = 0x5eedULL;
  /// Batcher config of published servables.
  serving::InferenceBatcher::Config batch;
  /// Chaos/testing hook: replace the freshly trained candidate's suggested
  /// design (e.g. with a known-bad one) before validation, to drill the
  /// rollback protocol end to end. Return nullopt to keep the suggestion.
  std::function<std::optional<partition::PartitioningState>(
      advisor::AdvisorHandle&)>
      candidate_override;
};

/// \brief What one autopilot tick did.
struct TickOutcome {
  enum class Action {
    kNone = 0,
    kRetrainStarted,   ///< async retrain kicked off
    kRetrainRejected,  ///< candidate lost the holdout validation
    kSwapped,          ///< candidate published; probation started
    kRolledBack,       ///< incumbent restored after a regressing swap
  };
  Action action = Action::kNone;
  DriftVerdict verdict;
  /// Registry version after a swap/rollback (first target; 0 without one).
  uint64_t model_version = 0;
  /// Mean holdout costs that decided the gate (swap/reject only).
  double candidate_cost = -1.0;
  double incumbent_cost = -1.0;
  std::string detail;
};

const char* TickActionName(TickOutcome::Action action);

/// \brief Owns the incumbent advisor and runs the adaptation pipeline: on a
/// drift verdict it snapshots the incumbent, incrementally trains a replica
/// candidate on a background `EvalContext`, validates candidate vs incumbent
/// designs over the holdout mixes (each design's per-query costs priced
/// once, then weighted per mix), hot-swaps through every registered
/// `serving::ModelRegistry` target, and watches a probation window that
/// rolls the previous incumbent back if the fresh deployment regresses.
///
/// Candidate replicas replay the incumbent's construction history (base
/// workload + every absorbed query, in order) so snapshot shapes always
/// line up — including after reserve slots are spent and the Q-network
/// input grew. Retired incumbents stay pinned for the controller's lifetime
/// because published designs reference their owners' edge sets.
class RetrainController {
 public:
  struct Counters {
    uint64_t retrains = 0;   ///< candidates trained to completion
    uint64_t rejects = 0;    ///< candidates stopped by the holdout gate
    uint64_t swaps = 0;      ///< candidates published
    uint64_t rollbacks = 0;  ///< swaps undone by probation
  };

  RetrainController(advisor::AdvisorHandle incumbent,
                    const costmodel::CostModel* model, RetrainConfig config);
  ~RetrainController();

  RetrainController(const RetrainController&) = delete;
  RetrainController& operator=(const RetrainController&) = delete;

  /// \brief Register a registry every future swap publishes into. Call
  /// before `Deploy`.
  void AddTarget(serving::ModelRegistry* target);

  /// \brief Initial rollout: suggest a design for `initial_mix`, record it
  /// as deployed, and publish the incumbent into every target.
  Status Deploy(const std::vector<double>& initial_mix);

  /// \brief Swap the pricing model (cost-model recalibration — e.g. the
  /// hardware telemetry now reflects a noisy neighbor's contention). Future
  /// retrains, validations, and probation costing use the new model.
  void UpdateCostModel(const costmodel::CostModel* model);

  /// \brief Absorb structurally new queries into the incumbent (zero-
  /// initialized slots: behaviour on the old workload is unchanged) and
  /// record them for candidate replay + the next schema-drift retrain.
  Result<std::vector<int>> AbsorbQueries(
      std::vector<workload::QuerySpec> queries);

  /// \brief Advance the probation window under the current mix; returns a
  /// kRolledBack outcome when the window closes on a regression, a kNone
  /// outcome when it closes clean, nullopt while it is still open or
  /// inactive.
  std::optional<TickOutcome> StepProbation(const std::vector<double>& mix);

  /// \brief React to a drift verdict: retrain + validate + maybe swap.
  /// Synchronous mode returns the final outcome; async mode returns
  /// kRetrainStarted and the outcome surfaces through `Poll`.
  Result<TickOutcome> HandleDrift(
      const DriftVerdict& verdict,
      const std::vector<std::vector<double>>& holdout_mixes,
      const std::vector<double>& current_mix);

  /// \brief Harvest a finished async retrain, applying its swap/rejection.
  /// nullopt while idle or still training.
  std::optional<TickOutcome> Poll();

  bool busy() const;
  bool in_probation() const { return probation_left_ > 0; }
  bool deployed() const { return deployed_design_.has_value(); }
  /// Valid after Deploy().
  const partition::PartitioningState& deployed_design() const {
    return *deployed_design_;
  }
  const Counters& counters() const { return counters_; }
  advisor::AdvisorHandle& incumbent() { return incumbent_; }
  const costmodel::CostModel* cost_model() const { return model_; }
  uint64_t published_version() const;

 private:
  struct RetrainJob {
    advisor::AdvisorHandle candidate;
    DriftVerdict verdict;
    std::vector<std::vector<double>> holdout;
    std::vector<double> mix;
    std::vector<int> focus;
    int episodes = 0;
    /// Copies captured at job-prep time so the worker thread never reads
    /// controller state that the control thread may mutate.
    partition::PartitioningState deployed;
    const costmodel::CostModel* model = nullptr;
  };
  struct RetrainResult {
    Status status = Status::OK();
    std::optional<advisor::AdvisorHandle> candidate;
    std::optional<partition::PartitioningState> design;
    DriftVerdict verdict;
    double candidate_cost = -1.0;
    double incumbent_cost = -1.0;
    bool pass = false;
  };

  /// Replica with the incumbent's construction lineage — base workload plus
  /// the first `added_count` absorbed queries, replayed in order so the
  /// snapshot's network shapes line up — restored from `snapshot`.
  Result<advisor::AdvisorHandle> BuildReplica(const std::string& snapshot,
                                              size_t added_count);
  /// Servable advisor rebuilt from `snapshot` (same lineage replay).
  Result<std::shared_ptr<serving::ServingModel>> BuildServable(
      const std::string& snapshot, size_t added_count);
  /// Publish into every target; returns the first target's new version.
  uint64_t PublishServable(std::shared_ptr<serving::ServingModel> servable);
  /// Train + validate; runs inline or on worker_.
  RetrainResult RunRetrain(RetrainJob job);
  TickOutcome Apply(RetrainResult result);
  void JoinWorker();

  const schema::Schema* schema_;
  /// The workload the incumbent was constructed with, before any absorbed
  /// queries — the replay base for replicas and servables.
  workload::Workload base_workload_;
  advisor::AdvisorConfig base_config_;
  std::vector<workload::QuerySpec> added_queries_;
  std::vector<int> pending_focus_;

  advisor::AdvisorHandle incumbent_;
  const costmodel::CostModel* model_;
  RetrainConfig config_;
  std::vector<serving::ModelRegistry*> targets_;
  std::optional<partition::PartitioningState> deployed_design_;
  /// Retired / superseded handles, pinned because their edge sets may still
  /// be referenced by deployed or rollback designs.
  std::vector<advisor::AdvisorHandle> pinned_;

  /// Rollback point of the most recent swap: the previous incumbent's
  /// design, snapshot, replay depth, and pinned slot.
  struct RollbackPoint {
    partition::PartitioningState design;
    std::string snapshot;
    size_t added_count = 0;
    size_t pinned_index = 0;
  };
  std::optional<RollbackPoint> rollback_;
  /// Snapshot of the incumbent taken when the current retrain was prepared.
  std::string drift_snapshot_;
  size_t drift_added_count_ = 0;
  int probation_left_ = 0;
  double probation_deployed_sum_ = 0.0;
  double probation_rollback_sum_ = 0.0;
  /// Per-query costs of the deployed and the rollback design under model_,
  /// priced on the first probation tick, extended when the workload grows
  /// and dropped when the model changes.
  std::vector<double> probation_deployed_costs_;
  std::vector<double> probation_rollback_costs_;

  /// Background training context (its pool is what "background EvalContext"
  /// means in sync mode; in async mode the worker thread drives it).
  EvalContext bg_ctx_;
  std::unique_ptr<std::thread> worker_;
  std::atomic<bool> job_done_{false};
  std::optional<RetrainResult> job_result_;

  Counters counters_;
};

}  // namespace lpa::autopilot
