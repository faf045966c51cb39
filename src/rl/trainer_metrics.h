#pragma once

#include "telemetry/registry.h"

namespace lpa::rl::internal {

/// \brief Training-path telemetry of the episode trainer (trainer.cpp).
/// Cached-static like every other metrics struct; registering here (rather
/// than per call site) also means every training bench manifest exports the
/// full set.
struct TrainerMetrics {
  telemetry::Counter& episodes;
  telemetry::Counter& env_evals;
  telemetry::Counter& inference_rollouts;
  /// Q-network forward passes during inference rollouts (greedy action
  /// selections; exploration steps and pruned-prefix reuse need none).
  telemetry::Counter& q_evals;
  /// Candidate actions whose Q-values were never computed because a pruned
  /// rollout replayed the cached greedy prefix (src/search/ActionPruner).
  telemetry::Counter& actions_pruned;
  /// Exact state pricings skipped because the admissible lower bound
  /// already cleared the incumbent.
  telemetry::Counter& eval_prunes;
  /// Rollout tails abandoned because no reachable state could improve the
  /// incumbent within the remaining horizon.
  telemetry::Counter& rollout_cutoffs;
  telemetry::Gauge& epsilon;
  telemetry::Gauge& env_evals_per_sec;
  /// SGD steps per wall-clock second of the last training run.
  telemetry::Gauge& train_steps_per_sec;
  telemetry::Histogram& episode_reward;

  static TrainerMetrics& Get();
};

}  // namespace lpa::rl::internal
