#pragma once

#include <functional>

#include "rl/dqn.h"
#include "rl/environment.h"

namespace lpa::search {
class ActionPruner;
}  // namespace lpa::search

namespace lpa::rl {

/// \brief Draws a workload frequency vector for the next episode. The naive
/// model trains over uniformly sampled mixes; subspace experts restrict the
/// sampler to their subspace (Sec 5).
using FrequencySampler = std::function<std::vector<double>(Rng*)>;

/// \brief Per-run training telemetry.
struct TrainingResult {
  /// Best (maximum) reward observed in each episode.
  std::vector<double> episode_best_rewards;
  /// Cost used to normalize rewards (workload cost of s0, uniform mix).
  double normalization = 1.0;
  /// Total environment evaluations.
  size_t steps = 0;
  /// SGD steps actually executed (0 until the replay buffer holds a full
  /// minibatch); also counted by the rl.train_steps.count telemetry counter.
  size_t train_steps = 0;
};

/// \brief Result of the greedy inference rollout (Sec 6).
struct InferenceResult {
  partition::PartitioningState best_state;
  /// Environment workload cost at the best state.
  double best_cost = 0.0;
  /// Action ids of the full rollout.
  std::vector<int> actions;
};

/// \brief Runs Algorithm 1 (and its online refinement variant) against any
/// PartitioningEnv, and the Sec 6 inference rollout.
///
/// All entry points take an `EvalContext` carrying the thread pool, the RNG
/// stream, and the metrics sink. With `ctx->pool()` set and an environment
/// whose `PureQueryCost()` holds, per-step cost-cache misses fan out over
/// queries and the extra inference rollouts run concurrently — each rollout
/// on its own forked sub-RNG derived from a single master draw, with results
/// merged in rollout-index order, so a seeded run is bit-identical at every
/// thread count.
class EpisodeTrainer {
 public:
  EpisodeTrainer(const schema::Schema* schema, const partition::EdgeSet* edges,
                 const partition::ActionSpace* actions,
                 const partition::Featurizer* featurizer);

  /// \brief Train `agent` for `episodes` episodes of `agent->config().tmax`
  /// steps each. Rewards are `1 - cost/normalization`, an affine (and thus
  /// policy-preserving) transform of the paper's negative-cost reward.
  /// `ctx` must be non-null; episode sampling and ε-greedy exploration draw
  /// from `ctx->rng()`.
  TrainingResult Train(DqnAgent* agent, PartitioningEnv* env,
                       const FrequencySampler& sampler, int episodes,
                       EvalContext* ctx) const;

  /// \brief Greedy rollout from s0; returns the best-reward state on the
  /// trajectory, not the final state (the agent oscillates around the
  /// optimum, Sec 6). `ctx` (optional) parallelizes the per-state workload
  /// cost over queries.
  InferenceResult Infer(const DqnAgent& agent, PartitioningEnv* env,
                        const std::vector<double>& frequencies,
                        EvalContext* ctx = nullptr) const;

  /// \brief Extension of Sec 6's inference: one greedy rollout plus
  /// `extra_rollouts` lightly randomized (ε = `epsilon`) rollouts, returning
  /// the best state visited by any of them. All rollouts are priced by the
  /// environment (the offline simulation / the runtime cache), so the extra
  /// rollouts cost no cluster time; they merely smooth over the greedy
  /// policy's oscillation on large schemas. The extra rollouts run in
  /// parallel when `ctx` has a pool and the environment supports it.
  InferenceResult InferBest(const DqnAgent& agent, PartitioningEnv* env,
                            const std::vector<double>& frequencies,
                            int extra_rollouts, double epsilon,
                            EvalContext* ctx) const;

  /// \brief InferBest with admissible-bound pruning (src/search/): `pruner`
  /// supplies per-query cost floors built from the SAME pure query-cost
  /// function the environment prices with. Three sound savings:
  ///
  ///  - eval-pruning: a visited state whose lower bound already clears the
  ///    incumbent is never priced exactly (rl.eval_prunes.count);
  ///  - greedy-prefix reuse: the extra rollouts replay the greedy rollout's
  ///    cached trajectory until their first exploration step, skipping the
  ///    Q-network forward passes entirely (rl.actions_pruned.count);
  ///  - horizon cutoff: an extra rollout stops early when no state reachable
  ///    within the remaining steps can improve the incumbent
  ///    (rl.rollout_cutoffs.count).
  ///
  /// With `pruner.prune_epsilon() == 0` the returned result — best state,
  /// best cost, AND the greedy action trajectory — is bit-identical to
  /// `InferBest` at every thread count: trajectories are Q-driven (costs
  /// only tighten the incumbent through a strict `<`), each rollout draws
  /// from its own forked RNG in the same order, and only updates that
  /// provably cannot fire are skipped. With ε > 0 the result's cost is
  /// within (1+ε) of the unpruned one. Falls back to plain InferBest when
  /// the environment's QueryCost is not pure (the bounds rely on that
  /// contract).
  InferenceResult InferBestPruned(const DqnAgent& agent, PartitioningEnv* env,
                                  const std::vector<double>& frequencies,
                                  int extra_rollouts, double epsilon,
                                  const search::ActionPruner& pruner,
                                  EvalContext* ctx) const;

  /// \brief Like InferBest, but states are ranked by a caller-supplied
  /// objective instead of the plain environment cost — e.g. workload cost
  /// plus a weighted repartitioning cost from the currently deployed design
  /// (the reward extension discussed at the end of Sec 3.2).
  ///
  /// The caller supplies an objective FACTORY, not a single objective: each
  /// rollout (the greedy one and every extra) gets its own objective
  /// instance, so stateful objectives need no internal synchronization.
  /// When `ctx` has a pool the extra rollouts run concurrently, so the
  /// factory's products must be independent (shared lower layers like the
  /// cost cache must be thread-safe).
  using StateObjective = std::function<double(const partition::PartitioningState&)>;
  using ObjectiveFactory = std::function<StateObjective()>;
  InferenceResult InferObjective(const DqnAgent& agent,
                                 const std::vector<double>& frequencies,
                                 const ObjectiveFactory& objective_factory,
                                 int extra_rollouts, double epsilon,
                                 EvalContext* ctx) const;

  /// \brief Workload cost of the initial state under a uniform mix — the
  /// reward normalizer.
  double Normalization(PartitioningEnv* env, EvalContext* ctx = nullptr) const;

  partition::PartitioningState InitialState() const {
    return partition::PartitioningState::Initial(schema_, edges_);
  }

 private:
  const schema::Schema* schema_;
  const partition::EdgeSet* edges_;
  const partition::ActionSpace* actions_;
  const partition::Featurizer* featurizer_;
};

/// \brief Objective factory whose products price states with
/// `env->WorkloadCost(state, *frequencies, ctx)`. `frequencies` is captured
/// by pointer and must outlive the products; `ctx` (nullable) is passed
/// through, so the offline env fans its cost-cache misses over its pool.
EpisodeTrainer::ObjectiveFactory MakeEnvObjective(
    PartitioningEnv* env, const std::vector<double>* frequencies,
    EvalContext* ctx);

}  // namespace lpa::rl
