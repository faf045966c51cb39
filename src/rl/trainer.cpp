#include "rl/trainer.h"

#include <algorithm>
#include <limits>

#include "rl/trainer_metrics.h"
#include "search/action_pruner.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace lpa::rl {

namespace internal {

TrainerMetrics& TrainerMetrics::Get() {
  auto& reg = telemetry::MetricsRegistry::Global();
  static TrainerMetrics* m = new TrainerMetrics{
      reg.GetCounter("rl.episodes.count"),
      reg.GetCounter("rl.env_evals.count"),
      reg.GetCounter("rl.inference_rollouts.count"),
      reg.GetCounter("rl.q_evals.count"),
      reg.GetCounter("rl.actions_pruned.count"),
      reg.GetCounter("rl.eval_prunes.count"),
      reg.GetCounter("rl.rollout_cutoffs.count"),
      reg.GetGauge("rl.epsilon.value"),
      reg.GetGauge("rl.env_evals_per_sec.value"),
      reg.GetGauge("rl.train_steps_per_sec.value"),
      // Rewards are 1 - cost/normalization, i.e. bounded above by 1.
      reg.GetHistogram("rl.episode_reward.value",
                       {-8.0, -4.0, -2.0, -1.0, -0.5, -0.25, 0.0, 0.125,
                        0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0})};
  return *m;
}

}  // namespace internal

namespace {

using internal::TrainerMetrics;

}  // namespace

EpisodeTrainer::EpisodeTrainer(const schema::Schema* schema,
                               const partition::EdgeSet* edges,
                               const partition::ActionSpace* actions,
                               const partition::Featurizer* featurizer)
    : schema_(schema),
      edges_(edges),
      actions_(actions),
      featurizer_(featurizer) {}

double EpisodeTrainer::Normalization(PartitioningEnv* env,
                                     EvalContext* ctx) const {
  std::vector<double> uniform(
      static_cast<size_t>(env->workload().num_queries()), 1.0);
  double norm = env->WorkloadCost(InitialState(), uniform, ctx);
  LPA_CHECK(norm > 0.0);
  return norm;
}

TrainingResult EpisodeTrainer::Train(DqnAgent* agent, PartitioningEnv* env,
                                     const FrequencySampler& sampler,
                                     int episodes, EvalContext* ctx) const {
  LPA_CHECK(ctx != nullptr);
  telemetry::Span span("rl.train");
  auto& tm = TrainerMetrics::Get();
  Rng* rng = ctx->rng();
  TrainingResult result;

  result.normalization = Normalization(env, ctx);
  const int tmax = agent->config().tmax;
  LPA_CHECK(tmax >= schema_->num_tables());
  auto& sgd_steps = telemetry::MetricsRegistry::Global().GetCounter(
      "rl.train_steps.count");
  const uint64_t sgd_steps_before = sgd_steps.value();

  for (int e = 0; e < episodes; ++e) {
    std::vector<double> freqs = sampler(rng);
    partition::PartitioningState state = InitialState();  // line 4: reset
    std::vector<double> enc = featurizer_->EncodeState(state, freqs);
    std::vector<int> legal = actions_->LegalActions(state);
    double episode_best = -1e30;

    for (int t = 0; t < tmax; ++t) {
      int action = agent->SelectAction(enc, legal, rng);  // line 6
      LPA_CHECK(actions_->Apply(action, &state).ok());    // line 7
      double cost = env->WorkloadCost(state, freqs, ctx);  // line 8
      double reward = 1.0 - cost / result.normalization;
      episode_best = std::max(episode_best, reward);

      std::vector<double> next_enc = featurizer_->EncodeState(state, freqs);
      std::vector<int> next_legal = actions_->LegalActions(state);
      agent->Observe(
          Transition{std::move(enc), action, reward, next_enc, next_legal});
      // lines 10-11 (+ soft target update, line 13)
      agent->TrainStep(rng, ctx->pool());
      enc = std::move(next_enc);
      legal = std::move(next_legal);
      ++result.steps;
    }
    agent->DecayEpsilon();  // line 12
    result.episode_best_rewards.push_back(episode_best);
    tm.episodes.Add();
    tm.episode_reward.Observe(episode_best);
    tm.epsilon.Set(agent->epsilon());
  }
  tm.env_evals.Add(result.steps);
  result.train_steps =
      static_cast<size_t>(sgd_steps.value() - sgd_steps_before);
  double elapsed = span.elapsed_seconds();
  if (elapsed > 0.0) {
    tm.env_evals_per_sec.Set(static_cast<double>(result.steps) / elapsed);
    tm.train_steps_per_sec.Set(static_cast<double>(result.train_steps) /
                               elapsed);
  }
  return result;
}

namespace {

/// One rollout with exploration probability `epsilon` (0 = greedy),
/// accumulating the objective-best state into `result`.
void Rollout(const DqnAgent& agent,
             const EpisodeTrainer::StateObjective& objective,
             const std::vector<double>& frequencies,
             const partition::Featurizer& featurizer,
             const partition::ActionSpace& actions, double epsilon, Rng* rng,
             bool record_actions, InferenceResult* result,
             partition::PartitioningState state) {
  TrainerMetrics::Get().inference_rollouts.Add();
  const int tmax = agent.config().tmax;
  for (int t = 0; t < tmax; ++t) {
    std::vector<double> enc = featurizer.EncodeState(state, frequencies);
    std::vector<int> legal = actions.LegalActions(state);
    int action;
    if (epsilon > 0.0 && rng != nullptr && rng->Uniform() < epsilon) {
      action = legal[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    } else {
      action = agent.GreedyAction(enc, legal);
      TrainerMetrics::Get().q_evals.Add();
    }
    LPA_CHECK(actions.Apply(action, &state).ok());
    if (record_actions) result->actions.push_back(action);
    double cost = objective(state);
    if (cost < result->best_cost) {
      result->best_cost = cost;
      result->best_state = state;
    }
  }
}

/// Runs `extra_rollouts` ε-randomized rollouts and folds the best state into
/// `result`. Each rollout draws from its own sub-RNG forked from `ctx` by a
/// single master draw, prices states with its own objective instance from
/// `factory`, keeps a local best, and the locals are merged into `result` in
/// rollout-index order with a strict `<` — so the outcome is identical
/// whether the rollouts ran serially or on the pool.
void ExtraRollouts(const DqnAgent& agent,
                   const EpisodeTrainer::ObjectiveFactory& factory,
                   const std::vector<double>& frequencies,
                   const partition::Featurizer& featurizer,
                   const partition::ActionSpace& actions,
                   const partition::PartitioningState& s0, int extra_rollouts,
                   double epsilon, EvalContext* ctx, bool parallel_ok,
                   InferenceResult* result) {
  if (extra_rollouts <= 0) return;
  if (ctx == nullptr) {
    // No context: legacy serial greedy extras (no exploration randomness).
    for (int i = 0; i < extra_rollouts; ++i) {
      EpisodeTrainer::StateObjective objective = factory();
      Rollout(agent, objective, frequencies, featurizer, actions, epsilon,
              nullptr, /*record_actions=*/false, result, s0);
    }
    return;
  }
  std::vector<Rng> rngs = ctx->ForkRngs(static_cast<size_t>(extra_rollouts));
  // Materialize the per-rollout objectives on this thread, so factories need
  // not be thread-safe and construction order does not depend on pool
  // scheduling.
  std::vector<EpisodeTrainer::StateObjective> objectives;
  objectives.reserve(static_cast<size_t>(extra_rollouts));
  for (int i = 0; i < extra_rollouts; ++i) objectives.push_back(factory());
  std::vector<InferenceResult> locals(
      static_cast<size_t>(extra_rollouts),
      InferenceResult{s0, std::numeric_limits<double>::infinity(), {}});
  auto run_one = [&](size_t i) {
    Rollout(agent, objectives[i], frequencies, featurizer, actions, epsilon,
            &rngs[i], /*record_actions=*/false, &locals[i], s0);
  };
  if (parallel_ok && ctx->pool() != nullptr) {
    ctx->pool()->ParallelForEach(static_cast<size_t>(extra_rollouts), 1,
                                 run_one);
  } else {
    for (size_t i = 0; i < static_cast<size_t>(extra_rollouts); ++i) {
      run_one(i);
    }
  }
  for (const InferenceResult& local : locals) {
    if (local.best_cost < result->best_cost) {
      result->best_cost = local.best_cost;
      result->best_state = local.best_state;
    }
  }
}

/// One step of the greedy pruned rollout, cached so the extra rollouts can
/// replay the shared greedy prefix without re-deriving it from the Q-network.
struct TrajStep {
  int action = 0;
  size_t legal_count = 0;  ///< Q-values the replay never computes
  bool priced = false;     ///< cost below is exact (else a lower bound)
  double cost = 0.0;
};

/// Counter deltas of one pruned rollout, accumulated locally and flushed to
/// the registry once per inference call.
struct PruneCounters {
  uint64_t q_evals = 0;
  uint64_t actions_pruned = 0;
  uint64_t eval_prunes = 0;
  uint64_t cutoffs = 0;

  void MergeFrom(const PruneCounters& other) {
    q_evals += other.q_evals;
    actions_pruned += other.actions_pruned;
    eval_prunes += other.eval_prunes;
    cutoffs += other.cutoffs;
  }
  void Flush() const {
    auto& tm = TrainerMetrics::Get();
    tm.q_evals.Add(q_evals);
    tm.actions_pruned.Add(actions_pruned);
    tm.eval_prunes.Add(eval_prunes);
    tm.rollout_cutoffs.Add(cutoffs);
  }
};

/// One ε-randomized pruned extra rollout. Mirrors `Rollout` draw-for-draw
/// (one Uniform per step when ε > 0, one UniformInt per exploration step) so
/// the trajectory is identical to the unpruned rollout's; only provably
/// non-improving incumbent updates, exact pricings, and Q forward passes are
/// skipped. `greedy_best` is the finished greedy rollout's best cost — a
/// sound pruning threshold because the final merge takes a strict minimum
/// over it and all locals.
void PrunedExtraRollout(const DqnAgent& agent,
                        const search::ActionPruner& pruner,
                        const std::vector<double>& frequencies,
                        const partition::Featurizer& featurizer,
                        const partition::ActionSpace& actions,
                        const std::vector<TrajStep>& traj, double greedy_best,
                        double epsilon, Rng* rng, InferenceResult* local,
                        PruneCounters* counters,
                        partition::PartitioningState state) {
  TrainerMetrics::Get().inference_rollouts.Add();
  auto session = pruner.NewSession();
  const double slack = 1.0 + pruner.prune_epsilon();
  const int tmax = agent.config().tmax;
  bool prefix_intact = true;
  for (int t = 0; t < tmax; ++t) {
    bool explore =
        epsilon > 0.0 && rng != nullptr && rng->Uniform() < epsilon;
    if (!explore && prefix_intact && t < static_cast<int>(traj.size())) {
      // Replay the cached greedy prefix: same state, same deterministic
      // Q-argmax — no forward pass needed.
      const TrajStep& step = traj[static_cast<size_t>(t)];
      LPA_CHECK(actions.Apply(step.action, &state).ok());
      session->Defer(actions.AffectedTables(step.action));
      counters->actions_pruned += step.legal_count;
      if (step.priced && step.cost < local->best_cost) {
        // An unpriced step's cost is bounded below by the greedy incumbent
        // of its time, hence by greedy_best: it can never win the final
        // merge, so skipping its update is sound.
        local->best_cost = step.cost;
        local->best_state = state;
      }
      continue;
    }
    int action;
    if (explore) {
      std::vector<int> legal = actions.LegalActions(state);
      action = legal[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      prefix_intact = false;
    } else {
      std::vector<double> enc = featurizer.EncodeState(state, frequencies);
      std::vector<int> legal = actions.LegalActions(state);
      action = agent.GreedyAction(enc, legal);
      ++counters->q_evals;
    }
    LPA_CHECK(actions.Apply(action, &state).ok());
    double threshold = std::min(local->best_cost, greedy_best);
    auto priced = session->PriceOrPrune(
        state, actions.AffectedTables(action), frequencies, threshold);
    if (!priced.exact) {
      ++counters->eval_prunes;
      continue;
    }
    if (priced.cost < local->best_cost) {
      local->best_cost = priced.cost;
      local->best_state = state;
    }
    int remaining = tmax - (t + 1);
    if (remaining > 0) {
      double reachable = session->ReachableLowerBound(frequencies, remaining);
      if (reachable * slack >= std::min(local->best_cost, greedy_best)) {
        // Nothing the rollout can still reach improves the incumbent.
        ++counters->cutoffs;
        break;
      }
    }
  }
}

}  // namespace

InferenceResult EpisodeTrainer::Infer(const DqnAgent& agent,
                                      PartitioningEnv* env,
                                      const std::vector<double>& frequencies,
                                      EvalContext* ctx) const {
  StateObjective objective = MakeEnvObjective(env, &frequencies, ctx)();
  partition::PartitioningState state = InitialState();
  InferenceResult result{state, objective(state), {}};
  Rollout(agent, objective, frequencies, *featurizer_, *actions_, 0.0, nullptr,
          /*record_actions=*/true, &result, state);
  return result;
}

InferenceResult EpisodeTrainer::InferBest(
    const DqnAgent& agent, PartitioningEnv* env,
    const std::vector<double>& frequencies, int extra_rollouts, double epsilon,
    EvalContext* ctx) const {
  InferenceResult result = Infer(agent, env, frequencies, ctx);
  // Inside a parallel rollout each objective call must not itself fan out
  // onto the pool, so the extras price states without a context; per-query
  // costs still hit the (thread-safe) offline cache.
  ObjectiveFactory factory = MakeEnvObjective(env, &frequencies, nullptr);
  ExtraRollouts(agent, factory, frequencies, *featurizer_, *actions_,
                InitialState(), extra_rollouts, epsilon, ctx,
                /*parallel_ok=*/env->PureQueryCost(), &result);
  return result;
}

InferenceResult EpisodeTrainer::InferBestPruned(
    const DqnAgent& agent, PartitioningEnv* env,
    const std::vector<double>& frequencies, int extra_rollouts, double epsilon,
    const search::ActionPruner& pruner, EvalContext* ctx) const {
  if (!env->PureQueryCost()) {
    // The bounds rely on the pure query-cost contract; environments without
    // it (the online env's measured runtimes) price every state as usual.
    return InferBest(agent, env, frequencies, extra_rollouts, epsilon, ctx);
  }
  telemetry::Span span("rl.infer_pruned");
  auto& tm = TrainerMetrics::Get();
  const int tmax = agent.config().tmax;
  PruneCounters counters;

  // Greedy rollout: actions stay fully Q-driven (the trajectory is part of
  // the result, so no step may be skipped); pricing uses the bound — a state
  // that provably cannot beat the incumbent is never costed exactly.
  tm.inference_rollouts.Add();
  auto session = pruner.NewSession();
  partition::PartitioningState state = InitialState();
  InferenceResult result{state, session->PriceExact(state, frequencies),
                         {}};
  std::vector<TrajStep> traj;
  traj.reserve(static_cast<size_t>(tmax));
  for (int t = 0; t < tmax; ++t) {
    std::vector<double> enc = featurizer_->EncodeState(state, frequencies);
    std::vector<int> legal = actions_->LegalActions(state);
    int action = agent.GreedyAction(enc, legal);
    ++counters.q_evals;
    LPA_CHECK(actions_->Apply(action, &state).ok());
    result.actions.push_back(action);
    auto priced = session->PriceOrPrune(
        state, actions_->AffectedTables(action), frequencies,
        result.best_cost);
    if (priced.exact) {
      if (priced.cost < result.best_cost) {
        result.best_cost = priced.cost;
        result.best_state = state;
      }
    } else {
      ++counters.eval_prunes;
    }
    traj.push_back(
        TrajStep{action, legal.size(), priced.exact, priced.cost});
  }

  if (extra_rollouts > 0 && ctx != nullptr) {
    std::vector<Rng> rngs = ctx->ForkRngs(static_cast<size_t>(extra_rollouts));
    std::vector<InferenceResult> locals(
        static_cast<size_t>(extra_rollouts),
        InferenceResult{InitialState(),
                        std::numeric_limits<double>::infinity(),
                        {}});
    std::vector<PruneCounters> local_counters(
        static_cast<size_t>(extra_rollouts));
    const double greedy_best = result.best_cost;
    auto run_one = [&](size_t i) {
      PrunedExtraRollout(agent, pruner, frequencies, *featurizer_, *actions_,
                         traj, greedy_best, epsilon, &rngs[i], &locals[i],
                         &local_counters[i], InitialState());
    };
    if (env->PureQueryCost() && ctx->pool() != nullptr) {
      ctx->pool()->ParallelForEach(static_cast<size_t>(extra_rollouts), 1,
                                   run_one);
    } else {
      for (size_t i = 0; i < static_cast<size_t>(extra_rollouts); ++i) {
        run_one(i);
      }
    }
    // Strict-< merge in rollout-index order: identical whether the rollouts
    // ran serially or on the pool.
    for (const InferenceResult& local : locals) {
      if (local.best_cost < result.best_cost) {
        result.best_cost = local.best_cost;
        result.best_state = local.best_state;
      }
    }
    for (const PruneCounters& lc : local_counters) counters.MergeFrom(lc);
  }
  counters.Flush();
  return result;
}

InferenceResult EpisodeTrainer::InferObjective(
    const DqnAgent& agent, const std::vector<double>& frequencies,
    const ObjectiveFactory& objective_factory, int extra_rollouts,
    double epsilon, EvalContext* ctx) const {
  StateObjective objective = objective_factory();
  partition::PartitioningState state = InitialState();
  InferenceResult result{state, objective(state), {}};
  Rollout(agent, objective, frequencies, *featurizer_, *actions_, 0.0, nullptr,
          /*record_actions=*/true, &result, state);
  ExtraRollouts(agent, objective_factory, frequencies, *featurizer_, *actions_,
                InitialState(), extra_rollouts, epsilon, ctx,
                /*parallel_ok=*/true, &result);
  return result;
}

EpisodeTrainer::ObjectiveFactory MakeEnvObjective(
    PartitioningEnv* env, const std::vector<double>* frequencies,
    EvalContext* ctx) {
  return [env, frequencies, ctx]() -> EpisodeTrainer::StateObjective {
    return [env, frequencies, ctx](const partition::PartitioningState& s) {
      return env->WorkloadCost(s, *frequencies, ctx);
    };
  };
}

}  // namespace lpa::rl
