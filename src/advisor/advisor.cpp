#include "advisor/advisor.h"

#include <algorithm>
#include <cmath>

#include "search/action_pruner.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lpa::advisor {

namespace {

struct AdvisorMetrics {
  telemetry::Counter& suggestions;

  static AdvisorMetrics& Get() {
    auto& reg = telemetry::MetricsRegistry::Global();
    static AdvisorMetrics* m =
        new AdvisorMetrics{reg.GetCounter("advisor.suggestions.count")};
    return *m;
  }
};

}  // namespace

PartitioningAdvisor::PartitioningAdvisor(const schema::Schema* schema,
                                         workload::Workload workload,
                                         AdvisorConfig config)
    : schema_(schema),
      workload_(std::move(workload)),
      config_(std::move(config)),
      edges_(partition::EdgeSet::Extract(*schema, workload_)),
      actions_(schema, &edges_),
      own_ctx_(/*threads=*/1, HashCombine(config_.seed, 0xad7150ULL)) {
  featurizers_.push_back(std::make_unique<partition::Featurizer>(
      schema, &edges_,
      workload_.num_queries() + config_.reserve_query_slots));
  rl::DqnConfig dqn = config_.dqn;
  dqn.seed = config_.seed;
  dqn.tmax = std::max(dqn.tmax, schema->num_tables());
  agent_ = std::make_unique<rl::DqnAgent>(featurizers_.back().get(), &actions_,
                                          dqn);
  trainer_ = std::make_unique<rl::EpisodeTrainer>(schema, &edges_, &actions_,
                                                  featurizers_.back().get());
}

PartitioningAdvisor::~PartitioningAdvisor() = default;

rl::FrequencySampler PartitioningAdvisor::DefaultSampler() const {
  int m = workload_.num_queries();
  return [m](Rng* rng) { return workload::SampleUniformFrequencies(m, rng); };
}

const partition::Featurizer& PartitioningAdvisor::featurizer() const {
  LPA_CHECK(!featurizers_.empty());
  return *featurizers_.back();
}

double PartitioningAdvisor::EpsilonAfter(int episodes) const {
  double eps = config_.dqn.epsilon_start *
               std::pow(config_.dqn.epsilon_decay, episodes);
  return std::max(eps, config_.dqn.epsilon_min);
}

rl::TrainingResult PartitioningAdvisor::TrainOffline(
    const costmodel::CostModel* model, rl::FrequencySampler sampler,
    EvalContext* ctx) {
  telemetry::Span span("advisor.train_offline");
  offline_env_ = std::make_unique<rl::OfflineEnv>(model, &workload_);
  pruner_.reset();  // bound to the previous environment's cost function
  if (!sampler) sampler = DefaultSampler();
  return trainer_->Train(agent_.get(), offline_env_.get(), sampler,
                         config_.offline_episodes, ResolveCtx(ctx));
}

rl::TrainingResult PartitioningAdvisor::TrainOnline(
    rl::OnlineEnv* env, rl::FrequencySampler sampler, EvalContext* ctx) {
  telemetry::Span span("advisor.train_online");
  // Warm exploration restart (Sec 4.2): the ε the offline schedule reaches
  // after half the usual number of episodes.
  agent_->set_epsilon(EpsilonAfter(config_.offline_episodes / 2));
  // Seed the timeout rule with r_offline (Sec 4.2): measure the offline
  // solution once so obviously inferior partitionings get cut early.
  if (offline_env_ != nullptr && env->best_known_cost() < 0.0 &&
      env->options().use_timeouts) {
    std::vector<double> uniform(
        static_cast<size_t>(workload_.num_queries()), 1.0);
    auto p_offline = Suggest(uniform, ctx);
    env->WorkloadCost(p_offline.best_state, uniform);
  }
  if (!sampler) sampler = DefaultSampler();
  return trainer_->Train(agent_.get(), env, sampler, config_.online_episodes,
                         ResolveCtx(ctx));
}

rl::InferenceResult PartitioningAdvisor::Suggest(
    const std::vector<double>& frequencies, EvalContext* ctx) {
  LPA_CHECK(offline_env_ != nullptr);  // inference reuses the simulation
  return Suggest(frequencies, offline_env_.get(), ctx);
}

rl::InferenceResult PartitioningAdvisor::Suggest(
    const std::vector<double>& frequencies, rl::PartitioningEnv* env,
    EvalContext* ctx) {
  telemetry::Span span("advisor.suggest");
  AdvisorMetrics::Get().suggestions.Add();
  if (config_.inference_extra_rollouts <= 0) {
    return trainer_->Infer(*agent_, env, frequencies, ResolveCtx(ctx));
  }
  return trainer_->InferBest(*agent_, env, frequencies,
                             config_.inference_extra_rollouts,
                             config_.inference_epsilon, ResolveCtx(ctx));
}

rl::InferenceResult PartitioningAdvisor::Suggest(
    const std::vector<double>& frequencies, const SuggestOptions& options,
    EvalContext* ctx) {
  LPA_CHECK(offline_env_ != nullptr);  // inference reuses the simulation
  if (!options.prune_rollouts) {
    return Suggest(frequencies, offline_env_.get(), ctx);
  }
  telemetry::Span span("advisor.suggest");
  AdvisorMetrics::Get().suggestions.Add();
  LPA_CHECK(options.prune_epsilon >= 0.0);
  if (pruner_ == nullptr || pruner_epsilon_ != options.prune_epsilon) {
    search::ActionPrunerConfig pc;
    pc.prune_epsilon = options.prune_epsilon;
    rl::OfflineEnv* env = offline_env_.get();
    pruner_ = std::make_unique<search::ActionPruner>(
        schema_, &workload_, &edges_,
        [env](int j, const partition::PartitioningState& s) {
          return env->QueryCost(j, s, 1.0);
        },
        pc);
    pruner_epsilon_ = options.prune_epsilon;
  }
  return trainer_->InferBestPruned(
      *agent_, offline_env_.get(), frequencies,
      config_.inference_extra_rollouts, config_.inference_epsilon, *pruner_,
      ResolveCtx(ctx));
}

rl::InferenceResult PartitioningAdvisor::SuggestWithTransitionCost(
    const std::vector<double>& frequencies,
    const partition::PartitioningState& current_design, double weight,
    const costmodel::CostModel* model, EvalContext* ctx) {
  telemetry::Span span("advisor.suggest");
  AdvisorMetrics::Get().suggestions.Add();
  LPA_CHECK(offline_env_ != nullptr);
  // Each rollout gets its own objective: the workload term, priced through
  // the offline env's cost cache, plus the repartitioning penalty.
  auto workload_factory =
      rl::MakeEnvObjective(offline_env_.get(), &frequencies, nullptr);
  rl::EpisodeTrainer::ObjectiveFactory factory =
      [&workload_factory, &current_design, weight,
       model]() -> rl::EpisodeTrainer::StateObjective {
    auto workload_term = workload_factory();
    return [workload_term, &current_design, weight,
            model](const partition::PartitioningState& s) {
      return workload_term(s) +
             weight * model->RepartitioningCost(current_design, s);
    };
  };
  return trainer_->InferObjective(*agent_, frequencies, factory,
                                  config_.inference_extra_rollouts,
                                  config_.inference_epsilon, ResolveCtx(ctx));
}

std::vector<int> PartitioningAdvisor::AddQueries(
    std::vector<workload::QuerySpec> queries) {
  std::vector<int> indices;
  for (auto& q : queries) {
    indices.push_back(workload_.AddQuery(std::move(q)));
  }
  // The offline env precomputes per-query table lists; extend them to cover
  // the appended queries before any further evaluation.
  if (offline_env_ != nullptr) offline_env_->SyncWorkload();
  // The pruner's per-query floors do not cover the new queries; rebuild it
  // lazily on the next pruned Suggest.
  pruner_.reset();
  int slots = featurizers_.back()->num_query_slots();
  if (workload_.num_queries() > slots) {
    int extra = workload_.num_queries() - slots;
    featurizers_.push_back(std::make_unique<partition::Featurizer>(
        schema_, &edges_, workload_.num_queries()));
    agent_->ExtendStateInputs(extra, featurizers_.back().get());
    trainer_ = std::make_unique<rl::EpisodeTrainer>(
        schema_, &edges_, &actions_, featurizers_.back().get());
  }
  return indices;
}

rl::TrainingResult PartitioningAdvisor::TrainIncremental(
    rl::PartitioningEnv* env, const std::vector<int>& new_queries,
    int episodes, EvalContext* ctx) {
  telemetry::Span span("advisor.train_incremental");
  // Incremental training explores little: start from the ε of a mostly
  // trained agent, and only sample mixes where the new queries occur.
  agent_->set_epsilon(EpsilonAfter(config_.offline_episodes / 2));
  int m = workload_.num_queries();
  std::vector<int> boosted = new_queries;
  rl::FrequencySampler sampler = [m, boosted](Rng* rng) {
    return workload::SampleBoostedFrequencies(m, boosted, rng);
  };
  return trainer_->Train(agent_.get(), env, sampler, episodes,
                         ResolveCtx(ctx));
}

}  // namespace lpa::advisor
