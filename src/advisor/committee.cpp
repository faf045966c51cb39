#include "advisor/committee.h"

#include <algorithm>

#include "util/hash.h"
#include "util/logging.h"

namespace lpa::advisor {

SubspaceCommittee::SubspaceCommittee(PartitioningAdvisor* naive,
                                     rl::PartitioningEnv* env,
                                     CommitteeConfig config, EvalContext* ctx)
    : naive_(naive),
      config_(std::move(config)),
      own_ctx_(/*threads=*/1, HashCombine(config_.seed, 0xc0ff33ULL)) {
  references_ = DeriveReferences(env, ctx);
  experts_.resize(references_.size());
  TrainExperts(0, env, config_.expert_episodes, ctx);
}

void SubspaceCommittee::TrainExperts(size_t first, rl::PartitioningEnv* env,
                                     int episodes, EvalContext* ctx) {
  ThreadPool* pool = ctx != nullptr ? ctx->pool() : nullptr;
  auto train_one = [&](size_t k) {
    experts_[k] = TrainExpert(static_cast<int>(k), env, episodes, pool);
  };
  size_t count = references_.size() - first;
  if (pool != nullptr && env->PureQueryCost() && count > 1) {
    // Each expert's RNG stream depends only on (committee seed, subspace),
    // so concurrent training fills experts_ with the same agents the serial
    // loop would produce.
    pool->ParallelForEach(count, 1, [&](size_t i) { train_one(first + i); });
  } else {
    for (size_t k = first; k < references_.size(); ++k) train_one(k);
  }
}

std::vector<partition::PartitioningState> SubspaceCommittee::DeriveReferences(
    rl::PartitioningEnv* env, EvalContext* ctx) const {
  // Probe the naive model with per-query over-represented mixes; many
  // queries share (cost-equivalent) answers, so the set stays small. A
  // candidate becomes a new reference only when no existing reference serves
  // its probe mix within 1% — textual design differences on tables the mix
  // never touches do not create spurious experts.
  std::vector<partition::PartitioningState> refs = references_;
  int m = naive_->workload().num_queries();
  for (int hot = 0; hot < m; ++hot) {
    auto freqs = workload::OverRepresentedFrequencies(
        m, hot, config_.low_frequency, config_.high_frequency);
    auto result = naive_->Suggest(freqs, env, ctx);
    double candidate_cost = env->WorkloadCost(result.best_state, freqs, ctx);
    bool covered = false;
    for (const auto& ref : refs) {
      if (env->WorkloadCost(ref, freqs) <= candidate_cost * 1.01) {
        covered = true;
        break;
      }
    }
    if (!covered) refs.push_back(result.best_state);
  }
  return refs;
}

int SubspaceCommittee::AssignSubspace(const std::vector<double>& frequencies,
                                      rl::PartitioningEnv* env) const {
  LPA_CHECK(!references_.empty());
  int best = 0;
  double best_cost = env->WorkloadCost(references_[0], frequencies);
  for (int k = 1; k < static_cast<int>(references_.size()); ++k) {
    double cost = env->WorkloadCost(references_[static_cast<size_t>(k)],
                                    frequencies);
    if (cost < best_cost) {
      best_cost = cost;
      best = k;
    }
  }
  return best;
}

std::unique_ptr<rl::DqnAgent> SubspaceCommittee::TrainExpert(
    int subspace, rl::PartitioningEnv* env, int episodes, ThreadPool* pool) {
  rl::DqnConfig config = naive_->config().dqn;
  config.seed = HashCombine(config_.seed, static_cast<uint64_t>(subspace));
  config.tmax = std::max(config.tmax, naive_->schema().num_tables());
  auto expert = std::make_unique<rl::DqnAgent>(&naive_->featurizer(),
                                               &naive_->actions(), config);
  // Experts start from the trained naive model's weights and a low ε: the
  // committee specialises an already-capable policy rather than exploring
  // from scratch, and the runtime cache prices most designs already.
  expert->CopyWeightsFrom(*naive_->agent());
  expert->set_epsilon(
      naive_->EpsilonAfter(naive_->config().offline_episodes / 2));

  int m = naive_->workload().num_queries();
  int attempts = config_.max_sampling_attempts;
  rl::FrequencySampler sampler = [this, env, subspace, m,
                                  attempts](Rng* rng) {
    // Rejection-sample mixes belonging to this expert's subspace.
    for (int i = 0; i < attempts; ++i) {
      auto freqs = workload::SampleUniformFrequencies(m, rng);
      if (AssignSubspace(freqs, env) == subspace) return freqs;
    }
    return workload::SampleUniformFrequencies(m, rng);
  };
  // Child context: borrows the caller's pool (null = serial) with an RNG
  // stream derived purely from (committee seed, expert-train salt, subspace)
  // — independent of training order and thread count.
  EvalContext expert_ctx(
      pool, HashCombine(HashCombine(config_.seed, 0x7ea1ULL),
                        static_cast<uint64_t>(subspace)));
  naive_->trainer().Train(expert.get(), env, sampler, episodes, &expert_ctx);
  return expert;
}

rl::InferenceResult SubspaceCommittee::Suggest(
    const std::vector<double>& frequencies, rl::PartitioningEnv* env,
    EvalContext* ctx) const {
  if (ctx == nullptr) ctx = &own_ctx_;
  int k = AssignSubspace(frequencies, env);
  const auto& config = naive_->config();
  if (config.inference_extra_rollouts <= 0) {
    return naive_->trainer().Infer(*experts_[static_cast<size_t>(k)], env,
                                   frequencies, ctx);
  }
  return naive_->trainer().InferBest(
      *experts_[static_cast<size_t>(k)], env, frequencies,
      config.inference_extra_rollouts, config.inference_epsilon, ctx);
}

int SubspaceCommittee::UpdateForNewQueries(rl::PartitioningEnv* env,
                                           EvalContext* ctx) {
  auto fresh = DeriveReferences(env, ctx);
  size_t first_new = references_.size();
  for (auto& ref : fresh) {
    std::string key = ref.PhysicalDesignKey();
    bool known = false;
    for (const auto& existing : references_) {
      if (existing.PhysicalDesignKey() == key) {
        known = true;
        break;
      }
    }
    if (known) continue;
    references_.push_back(ref);
  }
  int new_experts = static_cast<int>(references_.size() - first_new);
  experts_.resize(references_.size());
  // New subspaces get a shorter training run: the runtime cache already
  // prices most designs (Sec 5).
  TrainExperts(first_new, env, config_.expert_episodes / 2, ctx);
  return new_experts;
}

}  // namespace lpa::advisor
