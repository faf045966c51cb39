#include "rl/trainer.h"

#include <gtest/gtest.h>

#include <vector>

#include "rl/offline_env.h"
#include "rl/online_env.h"
#include "rl/replay.h"
#include "schema/catalogs.h"
#include "workload/benchmarks.h"

namespace lpa::rl {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using partition::ActionSpace;
using partition::EdgeSet;
using partition::Featurizer;
using partition::PartitioningState;

Transition MakeTransition(int action_id) {
  Transition t;
  t.state_enc = {static_cast<double>(action_id), 1.0};
  t.action_id = action_id;
  t.reward = 0.5 * action_id;
  t.next_enc = {static_cast<double>(action_id) + 1.0, 1.0};
  t.next_legal = {0, action_id};
  return t;
}

TEST(ReplayBufferTest, FillsToCapacityThenEvictsOldest) {
  ReplayBuffer buffer(4);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 4u);

  for (int i = 0; i < 4; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buffer.at(i).action_id, static_cast<int>(i));
  }

  // One past capacity: the oldest transition (action 0) is overwritten in
  // place; size stays pinned at capacity.
  buffer.Add(MakeTransition(4));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.at(0).action_id, 4);
  EXPECT_EQ(buffer.at(1).action_id, 1);

  // A full extra lap overwrites every slot again.
  for (int i = 5; i < 9; ++i) buffer.Add(MakeTransition(i));
  EXPECT_EQ(buffer.size(), 4u);
  std::vector<int> stored;
  for (size_t i = 0; i < buffer.size(); ++i) {
    stored.push_back(buffer.at(i).action_id);
  }
  EXPECT_EQ(stored, (std::vector<int>{8, 5, 6, 7}));

  // Sampling never returns an evicted transition (actions 0..4).
  Rng rng(1);
  for (const Transition* t : buffer.Sample(16, &rng)) {
    EXPECT_GE(t->action_id, 5);
  }
}

TEST(ReplayBufferTest, SampleAtExactCapacityBoundary) {
  ReplayBuffer buffer(3);
  for (int i = 0; i < 3; ++i) buffer.Add(MakeTransition(i));

  Rng rng(42);
  // Sampling is with replacement, so counts beyond size are legal.
  std::vector<const Transition*> sample = buffer.Sample(10, &rng);
  ASSERT_EQ(sample.size(), 10u);
  for (const Transition* t : sample) {
    ASSERT_NE(t, nullptr);
    EXPECT_GE(t->action_id, 0);
    EXPECT_LT(t->action_id, 3);
  }

  // Seeded sampling is deterministic.
  Rng rng_a(7), rng_b(7);
  std::vector<const Transition*> a = buffer.Sample(6, &rng_a);
  std::vector<const Transition*> b = buffer.Sample(6, &rng_b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->action_id, b[i]->action_id);
  }
}

class SsbRlTest : public ::testing::Test {
 protected:
  SsbRlTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        actions_(&schema_, &edges_),
        featurizer_(&schema_, &edges_, workload_.num_queries()),
        // The disk-based profile has the most partitioning-sensitive cost
        // landscape (expensive row-shipping exchanges), which is what the
        // learning tests need.
        model_(&schema_, HardwareProfile::DiskBased10G()),
        env_(&model_, &workload_),
        trainer_(&schema_, &edges_, &actions_, &featurizer_) {}

  DqnConfig SmallConfig() const {
    DqnConfig config;
    config.tmax = 12;
    config.epsilon_decay = 0.96;
    config.seed = 3;
    return config;
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  ActionSpace actions_;
  Featurizer featurizer_;
  CostModel model_;
  OfflineEnv env_;
  EpisodeTrainer trainer_;
};

TEST_F(SsbRlTest, EpsilonGreedySelection) {
  DqnAgent agent(&featurizer_, &actions_, SmallConfig());
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> freqs(13, 1.0);
  auto enc = featurizer_.EncodeState(s0, freqs);
  auto legal = actions_.LegalActions(s0);

  // epsilon = 0: deterministic greedy choice.
  agent.set_epsilon(0.0);
  Rng rng(7);
  int a1 = agent.SelectAction(enc, legal, &rng);
  int a2 = agent.SelectAction(enc, legal, &rng);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1, agent.GreedyAction(enc, legal));

  // epsilon = 1: exploration covers many actions.
  agent.set_epsilon(1.0);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(agent.SelectAction(enc, legal, &rng));
  EXPECT_GT(seen.size(), legal.size() / 2);
}

TEST_F(SsbRlTest, EpsilonDecaySchedule) {
  DqnConfig config = SmallConfig();
  config.epsilon_decay = 0.5;
  config.epsilon_min = 0.1;
  DqnAgent agent(&featurizer_, &actions_, config);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.5);
  for (int i = 0; i < 10; ++i) agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.1);  // floors at epsilon_min
}

TEST_F(SsbRlTest, QValuesMatchBetweenModes) {
  // Both network modes produce per-action Q values of the right arity.
  for (QNetworkMode mode :
       {QNetworkMode::kMultiHead, QNetworkMode::kStateActionInput}) {
    DqnConfig config = SmallConfig();
    config.mode = mode;
    DqnAgent agent(&featurizer_, &actions_, config);
    auto s0 = PartitioningState::Initial(&schema_, &edges_);
    std::vector<double> freqs(13, 1.0);
    auto enc = featurizer_.EncodeState(s0, freqs);
    auto legal = actions_.LegalActions(s0);
    auto q = agent.QValues(enc, legal);
    EXPECT_EQ(q.size(), legal.size());
    for (double v : q) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(SsbRlTest, OfflineTrainingImprovesOnInitialDesign) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  EvalContext ctx(/*threads=*/1, /*seed=*/11);
  auto sampler = [](Rng*) { return std::vector<double>(13, 1.0); };
  auto result = trainer_.Train(&agent, &env_, sampler, 60, &ctx);
  EXPECT_EQ(result.episode_best_rewards.size(), 60u);

  std::vector<double> uniform(13, 1.0);
  auto inference = trainer_.Infer(agent, &env_, uniform);
  double s0_cost =
      env_.WorkloadCost(PartitioningState::Initial(&schema_, &edges_), uniform);
  // The agent must find a design at least 20% better than per-PK hashing
  // (replicating the small dimensions alone achieves far more).
  EXPECT_LT(inference.best_cost, 0.8 * s0_cost);
}

TEST_F(SsbRlTest, InferenceReturnsBestOnTrajectoryNotLast) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  std::vector<double> uniform(13, 1.0);
  // Even with an untrained agent, Infer must return the cheapest state it
  // visited (which is at least as good as any state on its rollout).
  auto result = trainer_.Infer(agent, &env_, uniform);
  EXPECT_EQ(static_cast<int>(result.actions.size()), config.tmax);
  double cost_of_best = env_.WorkloadCost(result.best_state, uniform);
  EXPECT_NEAR(cost_of_best, result.best_cost, 1e-9);
}

TEST_F(SsbRlTest, CacheMakesRepeatEvaluationsFree) {
  std::vector<double> uniform(13, 1.0);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  EvalContext pooled(/*threads=*/4, /*seed=*/1);
  for (EvalContext* ctx : {static_cast<EvalContext*>(nullptr), &pooled}) {
    OfflineEnv env(&model_, &workload_);  // cold cache
    double cold = env.WorkloadCost(s0, uniform, ctx);
    EXPECT_EQ(env.cache_hits(), 0u);
    size_t evals_before = env.evaluations();
    size_t hits_before = env.cache_hits();
    EXPECT_EQ(env.WorkloadCost(s0, uniform, ctx), cold);
    // Warm repeat: all 13 probes hit, so there are 0 misses to plan.
    EXPECT_EQ(env.evaluations(), evals_before + 13);
    EXPECT_EQ(env.cache_hits(), hits_before + 13);
  }
}

TEST_F(SsbRlTest, CacheKeyScopesToRelevantTables) {
  std::vector<double> uniform(13, 1.0);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  env_.WorkloadCost(s0, uniform);
  // Changing only `part` must not invalidate q1.1 (lineorder-date).
  auto changed = s0;
  ASSERT_TRUE(changed.Replicate(schema_.TableIndex("part")).ok());
  size_t hits_before = env_.cache_hits();
  env_.QueryCost(0, changed, 1.0);  // q1.1
  EXPECT_EQ(env_.cache_hits(), hits_before + 1);
}

TEST_F(SsbRlTest, ZeroFrequencyQueriesAreSkipped) {
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> only_q5(13, 0.0);
  only_q5[5] = 1.0;
  double cost = env_.WorkloadCost(s0, only_q5);
  EXPECT_NEAR(cost, env_.QueryCost(5, s0, 1.0), 1e-9);
}

TEST_F(SsbRlTest, ExtendStateInputsPreservesFunction) {
  DqnConfig config = SmallConfig();
  DqnAgent agent(&featurizer_, &actions_, config);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> freqs(13, 0.7);
  auto enc = featurizer_.EncodeState(s0, freqs);
  auto legal = actions_.LegalActions(s0);
  auto q_before = agent.QValues(enc, legal);

  Featurizer grown(&schema_, &edges_, 13 + 4);
  agent.ExtendStateInputs(4, &grown);
  auto enc_grown = grown.EncodeState(s0, freqs);
  auto q_after = agent.QValues(enc_grown, legal);
  for (size_t i = 0; i < q_before.size(); ++i) {
    EXPECT_NEAR(q_before[i], q_after[i], 1e-12);
  }
}

class OnlineEnvTest : public ::testing::Test {
 protected:
  OnlineEnvTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        planner_(&schema_, HardwareProfile::InMemory10G()) {}

  engine::ClusterDatabase MakeCluster(double fraction = 1e-4) {
    storage::GenerationConfig config;
    config.fraction = fraction;
    config.small_table_threshold = 200;
    config.seed = 5;
    return engine::ClusterDatabase(
        storage::Database::Generate(schema_, workload_, config),
        engine::EngineConfig{HardwareProfile::InMemory10G(), 0.0, 5},
        &planner_);
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel planner_;
};

TEST_F(OnlineEnvTest, RuntimeCacheAvoidsReexecution) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  env.WorkloadCost(s0, uniform);
  size_t executed = env.accounting().queries_executed;
  EXPECT_EQ(executed, 13u);
  env.WorkloadCost(s0, uniform);
  EXPECT_EQ(env.accounting().queries_executed, executed);  // all hits
  EXPECT_EQ(env.accounting().cache_hits, 13u);
}

TEST_F(OnlineEnvTest, DisablingCacheReexecutesEverything) {
  auto cluster = MakeCluster();
  OnlineEnvOptions options;
  options.use_runtime_cache = false;
  OnlineEnv env(&cluster, &workload_, {}, options);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  env.WorkloadCost(s0, uniform);
  env.WorkloadCost(s0, uniform);
  EXPECT_EQ(env.accounting().queries_executed, 26u);
  EXPECT_EQ(env.accounting().cache_hits, 0u);
}

TEST_F(OnlineEnvTest, LazyRepartitioningMovesOnlyQueriedTables) {
  auto lazy_cluster = MakeCluster();
  OnlineEnv lazy(&lazy_cluster, &workload_, {}, OnlineEnvOptions{});
  auto eager_cluster = MakeCluster();
  OnlineEnvOptions eager_options;
  eager_options.use_lazy_repartitioning = false;
  OnlineEnv eager(&eager_cluster, &workload_, {}, eager_options);

  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> only_q11(13, 0.0);
  only_q11[0] = 1.0;  // q1.1 touches lineorder and date only
  lazy.WorkloadCost(s0, only_q11);
  eager.WorkloadCost(s0, only_q11);

  // Now flip `part` (not referenced by q1.1): eager must pay, lazy must not.
  auto changed = s0;
  ASSERT_TRUE(changed.Replicate(schema_.TableIndex("part")).ok());
  double lazy_before = lazy.accounting().repartition_seconds;
  lazy.WorkloadCost(changed, only_q11);
  double eager_before = eager.accounting().repartition_seconds;
  eager.WorkloadCost(changed, only_q11);
  EXPECT_DOUBLE_EQ(lazy.accounting().repartition_seconds, lazy_before);
  EXPECT_GT(eager.accounting().repartition_seconds, eager_before);
}

TEST_F(OnlineEnvTest, ScaleFactorsInflateSampleRuntimes) {
  auto full = MakeCluster(2e-4);
  auto sample_cluster = MakeCluster(2e-4);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> s(13, 3.0);  // pretend the full DB is 3x slower
  OnlineEnv scaled(&sample_cluster, &workload_, s, OnlineEnvOptions{});
  OnlineEnv unscaled(&full, &workload_, {}, OnlineEnvOptions{});
  std::vector<double> uniform(13, 1.0);
  EXPECT_NEAR(scaled.WorkloadCost(s0, uniform),
              3.0 * unscaled.WorkloadCost(s0, uniform), 1e-6);
}

TEST_F(OnlineEnvTest, ComputeScaleFactorsFullVsSample) {
  auto full = MakeCluster(4e-4);
  auto small = MakeCluster(1e-4);
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  auto factors = ComputeScaleFactors(&full, &small, workload_, s0);
  ASSERT_EQ(factors.size(), 13u);
  // The full database is larger, so runtimes there are longer: S_i > 1 for
  // the fact-heavy queries.
  int greater = 0;
  for (double f : factors) greater += f > 1.0 ? 1 : 0;
  EXPECT_GE(greater, 10);
}

TEST_F(OnlineEnvTest, TimeoutsCutLongRuns) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  auto s0 = PartitioningState::Initial(&schema_, &edges_);
  std::vector<double> uniform(13, 1.0);
  double base = env.WorkloadCost(s0, uniform);
  // Pretend a fantastic design is known: every subsequent fresh execution
  // exceeds the budget and gets cut.
  env.SetBestKnownCost(base * 1e-6);
  auto expensive = s0;
  ASSERT_TRUE(expensive.Replicate(schema_.TableIndex("lineorder")).ok());
  double saved_before = env.accounting().timeout_saved_seconds;
  env.WorkloadCost(expensive, uniform);
  EXPECT_GT(env.accounting().timeout_saved_seconds, saved_before);
}

TEST_F(OnlineEnvTest, OnlineTrainingRunsEndToEnd) {
  auto cluster = MakeCluster();
  OnlineEnv env(&cluster, &workload_, {}, OnlineEnvOptions{});
  ActionSpace actions(&schema_, &edges_);
  Featurizer featurizer(&schema_, &edges_, workload_.num_queries());
  EpisodeTrainer trainer(&schema_, &edges_, &actions, &featurizer);
  DqnConfig config;
  config.tmax = 8;
  config.episodes = 5;
  config.seed = 9;
  DqnAgent agent(&featurizer, &actions, config);
  EvalContext ctx(/*threads=*/1, /*seed=*/13);
  auto sampler = [](Rng* r) { return workload::SampleUniformFrequencies(13, r); };
  auto result = trainer.Train(&agent, &env, sampler, 5, &ctx);
  EXPECT_EQ(result.episode_best_rewards.size(), 5u);
  EXPECT_GT(env.accounting().queries_executed, 0u);
  EXPECT_GT(env.accounting().cache_hits, 0u);
}

}  // namespace
}  // namespace lpa::rl
