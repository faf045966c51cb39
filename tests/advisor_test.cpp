#include "advisor/advisor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "advisor/advisor_handle.h"
#include "advisor/committee.h"
#include "schema/catalogs.h"
#include "workload/benchmarks.h"

namespace lpa::advisor {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using partition::PartitioningState;

AdvisorConfig FastConfig() {
  AdvisorConfig config;
  config.dqn.tmax = 10;
  config.dqn.epsilon_decay = 0.95;
  config.offline_episodes = 50;
  config.online_episodes = 10;
  config.seed = 21;
  return config;
}

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest()
      : schema_(schema::MakeSsbSchema()),
        workload_(workload::MakeSsbWorkload(schema_)),
        model_(&schema_, HardwareProfile::DiskBased10G()) {}

  schema::Schema schema_;
  workload::Workload workload_;
  CostModel model_;
};

TEST_F(AdvisorTest, EndToEndOfflineSuggest) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  auto result = advisor.TrainOffline(&model_);
  EXPECT_EQ(result.episode_best_rewards.size(), 50u);

  std::vector<double> uniform(13, 1.0);
  auto suggestion = advisor.Suggest(uniform);
  // The suggested design must beat the naive initial design per the model.
  auto s0 = PartitioningState::Initial(&schema_, &advisor.edges());
  workload::Workload w = workload_;
  w.SetUniformFrequencies();
  EXPECT_LT(suggestion.best_cost, model_.WorkloadCost(w, s0));
}

TEST_F(AdvisorTest, SuggestWithoutTrainingFailsWithStatus) {
  // Through the lifecycle API this is a recoverable error, not an abort.
  AdvisorHandle handle(&schema_, workload_, FastConfig());
  SuggestRequest request;
  request.frequencies = std::vector<double>(13, 1.0);
  auto suggestion = handle.Suggest(request);
  ASSERT_FALSE(suggestion.ok());
  EXPECT_EQ(suggestion.status().code(), Status::Code::kFailedPrecondition);
}

TEST_F(AdvisorTest, SuggestRejectsNonFiniteFrequencies) {
  // A NaN weight used to come back OK with best_cost = nan and the initial
  // design: the f <= 0 skip lets NaN through and no cost compares below it.
  AdvisorHandle handle(&schema_, workload_, FastConfig());
  ASSERT_TRUE(handle.Train(TrainSpec::Offline(&model_, /*episodes=*/8)).ok());
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    SuggestRequest request;
    request.frequencies = std::vector<double>(13, 1.0);
    request.frequencies[3] = bad;
    auto suggestion = handle.Suggest(request);
    ASSERT_FALSE(suggestion.ok()) << bad;
    EXPECT_EQ(suggestion.status().code(), Status::Code::kInvalidArgument);
  }
  // Negative entries are still served, as weight 0.
  SuggestRequest request;
  request.frequencies = std::vector<double>(13, 1.0);
  request.frequencies[3] = -1.0;
  EXPECT_TRUE(handle.Suggest(request).ok());
}

TEST_F(AdvisorTest, TmaxIsRaisedToTableCount) {
  AdvisorConfig config = FastConfig();
  config.dqn.tmax = 2;  // below |T| = 5: reachability would break
  PartitioningAdvisor advisor(&schema_, workload_, config);
  EXPECT_GE(advisor.agent()->config().tmax, schema_.num_tables());
}

TEST_F(AdvisorTest, EpsilonWarmRestartForOnlinePhase) {
  AdvisorConfig config = FastConfig();
  PartitioningAdvisor advisor(&schema_, workload_, config);
  double warm = advisor.EpsilonAfter(config.offline_episodes / 2);
  EXPECT_LT(warm, 1.0);
  EXPECT_GE(warm, config.dqn.epsilon_min);
}

TEST_F(AdvisorTest, AddQueriesUsesReserveSlotsWithoutGrowingNetwork) {
  AdvisorConfig config = FastConfig();
  config.reserve_query_slots = 3;
  PartitioningAdvisor advisor(&schema_, workload_, config);
  int dim_before = advisor.featurizer().state_dim();
  advisor.TrainOffline(&model_);

  workload::QuerySpec fresh = workload_.query(2);
  fresh.name = "new_query";
  auto indices = advisor.AddQueries({fresh});
  EXPECT_EQ(indices, std::vector<int>{13});
  EXPECT_EQ(advisor.featurizer().state_dim(), dim_before);  // slot reused
  EXPECT_EQ(advisor.workload().num_queries(), 14);
}

TEST_F(AdvisorTest, AddQueriesBeyondReserveGrowsNetwork) {
  AdvisorConfig config = FastConfig();
  config.reserve_query_slots = 0;
  PartitioningAdvisor advisor(&schema_, workload_, config);
  advisor.TrainOffline(&model_);
  int dim_before = advisor.featurizer().state_dim();

  workload::QuerySpec fresh = workload_.query(2);
  fresh.name = "new_query";
  advisor.AddQueries({fresh});
  EXPECT_EQ(advisor.featurizer().state_dim(), dim_before + 1);

  // Incremental training over mixes boosting the new query still works.
  rl::OfflineEnv env(&model_, &advisor.workload());
  auto result = advisor.TrainIncremental(&env, {13}, 5);
  EXPECT_EQ(result.episode_best_rewards.size(), 5u);
}

TEST_F(AdvisorTest, CommitteeReferencesAreDeduplicated) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  advisor.TrainOffline(&model_);
  CommitteeConfig committee_config;
  committee_config.expert_episodes = 5;
  SubspaceCommittee committee(&advisor, advisor.offline_env(),
                              committee_config);
  // 13 probes collapse into far fewer distinct reference partitionings.
  EXPECT_GE(committee.num_experts(), 1);
  EXPECT_LT(committee.num_experts(), 13);
  EXPECT_EQ(committee.reference_partitionings().size(),
            static_cast<size_t>(committee.num_experts()));
}

TEST_F(AdvisorTest, CommitteeAssignmentIsConsistentWithCosts) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  advisor.TrainOffline(&model_);
  CommitteeConfig committee_config;
  committee_config.expert_episodes = 5;
  SubspaceCommittee committee(&advisor, advisor.offline_env(),
                              committee_config);
  Rng rng(31);
  for (int i = 0; i < 5; ++i) {
    auto freqs = workload::SampleUniformFrequencies(13, &rng);
    int k = committee.AssignSubspace(freqs, advisor.offline_env());
    double assigned_cost = advisor.offline_env()->WorkloadCost(
        committee.reference_partitionings()[static_cast<size_t>(k)], freqs);
    for (const auto& ref : committee.reference_partitionings()) {
      EXPECT_LE(assigned_cost,
                advisor.offline_env()->WorkloadCost(ref, freqs) + 1e-9);
    }
  }
}

TEST_F(AdvisorTest, CommitteeSuggestRunsExpertInference) {
  PartitioningAdvisor advisor(&schema_, workload_, FastConfig());
  advisor.TrainOffline(&model_);
  CommitteeConfig committee_config;
  committee_config.expert_episodes = 5;
  SubspaceCommittee committee(&advisor, advisor.offline_env(),
                              committee_config);
  std::vector<double> uniform(13, 1.0);
  auto result = committee.Suggest(uniform, advisor.offline_env());
  EXPECT_GT(result.best_cost, 0.0);
  EXPECT_FALSE(result.actions.empty());
}

TEST_F(AdvisorTest, CommitteeIncrementalUpdateAddsAtMostNewReferences) {
  AdvisorConfig config = FastConfig();
  config.reserve_query_slots = 2;
  PartitioningAdvisor advisor(&schema_, workload_, config);
  advisor.TrainOffline(&model_);
  CommitteeConfig committee_config;
  committee_config.expert_episodes = 5;
  SubspaceCommittee committee(&advisor, advisor.offline_env(),
                              committee_config);
  int before = committee.num_experts();

  workload::QuerySpec fresh = workload_.query(5);
  fresh.name = "incremental_query";
  auto indices = advisor.AddQueries({fresh});
  advisor.TrainIncremental(advisor.offline_env(), indices, 5);
  int added = committee.UpdateForNewQueries(advisor.offline_env());
  EXPECT_GE(added, 0);
  EXPECT_EQ(committee.num_experts(), before + added);
}

}  // namespace
}  // namespace lpa::advisor
