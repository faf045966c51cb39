// Tests for the bounded-suboptimality design search subsystem (src/search/):
// the (1+ε) certificate of the cost-window DP against full enumeration, the
// admissibility of the per-query floors, the ActionPruner session mechanics,
// and the bit-identity of pruned inference rollouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/advisor_handle.h"
#include "baselines/dp_baseline.h"
#include "costmodel/cost_model.h"
#include "partition/partition_state.h"
#include "schema/catalogs.h"
#include "search/action_pruner.h"
#include "search/bounds.h"
#include "search/dp_designer.h"
#include "telemetry/registry.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa::search {
namespace {

using costmodel::CostModel;
using costmodel::HardwareProfile;
using partition::EdgeSet;
using partition::PartitioningState;
using partition::TablePartition;

class MicroSearchTest : public ::testing::Test {
 protected:
  MicroSearchTest()
      : schema_(schema::MakeMicroSchema()),
        workload_(workload::MakeMicroWorkload(schema_)),
        edges_(EdgeSet::Extract(schema_, workload_)),
        model_(&schema_, HardwareProfile::DiskBased10G()) {
    workload_.SetUniformFrequencies();
  }

  search::QueryCostFn QueryCost() const {
    return [this](int j, const PartitioningState& s) {
      return model_.QueryCost(workload_.query(j), s);
    };
  }

  std::vector<double> RandomFrequencies(Rng* rng) const {
    std::vector<double> f(static_cast<size_t>(workload_.num_queries()));
    for (double& v : f) v = rng->Uniform(0.0, 4.0);
    // Occasionally zero a query out: f <= 0 slots must simply drop out of
    // every bound and total.
    f[static_cast<size_t>(
        rng->UniformInt(0, workload_.num_queries() - 1))] = 0.0;
    return f;
  }

  /// A uniformly random complete design over the per-table option sets.
  PartitioningState RandomDesign(Rng* rng) const {
    PartitioningState s = PartitioningState::Initial(&schema_, &edges_);
    for (schema::TableId t = 0; t < schema_.num_tables(); ++t) {
      auto options = TableDesignOptions(schema_, t);
      const TablePartition& pick = options[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(options.size()) - 1))];
      const TablePartition& current = s.table_partition(t);
      if (current.replicated == pick.replicated &&
          current.column == pick.column) {
        continue;
      }
      // Options come from TableDesignOptions, so the applies cannot fail
      // (and gtest ASSERTs are unusable in a value-returning helper).
      if (pick.replicated) {
        if (!s.Replicate(t).ok()) std::abort();
      } else {
        if (!s.PartitionBy(t, pick.column).ok()) std::abort();
      }
    }
    return s;
  }

  schema::Schema schema_;
  workload::Workload workload_;
  EdgeSet edges_;
  CostModel model_;
};

TEST_F(MicroSearchTest, DpIsExactlyOptimalAtEpsilonZero) {
  auto opt = ExhaustiveOptimum(schema_, workload_, edges_, QueryCost(),
                               workload_.frequencies());
  ASSERT_TRUE(opt.has_value());
  DpResult dp = baselines::DpDesign(schema_, workload_, edges_, model_,
                                    DpDesignerConfig{});
  EXPECT_DOUBLE_EQ(dp.best_cost, opt->second);
  EXPECT_TRUE(dp.certified);
  EXPECT_LE(dp.certified_lower_bound, opt->second);
  EXPECT_TRUE(dp.best_state.SameDesign(opt->first));
}

// The property the subsystem exists for: for random mixes and slacks the DP
// design's cost is within (1+ε) of the exhaustive optimum, its certificate
// holds, and ε=0 reproduces the optimum bit-exactly (both totals reduce in
// query order).
TEST_F(MicroSearchTest, DpWithinEpsilonOfExhaustiveOnRandomMixes) {
  Rng rng(20260809);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> freqs = RandomFrequencies(&rng);
    double eps = (trial % 4 == 0) ? 0.0 : rng.Uniform(0.0, 0.6);
    auto opt =
        ExhaustiveOptimum(schema_, workload_, edges_, QueryCost(), freqs);
    ASSERT_TRUE(opt.has_value());

    DpDesignerConfig config;
    config.epsilon = eps;
    DpResult dp =
        baselines::DpDesign(schema_, workload_, edges_, model_, freqs, config);
    ASSERT_TRUE(dp.certified) << "trial " << trial;
    EXPECT_LE(dp.best_cost, (1.0 + eps) * opt->second * (1.0 + 1e-12))
        << "trial " << trial << " eps " << eps;
    EXPECT_LE(dp.certified_lower_bound, opt->second * (1.0 + 1e-12))
        << "trial " << trial;
    if (eps == 0.0) {
      EXPECT_DOUBLE_EQ(dp.best_cost, opt->second) << "trial " << trial;
    }
    // The incumbent the DP reports is the true cost of the state it returns.
    double check = 0.0;
    auto cost = QueryCost();
    for (int j = 0; j < workload_.num_queries(); ++j) {
      double f = freqs[static_cast<size_t>(j)];
      if (f <= 0.0) continue;
      check += f * cost(j, dp.best_state);
    }
    EXPECT_DOUBLE_EQ(check, dp.best_cost) << "trial " << trial;
  }
}

TEST_F(MicroSearchTest, QueryLowerBoundsAreAdmissible) {
  auto minq =
      ComputeQueryLowerBounds(schema_, workload_, edges_, QueryCost());
  ASSERT_EQ(minq.size(), static_cast<size_t>(workload_.num_queries()));
  Rng rng(99);
  auto cost = QueryCost();
  for (int trial = 0; trial < 60; ++trial) {
    PartitioningState s = RandomDesign(&rng);
    for (int j = 0; j < workload_.num_queries(); ++j) {
      EXPECT_LE(minq[static_cast<size_t>(j)], cost(j, s))
          << "query " << j << " trial " << trial;
    }
  }
  // A tiny enumeration cap degrades the floors to 0 — still admissible.
  auto capped = ComputeQueryLowerBounds(schema_, workload_, edges_,
                                        QueryCost(), /*max_enum=*/1);
  for (double lb : capped) EXPECT_EQ(lb, 0.0);
}

TEST_F(MicroSearchTest, WeightedLowerBoundSkipsNonPositiveFrequencies) {
  std::vector<double> lb = {2.0, 3.0};
  EXPECT_DOUBLE_EQ(WeightedLowerBound(lb, {1.0, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(WeightedLowerBound(lb, {2.0, 1.0}), 7.0);
}

TEST_F(MicroSearchTest, DpFrontierOverflowVoidsCertificateButStillDesigns) {
  DpDesignerConfig config;
  config.max_frontier = 1;   // degrade into a width-1 beam...
  config.max_bound_enum = 0; // ...with all floors at 0, so pruning cannot
                             // thin the frontier below the cap first
  DpResult dp = baselines::DpDesign(schema_, workload_, edges_, model_, config);
  EXPECT_FALSE(dp.certified);
  EXPECT_EQ(dp.certified_lower_bound, 0.0);
  // The beam result is still a complete, correctly priced design.
  double check = 0.0;
  auto cost = QueryCost();
  const auto& freqs = workload_.frequencies();
  for (int j = 0; j < workload_.num_queries(); ++j) {
    check += freqs[static_cast<size_t>(j)] * cost(j, dp.best_state);
  }
  EXPECT_DOUBLE_EQ(check, dp.best_cost);
}

TEST_F(MicroSearchTest, PrunerSessionBoundsAreAdmissibleAndExactWhenForced) {
  ActionPruner pruner(&schema_, &workload_, &edges_, QueryCost());
  const auto& freqs = workload_.frequencies();
  EXPECT_GT(pruner.GlobalLowerBound(freqs), 0.0);

  auto session = pruner.NewSession();
  PartitioningState s = PartitioningState::Initial(&schema_, &edges_);
  double exact = session->PriceExact(s, freqs);
  EXPECT_TRUE(session->synced());

  // Unreachable threshold: pricing must be skipped with an admissible bound.
  PartitioningState moved = s;
  ASSERT_TRUE(moved.Replicate(0).ok());
  auto pruned = session->PriceOrPrune(moved, {0}, freqs, /*threshold=*/0.0);
  EXPECT_FALSE(pruned.exact);
  EXPECT_FALSE(session->synced());
  // Huge threshold: the same state now gets priced exactly, folding in the
  // deferred drift.
  auto repriced = session->PriceOrPrune(moved, {}, freqs,
                                        /*threshold=*/1e30);
  EXPECT_TRUE(repriced.exact);
  EXPECT_TRUE(session->synced());
  EXPECT_LE(pruned.cost, repriced.cost * (1.0 + 1e-12));

  // ReachableLowerBound never exceeds the cost of any state within horizon.
  double reach = session->ReachableLowerBound(freqs, /*horizon=*/1);
  EXPECT_LE(reach, repriced.cost);
  (void)exact;
}

// The headline contract: pruned Suggest returns the bit-identical design,
// cost, and action trajectory as unpruned Suggest — at 1, 2, and 8 threads —
// while skipping Q-network forward passes.
TEST_F(MicroSearchTest, PrunedSuggestBitIdenticalAcrossThreadCounts) {
  advisor::AdvisorConfig config;
  config.offline_episodes = 60;
  config.dqn.tmax = 8;
  config.dqn.FitEpsilonSchedule(config.offline_episodes);
  advisor::PartitioningAdvisor advisor(&schema_, workload_, config);
  {
    EvalContext train_ctx(1, 7001);
    advisor.TrainOffline(&model_, nullptr, &train_ctx);
  }
  std::vector<double> uniform(static_cast<size_t>(workload_.num_queries()),
                              1.0);
  auto& reg = telemetry::MetricsRegistry::Global();

  std::optional<rl::InferenceResult> reference;
  for (int threads : {1, 2, 8}) {
    EvalContext unpruned_ctx(threads, 8101);
    uint64_t q0 = reg.GetCounter("rl.q_evals.count").value();
    rl::InferenceResult unpruned = advisor.Suggest(uniform, &unpruned_ctx);
    uint64_t unpruned_evals = reg.GetCounter("rl.q_evals.count").value() - q0;

    EvalContext pruned_ctx(threads, 8101);
    uint64_t q1 = reg.GetCounter("rl.q_evals.count").value();
    uint64_t a1 = reg.GetCounter("rl.actions_pruned.count").value();
    advisor::SuggestOptions options;
    options.prune_rollouts = true;
    rl::InferenceResult pruned = advisor.Suggest(uniform, options, &pruned_ctx);
    uint64_t pruned_evals = reg.GetCounter("rl.q_evals.count").value() - q1;
    uint64_t actions_pruned =
        reg.GetCounter("rl.actions_pruned.count").value() - a1;

    EXPECT_TRUE(pruned.best_state.SameDesign(unpruned.best_state))
        << threads << " threads";
    EXPECT_EQ(pruned.best_cost, unpruned.best_cost) << threads << " threads";
    EXPECT_EQ(pruned.actions, unpruned.actions) << threads << " threads";
    EXPECT_GT(actions_pruned, 0u) << threads << " threads";
    EXPECT_LT(pruned_evals, unpruned_evals) << threads << " threads";

    if (!reference.has_value()) {
      reference = pruned;
    } else {
      EXPECT_TRUE(pruned.best_state.SameDesign(reference->best_state))
          << threads << " threads diverged from 1 thread";
      EXPECT_EQ(pruned.best_cost, reference->best_cost);
      EXPECT_EQ(pruned.actions, reference->actions);
    }
  }
}

TEST_F(MicroSearchTest, HandleRejectsUnsoundPruneRequests) {
  advisor::AdvisorHandle handle(&schema_, workload_, advisor::AdvisorConfig{});
  std::vector<double> uniform(static_cast<size_t>(workload_.num_queries()),
                              1.0);

  advisor::SuggestRequest request;
  request.frequencies = uniform;
  request.prune_rollouts = true;

  // Untrained: no offline simulation for the bounds to price against.
  auto untrained = handle.Suggest(request);
  EXPECT_FALSE(untrained.ok());

  advisor::TrainSpec spec;
  spec.phase = advisor::TrainSpec::Phase::kOffline;
  spec.cost_model = &model_;
  spec.episodes = 8;
  ASSERT_TRUE(handle.Train(spec).ok());

  request.prune_epsilon = -0.1;
  EXPECT_FALSE(handle.Suggest(request).ok());
  request.prune_epsilon = 0.0;

  PartitioningState deployed = PartitioningState::Initial(&schema_, &edges_);
  request.deployed = &deployed;
  request.transition_cost_weight = 0.5;
  auto transition = handle.Suggest(request);
  EXPECT_FALSE(transition.ok());
  request.transition_cost_weight = 0.0;
  request.deployed = nullptr;

  auto ok = handle.Suggest(request);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->actions.empty());
}

}  // namespace
}  // namespace lpa::search
