// Bit-identity of the offline cost memo: on seeded random action walks,
// OfflineEnv::WorkloadCost — cache probes on the calling thread, misses
// planned across the context's pool — must equal the plain serial loop
// sum_j f_j * CostModel::QueryCost bit for bit, on a cold and then a warm
// cache, at 1, 2 and 8 threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "partition/actions.h"
#include "rl/offline_env.h"
#include "schema/catalogs.h"
#include "util/eval_context.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa {
namespace {

struct Testbed {
  explicit Testbed(const std::string& name)
      : schema(name == "ssb" ? schema::MakeSsbSchema()
                             : schema::MakeTpcchSchema()),
        wl(name == "ssb" ? workload::MakeSsbWorkload(schema)
                         : workload::MakeTpcchWorkload(schema)),
        edges(partition::EdgeSet::Extract(schema, wl)),
        actions(&schema, &edges),
        model(&schema, costmodel::HardwareProfile::DiskBased10G()) {}

  /// Reference: the serial weighted loop, straight from the cost model — no
  /// cache, no pool. Query order, f <= 0 skipped.
  double SerialCost(const partition::PartitioningState& state,
                    const std::vector<double>& freqs) const {
    double total = 0.0;
    for (int j = 0; j < wl.num_queries(); ++j) {
      double f = freqs[static_cast<size_t>(j)];
      if (f <= 0.0) continue;
      total += f * model.QueryCost(wl.query(j), state);
    }
    return total;
  }

  schema::Schema schema;
  workload::Workload wl;
  partition::EdgeSet edges;
  partition::ActionSpace actions;
  costmodel::CostModel model;
};

/// A quarter of the weights are zero; the rest are light or heavy.
std::vector<double> RandomFreqs(int m, Rng* rng) {
  std::vector<double> freqs(static_cast<size_t>(m));
  for (auto& f : freqs) {
    double u = rng->Uniform();
    f = u < 0.25 ? 0.0 : u;
  }
  return freqs;
}

/// One step of the walk: the state after the action, and the mix to price.
struct WalkStep {
  partition::PartitioningState state;
  std::vector<double> freqs;
};

/// Seeded random walk in which every fifth step replicates a table when any
/// replication is legal, and the mix is re-drawn every seventh step.
std::vector<WalkStep> RandomWalk(const Testbed& tb, uint64_t seed, int steps) {
  Rng rng(seed);
  auto state = partition::PartitioningState::Initial(&tb.schema, &tb.edges);
  auto freqs = RandomFreqs(tb.wl.num_queries(), &rng);
  std::vector<WalkStep> walk;
  for (int step = 0; step < steps; ++step) {
    std::vector<int> legal = tb.actions.LegalActions(state);
    if (step % 5 == 0) {
      std::vector<int> replicate;
      for (int a : legal) {
        if (tb.actions.action(a).kind ==
            partition::ActionKind::kReplicateTable) {
          replicate.push_back(a);
        }
      }
      if (!replicate.empty()) legal = replicate;
    }
    int action = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    EXPECT_TRUE(tb.actions.Apply(action, &state).ok());
    if (step % 7 == 6) freqs = RandomFreqs(tb.wl.num_queries(), &rng);
    walk.push_back(WalkStep{state, freqs});
  }
  return walk;
}

class OfflineWorkloadCostTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(OfflineWorkloadCostTest, PooledCostMatchesSerialLoopBitwise) {
  Testbed tb(GetParam());
  const auto walk = RandomWalk(tb, GetParam() == "ssb" ? 101 : 202, 120);
  int replicated_steps = 0;
  for (const WalkStep& step : walk) {
    for (schema::TableId t = 0; t < tb.schema.num_tables(); ++t) {
      if (step.state.table_partition(t).replicated) {
        ++replicated_steps;
        break;
      }
    }
  }
  ASSERT_GT(replicated_steps, 0) << "the walk must cover replicated designs";

  for (int threads : {1, 2, 8}) {
    EvalContext ctx(threads, /*seed=*/7);
    rl::OfflineEnv env(&tb.model, &tb.wl);  // cold cache per thread count
    for (const char* pass : {"cold", "warm"}) {
      size_t hits_before = env.cache_hits();
      size_t probes_before = env.evaluations();
      for (size_t i = 0; i < walk.size(); ++i) {
        const WalkStep& step = walk[i];
        ASSERT_EQ(env.WorkloadCost(step.state, step.freqs, &ctx),
                  tb.SerialCost(step.state, step.freqs))
            << GetParam() << " " << pass << " step " << i << " threads "
            << threads;
      }
      size_t probes = env.evaluations() - probes_before;
      size_t hits = env.cache_hits() - hits_before;
      EXPECT_GT(probes, 0u);
      if (std::string(pass) == "warm") {
        // Every (query, design) pair was planned on the cold pass.
        EXPECT_EQ(hits, probes) << "threads " << threads;
      } else {
        EXPECT_LT(hits, probes) << "threads " << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemas, OfflineWorkloadCostTest,
                         ::testing::Values("ssb", "tpcch"));

// ---------------------------------------------------------------------------
// Fingerprints

TEST(DesignFingerprintTest, TracksDesignChangesAndScopes) {
  auto schema = schema::MakeSsbSchema();
  auto wl = workload::MakeSsbWorkload(schema);
  auto edges = partition::EdgeSet::Extract(schema, wl);
  auto a = partition::PartitioningState::Initial(&schema, &edges);
  auto b = a;
  schema::TableId cust = schema.TableIndex("customer");
  schema::TableId part = schema.TableIndex("part");
  ASSERT_TRUE(b.Replicate(part).ok());
  // Full fingerprint differs; the fingerprint restricted to untouched tables
  // does not (the cache-key scoping property).
  EXPECT_NE(a.DesignFingerprint(), b.DesignFingerprint());
  EXPECT_NE(a.DesignFingerprint({part}), b.DesignFingerprint({part}));
  EXPECT_EQ(a.DesignFingerprint({cust}), b.DesignFingerprint({cust}));
  EXPECT_NE(a.TableDesignHash(part), b.TableDesignHash(part));
  EXPECT_EQ(a.TableDesignHash(cust), b.TableDesignHash(cust));
  // Round-tripping back to the same design restores the fingerprint.
  auto c = partition::PartitioningState::FromDesign(&schema, &edges,
                                                    a.table_partitions());
  EXPECT_EQ(c.DesignFingerprint(), a.DesignFingerprint());
}

}  // namespace
}  // namespace lpa
