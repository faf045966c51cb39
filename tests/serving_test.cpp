// Tests of the serving subsystem: the bounded request queue's admission and
// shutdown semantics, cross-request inference batching (bit-identical to
// serial inference), admission control and deadline shedding in the server,
// RCU model hot-swap under concurrent load, and the load generator's
// request accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/serialization.h"
#include "nn/matrix.h"
#include "schema/catalogs.h"
#include "serving/loadgen.h"
#include "serving/model_registry.h"
#include "serving/request_queue.h"
#include "serving/server.h"
#include "workload/benchmarks.h"

namespace lpa::serving {
namespace {

using advisor::AdvisorConfig;
using advisor::PartitioningAdvisor;
using costmodel::HardwareProfile;

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, AdmissionAndDrainSemantics) {
  BoundedQueue<int> queue(2);
  int a = 1, b = 2, c = 3;
  EXPECT_EQ(queue.TryPush(a), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.TryPush(b), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.TryPush(c), BoundedQueue<int>::PushResult::kFull);
  EXPECT_EQ(c, 3);  // rejected items are not moved from
  EXPECT_EQ(queue.size(), 2u);

  queue.Close();
  int d = 4;
  EXPECT_EQ(queue.TryPush(d), BoundedQueue<int>::PushResult::kClosed);

  // Queued items drain after close, then Pop signals exit.
  int out = 0;
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> queue(4);
  std::atomic<int> exited{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      int out;
      while (queue.Pop(&out)) {
      }
      exited.fetch_add(1);
    });
  }
  // Consumers are parked on the empty queue; Close must wake all of them
  // (the test would hang here if a worker missed the wakeup).
  queue.Close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(exited.load(), 3);
}

TEST(BoundedQueueTest, DrainRemainingTakesLeftovers) {
  BoundedQueue<int> queue(4);
  int items[] = {1, 2, 3};
  for (int& item : items) queue.TryPush(item);
  queue.Close();
  std::vector<int> left = queue.DrainRemaining();
  EXPECT_EQ(left, (std::vector<int>{1, 2, 3}));
  int out;
  EXPECT_FALSE(queue.Pop(&out));
}

// ---------------------------------------------------------------------------
// Shared micro testbed (one tiny trained agent snapshot per suite)

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new schema::Schema(schema::MakeMicroSchema());
    workload_ = new workload::Workload(workload::MakeMicroWorkload(*schema_));
    model_ = new costmodel::CostModel(schema_, HardwareProfile::DiskBased10G());
    PartitioningAdvisor advisor(schema_, *workload_, FastConfig());
    advisor.TrainOffline(model_);
    std::stringstream snapshot;
    ASSERT_TRUE(advisor::SaveAgentSnapshot(*advisor.agent(), snapshot).ok());
    snapshot_ = new std::string(snapshot.str());
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    delete model_;
    delete workload_;
    delete schema_;
  }

  static AdvisorConfig FastConfig() {
    AdvisorConfig config;
    config.dqn.tmax = 8;
    config.offline_episodes = 8;
    config.dqn.FitEpsilonSchedule(config.offline_episodes);
    config.inference_extra_rollouts = 0;  // the deterministic greedy rollout
    config.seed = 7;
    return config;
  }

  /// A snapshot-restored servable model (the hot-swap load path).
  static std::shared_ptr<ServingModel> MakeModel(
      InferenceBatcher::Config batch = {}) {
    std::istringstream snapshot(*snapshot_);
    auto model = ServingModel::FromSnapshot(schema_, *workload_, FastConfig(),
                                            model_, snapshot, batch);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return *model;
  }

  /// The serial reference: a fresh advisor restored from the same snapshot,
  /// suggesting through the unbatched single-request code path.
  static rl::InferenceResult SerialSuggest(
      const std::vector<double>& frequencies) {
    PartitioningAdvisor advisor(schema_, *workload_, FastConfig());
    std::istringstream snapshot(*snapshot_);
    EXPECT_TRUE(advisor::LoadAgentSnapshot(snapshot, advisor.agent()).ok());
    rl::OfflineEnv env(model_, &advisor.workload());
    return advisor.Suggest(frequencies, &env);
  }

  static std::vector<double> Mix(int hot) {
    std::vector<double> frequencies(
        static_cast<size_t>(workload_->num_queries()), 1.0);
    frequencies[static_cast<size_t>(hot) % frequencies.size()] = 5.0;
    return frequencies;
  }

  static schema::Schema* schema_;
  static workload::Workload* workload_;
  static costmodel::CostModel* model_;
  static std::string* snapshot_;
};

schema::Schema* ServingTest::schema_ = nullptr;
workload::Workload* ServingTest::workload_ = nullptr;
costmodel::CostModel* ServingTest::model_ = nullptr;
std::string* ServingTest::snapshot_ = nullptr;

// ---------------------------------------------------------------------------
// Batched inference bit-identity

TEST_F(ServingTest, QValuesBatchMatchesSingleStatePath) {
  for (rl::QNetworkMode mode :
       {rl::QNetworkMode::kMultiHead, rl::QNetworkMode::kStateActionInput}) {
    AdvisorConfig config = FastConfig();
    config.dqn.mode = mode;
    PartitioningAdvisor advisor(schema_, *workload_, config);
    const partition::Featurizer& featurizer = advisor.featurizer();
    const partition::ActionSpace& actions = advisor.actions();
    const rl::DqnAgent& agent = *advisor.agent();

    std::vector<int> all_actions(static_cast<size_t>(actions.size()));
    for (int i = 0; i < actions.size(); ++i) all_actions[(size_t)i] = i;

    // A batch of distinct states: the initial state under three frequency
    // mixes plus two states one legal action deep.
    partition::PartitioningState s0 =
        partition::PartitioningState::Initial(schema_, &advisor.edges());
    std::vector<std::vector<double>> encs;
    for (int hot = 0; hot < 3; ++hot) {
      encs.push_back(featurizer.EncodeState(s0, Mix(hot)));
    }
    std::vector<int> legal = actions.LegalActions(s0);
    ASSERT_GE(legal.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
      partition::PartitioningState s = s0;
      ASSERT_TRUE(actions.Apply(legal[i], &s).ok());
      encs.push_back(featurizer.EncodeState(s, Mix(0)));
    }

    nn::Matrix batched = agent.QValuesBatch(nn::Matrix::FromRows(encs));
    ASSERT_EQ(batched.rows(), encs.size());
    ASSERT_EQ(batched.cols(), static_cast<size_t>(actions.size()));
    for (size_t r = 0; r < encs.size(); ++r) {
      std::vector<double> single = agent.QValues(encs[r], all_actions);
      for (size_t a = 0; a < single.size(); ++a) {
        // Exact double equality: batching must not perturb a single bit.
        EXPECT_EQ(batched.at(r, a), single[a])
            << "mode=" << static_cast<int>(mode) << " row=" << r
            << " action=" << a;
      }
    }
  }
}

TEST_F(ServingTest, BatchedServingBitIdenticalToSerialAdvisor) {
  constexpr int kRequests = 8;
  std::vector<rl::InferenceResult> expected;
  for (int i = 0; i < kRequests; ++i) expected.push_back(SerialSuggest(Mix(i)));

  // Serve the same mixes concurrently through 4 workers with a wide batching
  // window so Q-passes actually coalesce.
  InferenceBatcher::Config batch;
  batch.max_batch = 4;
  batch.window_seconds = 0.2;
  ModelRegistry registry;
  registry.Publish(MakeModel(batch));
  ServerConfig config;
  config.worker_threads = 4;
  config.batch = batch;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.SubmitAsync(Mix(i)));
  }
  for (int i = 0; i < kRequests; ++i) {
    SuggestResponse response = futures[(size_t)i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.model_version, 1u);
    // Bit-identical: same action sequence, same exact cost, same design.
    EXPECT_EQ(response.result->actions, expected[(size_t)i].actions);
    EXPECT_EQ(response.result->best_cost, expected[(size_t)i].best_cost);
    EXPECT_EQ(response.result->best_state.PhysicalDesignKey(),
              expected[(size_t)i].best_state.PhysicalDesignKey());
  }
  server.Stop();
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(kRequests));
}

TEST_F(ServingTest, LoneRequestDoesNotWaitForTheBatchWindow) {
  // One client, an hour-long window: if a lone rollout waited for the
  // window this test would time out; it must fire immediately because no
  // other rollout is active.
  InferenceBatcher::Config batch;
  batch.window_seconds = 3600.0;
  ModelRegistry registry;
  registry.Publish(MakeModel(batch));
  ServerConfig config;
  config.worker_threads = 1;
  config.batch = batch;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  SuggestResponse response = server.Suggest(Mix(0));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.result->actions, SerialSuggest(Mix(0)).actions);
  server.Stop();
}

// ---------------------------------------------------------------------------
// Admission control and deadline shedding

TEST_F(ServingTest, AdmissionControlRejectsWhenQueueFull) {
  // No workers: nothing drains the queue, so capacity is exact.
  ModelRegistry registry;
  ServerConfig config;
  config.worker_threads = 0;
  config.queue_capacity = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  auto f1 = server.SubmitAsync(Mix(0));
  auto f2 = server.SubmitAsync(Mix(1));
  auto f3 = server.SubmitAsync(Mix(2));
  // The third is rejected immediately with a retryable status.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  SuggestResponse rejected = f3.get();
  EXPECT_EQ(rejected.status.code(), Status::Code::kUnavailable);

  // Stop fails the two queued requests rather than abandoning their futures.
  server.Stop(AdvisorServer::StopMode::kAbort);
  EXPECT_EQ(f1.get().status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(f2.get().status.code(), Status::Code::kUnavailable);

  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);

  // Submitting against a stopped server rejects immediately too.
  SuggestResponse stopped = server.Suggest(Mix(0));
  EXPECT_EQ(stopped.status.code(), Status::Code::kUnavailable);
}

TEST_F(ServingTest, ExpiredDeadlinesAreShedNotServed) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // A 1ns deadline has always passed by the time a worker picks the request
  // up; it must be shed without running inference.
  SuggestResponse shed = server.Suggest(Mix(0), /*deadline_seconds=*/1e-9);
  EXPECT_EQ(shed.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(shed.model_version, 0u);

  // Without a deadline the same request completes.
  SuggestResponse served = server.Suggest(Mix(0));
  EXPECT_TRUE(served.status.ok());
  server.Stop();

  auto stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(ServingTest, RequestsFailCleanlyWithNoModelPublished) {
  ModelRegistry registry;  // empty: no Publish
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  SuggestResponse response = server.Suggest(Mix(0));
  EXPECT_EQ(response.status.code(), Status::Code::kFailedPrecondition);
  server.Stop();
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST_F(ServingTest, TooWideFrequencyVectorFailsWithoutStoppingTheServer) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  std::vector<double> too_wide = Mix(0);
  too_wide.push_back(1.0);
  SuggestResponse wide = server.Suggest(too_wide);
  EXPECT_EQ(wide.status.code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(wide.result.has_value());

  // A shorter vector is served as if padded with zeros, so clients of a
  // model that gained queries in a schema change keep working.
  std::vector<double> too_short = Mix(0);
  too_short.pop_back();
  std::vector<double> padded = too_short;
  padded.push_back(0.0);
  SuggestResponse narrow = server.Suggest(too_short);
  ASSERT_TRUE(narrow.status.ok()) << narrow.status.ToString();
  EXPECT_EQ(narrow.result->actions, SerialSuggest(padded).actions);

  // The worker survives and serves the next well-formed request.
  SuggestResponse served = server.Suggest(Mix(1));
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.result->actions, SerialSuggest(Mix(1)).actions);
  server.Stop();

  auto stats = server.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);
}

TEST_F(ServingTest, NonFiniteFrequencyFailsWithoutStoppingTheServer) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 1;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    std::vector<double> mix = Mix(0);
    mix[0] = bad;
    SuggestResponse response = server.Suggest(mix);
    EXPECT_EQ(response.status.code(), Status::Code::kInvalidArgument);
    EXPECT_FALSE(response.result.has_value());
  }
  SuggestResponse served = server.Suggest(Mix(1));
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_EQ(served.result->actions, SerialSuggest(Mix(1)).actions);
  server.Stop();

  auto stats = server.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);
}

// ---------------------------------------------------------------------------
// Shutdown semantics

TEST_F(ServingTest, RepeatedStartStopWithIdleWorkersDoesNotHang) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 3;
  AdvisorServer server(&registry, config);
  // Workers park on an empty queue each round; Stop must wake and join them
  // promptly every time (no timed waits to ride out). A missed wakeup hangs
  // the test.
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(server.Start().ok());
    EXPECT_FALSE(server.Start().ok());  // double-start is refused
    if (round % 3 == 0) {
      EXPECT_TRUE(server.Suggest(Mix(round)).status.ok());
    }
    server.Stop();
    server.Stop();  // idempotent
    EXPECT_FALSE(server.running());
  }
}

TEST_F(ServingTest, DrainStopServesEverythingAdmitted) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  server.Stop(AdvisorServer::StopMode::kDrain);
  // Drain mode completes every admitted request before returning.
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(ServingTest, RestartWithQueuedRequestsResolvesEveryRequestExactlyOnce) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // A burst large enough that some requests are still queued when the abort
  // lands; each is then either served by a racing worker or failed by the
  // abort drain — never both, never neither.
  constexpr int kBurst = 16;
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < kBurst; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  server.Stop(AdvisorServer::StopMode::kAbort);

  int completed = 0;
  std::vector<int> to_retry;
  for (int i = 0; i < kBurst; ++i) {
    // get() would throw (broken promise) if a request were dropped, and a
    // double-resolution would have aborted inside the server; ready-ness
    // proves exactly-once resolution.
    ASSERT_EQ(futures[(size_t)i].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    SuggestResponse response = futures[(size_t)i].get();
    if (response.status.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(response.status.code(), Status::Code::kUnavailable);
      to_retry.push_back(i);
    }
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kBurst));
  EXPECT_EQ(stats.completed, static_cast<uint64_t>(completed));
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(to_retry.size()));
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.rejected + stats.shed + stats.failed);

  // Restart the same server and resubmit exactly the failed requests: all
  // of them complete on the fresh queue.
  ASSERT_TRUE(server.Start().ok());
  for (int i : to_retry) {
    SuggestResponse response = server.Suggest(Mix(i));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  server.Stop();
  stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<uint64_t>(completed) + to_retry.size());
}

// ---------------------------------------------------------------------------
// Hot swap

TEST_F(ServingTest, HotSwapServesInFlightOnOldVersionAndDropsNothing) {
  ModelRegistry registry;
  uint64_t v1 = registry.Publish(MakeModel());
  ASSERT_EQ(v1, 1u);
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  // Phase 1: everything before the swap is served by v1.
  for (int i = 0; i < 4; ++i) {
    SuggestResponse response = server.Suggest(Mix(i));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.model_version, 1u);
  }

  // Phase 2: publish v2 while a burst is in flight. Each request is served
  // by whichever version it resolved at pickup — but every single one
  // completes, and versions are only ever 1 or 2.
  constexpr int kBurst = 12;
  std::vector<std::future<SuggestResponse>> futures;
  for (int i = 0; i < kBurst; ++i) futures.push_back(server.SubmitAsync(Mix(i)));
  uint64_t v2 = registry.Publish(MakeModel());
  ASSERT_EQ(v2, 2u);
  std::map<uint64_t, int> per_version;
  for (auto& future : futures) {
    SuggestResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ++per_version[response.model_version];
  }
  int total = 0;
  for (const auto& [version, count] : per_version) {
    EXPECT_TRUE(version == 1 || version == 2) << "version " << version;
    total += count;
  }
  EXPECT_EQ(total, kBurst);  // zero dropped across the swap

  // Phase 3: after the swap every new request is served by v2.
  for (int i = 0; i < 4; ++i) {
    SuggestResponse response = server.Suggest(Mix(i));
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.model_version, 2u);
  }
  server.Stop();
  EXPECT_EQ(registry.current_version(), 2u);

  auto stats = server.stats();
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
}

// ---------------------------------------------------------------------------
// Load generator

TEST_F(ServingTest, LoadgenAccountsForEveryRequest) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  LoadgenOptions options;
  options.clients = 3;
  options.duration_seconds = 0.3;
  options.num_queries = workload_->num_queries();
  options.seed = 11;
  std::atomic<bool> swapped{false};
  LoadgenReport report = RunLoadgen(&server, options, [&] {
    registry.Publish(MakeModel());
    swapped.store(true);
  });
  server.Stop();

  EXPECT_TRUE(swapped.load());
  EXPECT_TRUE(report.CountersConsistent());
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GT(report.latency_p99 + 1.0, report.latency_p50);  // sane ordering
  auto stats = server.stats();
  EXPECT_EQ(stats.submitted, report.submitted);
  EXPECT_EQ(stats.completed, report.completed);
}

TEST_F(ServingTest, OpenLoopLoadgenResolvesAllFutures) {
  ModelRegistry registry;
  registry.Publish(MakeModel());
  ServerConfig config;
  config.worker_threads = 2;
  config.queue_capacity = 4;  // small queue: open loop may trip admission
  AdvisorServer server(&registry, config);
  ASSERT_TRUE(server.Start().ok());

  LoadgenOptions options;
  options.open_loop = true;
  options.qps = 200.0;
  options.duration_seconds = 0.3;
  options.num_queries = workload_->num_queries();
  LoadgenReport report = RunLoadgen(&server, options);
  server.Stop();

  EXPECT_TRUE(report.CountersConsistent());
  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.failed, 0u);
  // Rejections are allowed (that is the point of admission control) but
  // every one of them still resolved its future.
  EXPECT_EQ(report.submitted,
            report.completed + report.rejected + report.shed);
}

}  // namespace
}  // namespace lpa::serving
