// serve-tpcch: an open loop. One dispatcher thread sends Suggest requests on
// a fixed schedule to an AdvisorServer (2 workers) serving a snapshot of the
// model trained during set-up. 95% of the mixes come from a recurring pool of
// 256 seeded mixes with Zipf popularity, 5% are fresh, never-seen mixes. The
// pool is warmed untimed during set-up, as a deployed server runs warm.
//
// Latency runs from each request's due time, so a stalled dispatcher or a
// queue that backs up is charged to the requests behind it. The schedule runs
// once at a fixed rate well below saturation (latency percentiles), then up a
// rate ladder (the highest rate whose recurring-mix p99 meets the limit with
// no growing backlog).

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "advisor/advisor_handle.h"
#include "bench/common.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "telemetry/registry.h"
#include "util/eval_context.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kServeEpisodes = 12;
constexpr int kPoolMixes = 256;
constexpr double kZipfTheta = 1.0;
constexpr double kFreshShare = 0.05;
/// Recurring-mix p99 limit of a ladder rung.
constexpr double kLatencyLimitMs = 100.0;
/// Fixed rate of the latency phase (requests/s).
constexpr double kFixedRate = 200.0;
/// Rate ladder (requests/s), ascending.
constexpr double kLadder[] = {300,  600,  900,  1100, 1200, 1300,
                              1400, 1500, 1600, 1800, 2000, 2400};
/// Independent climbs of the ladder; `serve.max_qps` is their median, so one
/// climb disturbed by a stall of the host does not set the figure.
constexpr int kClimbs = 3;
/// Rungs a climb expects to run before two consecutive misses end it;
/// sizes each rung's share of the run.
constexpr double kExpectedRungs = 7;
/// Share of the run's seconds spent at the fixed rate; the rest is ladder.
constexpr double kFixedShare = 0.4;
/// Passes over the pool mixes whose CPU time per design is time_to_design_s.
constexpr int kDesignPasses = 4;
/// Served answers compared against AdvisorHandle::Suggest per run.
constexpr int kVerifySamples = 12;

struct ServeSetup {
  Testbed tb;
  std::string snapshot;
  std::unique_ptr<lpa::serving::ModelRegistry> registry;
  std::unique_ptr<lpa::serving::AdvisorServer> server;
  std::vector<std::vector<double>> pool;
};

ServeSetup SetUp(uint64_t seed, Report* report) {
  ServeSetup setup{MakeTestbed(seed), {}, nullptr, nullptr, {}};
  const Testbed& tb = setup.tb;
  auto config = TrainingConfig(kServeEpisodes, 0);
  lpa::AdvisorHandle handle(tb.schema.get(), *tb.workload, config);
  lpa::EvalContext ctx(kPoolThreads, kAdvisorSeed);
  auto trained = handle.Train(
      lpa::TrainSpec::Offline(tb.model.get(), kServeEpisodes), &ctx);
  auto snapshot = handle.Snapshot();
  if (!trained.ok() || !snapshot.ok()) {
    report->Fail("serve set-up training failed");
    return setup;
  }
  setup.snapshot = *snapshot;
  report->Digested("serve.train_reward",
                   RewardDigest(trained->episode_best_rewards));
  Digest snap;
  snap.Add(setup.snapshot);
  report->Digested("serve.snapshot", snap.Hex());

  std::istringstream in(setup.snapshot);
  auto model = lpa::serving::ServingModel::FromSnapshot(
      tb.schema.get(), *tb.workload, config, tb.model.get(), in);
  if (!model.ok()) {
    report->Fail("ServingModel::FromSnapshot failed: " +
                 model.status().ToString());
    return setup;
  }
  setup.registry = std::make_unique<lpa::serving::ModelRegistry>();
  setup.registry->Publish(*model);
  lpa::serving::ServerConfig server_config;
  server_config.worker_threads = kServerWorkers;
  // Deep enough that an overloaded rung backs up instead of rejecting.
  server_config.queue_capacity = 1 << 16;
  setup.server = std::make_unique<lpa::serving::AdvisorServer>(
      setup.registry.get(), server_config);
  if (auto st = setup.server->Start(); !st.ok()) {
    report->Fail("server start failed: " + st.ToString());
    return setup;
  }

  lpa::Rng rng(lpa::HashCombine(seed, 0x9001));
  int m = tb.workload->num_queries();
  for (int i = 0; i < kPoolMixes; ++i) {
    setup.pool.push_back(lpa::workload::SampleUniformFrequencies(m, &rng));
  }
  std::vector<std::future<lpa::serving::SuggestResponse>> warm;
  for (const auto& mix : setup.pool) warm.push_back(setup.server->SubmitAsync(mix));
  for (auto& f : warm) {
    if (!f.get().status.ok()) report->Fail("warm-up request failed");
  }
  return setup;
}

/// One scheduled request.
struct Request {
  const std::vector<double>* mix = nullptr;
  bool fresh = false;
};

/// Outcome of one request, timed from its due time.
struct Outcome {
  Clock::time_point due;
  Clock::time_point submit;
  bool fresh = false;
  bool ok = false;
  double latency_s = 0.0;  ///< due -> completion (infinite when failed)
  double queue_s = 0.0;
  double served_s = 0.0;   ///< submit -> completion, as the server measured
  std::optional<lpa::rl::InferenceResult> result;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  std::vector<int> depth;  ///< requests in the server when each was sent
  double late_max_ms = 0.0;

  std::vector<double> Latencies(bool fresh) const {
    std::vector<double> ms;
    for (const auto& o : outcomes) {
      if (o.fresh == fresh) ms.push_back(o.latency_s * 1e3);
    }
    return ms;
  }
  /// Whether the server's backlog grew across the phase: the mean depth over
  /// its last quarter exceeds the mean over its second quarter by more than
  /// `slack` requests (a brief stall backs requests up, then drains).
  bool BacklogGrew(double slack) const {
    size_t n = depth.size();
    if (n < 8) return false;
    auto mean = [&](size_t a, size_t b) {
      double s = 0.0;
      for (size_t i = a; i < b; ++i) s += depth[i];
      return s / static_cast<double>(b - a);
    };
    return mean(3 * n / 4, n) > mean(n / 4, n / 2) + slack;
  }
  /// Requests completed per second, first due time to last completion.
  double AchievedRate() const {
    if (outcomes.empty()) return 0.0;
    Clock::time_point last = outcomes.front().due;
    size_t ok = 0;
    for (const auto& o : outcomes) {
      if (!o.ok) continue;
      ++ok;
      auto done = o.submit + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(o.served_s));
      last = std::max(last, done);
    }
    double span = std::chrono::duration<double>(last - outcomes.front().due).count();
    return span > 0.0 ? static_cast<double>(ok) / span : 0.0;
  }
};

/// Build `count` requests: Zipf-popular pool mixes and fresh mixes, stored in
/// `fresh_store` (which must outlive the requests).
std::vector<Request> Schedule(const ServeSetup& setup, size_t count,
                              uint64_t stream,
                              std::deque<std::vector<double>>* fresh_store) {
  lpa::Rng rng(stream);
  lpa::ZipfSampler zipf(kPoolMixes, kZipfTheta);
  int m = setup.tb.workload->num_queries();
  std::vector<Request> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (rng.Uniform() < kFreshShare) {
      fresh_store->push_back(lpa::workload::SampleUniformFrequencies(m, &rng));
      requests.push_back({&fresh_store->back(), true});
    } else {
      auto idx = static_cast<size_t>(zipf.Sample(&rng) - 1);
      requests.push_back({&setup.pool[idx], false});
    }
  }
  return requests;
}

/// Send `requests` open-loop at `rate` from a dispatcher thread while this
/// thread collects the responses in submission order. Returns once every
/// request has resolved.
PhaseResult RunPhase(lpa::serving::AdvisorServer* server,
                     const std::vector<Request>& requests, double rate) {
  struct Sent {
    size_t index = 0;
    Clock::time_point due;
    Clock::time_point submit;
    std::future<lpa::serving::SuggestResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  PhaseResult result;
  result.outcomes.resize(requests.size());
  result.depth.resize(requests.size());

  auto start = Clock::now() + std::chrono::milliseconds(5);
  std::thread dispatcher([&] {
    for (size_t i = 0; i < requests.size(); ++i) {
      auto due = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(i / rate));
      // Sleep, not spin: the dispatcher must not take a core from the two
      // workers. Its lateness is charged to the request (latency runs from
      // the due time) and reported.
      std::this_thread::sleep_until(due);
      auto stats = server->stats();
      result.depth[i] = static_cast<int>(stats.submitted - stats.completed -
                                         stats.rejected - stats.shed -
                                         stats.failed);
      auto submit = Clock::now();
      auto future = server->SubmitAsync(*requests[i].mix);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent.push_back({i, due, submit, std::move(future)});
      }
      cv.notify_one();
    }
  });
  for (size_t done = 0; done < requests.size(); ++done) {
    Sent s;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !sent.empty(); });
      s = std::move(sent.front());
      sent.pop_front();
    }
    auto response = s.future.get();
    Outcome& o = result.outcomes[s.index];
    o.due = s.due;
    o.submit = s.submit;
    o.fresh = requests[s.index].fresh;
    o.ok = response.status.ok() && response.result.has_value();
    double late = std::chrono::duration<double>(s.submit - s.due).count();
    result.late_max_ms = std::max(result.late_max_ms, late * 1e3);
    o.served_s = response.latency_seconds;
    o.queue_s = response.queue_seconds;
    o.latency_s = o.ok ? late + response.latency_seconds
                       : std::numeric_limits<double>::infinity();
    if (o.ok) o.result = std::move(response.result);
  }
  dispatcher.join();
  return result;
}

/// Charge every request of `phase` to the tracer: the request span from due
/// time to completion, with the dispatcher's lateness, the server queue wait
/// and the worker's service time as children.
void TracePhase(const PhaseResult& phase, Tracer* tracer) {
  uint64_t id = 0;
  for (const auto& o : phase.outcomes) {
    ++id;
    if (!o.ok) continue;
    double due = tracer->At(o.due);
    double submit = tracer->At(o.submit);
    double done = submit + o.served_s;
    int root = tracer->Add("serve.request", "unattributed", due, done, -1, id);
    tracer->Add("loadgen.late", "loadgen", due, submit, root, id);
    tracer->Add("serving.queue", "serving", submit, submit + o.queue_s, root, id);
    tracer->Add("advisor.service", "advisor", submit + o.queue_s, done, root, id);
  }
}

double RequestSeconds(const PhaseResult& phase) {
  double total = 0.0;
  for (const auto& o : phase.outcomes) {
    if (o.ok) total += o.latency_s;
  }
  return total;
}

}  // namespace

void RunServe(const Options& options, Report* report) {
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  ServeSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous set-up's server down first: it serves from the
    // testbed.
    setup.server.reset();
    setup.registry.reset();
    auto t0 = Clock::now();
    setup = SetUp(options.seed, report);
    setup_times.push_back(SecondsSince(t0));
    generate_times.push_back(setup.tb.GenerateSeconds());
    if (!report->correct) return;
  }
  auto* server = setup.server.get();
  report->Note("serve.pool_mixes", std::to_string(kPoolMixes));
  report->Note("serve.zipf_theta", std::to_string(kZipfTheta));
  report->Note("serve.fresh_share", std::to_string(kFreshShare));
  report->Note("serve.latency_limit_ms", std::to_string(kLatencyLimitMs));
  report->Note("serve.fixed_rate", std::to_string(kFixedRate));
  report->Note("serve.dispatchers", "1");
  report->Note("serve.episodes", std::to_string(kServeEpisodes));

  auto before = server->stats();
  CounterWindow window;
  std::deque<std::vector<double>> fresh_store;
  double fixed_seconds = options.seconds * kFixedShare;
  auto fixed_count = static_cast<size_t>(kFixedRate * fixed_seconds);
  auto schedule = Schedule(setup, fixed_count,
                           lpa::HashCombine(options.seed, 1), &fresh_store);
  double cpu0 = ProcessCpuSeconds();
  PhaseResult fixed = RunPhase(server, schedule, kFixedRate);
  double fixed_cpu = ProcessCpuSeconds() - cpu0;
  std::vector<PhaseResult> phases;

  Tracer tracer(options.trace);
  double max_rate = 0.0;
  double untraced_request_s = RequestSeconds(fixed);
  if (options.trace) {
    // The same schedule again, now traced.
    PhaseResult traced = RunPhase(server, schedule, kFixedRate);
    TracePhase(traced, &tracer);
    phases.push_back(std::move(traced));
  }
  // Time to a design, in CPU time: the process CPU time of the served
  // model's Suggest on every pool mix, called in this thread, per call.
  // The wall-clock of this sub-millisecond call, in this thread or through
  // the server, varied by up to 2x between runs on a host with bursty CPU
  // steal; the open-loop wall-clock figures are per-layer.
  double design_cpu_s = 0.0;
  {
    auto model = setup.registry->Current().model;
    double cpu_start = ProcessCpuSeconds();
    for (int pass = 0; pass < kDesignPasses; ++pass) {
      for (const auto& mix : setup.pool) {
        if (model->Suggest(mix).actions.empty()) {
          report->Fail("a served Suggest took no step");
        }
      }
    }
    design_cpu_s = (ProcessCpuSeconds() - cpu_start) /
                   static_cast<double>(kDesignPasses * setup.pool.size());
  }
  {
    double rung_seconds = options.seconds * (1.0 - kFixedShare) /
                          (kClimbs * kExpectedRungs);
    std::vector<double> climb_rates;
    for (int climb = 0; climb < kClimbs; ++climb) {
      double climb_rate = 0.0;
      int misses = 0;
      std::string log;
      for (size_t r = 0; r < std::size(kLadder) && misses < 2; ++r) {
        double rate = kLadder[r];
        auto rung = Schedule(
            setup, static_cast<size_t>(rate * rung_seconds),
            lpa::HashCombine(options.seed, 100 + 32 * climb + r), &fresh_store);
        PhaseResult phase = RunPhase(server, rung, rate);
        double p99 = Quantile(phase.Latencies(false), 0.99);
        bool grew =
            phase.BacklogGrew(std::max(8.0, 0.05 * rate * rung_seconds));
        bool pass = p99 <= kLatencyLimitMs && !grew;
        char entry[96];
        std::snprintf(entry, sizeof(entry), "%s%d:%s p99=%.1fms",
                      log.empty() ? "" : ", ", static_cast<int>(rate),
                      pass ? "pass" : (grew ? "backlog" : "slow"), p99);
        log += entry;
        if (pass) {
          climb_rate = phase.AchievedRate();
          misses = 0;
        } else {
          ++misses;
        }
        phases.push_back(std::move(phase));
      }
      report->Note("serve.climb_" + std::to_string(climb), log);
      climb_rates.push_back(climb_rate);
    }
    max_rate = Median(climb_rates);
  }

  // Layer counters of the measured phases, read before the checks below
  // call into the same layers.
  double batches = window.Delta("serving.batches.count");
  double rows = window.Delta("serving.batched_rows.count");
  double plans = window.Delta("costmodel.plans.count");
  double hits = window.Delta("costmodel.cost_cache_hits.count");
  double misses = window.Delta("costmodel.cost_cache_misses.count");
  double skips = window.Delta("costmodel.delta_skips.count");
  double evals = window.Delta("costmodel.delta_evals.count");

  // Every submitted request resolved exactly once.
  auto after = server->stats();
  uint64_t submitted = after.submitted - before.submitted;
  uint64_t resolved = (after.completed - before.completed) +
                      (after.rejected - before.rejected) +
                      (after.shed - before.shed) +
                      (after.failed - before.failed);
  uint64_t collected = fixed.outcomes.size();
  uint64_t not_ok = 0;
  for (const auto& o : fixed.outcomes) not_ok += o.ok ? 0 : 1;
  for (const auto& p : phases) {
    collected += p.outcomes.size();
    for (const auto& o : p.outcomes) not_ok += o.ok ? 0 : 1;
  }
  report->attempted += submitted;
  report->failed += not_ok;
  if (submitted != resolved || submitted != collected) {
    report->Fail("request accounting: submitted " + std::to_string(submitted) +
                 ", resolved " + std::to_string(resolved) + ", collected " +
                 std::to_string(collected));
  }
  if (not_ok > 0) report->Fail(std::to_string(not_ok) + " requests failed");

  // A seeded sample of served answers must equal AdvisorHandle::Suggest on
  // the same snapshot (greedy rollout, as ServingModel serves) and mix.
  auto verify_config = TrainingConfig(kServeEpisodes, 0);
  verify_config.inference_extra_rollouts = 0;
  lpa::AdvisorHandle reference(setup.tb.schema.get(), *setup.tb.workload,
                               verify_config);
  lpa::Status restored = reference.Restore(setup.snapshot);
  if (restored.ok()) restored = reference.BindCostModel(setup.tb.model.get());
  if (!restored.ok()) report->Fail("reference restore failed");
  lpa::Rng pick(lpa::HashCombine(options.seed, 0x5e1));
  for (int i = 0; i < kVerifySamples && restored.ok(); ++i) {
    auto idx = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(fixed.outcomes.size()) - 1));
    const Outcome& o = fixed.outcomes[idx];
    if (!o.ok) continue;
    auto expected = reference.Suggest({.frequencies = *schedule[idx].mix});
    if (!expected.ok() || ResultDigest(*expected) != ResultDigest(*o.result)) {
      report->Fail("served answer " + std::to_string(idx) +
                   " differs from AdvisorHandle::Suggest");
    }
  }

  auto uniform = setup.tb.Uniform();
  auto served_uniform = server->Suggest(uniform);
  server->Stop();
  if (!served_uniform.status.ok() || !served_uniform.result) {
    report->Fail("uniform-mix request failed");
    return;
  }
  report->Digested("serve.uniform_design", ResultDigest(*served_uniform.result));
  double speedup = setup.tb.Speedup(served_uniform.result->best_state);
  Digest quality;
  quality.Add(speedup);
  report->Digested("serve.design_speedup", quality.Hex());

  auto fresh_ms = fixed.Latencies(true);
  auto recurring_ms = fixed.Latencies(false);
  report->E2e("setup_s", Median(setup_times), "s");
  report->E2e("time_to_design_s", design_cpu_s, "s");
  report->E2e("design_speedup", speedup, "x");
  report->E2e("work_per_cpu_s",
              static_cast<double>(fixed.outcomes.size()) / fixed_cpu, "1/s");
  report->Note("serve.max_qps", std::to_string(max_rate));

  report->Note("serve.fixed_requests", std::to_string(fixed.outcomes.size()));
  report->Note("serve.fixed_fresh_requests", std::to_string(fresh_ms.size()));
  report->Note("serve.recurring_p50_ms", std::to_string(Quantile(recurring_ms, 0.5)));
  report->Note("serve.recurring_p99_ms", std::to_string(Quantile(recurring_ms, 0.99)));
  report->Note("serve.fresh_p90_ms", std::to_string(Quantile(fresh_ms, 0.9)));
  report->Note("serve.fresh_max_ms", std::to_string(Quantile(fresh_ms, 1.0)));
  report->Note("serve.generator_late_max_ms", std::to_string(fixed.late_max_ms));

  if (!options.trace) return;
  std::map<std::string, double> v;
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  std::vector<double> late_ms;
  for (const auto& o : fixed.outcomes) {
    if (!o.ok) continue;
    queue_ms.push_back(o.queue_s * 1e3);
    service_ms.push_back((o.served_s - o.queue_s) * 1e3);
    late_ms.push_back(
        std::chrono::duration<double, std::milli>(o.submit - o.due).count());
  }
  double plan_us = MeasurePlanMicros(setup.tb, options.seed);
  auto agent = MeasureAgent(setup.tb, setup.snapshot, options.seed, 8);
  if (!agent.ok) report->Fail("the snapshot did not load into a DqnAgent");
  double requests = static_cast<double>(submitted);
  v["costmodel.plans"] = plans;
  v["costmodel.plan_us"] = plan_us;
  v["costmodel.busy_s"] = plans * plan_us * 1e-6;
  v["costmodel.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  v["costmodel.tracker_skip_ratio"] = skips + evals > 0 ? skips / (skips + evals) : 0.0;
  // Served rollouts evaluate the Q-network through the batcher, one batched
  // row per state.
  v["rl.q_evals"] = rows;
  v["rl.train_step_us"] = agent.train_step_us;
  v["nn.forward_us"] = agent.forward_us;
  v["nn.forward_batch_us"] = agent.forward_batch_us;
  v["nn.q_evals_per_suggest"] = requests > 0 ? rows / requests : 0.0;
  v["storage.generate_s"] = Median(generate_times);
  v["storage.compression_ratio"] = setup.tb.CompressionRatio();
  v["serving.queue_wait_p50_ms"] = Quantile(queue_ms, 0.5);
  v["serving.queue_wait_p99_ms"] = Quantile(queue_ms, 0.99);
  v["serving.service_p50_ms"] = Quantile(service_ms, 0.5);
  v["serving.batch_rows_mean"] = batches > 0 ? rows / batches : 0.0;
  v["serving.rejected"] = static_cast<double>(after.rejected - before.rejected);
  v["serving.shed"] = static_cast<double>(after.shed - before.shed);
  v["serving.failed"] = static_cast<double>(after.failed - before.failed);
  v["serve.generator_late_ms"] = Quantile(late_ms, 0.99);
  v["serve.recurring_p50_ms"] = Quantile(recurring_ms, 0.5);
  v["serve.recurring_p99_ms"] = Quantile(recurring_ms, 0.99);
  v["serve.max_qps"] = max_rate;
  v["serve.fresh_p50_ms"] = Quantile(fresh_ms, 0.5);
  MeasureEngine(setup.tb, served_uniform.result->best_state, &v);
  AddTraceMetrics(tracer, untraced_request_s, &v);
  ReportLayers(v, report);
  if (!tracer.Write(options.out_dir + "/trace-serve-tpcch.json")) {
    report->Fail("cannot write the span file");
  }
}

}  // namespace perfbench
