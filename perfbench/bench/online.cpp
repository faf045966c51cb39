// online-tpcch: the online phase of Sec 4.2 (runtime cache, lazy
// repartitioning and timeouts all on) through TrainSpec::Online, on the
// sampled TPC-CH cluster, starting from an agent trained offline during
// set-up. Repetition r runs on dataset r mod kDatasets: it restores the
// set-up snapshot into a fresh handle and trains against a freshly sampled
// cluster of that dataset, so a dataset's repetitions agree bit for bit.
// Measured runtimes, and with them the online phase's work, depend on the
// generated data; rotating over datasets keeps the run's median steady.

#include <optional>
#include <sstream>

#include "advisor/advisor_handle.h"
#include "bench/common.h"
#include "rl/online_env.h"
#include "util/eval_context.h"

namespace perfbench {

namespace {

constexpr int kBootstrapEpisodes = 24;
constexpr int kOnlineEpisodes = 20;
/// Datasets the repetitions rotate over.
constexpr size_t kOnlineDatasets = 10;

/// \brief Online environment that only times the outermost QueryCost /
/// WorkloadCost calls (the engine work of the online phase) and forwards
/// them unchanged.
class TimedOnlineEnv : public lpa::rl::OnlineEnv {
 public:
  TimedOnlineEnv(lpa::engine::ClusterDatabase* cluster,
                 const lpa::workload::Workload* workload,
                 std::vector<double> scale_factors, Tracer* tracer)
      : OnlineEnv(cluster, workload, std::move(scale_factors),
                  lpa::rl::OnlineEnvOptions{}),
        tracer_(tracer) {}

  double QueryCost(int query_index,
                   const lpa::partition::PartitioningState& state,
                   double frequency) override {
    Timed timed(this);
    return OnlineEnv::QueryCost(query_index, state, frequency);
  }

  double WorkloadCost(const lpa::partition::PartitioningState& state,
                      const std::vector<double>& frequencies,
                      lpa::EvalContext* ctx) override {
    Timed timed(this);
    return OnlineEnv::WorkloadCost(state, frequencies, ctx);
  }

  const std::vector<double>& call_ms() const { return call_ms_; }
  double busy_seconds() const { return busy_seconds_; }

 private:
  /// Times a call unless it is nested in another timed call of this env.
  class Timed {
   public:
    explicit Timed(TimedOnlineEnv* env) : env_(env) {
      if (env_->depth_++ > 0) return;
      span_.emplace(env_->tracer_, "engine.env_call", "engine");
      start_ = Clock::now();
    }
    ~Timed() {
      if (--env_->depth_ > 0) return;
      double s = SecondsSince(start_);
      env_->busy_seconds_ += s;
      env_->call_ms_.push_back(s * 1e3);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    TimedOnlineEnv* env_;
    std::optional<Tracer::Scope> span_;
    Clock::time_point start_{};
  };

  Tracer* tracer_;
  int depth_ = 0;
  double busy_seconds_ = 0.0;
  std::vector<double> call_ms_;
};

/// Set-up output: the testbed, the offline-trained snapshot and, per
/// dataset, the per-query scale factors S_i between its full and its sampled
/// cluster.
struct OnlineSetup {
  Testbed tb;
  std::string snapshot;
  std::vector<std::vector<double>> scale_factors;
};

OnlineSetup SetUp(uint64_t seed, Report* report) {
  OnlineSetup setup{MakeTestbed(seed, kOnlineDatasets), {}, {}};
  const Testbed& tb = setup.tb;
  lpa::AdvisorHandle handle(tb.schema.get(), *tb.workload,
                            TrainingConfig(kBootstrapEpisodes, 0));
  lpa::EvalContext ctx(kPoolThreads, kAdvisorSeed);
  auto trained = handle.Train(
      lpa::TrainSpec::Offline(tb.model.get(), kBootstrapEpisodes), &ctx);
  auto offline = handle.Suggest({.frequencies = tb.Uniform()}, &ctx);
  auto snapshot = handle.Snapshot();
  if (!trained.ok() || !offline.ok() || !snapshot.ok()) {
    report->Fail("online set-up training failed");
    return setup;
  }
  setup.snapshot = *snapshot;
  report->Digested("online.bootstrap_reward",
                   RewardDigest(trained->episode_best_rewards));
  Digest snap;
  snap.Add(setup.snapshot);
  report->Digested("online.bootstrap_snapshot", snap.Hex());
  for (size_t k = 0; k < tb.datasets.size(); ++k) {
    auto sample = tb.SampleCluster(k);
    setup.scale_factors.push_back(lpa::rl::ComputeScaleFactors(
        tb.datasets[k].cluster.get(), sample.get(), *tb.workload,
        offline->best_state, &ctx));
  }
  return setup;
}

}  // namespace

void RunOnline(const Options& options, Report* report) {
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  OnlineSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    auto t0 = Clock::now();
    setup = SetUp(options.seed, report);
    setup_times.push_back(SecondsSince(t0));
    generate_times.push_back(setup.tb.GenerateSeconds());
  }
  if (!report->correct) return;
  const Testbed& tb = setup.tb;
  report->Note("online.bootstrap_episodes", std::to_string(kBootstrapEpisodes));
  report->Note("online.episodes", std::to_string(kOnlineEpisodes));
  report->Note("datasets", std::to_string(tb.datasets.size()));

  auto config = TrainingConfig(kBootstrapEpisodes, kOnlineEpisodes);
  auto uniform = tb.Uniform();
  Tracer tracer(options.trace);
  std::vector<double> walls;
  std::vector<double> train_walls;
  std::vector<double> train_cpu;
  std::vector<double> env_busy;
  std::vector<double> env_call_ms;
  double untraced_wall = 0.0;
  double base_runtime = 0.0;
  double tuned_runtime = 0.0;
  std::optional<lpa::rl::InferenceResult> design;
  // Owns the edge set the kept design points into.
  std::unique_ptr<lpa::AdvisorHandle> design_owner;
  std::map<std::string, double> v;
  std::string rep_log;

  auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (size_t rep = 0;; ++rep) {
    // Traced runs time dataset 0 untraced, then traced.
    bool traced_rep = options.trace && rep == 1;
    size_t k = options.trace ? 0 : rep % tb.datasets.size();
    std::string at = "@d" + std::to_string(k);
    Tracer* tr = traced_rep ? &tracer : nullptr;
    report->attempted++;
    auto handle_ptr = std::make_unique<lpa::AdvisorHandle>(
        tb.schema.get(), *tb.workload, config);
    lpa::AdvisorHandle& handle = *handle_ptr;
    lpa::Status restored = handle.Restore(setup.snapshot);
    if (restored.ok()) restored = handle.BindCostModel(tb.model.get());
    if (!restored.ok()) {
      report->failed++;
      report->Fail("snapshot restore failed: " + restored.ToString());
      return;
    }
    auto sample = tb.SampleCluster(k);
    TimedOnlineEnv env(sample.get(), tb.workload.get(), setup.scale_factors[k],
                       tr);
    lpa::EvalContext ctx(kPoolThreads, kAdvisorSeed);
    env.set_exec_context(&ctx);

    CounterWindow window;
    // Planner calls during Train; not an exact count (see offline.cpp).
    std::optional<CounterWindow> train_window;
    std::optional<lpa::Result<lpa::rl::TrainingResult>> trained;
    std::optional<lpa::Result<lpa::rl::InferenceResult>> suggested;
    double train_wall = 0.0;
    bool seeded = false;
    auto t0 = Clock::now();
    {
      Tracer::Scope rep_span(tr, "online.repetition", "unattributed");
      {
        // Seed the timeout rule with the offline solution's measured cost,
        // as the online phase does after training offline in one handle.
        Tracer::Scope span(tr, "advisor.seed_timeouts", "advisor");
        auto offline = handle.Suggest({.frequencies = uniform}, &ctx);
        if (offline.ok()) {
          env.WorkloadCost(offline->best_state, uniform, nullptr);
          seeded = true;
        }
      }
      auto train0 = Clock::now();
      double cpu0 = ProcessCpuSeconds();
      train_window.emplace();
      {
        Tracer::Scope span(tr, "advisor.train_online", "rl");
        trained.emplace(handle.Train(
            lpa::TrainSpec::Online(&env, kOnlineEpisodes), &ctx));
      }
      train_wall = SecondsSince(train0);
      train_cpu.push_back(ProcessCpuSeconds() - cpu0);
      if (rep == 0) {
        v["costmodel.plans"] = train_window->Delta("costmodel.plans.count");
      }
      {
        Tracer::Scope span(tr, "advisor.suggest", "advisor");
        suggested.emplace(
            handle.Suggest({.frequencies = uniform, .env = &env}, &ctx));
      }
    }
    double wall = SecondsSince(t0);
    if (!seeded || !trained->ok() || !suggested->ok()) {
      report->failed++;
      report->Fail("online repetition failed");
      return;
    }
    for (const char* name : {"rl.env_evals", "rl.train_steps", "rl.q_evals",
                             "engine.queries_executed",
                             "engine.designs_applied"}) {
      report->Exact(name + at, window.Delta(std::string(name) + ".count"));
    }
    for (const char* name : {"engine.bytes_moved", "engine.bytes_shuffled"}) {
      report->Exact(name + at, window.Delta(std::string(name) + ".bytes"));
    }
    const auto& acc = env.accounting();
    report->Digested("online.reward" + at,
                     RewardDigest((*trained)->episode_best_rewards));
    report->Digested("online.design" + at, ResultDigest(**suggested));
    Digest cluster;
    cluster.Add(acc.total_seconds());
    report->Digested("online.cluster_seconds" + at, cluster.Hex());
    design = **suggested;
    design_owner = std::move(handle_ptr);

    if (rep == 0) {
      double hits = window.Delta("engine.plan_cache_hits.count");
      double misses = window.Delta("engine.plan_cache_misses.count");
      v["engine.plan_cache_hit_ratio"] =
          hits + misses > 0 ? hits / (hits + misses) : 0.0;
      double served = static_cast<double>(acc.cache_hits + acc.queries_executed);
      v["rl.online_cache_hit_ratio"] =
          served > 0 ? static_cast<double>(acc.cache_hits) / served : 0.0;
      v["rl.online_cluster_s"] = acc.total_seconds();
      double chits = window.Delta("costmodel.cost_cache_hits.count");
      double cmiss = window.Delta("costmodel.cost_cache_misses.count");
      v["costmodel.cache_hit_ratio"] =
          chits + cmiss > 0 ? chits / (chits + cmiss) : 0.0;
    }
    if (traced_rep) break;
    if (rep == 0) untraced_wall = wall;
    walls.push_back(wall);
    train_walls.push_back(train_wall);
    env_busy.push_back(env.busy_seconds());
    env_call_ms.insert(env_call_ms.end(), env.call_ms().begin(),
                       env.call_ms().end());
    if (!rep_log.empty()) rep_log += ',';
    rep_log += std::to_string(wall);
    if (!options.trace && rep < tb.datasets.size()) {
      // Untimed: the post-online design's quality on this dataset.
      auto [base, tuned] = tb.Compare(k, design->best_state);
      base_runtime += base;
      tuned_runtime += tuned;
    }
    // Every dataset runs once, and one more repetition re-checks dataset 0.
    if (!options.trace && rep >= tb.datasets.size() &&
        Clock::now() >= deadline) {
      break;
    }
  }

  double speedup = tuned_runtime > 0.0 ? base_runtime / tuned_runtime : 0.0;
  report->E2e("setup_s", Median(setup_times), "s");
  report->E2e("time_to_design_s", Median(walls), "s");
  report->E2e("design_speedup", speedup, "x");
  report->E2e("work_per_cpu_s", kOnlineEpisodes / Median(train_cpu), "1/s");
  report->Note("online.repetitions", std::to_string(walls.size()));
  report->Note("online.repetition_s", rep_log);

  if (!options.trace) return;
  double plan_us = MeasurePlanMicros(tb, options.seed);
  auto agent = MeasureAgent(tb, setup.snapshot, options.seed, 8);
  if (!agent.ok) report->Fail("the snapshot did not load into a DqnAgent");
  double plans = v["costmodel.plans"];
  v["costmodel.plan_us"] = plan_us;
  v["costmodel.busy_s"] = plans * plan_us * 1e-6;
  for (const char* name : {"rl.env_evals", "rl.train_steps", "rl.q_evals",
                           "engine.queries_executed", "engine.designs_applied",
                           "engine.bytes_moved", "engine.bytes_shuffled"}) {
    v[name] = static_cast<double>(report->exact[std::string(name) + "@d0"]);
  }
  v["rl.train_step_us"] = agent.train_step_us;
  v["engine.env_busy_s"] = Median(env_busy);
  v["rl.agent_s"] = Median(train_walls) - Median(env_busy);
  v["engine.env_call_p50_ms"] = Quantile(env_call_ms, 0.5);
  v["engine.env_call_p99_ms"] = Quantile(env_call_ms, 0.99);
  v["nn.forward_us"] = agent.forward_us;
  v["nn.forward_batch_us"] = agent.forward_batch_us;
  v["storage.generate_s"] = Median(generate_times);
  v["storage.compression_ratio"] = tb.CompressionRatio();
  MeasureEngine(tb, design->best_state, &v);
  AddTraceMetrics(tracer, untraced_wall, &v);
  ReportLayers(v, report);
  if (!tracer.Write(options.out_dir + "/trace-online-tpcch.json")) {
    report->Fail("cannot write the span file");
  }
}

}  // namespace perfbench
