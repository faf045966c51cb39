// offline-tpcch: AdvisorHandle::Train(TrainSpec::Offline) with the exact
// TPC-CH cost model, a uniform mix, tmax 36 and a fixed episode budget, then
// one Suggest for the final design. Repeated with the same seed until the
// run's time is spent; every repetition must reproduce the first one's
// digests and exact counts.

#include <optional>

#include "advisor/advisor_handle.h"
#include "bench/common.h"
#include "util/eval_context.h"

namespace perfbench {

namespace {

constexpr int kOfflineEpisodes = 64;

}  // namespace

void RunOffline(const Options& options, Report* report) {
  std::vector<double> setup_times;
  std::vector<double> generate_times;
  Testbed tb;
  for (int i = 0; i < kSetups; ++i) {
    auto t0 = Clock::now();
    tb = MakeTestbed(options.seed);
    setup_times.push_back(SecondsSince(t0));
    generate_times.push_back(tb.GenerateSeconds());
  }
  report->Note("offline.episodes", std::to_string(kOfflineEpisodes));

  auto config = TrainingConfig(kOfflineEpisodes, 0);
  auto uniform = tb.Uniform();
  Tracer tracer(options.trace);
  std::vector<double> walls;
  std::vector<double> train_walls;
  std::vector<double> train_cpu;
  double untraced_wall = 0.0;
  std::optional<lpa::rl::InferenceResult> design;
  // Owns the edge set the kept design points into.
  std::unique_ptr<lpa::AdvisorHandle> design_owner;
  std::string snapshot;
  uint64_t plans = 0;
  uint64_t q_evals_suggest = 0;
  double cache_hit_ratio = 0.0;
  double tracker_skip_ratio = 0.0;
  std::string rep_log;

  auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  for (int rep = 0;; ++rep) {
    // Traced runs time one untraced repetition, then one traced one.
    bool traced_rep = options.trace && rep == 1;
    Tracer* tr = traced_rep ? &tracer : nullptr;
    auto handle_ptr = std::make_unique<lpa::AdvisorHandle>(
        tb.schema.get(), *tb.workload, config);
    lpa::AdvisorHandle& handle = *handle_ptr;
    lpa::EvalContext ctx(kPoolThreads, kAdvisorSeed);
    report->attempted++;

    CounterWindow train_window;
    double cpu0 = ProcessCpuSeconds();
    auto t0 = Clock::now();
    std::optional<lpa::Result<lpa::rl::TrainingResult>> trained;
    std::optional<lpa::Result<lpa::rl::InferenceResult>> suggested;
    double train_wall = 0.0;
    std::optional<CounterWindow> suggest_window;
    {
      Tracer::Scope rep_span(tr, "offline.repetition", "unattributed");
      {
        Tracer::Scope span(tr, "advisor.train_offline", "rl");
        trained.emplace(handle.Train(
            lpa::TrainSpec::Offline(tb.model.get(), kOfflineEpisodes), &ctx));
      }
      train_wall = SecondsSince(t0);
      train_cpu.push_back(ProcessCpuSeconds() - cpu0);
      suggest_window.emplace();
      {
        Tracer::Scope span(tr, "advisor.suggest", "advisor");
        suggested.emplace(handle.Suggest({.frequencies = uniform}, &ctx));
      }
    }
    double wall = SecondsSince(t0);
    if (!trained->ok() || !suggested->ok()) {
      report->failed++;
      report->Fail("offline repetition failed: " +
                   (trained->ok() ? suggested->status() : trained->status())
                       .ToString());
      return;
    }

    q_evals_suggest = suggest_window->Delta("rl.q_evals.count");
    // Not an exact count: the pool prices queries of one step concurrently,
    // and two tasks that miss the shared cost memo on one key both plan.
    plans = train_window.Delta("costmodel.plans.count");
    report->Exact("rl.env_evals", train_window.Delta("rl.env_evals.count"));
    report->Exact("rl.train_steps", train_window.Delta("rl.train_steps.count"));
    report->Exact("rl.q_evals", train_window.Delta("rl.q_evals.count"));
    report->Digested("offline.reward",
                     RewardDigest((*trained)->episode_best_rewards));
    report->Digested("offline.design", ResultDigest(**suggested));
    double hits = train_window.Delta("costmodel.cost_cache_hits.count");
    double misses = train_window.Delta("costmodel.cost_cache_misses.count");
    cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    double skips = train_window.Delta("costmodel.delta_skips.count");
    double evals = train_window.Delta("costmodel.delta_evals.count");
    tracker_skip_ratio = skips + evals > 0 ? skips / (skips + evals) : 0.0;

    design = **suggested;
    design_owner = std::move(handle_ptr);
    if (traced_rep) break;
    if (rep == 0) untraced_wall = wall;
    walls.push_back(wall);
    train_walls.push_back(train_wall);
    if (!rep_log.empty()) rep_log += ',';
    rep_log += std::to_string(wall);
    if (!options.trace && rep >= 1 && Clock::now() >= deadline) break;
    if (rep == 0) {
      auto snap = design_owner->Snapshot();
      if (snap.ok()) snapshot = *snap;
    }
  }

  double speedup = tb.Speedup(design->best_state);
  Digest quality;
  quality.Add(speedup);
  report->Digested("offline.design_speedup", quality.Hex());

  report->E2e("setup_s", Median(setup_times), "s");
  report->E2e("time_to_design_s", Median(walls), "s");
  report->E2e("design_speedup", speedup, "x");
  report->E2e("work_per_cpu_s", kOfflineEpisodes / Median(train_cpu), "1/s");
  report->Note("offline.repetitions", std::to_string(walls.size()));
  report->Note("offline.repetition_s", rep_log);

  if (!options.trace) return;
  std::map<std::string, double> v;
  double plan_us = MeasurePlanMicros(tb, options.seed);
  auto agent = MeasureAgent(tb, snapshot, options.seed, 8);
  if (!agent.ok) report->Fail("the snapshot did not load into a DqnAgent");
  v["costmodel.plans"] = static_cast<double>(plans);
  v["costmodel.plan_us"] = plan_us;
  v["costmodel.busy_s"] = static_cast<double>(plans) * plan_us * 1e-6;
  v["costmodel.cache_hit_ratio"] = cache_hit_ratio;
  v["costmodel.tracker_skip_ratio"] = tracker_skip_ratio;
  v["rl.env_evals"] = static_cast<double>(report->exact["rl.env_evals"]);
  v["rl.train_steps"] = static_cast<double>(report->exact["rl.train_steps"]);
  v["rl.q_evals"] = static_cast<double>(report->exact["rl.q_evals"]);
  v["rl.train_step_us"] = agent.train_step_us;
  v["rl.agent_s"] = Median(train_walls) - v["costmodel.busy_s"];
  v["nn.forward_us"] = agent.forward_us;
  v["nn.forward_batch_us"] = agent.forward_batch_us;
  v["nn.q_evals_per_suggest"] = static_cast<double>(q_evals_suggest);
  v["storage.generate_s"] = Median(generate_times);
  v["storage.compression_ratio"] = tb.CompressionRatio();
  MeasureEngine(tb, design->best_state, &v);
  // The serving layer is measured here, by serve-tpcch's open loop: its
  // end-to-end figures are too unsteady on a shared host to gate on, so it
  // is not a workload of its own, but its serving figures are reported.
  Report serving;
  RunServe(options, &serving);
  for (const auto& m : serving.per_layer) {
    if (m.name.rfind("serving.", 0) == 0 || m.name.rfind("serve.", 0) == 0) {
      v[m.name] = m.value;
    }
  }
  for (const auto& [key, value] : serving.manifest) {
    if (key.rfind("serve.", 0) == 0) report->Note(key, value);
  }
  for (const auto& error : serving.errors) report->Fail("serving: " + error);
  report->attempted += serving.attempted;
  report->failed += serving.failed;
  AddTraceMetrics(tracer, untraced_wall, &v);
  ReportLayers(v, report);
  if (!tracer.Write(options.out_dir + "/trace-offline-tpcch.json")) {
    report->Fail("cannot write the span file");
  }
}

}  // namespace perfbench
