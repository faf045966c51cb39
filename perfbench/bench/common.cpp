#include "bench/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <sys/resource.h>

#include "advisor/serialization.h"
#include "nn/matrix.h"
#include "partition/actions.h"
#include "partition/featurizer.h"
#include "rl/dqn.h"
#include "schema/catalogs.h"
#include "telemetry/registry.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  out += lpa::telemetry::JsonWriter::Escape(s);
  out += '"';
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

thread_local std::vector<int> t_open_spans;

/// Engine configuration of the full and the sampled clusters.
lpa::engine::EngineConfig MakeEngineConfig(uint64_t seed) {
  lpa::engine::EngineConfig config;
  config.hardware = lpa::costmodel::HardwareProfile::DiskBased10G();
  config.noise_stddev = 0.02;
  config.seed = seed;
  return config;
}

}  // namespace

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// ---------------------------------------------------------------- statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi]) || lo == hi) return values[hi];
  double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Digest::Add(uint64_t v) { h_ = lpa::HashCombine(h_, v); }

void Digest::Add(const std::string& s) { Add(lpa::HashString(s)); }

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string RewardDigest(const std::vector<double>& rewards) {
  Digest d;
  for (double r : rewards) d.Add(r);
  return d.Hex();
}

std::string ResultDigest(const lpa::rl::InferenceResult& result) {
  Digest d;
  d.Add(result.best_state.PhysicalDesignKey());
  d.Add(result.best_cost);
  for (int a : result.actions) d.Add(static_cast<uint64_t>(a));
  return d.Hex();
}

// ----------------------------------------------------------------- telemetry

std::map<std::string, uint64_t> CounterWindow::Read() {
  std::map<std::string, uint64_t> out;
  for (const auto& m : lpa::telemetry::MetricsRegistry::Global().Snapshot()) {
    if (m.type == lpa::telemetry::MetricType::kCounter) out[m.name] = m.count;
  }
  return out;
}

uint64_t CounterWindow::Delta(const std::string& name) const {
  auto now = Read();
  auto it = now.find(name);
  if (it == now.end()) return 0;
  auto start = start_.find(name);
  return it->second - (start == start_.end() ? 0 : start->second);
}

// -------------------------------------------------------------------- tracer

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::Now() const { return SecondsSince(origin_); }

int Tracer::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Fill(int id, SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)] = std::move(record);
}

int Tracer::Add(const std::string& name, const std::string& layer,
                double start, double end, int parent, uint64_t request) {
  if (!enabled_) return -1;
  int id = Reserve();
  Fill(id, {name, layer, start, end, parent, request});
  return id;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     uint64_t request)
    : tracer_(tracer), name_(name), layer_(layer), request_(request) {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  parent_ = t_open_spans.empty() ? -1 : t_open_spans.back();
  id_ = tracer_->Reserve();
  t_open_spans.push_back(id_);
  start_ = tracer_->Now();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  double end = tracer_->Now();
  t_open_spans.pop_back();
  tracer_->Fill(id_, {name_, layer_, start_, end, parent_, request_});
}

std::map<std::string, double> Tracer::SelfTimes(double* root_total) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  *root_total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    double own = std::max(0.0, (s.end - s.start) - child_time[i]);
    if (s.parent < 0) {
      *root_total += s.end - s.start;
      self["unattributed"] += own;
    } else {
      self[s.layer] += own;
    }
  }
  return self;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"layer\": " << JsonString(s.layer)
        << ", \"start\": " << JsonNumber(s.start)
        << ", \"end\": " << JsonNumber(s.end) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// -------------------------------------------------------------------- report

void Report::Fail(const std::string& message) {
  correct = false;
  errors.push_back(message);
}

void Report::Exact(const std::string& name, uint64_t value) {
  auto [it, inserted] = exact.emplace(name, value);
  if (!inserted && it->second != value) {
    Fail("exact count " + name + " differs between repetitions: " +
         std::to_string(it->second) + " vs " + std::to_string(value));
  }
}

void Report::Digested(const std::string& name, const std::string& value) {
  auto [it, inserted] = digests.emplace(name, value);
  if (!inserted && it->second != value) {
    Fail("digest " + name + " differs between repetitions: " + it->second +
         " vs " + value);
  }
}

std::string Report::ToJson() const {
  std::ostringstream out;
  auto metrics = [&](const std::vector<Metric>& list) {
    out << "{";
    for (size_t i = 0; i < list.size(); ++i) {
      out << (i ? ", " : "") << JsonString(list[i].name)
          << ": {\"value\": " << JsonNumber(list[i].value)
          << ", \"unit\": " << JsonString(list[i].unit) << "}";
    }
    out << "}";
  };
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(errors[i]);
  }
  out << "], \"end_to_end\": ";
  metrics(end_to_end);
  out << ", \"per_layer\": ";
  metrics(per_layer);
  out << ", \"exact\": {";
  size_t i = 0;
  for (const auto& [name, value] : exact) {
    out << (i++ ? ", " : "") << JsonString(name) << ": " << value;
  }
  out << "}, \"digests\": {";
  i = 0;
  for (const auto& [name, value] : digests) {
    out << (i++ ? ", " : "") << JsonString(name) << ": " << JsonString(value);
  }
  out << "}, \"manifest\": {";
  i = 0;
  for (const auto& [key, value] : manifest) {
    out << (i++ ? ", " : "") << JsonString(key) << ": " << JsonString(value);
  }
  out << "}}";
  return out.str();
}

// ------------------------------------------------------------------- testbed


Testbed MakeTestbed(uint64_t seed, size_t datasets) {
  Testbed tb;
  tb.schema =
      std::make_unique<lpa::schema::Schema>(lpa::schema::MakeTpcchSchema());
  tb.workload = std::make_unique<lpa::workload::Workload>(
      lpa::workload::MakeTpcchWorkload(*tb.schema));
  tb.workload->SetUniformFrequencies();
  auto profile = lpa::costmodel::HardwareProfile::DiskBased10G();
  tb.model = std::make_unique<lpa::costmodel::CostModel>(tb.schema.get(),
                                                         profile);
  tb.planner = std::make_unique<lpa::costmodel::CostModel>(tb.schema.get(),
                                                           profile);
  tb.edges = std::make_unique<lpa::partition::EdgeSet>(
      lpa::partition::EdgeSet::Extract(*tb.schema, *tb.workload));
  for (size_t k = 0; k < datasets; ++k) {
    Dataset d;
    d.seed = lpa::HashCombine(seed, k);
    lpa::storage::GenerationConfig gen;
    gen.fraction = 2e-3;
    gen.small_table_threshold = 64;
    gen.seed = d.seed;
    auto t0 = Clock::now();
    d.database = std::make_unique<lpa::storage::Database>(
        lpa::storage::Database::Generate(*tb.schema, *tb.workload, gen));
    d.generate_seconds = SecondsSince(t0);
    d.cluster = std::make_unique<lpa::engine::ClusterDatabase>(
        *d.database, MakeEngineConfig(d.seed), tb.planner.get());
    tb.datasets.push_back(std::move(d));
  }
  return tb;
}

lpa::partition::PartitioningState Testbed::Initial() const {
  return lpa::partition::PartitioningState::Initial(schema.get(), edges.get());
}

double Testbed::GenerateSeconds() const {
  double total = 0.0;
  for (const auto& d : datasets) total += d.generate_seconds;
  return total;
}

std::unique_ptr<lpa::engine::ClusterDatabase> Testbed::SampleCluster(
    size_t k) const {
  const Dataset& d = datasets.at(k);
  return std::make_unique<lpa::engine::ClusterDatabase>(
      d.database->Sample(0.2, 64, lpa::HashCombine(d.seed, 7)),
      MakeEngineConfig(lpa::HashCombine(d.seed, 43)), planner.get());
}

double Testbed::Measure(size_t k,
                        const lpa::partition::PartitioningState& design) const {
  const auto& cluster = datasets.at(k).cluster;
  cluster->ApplyDesign(design);
  return cluster->ExecuteWorkload(*workload);
}

double Testbed::CompressionRatio() const {
  const auto& cluster = datasets.front().cluster;
  return static_cast<double>(cluster->storage_raw_bytes()) /
         static_cast<double>(cluster->storage_resident_bytes());
}

std::pair<double, double> Testbed::Compare(
    size_t k, const lpa::partition::PartitioningState& design) const {
  double base = Measure(k, Initial());
  return {base, Measure(k, design)};
}

double Testbed::Speedup(const lpa::partition::PartitioningState& design) const {
  double base = 0.0;
  double tuned = 0.0;
  for (size_t k = 0; k < datasets.size(); ++k) {
    auto [b, t] = Compare(k, design);
    base += b;
    tuned += t;
  }
  return tuned > 0.0 ? base / tuned : 0.0;
}

lpa::advisor::AdvisorConfig TrainingConfig(int offline_episodes,
                                           int online_episodes) {
  lpa::advisor::AdvisorConfig config;
  config.dqn.tmax = kTmax;
  config.offline_episodes = offline_episodes;
  config.online_episodes = online_episodes;
  config.dqn.FitEpsilonSchedule(offline_episodes);
  config.seed = kAdvisorSeed;
  return config;
}

// -------------------------------------------------------------------- probes

namespace {

/// States visited by seeded random action walks of episode length from s0.
std::vector<lpa::partition::PartitioningState> RandomWalkStates(
    const lpa::schema::Schema& schema, const lpa::partition::EdgeSet& edges,
    const lpa::partition::ActionSpace& actions, int walks, lpa::Rng* rng) {
  std::vector<lpa::partition::PartitioningState> states;
  for (int w = 0; w < walks; ++w) {
    auto state = lpa::partition::PartitioningState::Initial(&schema, &edges);
    for (int step = 0; step < kTmax; ++step) {
      auto legal = actions.LegalActions(state);
      if (legal.empty()) break;
      int pick = legal[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
      if (!actions.Apply(pick, &state).ok()) break;
      states.push_back(state);
    }
  }
  return states;
}

}  // namespace

double MeasurePlanMicros(const Testbed& tb, uint64_t seed) {
  auto edges = lpa::partition::EdgeSet::Extract(*tb.schema, *tb.workload);
  lpa::partition::ActionSpace actions(tb.schema.get(), &edges);
  lpa::Rng rng(lpa::HashCombine(seed, 0x91a4));
  auto states = RandomWalkStates(*tb.schema, edges, actions, 8, &rng);
  // A fresh model: QueryCost itself keeps no memo, so every call plans.
  lpa::costmodel::CostModel model(tb.schema.get(), tb.model->hardware());
  std::vector<double> micros;
  double sink = 0.0;
  for (const auto& state : states) {
    int q = static_cast<int>(
        rng.UniformInt(0, tb.workload->num_queries() - 1));
    auto t0 = Clock::now();
    sink += model.QueryCost(tb.workload->query(q), state);
    micros.push_back(SecondsSince(t0) * 1e6);
  }
  // Costs are non-negative; a NaN would make every figure meaningless.
  if (!(sink >= 0.0)) return 0.0;
  return Median(micros);
}

AgentProbe MeasureAgent(const Testbed& tb, const std::string& snapshot,
                        uint64_t seed, int batch) {
  AgentProbe probe;
  auto edges = lpa::partition::EdgeSet::Extract(*tb.schema, *tb.workload);
  lpa::partition::ActionSpace actions(tb.schema.get(), &edges);
  lpa::partition::Featurizer featurizer(tb.schema.get(), &edges,
                                        tb.workload->num_queries());
  lpa::rl::DqnConfig dqn;
  dqn.tmax = kTmax;
  dqn.seed = seed;
  lpa::rl::DqnAgent agent(&featurizer, &actions, dqn);
  std::istringstream in(snapshot);
  if (!lpa::advisor::LoadAgentSnapshot(in, &agent).ok()) return probe;

  lpa::Rng rng(lpa::HashCombine(seed, 0xa6e7));
  auto uniform = tb.Uniform();
  auto states = RandomWalkStates(*tb.schema, edges, actions, 4, &rng);
  std::vector<std::vector<double>> encs;
  for (const auto& s : states) encs.push_back(featurizer.EncodeState(s, uniform));

  const auto& net = agent.q_network();
  double sink = 0.0;
  std::vector<double> single;
  for (const auto& enc : encs) {
    auto t0 = Clock::now();
    sink += net.Forward(enc)[0];
    single.push_back(SecondsSince(t0) * 1e6);
  }
  std::vector<double> batched;
  for (size_t i = 0; i + static_cast<size_t>(batch) <= encs.size(); i += batch) {
    std::vector<std::vector<double>> rows(encs.begin() + i,
                                          encs.begin() + i + batch);
    auto m = lpa::nn::Matrix::FromRows(rows);
    auto t0 = Clock::now();
    sink += net.Forward(m).row(0)[0];
    batched.push_back(SecondsSince(t0) * 1e6);
  }
  probe.forward_us = Median(single);
  probe.forward_batch_us = Median(batched);

  // Synthetic transitions along the walks fill the replay buffer; the timed
  // steps then sample minibatches from it exactly as training does.
  for (size_t i = 0; i + 1 < states.size(); ++i) {
    auto legal = actions.LegalActions(states[i]);
    if (legal.empty()) continue;
    lpa::rl::Transition t;
    t.state_enc = encs[i];
    t.action_id = legal[0];
    t.reward = rng.Uniform(-1.0, 1.0);
    t.next_enc = encs[i + 1];
    t.next_legal = actions.LegalActions(states[i + 1]);
    agent.Observe(std::move(t));
  }
  std::vector<double> steps;
  for (int i = 0; i < 40; ++i) {
    auto t0 = Clock::now();
    sink += agent.TrainStep(&rng);
    steps.push_back(SecondsSince(t0) * 1e6);
  }
  probe.train_step_us = Median(steps);
  probe.ok = std::isfinite(sink);
  return probe;
}

void MeasureEngine(const Testbed& tb,
                   const lpa::partition::PartitioningState& design,
                   std::map<std::string, double>* values) {
  auto initial = tb.Initial();
  const auto& cluster = tb.datasets.front().cluster;
  std::vector<double> apply_ms;
  std::vector<double> execute_ms;
  for (int i = 0; i < 3; ++i) {
    const lpa::partition::PartitioningState* targets[] = {&initial, &design};
    for (const auto* target : targets) {
      auto t0 = Clock::now();
      cluster->ApplyDesign(*target);
      apply_ms.push_back(SecondsSince(t0) * 1e3);
    }
    auto t0 = Clock::now();
    cluster->ExecuteWorkload(*tb.workload);
    execute_ms.push_back(SecondsSince(t0) * 1e3);
  }
  (*values)["engine.apply_design_ms"] = Median(apply_ms);
  (*values)["engine.execute_workload_ms"] = Median(execute_ms);
}

// ----------------------------------------------------------- layer metrics

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every traced run prints all of these, in this order (BENCHMARK.json's
// per_layer list).
constexpr LayerSpec kLayers[] = {
    {"costmodel.plans", "count"},
    {"costmodel.plan_us", "us"},
    {"costmodel.busy_s", "s"},
    {"costmodel.cache_hit_ratio", "ratio"},
    {"costmodel.tracker_skip_ratio", "ratio"},
    {"rl.env_evals", "count"},
    {"rl.train_steps", "count"},
    {"rl.q_evals", "count"},
    {"rl.train_step_us", "us"},
    {"rl.agent_s", "s"},
    {"rl.online_cache_hit_ratio", "ratio"},
    {"rl.online_cluster_s", "s"},
    {"nn.forward_us", "us"},
    {"nn.forward_batch_us", "us"},
    {"nn.q_evals_per_suggest", "count"},
    {"engine.env_busy_s", "s"},
    {"engine.env_call_p50_ms", "ms"},
    {"engine.env_call_p99_ms", "ms"},
    {"engine.execute_workload_ms", "ms"},
    {"engine.apply_design_ms", "ms"},
    {"engine.queries_executed", "count"},
    {"engine.designs_applied", "count"},
    {"engine.bytes_moved", "bytes"},
    {"engine.bytes_shuffled", "bytes"},
    {"engine.plan_cache_hit_ratio", "ratio"},
    {"storage.generate_s", "s"},
    {"storage.compression_ratio", "ratio"},
    {"serving.queue_wait_p50_ms", "ms"},
    {"serving.queue_wait_p99_ms", "ms"},
    {"serving.service_p50_ms", "ms"},
    {"serving.batch_rows_mean", "rows"},
    {"serving.rejected", "count"},
    {"serving.shed", "count"},
    {"serving.failed", "count"},
    {"serve.generator_late_ms", "ms"},
    {"serve.recurring_p50_ms", "ms"},
    {"serve.recurring_p99_ms", "ms"},
    {"serve.fresh_p50_ms", "ms"},
    {"serve.max_qps", "1/s"},
    {"trace.self_rl_s", "s"},
    {"trace.self_advisor_s", "s"},
    {"trace.self_engine_s", "s"},
    {"trace.self_serving_s", "s"},
    {"trace.self_loadgen_s", "s"},
    {"trace.self_unattributed_s", "s"},
    {"trace.traced_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

}  // namespace

void ReportLayers(const std::map<std::string, double>& values,
                  Report* report) {
  for (const auto& spec : kLayers) {
    auto it = values.find(spec.name);
    report->Layer(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

void AddTraceMetrics(const Tracer& tracer, double untraced_seconds,
                     std::map<std::string, double>* values) {
  double traced = 0.0;
  auto self = tracer.SelfTimes(&traced);
  for (const auto& [layer, seconds] : self) {
    (*values)["trace.self_" + layer + "_s"] = seconds;
  }
  (*values)["trace.traced_s"] = traced;
  (*values)["trace.untraced_s"] = untraced_seconds;
  (*values)["trace.overhead_s"] = traced - untraced_seconds;
}

}  // namespace perfbench
