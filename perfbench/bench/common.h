// Shared pieces of the repository benchmark: the TPC-CH testbed, timing and
// quantile helpers, digests, telemetry counter windows, the span tracer, and
// the report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "engine/cluster.h"
#include "partition/partition_state.h"
#include "rl/trainer.h"
#include "schema/schema.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// \brief User plus system CPU seconds this process has used. Time the
/// hypervisor steals from a virtual CPU is not counted, which is why the
/// work-per-CPU-second metric stays steady on a shared host where
/// wall-clock figures do not.
double ProcessCpuSeconds();

/// \brief Threads of the program's EvalContext pool in the training
/// workloads, and AdvisorServer workers in the serving workload.
inline constexpr int kPoolThreads = 2;
inline constexpr int kServerWorkers = 2;
/// Steps per episode (the paper's TPC-CH setting).
inline constexpr int kTmax = 36;
/// Seed of the advisor itself (network initialization, exploration and the
/// training-mix sampler). It is a training setting, not an input: `--seed`
/// drives the generated database, the sampled cluster and the serving
/// traffic, while every seed trains the same agent.
inline constexpr uint64_t kAdvisorSeed = 42;
/// Set-ups per run; `setup_s` is their median.
inline constexpr int kSetups = 3;

/// \brief Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

// ---------------------------------------------------------------- statistics

/// \brief Linear-interpolation quantile (q in [0, 1]); 0 for an empty set.
/// Infinite entries sort last, so a failed request counts as a miss.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// \brief Order-sensitive 64-bit digest over doubles' bit patterns, integers
/// and strings; two runs agree iff they fed identical sequences.
class Digest {
 public:
  void Add(double v);
  void Add(uint64_t v);
  void Add(const std::string& s);
  std::string Hex() const;

 private:
  uint64_t h_ = 0x9e3779b97f4a7c15ULL;
};

std::string RewardDigest(const std::vector<double>& rewards);
/// \brief Digest of a suggested design: its physical key, cost and actions.
std::string ResultDigest(const lpa::rl::InferenceResult& result);

// ----------------------------------------------------------------- telemetry

/// \brief Snapshot of every counter in the process-global telemetry registry;
/// `Delta` gives what a measured section added.
class CounterWindow {
 public:
  CounterWindow() : start_(Read()) {}
  uint64_t Delta(const std::string& name) const;
  static std::map<std::string, uint64_t> Read();

 private:
  std::map<std::string, uint64_t> start_;
};

// -------------------------------------------------------------------- tracer

/// \brief In-memory span recorder for traced runs. Spans carry a name, the
/// layer they are charged to, start/end (seconds since the tracer started),
/// the parent span and, in serving, a request id. When disabled every call
/// is a branch; the untraced runs that produce end-to-end metrics never
/// record anything.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  double Now() const;
  /// \brief `t` in seconds since the tracer started.
  double At(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// \brief Record a finished span; returns its id (-1 when disabled).
  int Add(const std::string& name, const std::string& layer, double start,
          double end, int parent, uint64_t request = 0);

  /// \brief Scoped span whose parent is the innermost open scoped span of
  /// the same thread.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer,
          uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    const char* layer_;
    uint64_t request_;
    double start_ = 0.0;
    int id_ = -1;
    int parent_ = -1;
  };

  /// \brief Per-layer self time (span duration minus its children's), and
  /// the summed duration of root spans — the traced end-to-end wall-clock.
  /// Root spans are charged to the layer "unattributed".
  std::map<std::string, double> SelfTimes(double* root_total) const;

  /// \brief Write every span as JSON to `path`; returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    std::string layer;
    double start;
    double end;
    int parent;
    uint64_t request;
  };
  int Reserve();
  void Fill(int id, SpanRecord record);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// -------------------------------------------------------------------- report

/// \brief Everything one run reports: correctness, attempt/failure counts,
/// both metric sets, the exact counts and digests the guards compare, and the
/// manifest.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, uint64_t> exact;
  std::map<std::string, std::string> digests;
  std::vector<std::pair<std::string, std::string>> manifest;

  void Fail(const std::string& message);
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    manifest.emplace_back(key, value);
  }
  /// \brief Record an exact count; a second record of the same name with a
  /// different value (another repetition of the same seed) fails the run.
  void Exact(const std::string& name, uint64_t value);
  /// \brief Same rule for digests.
  void Digested(const std::string& name, const std::string& value);

  std::string ToJson() const;
};

// ------------------------------------------------------------------- testbed

/// \brief One generated TPC-CH database and the full cluster built from a
/// copy of it.
struct Dataset {
  uint64_t seed = 0;
  std::unique_ptr<lpa::storage::Database> database;
  std::unique_ptr<lpa::engine::ClusterDatabase> cluster;
  double generate_seconds = 0.0;
};

/// \brief The TPC-CH testbed on the disk-based engine profile: schema,
/// workload (uniform mix), the exact cost model (offline rewards), a second
/// exact model acting as the engine's planner, and several databases
/// generated from seeds derived from the run's seed. The engine's measured
/// runtimes depend on the generated data (skewed keys), so quality and the
/// online phase are measured over several databases rather than one.
struct Testbed {
  std::unique_ptr<lpa::schema::Schema> schema;
  std::unique_ptr<lpa::workload::Workload> workload;
  std::unique_ptr<lpa::costmodel::CostModel> model;
  std::unique_ptr<lpa::costmodel::CostModel> planner;
  /// Candidate partitioning edges; states built from Initial() point here.
  std::unique_ptr<lpa::partition::EdgeSet> edges;
  std::vector<Dataset> datasets;

  std::vector<double> Uniform() const {
    return std::vector<double>(
        static_cast<size_t>(workload->num_queries()), 1.0);
  }
  lpa::partition::PartitioningState Initial() const;
  double GenerateSeconds() const;
  /// \brief A cluster over a seeded 20% sample of dataset `k` (Sec 4.2's
  /// sampled cluster for the online phase).
  std::unique_ptr<lpa::engine::ClusterDatabase> SampleCluster(size_t k) const;
  /// \brief Deploy `design` on dataset `k`'s full cluster and return the
  /// measured frequency-weighted workload runtime (simulated seconds).
  double Measure(size_t k, const lpa::partition::PartitioningState& design) const;
  /// \brief Engine-measured runtime of the initial design and of `design`
  /// on dataset `k`, in that order.
  std::pair<double, double> Compare(
      size_t k, const lpa::partition::PartitioningState& design) const;
  /// \brief Quality of `design`: the initial design's runtime summed over
  /// all datasets, divided by the design's summed runtime.
  double Speedup(const lpa::partition::PartitioningState& design) const;
  /// \brief Plain over resident storage bytes of dataset 0's full cluster.
  double CompressionRatio() const;
};

/// Databases per testbed unless a workload needs more.
inline constexpr size_t kDatasets = 6;

Testbed MakeTestbed(uint64_t seed, size_t datasets = kDatasets);

// ---------------------------------------------------------------- workloads

/// \brief Advisor configuration of every training run: tmax 36, ε annealed
/// over the offline budget, the advisor seed.
lpa::advisor::AdvisorConfig TrainingConfig(int offline_episodes,
                                           int online_episodes);

/// Each workload fills `report`; a failure is recorded there, never thrown.
void RunOffline(const Options& options, Report* report);
void RunOnline(const Options& options, Report* report);
void RunServe(const Options& options, Report* report);

/// \brief Median time of `CostModel::QueryCost` (µs) over a seeded replay of
/// (query, design) pairs from random action walks of episode length.
double MeasurePlanMicros(const Testbed& tb, uint64_t seed);

/// \brief Timed calls into the Q-network and the DQN learner of an agent
/// restored from `snapshot` (so the measured run is untouched): forward pass
/// at batch 1 and at `batch`, and one `DqnAgent::TrainStep`, in µs.
struct AgentProbe {
  bool ok = false;  ///< false when the snapshot did not load
  double forward_us = 0.0;
  double forward_batch_us = 0.0;
  double train_step_us = 0.0;
};
AgentProbe MeasureAgent(const Testbed& tb, const std::string& snapshot,
                        uint64_t seed, int batch);

/// \brief engine.execute_workload_ms (ExecuteWorkload on `design`) and
/// engine.apply_design_ms (ApplyDesign flipping between the initial design
/// and `design`), medians of a few timed calls on the full cluster.
void MeasureEngine(const Testbed& tb,
                   const lpa::partition::PartitioningState& design,
                   std::map<std::string, double>* values);

/// \brief Report the per-layer metrics every workload prints in traced runs
/// (zero where the workload does not exercise the layer), taken from
/// `values`; missing names are reported as 0.
void ReportLayers(const std::map<std::string, double>& values,
                  Report* report);

/// \brief Trace-derived per-layer metrics: self time per layer, the
/// untraced/traced end-to-end wall-clock and their difference.
void AddTraceMetrics(const Tracer& tracer, double untraced_seconds,
                     std::map<std::string, double>* values);

}  // namespace perfbench
