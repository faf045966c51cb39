#pragma once

#include <iostream>
#include <memory>
#include <mutex>

#include "advisor/advisor.h"
#include "costmodel/cost_model.h"
#include "nn/quantized.h"
#include "rl/offline_env.h"
#include "rl/trainer.h"
#include "serving/batcher.h"

namespace lpa::serving {

/// \brief Per-snapshot request for the quantized inference fast path.
///
/// When enabled, the ServingModel quantizes the agent's Q-network
/// (nn::QuantizedMlp: per-layer symmetric scales, integer accumulation) and
/// calibrates it on the state encodings visited by `calibration_rollouts`
/// greedy fp64 rollouts over seeded uniform frequency draws. The quantized
/// network only serves if it passes the calibration gate: its legal-action
/// argmax must match fp64 on 100% of the calibration set (same first-max
/// tie-break as Suggest). On any disagreement — or on a state-action-input
/// agent, whose quantized output rows would not be action-indexed — the
/// model falls back to the fp64 path and records the rejection.
struct QuantizeSpec {
  bool enabled = false;
  nn::QuantPrecision precision = nn::QuantPrecision::kInt8;
  /// Greedy rollouts whose visited states form the calibration set
  /// (each contributes tmax states).
  int calibration_rollouts = 8;
  /// Seed of the calibration frequency draws; fixed by default so the gate
  /// verdict for a given snapshot is reproducible.
  uint64_t calibration_seed = 0x9e11ab;
};

/// \brief One immutable servable model version: a trained (or
/// snapshot-restored) advisor, its own pricing environment, and the
/// inference batcher that coalesces concurrent rollouts against it.
///
/// Suggest runs the deterministic greedy inference rollout of Sec 6 — the
/// exact policy `PartitioningAdvisor::Suggest` serves with
/// `inference_extra_rollouts = 0` — with every Q-network evaluation routed
/// through the batcher. Results are bit-identical to the unbatched advisor
/// call for the same model and frequencies, at any batch size or worker
/// count. Thread-safe: the network weights are only read, and every request
/// prices states through the pricing environment's cost cache, which is
/// sharded and concurrent.
///
/// `schema` and `cost_model` are borrowed and must outlive the model.
class ServingModel {
 public:
  /// \brief Wrap an already-trained advisor (takes ownership).
  ServingModel(std::unique_ptr<advisor::PartitioningAdvisor> advisor,
               const costmodel::CostModel* cost_model,
               InferenceBatcher::Config batch = {},
               QuantizeSpec quantize = {});

  /// \brief Rebuild an advisor from (schema, workload, config) and restore
  /// `snapshot` into it — the hot-swap path: load a new training run's
  /// snapshot without stopping the server.
  static Result<std::shared_ptr<ServingModel>> FromSnapshot(
      const schema::Schema* schema, workload::Workload workload,
      advisor::AdvisorConfig config, const costmodel::CostModel* cost_model,
      std::istream& snapshot, InferenceBatcher::Config batch = {},
      QuantizeSpec quantize = {});

  /// \brief Greedy inference rollout for one frequency vector, with batched
  /// Q-evaluation. Safe to call from any number of threads.
  rl::InferenceResult Suggest(const std::vector<double>& frequencies);

  const advisor::PartitioningAdvisor& advisor() const { return *advisor_; }
  InferenceBatcher* batcher() { return &batcher_; }

  /// \brief Outcome of this model's quantization request.
  enum class QuantState {
    kOff,       ///< quantization not requested
    kActive,    ///< gate passed; Suggest serves through the integer path
    kRejected,  ///< gate failed (or unsupported agent mode); fp64 serves
  };
  QuantState quant_state() const { return quant_state_; }
  /// \brief Fraction of calibration states whose legal-action argmax matched
  /// fp64 (1.0 when active; < 1.0 explains a rejection; 0.0 when never
  /// evaluated).
  double calibration_agreement() const { return calibration_agreement_; }
  bool quantized() const { return quant_state_ == QuantState::kActive; }

 private:
  /// Quantize + calibration-gate; called from the ctor when requested.
  void TryQuantize(const QuantizeSpec& spec);

  std::unique_ptr<advisor::PartitioningAdvisor> advisor_;
  const costmodel::CostModel* cost_model_;
  /// Own pricing environment so snapshot-restored advisors (which never ran
  /// TrainOffline) serve directly.
  std::unique_ptr<rl::OfflineEnv> env_;
  InferenceBatcher batcher_;
  /// Owned integer network the batcher borrows while quant_state_ is active.
  std::unique_ptr<nn::QuantizedMlp> quantized_;
  QuantState quant_state_ = QuantState::kOff;
  double calibration_agreement_ = 0.0;
};

/// \brief A servable model together with the version its registry assigned.
/// The version lives in the registry entry, not the model, so one
/// ServingModel instance can be published into many registries — the
/// multi-tenant shared-base-model case, where each tenant namespace assigns
/// its own version numbers to the same underlying weights.
struct PublishedModel {
  std::shared_ptr<ServingModel> model;  ///< null before the first Publish
  uint64_t version = 0;
};

/// \brief Versioned model store with RCU-style atomic hot swap.
///
/// Publish assigns the next version and swaps the shared_ptr under a mutex;
/// readers (server workers) copy the pointer per request, so in-flight
/// requests finish on the version they started with while new requests see
/// the new model — zero downtime, zero dropped requests. Old versions are
/// destroyed when their last in-flight request releases them.
class ModelRegistry {
 public:
  /// \brief Make `model` the serving version; returns its assigned version
  /// number (1-based, strictly increasing per registry).
  uint64_t Publish(std::shared_ptr<ServingModel> model);

  /// \brief The current model and its version (null model before the first
  /// Publish).
  PublishedModel Current() const;

  uint64_t current_version() const;

 private:
  mutable std::mutex mu_;
  PublishedModel current_;
  uint64_t next_version_ = 1;
};

}  // namespace lpa::serving
