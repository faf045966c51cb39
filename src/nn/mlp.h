#pragma once

#include <iostream>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace lpa::nn {

/// \brief Architecture + training hyperparameters of a ReLU MLP.
///
/// Defaults follow the paper's Table 1: two hidden layers (128, 64), ReLU
/// activations, a linear output, and Adam.
struct MlpConfig {
  int input_dim = 1;
  std::vector<int> hidden = {128, 64};
  int output_dim = 1;
  uint64_t seed = 42;
  // Adam parameters.
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// \brief Feed-forward ReLU network with a linear output layer, trained by
/// minibatch SGD (Adam) on (possibly head-masked) squared error.
///
/// Used as the DQN Q-network / target network and as the learned-cost-model
/// baseline's regressor. Head-masked training supports the multi-head DQN
/// formulation where each output unit is the Q-value of one global action.
class Mlp {
 public:
  explicit Mlp(MlpConfig config);

  const MlpConfig& config() const { return config_; }
  int input_dim() const { return config_.input_dim; }
  int output_dim() const { return config_.output_dim; }

  /// \brief Batched forward pass: x is [batch x input_dim], result is
  /// [batch x output_dim]. All pool-taking entry points below parallelize
  /// only the row/element-partitioned primitives of nn/matrix.h (plus the
  /// per-element Adam and Polyak updates), so results are bit-identical at
  /// every thread count; pass nullptr for the serial path.
  Matrix Forward(const Matrix& x, ThreadPool* pool = nullptr) const;

  /// \brief Forward pass for a single input row.
  std::vector<double> Forward(const std::vector<double>& x) const;

  /// \brief One Adam step on masked squared error: for each row i only the
  /// output unit `head[i]` receives gradient `2*(pred - target[i])/batch`.
  /// Returns the minibatch loss before the step. The output layer computes
  /// and differentiates only the heads that were hit; every result is
  /// bit-identical to the dense computation.
  double TrainMaskedMse(const Matrix& x, const std::vector<int>& head,
                        const std::vector<double>& target, double lr,
                        ThreadPool* pool = nullptr);

  /// \brief One Adam step on full-output squared error. Returns the loss.
  double TrainMse(const Matrix& x, const Matrix& target, double lr,
                  ThreadPool* pool = nullptr);

  /// \brief Polyak averaging toward `src`: w = (1 - tau) * w + tau * w_src.
  /// Both networks must share the architecture. (Table 1's target update.)
  void SoftUpdateFrom(const Mlp& src, double tau, ThreadPool* pool = nullptr);

  /// \brief True when both networks have the same layer shapes.
  bool SameArchitecture(const Mlp& other) const;

  /// \brief Copy all weights from `src` (same architecture required).
  void CopyFrom(const Mlp& src);

  /// \brief Copy of this network with `extra` additional inputs appended.
  /// The new first-layer weight rows start at zero, so the network computes
  /// the same function whenever the extra inputs are zero — the warm-start
  /// behind the paper's incremental training (Sec 5).
  Mlp WithExtendedInput(int extra) const;

  /// \brief Serialize architecture + weights.
  Status Save(std::ostream& os) const;
  /// \brief Inverse of Save. A malformed or truncated stream, a layer width
  /// outside [1, kMaxLoadWidth], more than kMaxLoadHidden hidden layers or
  /// more than kMaxLoadParameters weights give InvalidArgument.
  static Result<Mlp> Load(std::istream& is);
  static constexpr int kMaxLoadWidth = 1 << 16;
  static constexpr size_t kMaxLoadHidden = 64;
  static constexpr size_t kMaxLoadParameters = size_t{1} << 24;

  /// \brief Total parameter count (for tests / reporting).
  size_t num_parameters() const;

  /// \brief Read-only layer access (e.g. the nn/quantized.h quantizer, which
  /// re-encodes the weights layer by layer). Layer l maps an
  /// [n x in_l] activation to [n x out_l] via w [in_l x out_l] + bias
  /// [1 x out_l]; every layer but the last is followed by ReLU.
  size_t num_layers() const { return layers_.size(); }
  const Matrix& layer_weights(size_t l) const { return layers_[l].w; }
  const Matrix& layer_bias(size_t l) const { return layers_[l].b; }

 private:
  struct Layer {
    Matrix w;  // [in x out]
    Matrix b;  // [1 x out]
    // Adam moments.
    Matrix mw, vw, mb, vb;
  };

  /// Buffers of one training step, kept across steps so that a warm step
  /// allocates nothing: each hidden layer's ReLU output (the tape), the dense
  /// output and per-layer gradients, and the back-propagated delta. Only the
  /// mutating Train* calls touch them; the const Forward allocates its own.
  struct TrainBuffers {
    std::vector<Matrix> hidden;  // [batch x out_l] for every layer but the last
    Matrix out;                  // [batch x output_dim] (TrainMse)
    std::vector<Matrix> dw, db;  // gradients, shaped like each layer's w and b
    Matrix delta, dprev;         // gradient w.r.t. a layer's output / input
  };

  /// layer l applied to `in`: out = in * w + b, then ReLU unless l is the
  /// output layer. `out` is reshaped and overwritten.
  void Affine(size_t l, const Matrix& in, Matrix* out, ThreadPool* pool) const;
  /// Run the hidden layers on x into train_.hidden; returns the output
  /// layer's input.
  const Matrix& ForwardHidden(const Matrix& x, ThreadPool* pool);
  /// Back-propagate train_.delta, the loss gradient w.r.t. the output of
  /// layer `top`, down through layers top..0 into train_.dw / train_.db.
  void Backward(const Matrix& x, size_t top, ThreadPool* pool);
  /// One Adam step of every layer from train_.dw / train_.db.
  void ApplyGradients(double lr, ThreadPool* pool);
  void AdamStep(Matrix* param, Matrix* m, Matrix* v, const Matrix& grad,
                double lr, ThreadPool* pool);

  MlpConfig config_;
  std::vector<Layer> layers_;
  int64_t adam_t_ = 0;
  TrainBuffers train_;
};

}  // namespace lpa::nn
