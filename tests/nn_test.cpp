#include "nn/mlp.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "nn/matrix.h"
#include "partition/actions.h"
#include "partition/featurizer.h"
#include "rl/dqn.h"
#include "schema/catalogs.h"
#include "util/eval_context.h"
#include "util/rng.h"
#include "workload/benchmarks.h"

namespace lpa::nn {
namespace {

TEST(MatrixTest, BasicAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
  Matrix r = Matrix::FromRow({1, 2, 3});
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0, 2), 3.0);
}

TEST(MatrixTest, Gemm) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c(2, 2);
  Gemm(a, b, &c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(MatrixTest, GemmTransA) {
  // A^T * B with A 3x2, B 3x2 -> 2x2.
  Matrix a = Matrix::FromRows({{1, 4}, {2, 5}, {3, 6}});
  Matrix b = Matrix::FromRows({{7, 10}, {8, 11}, {9, 12}});
  Matrix c(2, 2);
  GemmTransA(a, b, &c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 4 * 10 + 5 * 11 + 6 * 12);
}

TEST(MatrixTest, GemmTransB) {
  // A * B^T with A 2x3, B 2x3 -> 2x2.
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix b = Matrix::FromRows({{7, 8, 9}, {10, 11, 12}});
  Matrix c(2, 2);
  GemmTransB(a, b, &c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1 * 7 + 2 * 8 + 3 * 9);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 1 * 10 + 2 * 11 + 3 * 12);
}

TEST(MlpTest, DeterministicInitialization) {
  MlpConfig config;
  config.input_dim = 4;
  config.hidden = {8};
  config.output_dim = 2;
  config.seed = 7;
  Mlp a(config), b(config);
  Matrix x = Matrix::FromRow({0.1, -0.2, 0.3, 0.4});
  EXPECT_EQ(a.Forward(x).data(), b.Forward(x).data());
}

TEST(MlpTest, ParameterCount) {
  MlpConfig config;
  config.input_dim = 10;
  config.hidden = {128, 64};
  config.output_dim = 3;
  Mlp mlp(config);
  EXPECT_EQ(mlp.num_parameters(),
            10u * 128 + 128 + 128u * 64 + 64 + 64u * 3 + 3);
}

TEST(MlpTest, LearnsLinearFunction) {
  // y = 2*x0 - 3*x1 + 1 should be easy for a small ReLU net.
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {16};
  config.output_dim = 1;
  config.seed = 3;
  Mlp mlp(config);
  Rng rng(5);
  double loss = 0.0;
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 2);
    Matrix y(16, 1);
    for (size_t r = 0; r < 16; ++r) {
      double x0 = rng.Uniform(-1, 1), x1 = rng.Uniform(-1, 1);
      x.at(r, 0) = x0;
      x.at(r, 1) = x1;
      y.at(r, 0) = 2 * x0 - 3 * x1 + 1;
    }
    loss = mlp.TrainMse(x, y, 1e-3);
  }
  EXPECT_LT(loss, 0.01);
}

TEST(MlpTest, MaskedTrainingOnlyMovesSelectedHead) {
  MlpConfig config;
  config.input_dim = 3;
  config.hidden = {8};
  config.output_dim = 4;
  config.seed = 11;
  Mlp mlp(config);
  Matrix x = Matrix::FromRow({0.5, -0.5, 1.0});
  auto before = mlp.Forward(x).data();
  // Train head 2 toward a far-away value with one large step.
  mlp.TrainMaskedMse(x, {2}, {5.0}, 0.05);
  auto after = mlp.Forward(x).data();
  // Head 2 moved toward the target.
  EXPECT_GT(std::abs(after[2] - before[2]), 1e-3);
  EXPECT_LT(std::abs(after[2] - 5.0), std::abs(before[2] - 5.0));
}

TEST(MlpTest, MaskedTrainingLearnsPerHeadTargets) {
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {16};
  config.output_dim = 3;
  config.seed = 13;
  Mlp mlp(config);
  Rng rng(17);
  // Head h should learn f_h(x) = h + x0.
  for (int step = 0; step < 4000; ++step) {
    Matrix x(8, 2);
    std::vector<int> heads(8);
    std::vector<double> targets(8);
    for (size_t r = 0; r < 8; ++r) {
      double x0 = rng.Uniform(-1, 1);
      x.at(r, 0) = x0;
      x.at(r, 1) = rng.Uniform(-1, 1);
      int h = static_cast<int>(rng.UniformInt(0, 2));
      heads[r] = h;
      targets[r] = h + x0;
    }
    mlp.TrainMaskedMse(x, heads, targets, 1e-3);
  }
  auto out = mlp.Forward(std::vector<double>{0.25, 0.0});
  EXPECT_NEAR(out[0], 0.25, 0.15);
  EXPECT_NEAR(out[1], 1.25, 0.15);
  EXPECT_NEAR(out[2], 2.25, 0.15);
}

TEST(MlpTest, SoftUpdateBlendsWeights) {
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {4};
  config.output_dim = 1;
  config.seed = 1;
  Mlp target(config);
  config.seed = 2;
  Mlp online(config);
  Matrix x = Matrix::FromRow({0.3, 0.7});
  double t0 = target.Forward(x).at(0, 0);
  double o0 = online.Forward(x).at(0, 0);
  target.SoftUpdateFrom(online, 1.0);  // full copy
  EXPECT_NEAR(target.Forward(x).at(0, 0), o0, 1e-12);
  (void)t0;

  // Partial update moves the target toward the online net.
  config.seed = 1;
  Mlp target2(config);
  double before = std::abs(target2.Forward(x).at(0, 0) - o0);
  target2.SoftUpdateFrom(online, 0.1);
  double after = std::abs(target2.Forward(x).at(0, 0) - o0);
  EXPECT_LT(after, before);
}

TEST(MlpTest, SaveLoadRoundTrip) {
  MlpConfig config;
  config.input_dim = 5;
  config.hidden = {12, 6};
  config.output_dim = 2;
  config.seed = 21;
  Mlp mlp(config);
  // Perturb away from init so we test real weights.
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    Matrix x(4, 5);
    Matrix y(4, 2);
    for (size_t r = 0; r < 4; ++r) {
      for (size_t c = 0; c < 5; ++c) x.at(r, c) = rng.Uniform(-1, 1);
      y.at(r, 0) = rng.Uniform();
      y.at(r, 1) = rng.Uniform();
    }
    mlp.TrainMse(x, y, 1e-3);
  }
  std::stringstream ss;
  ASSERT_TRUE(mlp.Save(ss).ok());
  auto loaded = Mlp::Load(ss);
  ASSERT_TRUE(loaded.ok());
  Matrix x = Matrix::FromRow({0.1, 0.2, 0.3, 0.4, 0.5});
  EXPECT_EQ(mlp.Forward(x).data(), loaded->Forward(x).data());
}

TEST(MlpTest, LoadRejectsGarbage) {
  std::stringstream ss("not an mlp");
  EXPECT_FALSE(Mlp::Load(ss).ok());
}

TEST(MlpTest, LoadRejectsBadDimensionsWithStatus) {
  // Each header must come back as InvalidArgument, never abort or throw:
  // zero and negative widths, a negative or huge hidden-layer count, a width
  // above the limit and a network above the parameter limit.
  for (const char* header :
       {"mlp 0 1 4 3 42 ", "mlp 4 1 -3 3 42 ", "mlp 4 1 4 0 42 ",
        "mlp 4 -1 3 42 ", "mlp 4 18446744073709551613 3 42 ",
        "mlp 4 100 1 1 1 ", "mlp 4 1 70000 3 42 ", "mlp 65536 1 65536 3 42 ",
        "mlp -5 0 3 42 "}) {
    std::stringstream ss(header);
    auto loaded = Mlp::Load(ss);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), Status::Code::kInvalidArgument)
        << header;
  }
  // A valid header passes the checks and then fails on its missing weights;
  // a complete stream loads.
  std::stringstream ok("mlp 2 1 3 1 7 ");
  EXPECT_EQ(Mlp::Load(ok).status().code(), Status::Code::kInvalidArgument);
  MlpConfig config;
  config.input_dim = 2;
  config.hidden = {3};
  config.output_dim = 1;
  std::stringstream round;
  ASSERT_TRUE(Mlp(config).Save(round).ok());
  EXPECT_TRUE(Mlp::Load(round).ok());
}

TEST(RngTest, Determinism) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
  Rng c(99);
  Rng fork1 = c.Fork();
  // Forked generators differ from the parent stream.
  EXPECT_NE(fork1.UniformInt(0, 1'000'000), Rng(99).UniformInt(0, 1'000'000));
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(4);
  int low = 0, total = 20'000;
  for (int i = 0; i < total; ++i) {
    if (zipf.Sample(&rng) <= 10) ++low;
  }
  // Under uniform sampling only ~10% fall in [1,10]; Zipf(1.2) concentrates.
  EXPECT_GT(low, total / 2);
}

// --- Kernel bit-identity -----------------------------------------------------
//
// The dispatched kernels (AVX2 where the CPU has it) must reproduce the
// scalar loops bit for bit: same +0.0 start, same ascending-p accumulation,
// no FMA. Compared with memcmp, so even a -0.0 vs +0.0 difference fails.

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

Matrix Transposed(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) t.at(c, r) = m.at(r, c);
  }
  return t;
}

/// The historic serial A * B^T: one dot-product chain per C element, no
/// zero skip.
Matrix DotProductTransB(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < a.cols(); ++p) acc += a.at(i, p) * b.at(j, p);
      c.at(i, j) = acc;
    }
  }
  return c;
}

enum class Sparsity { kDense, kRelu, kZeroRows, kOneHot };

/// Random matrix with the zero patterns the Q-network produces: dense
/// weights, ReLU activations (about half exact zeros, some -0.0), whole zero
/// rows (masked-loss gradients), and one-hot rows (state encodings).
Matrix RandomMatrix(size_t rows, size_t cols, Sparsity sparsity, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    const bool zero_row = sparsity == Sparsity::kZeroRows && rng->Uniform() < 0.4;
    const size_t hot = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(cols) - 1));
    for (size_t c = 0; c < cols; ++c) {
      double v = rng->Uniform(-2.0, 2.0);
      if (sparsity == Sparsity::kRelu && v < 0.0) v = v < -1.0 ? -0.0 : 0.0;
      if (sparsity == Sparsity::kOneHot) v = c == hot ? 1.0 : 0.0;
      if (zero_row) v = 0.0;
      m.at(r, c) = v;
    }
  }
  return m;
}

/// Every kernel path this CPU can run, narrowest first.
std::vector<GemmIsa> SupportedIsas() {
  std::vector<GemmIsa> isas;
  for (GemmIsa isa : {GemmIsa::kScalar, GemmIsa::kAvx2, GemmIsa::kAvx512}) {
    if (GemmIsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(GemmKernelTest, DispatchPicksTheWidestSupportedPath) {
  const std::vector<GemmIsa> isas = SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), GemmIsa::kScalar);
  EXPECT_EQ(DispatchedGemmIsa(), isas.back());
}

TEST(GemmKernelTest, BitIdenticalToScalarReferenceOnRandomShapes) {
  // Shapes include the Table 1 network's, m % 4 != 0, n % 16 != 0 (n = 70
  // leaves a masked tail at both vector widths) and k = 1.
  Rng shape_rng(2027);
  std::vector<std::array<size_t, 3>> shapes = {
      {32, 76, 128}, {32, 128, 64}, {32, 64, 70}, {1, 1, 1},   {3, 1, 9},
      {5, 7, 3},     {7, 13, 17},   {4, 8, 8},    {9, 1, 15},  {2, 33, 6},
      {67, 200, 130}, {130, 45, 66}, {150, 90, 101}};
  for (int i = 0; i < 12; ++i) {
    shapes.push_back({static_cast<size_t>(shape_rng.UniformInt(1, 70)),
                      static_cast<size_t>(shape_rng.UniformInt(1, 90)),
                      static_cast<size_t>(shape_rng.UniformInt(1, 140))});
  }
  for (GemmIsa isa : SupportedIsas()) {
    Rng rng(2028);
    for (int threads : {1, 2, 4}) {
      EvalContext ctx(threads, /*seed=*/1);
      for (const auto& [m, k, n] : shapes) {
        for (Sparsity sp : {Sparsity::kDense, Sparsity::kRelu,
                            Sparsity::kZeroRows, Sparsity::kOneHot}) {
          const Matrix a = RandomMatrix(m, k, sp, &rng);
          const Matrix b = RandomMatrix(k, n, Sparsity::kDense, &rng);
          const std::string what = std::string(GemmIsaName(isa)) + " " +
                                   std::to_string(m) + "x" + std::to_string(k) +
                                   "x" + std::to_string(n);
          Matrix want(m, n), got(m, n, 7.0);
          GemmReference(a, b, &want);
          GemmOnIsa(isa, GemmOp::kPlain, a, b, &got, ctx.pool());
          EXPECT_TRUE(BitEqual(got, want)) << "Gemm " << what;

          // A^T * B with A stored k x m: the kernel reads it strided.
          const Matrix at = Transposed(a);
          Matrix got_ta(m, n, 7.0);
          GemmOnIsa(isa, GemmOp::kTransA, at, b, &got_ta, ctx.pool());
          EXPECT_TRUE(BitEqual(got_ta, want)) << "GemmTransA " << what;

          // A * B^T with B stored n x k; also equal to the dot-product chain.
          const Matrix bt = Transposed(b);
          Matrix got_tb(m, n, 7.0);
          GemmOnIsa(isa, GemmOp::kTransB, a, bt, &got_tb, ctx.pool());
          EXPECT_TRUE(BitEqual(got_tb, want)) << "GemmTransB " << what;
          EXPECT_TRUE(BitEqual(got_tb, DotProductTransB(a, bt)))
              << "GemmTransB dot chain " << what;
        }
      }
    }
  }
  // The public entry points run the dispatched path.
  Rng rng(5);
  const Matrix a = RandomMatrix(32, 64, Sparsity::kRelu, &rng);
  const Matrix b = RandomMatrix(64, 70, Sparsity::kDense, &rng);
  Matrix want(32, 70), got(32, 70);
  GemmReference(a, b, &want);
  Gemm(a, b, &got);
  EXPECT_TRUE(BitEqual(got, want));
}

TEST(GemmKernelTest, ZeroSkipNeverProducesNegativeZero) {
  // Rows of A that are all zero, or zero against a negative B, must come out
  // +0.0 exactly as in the scalar loop (which never touches them).
  Matrix a = Matrix::FromRows({{0.0, -0.0, 0.0}, {1.0, 0.0, -0.0},
                               {-0.0, 0.0, 0.0}, {0.0, 2.0, 0.0},
                               {0.0, 0.0, 0.0}});
  Matrix b(3, 19, -1.5);
  Matrix want(5, 19);
  GemmReference(a, b, &want);
  for (GemmIsa isa : SupportedIsas()) {
    Matrix got(5, 19);
    GemmOnIsa(isa, GemmOp::kPlain, a, b, &got);
    EXPECT_TRUE(BitEqual(got, want)) << GemmIsaName(isa);
    for (size_t j = 0; j < 19; ++j) {
      EXPECT_FALSE(std::signbit(got.at(0, j))) << GemmIsaName(isa);
      EXPECT_FALSE(std::signbit(got.at(4, j))) << GemmIsaName(isa);
    }
  }
}

// --- Masked last layer -------------------------------------------------------

/// The dense masked-MSE Adam step that Mlp::TrainMaskedMse replaced: the
/// full output layer forward, a [batch x heads] loss gradient that is zero
/// off the hit heads, and dense GEMMs for every gradient. Holds its own copy
/// of the weights and Adam moments.
class DenseMaskedReference {
 public:
  explicit DenseMaskedReference(const Mlp& net) : config_(net.config()) {
    for (size_t l = 0; l < net.num_layers(); ++l) {
      const Matrix& w = net.layer_weights(l);
      const Matrix& b = net.layer_bias(l);
      w_.push_back(w);
      b_.push_back(b);
      mw_.emplace_back(w.rows(), w.cols());
      vw_.emplace_back(w.rows(), w.cols());
      mb_.emplace_back(b.rows(), b.cols());
      vb_.emplace_back(b.rows(), b.cols());
    }
  }

  double Step(const Matrix& x, const std::vector<int>& head,
              const std::vector<double>& target, double lr) {
    const size_t layers = w_.size();
    std::vector<Matrix> acts = {x};
    for (size_t l = 0; l < layers; ++l) {
      Matrix z(acts.back().rows(), w_[l].cols());
      Gemm(acts.back(), w_[l], &z);
      for (size_t r = 0; r < z.rows(); ++r) {
        for (size_t c = 0; c < z.cols(); ++c) {
          const double v = z.at(r, c) + b_[l].at(0, c);
          z.at(r, c) = l + 1 < layers && !(v > 0.0) ? 0.0 : v;
        }
      }
      acts.push_back(std::move(z));
    }
    const Matrix& pred = acts.back();
    Matrix delta(pred.rows(), pred.cols());
    double loss = 0.0;
    const double inv_batch = 1.0 / static_cast<double>(x.rows());
    for (size_t r = 0; r < x.rows(); ++r) {
      const size_t h = static_cast<size_t>(head[r]);
      const double err = pred.at(r, h) - target[r];
      loss += err * err * inv_batch;
      delta.at(r, h) = 2.0 * err * inv_batch;
    }
    ++t_;
    for (size_t l = layers; l-- > 0;) {
      if (l + 1 < layers) {
        for (size_t i = 0; i < delta.size(); ++i) {
          if (acts[l + 1].data()[i] <= 0.0) delta.data()[i] = 0.0;
        }
      }
      Matrix dw(w_[l].rows(), w_[l].cols());
      GemmTransA(acts[l], delta, &dw);
      Matrix db(1, b_[l].cols());
      for (size_t r = 0; r < delta.rows(); ++r) {
        for (size_t c = 0; c < delta.cols(); ++c) db.at(0, c) += delta.at(r, c);
      }
      Matrix dprev(delta.rows(), w_[l].rows());
      if (l > 0) GemmTransB(delta, w_[l], &dprev);
      const double t = static_cast<double>(t_);
      const AdamCoeffs k{config_.beta1, config_.beta2, config_.epsilon,
                         1.0 - std::pow(config_.beta1, t),
                         1.0 - std::pow(config_.beta2, t), lr};
      AdamUpdate(k, dw.data().data(), mw_[l].data().data(),
                 vw_[l].data().data(), w_[l].data().data(), dw.size());
      AdamUpdate(k, db.data().data(), mb_[l].data().data(),
                 vb_[l].data().data(), b_[l].data().data(), db.size());
      delta = std::move(dprev);
    }
    return loss;
  }

  bool SameWeights(const Mlp& net) const {
    for (size_t l = 0; l < w_.size(); ++l) {
      if (!BitEqual(net.layer_weights(l), w_[l]) ||
          !BitEqual(net.layer_bias(l), b_[l])) {
        return false;
      }
    }
    return true;
  }

 private:
  MlpConfig config_;
  std::vector<Matrix> w_, b_, mw_, vw_, mb_, vb_;
  int64_t t_ = 0;
};

TEST(MaskedLastLayerTest, BitIdenticalToDenseStep) {
  // 9 heads of which only 0, 3, 5 and 8 are ever hit (3 by several rows of
  // one batch); some rows' targets equal the current prediction, so their
  // error is exactly 0. One-hot-ish inputs give the first layer zero rows.
  for (const std::vector<int>& hidden :
       {std::vector<int>{128, 64}, std::vector<int>{7}, std::vector<int>{}}) {
    MlpConfig config;
    config.input_dim = 11;
    config.hidden = hidden;
    config.output_dim = 9;
    config.seed = 19;
    Mlp net(config);
    DenseMaskedReference dense(net);
    Rng rng(23);
    const std::vector<int> hit = {0, 3, 3, 5, 3, 8};
    for (int step = 0; step < 12; ++step) {
      const size_t batch = step % 3 == 0 ? 32 : 5 + static_cast<size_t>(step);
      const Matrix x = RandomMatrix(batch, 11,
                                    step % 2 == 0 ? Sparsity::kOneHot
                                                  : Sparsity::kRelu,
                                    &rng);
      const Matrix pred = net.Forward(x);
      std::vector<int> head(batch);
      std::vector<double> target(batch);
      for (size_t r = 0; r < batch; ++r) {
        head[r] = hit[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(hit.size()) - 1))];
        target[r] = r % 4 == 1 ? pred.at(r, static_cast<size_t>(head[r]))
                               : rng.Uniform(-2.0, 2.0);
      }
      const double want = dense.Step(x, head, target, 1e-2);
      const double got = net.TrainMaskedMse(x, head, target, 1e-2);
      EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "step " << step;
      ASSERT_TRUE(dense.SameWeights(net))
          << "step " << step << ", " << hidden.size() << " hidden layers";
    }
  }
}

/// The historic scalar Adam loop the vectorized update must reproduce.
void ScalarAdam(const AdamCoeffs& k, const std::vector<double>& g,
                std::vector<double>* m, std::vector<double>* v,
                std::vector<double>* param) {
  for (size_t i = 0; i < g.size(); ++i) {
    double& mi = (*m)[i];
    double& vi = (*v)[i];
    mi = k.beta1 * mi + (1.0 - k.beta1) * g[i];
    vi = k.beta2 * vi + (1.0 - k.beta2) * g[i] * g[i];
    double mhat = mi / k.bias1;
    double vhat = vi / k.bias2;
    (*param)[i] -= k.lr * mhat / (std::sqrt(vhat) + k.epsilon);
  }
}

TEST(ElementwiseKernelTest, AdamAndPolyakMatchScalarLoopsOverTenSteps) {
  Rng rng(31);
  const size_t n = 1027;  // not a multiple of the vector width
  std::vector<double> p(n), m(n, 0.0), v(n, 0.0);
  for (double& x : p) x = rng.Uniform(-1.0, 1.0);
  std::vector<double> p2 = p, m2 = m, v2 = v;
  std::vector<double> target(n), blended = p, blended2 = p;
  for (double& x : target) x = rng.Uniform(-1.0, 1.0);
  for (int t = 1; t <= 10; ++t) {
    std::vector<double> g(n);
    for (double& x : g) x = rng.Uniform() < 0.3 ? 0.0 : rng.Uniform(-0.1, 0.1);
    const AdamCoeffs k{0.9, 0.999, 1e-8, 1.0 - std::pow(0.9, t),
                       1.0 - std::pow(0.999, t), 5e-4};
    AdamUpdate(k, g.data(), m.data(), v.data(), p.data(), n);
    ScalarAdam(k, g, &m2, &v2, &p2);
    const double tau = t == 10 ? 1.0 : 1e-3 * t;
    PolyakBlend(tau, target.data(), blended.data(), n);
    for (size_t i = 0; i < n; ++i) {
      blended2[i] = (1.0 - tau) * blended2[i] + tau * target[i];
    }
  }
  EXPECT_EQ(std::memcmp(p.data(), p2.data(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(m.data(), m2.data(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(v.data(), v2.data(), n * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(blended.data(), blended2.data(), n * sizeof(double)), 0);
}

// --- Pinned training digest --------------------------------------------------

/// FNV-1a over the bit patterns of every weight and bias of the online
/// Q-network after 50 DQN TrainSteps on a seeded replay buffer.
uint64_t TrainedQNetworkDigest(bool tpcch, rl::QNetworkMode mode,
                               int threads) {
  const schema::Schema schema =
      tpcch ? schema::MakeTpcchSchema() : schema::MakeMicroSchema();
  const workload::Workload wl = tpcch ? workload::MakeTpcchWorkload(schema)
                                      : workload::MakeMicroWorkload(schema);
  const auto edges = partition::EdgeSet::Extract(schema, wl);
  partition::ActionSpace actions(&schema, &edges);
  partition::Featurizer featurizer(&schema, &edges, wl.num_queries());
  rl::DqnConfig config;
  config.mode = mode;
  config.seed = 5;
  rl::DqnAgent agent(&featurizer, &actions, config);
  Rng rng(9);
  auto state = partition::PartitioningState::Initial(&schema, &edges);
  std::vector<double> freqs(static_cast<size_t>(wl.num_queries()));
  for (double& f : freqs) f = rng.Uniform();
  for (int i = 0; i < 96; ++i) {
    auto legal = actions.LegalActions(state);
    rl::Transition t;
    t.state_enc = featurizer.EncodeState(state, freqs);
    t.action_id = legal[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(legal.size()) - 1))];
    EXPECT_TRUE(actions.Apply(t.action_id, &state).ok());
    t.reward = rng.Uniform(-1.0, 1.0);
    t.next_enc = featurizer.EncodeState(state, freqs);
    t.next_legal = actions.LegalActions(state);
    agent.Observe(std::move(t));
  }
  EvalContext ctx(threads, /*seed=*/1);
  Rng train_rng(13);
  for (int step = 0; step < 50; ++step) agent.TrainStep(&train_rng, ctx.pool());
  const Mlp& q = agent.q_network();
  uint64_t h = 1469598103934665603ULL;
  for (size_t l = 0; l < q.num_layers(); ++l) {
    for (const Matrix* m : {&q.layer_weights(l), &q.layer_bias(l)}) {
      for (double w : m->data()) {
        h ^= std::bit_cast<uint64_t>(w);
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

TEST(TrainStepDigestTest, QNetworkWeightsAfterFiftyStepsArePinned) {
  // The same at every pool size; any change is a behaviour change of the
  // learner.
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(TrainedQNetworkDigest(false, rl::QNetworkMode::kMultiHead, threads),
              0xc86385ea6bc5acdeULL)
        << threads;
    EXPECT_EQ(TrainedQNetworkDigest(false, rl::QNetworkMode::kStateActionInput,
                                    threads),
              0x3ba62758bc406df5ULL)
        << threads;
    EXPECT_EQ(TrainedQNetworkDigest(true, rl::QNetworkMode::kMultiHead, threads),
              0xf09ac5f2036d0b7cULL)
        << threads;
  }
}

}  // namespace
}  // namespace lpa::nn
