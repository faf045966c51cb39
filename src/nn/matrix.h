#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "util/thread_pool.h"

namespace lpa::nn {

/// \brief Dense row-major double matrix used by the neural network layers.
///
/// Deliberately minimal: the Q-networks of the paper are two small hidden
/// layers (128-64); the GEMMs below are tuned for those shapes.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* row(size_t r) { return data_.data() + r * cols_; }
  const double* row(size_t r) const { return data_.data() + r * cols_; }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  void Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// \brief Reshape to rows x cols, keeping the allocation when it is large
  /// enough. The elements are unspecified afterwards: for buffers that the
  /// next writer overwrites in full (GEMM outputs, gradients).
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// \brief Construct a 1 x n matrix from a vector (one input row).
  static Matrix FromRow(const std::vector<double>& v) {
    Matrix m(1, v.size());
    std::copy(v.begin(), v.end(), m.data_.begin());
    return m;
  }

  /// \brief Construct a b x n matrix from b rows of equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  bool operator==(const Matrix&) const = default;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// All three GEMMs run one register-blocked fp64 kernel, widest vector path
/// first (AVX-512, then AVX2, else the scalar reference loop), optionally on
/// a thread pool. Every C element is accumulated from +0.0 in ascending p
/// order, with a separate multiply and add (no FMA, no contraction), so every
/// path, blocking and thread count gives bit-identical results for finite
/// inputs. Work is partitioned over rows of C only; small products run
/// inline regardless of the pool.

/// \brief C = A * B (A: m x k, B: k x n). C must be pre-sized m x n.
void Gemm(const Matrix& a, const Matrix& b, Matrix* c,
          ThreadPool* pool = nullptr);

/// \brief C = A^T * B (A: k x m, B: k x n). C must be pre-sized m x n.
void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c,
                ThreadPool* pool = nullptr);

/// \brief C = A * B^T (A: m x k, B: n x k). C must be pre-sized m x n.
void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c,
                ThreadPool* pool = nullptr);

/// \brief Serial scalar C = A * B: the plain row-by-row loop every path
/// reproduces bit for bit.
void GemmReference(const Matrix& a, const Matrix& b, Matrix* c);

/// \brief Vector widths of the GEMM kernel: 1, 4 and 8 doubles.
enum class GemmIsa { kScalar, kAvx2, kAvx512 };

/// \brief Which operand of a GEMM is transposed.
enum class GemmOp { kPlain, kTransA, kTransB };

/// \brief "scalar", "avx2" or "avx512".
const char* GemmIsaName(GemmIsa isa);

/// \brief True when this CPU can run `isa` (CPUID, checked once).
bool GemmIsaSupported(GemmIsa isa);

/// \brief The widest supported path: the one Gemm, GemmTransA and
/// GemmTransB run.
GemmIsa DispatchedGemmIsa();

/// \brief Test and benchmark entry point: the GEMM `op` on the path `isa`,
/// which must be supported. The three GEMMs above are this call with
/// DispatchedGemmIsa().
void GemmOnIsa(GemmIsa isa, GemmOp op, const Matrix& a, const Matrix& b,
               Matrix* c, ThreadPool* pool = nullptr);

/// \brief True when this process runs the AVX2 builds of the elementwise
/// and quantized kernels (selected once by CPUID).
bool HaveAvx2();

/// \brief Constants of one Adam step (bias1/bias2 are 1 - beta^t).
struct AdamCoeffs {
  double beta1, beta2, epsilon, bias1, bias2, lr;
};

/// \brief Adam update of n parameters, element by element:
/// m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
/// param -= lr*(m/bias1) / (sqrt(v/bias2) + eps).
void AdamUpdate(const AdamCoeffs& k, const double* grad, double* m, double* v,
                double* param, size_t n);

/// \brief Polyak blend of n values: dst = (1 - tau)*dst + tau*src.
void PolyakBlend(double tau, const double* src, double* dst, size_t n);

}  // namespace lpa::nn
