#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define LPA_NN_AVX2 1
#include <immintrin.h>
#endif

namespace lpa::nn {

namespace {

/// Below this many multiply-adds per row chunk, waking a pool worker costs
/// more than it saves, and products smaller than two chunks run inline. Set
/// by measurement on a 4-core x86 host: at 2 threads every product of the
/// Table 1 network at batch 32 (at most 32x76x128 = 311k multiply-adds) made
/// DqnAgent::TrainStep slower when split, even at 64k per chunk, so none of
/// them is; products of 1M and more (e.g. the state-action TD-target stacks)
/// still split.
constexpr size_t kMinMacsPerChunk = 512 * 1024;

/// Rows per chunk so one chunk carries at least kMinMacsPerChunk work.
size_t RowChunk(size_t macs_per_row) {
  return kMinMacsPerChunk / (macs_per_row + 1) + 1;
}

// --- The GEMM kernel ---------------------------------------------------------
//
// Every product is C = A * B over raw buffers: B is k x n and C is m x n,
// both row-major; A is m x k with element (i, p) at a[i * as.row + p * as.col],
// so GemmTransA reads its operand in place. A kernel call fills rows
// [i0, i1) of C. GemmTransB transposes B into a thread-local buffer first, so
// the three GEMMs share this one kernel.
//
// Bit-identity with the scalar loop: each C element starts at +0.0 and adds
// a[i][p] * b[p][j] in ascending p, with a separate multiply and add (the
// AVX2 build enables no FMA, so nothing can contract). The scalar loop skips
// p where a[i][p] == 0; the blocked kernel skips p only where the whole row
// block's A entries are zero and otherwise adds 0 * b for the zero rows. For
// finite b that product is +-0, and adding +-0 leaves an accumulator
// unchanged: it starts at +0.0 and can never become -0.0 (x + y is -0.0 only
// when both are -0.0).

/// Element strides of the A operand.
struct Strides {
  size_t row, col;
};

void KernelScalar(const double* a, Strides as, const double* b, double* c,
                  size_t i0, size_t i1, size_t k, size_t n) {
  for (size_t i = i0; i < i1; ++i) {
    const double* arow = a + i * as.row;
    double* crow = c + i * n;
    std::fill(crow, crow + n, 0.0);
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p * as.col];
      if (av == 0.0) continue;  // one-hot inputs are mostly zero
      const double* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#ifdef LPA_NN_AVX2

/// Rows of C per register block; columns per block are 8 (two ymm).
constexpr size_t kRowBlock = 4;

/// C[r][j0..j0+8) for MR rows, accumulated in registers over the live p.
template <size_t MR>
__attribute__((target("avx2"), always_inline)) inline void Block8(
    const double* a, Strides as, const double* b, double* c, size_t n,
    size_t j0, const uint32_t* live, size_t num_live) {
  __m256d lo[MR], hi[MR];
  for (size_t r = 0; r < MR; ++r) lo[r] = hi[r] = _mm256_setzero_pd();
  for (size_t q = 0; q < num_live; ++q) {
    const size_t p = live[q];
    const __m256d b0 = _mm256_loadu_pd(b + p * n + j0);
    const __m256d b1 = _mm256_loadu_pd(b + p * n + j0 + 4);
    for (size_t r = 0; r < MR; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * as.row + p * as.col);
      lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(av, b0));
      hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(av, b1));
    }
  }
  for (size_t r = 0; r < MR; ++r) {
    _mm256_storeu_pd(c + r * n + j0, lo[r]);
    _mm256_storeu_pd(c + r * n + j0 + 4, hi[r]);
  }
}

/// The last n - j0 < 8 columns, in masked 4-wide steps (masked-off lanes
/// load 0 and are never stored).
template <size_t MR>
__attribute__((target("avx2"), always_inline)) inline void BlockTail(
    const double* a, Strides as, const double* b, double* c, size_t n,
    size_t j0, const uint32_t* live, size_t num_live) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (; j0 < n; j0 += 4) {
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<int64_t>(n - j0)), lane);
    __m256d acc[MR];
    for (size_t r = 0; r < MR; ++r) acc[r] = _mm256_setzero_pd();
    for (size_t q = 0; q < num_live; ++q) {
      const size_t p = live[q];
      const __m256d bv = _mm256_maskload_pd(b + p * n + j0, mask);
      for (size_t r = 0; r < MR; ++r) {
        const __m256d av = _mm256_broadcast_sd(a + r * as.row + p * as.col);
        acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(av, bv));
      }
    }
    for (size_t r = 0; r < MR; ++r) _mm256_maskstore_pd(c + r * n + j0, mask, acc[r]);
  }
}

template <size_t MR>
__attribute__((target("avx2"), always_inline)) inline void RowBlock(
    const double* a, Strides as, const double* b, double* c, size_t n,
    const uint32_t* live, size_t num_live) {
  size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) Block8<MR>(a, as, b, c, n, j0, live, num_live);
  BlockTail<MR>(a, as, b, c, n, j0, live, num_live);
}

__attribute__((target("avx2"))) void KernelAvx2(const double* a, Strides as,
                                                const double* b, double* c,
                                                size_t i0, size_t i1, size_t k,
                                                size_t n) {
  // The p where some row of the block has a non-zero A entry, found once per
  // row block and shared by all of its column blocks.
  thread_local std::vector<uint32_t> live;
  live.resize(k);
  for (size_t i = i0; i < i1; i += kRowBlock) {
    const size_t mr = std::min(kRowBlock, i1 - i);
    const double* ablk = a + i * as.row;
    size_t num_live = 0;
    for (size_t p = 0; p < k; ++p) {
      bool nonzero = false;
      for (size_t r = 0; r < mr; ++r) {
        nonzero |= ablk[r * as.row + p * as.col] != 0.0;
      }
      live[num_live] = static_cast<uint32_t>(p);
      num_live += nonzero;
    }
    double* cblk = c + i * n;
    switch (mr) {
      case 4: RowBlock<4>(ablk, as, b, cblk, n, live.data(), num_live); break;
      case 3: RowBlock<3>(ablk, as, b, cblk, n, live.data(), num_live); break;
      case 2: RowBlock<2>(ablk, as, b, cblk, n, live.data(), num_live); break;
      default: RowBlock<1>(ablk, as, b, cblk, n, live.data(), num_live); break;
    }
  }
}

#endif  // LPA_NN_AVX2

/// C = A * B over raw buffers, split over rows of C on the pool.
void RunKernel(const double* a, Strides as, const double* b, double* c,
               size_t m, size_t k, size_t n, ThreadPool* pool) {
  static const auto kernel = [] {
#ifdef LPA_NN_AVX2
    if (HaveAvx2()) return &KernelAvx2;
#endif
    return &KernelScalar;
  }();
  auto rows = [=](size_t begin, size_t end) {
    kernel(a, as, b, c, begin, end, k, n);
  };
  if (pool != nullptr) {
    pool->ParallelFor(m, RowChunk(k * n), rows);
  } else {
    rows(0, m);
  }
}

/// Transpose of the rows x cols buffer `src` into the calling thread's pack
/// buffer (cols x rows), written sequentially. Pool workers only read it
/// while the caller blocks in ParallelFor, and no GEMM runs nested inside
/// another on one thread.
const double* PackTransposed(const double* src, size_t rows, size_t cols) {
  thread_local std::vector<double> pack;
  pack.resize(rows * cols);
  double* dst = pack.data();
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) *dst++ = src[r * cols + c];
  }
  return pack.data();
}

}  // namespace

bool HaveAvx2() {
#ifdef LPA_NN_AVX2
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  assert(!rows.empty());
  Matrix m(rows.size(), rows.front().size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols());
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  RunKernel(a.data().data(), {a.cols(), 1}, b.data().data(), c->data().data(),
            a.rows(), a.cols(), b.cols(), pool);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  assert(a.rows() == b.rows());
  assert(c->rows() == a.cols() && c->cols() == b.cols());
  RunKernel(a.data().data(), {1, a.cols()}, b.data().data(), c->data().data(),
            a.cols(), a.rows(), b.cols(), pool);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  assert(a.cols() == b.cols());
  assert(c->rows() == a.rows() && c->cols() == b.rows());
  const double* bt = PackTransposed(b.data().data(), b.rows(), b.cols());
  RunKernel(a.data().data(), {a.cols(), 1}, bt, c->data().data(), a.rows(),
            a.cols(), b.rows(), pool);
}

void GemmReference(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  KernelScalar(a.data().data(), {a.cols(), 1}, b.data().data(),
               c->data().data(), 0, a.rows(), a.cols(), b.cols());
}

// --- Elementwise updates -----------------------------------------------------
//
// The AVX2 builds run the scalar expressions 4 lanes at a time in the same
// operation order. IEEE multiply, add, divide and sqrt are correctly rounded
// in every width, so each lane's result is bit-identical to the scalar one.

namespace {

inline __attribute__((always_inline)) void AdamScalar(
    const AdamCoeffs& k, const double* grad, double* m, double* v,
    double* param, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const double g = grad[i];
    m[i] = k.beta1 * m[i] + (1.0 - k.beta1) * g;
    v[i] = k.beta2 * v[i] + (1.0 - k.beta2) * g * g;
    const double mhat = m[i] / k.bias1;
    const double vhat = v[i] / k.bias2;
    param[i] -= k.lr * mhat / (std::sqrt(vhat) + k.epsilon);
  }
}

inline __attribute__((always_inline)) void PolyakScalar(
    double tau, const double* src, double* dst, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    dst[i] = (1.0 - tau) * dst[i] + tau * src[i];
  }
}

#ifdef LPA_NN_AVX2
__attribute__((target("avx2"))) void AdamAvx2(const AdamCoeffs& k,
                                              const double* grad, double* m,
                                              double* v, double* param,
                                              size_t n) {
  const __m256d b1 = _mm256_set1_pd(k.beta1);
  const __m256d c1 = _mm256_set1_pd(1.0 - k.beta1);
  const __m256d b2 = _mm256_set1_pd(k.beta2);
  const __m256d c2 = _mm256_set1_pd(1.0 - k.beta2);
  const __m256d bias1 = _mm256_set1_pd(k.bias1);
  const __m256d bias2 = _mm256_set1_pd(k.bias2);
  const __m256d lr = _mm256_set1_pd(k.lr);
  const __m256d eps = _mm256_set1_pd(k.epsilon);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(c1, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(c2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bias1);
    const __m256d vhat = _mm256_div_pd(vi, bias2);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(param + i, _mm256_sub_pd(_mm256_loadu_pd(param + i), step));
  }
  AdamScalar(k, grad, m, v, param, i, n);
}

__attribute__((target("avx2"))) void PolyakAvx2(double tau, const double* src,
                                                double* dst, size_t n) {
  const __m256d keep = _mm256_set1_pd(1.0 - tau);
  const __m256d take = _mm256_set1_pd(tau);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        dst + i, _mm256_add_pd(_mm256_mul_pd(keep, _mm256_loadu_pd(dst + i)),
                               _mm256_mul_pd(take, _mm256_loadu_pd(src + i))));
  }
  PolyakScalar(tau, src, dst, i, n);
}
#endif  // LPA_NN_AVX2

}  // namespace

void AdamUpdate(const AdamCoeffs& k, const double* grad, double* m, double* v,
                double* param, size_t n) {
#ifdef LPA_NN_AVX2
  if (HaveAvx2()) return AdamAvx2(k, grad, m, v, param, n);
#endif
  AdamScalar(k, grad, m, v, param, 0, n);
}

void PolyakBlend(double tau, const double* src, double* dst, size_t n) {
#ifdef LPA_NN_AVX2
  if (HaveAvx2()) return PolyakAvx2(tau, src, dst, n);
#endif
  PolyakScalar(tau, src, dst, 0, n);
}

}  // namespace lpa::nn
