#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

#if defined(__GNUC__) && defined(__x86_64__) && !defined(__clang__)
#define LPA_NN_X86 1
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
// the three GEMMs share one kernel body, instantiated once per vector width.
//
// Per block of rows of C (8 at AVX-512, 4 at AVX2), the body first packs A
// into a panel: for each p where some row of the block has a non-zero A
// entry (a live p), the block's A entries side by side, and the address of
// B's row p. The inner loop then reads A and B sequentially, with no stride
// and no index multiply. It keeps 2 vectors of C columns per row in
// registers (an 8 x 16 block in 16 zmm, or 4 x 8 in 8 ymm); the last n % 16
// (n % 8) columns run one masked vector at a time, whose masked-off lanes
// load nothing and are never stored.
//
// Bit-identity with the scalar loop: each C element starts at +0.0 and adds
// a[i][p] * b[p][j] in ascending p, with a separate multiply and add. lpa_nn
// compiles with -ffp-contract=off, so no width contracts them into an FMA
// (AVX-512F has FMA instructions, and its intrinsics are plain vector
// arithmetic to the compiler). The scalar loop skips p where a[i][p] == 0;
// the blocked kernel skips p only where the whole row block's A entries are
// zero and otherwise adds 0 * b for the zero rows. For finite b that product
// is +-0, and adding +-0 leaves an accumulator unchanged: it starts at +0.0
// and can never become -0.0 (x + y is -0.0 only when both are -0.0).

/// Element strides of the A operand.
struct Strides {
  size_t row, col;
};

/// Most rows of C per register block (of any path).
constexpr size_t kRowBlock = 8;

/// A kernel fills rows [i0, i1) of C. `panel` has room for k * kRowBlock
/// doubles and `brow` for k pointers (scratch of the calling thread).
using KernelFn = void (*)(const double* a, Strides as, const double* b,
                          double* c, size_t i0, size_t i1, size_t k, size_t n,
                          double* panel, const double** brow);

void KernelScalar(const double* a, Strides as, const double* b, double* c,
                  size_t i0, size_t i1, size_t k, size_t n, double* /*panel*/,
                  const double** /*brow*/) {
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

#ifdef LPA_NN_X86

// The vector types cross the (inlined) template helpers below by value.
#pragma GCC diagnostic ignored "-Wpsabi"

/// 4 doubles per vector.
struct Avx2Lanes {
  using Vec = __m256d;
  using Mask = __m256i;
  static constexpr size_t kLanes = 4;
  static constexpr size_t kRows = 4;  // 8 accumulators of the 16 ymm
  __attribute__((target("avx2"))) static Vec Zero() {
    return _mm256_setzero_pd();
  }
  __attribute__((target("avx2"))) static Vec Load(const double* p) {
    return _mm256_loadu_pd(p);
  }
  __attribute__((target("avx2"))) static Vec Broadcast(const double* p) {
    return _mm256_broadcast_sd(p);
  }
  __attribute__((target("avx2"))) static Vec MulAdd(Vec acc, Vec a, Vec b) {
    return _mm256_add_pd(acc, _mm256_mul_pd(a, b));
  }
  __attribute__((target("avx2"))) static void Store(double* p, Vec v) {
    _mm256_storeu_pd(p, v);
  }
  /// The first `count` (1..4) lanes.
  __attribute__((target("avx2"))) static Mask FirstLanes(size_t count) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(count)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  __attribute__((target("avx2"))) static Vec MaskLoad(const double* p,
                                                      Mask m) {
    return _mm256_maskload_pd(p, m);
  }
  __attribute__((target("avx2"))) static void MaskStore(double* p, Mask m,
                                                        Vec v) {
    _mm256_maskstore_pd(p, m, v);
  }
  __attribute__((target("avx2"))) static bool AnyNonZero(Vec v) {
    return _mm256_movemask_pd(
               _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ)) != 0;
  }
  /// In-place transpose of the 4 x 4 block held as 4 row vectors.
  __attribute__((target("avx2"))) static void Transpose(Vec v[4]) {
    const Vec t0 = _mm256_unpacklo_pd(v[0], v[1]);
    const Vec t1 = _mm256_unpackhi_pd(v[0], v[1]);
    const Vec t2 = _mm256_unpacklo_pd(v[2], v[3]);
    const Vec t3 = _mm256_unpackhi_pd(v[2], v[3]);
    v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
};

/// 8 doubles per vector.
struct Avx512Lanes {
  using Vec = __m512d;
  using Mask = __mmask8;
  static constexpr size_t kLanes = 8;
  static constexpr size_t kRows = 8;  // 16 accumulators of the 32 zmm
  __attribute__((target("avx512f"))) static Vec Zero() {
    return _mm512_setzero_pd();
  }
  __attribute__((target("avx512f"))) static Vec Load(const double* p) {
    return _mm512_loadu_pd(p);
  }
  __attribute__((target("avx512f"))) static Vec Broadcast(const double* p) {
    return _mm512_set1_pd(*p);
  }
  __attribute__((target("avx512f"))) static Vec MulAdd(Vec acc, Vec a,
                                                       Vec b) {
    return _mm512_add_pd(acc, _mm512_mul_pd(a, b));
  }
  __attribute__((target("avx512f"))) static void Store(double* p, Vec v) {
    _mm512_storeu_pd(p, v);
  }
  /// The first `count` (1..8) lanes.
  __attribute__((target("avx512f"))) static Mask FirstLanes(size_t count) {
    return static_cast<Mask>((1u << count) - 1);
  }
  __attribute__((target("avx512f"))) static Vec MaskLoad(const double* p,
                                                         Mask m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  __attribute__((target("avx512f"))) static void MaskStore(double* p, Mask m,
                                                           Vec v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};

// The body below is width-generic and carries no target attribute; each
// width's entry point is a `flatten` function with that width's target, which
// inlines the body and the lane helpers into one function of that ISA.

/// C[r][j0..j0+2W) for MR rows, accumulated in registers over the live p.
template <class L, size_t MR>
inline void Block(const double* panel, const double* const* brow,
                  size_t num_live, double* c, size_t n, size_t j0) {
  typename L::Vec lo[MR], hi[MR];
  for (size_t r = 0; r < MR; ++r) lo[r] = hi[r] = L::Zero();
  for (size_t q = 0; q < num_live; ++q) {
    const double* bq = brow[q] + j0;
    const typename L::Vec b0 = L::Load(bq);
    const typename L::Vec b1 = L::Load(bq + L::kLanes);
    const double* aq = panel + q * MR;
    for (size_t r = 0; r < MR; ++r) {
      const typename L::Vec av = L::Broadcast(aq + r);
      lo[r] = L::MulAdd(lo[r], av, b0);
      hi[r] = L::MulAdd(hi[r], av, b1);
    }
  }
  for (size_t r = 0; r < MR; ++r) {
    L::Store(c + r * n + j0, lo[r]);
    L::Store(c + r * n + j0 + L::kLanes, hi[r]);
  }
}

/// The last n - j0 < 2W columns, one masked vector at a time.
template <class L, size_t MR>
inline void BlockTail(const double* panel, const double* const* brow,
                      size_t num_live, double* c, size_t n, size_t j0) {
  for (; j0 < n; j0 += L::kLanes) {
    const typename L::Mask mask = L::FirstLanes(std::min(L::kLanes, n - j0));
    typename L::Vec acc[MR];
    for (size_t r = 0; r < MR; ++r) acc[r] = L::Zero();
    for (size_t q = 0; q < num_live; ++q) {
      const typename L::Vec bv = L::MaskLoad(brow[q] + j0, mask);
      const double* aq = panel + q * MR;
      for (size_t r = 0; r < MR; ++r) {
        acc[r] = L::MulAdd(acc[r], L::Broadcast(aq + r), bv);
      }
    }
    for (size_t r = 0; r < MR; ++r) L::MaskStore(c + r * n + j0, mask, acc[r]);
  }
}

/// Packs rows [0, MR) of the A block at `ablk` into `panel` and `brow`;
/// returns the number of live p. A full block of either operand layout
/// (GemmTransA's contiguous rows, Gemm's contiguous p) moves 4 doubles per
/// vector; other blocks move one at a time.
template <size_t MR>
inline size_t PackPanel(const double* ablk, Strides as, const double* b,
                        size_t k, size_t n, double* panel,
                        const double** brow) {
  using V4 = Avx2Lanes;
  size_t num_live = 0, p = 0;
  if constexpr (MR % 4 == 0) {
    constexpr size_t kGroups = MR / 4;
    if (as.row == 1) {
      for (; p < k; ++p) {
        bool nonzero = false;
        for (size_t g = 0; g < kGroups; ++g) {
          const V4::Vec v = V4::Load(ablk + p * as.col + 4 * g);
          V4::Store(panel + num_live * MR + 4 * g, v);
          nonzero |= V4::AnyNonZero(v);
        }
        brow[num_live] = b + p * n;
        num_live += nonzero;
      }
    } else if (as.col == 1) {
      for (; p + 4 <= k; p += 4) {
        V4::Vec v[kGroups][4];
        for (size_t g = 0; g < kGroups; ++g) {
          for (size_t r = 0; r < 4; ++r) {
            v[g][r] = V4::Load(ablk + (4 * g + r) * as.row + p);
          }
          V4::Transpose(v[g]);
        }
        for (size_t d = 0; d < 4; ++d) {
          bool nonzero = false;
          for (size_t g = 0; g < kGroups; ++g) {
            V4::Store(panel + num_live * MR + 4 * g, v[g][d]);
            nonzero |= V4::AnyNonZero(v[g][d]);
          }
          brow[num_live] = b + (p + d) * n;
          num_live += nonzero;
        }
      }
    }
  }
  for (; p < k; ++p) {
    const double* ap = ablk + p * as.col;
    double* dst = panel + num_live * MR;
    bool nonzero = false;
    for (size_t r = 0; r < MR; ++r) {
      dst[r] = ap[r * as.row];
      nonzero |= dst[r] != 0.0;
    }
    brow[num_live] = b + p * n;
    num_live += nonzero;
  }
  return num_live;
}

/// Packs rows [0, MR) of the A block at `ablk`, then fills those rows of C.
template <class L, size_t MR>
inline void RowBlock(const double* ablk, Strides as, const double* b,
                     double* c, size_t k, size_t n, double* panel,
                     const double** brow) {
  const size_t num_live = PackPanel<MR>(ablk, as, b, k, n, panel, brow);
  constexpr size_t kCols = 2 * L::kLanes;
  size_t j0 = 0;
  for (; j0 + kCols <= n; j0 += kCols) {
    Block<L, MR>(panel, brow, num_live, c, n, j0);
  }
  BlockTail<L, MR>(panel, brow, num_live, c, n, j0);
}

/// RowBlock for the last `rows` < MR rows of a chunk.
template <class L, size_t MR>
inline void RowBlockTail(size_t rows, const double* ablk, Strides as,
                         const double* b, double* c, size_t k, size_t n,
                         double* panel, const double** brow) {
  if constexpr (MR > 1) {
    if (rows < MR) {
      return RowBlockTail<L, MR - 1>(rows, ablk, as, b, c, k, n, panel, brow);
    }
  }
  RowBlock<L, MR>(ablk, as, b, c, k, n, panel, brow);
}

template <class L>
inline void KernelBody(const double* a, Strides as, const double* b, double* c,
                       size_t i0, size_t i1, size_t k, size_t n, double* panel,
                       const double** brow) {
  size_t i = i0;
  for (; i + L::kRows <= i1; i += L::kRows) {
    RowBlock<L, L::kRows>(a + i * as.row, as, b, c + i * n, k, n, panel, brow);
  }
  if (i < i1) {
    RowBlockTail<L, L::kRows - 1>(i1 - i, a + i * as.row, as, b, c + i * n, k,
                                  n, panel, brow);
  }
}

__attribute__((target("avx2"), flatten)) void KernelAvx2(
    const double* a, Strides as, const double* b, double* c, size_t i0,
    size_t i1, size_t k, size_t n, double* panel, const double** brow) {
  KernelBody<Avx2Lanes>(a, as, b, c, i0, i1, k, n, panel, brow);
}

__attribute__((target("avx512f"), flatten)) void KernelAvx512(
    const double* a, Strides as, const double* b, double* c, size_t i0,
    size_t i1, size_t k, size_t n, double* panel, const double** brow) {
  KernelBody<Avx512Lanes>(a, as, b, c, i0, i1, k, n, panel, brow);
}

#endif  // LPA_NN_X86

KernelFn KernelFor(GemmIsa isa) {
  LPA_CHECK(GemmIsaSupported(isa));
#ifdef LPA_NN_X86
  if (isa == GemmIsa::kAvx512) return &KernelAvx512;
  if (isa == GemmIsa::kAvx2) return &KernelAvx2;
#endif
  return &KernelScalar;
}

/// C = A * B over raw buffers on path `isa`, split over rows of C on the
/// pool. Each thread packs into its own panel.
void RunKernel(GemmIsa isa, const double* a, Strides as, const double* b,
               double* c, size_t m, size_t k, size_t n, ThreadPool* pool) {
  const KernelFn kernel = KernelFor(isa);
  auto rows = [=](size_t begin, size_t end) {
    thread_local std::vector<double> panel;
    thread_local std::vector<const double*> brow;
    panel.resize(k * kRowBlock);
    brow.resize(k);
    kernel(a, as, b, c, begin, end, k, n, panel.data(), brow.data());
  };
  if (pool != nullptr) {
    pool->ParallelFor(m, RowChunk(k * n), rows);
  } else {
    rows(0, m);
  }
}

#ifdef LPA_NN_X86
/// Columns outer in strips of 8 (a cache line of each source row), rows
/// inner in 4 x 4 register transposes, so the writes run along 8 rows of the
/// destination at a time instead of striding across all of them.
__attribute__((target("avx2"))) void TransposeAvx2(const double* src,
                                                   size_t rows, size_t cols,
                                                   double* dst) {
  using V4 = Avx2Lanes;
  const size_t rows4 = rows / 4 * 4;
  size_t c = 0;
  for (; c + 8 <= cols; c += 8) {
    for (size_t r = 0; r < rows4; r += 4) {
      for (size_t h = c; h < c + 8; h += 4) {
        V4::Vec v[4];
        for (size_t i = 0; i < 4; ++i) {
          v[i] = V4::Load(src + (r + i) * cols + h);
        }
        V4::Transpose(v);
        for (size_t i = 0; i < 4; ++i) {
          V4::Store(dst + (h + i) * rows + r, v[i]);
        }
      }
    }
  }
  // The last cols % 8 columns and rows % 4 rows.
  for (size_t r = 0; r < rows; ++r) {
    for (size_t cc = r < rows4 ? c : 0; cc < cols; ++cc) {
      dst[cc * rows + r] = src[r * cols + cc];
    }
  }
}
#endif  // LPA_NN_X86

/// Transpose of the rows x cols buffer `src` into the calling thread's pack
/// buffer (cols x rows), in 4 x 4 blocks on the vector paths. Pool workers
/// only read it while the caller blocks in ParallelFor, and no GEMM runs
/// nested inside another on one thread.
const double* PackTransposed(GemmIsa isa, const double* src, size_t rows,
                             size_t cols) {
  thread_local std::vector<double> pack;
  pack.resize(rows * cols);
  double* dst = pack.data();
#ifdef LPA_NN_X86
  if (isa != GemmIsa::kScalar) {
    TransposeAvx2(src, rows, cols, dst);
    return dst;
  }
#endif
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) *dst++ = src[r * cols + c];
  }
  return pack.data();
}

}  // namespace

bool HaveAvx2() {
#ifdef LPA_NN_X86
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

const char* GemmIsaName(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx512: return "avx512";
    case GemmIsa::kAvx2: return "avx2";
    case GemmIsa::kScalar: break;
  }
  return "scalar";
}

bool GemmIsaSupported(GemmIsa isa) {
  switch (isa) {
    case GemmIsa::kAvx512: {
#ifdef LPA_NN_X86
      static const bool have = __builtin_cpu_supports("avx512f");
      return have;
#else
      return false;
#endif
    }
    case GemmIsa::kAvx2: return HaveAvx2();
    case GemmIsa::kScalar: break;
  }
  return true;
}

GemmIsa DispatchedGemmIsa() {
  static const GemmIsa isa =
      GemmIsaSupported(GemmIsa::kAvx512) ? GemmIsa::kAvx512
      : GemmIsaSupported(GemmIsa::kAvx2) ? GemmIsa::kAvx2
                                         : GemmIsa::kScalar;
  return isa;
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

void GemmOnIsa(GemmIsa isa, GemmOp op, const Matrix& a, const Matrix& b,
               Matrix* c, ThreadPool* pool) {
  switch (op) {
    case GemmOp::kPlain:
      assert(a.cols() == b.rows());
      assert(c->rows() == a.rows() && c->cols() == b.cols());
      RunKernel(isa, a.data().data(), {a.cols(), 1}, b.data().data(),
                c->data().data(), a.rows(), a.cols(), b.cols(), pool);
      return;
    case GemmOp::kTransA:
      assert(a.rows() == b.rows());
      assert(c->rows() == a.cols() && c->cols() == b.cols());
      RunKernel(isa, a.data().data(), {1, a.cols()}, b.data().data(),
                c->data().data(), a.cols(), a.rows(), b.cols(), pool);
      return;
    case GemmOp::kTransB: {
      assert(a.cols() == b.cols());
      assert(c->rows() == a.rows() && c->cols() == b.rows());
      const double* bt =
          PackTransposed(isa, b.data().data(), b.rows(), b.cols());
      RunKernel(isa, a.data().data(), {a.cols(), 1}, bt, c->data().data(),
                a.rows(), a.cols(), b.rows(), pool);
      return;
    }
  }
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  GemmOnIsa(DispatchedGemmIsa(), GemmOp::kPlain, a, b, c, pool);
}

void GemmTransA(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  GemmOnIsa(DispatchedGemmIsa(), GemmOp::kTransA, a, b, c, pool);
}

void GemmTransB(const Matrix& a, const Matrix& b, Matrix* c, ThreadPool* pool) {
  GemmOnIsa(DispatchedGemmIsa(), GemmOp::kTransB, a, b, c, pool);
}

void GemmReference(const Matrix& a, const Matrix& b, Matrix* c) {
  assert(a.cols() == b.rows());
  assert(c->rows() == a.rows() && c->cols() == b.cols());
  KernelScalar(a.data().data(), {a.cols(), 1}, b.data().data(),
               c->data().data(), 0, a.rows(), a.cols(), b.cols(), nullptr,
               nullptr);
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

#ifdef LPA_NN_X86
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
#endif  // LPA_NN_X86

}  // namespace

void AdamUpdate(const AdamCoeffs& k, const double* grad, double* m, double* v,
                double* param, size_t n) {
#ifdef LPA_NN_X86
  if (HaveAvx2()) return AdamAvx2(k, grad, m, v, param, n);
#endif
  AdamScalar(k, grad, m, v, param, 0, n);
}

void PolyakBlend(double tau, const double* src, double* dst, size_t n) {
#ifdef LPA_NN_X86
  if (HaveAvx2()) return PolyakAvx2(tau, src, dst, n);
#endif
  PolyakScalar(tau, src, dst, 0, n);
}

}  // namespace lpa::nn
