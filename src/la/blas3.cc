// Cache-blocked, pool-parallel BLAS-3 kernels.
//
// Structure (GotoBLAS/BLIS; Goto & van de Geijn, "Anatomy of
// High-Performance Matrix Multiplication", TOMS 2008):
//   * gemm cuts K into kKC<T> slabs. Per slab it packs op(A) into MR-row
//     slivers (sliver s holds rows s*MR.. at dst[s*MR*kc + l*MR + r]) and
//     alpha*op(B) into kNR-column slivers (dst[s*kNR*kc + l*kNR + c]), both
//     zero-padded to a whole sliver; transposition is absorbed by the pack.
//     A fixed kMC x kNC grid of C blocks is then spread over the thread
//     pool; each task walks its block in MR x kNR register tiles, one
//     micro-kernel call per tile.
//   * The micro-kernel holds the C tile in kNR vector accumulators of MR
//     lanes: load C (scaled by beta on the first slab), then for l
//     ascending acc(:, j) += bhat(l, j) * a(:, l), then store. It is one
//     template on the scalar and the vector width, compiled into a portable
//     baseline (16-byte vectors) and, on x86, avx2 and avx512f wrappers; the
//     widest one the CPU supports is picked once per process. MR is one
//     vector of that ISA, so the packing follows the pick.
//   * syr2k_lower processes fixed-width column blocks of the lower triangle
//     in parallel, with the k loop hoisted so each A/B column is streamed
//     once per block instead of once per column.
//   * symm_lower parallelizes over output-column blocks.
//
// Determinism: the block grid depends only on the shape (never the thread
// count or the ISA), every tile is computed by one thread with a fixed inner
// loop order, and each C element sees exactly c = c + (alpha*b)*a, rounded
// after every step, k ascending, split at the same kKC<T> boundaries. The
// library is built with -ffp-contract=off so no ISA variant fuses that into
// an FMA. Results are therefore bitwise identical for any thread count and
// any ISA variant, and to the original single-threaded column-sweep kernels.
//
// Tracing: the public entry points record one op on the calling thread;
// pool workers run the untraced detail:: kernels (common/trace.h is
// thread-local), so recorded traces are thread-count invariant.

#include <algorithm>
#include <cstring>
#include <iterator>
#include <memory>
#include <new>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "la/blas.h"

namespace tdg::la {

namespace {

// K slab: 2 KiB of each packed row/column (256 doubles, 512 floats). The
// slab boundaries are part of the bitwise contract, so kKC depends on the
// scalar width only. A kc x kNR B sliver (24 KiB) then stays in L1 while
// the micro-kernel streams the kMC x kc A block (192 KiB) from L2.
constexpr std::size_t kKCBytes = 2048;
template <class T>
constexpr index_t kKC = kKCBytes / sizeof(T);

// Register tile width: kNR C columns, one vector accumulator each.
constexpr index_t kNR = 12;

// Task grid: one pool task per kMC x kNC block of C, fixed sizes, so the
// grid is a function of the shape alone. kMC is a multiple of every
// variant's MR (at most 64 bytes: 8 doubles, 16 floats) and kNC of kNR, so
// each block starts on a sliver boundary. 96 x 192 gives a 352 x 352
// update 8 tasks.
constexpr std::size_t kMaxVectorBytes = 64;
constexpr index_t kMC = 96;
constexpr index_t kNC = 192;
static_assert(kMC % (kMaxVectorBytes / sizeof(float)) == 0);
static_assert(kNC % kNR == 0);

// NN problems below this flop volume skip packing and dispatch entirely
// (the hot skinny panel-factor GEMMs in the band reduction).
constexpr index_t kSmallGemmVolume = 64 * 64 * 64;

// Column-block width for the syr2k / symm parallel sweeps.
constexpr index_t kJB = 32;

// x *= beta, except that beta == 0 overwrites x with zeros: the BLAS rule,
// so NaN/Inf already in C never survive an overwrite.
template <class T>
void scale_by_beta(T beta, T* x, index_t len) {
  if (beta == T(1)) return;
  if (beta == T(0)) {
    std::fill(x, x + len, T(0));
  } else {
    for (index_t i = 0; i < len; ++i) x[i] *= beta;
  }
}

// Small-problem kernel: C = alpha * A(m x k) * B(k x n) + beta * C, no
// transposes, no packing. 8 output columns per pass so each A column is
// read once per 8 C columns.
template <class T>
void gemm_nn_kernel(T alpha, ConstMatrixViewT<T> a, ConstMatrixViewT<T> b,
                    T beta, MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = a.cols;
  constexpr index_t kColBlock = 8;

  for (index_t jj = 0; jj < n; jj += kColBlock) {
    const index_t jb = std::min(kColBlock, n - jj);
    for (index_t j = jj; j < jj + jb; ++j) scale_by_beta(beta, c.col(j), m);
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      T coef[kColBlock];
      T* ccol[kColBlock];
      for (index_t t = 0; t < jb; ++t) {
        coef[t] = alpha * b(l, jj + t);
        ccol[t] = c.col(jj + t);
      }
      if (jb == kColBlock) {
        for (index_t i = 0; i < m; ++i) {
          const T ai = al[i];
          ccol[0][i] += coef[0] * ai;
          ccol[1][i] += coef[1] * ai;
          ccol[2][i] += coef[2] * ai;
          ccol[3][i] += coef[3] * ai;
          ccol[4][i] += coef[4] * ai;
          ccol[5][i] += coef[5] * ai;
          ccol[6][i] += coef[6] * ai;
          ccol[7][i] += coef[7] * ai;
        }
      } else {
        for (index_t t = 0; t < jb; ++t) {
          const T ct = coef[t];
          T* cc = ccol[t];
          for (index_t i = 0; i < m; ++i) cc[i] += ct * al[i];
        }
      }
    }
  }
}

// ----- Micro-kernel -----

template <class T, std::size_t kBytes>
struct Simd {
  typedef T type __attribute__((vector_size(kBytes)));
};

// C(0:MR, 0:kNR) (leading dimension ldc) = beta * C
//     + sum_l bhat(l, :) * a(:, l), MR = kBytes / sizeof(T),
// with a an MR-row A sliver and bhat a kNR-column alpha*B sliver. beta == 0
// overwrites C. Always inlined, so each ISA wrapper below compiles its own
// copy with its own vector registers; without the unroll pragmas GCC -O2
// keeps the accumulators in memory.
template <class T, std::size_t kBytes>
[[gnu::always_inline]] inline void micro_kernel(index_t kc, const T* a,
                                                const T* b, T beta, T* c,
                                                index_t ldc) {
  using V = typename Simd<T, kBytes>::type;
  constexpr index_t kMR = kBytes / sizeof(T);
  V acc[kNR];
  if (beta == T(0)) {
#pragma GCC unroll 12
    for (index_t j = 0; j < kNR; ++j) acc[j] = V{};
  } else {
#pragma GCC unroll 12
    for (index_t j = 0; j < kNR; ++j) {
      std::memcpy(&acc[j], c + j * ldc, sizeof(V));
      if (beta != T(1)) acc[j] *= beta;
    }
  }
  for (index_t l = 0; l < kc; ++l) {
    V av;
    std::memcpy(&av, a + l * kMR, sizeof(V));
    const T* bl = b + l * kNR;
#pragma GCC unroll 12
    for (index_t j = 0; j < kNR; ++j) acc[j] += bl[j] * av;
  }
#pragma GCC unroll 12
  for (index_t j = 0; j < kNR; ++j) {
    std::memcpy(c + j * ldc, &acc[j], sizeof(V));
  }
}

template <class T>
using MicroKernelFn = void (*)(index_t, const T*, const T*, T, T*, index_t);

template <class T>
void kernel_baseline(index_t kc, const T* a, const T* b, T beta, T* c,
                     index_t ldc) {
  micro_kernel<T, 16>(kc, a, b, beta, c, ldc);
}

#if defined(__x86_64__) || defined(__i386__)
template <class T>
__attribute__((target("avx2"))) void kernel_avx2(index_t kc, const T* a,
                                                 const T* b, T beta, T* c,
                                                 index_t ldc) {
  micro_kernel<T, 32>(kc, a, b, beta, c, ldc);
}

template <class T>
__attribute__((target("avx512f"))) void kernel_avx512f(index_t kc,
                                                       const T* a,
                                                       const T* b, T beta,
                                                       T* c, index_t ldc) {
  micro_kernel<T, 64>(kc, a, b, beta, c, ldc);
}
#endif

// The compiled variants, baseline first and in increasing width.
template <class T>
struct Variant {
  const char* isa;
  std::size_t vector_bytes;
  bool (*supported)();
  MicroKernelFn<T> kernel;
};

template <class T>
constexpr Variant<T> kVariants[] = {
    {"baseline", 16, [] { return true; }, kernel_baseline<T>},
#if defined(__x86_64__) || defined(__i386__)
    {"avx2", 32, [] { return __builtin_cpu_supports("avx2") != 0; },
     kernel_avx2<T>},
    {"avx512f", 64, [] { return __builtin_cpu_supports("avx512f") != 0; },
     kernel_avx512f<T>},
#endif
};
// The ISA list is the same for every scalar.
constexpr std::size_t kNumVariants = std::size(kVariants<double>);

// The widest supported variant, resolved on first use.
std::size_t selected_variant() {
  static const std::size_t v = [] {
    std::size_t best = 0;
    for (std::size_t i = 0; i < kNumVariants; ++i) {
      if (kVariants<double>[i].supported()) best = i;
    }
    return best;
  }();
  return v;
}

// ----- Packing -----

// Pack op(A)(:, pc:pc+kc) into mr-row slivers, parallel over disjoint row
// ranges (kMC is a multiple of mr, so chunks start on sliver boundaries).
template <class T>
void pack_a_panel(Trans ta, ConstMatrixViewT<T> a, index_t pc, index_t kc,
                  index_t m, index_t mr, T* dst) {
  parallel_chunks(m, kMC, [&](index_t lo, index_t hi) {
    for (index_t i0 = lo; i0 < hi; i0 += mr) {
      const index_t rows = std::min(mr, hi - i0);
      T* s = dst + i0 * kc;
      if (ta == Trans::kNo) {
        for (index_t l = 0; l < kc; ++l) {
          const T* src = a.col(pc + l) + i0;
          T* d = s + l * mr;
          std::copy(src, src + rows, d);
          std::fill(d + rows, d + mr, T(0));
        }
      } else {
        // op(A)(i, l) = a(pc + l, i): read each source column contiguously.
        for (index_t r = 0; r < rows; ++r) {
          const T* src = a.col(i0 + r) + pc;
          for (index_t l = 0; l < kc; ++l) s[l * mr + r] = src[l];
        }
        for (index_t l = 0; l < kc; ++l) {
          std::fill(s + l * mr + rows, s + (l + 1) * mr, T(0));
        }
      }
    }
  });
}

// Pack alpha * op(B)(pc:pc+kc, :) into kNR-column slivers, parallel over
// disjoint column ranges. alpha*b is rounded once here, exactly the
// coefficient the unpacked kernel forms.
template <class T>
void pack_b_panel(Trans tb, T alpha, ConstMatrixViewT<T> b, index_t pc,
                  index_t kc, index_t n, T* dst) {
  parallel_chunks(n, kNC, [&](index_t lo, index_t hi) {
    for (index_t j0 = lo; j0 < hi; j0 += kNR) {
      const index_t cols = std::min(kNR, hi - j0);
      T* s = dst + j0 * kc;
      if (tb == Trans::kNo) {
        for (index_t c = 0; c < cols; ++c) {
          const T* src = b.col(j0 + c) + pc;
          for (index_t l = 0; l < kc; ++l) s[l * kNR + c] = alpha * src[l];
        }
      } else {
        // op(B)(l, j) = b(j, pc + l): read each source column contiguously.
        for (index_t l = 0; l < kc; ++l) {
          const T* src = b.col(pc + l) + j0;
          for (index_t c = 0; c < cols; ++c) s[l * kNR + c] = alpha * src[c];
        }
      }
      for (index_t l = 0; l < kc; ++l) {
        std::fill(s + l * kNR + cols, s + (l + 1) * kNR, T(0));
      }
    }
  });
}

// 64-byte-aligned, uninitialised scratch for the packed panels: packing
// writes every element, so value-initialising would be a wasted pass.
// Deliberately outside la/workspace.h's tracked allocations: the pack
// buffers are transient per call and not part of the solver's workspace.
struct AlignedDelete {
  void operator()(void* p) const {
    ::operator delete[](p, std::align_val_t{kMaxVectorBytes});
  }
};

template <class T>
std::unique_ptr<T[], AlignedDelete> pack_buffer(std::size_t count) {
  return std::unique_ptr<T[], AlignedDelete>(static_cast<T*>(
      ::operator new[](count * sizeof(T), std::align_val_t{kMaxVectorBytes})));
}

index_t round_up(index_t x, index_t to) { return (x + to - 1) / to * to; }

// Packed MC x KC x NC loop nest on micro-kernel variant v. The K loop stays
// outermost and ascending, so each C element accumulates its k
// contributions in exactly the order the unblocked kernel used.
template <class T>
void gemm_packed(std::size_t v, Trans ta, Trans tb, T alpha,
                 ConstMatrixViewT<T> a, ConstMatrixViewT<T> b, T beta,
                 MatrixViewT<T> c) {
  const MicroKernelFn<T> kernel = kVariants<T>[v].kernel;
  const index_t mr =
      static_cast<index_t>(kVariants<T>[v].vector_bytes / sizeof(T));
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;

  const index_t kc_max = std::min(k, kKC<T>);
  const auto apack =
      pack_buffer<T>(static_cast<std::size_t>(round_up(m, mr) * kc_max));
  const auto bpack =
      pack_buffer<T>(static_cast<std::size_t>(round_up(n, kNR) * kc_max));
  const index_t nmb = (m + kMC - 1) / kMC;
  const index_t nnb = (n + kNC - 1) / kNC;

  for (index_t pc = 0; pc < k; pc += kKC<T>) {
    const index_t kc = std::min(kKC<T>, k - pc);
    pack_a_panel(ta, a, pc, kc, m, mr, apack.get());
    pack_b_panel(tb, alpha, b, pc, kc, n, bpack.get());
    const T beta_eff = (pc == 0) ? beta : T(1);

    ThreadPool::global().parallel_for(0, nmb * nnb, [&](index_t t) {
      const index_t i0 = (t % nmb) * kMC;
      const index_t j0 = (t / nmb) * kNC;
      const index_t i1 = std::min(i0 + kMC, m);
      const index_t j1 = std::min(j0 + kNC, n);
      for (index_t j = j0; j < j1; j += kNR) {
        const T* bs = bpack.get() + j * kc;
        const index_t nr = std::min(kNR, j1 - j);
        for (index_t i = i0; i < i1; i += mr) {
          const T* as = apack.get() + i * kc;
          const index_t rows = std::min(mr, i1 - i);
          T* cij = &c(i, j);
          if (rows == mr && nr == kNR) {
            kernel(kc, as, bs, beta_eff, cij, c.ld);
            continue;
          }
          // Edge tile: run the full tile on a zero-padded copy and write
          // back the live part; the padding is never stored.
          T tile[kMaxVectorBytes / sizeof(T) * kNR] = {};
          for (index_t jj = 0; jj < nr; ++jj) {
            std::copy(cij + jj * c.ld, cij + jj * c.ld + rows, tile + jj * mr);
          }
          kernel(kc, as, bs, beta_eff, tile, mr);
          for (index_t jj = 0; jj < nr; ++jj) {
            std::copy(tile + jj * mr, tile + jj * mr + rows, cij + jj * c.ld);
          }
        }
      }
    });
  }
}

// The gemm dispatch on micro-kernel variant v: empty and rank-0 products
// only scale C, tiny NN products skip packing.
template <class T>
void gemm_on_variant(std::size_t v, Trans ta, Trans tb, T alpha,
                     ConstMatrixViewT<T> a, ConstMatrixViewT<T> b, T beta,
                     MatrixViewT<T> c) {
  const index_t m = c.rows;
  const index_t n = c.cols;
  const index_t k = (ta == Trans::kNo) ? a.cols : a.rows;
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T(0)) {
    for (index_t j = 0; j < n; ++j) scale_by_beta(beta, c.col(j), m);
    return;
  }
  if (ta == Trans::kNo && tb == Trans::kNo && m * n * k <= kSmallGemmVolume) {
    gemm_nn_kernel(alpha, a, b, beta, c);
    return;
  }
  gemm_packed(v, ta, tb, alpha, a, b, beta, c);
}

}  // namespace

namespace detail {

std::vector<GemmVariant> gemm_variants() {
  std::vector<GemmVariant> out;
  for (const Variant<double>& v : kVariants<double>) {
    out.push_back({v.isa, v.supported()});
  }
  return out;
}

template <class T>
void gemm_variant_notrace(std::size_t variant, Trans ta, Trans tb,
                          Scalar<T> alpha, InView<T> a, InView<T> b,
                          Scalar<T> beta, MatrixViewT<T> c) {
  TDG_CHECK(variant < kNumVariants && kVariants<T>[variant].supported(),
            "gemm_variant_notrace: variant not available on this CPU");
  gemm_on_variant(variant, ta, tb, alpha, a, b, beta, c);
}

template <class T>
void gemm_notrace(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a,
                  InView<T> b, Scalar<T> beta, MatrixViewT<T> c) {
  gemm_on_variant(selected_variant(), ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower_notrace(Scalar<T> alpha, InView<T> a, InView<T> b,
                         Scalar<T> beta, MatrixViewT<T> c) {
  const index_t n = c.rows;
  const index_t k = a.cols;
  // Fixed kJB-column blocks of the lower triangle, distributed over the
  // pool; within a block the k loop is hoisted so the streamed A/B columns
  // serve every block column. Each element still accumulates in ascending
  // l order — bitwise identical to the plain column sweep.
  parallel_chunks(n, kJB, [&](index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) scale_by_beta(beta, c.col(j) + j, n - j);
    for (index_t l = 0; l < k; ++l) {
      const T* al = a.col(l);
      const T* bl = b.col(l);
      for (index_t j = lo; j < hi; ++j) {
        const T abj = alpha * b(j, l);
        const T aaj = alpha * a(j, l);
        T* cj = c.col(j);
        for (index_t i = j; i < n; ++i) {
          cj[i] += abj * al[i] + aaj * bl[i];
        }
      }
    }
  });
}

}  // namespace detail

template <class T>
void gemm(Trans ta, Trans tb, Scalar<T> alpha, InView<T> a, InView<T> b,
          Scalar<T> beta, MatrixViewT<T> c) {
  const index_t opa_rows = (ta == Trans::kNo) ? a.rows : a.cols;
  const index_t opa_cols = (ta == Trans::kNo) ? a.cols : a.rows;
  const index_t opb_rows = (tb == Trans::kNo) ? b.rows : b.cols;
  const index_t opb_cols = (tb == Trans::kNo) ? b.cols : b.rows;
  TDG_CHECK(opa_rows == c.rows && opb_cols == c.cols && opa_cols == opb_rows,
            "gemm: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, opa_cols, 1});
  detail::gemm_notrace<T>(ta, tb, alpha, a, b, beta, c);
}

template <class T>
void syr2k_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                 MatrixViewT<T> c) {
  TDG_CHECK(c.rows == c.cols, "syr2k_lower: C must be square");
  TDG_CHECK(a.rows == c.rows && b.rows == c.rows && a.cols == b.cols,
            "syr2k_lower: shape mismatch");
  trace::record({trace::OpKind::kSyr2k, c.rows, c.rows, a.cols, 1});
  detail::syr2k_lower_notrace<T>(alpha, a, b, beta, c);
}

template <class T>
void symm_lower(Scalar<T> alpha, InView<T> a, InView<T> b, Scalar<T> beta,
                MatrixViewT<T> c) {
  TDG_CHECK(a.rows == a.cols, "symm_lower: A must be square");
  TDG_CHECK(a.rows == b.rows && b.rows == c.rows && b.cols == c.cols,
            "symm_lower: shape mismatch");
  trace::record({trace::OpKind::kGemm, c.rows, c.cols, a.cols, 1});

  const index_t n = a.rows;
  const index_t w = c.cols;
  // Output columns are independent; distribute fixed-width column blocks
  // over the pool, each running the one-pass lower-triangle sweep.
  parallel_chunks(w, kJB, [&](index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) scale_by_beta(beta, c.col(j), n);
    // One pass over the stored (lower) columns of A; column l contributes
    // to rows l..n-1 directly and to row l via the mirrored entries.
    for (index_t l = 0; l < n; ++l) {
      const T* al = a.col(l);
      for (index_t j = lo; j < hi; ++j) {
        T* cj = c.col(j);
        const T* bj = b.col(j);
        const T abl = alpha * bj[l];
        cj[l] += abl * al[l];
        T s = 0;
        for (index_t i = l + 1; i < n; ++i) {
          cj[i] += abl * al[i];
          s += al[i] * bj[i];
        }
        cj[l] += alpha * s;
      }
    }
  });
}

#define TDG_INSTANTIATE(T)                                                 \
  template void gemm<T>(Trans, Trans, T, ConstMatrixViewT<T>,                \
                        ConstMatrixViewT<T>, T, MatrixViewT<T>);             \
  template void syr2k_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>,  \
                               T, MatrixViewT<T>);                           \
  template void symm_lower<T>(T, ConstMatrixViewT<T>, ConstMatrixViewT<T>,   \
                              T, MatrixViewT<T>);                            \
  template void detail::gemm_notrace<T>(Trans, Trans, T, ConstMatrixViewT<T>, \
                                        ConstMatrixViewT<T>, T,              \
                                        MatrixViewT<T>);                     \
  template void detail::gemm_variant_notrace<T>(                             \
      std::size_t, Trans, Trans, T, ConstMatrixViewT<T>, ConstMatrixViewT<T>, \
      T, MatrixViewT<T>);                                                    \
  template void detail::syr2k_lower_notrace<T>(                              \
      T, ConstMatrixViewT<T>, ConstMatrixViewT<T>, T, MatrixViewT<T>);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::la
