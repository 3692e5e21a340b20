// Symmetric band matrix storage.
//
// Two layouts matter to the paper:
//
//  * Entries of the band embedded in a dense n x n column-major matrix are
//    strided by the full leading dimension — this is the layout the "naive"
//    GPU bulge-chasing kernel reads, with poor L2 locality.
//  * The packed layout below (Figure 10 of the paper) stores each column's
//    band segment contiguously (LAPACK "lower symmetric band" storage):
//    entry (i, j), 0 <= i - j <= kd, lives at data[(i - j) + j * (kd + 1)].
//    The whole band occupies (kd+1) * n scalars — small enough to live in an
//    H100's 50 MB L2 for paper-scale matrices, and cache-friendly on a CPU.
//    The container is templated on the scalar (double and float); the
//    off-band diagnostics are FP64.
//
// Bulge chasing temporarily creates fill-in up to 2b below the diagonal, so
// the container's storage bandwidth `kd` can exceed the logical bandwidth.
#pragma once

#include <vector>

#include "la/matrix.h"

namespace tdg {

template <class T>
class SymBandMatrixT {
 public:
  SymBandMatrixT() = default;

  /// n x n symmetric band matrix with storage bandwidth kd (entries with
  /// i - j in [0, kd] are representable), zero-initialised.
  SymBandMatrixT(index_t n, index_t kd);

  index_t n() const { return n_; }
  index_t kd() const { return kd_; }

  /// Entry (i, j) with i >= j and i - j <= kd.
  T& at(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i - j) +
                 static_cast<std::size_t>(j) * (kd_ + 1)];
  }
  T at(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i - j) +
                 static_cast<std::size_t>(j) * (kd_ + 1)];
  }

  /// Entry in either triangle; zero outside the stored band.
  T sym_at(index_t i, index_t j) const;

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Dense n x n symmetric matrix with the band contents.
  MatrixT<T> to_dense() const;

 private:
  index_t n_ = 0;
  index_t kd_ = 0;
  std::vector<T> data_;
};
using SymBandMatrix = SymBandMatrixT<double>;

/// Extract the lower band (bandwidth b) of dense symmetric `a` (lower
/// triangle is the source of truth) into packed storage with storage
/// bandwidth kd >= b (extra room for bulge fill-in).
template <class T = double>
SymBandMatrixT<T> extract_band(InView<T> a, index_t b, index_t kd);

/// Largest |entry| of the lower triangle of `a` strictly outside bandwidth b
/// (i - j > b). Zero means `a` is a band matrix of bandwidth b.
double off_band_max(ConstMatrixView a, index_t b);

/// Largest |entry| of packed band `a` strictly outside logical bandwidth b.
double off_band_max(const SymBandMatrix& a, index_t b);

}  // namespace tdg
