// Stage 1 of two-stage tridiagonalization: reduction of a dense symmetric
// matrix to band form (bandwidth b).
//
// Two algorithms:
//
//  * sy2sb   — classic single-blocking successive band reduction (SBR), the
//              MAGMA `dsy2sb` analogue: panel QR with block size b, then a
//              full trailing-matrix update per panel. The syr2k inner
//              dimension equals b, which is exactly what starves modern GPUs
//              (Table 1 of the paper).
//  * dbbr    — the paper's double-blocking band reduction (Algorithm 1).
//              Panels of width b are factorised and their (Y, Z) = (V, W)
//              ZY-representation columns accumulated; only the *next* panel
//              is updated just-in-time. Once k columns are accumulated, one
//              fat trailing syr2k (inner dimension k >> b) is applied. Same
//              arithmetic, GPU-saturating shapes, and b can shrink to 32 to
//              cheapen the subsequent bulge chasing.
//
// Both return the reflector panels needed for the stage-1 back
// transformation (src/backtransform). dbbr is templated on the scalar T
// (double and float, la/matrix.h); sy2sb is FP64.
#pragma once

#include <vector>

#include "la/matrix.h"

namespace tdg::sbr {

/// One compact-WY panel of the band reduction: Q_p = I - V T V^T acting on
/// global rows [row0, row0 + v.rows).
template <class T>
struct PanelT {
  index_t row0 = 0;
  MatrixT<T> v;  // m x w explicit unit-lower-trapezoidal reflectors
  MatrixT<T> t;  // w x w upper-triangular block factor
};
using Panel = PanelT<double>;

/// Reflector set of a completed band reduction: A = Q1 * B * Q1^T with
/// Q1 = Q_panel0 * Q_panel1 * ... (in factorisation order).
template <class T>
struct BandFactorT {
  index_t n = 0;
  index_t b = 0;
  std::vector<PanelT<T>> panels;
};
using BandFactor = BandFactorT<double>;

struct BandReductionOptions {
  index_t b = 32;  // target bandwidth
  /// DBBR outer block (syr2k inner dimension); must be a multiple of b.
  index_t k = 256;
  /// Use the paper's square-block syr2k schedule for trailing updates
  /// (Section 5.1) instead of the reference column-sweep syr2k. When false
  /// each trailing update is one tile covering the whole trailing matrix —
  /// exactly the column-sweep la::syr2k_lower kernel and traced op — in the
  /// same task graph.
  bool use_square_syr2k = true;
  /// Square-block size for the custom syr2k (0 = default).
  index_t syr2k_block = 0;
  /// Thread budget for the BLAS-3 engine driving the panel and trailing
  /// updates (0 = inherit the ambient ThreadLimit / TDG_THREADS default).
  /// Any thread count produces bitwise-identical results.
  int threads = 0;
  /// Look-ahead depth of the reduction's one schedule, a task graph
  /// (common/task_graph.h) whose trailing syr2k tiles execute barrier-free.
  /// Depth 0 is that graph without look-ahead: each step's panel chain
  /// waits for every tile of the previous step. At depth 1 the next step's
  /// first panel QR is its own node and overlaps the tiles it does not
  /// read — only the column slice it touches orders it. Only depth 1
  /// carries extra bitwise-preserving work to front-run (the in-block panel
  /// chain is serial through the accumulated (Y, Z)), so deeper values
  /// behave as 1. Results are bitwise identical for any depth and thread
  /// count, and an op-traced run (trace::Scope) runs this same schedule.
  index_t lookahead = 0;
  /// Retain the reflector panels for the stage-1 back transformation. When
  /// false (a values-only request) the reduction keeps at most one panel
  /// live at a time — O(n*b) transient instead of the O(n^2/2) full set —
  /// and returns an empty BandFactor::panels. The arithmetic (and the band
  /// matrix left in `a`) is bit-for-bit unchanged.
  bool want_factors = true;
};

/// Classic SBR. On return the lower triangle of `a` holds the band matrix
/// (entries beyond the band are zeroed). Returns the panel reflectors.
BandFactor sy2sb(MatrixView a, index_t b,
                 const BandReductionOptions& opts = {});

/// Double-blocking band reduction (paper Algorithm 1). Same contract as
/// sy2sb; `opts.k` controls the outer block size.
template <class T>
BandFactorT<T> dbbr(MatrixViewT<T> a, const BandReductionOptions& opts);

}  // namespace tdg::sbr
