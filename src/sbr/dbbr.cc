// Double-blocking band reduction — the paper's Algorithm 1.
//
// Inner block size b (the target bandwidth) governs the panel QRs; outer
// block size k (opts.k, a multiple of b) governs how many reflector panels
// are accumulated in the ZY representation (Y, Z) before the trailing matrix
// is touched. Between trailing updates, each upcoming panel is refreshed
// just-in-time with the accumulated (Y, Z) — that is the paper's line 8-12,
// two skinny GEMMs per panel. The single trailing syr2k per outer block then
// has inner dimension k >> b, the shape that saturates an H100 (Table 1),
// while the bandwidth handed to bulge chasing stays small (e.g. b = 32).
//
// Internal state convention per outer block: processed panel columns hold
// their final band values (diag block via the JIT update, R via the panel
// QR, zeros below); everything at column >= the next panel is *stale* (the
// values from the start of the outer block). A panel's A_cur * V product is
// therefore computed from the stale trailing matrix plus the accumulated
// correction: A_cur = A_stale - Y Z^T - Z Y^T.
//
// The outer loop runs as a task graph (common/task_graph.h). Per outer
// step s the nodes are
//   QR_s   (pooled, look-ahead only) the *first* panel QR of the block,
//          depending only on the tile-columns of T_s-1 it actually reads —
//          this is the look-ahead: it overlaps the bulk of step s-1's tiles,
//   PC_s   (driver) the full panel chain of the block; it also records the
//          trailing update's tile ops, so an op trace keeps the canonical
//          order,
//   T_s    one node per square tile of the trailing syr2k — mutually
//          independent, so the per-anti-diagonal barriers of
//          syr2k_lower_square disappear. Without opts.use_square_syr2k one
//          tile covers the whole update (the column-sweep syr2k); a
//          one-tile grid is a driver node, keeping the kernel's pool
//          fan-out,
//   FIX    (driver) the final partial-panel fixup, after the last tiles.
// opts.lookahead is the one schedule switch: depth 0 is the same graph
// without the QR_s nodes (PC_s then does every panel QR itself), which
// joins each step's tiles before the next panel chain — the classic
// barrier schedule. Every node writes what the other schedules write from
// the same inputs, so results are bitwise identical for any depth and
// thread count.

#include <algorithm>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "sbr/internal.h"
#include "sbr/sbr.h"

namespace tdg::sbr {

namespace detail {

template <class T>
MatrixT<T> zy_w_from_av(InView<T> p, InView<T> v, InView<T> t) {
  const index_t m = p.rows;
  const index_t w = p.cols;
  MatrixT<T> x(m, w);
  la::gemm<T>(Trans::kNo, Trans::kNo, 1, p, t, 0, x.view());  // X = P T
  MatrixT<T> mm(w, w);
  la::gemm<T>(Trans::kTrans, Trans::kNo, 1, v, x.view(), 0, mm.view());
  MatrixT<T> s(w, w);
  la::gemm<T>(Trans::kTrans, Trans::kNo, 1, t, mm.view(), 0, s.view());
  la::gemm<T>(Trans::kNo, Trans::kNo, -0.5, v, s.view(), 1, x.view());
  return x;
}

template <class T>
void zero_below_r(MatrixViewT<T> a, index_t j0, index_t b, index_t w) {
  const index_t n = a.rows;
  for (index_t c = 0; c < w; ++c) {
    for (index_t r = j0 + b + c + 1; r < n; ++r) a(r, j0 + c) = 0;
  }
}

}  // namespace detail

namespace {

/// One width-w panel at column j of the current outer block: JIT refresh
/// with the block's accumulated (Y, Z), panel QR (skipped when `pre` hands
/// in a prefactored WY — the look-ahead QR node, which also already zeroed
/// below R), A_cur V via symm + corrections, W, accumulation into
/// (y, z), and the panel record. Returns the new accumulated column count.
/// The QR_s node runs exactly the QR half of this function, so the
/// look-ahead depth cannot change the arithmetic.
/// With keep_all == false only the newest panel is retained (the partial
/// -panel fixups read f.panels.back() only), so a values-only reduction
/// holds one O(n*b) panel at a time instead of the O(n^2/2) full set.
template <class T>
index_t panel_step(MatrixViewT<T> a, index_t b, index_t j, index_t cols,
                   MatrixT<T>& y, MatrixT<T>& z, BandFactorT<T>& f,
                   lapack::WyFactorT<T>* pre, bool keep_all) {
  const index_t n = a.rows;
  const index_t m = n - j - b;       // rows of the below-band panel
  const index_t w = std::min(b, m);  // panel width

  obs::Span panel_span("dbbr.panel");
  panel_span.attr("j", j);
  panel_span.attr("width", w);

  if (cols > 0) {
    // JIT refresh of this panel's column block (rows j..n-1): apply all
    // updates accumulated in this outer block. Paper Algorithm 1, l.8-12.
    MatrixViewT<T> blk = a.block(j, j, n - j, w);
    la::gemm<T>(Trans::kNo, Trans::kTrans, -1, y.block(j, 0, n - j, cols),
                z.block(j, 0, w, cols), 1, blk);
    la::gemm<T>(Trans::kNo, Trans::kTrans, -1, z.block(j, 0, n - j, cols),
                y.block(j, 0, w, cols), 1, blk);
  }

  lapack::WyFactorT<T> wy;
  if (pre != nullptr) {
    wy = std::move(*pre);  // QR + zero_below_r already ran in the QR node
  } else {
    wy = lapack::panel_qr(a.block(j + b, j, m, w));
    detail::zero_below_r(a, j, b, w);
  }

  // P = A_cur V = A_stale V - Y (Z^T V) - Z (Y^T V)  (rows j+b..n-1).
  MatrixT<T> p(m, w);
  la::symm_lower<T>(1, a.block(j + b, j + b, m, m), wy.v.view(), 0, p.view());
  if (cols > 0) {
    MatrixT<T> zv(cols, w);
    la::gemm<T>(Trans::kTrans, Trans::kNo, 1, z.block(j + b, 0, m, cols),
                wy.v.view(), 0, zv.view());
    la::gemm<T>(Trans::kNo, Trans::kNo, -1, y.block(j + b, 0, m, cols),
                zv.view(), 1, p.view());
    MatrixT<T> yv(cols, w);
    la::gemm<T>(Trans::kTrans, Trans::kNo, 1, y.block(j + b, 0, m, cols),
                wy.v.view(), 0, yv.view());
    la::gemm<T>(Trans::kNo, Trans::kNo, -1, z.block(j + b, 0, m, cols),
                yv.view(), 1, p.view());
  }
  MatrixT<T> wmat =
      detail::zy_w_from_av<T>(p.view(), wy.v.view(), wy.t.view());

  copy(wy.v.view(), y.block(j + b, cols, m, w));
  copy(wmat.view(), z.block(j + b, cols, m, w));

  if (!keep_all) f.panels.clear();
  f.panels.push_back({j + b, std::move(wy.v), std::move(wy.t)});
  return cols + w;
}

/// Static geometry of one outer step, precomputed by replaying the loop
/// bounds arithmetically so the graph can be built before any numbers move.
struct StepGeom {
  index_t i = 0;       // first panel column of the block
  index_t cols = 0;    // accumulated reflector columns
  index_t t0 = 0;      // trailing start (last j + w)
  index_t last_w = 0;  // width of the block's last panel
  index_t blk = 0;     // square tile size of the trailing syr2k
  index_t nblk = 0;    // tile grid dimension
};

std::vector<StepGeom> dbbr_geometry(index_t n,
                                    const BandReductionOptions& opts) {
  const index_t b = opts.b;
  std::vector<StepGeom> steps;
  for (index_t i = 0; n - i - b >= 1; i += opts.k) {
    StepGeom s;
    s.i = i;
    for (index_t j = i; j < i + opts.k && n - j - b >= 1; j += b) {
      const index_t w = std::min(b, n - j - b);
      s.cols += w;
      s.t0 = j + w;
      s.last_w = w;
    }
    const index_t nt = n - s.t0;  // always >= 1: w <= b and n - j - b >= 1
    s.blk = detail::trailing_tile_size(opts, nt);
    s.nblk = (nt + s.blk - 1) / s.blk;
    steps.push_back(s);
  }
  return steps;
}

}  // namespace

template <class T>
BandFactorT<T> dbbr(MatrixViewT<T> a, const BandReductionOptions& opts) {
  const index_t n = a.rows;
  const index_t b = opts.b;
  const index_t k = opts.k;
  TDG_CHECK(a.rows == a.cols, "dbbr: matrix must be square");
  TDG_CHECK(b >= 1 && b < std::max<index_t>(n, 2), "dbbr: need 1 <= b < n");
  TDG_CHECK(k >= b && k % b == 0, "dbbr: k must be a positive multiple of b");
  // Drive the parallel BLAS-3 engine at the requested width for the whole
  // reduction (JIT panel GEMMs, symm, and the fat trailing syr2k).
  ThreadLimit thread_scope(opts.threads);

  obs::Span dbbr_span("dbbr");
  dbbr_span.attr("n", n);
  dbbr_span.attr("b", b);
  dbbr_span.attr("k", k);

  BandFactorT<T> f;
  f.n = n;
  f.b = b;

  MatrixT<T> y(n, k);  // accumulated V panels (global row indexing)
  MatrixT<T> z(n, k);  // accumulated W panels

  // The reduction's task graph; see the file header for the node layout.
  const std::vector<StepGeom> steps = dbbr_geometry(n, opts);
  const index_t ns = static_cast<index_t>(steps.size());
  if (ns == 0) return f;

  using graph::NodeClass;
  using graph::TaskGraph;
  TaskGraph g;

  // Look-ahead QR results, one slot per step, written by QR_s and consumed
  // by PC_s (ordered by the qr -> pc edge). Preallocated so no container
  // mutates while pool workers hold references.
  std::vector<lapack::WyFactorT<T>> pre(ns);
  std::vector<char> pre_ok(ns, 0);

  detail::TileColumns prev_cols;  // tile ids of the previous step

  for (index_t s = 0; s < ns; ++s) {
    const StepGeom& st = steps[s];

    // QR_s (s >= 1): prefactor the block's first panel as soon as the tile
    // columns it reads — trailing columns [i, i+w) of step s-1, whose
    // trailing region starts at steps[s-1].t0 — have landed. For full
    // previous blocks t0_{s-1} == i, so this is the first ceil(w/blk)
    // columns of the previous tile grid.
    TaskGraph::NodeId qr = -1;
    if (s > 0 && opts.lookahead >= 1) {
      const index_t w0 = std::min(b, n - st.i - b);
      const index_t span_cols = st.i + w0 - steps[s - 1].t0;
      const index_t prev_blk = steps[s - 1].blk;
      qr = g.add(
          "dbbr.lookahead_qr", NodeClass::kPooled,
          [&a, &steps, &pre, &pre_ok, s, n, b] {
            const index_t j = steps[s].i;
            const index_t m = n - j - b;
            const index_t w = std::min(b, m);
            pre[s] = lapack::panel_qr(a.block(j + b, j, m, w));
            detail::zero_below_r(a, j, b, w);
            pre_ok[s] = 1;
          },
          detail::column_deps(prev_cols,
                              (span_cols + prev_blk - 1) / prev_blk));
    }

    // PC_s: the whole panel chain of the block. Reads the full trailing
    // matrix of step s-1 (the first symm spans it), so it depends on every
    // previous tile — plus QR_s, whose result it consumes.
    std::vector<TaskGraph::NodeId> pc_deps = detail::column_deps(prev_cols);
    if (qr >= 0) pc_deps.push_back(qr);
    const bool keep_all = opts.want_factors;
    const TaskGraph::NodeId pc = g.add(
        "dbbr.panel_chain", NodeClass::kDriver,
        [&a, &steps, &pre, &pre_ok, &y, &z, &f, s, n, b, k, keep_all] {
          // Driver nodes run on the run() caller thread, which still holds
          // the request's cancel::Scope — one poll per outer block.
          cancel::poll("dbbr_block");
          const StepGeom& cur = steps[s];
          y.set_zero();
          z.set_zero();
          index_t cols = 0;
          for (index_t j = cur.i; j < cur.i + k && n - j - b >= 1; j += b) {
            lapack::WyFactorT<T>* p =
                (j == cur.i && pre_ok[s]) ? &pre[s] : nullptr;
            cols = panel_step(a, b, j, cols, y, z, f, p, keep_all);
          }
          // The tiles run untraced; their ops are recorded here, after
          // the panels that produce their operands.
          la::detail::record_syr2k_square(n - cur.t0, cur.cols, cur.blk);
        },
        pc_deps);

    // T_s: the trailing syr2k as independent square tiles (disjoint C
    // regions — syr2k_lower_square's anti-diagonal joins carry no ordering
    // information and are simply dropped).
    prev_cols = detail::add_tile_nodes(
        g, "dbbr.syr2k_tile", st.nblk, pc,
        [&a, &steps, &y, &z, s, n](index_t bi, index_t bj) {
          const StepGeom& cur = steps[s];
          const index_t nt = n - cur.t0;
          la::detail::syr2k_square_tile<T>(
              -1, y.block(cur.t0, 0, nt, cur.cols),
              z.block(cur.t0, 0, nt, cur.cols), 1,
              a.block(cur.t0, cur.t0, nt, nt), cur.blk, bi, bj);
        });
  }

  // FIX: the final block ended on a partial panel (w < b) — its remaining
  // in-band columns still take Q^T from the left. The touched region
  // overlaps the last trailing update, so order after every last-step tile.
  if (steps[ns - 1].last_w < b) {
    g.add(
        "dbbr.fixup", NodeClass::kDriver,
        [&a, &f, b] {
          const PanelT<T>& last = f.panels.back();
          const index_t lw = last.v.cols();
          const index_t lj = last.row0 - b;
          lapack::apply_block_reflector_left<T>(
              last.v.view(), last.t.view(), Trans::kTrans,
              a.block(last.row0, lj + lw, last.v.rows(), b - lw));
        },
        detail::column_deps(prev_cols));
  }

  const TaskGraph::Stats stats = g.run();
  dbbr_span.attr("tg_overlap_pct",
                 static_cast<long long>(100.0 * stats.overlap_fraction()));
  if (!opts.want_factors) f.panels.clear();
  return f;
}

#define TDG_INSTANTIATE(T)                                                   \
  template MatrixT<T> detail::zy_w_from_av<T>(                                \
      ConstMatrixViewT<T>, ConstMatrixViewT<T>, ConstMatrixViewT<T>);         \
  template void detail::zero_below_r<T>(MatrixViewT<T>, index_t, index_t,     \
                                        index_t);                             \
  template BandFactorT<T> dbbr<T>(MatrixViewT<T>, const BandReductionOptions&);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

}  // namespace tdg::sbr
