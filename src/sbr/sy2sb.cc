// Classic single-blocking successive band reduction (MAGMA dsy2sb analogue).
//
// Per panel of width b: QR-factorise the below-band block, then apply the
// two-sided block update to the whole trailing matrix through the ZY
// representation (Equation 1 of the paper):
//   Z = A V T - (1/2) V T^T (V^T A V T),   A2 <- A2 - V Z^T - Z V^T.
// The trailing update is a syr2k whose inner dimension equals b — the shape
// bottleneck the paper's DBBR removes.
//
// The panel loop runs as a task graph (common/task_graph.h), the same
// schedule shape as dbbr's: per panel p a driver node computes the panel
// transform (QR, symm, W, fixup) and records the trailing update's tile
// ops, and one node per square tile runs the trailing syr2k barrier-free
// (one tile covering the update without opts.use_square_syr2k). At
// look-ahead depth >= 1 panel p+1's QR is its own pooled node and overlaps
// the tiles it does not read; depth 0 is the same graph without it. The
// arithmetic does not depend on the depth or the thread count, so results
// are bitwise identical.

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

namespace {

/// Static geometry of one sy2sb panel step.
struct StepGeom {
  index_t j = 0;     // panel column
  index_t m = 0;     // trailing dimension (= below-band panel rows)
  index_t w = 0;     // panel width
  index_t blk = 0;   // square tile size of the trailing syr2k
  index_t nblk = 0;  // tile grid dimension
};

std::vector<StepGeom> sy2sb_geometry(index_t n, index_t b,
                                     const BandReductionOptions& opts) {
  std::vector<StepGeom> steps;
  for (index_t j = 0; n - j - b >= 1; j += b) {
    StepGeom s;
    s.j = j;
    s.m = n - j - b;
    s.w = std::min(b, s.m);
    s.blk = detail::trailing_tile_size(opts, s.m);
    s.nblk = (s.m + s.blk - 1) / s.blk;
    steps.push_back(s);
  }
  return steps;
}

}  // namespace

BandFactor sy2sb(MatrixView a, index_t b, const BandReductionOptions& opts) {
  const index_t n = a.rows;
  TDG_CHECK(a.rows == a.cols, "sy2sb: matrix must be square");
  TDG_CHECK(b >= 1 && b < std::max<index_t>(n, 2), "sy2sb: need 1 <= b < n");
  // Drive the parallel BLAS-3 engine at the requested width for the whole
  // reduction (panel symm and the per-panel trailing syr2k).
  ThreadLimit thread_scope(opts.threads);

  obs::Span sy2sb_span("sy2sb");
  sy2sb_span.attr("n", n);
  sy2sb_span.attr("b", b);

  BandFactor f;
  f.n = n;
  f.b = b;

  // The reduction's task graph: per panel p a pooled QR node (look-ahead
  // only, overlapping the previous panel's tiles it does not read), a
  // driver panel-transform node, and the trailing-syr2k tiles.
  const std::vector<StepGeom> steps = sy2sb_geometry(n, b, opts);
  const index_t np = static_cast<index_t>(steps.size());
  if (np == 0) return f;

  using graph::NodeClass;
  using graph::TaskGraph;
  TaskGraph g;

  // Per-panel state, preallocated so no container mutates while pool
  // workers hold references. The WY factors move into f.panels only after
  // the graph has drained (tiles read wys[p].v while later panels run);
  // PT_p+1, which follows every tile of panel p, frees zs[p] — and wys[p]
  // for a values-only reduction, which so holds one panel at a time.
  const bool keep_all = opts.want_factors;
  std::vector<lapack::WyFactor> wys(np);
  std::vector<Matrix> zs(np);
  std::vector<char> pre_ok(np, 0);

  detail::TileColumns prev_cols;

  for (index_t p = 0; p < np; ++p) {
    const StepGeom& st = steps[p];

    // QR_p (p >= 1): panel p reads columns [j, j+w) — offset 0 in the
    // previous trailing region (which starts at column j exactly), so the
    // first ceil(w/blk) tile-columns of the previous grid cover it.
    TaskGraph::NodeId qr = -1;
    if (p > 0 && opts.lookahead >= 1) {
      const index_t prev_blk = steps[p - 1].blk;
      qr = g.add(
          "sy2sb.lookahead_qr", NodeClass::kPooled,
          [&a, &steps, &wys, &pre_ok, p, b] {
            const StepGeom& cur = steps[p];
            wys[p] = lapack::panel_qr(
                a.block(cur.j + b, cur.j, cur.m, cur.w));
            detail::zero_below_r(a, cur.j, b, cur.w);
            pre_ok[p] = 1;
          },
          detail::column_deps(prev_cols, (st.w + prev_blk - 1) / prev_blk));
    }

    // PT_p: the panel transform. The symm reads the whole previous trailing
    // matrix, so it depends on every previous tile — plus QR_p. The partial
    // -panel fixup runs here, before this panel's tiles: its region is
    // disjoint from them and final after the previous tiles, so the order
    // is bitwise-neutral.
    std::vector<TaskGraph::NodeId> pt_deps = detail::column_deps(prev_cols);
    if (qr >= 0) pt_deps.push_back(qr);
    const TaskGraph::NodeId pt = g.add(
        "sy2sb.panel", NodeClass::kDriver,
        [&a, &steps, &wys, &zs, &pre_ok, p, b, keep_all] {
          // Driver node — runs on the run() caller, which holds the
          // request's cancel::Scope. One poll per panel.
          cancel::poll("sy2sb_block");
          if (p > 0) {
            zs[p - 1] = Matrix();
            if (!keep_all) wys[p - 1] = lapack::WyFactor();
          }
          const StepGeom& cur = steps[p];
          obs::Span panel_span("sy2sb.panel");
          panel_span.attr("j", cur.j);
          panel_span.attr("width", cur.w);
          if (!pre_ok[p]) {
            wys[p] = lapack::panel_qr(
                a.block(cur.j + b, cur.j, cur.m, cur.w));
            detail::zero_below_r(a, cur.j, b, cur.w);
          }
          MatrixView atail = a.block(cur.j + b, cur.j + b, cur.m, cur.m);
          Matrix pmat(cur.m, cur.w);
          la::symm_lower(1.0, atail, wys[p].v.view(), 0.0, pmat.view());
          zs[p] = detail::zy_w_from_av(pmat.view(), wys[p].v.view(),
                                       wys[p].t.view());
          // The tiles run untraced; their ops are recorded here, after the
          // W they read and before the fixup, the canonical trace order.
          la::detail::record_syr2k_square(cur.m, cur.w, cur.blk);
          if (cur.w < b) {
            lapack::apply_block_reflector_left(
                wys[p].v.view(), wys[p].t.view(), Trans::kTrans,
                a.block(cur.j + b, cur.j + cur.w, cur.m, b - cur.w));
          }
        },
        pt_deps);

    // T_p: the trailing syr2k as independent square tiles.
    prev_cols = detail::add_tile_nodes(
        g, "sy2sb.syr2k_tile", st.nblk, pt,
        [&a, &steps, &wys, &zs, p, b](index_t bi, index_t bj) {
          const StepGeom& cur = steps[p];
          la::detail::syr2k_square_tile(
              -1.0, wys[p].v.view(), zs[p].view(), 1.0,
              a.block(cur.j + b, cur.j + b, cur.m, cur.m), cur.blk, bi, bj);
        });
  }

  const TaskGraph::Stats stats = g.run();
  sy2sb_span.attr("tg_overlap_pct",
                  static_cast<long long>(100.0 * stats.overlap_fraction()));

  if (!keep_all) return f;  // values-only: panels are never consumed
  for (index_t p = 0; p < np; ++p) {
    f.panels.push_back(
        {steps[p].j + b, std::move(wys[p].v), std::move(wys[p].t)});
  }
  return f;
}

}  // namespace tdg::sbr
