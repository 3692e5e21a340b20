// Shared internals of the band-reduction implementations: the ZY helpers
// (defined in dbbr.cc for double and float) and the pieces both task-graph
// builders use to lay out a trailing update as tile nodes.
#pragma once

#include <limits>
#include <vector>

#include "common/task_graph.h"
#include "la/blas.h"
#include "lapack/lapack.h"
#include "sbr/sbr.h"

namespace tdg::sbr::detail {

/// ZY-representation update matrix from the product P = A_cur * V:
///   W = P T - (1/2) V T^T (V^T P T),
/// so that Q^T A_cur Q = A_cur - V W^T - W V^T for Q = I - V T V^T.
template <class T = double>
MatrixT<T> zy_w_from_av(InView<T> p, InView<T> v, InView<T> t);

/// Zero the sub-R part of a just-factorised panel: columns [j0, j0+w) of
/// `a`, rows strictly below the R triangle (row > j0 + b + c for local
/// column c). Those positions held Householder vectors during the panel QR.
template <class T>
void zero_below_r(MatrixViewT<T> a, index_t j0, index_t b, index_t w);

/// Square tile size of an nt x nt trailing update: the Fig.-7 tile when
/// opts.use_square_syr2k, else one tile covering the whole update — whose
/// diagonal-tile kernel and recorded kSyr2k(nt, nt, k) op are exactly the
/// reference column-sweep la::syr2k_lower's.
inline index_t trailing_tile_size(const BandReductionOptions& opts,
                                  index_t nt) {
  return opts.use_square_syr2k
             ? la::syr2k_square_block_size(nt, opts.syr2k_block)
             : nt;
}

/// Tile node ids of one trailing update, grouped by tile-column bj.
using TileColumns = std::vector<std::vector<graph::TaskGraph::NodeId>>;

/// The node ids of the first `ncols` tile-columns (all of them by default,
/// or when ncols reaches the grid width), flattened into one dependency
/// list.
inline std::vector<graph::TaskGraph::NodeId> column_deps(
    const TileColumns& cols,
    index_t ncols = std::numeric_limits<index_t>::max()) {
  std::vector<graph::TaskGraph::NodeId> deps;
  for (index_t c = 0; c < ncols && c < static_cast<index_t>(cols.size());
       ++c) {
    deps.insert(deps.end(), cols[c].begin(), cols[c].end());
  }
  return deps;
}

/// Add the lower nblk x nblk tile grid of one trailing update, every tile
/// after `dep` (the node that produced its operands and recorded its ops
/// with la::detail::record_syr2k_square). `tile(bi, bj)` runs one untraced
/// tile. Tile-column 0 is added first, so the FIFO ready queue front-runs
/// the columns a look-ahead QR waits on. A one-tile grid is a kDriver node,
/// so its kernel fans out over the pool as a whole-update call does; the
/// tiles of a wider grid are mutually independent kPooled leaves.
template <class Tile>
TileColumns add_tile_nodes(graph::TaskGraph& g, const char* name,
                           index_t nblk, graph::TaskGraph::NodeId dep,
                           const Tile& tile) {
  const graph::NodeClass cls =
      nblk == 1 ? graph::NodeClass::kDriver : graph::NodeClass::kPooled;
  TileColumns cols(static_cast<size_t>(nblk));
  for (index_t bj = 0; bj < nblk; ++bj) {
    for (index_t bi = bj; bi < nblk; ++bi) {
      cols[static_cast<size_t>(bj)].push_back(
          g.add(name, cls, [tile, bi, bj] { tile(bi, bj); }, {dep}));
    }
  }
  return cols;
}

}  // namespace tdg::sbr::detail
