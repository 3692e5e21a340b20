// Public façade: symmetric tridiagonalization.
//
// Composes the stages exactly the way the paper's evaluation does:
//   * kDirect   — one-stage blocked Householder (cuSOLVER Dsytrd analogue).
//   * kTwoStageClassic — sy2sb (b-blocked SBR) + sequential bulge chasing
//                 (MAGMA Dsy2sb + Dsb2st analogue; MAGMA's sb2st runs on the
//                 CPU, our sequential chase is its stand-in).
//   * kTwoStageDbbr — the paper's method: DBBR (Algorithm 1) + pipelined
//                 parallel bulge chasing on the packed band (Algorithm 2).

#pragma once

#include <vector>

#include "bc/bulge_chase.h"
#include "la/matrix.h"
#include "plan/knobs.h"
#include "sbr/sbr.h"

namespace tdg {

enum class TridiagMethod {
  kDirect,
  kTwoStageClassic,
  kTwoStageDbbr,
};

/// How unset ("auto", value 0) tuning knobs are resolved at driver entry
/// (see src/plan/plan.h). Explicitly-set knobs always win, in every mode.
enum class PlanMode {
  kManual,     // fill with the legacy static defaults (b=32, k=256, ...)
  kHeuristic,  // fill from the analytic planner (device-model seeded)
  kMeasure,    // fill from the empirical search / persistent plan cache
};

struct TridiagOptions {
  TridiagMethod method = TridiagMethod::kTwoStageDbbr;
  /// Resolution policy for knobs left at 0 below.
  PlanMode plan = PlanMode::kHeuristic;
  /// Band width for the two-stage methods (paper operating point: 32 for
  /// DBBR, 64 for MAGMA). 0 = auto.
  index_t b = 0;
  /// DBBR outer block / syr2k inner dimension. 0 = auto, which routes the
  /// default through the planner — the paper's 1024 on large problems.
  index_t k = 0;
  /// Panel width for the direct method. 0 = auto.
  index_t sytrd_nb = 0;
  /// Use the paper's square-block syr2k for trailing updates.
  bool use_square_syr2k = true;
  /// Pipelined bulge chasing (Algorithm 2); false = sequential chase.
  bool parallel_bc = true;
  /// Worker threads for the pipelined chase. 0 = auto.
  int bc_threads = 0;
  /// Cap on in-flight sweeps (the model's S); 0 = auto (kManual: bounded
  /// by the thread count only, the legacy behavior).
  index_t max_parallel_sweeps = 0;
  /// Record reflectors so eigenvectors can be back-transformed.
  bool want_factors = true;
  /// Thread budget for the BLAS-3 engine across both stages (0 = inherit
  /// the ambient ThreadLimit / TDG_THREADS default). Results are bitwise
  /// identical for any value. Never planner-overridden.
  int threads = 0;
  /// Screen the input's lower triangle for NaN/Inf and fail fast with
  /// Error(kInvalidInput) carrying the first bad coordinate. One cheap
  /// O(n^2/2) read pass; set false to skip on pre-validated inputs.
  bool check_finite = true;
  /// Consolidated knob sub-struct carried alongside the tridiagonalization
  /// so one options object configures a full EVD pipeline. The
  /// tridiagonalization itself reads only knobs.lookahead (the stage-1
  /// schedule: 0 = auto, -1 = force depth 0, 1 = look-ahead depth 1 —
  /// bitwise-neutral either way); the solver / back-transform knobs pass
  /// through untouched, folded into the merged knob vector by the eigh*
  /// drivers at plan::resolve_and_validate() (lowest precedence, below
  /// EvdOptions::knobs and the deprecated loose fields).
  plan::Knobs knobs;
};

/// A two-stage reduction A = Q1 Q2 Tri Q2^T Q1^T with the reflectors at
/// scalar T; the tridiagonal Tri is FP64 (the solvers' precision).
template <class T>
struct TwoStageT {
  std::vector<double> d;  // diagonal of Tri
  std::vector<double> e;  // sub-diagonal of Tri
  /// Effective band width used (clamped to n-1).
  index_t b = 0;
  /// Effective DBBR outer block used (resolved + rounded to a multiple of
  /// b); 0 for the direct method.
  index_t k = 0;

  // Factors for back transformation (populated when want_factors):
  sbr::BandFactorT<T> stage1;
  bc::ChaseLogT<T> stage2;

  // Phase wall-clock (seconds), for benches/examples.
  double seconds_stage1 = 0.0;  // SBR/DBBR, or the whole sytrd for kDirect
  double seconds_stage2 = 0.0;  // bulge chasing
};

struct TridiagResult : TwoStageT<double> {
  TridiagMethod method = TridiagMethod::kTwoStageDbbr;
  // stage1 / stage2 are populated by the two-stage methods only.
  Matrix direct_a;                  // direct only: reflectors in lower tri
  std::vector<double> direct_taus;  // direct only
};

/// Throw Error(kInvalidInput) naming `stage` if the lower triangle of `a`
/// contains a NaN or Inf; the error context carries the first bad (row,
/// col). The input-hygiene screen run by the drivers before any factoring
/// touches the data (a non-finite entry would otherwise propagate into
/// silent-garbage eigenvalues or a non-convergence deep in the pipeline).
void check_lower_finite(ConstMatrixView a, const char* stage);

/// Reduce symmetric `a` (lower triangle read) to tridiagonal form.
TridiagResult tridiagonalize(ConstMatrixView a, const TridiagOptions& opts);

/// Back-transformation options (stage-2 chunked Q2 + stage-1 blocked Q1).
struct ApplyQOptions {
  /// Resolution policy for knobs left at 0 below.
  PlanMode plan = PlanMode::kHeuristic;
  /// Consolidated knob sub-struct: knobs.bt_kw is the stage-1 blocked group
  /// width, knobs.q2_group the stage-2 reflector-chunk size (0 = auto).
  /// Knobs::smlsiz is ignored by apply_q. The deprecated loose aliases
  /// (bt_kw / q2_group) were removed after their one-release window.
  plan::Knobs knobs;
  /// Thread budget for the back-transformation kernels (0 = inherit).
  int threads = 0;
};

/// Per-stage wall times of one apply_q call (profiling). For the direct
/// method everything lands in seconds_q1 (there is no stage-2 factor).
struct ApplyQBreakdown {
  double seconds_q2 = 0.0;  // stage-2 (bulge-chase reflectors) application
  double seconds_q1 = 0.0;  // stage-1 (band-reduction) application
};

/// The paper's two-stage reduction (kTwoStageDbbr) at scalar T — double for
/// the FP64 drivers, float for the mixed-precision engine: dbbr ->
/// extract_band -> packed bulge chase (pipelined when opts.parallel_bc) ->
/// extract_tridiag. `work` holds the symmetric input and is overwritten;
/// `opts` must be resolved (no auto knobs).
template <class T>
void reduce_two_stage(MatrixViewT<T> work, const TridiagOptions& opts,
                      TwoStageT<T>& out);

/// Its back transformation c <- Q1 Q2 c: the blocked stage-2 application
/// (knobs.q2_group), then the blocked stage-1 application (knobs.bt_kw).
/// `opts` must be resolved; `breakdown` (optional) receives the stage times.
template <class T>
void back_transform_two_stage(const TwoStageT<T>& f, MatrixViewT<T> c,
                              const ApplyQOptions& opts,
                              ApplyQBreakdown* breakdown = nullptr);

/// Apply the accumulated orthogonal factor: c <- Q c where A = Q T Q^T.
/// Requires the result to have been computed with want_factors = true.
/// `bt_kw`: group width for the stage-1 blocked back transformation.
void apply_q(const TridiagResult& r, MatrixView c, index_t bt_kw = 256);

/// Same, with the full option set; `breakdown` (optional) receives the
/// per-stage wall times.
void apply_q(const TridiagResult& r, MatrixView c, const ApplyQOptions& opts,
             ApplyQBreakdown* breakdown = nullptr);

}  // namespace tdg
