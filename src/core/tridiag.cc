#include "core/tridiag.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "backtransform/apply_q2_blocked.h"
#include "backtransform/backtransform.h"
#include "bc/bulge_chase_parallel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "lapack/lapack.h"
#include "obs/obs.h"
#include "plan/plan.h"

namespace tdg {

namespace {

TridiagResult tridiag_direct(ConstMatrixView a, const TridiagOptions& opts) {
  TridiagResult r;
  r.method = TridiagMethod::kDirect;
  r.b = 1;

  Matrix work(a.rows, a.cols);
  copy(a, work.view());

  WallTimer t;
  lapack::sytrd(work.view(), r.d, r.e, r.direct_taus, opts.sytrd_nb);
  r.seconds_stage1 = t.seconds();
  if (opts.want_factors) {
    r.direct_a = std::move(work);
  }
  return r;
}

/// Stage-1 options of both two-stage methods for an n x n problem.
sbr::BandReductionOptions band_options(const TridiagOptions& opts,
                                       index_t n) {
  sbr::BandReductionOptions bo;
  bo.b = std::max<index_t>(1, std::min(opts.b, n - 1));
  bo.k = std::max(bo.b, (opts.k / bo.b) * bo.b);
  bo.use_square_syr2k = opts.use_square_syr2k;
  bo.threads = opts.threads;
  bo.lookahead = std::max<index_t>(0, opts.knobs.lookahead);
  bo.want_factors = opts.want_factors;
  return bo;
}

/// Stage 2 of both two-stage methods: the packed (Fig.-10) band of
/// `banded`, the bulge chase — pipelined (Algorithm 2) when `pipelined` —
/// and the tridiagonal.
template <class T>
void chase_to_tridiag(ConstMatrixViewT<T> banded, const TridiagOptions& opts,
                      bool pipelined, TwoStageT<T>& out) {
  const index_t b = out.b;
  const index_t kd = std::min<index_t>(2 * b, banded.rows - 1);
  SymBandMatrixT<T> band = extract_band<T>(banded, b, kd);
  bc::ChaseLogT<T>* log = opts.want_factors ? &out.stage2 : nullptr;

  WallTimer t;
  if (pipelined) {
    bc::ParallelChaseOptions po;
    po.threads = opts.bc_threads;
    po.max_parallel_sweeps = opts.max_parallel_sweeps;
    bc::chase_packed_parallel(band, b, po, log);
  } else {
    bc::chase_packed(band, b, log);
  }
  out.seconds_stage2 = t.seconds();

  bc::extract_tridiag(band, out.d, out.e);
}

TridiagResult tridiag_two_stage(ConstMatrixView a,
                                const TridiagOptions& opts) {
  TridiagResult r;
  r.method = opts.method;
  Matrix work(a.rows, a.cols);
  copy(a, work.view());
  if (opts.method == TridiagMethod::kTwoStageDbbr) {
    reduce_two_stage<double>(work.view(), opts, r);
    return r;
  }

  // kTwoStageClassic: sy2sb, then stage 2 with the sequential chase.
  ThreadLimit thread_scope(opts.threads);
  const sbr::BandReductionOptions bo = band_options(opts, a.rows);
  r.b = bo.b;
  WallTimer t;
  r.stage1 = sbr::sy2sb(work.view(), r.b, bo);
  r.seconds_stage1 = t.seconds();
  chase_to_tridiag<double>(work.view(), opts, /*pipelined=*/false, r);
  return r;
}

}  // namespace

void check_lower_finite(ConstMatrixView a, const char* stage) {
  for (index_t j = 0; j < a.cols; ++j) {
    for (index_t i = j; i < a.rows; ++i) {
      if (!std::isfinite(a(i, j))) {
        throw Error(ErrorCode::kInvalidInput,
                    std::string(stage) + ": non-finite input entry at (" +
                        std::to_string(i) + ", " + std::to_string(j) + ")",
                    {stage, i, j});
      }
    }
  }
}

TridiagResult tridiagonalize(ConstMatrixView a, const TridiagOptions& opts) {
  TDG_CHECK(a.rows == a.cols, "tridiagonalize: matrix must be square");
  TDG_CHECK(a.rows >= 1, "tridiagonalize: empty matrix");
  obs::Span span("tridiagonalize");
  span.attr("n", a.rows);
  if (opts.check_finite) check_lower_finite(a, "tridiagonalize");
  if (a.rows == 1) {
    TridiagResult r;
    r.method = TridiagMethod::kDirect;
    r.b = 1;
    r.d = {a(0, 0)};
    r.direct_a = Matrix(1, 1);
    return r;
  }
  // Resolve unset (zero) knobs through the planner, then validate/clamp the
  // full vector; measure-tier candidates arrive here fully specified with
  // plan = kManual, so the recursion bottoms out after one level.
  const plan::ProblemShape shape{a.rows, opts.want_factors, 0};
  plan::PlannerOptions popts;
  popts.threads = opts.threads;
  TridiagOptions o =
      plan::resolve(opts, a.rows, plan::plan_for(shape, opts.plan, popts));
  o.plan = PlanMode::kManual;
  if (o.method == TridiagMethod::kDirect) {
    return tridiag_direct(a, o);
  }
  return tridiag_two_stage(a, o);
}

template <class T>
void reduce_two_stage(MatrixViewT<T> work, const TridiagOptions& opts,
                      TwoStageT<T>& out) {
  // Both stages drive the parallel BLAS-3 engine at the requested width.
  ThreadLimit thread_scope(opts.threads);
  const sbr::BandReductionOptions bo = band_options(opts, work.rows);
  out.b = bo.b;
  out.k = bo.k;
  WallTimer t;
  out.stage1 = sbr::dbbr(work, bo);
  out.seconds_stage1 = t.seconds();

  chase_to_tridiag<T>(work, opts, opts.parallel_bc, out);
}

template <class T>
void back_transform_two_stage(const TwoStageT<T>& f, MatrixViewT<T> c,
                              const ApplyQOptions& opts,
                              ApplyQBreakdown* breakdown) {
  TDG_CHECK(f.stage2.n == c.rows,
            "apply_q: factors missing or size mismatch");
  ThreadLimit thread_scope(opts.threads);
  // Q = Q1 Q2, so apply Q2 first, then Q1. Q2 goes through the chunked
  // (column-parallel) application; within-sweep reflectors have disjoint
  // row ranges, so it matches the one-at-a-time order bit for bit.
  WallTimer t;
  bt::apply_q2_left_blocked(f.stage2, c, opts.knobs.q2_group);
  if (breakdown != nullptr) breakdown->seconds_q2 = t.seconds();
  t.reset();
  bt::apply_q1_blocked(f.stage1, opts.knobs.bt_kw, c);
  if (breakdown != nullptr) breakdown->seconds_q1 = t.seconds();
}

#define TDG_INSTANTIATE(T)                                                  \
  template void reduce_two_stage<T>(MatrixViewT<T>, const TridiagOptions&,   \
                                    TwoStageT<T>&);                          \
  template void back_transform_two_stage<T>(                                 \
      const TwoStageT<T>&, MatrixViewT<T>, const ApplyQOptions&,             \
      ApplyQBreakdown*);
TDG_INSTANTIATE(double)
TDG_INSTANTIATE(float)

void apply_q(const TridiagResult& r, MatrixView c, const ApplyQOptions& opts,
             ApplyQBreakdown* breakdown) {
  const plan::ProblemShape shape{c.rows, true, c.cols};
  plan::PlannerOptions popts;
  popts.threads = opts.threads;
  const ApplyQOptions o =
      plan::resolve(opts, c.rows, plan::plan_for(shape, opts.plan, popts));
  if (r.method == TridiagMethod::kDirect) {
    TDG_CHECK(r.direct_a.rows() == c.rows,
              "apply_q: factors missing or size mismatch");
    ThreadLimit thread_scope(o.threads);
    WallTimer t;
    if (c.rows >= 3) {
      lapack::apply_sytrd_q_left(r.direct_a.view(), r.direct_taus, c);
    }
    if (breakdown != nullptr) breakdown->seconds_q1 = t.seconds();
    return;
  }
  back_transform_two_stage<double>(r, c, o, breakdown);
}

void apply_q(const TridiagResult& r, MatrixView c, index_t bt_kw) {
  ApplyQOptions opts;
  opts.knobs.bt_kw = bt_kw;
  apply_q(r, c, opts);
}

}  // namespace tdg
