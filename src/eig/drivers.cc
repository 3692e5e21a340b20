#include "eig/drivers.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "eig/bisect.h"
#include "eig/eig.h"
#include "eig/mixed.h"
#include "gpumodel/bc_pipeline_model.h"
#include "gpumodel/device_spec.h"
#include "gpumodel/kernel_model.h"
#include "la/workspace.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan.h"

namespace tdg::eig {

namespace {

/// One planner pass for the whole pipeline: resolve the tridiag options,
/// the back-transform options, and the solver base case against a single
/// plan so every stage runs the same configuration. `pre` (optional) is a
/// caller-supplied plan — the batch / pre-resolved paths — which skips the
/// planner consultation entirely.
plan::ResolvedPipeline resolve_evd(const EvdOptions& opts, index_t n,
                                   index_t subset, const plan::Plan* pre) {
  const plan::ProblemShape shape{n, opts.vectors, subset, opts.mode};
  if (pre != nullptr) {
    return plan::resolve_and_validate(shape, *pre, opts.tridiag,
                                      merged_knobs(opts));
  }
  plan::PlannerOptions popts;
  popts.threads = opts.tridiag.threads;
  return plan::resolve_and_validate(shape, opts.plan, opts.tridiag,
                                    merged_knobs(opts), popts);
}

/// Record the model-vs-measured drift of a completed profile into the
/// registry ("profile.model_drift_pct", percent). Always-on: profiled runs
/// are rare and the drift distribution is the calibration telemetry the
/// gpumodel consumers read. Phases the model does not price (model_seconds
/// == 0) are excluded from the model total; a profile with no modeled
/// phases or no measured time records nothing.
void record_model_drift(const EvdProfile& profile) {
  static obs::Histogram* const drift = obs::Registry::global().histogram(
      "profile.model_drift_pct", obs::Gating::kAlways);
  double measured = 0.0;
  double model = 0.0;
  for (const PhaseProfile& p : profile.phases) {
    if (p.model_seconds <= 0.0) continue;
    measured += p.seconds;
    model += p.model_seconds;
  }
  if (model <= 0.0 || measured <= 0.0) return;
  const double pct = std::abs(measured - model) / model * 100.0;
  drift->record(static_cast<long long>(pct));
}

}  // namespace

plan::Knobs merged_knobs(const EvdOptions& opts) {
  // Precedence: the options-level sub-struct, then whatever rides on the
  // tridiag options (resolve_and_validate folds that one in itself, but
  // merging here keeps this function the complete answer for callers).
  return plan::merged(opts.knobs, opts.tridiag.knobs);
}

EvdOptions validate(const EvdOptions& opts) {
  EvdOptions out = opts;
  const plan::ProblemShape eff =
      plan::normalized(plan::ProblemShape{0, opts.vectors, 0, opts.mode});
  out.vectors = eff.vectors;
  out.mode = eff.mode;
  out.knobs = merged_knobs(opts);
  out.tridiag.knobs = plan::Knobs{};  // folded into out.knobs above
  TDG_CHECK(out.knobs.smlsiz >= 0 && out.knobs.bt_kw >= 0 &&
                out.knobs.q2_group >= 0 && out.knobs.lookahead >= -1,
            "eigh: negative knob");
  TDG_CHECK(out.knobs.refine.max_iters >= 0 && out.knobs.refine.tol >= 0.0,
            "eigh: negative refinement knob");
  TDG_CHECK(out.tridiag.b >= 0 && out.tridiag.k >= 0 &&
                out.tridiag.sytrd_nb >= 0 &&
                out.tridiag.max_parallel_sweeps >= 0,
            "eigh: negative tridiag knob");
  return out;
}

namespace {

/// True when `err` is a failure class the solver fallback chain recovers
/// from; anything else (invalid input, pipeline stall, cache I/O) is
/// re-raised to the caller unchanged.
bool recoverable(const Error& err) {
  return err.code() == ErrorCode::kNoConvergence;
}

/// Count a taken recovery path in the metrics registry. Always-on
/// (obs::Gating::kAlways): a fallback happens at most a handful of times per
/// eigh and its total must be trustworthy telemetry even in processes that
/// never armed TDG_METRICS.
void count_recovery(const std::string& path) {
  obs::Registry& r = obs::Registry::global();
  static obs::Counter* const dc_steqr =
      r.counter("evd.recovery.dc_steqr", obs::Gating::kAlways);
  static obs::Counter* const dc_steqr_bisect =
      r.counter("evd.recovery.dc_steqr_bisect", obs::Gating::kAlways);
  static obs::Counter* const steqr_bisect =
      r.counter("evd.recovery.steqr_bisect", obs::Gating::kAlways);
  if (path == "dc->steqr") {
    dc_steqr->inc();
  } else if (path == "dc->steqr->bisect") {
    dc_steqr_bisect->inc();
  } else if (path == "steqr->bisect") {
    steqr_bisect->inc();
  }
}

/// Stamp the dense-workspace high-water mark (la/workspace.h) into the
/// result and the registry gauge. Always-on: one atomic load per eigh.
void record_workspace(EvdResult& res) {
  static obs::Gauge* const peak = obs::Registry::global().gauge(
      "evd.peak_workspace_bytes", obs::Gating::kAlways);
  res.peak_workspace_bytes = la::workspace_peak_bytes();
  peak->update_max(static_cast<long long>(res.peak_workspace_bytes));
}

/// Build a PhaseProfile from a measured time plus the shape trace the phase
/// recorded; model_seconds prices the same ops on the H100 model.
PhaseProfile phase_from_ops(std::string name, double seconds,
                            const std::vector<trace::Op>& ops,
                            const gpumodel::KernelModel& model) {
  PhaseProfile p;
  p.name = std::move(name);
  p.seconds = seconds;
  for (const auto& op : ops) p.flops += trace::flops(op);
  p.gflops = seconds > 0.0 ? p.flops / seconds / 1e9 : 0.0;
  p.model_seconds = gpumodel::price_trace(model, ops).seconds;
  return p;
}

/// The tridiagonalization phase with stage-1/stage-2 children. Stage-1
/// flops come from the recorded BLAS shapes; stage 2 (the parallel chase
/// runs its steps on untraced pool workers) is counted exactly by the
/// discrete-event pipeline model and priced by bc_gpu_seconds — the same
/// model the benchmarks project with.
PhaseProfile tridiag_phase(const TridiagResult& tri,
                           const TridiagOptions& cfg, index_t n,
                           double seconds, const trace::Recorder& rec,
                           const gpumodel::KernelModel& model) {
  PhaseProfile p;
  p.name = "tridiagonalize";
  p.seconds = seconds;

  std::vector<trace::Op> s1_ops;
  for (const auto& op : rec.ops()) {
    if (op.kind != trace::OpKind::kBcStep) s1_ops.push_back(op);
  }
  const char* s1_name =
      tri.method == TridiagMethod::kDirect
          ? "sytrd"
          : (tri.method == TridiagMethod::kTwoStageDbbr ? "dbbr" : "sy2sb");
  p.children.push_back(
      phase_from_ops(s1_name, tri.seconds_stage1, s1_ops, model));

  if (tri.method != TridiagMethod::kDirect && n >= 3) {
    PhaseProfile s2;
    s2.name = "bulge_chase";
    s2.seconds = tri.seconds_stage2;
    const index_t b = std::max<index_t>(tri.b, 1);
    index_t s = cfg.max_parallel_sweeps;
    if (s <= 0) s = std::max<index_t>(n - 2, 1);
    const gpumodel::BcPipelineStats stats = gpumodel::bc_simulate(n, b, s);
    s2.flops = 12.0 * static_cast<double>(b) * static_cast<double>(b) *
               stats.busy_steps;
    s2.gflops = s2.seconds > 0.0 ? s2.flops / s2.seconds / 1e9 : 0.0;
    s2.model_seconds = gpumodel::bc_gpu_seconds(model.spec(), n, b, s);
    p.children.push_back(std::move(s2));
  }

  for (const PhaseProfile& c : p.children) {
    p.flops += c.flops;
    p.model_seconds += c.model_seconds;
  }
  p.gflops = p.seconds > 0.0 ? p.flops / p.seconds / 1e9 : 0.0;
  return p;
}

/// The back-transform phase with Q2/Q1 children, split by op kind: the
/// chunked Q2 application records kBatchedGemm, the blocked Q1 application
/// records plain GEMMs.
PhaseProfile backtransform_phase(double seconds,
                                 const ApplyQBreakdown& breakdown,
                                 const trace::Recorder& rec,
                                 const gpumodel::KernelModel& model) {
  std::vector<trace::Op> q2_ops;
  std::vector<trace::Op> q1_ops;
  for (const auto& op : rec.ops()) {
    if (op.kind == trace::OpKind::kBatchedGemm) {
      q2_ops.push_back(op);
    } else {
      q1_ops.push_back(op);
    }
  }
  PhaseProfile p;
  p.name = "backtransform";
  p.seconds = seconds;
  p.children.push_back(
      phase_from_ops("apply_q2", breakdown.seconds_q2, q2_ops, model));
  p.children.push_back(
      phase_from_ops("apply_q1", breakdown.seconds_q1, q1_ops, model));
  for (const PhaseProfile& c : p.children) {
    p.flops += c.flops;
    p.model_seconds += c.model_seconds;
  }
  p.gflops = p.seconds > 0.0 ? p.flops / p.seconds / 1e9 : 0.0;
  return p;
}

}  // namespace

namespace {

EvdResult eigh_impl(ConstMatrixView a, const EvdOptions& opts,
                    const plan::Plan* pre) {
  TDG_CHECK(a.rows == a.cols, "eigh: matrix must be square");
  const index_t n = a.rows;
  EvdResult res;
  if (n == 0) return res;
  // Canonicalize the mode/vectors axis once; every decision below reads the
  // effective shape, never the raw request.
  const plan::ProblemShape eff =
      plan::normalized(plan::ProblemShape{n, opts.vectors, 0, opts.mode});
  res.mode = eff.mode;
  obs::Span eigh_span("eigh");
  eigh_span.attr("n", n);
  eigh_span.attr("vectors", eff.vectors ? 1 : 0);
  eigh_span.attr("mode", static_cast<index_t>(eff.mode));
  // Phase-boundary cancellation polls (common/cancel.h): entry, after
  // tridiagonalization, and before the back-transform. The phases
  // themselves poll at their own inner boundaries.
  cancel::poll("eigh");
  if (opts.check_finite) check_lower_finite(a, "eigh");

  // One thread budget for the whole pipeline: tridiagonalization, the D&C
  // merge GEMMs, and the Q2/Q1 back transformations.
  ThreadLimit thread_scope(opts.tridiag.threads);

  EvdOptions ropts = opts;  // the canonicalized request
  ropts.vectors = eff.vectors;
  ropts.mode = eff.mode;
  plan::ResolvedPipeline cfg = resolve_evd(ropts, n, /*subset=*/0, pre);
  cfg.tridiag.check_finite = false;  // screened above; don't rescan
  res.plan_source = plan::source_string(cfg.plan);

  // Mixed precision: FP32 reduction engine + FP64 refinement. A failed
  // residual test (or a tridiagonal-solver breakdown inside the engine) is
  // recovered by falling through to the standard FP64 pipeline below, as
  // are problems too small for the engine (n < 3, no recovery recorded);
  // either way the plan is re-resolved at FP64 so the mode and provenance
  // name the run that actually produced the result.
  std::string recovery_prefix;
  if (eff.precision == plan::Precision::kFp32 && n >= 3) {
    static obs::Counter* const refine_iters = obs::Registry::global().counter(
        "evd.refine_iters", obs::Gating::kAlways);
    static obs::Counter* const fp32_fallbacks =
        obs::Registry::global().counter("evd.fp32_fallbacks",
                                        obs::Gating::kAlways);
    MixedOutcome mo =
        eigh_mixed(a, cfg, opts.solver == TridiagSolver::kDivideConquer);
    refine_iters->inc(mo.refine.iters);
    if (mo.ok) {
      res.eigenvalues = std::move(mo.eigenvalues);
      res.eigenvectors = std::move(mo.eigenvectors);
      res.refine_iters = mo.refine.iters;
      res.refine_residual = mo.refine.residual;
      res.seconds_tridiag = mo.seconds_fp32;
      res.seconds_solver = mo.seconds_solver;
      res.seconds_refine = mo.seconds_refine;
      record_workspace(res);
      return res;
    }
    fp32_fallbacks->inc();
    recovery_prefix = "fp32->fp64";
    res.recovery = recovery_prefix;
  }
  if (eff.precision == plan::Precision::kFp32) {
    res.mode = plan::EvdMode::kStandard;
    ropts.mode = plan::EvdMode::kStandard;
    cfg = resolve_evd(ropts, n, /*subset=*/0, pre);
    cfg.tridiag.check_finite = false;
    res.plan_source = plan::source_string(cfg.plan);
  }

  // Record a taken degradation path: the solver chain joined onto any
  // fp32->fp64 prefix ("fp32->fp64,dc->steqr" when both happened).
  std::string solver_chain;
  auto note_recovery = [&](std::string chain) {
    count_recovery(chain);
    solver_chain = std::move(chain);
    res.recovery = recovery_prefix.empty()
                       ? solver_chain
                       : recovery_prefix + "," + solver_chain;
  };

  // Profiling: one shape recorder per phase. The kernels record their ops
  // on the dispatching thread, so scoping the recorder around each phase
  // attributes every BLAS call to exactly one phase.
  const bool prof = opts.profile;
  trace::Recorder tri_rec;
  trace::Recorder solver_rec;
  trace::Recorder bt_rec;

  WallTimer t;
  TridiagResult tri;
  {
    std::optional<trace::Scope> scope;
    if (prof) scope.emplace(tri_rec);
    tri = tridiagonalize(a, cfg.tridiag);
  }
  res.seconds_tridiag = t.seconds();
  cancel::poll("solver");

  // tri.d / tri.e stay pristine below: the solvers mutate copies, so every
  // fallback restarts from the exact tridiagonal problem.
  res.eigenvalues = tri.d;
  std::vector<double> e = tri.e;

  if (!eff.vectors) {
    t.reset();
    // Values only: implicit QL without vector accumulation is the cheapest
    // (this is also what the paper's "w/o vectors" path amounts to).
    {
      obs::Span solver_span("solver");
      solver_span.attr("n", n);
      std::optional<trace::Scope> scope;
      if (prof) scope.emplace(solver_rec);
      try {
        steqr(res.eigenvalues, e, nullptr);
      } catch (const Error& err) {
        if (!opts.solver_fallback || !recoverable(err)) throw;
        note_recovery("steqr->bisect");
        res.eigenvalues = eigenvalues_bisect(tri.d, tri.e, 0, n - 1);
      }
    }
    res.seconds_solver = t.seconds();
    if (prof) {
      const gpumodel::KernelModel model(gpumodel::h100_sxm(),
                                        /*vendor_syr2k=*/false);
      res.profile.enabled = true;
      res.profile.phases.push_back(tridiag_phase(
          tri, cfg.tridiag, n, res.seconds_tridiag, tri_rec, model));
      res.profile.phases.push_back(
          phase_from_ops("solver", res.seconds_solver, solver_rec.ops(),
                         model));
      for (const PhaseProfile& p : res.profile.phases) {
        res.profile.total_seconds += p.seconds;
        res.profile.total_flops += p.flops;
      }
      record_model_drift(res.profile);
    }
    record_workspace(res);
    return res;
  }

  // Eigenvectors of the tridiagonal T, degrading through the fallback
  // chain on kNoConvergence: D&C -> implicit QL -> Sturm bisection +
  // inverse iteration. Each stage restarts from the pristine (d, e).
  t.reset();
  Matrix z(n, n);
  {
    obs::Span solver_span("solver");
    solver_span.attr("n", n);
    std::optional<trace::Scope> scope;
    if (prof) scope.emplace(solver_rec);
    bool solved = false;
    bool try_steqr = opts.solver != TridiagSolver::kDivideConquer;
    if (opts.solver == TridiagSolver::kDivideConquer) {
      try {
        stedc(res.eigenvalues, e, z.view(), cfg.smlsiz);
        solved = true;
      } catch (const Error& err) {
        if (!opts.solver_fallback || !recoverable(err)) throw;
        note_recovery("dc->steqr");
        try_steqr = true;
      }
    }
    if (!solved && try_steqr) {
      res.eigenvalues = tri.d;
      e = tri.e;
      z = Matrix::identity(n);
      try {
        MatrixView zv = z.view();
        steqr(res.eigenvalues, e, &zv);
        solved = true;
      } catch (const Error& err) {
        if (!opts.solver_fallback || !recoverable(err)) throw;
        note_recovery(solver_chain.empty() ? "steqr->bisect"
                                           : "dc->steqr->bisect");
      }
    }
    if (!solved) {
      // Last resort, solver-free: bisection eigenvalues to machine precision
      // and inverse-iteration vectors (clusters re-orthogonalised).
      res.eigenvalues = eigenvalues_bisect(tri.d, tri.e, 0, n - 1);
      z = Matrix(n, n);
      inverse_iteration(tri.d, tri.e, res.eigenvalues, z.view());
    }
  }
  res.seconds_solver = t.seconds();
  cancel::poll("backtransform");

  // Back-transform into eigenvectors of A: V = Q * Z.
  t.reset();
  ApplyQBreakdown bt_breakdown;
  {
    obs::Span bt_span("backtransform");
    bt_span.attr("n", n);
    std::optional<trace::Scope> scope;
    if (prof) scope.emplace(bt_rec);
    apply_q(tri, z.view(), cfg.applyq, &bt_breakdown);
  }
  res.seconds_backtransform = t.seconds();
  res.eigenvectors = std::move(z);

  if (prof) {
    const gpumodel::KernelModel model(gpumodel::h100_sxm(),
                                      /*vendor_syr2k=*/false);
    res.profile.enabled = true;
    res.profile.phases.push_back(tridiag_phase(
        tri, cfg.tridiag, n, res.seconds_tridiag, tri_rec, model));
    res.profile.phases.push_back(phase_from_ops(
        "solver", res.seconds_solver, solver_rec.ops(), model));
    res.profile.phases.push_back(backtransform_phase(
        res.seconds_backtransform, bt_breakdown, bt_rec, model));
    for (const PhaseProfile& p : res.profile.phases) {
      res.profile.total_seconds += p.seconds;
      res.profile.total_flops += p.flops;
    }
    record_model_drift(res.profile);
  }
  record_workspace(res);
  return res;
}

EvdResult eigh_range_impl(ConstMatrixView a, index_t il, index_t iu,
                          const EvdOptions& opts, const plan::Plan* pre) {
  TDG_CHECK(a.rows == a.cols, "eigh_range: matrix must be square");
  const index_t n = a.rows;
  TDG_CHECK(0 <= il && il <= iu && iu < n, "eigh_range: bad index range");
  obs::Span span("eigh_range");
  span.attr("n", n);
  span.attr("il", il);
  span.attr("iu", iu);
  cancel::poll("eigh");
  if (opts.check_finite) check_lower_finite(a, "eigh_range");

  ThreadLimit thread_scope(opts.tridiag.threads);

  // The subset path has no FP32 engine (bisection + inverse iteration are
  // already O(n^2)-dominated), so a kMixedPrecision request runs the
  // standard FP64 pipeline; the values-only axis still applies.
  EvdOptions ropts = opts;
  const plan::ProblemShape eff =
      plan::normalized(plan::ProblemShape{n, opts.vectors, 0, opts.mode});
  ropts.vectors = eff.vectors;
  ropts.mode = eff.vectors ? plan::EvdMode::kStandard
                           : plan::EvdMode::kValuesOnly;
  plan::ResolvedPipeline cfg =
      resolve_evd(ropts, n, /*subset=*/iu - il + 1, pre);
  cfg.tridiag.check_finite = false;  // screened above; don't rescan

  EvdResult res;
  res.mode = ropts.mode;
  res.plan_source = plan::source_string(cfg.plan);
  WallTimer t;
  TridiagResult tri = tridiagonalize(a, cfg.tridiag);
  res.seconds_tridiag = t.seconds();

  t.reset();
  res.eigenvalues = eigenvalues_bisect(tri.d, tri.e, il, iu);
  if (eff.vectors) {
    const index_t k = iu - il + 1;
    Matrix z(n, k);
    inverse_iteration(tri.d, tri.e, res.eigenvalues, z.view());
    res.seconds_solver = t.seconds();

    t.reset();
    apply_q(tri, z.view(), cfg.applyq);  // only k columns back-transformed
    res.seconds_backtransform = t.seconds();
    res.eigenvectors = std::move(z);
  } else {
    res.seconds_solver = t.seconds();
  }
  record_workspace(res);
  return res;
}

}  // namespace

EvdResult eigh(ConstMatrixView a, const EvdOptions& opts) {
  return eigh_impl(a, opts, nullptr);
}

EvdResult eigh(ConstMatrixView a, const EvdOptions& opts,
               const plan::Plan& plan) {
  return eigh_impl(a, opts, &plan);
}

EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts) {
  return eigh_range_impl(a, il, iu, opts, nullptr);
}

EvdResult eigh_range(ConstMatrixView a, index_t il, index_t iu,
                     const EvdOptions& opts, const plan::Plan& plan) {
  return eigh_range_impl(a, il, iu, opts, &plan);
}

}  // namespace tdg::eig
