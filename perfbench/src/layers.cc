// The traced run. Every probe calls a layer's entry point inside a
// benchmark span; the per-layer metrics are the spans' self times (or
// durations) combined with computed operation and byte counts. The dense
// probe composes the production standard pipeline from the layer entry
// points with the resolved knobs and asserts it is bitwise equal to eigh.
// EvdOptions::profile is never used: it installs an op-trace recorder that
// drops DBBR to the barrier loop and prices phases on a device model.
#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include <unistd.h>

#include "backtransform/apply_q2_blocked.h"
#include "backtransform/backtransform.h"
#include "band/sym_band.h"
#include "bc/bulge_chase_parallel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "flood.h"
#include "la/blas.h"
#include "la/blas32.h"
#include "la/generate.h"
#include "la/matrix32.h"
#include "la/workspace.h"
#include "lapack/lapack.h"
#include "sbr/sbr.h"
#include "serve_probe.h"

namespace perfbench {

namespace {

using tdg::index_t;
using tdg::Matrix;
using tdg::Trans;

/// Traced runs (each paired with one untraced run) of the composed dense
/// pipeline.
constexpr int kDenseTraceReps = 3;
/// Length of each open-loop step of the serve probe.
constexpr double kServeStepSeconds = 2.0;

/// A probe's traced-over-untraced time of the same calls, minus one, and
/// the number of traced/untraced pairs it came from.
struct Overhead {
  double frac = 0.0;
  std::size_t pairs = 0;
};

double mb(std::size_t bytes) { return static_cast<double>(bytes) / 1e6; }

/// Median seconds of `reps` calls of `fn`, each inside a span `name`.
template <class Fn>
double timed(Tracer& tr, const char* name, int reps, Fn&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    {
      auto span = tr.span(name);
      fn();
    }
    s.push_back(now_s() - t0);
  }
  return median(s);
}

// ---- dense pipeline, composed from the layer entry points ------------------

struct Composed {
  tdg::eig::EvdResult result;
  std::vector<double> d;  // the tridiagonal the solver started from
  std::vector<double> e;
  tdg::sbr::BandReductionOptions dbbr;  // the DBBR options that ran
  double flops_q = 0.0;  // computed back-transform flops (Q2 + Q1)
  index_t chase_steps = 0;
};

/// The standard eigh pipeline (src/eig/drivers.cc, src/core/tridiag.cc)
/// rebuilt from its layers: resolve -> DBBR -> band extraction -> packed
/// parallel chase -> D&C -> Q2 then Q1 back transform.
Composed composed_standard(const Matrix& a, Tracer& tr) {
  namespace plan = tdg::plan;
  Composed out;
  const index_t n = a.rows();
  auto top = tr.span("eig.eigh_composed");
  const tdg::eig::EvdOptions opts;  // the standard request
  tdg::ThreadLimit budget(opts.tridiag.threads);
  plan::ResolvedPipeline cfg;
  tdg::TridiagOptions to;
  tdg::ApplyQOptions qo;
  {
    auto s = tr.span("plan.resolve");
    plan::PlannerOptions popts;
    popts.threads = opts.tridiag.threads;
    cfg = plan::resolve_and_validate(
        plan::ProblemShape{n, true, 0, plan::EvdMode::kStandard}, opts.plan,
        opts.tridiag, tdg::eig::merged_knobs(opts), popts);
    cfg.tridiag.check_finite = false;
    // tridiagonalize() and apply_q() re-resolve their (fully specified)
    // options once more under kManual; do the same.
    to = plan::resolve(cfg.tridiag, n,
                       plan::plan_for(plan::ProblemShape{n, true, 0},
                                      cfg.tridiag.plan));
    qo = plan::resolve(cfg.applyq, n,
                       plan::plan_for(plan::ProblemShape{n, true, n},
                                      cfg.applyq.plan));
  }
  {
    auto s = tr.span("eig.check_finite");
    tdg::check_lower_finite(a.view(), "eigh");
  }
  const index_t b = std::max<index_t>(1, std::min(to.b, n - 1));
  tdg::ThreadLimit tri_budget(to.threads);
  Matrix work(n, n);
  tdg::copy(a.view(), work.view());
  tdg::sbr::BandReductionOptions bo;
  bo.b = b;
  bo.k = std::max(b, (to.k / b) * b);
  bo.use_square_syr2k = to.use_square_syr2k;
  bo.threads = to.threads;
  bo.lookahead = std::max<index_t>(0, to.knobs.lookahead);
  bo.want_factors = true;
  out.dbbr = bo;
  tdg::sbr::BandFactor stage1;
  {
    auto s = tr.span("sbr.dbbr");
    stage1 = tdg::sbr::dbbr(work.view(), bo);
  }
  const index_t kd = std::min<index_t>(2 * b, n - 1);
  tdg::bc::ChaseLog log;
  std::vector<double>& d = out.d;
  std::vector<double>& e = out.e;
  {
    auto s = tr.span("bc.chase");
    tdg::SymBandMatrix band = [&] {
      auto x = tr.span("sbr.extract_band");
      return tdg::extract_band(work.view(), b, kd);
    }();
    tdg::bc::ParallelChaseOptions po;
    po.threads = to.bc_threads;
    po.max_parallel_sweeps = to.max_parallel_sweeps;
    tdg::bc::chase_packed_parallel(band, b, po, &log);
    tdg::bc::extract_tridiag(band, d, e);
  }
  Matrix z(n, n);
  out.result.eigenvalues = d;
  {
    auto s = tr.span("eig.stedc");
    std::vector<double> ee = e;
    tdg::eig::stedc(out.result.eigenvalues, ee, z.view(), cfg.smlsiz);
  }
  {
    tdg::ThreadLimit bt_budget(qo.threads);
    {
      auto s = tr.span("backtransform.q2");
      tdg::bt::apply_q2_left_blocked(log, z.view(), qo.knobs.q2_group);
    }
    {
      auto s = tr.span("backtransform.q1");
      tdg::bt::apply_q1_blocked(stage1, qo.knobs.bt_kw, z.view());
    }
  }
  out.result.eigenvectors = std::move(z);
  // Computed work: each reflector of length len applied to n columns costs
  // 4 len n flops; a WY panel of m x w costs 4 m w n.
  double q2_len = 0.0;
  for (const tdg::bc::SweepReflectors& sw : log.sweeps) {
    out.chase_steps += static_cast<index_t>(sw.steps.size());
    for (const tdg::bc::Reflector& r : sw.steps) {
      q2_len += static_cast<double>(r.len);
    }
  }
  double q1_area = 0.0;
  for (const tdg::sbr::Panel& p : stage1.panels) {
    q1_area += static_cast<double>(p.v.rows()) * static_cast<double>(p.v.cols());
  }
  out.flops_q = 4.0 * static_cast<double>(n) * (q2_len + q1_area);
  return out;
}

// ---- kernel probes ----------------------------------------------------------

struct KernelRate {
  double gflops = 0.0;
  double flop_per_byte = 0.0;
};

KernelRate kernel_rate(double flops, double bytes, double seconds) {
  return {flops / seconds / 1e9, flops / bytes};
}

std::size_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : std::size_t{32} << 20;
}

Overhead probe_dense(const Config& cfg, Tracer& tr, Report& report) {
  const index_t n = kDenseN;
  const Matrix a = make_symmetric(n, mix_seed(cfg.seed, 0xde45e));

  // The production eigh is the reference and the warm-up: the first
  // full-size solve of the process pays its first-touch costs. Then the
  // composed pipeline runs alternately traced and untraced, so the ratio of
  // their medians is the tracing overhead of the same code path, and each
  // layer's figure is the median over the traced runs.
  const tdg::eig::EvdResult ref = tdg::eig::eigh(a.view(), {});
  report.attempted();
  Tracer off(false);
  std::vector<double> traced;
  std::vector<double> untraced;
  std::vector<double> dbbr_v, chase_v, stedc_v, q2_v, q1_v;
  Composed c;
  for (int i = 0; i < 2 * kDenseTraceReps; ++i) {
    const bool on = i % 2 == 0;
    const std::size_t first = tr.spans().size();
    const double t0 = now_s();
    c = composed_standard(a, on ? tr : off);
    (on ? traced : untraced).push_back(now_s() - t0);
    report.attempted();
    if (!bitwise_equal(c.result, ref)) {
      report.violation("composed pipeline is not bitwise equal to eigh "
                       "(standard, n=" + std::to_string(n) + ")");
    }
    if (!on) continue;
    dbbr_v.push_back(tr.self_seconds("sbr.dbbr", first));
    chase_v.push_back(tr.self_seconds("bc.chase", first));
    stedc_v.push_back(tr.self_seconds("eig.stedc", first));
    q2_v.push_back(tr.self_seconds("backtransform.q2", first));
    q1_v.push_back(tr.self_seconds("backtransform.q1", first));
  }
  const Overhead overhead{median(traced) / median(untraced) - 1.0,
                          traced.size()};
  const Accuracy acc =
      accuracy(a.view(), c.result.eigenvalues, c.result.eigenvectors.view());
  if (!(acc.backward <= kBackwardBound) || !(acc.orth <= kOrthBound)) {
    report.violation("composed pipeline fails the accuracy gate");
  }
  const double nd = static_cast<double>(n);
  const std::size_t reps = traced.size();
  const double dbbr_s = median(dbbr_v);
  const double chase_s = median(chase_v);
  const double q2_s = median(q2_v);
  const double q1_s = median(q1_v);
  // A chase step reads and writes a (2b) x b window of the packed band.
  const double bd = static_cast<double>(c.dbbr.b);
  const double chase_bytes = static_cast<double>(c.chase_steps) * 2.0 * 8.0 *
                             (2.0 * bd) * bd;
  report.text("dense probes: n=" + std::to_string(n) + ", plan b=" +
              std::to_string(c.dbbr.b) + " k=" + std::to_string(c.dbbr.k));
  report.add("sbr.dbbr.s", dbbr_s, "s", reps);
  report.add("sbr.dbbr.gflops", 4.0 / 3.0 * nd * nd * nd / dbbr_s / 1e9,
             "GFLOP/s", reps);
  report.add("bc.chase.s", chase_s, "s", reps);
  report.add("bc.chase.gbs", chase_bytes / chase_s / 1e9, "GB/s", reps);
  report.add("eig.solver.s.standard", median(stedc_v), "s", reps);
  report.add("backtransform.q2.s", q2_s, "s", reps);
  report.add("backtransform.q1.s", q1_s, "s", reps);
  report.add("backtransform.gflops", c.flops_q / (q1_s + q2_s) / 1e9,
             "GFLOP/s", reps);
  report.detail("eig.eigh_composed.s.traced", median(traced), "s", reps);
  report.detail("eig.eigh_composed.s.untraced", median(untraced), "s",
                untraced.size());

  // The values-only solver on the same tridiagonal problem.
  {
    std::vector<double> d = c.d;
    std::vector<double> e = c.e;
    const double s = timed(tr, "eig.steqr_values", 1,
                           [&] { tdg::eig::steqr(d, e, nullptr); });
    report.add("eig.solver.s.values_only", s, "s", 1);
    if (!(eigenvalue_gap(a.view(), d, ref.eigenvalues) <= kAgreeBound)) {
      report.violation("values-only eigenvalues disagree with standard");
    }
  }

  // DBBR high-water mark above the input, with and without factors.
  for (const bool factors : {true, false}) {
    Matrix w(n, n);
    tdg::copy(a.view(), w.view());
    tdg::sbr::BandReductionOptions bo = c.dbbr;
    bo.want_factors = factors;
    const std::size_t base = tdg::la::workspace_current_bytes();
    tdg::la::workspace_reset_peak();
    {
      auto s = tr.span("sbr.dbbr_peak");
      tdg::sbr::dbbr(w.view(), bo);
    }
    report.add(factors ? "sbr.dbbr.peak_mb.factors" : "sbr.dbbr.peak_mb.nofactors",
               mb(tdg::la::workspace_peak_bytes() - base), "MB", 1);
  }

  // Mixed precision: the engine's own split of one traced call.
  {
    tdg::eig::EvdOptions mo;
    mo.mode = tdg::plan::EvdMode::kMixedPrecision;
    tdg::eig::EvdResult r;
    {
      auto s = tr.span("eig.eigh_mixed");
      r = tdg::eig::eigh(a.view(), mo);
    }
    report.attempted();
    const bool fell_back = r.recovery.find("fp32->fp64") != std::string::npos;
    report.add("eig.mixed.fp32_stage_s", r.seconds_tridiag, "s", 1);
    report.add("eig.refine.s", r.seconds_refine, "s", 1);
    report.add("eig.refine.iters", static_cast<double>(r.refine_iters), "count",
               1);
    report.add("eig.fp32_fallback_frac", fell_back ? 1.0 : 0.0, "ratio", 1);
    if (!(eigenvalue_gap(a.view(), r.eigenvalues, ref.eigenvalues) <=
          kAgreeBound)) {
      report.violation("mixed-precision eigenvalues disagree with standard");
    }
  }

  // Kernels at the shapes DBBR submits under this plan: the trailing update
  // is m x m with inner dimension k, the JIT symm is m x m times m x b.
  const index_t m = n - c.dbbr.b;
  const index_t k = std::min(c.dbbr.k, m);
  const double md = static_cast<double>(m);
  const double kd_ = static_cast<double>(k);
  Matrix y = Matrix(m, k);
  Matrix w = Matrix(m, k);
  {
    tdg::Rng rng(mix_seed(cfg.seed, 0x6e33));
    for (index_t j = 0; j < k; ++j) {
      for (index_t i = 0; i < m; ++i) {
        y(i, j) = rng.normal();
        w(i, j) = rng.normal();
      }
    }
  }
  Matrix cm(m, m);
  const double gemm_flops = 2.0 * md * md * kd_;
  const double gemm_bytes = 8.0 * (2.0 * md * kd_ + 2.0 * md * md);
  double gemm_1t = 0.0;
  {
    tdg::ThreadLimit one(1);
    gemm_1t = timed(tr, "la.gemm", 1, [&] {
      tdg::la::gemm(Trans::kNo, Trans::kTrans, -1.0, y.view(), w.view(), 1.0,
                    cm.view());
    });
  }
  const double gemm_nt = timed(tr, "la.gemm", 3, [&] {
    tdg::la::gemm(Trans::kNo, Trans::kTrans, -1.0, y.view(), w.view(), 1.0,
                  cm.view());
  });
  const KernelRate g1 = kernel_rate(gemm_flops, gemm_bytes, gemm_1t);
  const KernelRate gn = kernel_rate(gemm_flops, gemm_bytes, gemm_nt);
  const double syr2k_s = timed(tr, "la.syr2k_square", 3, [&] {
    tdg::la::syr2k_lower_square(-1.0, y.view(), w.view(), 1.0, cm.view());
  });
  const KernelRate sy = kernel_rate(2.0 * md * (md + 1.0) * kd_,
                                    8.0 * (2.0 * md * kd_ + md * (md + 1.0)),
                                    syr2k_s);
  Matrix sa = make_symmetric(m, mix_seed(cfg.seed, 0x5e33));
  Matrix sb(m, c.dbbr.b);
  Matrix sc(m, c.dbbr.b);
  for (index_t j = 0; j < c.dbbr.b; ++j) {
    for (index_t i = 0; i < m; ++i) sb(i, j) = y(i, j % k);
  }
  const double bd2 = static_cast<double>(c.dbbr.b);
  const double symm_s = timed(tr, "la.symm", 5, [&] {
    tdg::la::symm_lower(1.0, sa.view(), sb.view(), 0.0, sc.view());
  });
  const KernelRate sm = kernel_rate(2.0 * md * md * bd2,
                                    8.0 * (md * (md + 1.0) / 2.0 + 2.0 * md * bd2),
                                    symm_s);
  const tdg::MatrixF y32 = tdg::to_fp32(y.view());
  const tdg::MatrixF w32 = tdg::to_fp32(w.view());
  tdg::MatrixF c32(m, m);
  const double gemm32_s = timed(tr, "la.gemm32", 3, [&] {
    tdg::la::gemm_f(Trans::kNo, Trans::kTrans, -1.0f, y32.view(), w32.view(),
                    1.0f, c32.view());
  });
  const KernelRate g32 = kernel_rate(
      gemm_flops, 4.0 * (2.0 * md * kd_ + 2.0 * md * md), gemm32_s);
  report.text("kernel probes: gemm/syr2k " + std::to_string(m) + "x" +
              std::to_string(m) + " inner " + std::to_string(k) + ", symm " +
              std::to_string(m) + "x" + std::to_string(m) + " by " +
              std::to_string(c.dbbr.b) + "; flop/byte computed from array sizes");
  report.add("la.gemm.gflops.1t", g1.gflops, "GFLOP/s", 1);
  report.add("la.gemm.gflops.nt", gn.gflops, "GFLOP/s", 3);
  report.add("la.gemm.flop_per_byte", gn.flop_per_byte, "flop/B", 1);
  report.add("la.syr2k_square.gflops", sy.gflops, "GFLOP/s", 3);
  report.add("la.syr2k_square.flop_per_byte", sy.flop_per_byte, "flop/B", 1);
  report.add("la.symm.gflops", sm.gflops, "GFLOP/s", 5);
  report.add("la.symm.flop_per_byte", sm.flop_per_byte, "flop/B", 1);
  report.add("la.gemm32.gflops.nt", g32.gflops, "GFLOP/s", 3);
  report.add("la.gemm32.flop_per_byte", g32.flop_per_byte, "flop/B", 1);
  report.add("common.gemm_scaling_eff",
             gn.gflops / (static_cast<double>(cfg.threads) * g1.gflops),
             "ratio", 1);

  // Panel QR on an n x b panel (the look-ahead critical path).
  {
    Matrix panel(n, c.dbbr.b);
    const double s = timed(tr, "lapack.panel_qr", 5, [&] {
      for (index_t j = 0; j < c.dbbr.b; ++j) {
        for (index_t i = 0; i < n; ++i) panel(i, j) = a(i, j);
      }
      tdg::lapack::panel_qr(panel.view());
    });
    report.add("lapack.panel_qr.s", s, "s", 5);
  }

  // STREAM triad over three arrays whose total is at least 4x the LLC.
  {
    const std::size_t llc = llc_bytes();
    const std::size_t len = (4 * llc / 3) / sizeof(double) + 1;
    std::vector<double> xa(len, 0.0);
    std::vector<double> xb(len, 1.0);
    std::vector<double> xc(len, 2.0);
    const double scalar = 3.0;
    const auto triad = [&] {
      tdg::parallel_chunks(static_cast<index_t>(len),
                           static_cast<index_t>(len) / cfg.threads + 1,
                           [&](index_t lo, index_t hi) {
                             for (index_t i = lo; i < hi; ++i) {
                               xa[static_cast<std::size_t>(i)] =
                                   xb[static_cast<std::size_t>(i)] +
                                   scalar * xc[static_cast<std::size_t>(i)];
                             }
                           });
    };
    triad();  // first touch
    const double s = timed(tr, "host.stream_triad", 5, triad);
    const double bytes = 3.0 * 8.0 * static_cast<double>(len);
    report.text("stream triad: 3 arrays x " +
                std::to_string(len * sizeof(double) >> 20) + " MiB, LLC " +
                std::to_string(llc >> 20) + " MiB");
    report.add("host.stream_gbs", bytes / s / 1e9, "GB/s", 5);
    if (xa[len / 2] != 2.0 * scalar + 1.0) {
      report.violation("stream triad produced a wrong value");
    }
  }
  return overhead;
}

// ---- small-problem probes -----------------------------------------------

Overhead probe_small(const Config& cfg, Tracer& tr, Report& report,
                      bool own_workload) {
  // Standalone one-thread eigh at n = 16 and 32.
  for (const index_t n : {index_t{16}, index_t{32}}) {
    const Matrix a = make_symmetric(n, mix_seed(cfg.seed, 0x5a11 + n));
    tdg::eig::EvdOptions o;
    o.tridiag.threads = 1;
    const int reps = n == 16 ? 400 : 200;
    const double s = timed(tr, "eig.eigh_small", reps,
                           [&] { tdg::eig::eigh(a.view(), o); });
    report.add(n == 16 ? "eig.eigh_us.n16" : "eig.eigh_us.n32", s * 1e6, "us",
               static_cast<std::size_t>(reps));
  }
  // Per-size batched throughput.
  tdg::eig::BatchOptions bopts;
  bopts.threads = cfg.threads;
  for (const index_t n : {index_t{16}, index_t{32}, index_t{48}}) {
    std::vector<Matrix> mats;
    std::vector<tdg::ConstMatrixView> views;
    for (int i = 0; i < 400; ++i) {
      mats.push_back(make_symmetric(n, mix_seed(cfg.seed, 0xba7 + 1000 * n + i)));
    }
    for (const Matrix& m : mats) views.push_back(m.view());
    std::vector<double> rate;
    for (int r = 0; r < 5; ++r) {
      tdg::eig::BatchResult br;
      const double t0 = now_s();
      {
        auto s = tr.span("eig.eigh_batched");
        br = tdg::eig::eigh_batched(views, bopts);
      }
      rate.push_back(static_cast<double>(br.problems - br.failed) /
                     (now_s() - t0));
      report.attempted(br.problems);
      if (br.failed > 0) {
        report.violation("batched probe: slots failed", br.failed);
      }
    }
    report.add("batched.problems_per_s.n" + std::to_string(n), median(rate),
               "1/s", rate.size());
  }
  // The flood batch: steals and plan reuse, traced against untraced.
  const Flood flood = make_flood(cfg.seed, kFloodProblems);
  const int calls = own_workload
                        ? std::max(4, static_cast<int>(cfg.seconds / 0.4))
                        : 4;
  std::vector<double> traced;
  std::vector<double> untraced;
  Tracer off(false);
  double steals = 0.0;
  double hits = 0.0;
  double problems = 0.0;
  for (int i = 0; i < calls; ++i) {
    Tracer& t = i % 2 == 0 ? tr : off;
    const double t0 = now_s();
    tdg::eig::BatchResult br;
    {
      auto s = t.span("eig.eigh_batched");
      br = tdg::eig::eigh_batched(flood.views, bopts);
    }
    (i % 2 == 0 ? traced : untraced).push_back(now_s() - t0);
    steals += static_cast<double>(br.steals);
    hits += static_cast<double>(br.bucket_plan_hits);
    problems += static_cast<double>(br.problems);
    report.attempted(br.problems);
    if (br.failed > 0) {
      report.violation("flood probe: slots failed", br.failed);
    }
    check_batch_slot(flood.views[static_cast<std::size_t>(i)], bopts,
                     br.results[static_cast<std::size_t>(i)], "flood probe",
                     report);
  }
  const Overhead overhead{median(traced) / median(untraced) - 1.0,
                          traced.size()};
  report.add("batched.steals", steals / calls, "count", static_cast<std::size_t>(calls));
  report.add("plan.bucket_hit_frac", hits / problems, "ratio",
             static_cast<std::size_t>(problems));
  // Planner resolution as eigh pays it per call (memoized heuristic).
  {
    const tdg::eig::EvdOptions o;
    const double s = timed(tr, "plan.resolve", 200, [&] {
      tdg::plan::resolve_and_validate(
          tdg::plan::ProblemShape{32, true, 0, tdg::plan::EvdMode::kStandard},
          o.plan, o.tridiag, o.knobs);
    });
    report.add("plan.resolve_us", s * 1e6, "us", 200);
    // First resolution of shapes the planner has not seen in this process.
    std::vector<double> cold;
    for (const index_t n : {301, 603, 1207, 2411, 4823}) {
      cold.push_back(timed(tr, "plan.resolve", 1, [&] {
        tdg::plan::resolve_and_validate(
            tdg::plan::ProblemShape{n, true, 0, tdg::plan::EvdMode::kStandard},
            o.plan, o.tridiag, o.knobs);
      }));
    }
    report.add("plan.resolve_cold_us", median(cold) * 1e6, "us", cold.size());
  }
  return overhead;
}

// ---- serve probe --------------------------------------------------------------

void probe_serve(const Config& cfg, Tracer& tr, Report& report) {
  const RequestPool pool = make_request_pool(cfg.seed);
  const std::unique_ptr<tdg::serve::ServeCore> core =
      serve_setup(cfg, pool, tr, report);
  const StepResult low = run_step(*core, pool, kLowRate, kServeStepSeconds,
                                  mix_seed(cfg.seed, 0x10), tr, report);
  const StepResult high = run_step(*core, pool, kHighRate, kServeStepSeconds,
                                   mix_seed(cfg.seed, 0x11), tr, report);
  const tdg::serve::ServeStats st = core->stats();
  std::vector<double> q = low.queue_ms;
  q.insert(q.end(), high.queue_ms.begin(), high.queue_ms.end());
  std::vector<double> sv = low.solve_ms;
  sv.insert(sv.end(), high.solve_ms.begin(), high.solve_ms.end());
  std::vector<double> lag = low.gen_lag_ms;
  lag.insert(lag.end(), high.gen_lag_ms.begin(), high.gen_lag_ms.end());
  const double sent = static_cast<double>(low.sent + high.sent);
  for (const StepResult* s : {&low, &high}) {
    const Tail lat = tail(s->latency_ms);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "serve probe: %.0f req/s for %.1f s, sent %lld, latency "
                  "p50 %.3g ms, tail %.3g ms (q=%.4f), backlog %s, checked %lld",
                  s->rate, kServeStepSeconds, s->sent, median(s->latency_ms),
                  lat.value, lat.q, s->growing ? "growing" : "steady",
                  s->checked);
    report.text(buf);
  }
  report.add("serve.queue_ms.p50", median(q), "ms", q.size());
  report.add("serve.queue_ms.p99", tail(q).value, "ms", q.size());
  report.add("serve.solve_ms.p50", median(sv), "ms", sv.size());
  report.add("serve.solve_ms.p99", tail(sv).value, "ms", sv.size());
  report.add("serve.batch_size.mean",
             st.batches > 0 ? static_cast<double>(st.admitted) /
                                  static_cast<double>(st.batches)
                            : 0.0,
             "count", static_cast<std::size_t>(st.batches));
  report.add("serve.rejected_frac",
             static_cast<double>(low.rejected + high.rejected) / sent, "ratio",
             static_cast<std::size_t>(sent));
  report.add("serve.degraded_frac",
             static_cast<double>(low.degraded + high.degraded) / sent, "ratio",
             static_cast<std::size_t>(sent));
  report.add("serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
             "count", 1);
  report.add("serve.gen_lag_ms.max", *std::max_element(lag.begin(), lag.end()),
             "ms", lag.size());
}

}  // namespace

void run_layer_probes(const Config& cfg, const std::string& workload,
                      Report& report) {
  Tracer tr(true);
  const Overhead dense = probe_dense(cfg, tr, report);
  const Overhead small = probe_small(cfg, tr, report, workload == "tiny_flood");
  probe_serve(cfg, tr, report);
  const Overhead& own = workload == "evd_dense" ? dense : small;
  report.add("obs.trace_overhead_frac", own.frac, "ratio", own.pairs);
  // Next to the binary: inside the build tree of the checkout.
  const std::string path = cfg.exe.substr(0, cfg.exe.rfind('/') + 1) +
                           "perfbench-trace-" + workload + "-" +
                           std::to_string(cfg.seed) + ".json";
  if (tr.write(path)) {
    report.text("spans: " + std::to_string(tr.spans().size()) + " written to " +
                path);
  }
}

}  // namespace perfbench
