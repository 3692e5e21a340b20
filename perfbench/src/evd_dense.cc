// evd_dense: one caller in a closed loop runs eig::eigh on seeded random
// symmetric n = kDenseN matrices, cycling standard -> values-only -> mixed
// precision on the same matrix, so every values-only and mixed result is
// checked against the standard one of its cycle.
#include <algorithm>
#include <cstdio>

#include "common/thread_pool.h"
#include "harness.h"
#include "la/workspace.h"
#include "layers.h"

namespace perfbench {

namespace {

using tdg::plan::EvdMode;

constexpr EvdMode kModes[] = {EvdMode::kStandard, EvdMode::kValuesOnly,
                              EvdMode::kMixedPrecision};
constexpr const char* kModeNames[] = {"standard", "values_only", "mixed"};

tdg::eig::EvdOptions mode_options(EvdMode mode) {
  tdg::eig::EvdOptions o;
  o.mode = mode;
  o.vectors = mode != EvdMode::kValuesOnly;
  return o;
}

/// Worst gate ratios seen over a run, for the summary line.
struct GateWorst {
  double backward = 0.0;      // FP64 results
  double orth = 0.0;          // FP64 results
  double residual_mixed = 0.0;
  double backward_mixed = 0.0;  // reported, not gated
  double orth_mixed = 0.0;      // reported, not gated
  double gap = 0.0;
};

/// Gate one solve against the bounds of the precision that produced it and
/// against the standard result of its cycle (`ref`, null for the standard
/// solve itself).
void gate(const tdg::Matrix& a, EvdMode mode, const tdg::eig::EvdResult& r,
          const tdg::eig::EvdResult* ref, GateWorst& worst, Report& report) {
  const char* name = kModeNames[static_cast<int>(mode)];
  char buf[200];
  if (r.mode == EvdMode::kMixedPrecision) {
    const Accuracy acc = accuracy(a.view(), r.eigenvalues, r.eigenvectors.view());
    const double res =
        pair_residual(a.view(), r.eigenvalues, r.eigenvectors.view());
    worst.residual_mixed = std::max(worst.residual_mixed, res);
    worst.backward_mixed = std::max(worst.backward_mixed, acc.backward);
    worst.orth_mixed = std::max(worst.orth_mixed, acc.orth);
    if (!(res <= kMixedResidualBound)) {
      std::snprintf(buf, sizeof buf,
                    "evd_dense %s: pair residual %.3g (bound %.0f)", name, res,
                    kMixedResidualBound);
      report.violation(buf);
    }
  } else if (r.mode == EvdMode::kStandard) {
    const Accuracy acc = accuracy(a.view(), r.eigenvalues, r.eigenvectors.view());
    worst.backward = std::max(worst.backward, acc.backward);
    worst.orth = std::max(worst.orth, acc.orth);
    if (!(acc.backward <= kBackwardBound) || !(acc.orth <= kOrthBound)) {
      std::snprintf(buf, sizeof buf,
                    "evd_dense %s: backward %.3g (bound %.0f), orth %.3g "
                    "(bound %.0f)",
                    name, acc.backward, kBackwardBound, acc.orth, kOrthBound);
      report.violation(buf);
    }
  }
  if (ref != nullptr) {
    const double gap = eigenvalue_gap(a.view(), r.eigenvalues, ref->eigenvalues);
    worst.gap = std::max(worst.gap, gap);
    if (!(gap <= kAgreeBound)) {
      std::snprintf(buf, sizeof buf,
                    "evd_dense %s: eigenvalues differ from standard by %.3g "
                    "(bound %.0f)",
                    name, gap, kAgreeBound);
      report.violation(buf);
    }
  }
}

}  // namespace

double setup_evd_dense(const Config& cfg, Report& report) {
  double t = now_s();
  tdg::ThreadPool::global();
  const double pool_s = now_s() - t;
  t = now_s();
  for (EvdMode mode : kModes) {
    const tdg::eig::EvdOptions o = mode_options(mode);
    tdg::plan::resolve_and_validate(
        tdg::plan::ProblemShape{kDenseN, o.vectors, 0, mode}, o.plan, o.tridiag,
        tdg::eig::merged_knobs(o));
  }
  const double plan_s = now_s() - t;
  const tdg::Matrix w = make_symmetric(kDenseWarmN, mix_seed(cfg.seed, 0x3a53));
  t = now_s();
  for (EvdMode mode : kModes) tdg::eig::eigh(w.view(), mode_options(mode));
  const double first_s = now_s() - t;
  report.detail("setup.pool_s", pool_s, "s", 1);
  report.detail("setup.plan_s", plan_s, "s", 1);
  report.detail("setup.first_calls_s", first_s, "s", 3);
  return pool_s + plan_s + first_s;
}

void run_evd_dense(const Config& cfg, Report& report) {
  if (cfg.trace) {
    run_layer_probes(cfg, "evd_dense", report);
    return;
  }
  const tdg::index_t n = kDenseN;
  const double setup_s = cold_setup_median(cfg, report);

  GateWorst worst;
  // One untimed, gated cycle at full size before the window: the first
  // solve of each mode pays its first-touch costs outside the timed
  // samples, and the standard solve gives the workspace high-water mark.
  std::size_t peak_bytes = 0;
  {
    const tdg::Matrix a = make_symmetric(n, mix_seed(cfg.seed, 0x9ea4));
    tdg::eig::EvdResult ref;
    for (int m = 0; m < 3; ++m) {
      report.attempted();
      tdg::la::workspace_reset_peak();
      try {
        tdg::eig::EvdResult r =
            tdg::eig::eigh(a.view(), mode_options(kModes[m]));
        if (m == 0) peak_bytes = tdg::la::workspace_peak_bytes();
        gate(a, kModes[m], r, m == 0 ? nullptr : &ref, worst, report);
        if (m == 0) ref = std::move(r);
      } catch (const std::exception& e) {
        report.violation(std::string("evd_dense eigh threw: ") + e.what());
      }
    }
  }

  std::vector<double> samples[3];
  long long fp32_fallbacks = 0;
  long long mixed_calls = 0;
  // A call starts only while the measured window is open; cycle 0 always
  // runs whole so every mode has a sample.
  const double window_start = now_s();
  for (std::uint64_t cycle = 0;; ++cycle) {
    const tdg::Matrix a = make_symmetric(n, mix_seed(cfg.seed, cycle));
    tdg::eig::EvdResult ref;
    for (int m = 0; m < 3; ++m) {
      if (cycle >= 1 && now_s() - window_start >= cfg.seconds) break;
      const tdg::eig::EvdOptions o = mode_options(kModes[m]);
      report.attempted();
      tdg::eig::EvdResult r;
      const double t0 = now_s();
      try {
        r = tdg::eig::eigh(a.view(), o);
      } catch (const std::exception& e) {
        report.violation(std::string("evd_dense eigh threw: ") + e.what());
        continue;
      }
      const double dt = now_s() - t0;
      samples[m].push_back(dt);
      if (kModes[m] == EvdMode::kMixedPrecision) {
        ++mixed_calls;
        if (r.recovery.find("fp32->fp64") != std::string::npos) {
          ++fp32_fallbacks;
        }
      }
      gate(a, kModes[m], r, m == 0 ? nullptr : &ref, worst, report);
      if (m == 0) ref = std::move(r);
    }
    if (now_s() - window_start >= cfg.seconds) break;
  }

  double med[3];
  for (int m = 0; m < 3; ++m) med[m] = median(samples[m]);
  const Tail tl = tail(samples[0]);

  report.text("evd_dense: n=" + std::to_string(n) + ", closed loop, one caller, " +
              std::to_string(cfg.threads) + " threads");
  report.add("setup_s", setup_s, "s", kSetupReps);
  report.add("p50_ms", med[0] * 1e3, "ms", samples[0].size());
  report.detail("tail_ms", tl.value * 1e3, "ms", tl.n);
  report.add("rate_per_s", 3.0 / (med[0] + med[1] + med[2]), "1/s",
             samples[0].size() + samples[1].size() + samples[2].size());
  for (int m = 0; m < 3; ++m) {
    report.detail(std::string("evd_s.") + kModeNames[m], med[m], "s",
                  samples[m].size());
    std::string line = std::string("    samples ") + kModeNames[m] + ":";
    for (double v : samples[m]) line += " " + std::to_string(v);
    report.text(line);
  }
  report.detail("tail_ms.q", tl.q, "ratio", tl.n);
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "  gate: FP64 worst backward %.3g (bound %.0f), orth %.3g "
                "(bound %.0f); mixed worst pair residual %.3g (bound %.0f), "
                "backward %.3g and orth %.3g (not gated); eigenvalue gap %.3g "
                "(bound %.0f)",
                worst.backward, kBackwardBound, worst.orth, kOrthBound,
                worst.residual_mixed, kMixedResidualBound,
                worst.backward_mixed, worst.orth_mixed, worst.gap,
                kAgreeBound);
  report.text(buf);
  report.detail("peak_workspace_mb", static_cast<double>(peak_bytes) / 1e6,
                "MB", 1);
  report.detail("eig.fp32_fallback_frac",
                mixed_calls > 0 ? static_cast<double>(fp32_fallbacks) /
                                      static_cast<double>(mixed_calls)
                                : 0.0,
                "ratio", static_cast<std::size_t>(mixed_calls));
}

}  // namespace perfbench
