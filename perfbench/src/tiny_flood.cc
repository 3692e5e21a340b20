// tiny_flood: offline eig::eigh_batched over a few thousand small problems
// (sizes drawn by seed from n = 8..48, vectors on) on every pool worker.
// Per-call driver, plan and workspace overhead dominates here.
#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flood.h"
#include "harness.h"
#include "layers.h"

namespace perfbench {

Flood make_flood(std::uint64_t seed, std::size_t count) {
  // Every size in [kFloodMinN, kFloodMaxN] appears equally often (up to one
  // problem), in an order the seed shuffles: the seed moves which problem
  // sits where, not how much work a batch holds.
  const auto span = static_cast<std::size_t>(kFloodMaxN - kFloodMinN + 1);
  std::vector<tdg::index_t> sizes(count);
  for (std::size_t i = 0; i < count; ++i) {
    sizes[i] = kFloodMinN + static_cast<tdg::index_t>(i % span);
  }
  tdg::Rng rng(mix_seed(seed, 0xf100d));
  for (std::size_t i = count; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.bounded(i)]);
  }
  Flood f;
  f.mats.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    f.mats.push_back(make_symmetric(sizes[i], mix_seed(seed, 0x10000 + i)));
  }
  for (const tdg::Matrix& m : f.mats) f.views.push_back(m.view());
  return f;
}

tdg::eig::EvdOptions solo_options(const tdg::eig::BatchOptions& b) {
  tdg::eig::EvdOptions o;
  o.vectors = b.vectors;
  o.mode = b.mode;
  o.solver = b.solver;
  o.tridiag = b.tridiag;
  o.tridiag.threads = 1;
  o.tridiag.bc_threads = 1;
  o.knobs = b.knobs;
  o.check_finite = b.check_finite;
  o.solver_fallback = b.solver_fallback;
  return o;
}

void check_batch_slot(tdg::ConstMatrixView a,
                      const tdg::eig::BatchOptions& bopts,
                      const tdg::eig::EvdResult& got, const char* who,
                      Report& report) {
  const tdg::plan::Plan p = tdg::eig::batch_bucket_plan(a.rows, bopts);
  const tdg::eig::EvdResult solo = tdg::eig::eigh(a, solo_options(bopts), p);
  if (!bitwise_equal(got, solo)) {
    report.violation(std::string(who) + ": result for n=" +
                     std::to_string(a.rows) +
                     " is not bitwise equal to eigh with batch_bucket_plan");
  }
  if (bopts.vectors) {
    const Accuracy acc = accuracy(a, got.eigenvalues, got.eigenvectors.view());
    if (!(acc.backward <= kBackwardBound) || !(acc.orth <= kOrthBound)) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s: n=%lld backward %.3g orth %.3g", who,
                    static_cast<long long>(a.rows), acc.backward, acc.orth);
      report.violation(buf);
    }
  }
}

double setup_tiny_flood(const Config& cfg, Report& report) {
  tdg::eig::BatchOptions bopts;
  bopts.threads = cfg.threads;
  double t = now_s();
  tdg::ThreadPool::global();
  const double pool_s = now_s() - t;
  t = now_s();
  for (tdg::index_t n = kFloodMinN; n < 2 * kFloodMaxN; n *= 2) {
    tdg::eig::batch_bucket_plan(n, bopts);
  }
  const double plan_s = now_s() - t;
  // Time to first result: the first call over the workload's own batch.
  // That is about 0.2 s of work on a 4-vCPU host, so process-start noise
  // does not carry the figure the way it does for a call over a few dozen
  // problems.
  const Flood flood = make_flood(cfg.seed, kFloodProblems);
  t = now_s();
  tdg::eig::eigh_batched(flood.views, bopts);
  const double first_s = now_s() - t;
  report.detail("setup.pool_s", pool_s, "s", 1);
  report.detail("setup.plan_s", plan_s, "s", 1);
  report.detail("setup.first_call_s", first_s, "s", 1);
  return pool_s + plan_s + first_s;
}

void run_tiny_flood(const Config& cfg, Report& report) {
  if (cfg.trace) {
    run_layer_probes(cfg, "tiny_flood", report);
    return;
  }
  const double setup_s = cold_setup_median(cfg, report);
  const Flood flood = make_flood(cfg.seed, kFloodProblems);
  tdg::eig::BatchOptions bopts;
  bopts.threads = cfg.threads;
  // Untimed warm-up calls: the pool, the bucket plans and every worker's
  // workspace are in place before the window opens.
  for (int i = 0; i < 2; ++i) tdg::eig::eigh_batched(flood.views, bopts);

  tdg::Rng pick(mix_seed(cfg.seed, 0x5a3b1e));
  std::vector<double> calls;
  double busy = 0.0;
  long long solved = 0;
  long long steals = 0;
  const double window_start = now_s();
  while (calls.empty() || now_s() - window_start < cfg.seconds) {
    report.attempted(static_cast<long long>(flood.views.size()));
    const double t0 = now_s();
    const tdg::eig::BatchResult r = tdg::eig::eigh_batched(flood.views, bopts);
    const double dt = now_s() - t0;
    calls.push_back(dt);
    busy += dt;
    solved += static_cast<long long>(r.problems - r.failed);
    steals += static_cast<long long>(r.steals);
    if (r.failed > 0) {
      report.violation(
          "tiny_flood: " + std::to_string(r.failed) + " batch slots failed",
          static_cast<long long>(r.failed));
    }
    // Seeded sample of this call's slots against the determinism contract.
    for (int s = 0; s < kFloodSamplePerCall; ++s) {
      const std::size_t i = pick.bounded(flood.views.size());
      if (!r.status[i].ok) continue;
      check_batch_slot(flood.views[i], bopts, r.results[i], "tiny_flood",
                       report);
    }
  }

  const double med = median(calls);
  const Tail tl = tail(calls);
  const double pps = static_cast<double>(solved) / busy;
  report.text("tiny_flood: " + std::to_string(flood.views.size()) +
              " problems per eigh_batched call, n=" +
              std::to_string(kFloodMinN) + ".." + std::to_string(kFloodMaxN) +
              ", vectors on, " + std::to_string(cfg.threads) + " workers");
  report.add("setup_s", setup_s, "s", kSetupReps);
  report.add("p50_ms", med * 1e3, "ms", calls.size());
  report.detail("tail_ms", tl.value * 1e3, "ms", tl.n);
  report.add("rate_per_s", pps, "1/s", static_cast<std::size_t>(solved));
  report.detail("problems_per_s", pps, "1/s", static_cast<std::size_t>(solved));
  report.detail("tail_ms.q", tl.q, "ratio", tl.n);
  report.detail("batched.steals_per_call",
                calls.empty() ? 0.0
                              : static_cast<double>(steals) /
                                    static_cast<double>(calls.size()),
                "count", calls.size());
}

}  // namespace perfbench
