#include "bc/band_to_band.h"

#include <algorithm>

#include "obs/obs.h"

namespace tdg::bc {

namespace {

struct NoWait {
  void operator()(index_t) const {}
};

}  // namespace

void reduce_band(SymBandMatrix& band, index_t b, index_t d, ChaseLog* log) {
  const index_t n = band.n();
  TDG_CHECK(b >= 1 && d >= 1 && d <= b, "reduce_band: need 1 <= d <= b");
  TDG_CHECK(band.kd() >= std::min(2 * b - d, n - 1),
            "reduce_band: storage bandwidth must be >= 2b - d");

  const index_t nsweeps = std::max<index_t>(n - d - 1, 0);
  if (log != nullptr) {
    log->n = n;
    log->b = b;
    log->sweeps.assign(static_cast<std::size_t>(nsweeps), SweepReflectors{});
  }
  if (d >= b || n <= d + 1) return;  // already at (or below) the target

  obs::Span span("reduce_band");
  span.attr("n", n);
  span.attr("b", b);
  span.attr("d", d);

  PackedLowerAccessor<double> acc{&band};
  for (index_t i = 0; i < nsweeps; ++i) {
    SweepReflectors* sl =
        (log != nullptr) ? &log->sweeps[static_cast<std::size_t>(i)] : nullptr;
    chase_sweep(acc, b, i, sl, NoWait{}, NoWait{}, d);
  }
}

std::vector<ChaseLog> multi_step_tridiag(SymBandMatrix& band, index_t b,
                                         const std::vector<index_t>& steps) {
  std::vector<index_t> plan = steps;
  plan.push_back(1);
  index_t cur = b;
  std::vector<ChaseLog> logs;
  logs.reserve(plan.size());
  for (index_t d : plan) {
    TDG_CHECK(d >= 1 && d < cur,
              "multi_step_tridiag: bandwidths must strictly decrease");
    ChaseLog log;
    reduce_band(band, cur, d, &log);
    logs.push_back(std::move(log));
    cur = d;
  }
  return logs;
}

}  // namespace tdg::bc
