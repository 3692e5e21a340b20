// Sample statistics and span arithmetic shared by every workload.
//
// Everything here is pure (no clocks, no library calls) so the selftest
// can pin it down exactly: percentile selection with its sample count,
// span self time, and the backlog test of an open-loop serve step.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even N); NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  const std::size_t h = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(h), v.end());
  const double hi = v[h];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(h)) +
          hi) / 2.0;
}

/// A tail statistic with the percentile it actually reports and the sample
/// count it came from.
struct Tail {
  double value = 0.0;
  double q = 0.0;     // fraction of samples at or below `value`
  std::size_t n = 0;  // sample count
};

/// The tail a timing is reported with: the `cap` percentile (nearest rank)
/// when at least ten samples lie beyond it, else the highest percentile that
/// still has ten samples beyond it. When that percentile would fall below
/// the median (N < 20) no informative percentile exists and the maximum is
/// reported with q = 1. Empty input gives n = 0 and a NaN value.
inline Tail tail(std::vector<double> v, double cap = 0.99) {
  Tail t;
  t.n = v.size();
  if (v.empty()) {
    t.value = std::nan("");
    return t;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // 1-based nearest rank of the cap percentile, then pulled down so ten
  // samples remain above it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(cap * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n >= 10) rank = std::min(rank, n - 10);
  if (n < 20 || rank < (n + 1) / 2) rank = n;
  t.value = v[rank - 1];
  t.q = static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

/// One benchmark span: a call into a layer, timed on the benchmark's own
/// clock (seconds since the run's epoch). `parent` is the index of the
/// enclosing span in the same vector, or -1.
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "sbr.dbbr"
  int parent = -1;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (child intervals are clipped to the
/// parent and overlapping children are counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].t0;
    const double hi = spans[i].t1;
    std::vector<std::pair<double, double>>& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (const auto& [a0, a1] : iv) {
      const double c0 = std::max(a0, lo);
      const double c1 = std::min(a1, hi);
      if (c1 <= c0) continue;
      if (open && c0 <= cur_hi) {
        cur_hi = std::max(cur_hi, c1);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = c0;
      cur_hi = c1;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Backlog test of one open-loop rate step. `samples` are (seconds into the
/// step, requests sent but not yet resolved). The first `warm` fraction of
/// the step is ignored (the queue fills from empty); over the rest, the
/// least-squares slope of the backlog is compared against `frac` of the
/// offered rate. A step whose backlog grows faster than that is not
/// sustainable, however its latency reads so far.
inline bool backlog_growing(const std::vector<std::pair<double, double>>& samples,
                            double rate, double frac = 0.05,
                            double warm = 0.2) {
  if (samples.size() < 3) return false;
  const double t_end = samples.back().first;
  const double t_begin = samples.front().first;
  const double cut = t_begin + warm * (t_end - t_begin);
  double n = 0.0, st = 0.0, sy = 0.0, stt = 0.0, sty = 0.0;
  for (const auto& [t, y] : samples) {
    if (t < cut) continue;
    n += 1.0;
    st += t;
    sy += y;
    stt += t * t;
    sty += t * y;
  }
  const double den = n * stt - st * st;
  if (n < 3.0 || den <= 0.0) return false;
  const double slope = (n * sty - st * sy) / den;
  return slope > frac * rate;
}

}  // namespace perfbench
