#include "harness.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "la/blas.h"
#include "la/generate.h"

namespace perfbench {

namespace {
const Clock::time_point kEpoch = Clock::now();

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 over (seed, tag): decorrelated streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + tag + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

tdg::Matrix make_symmetric(tdg::index_t n, std::uint64_t seed) {
  tdg::Rng rng(seed);
  return tdg::random_symmetric(n, rng);
}

double cold_setup_median(const Config& cfg, Report& report) {
  const std::string cmd = "'" + cfg.exe + "' --workload " + cfg.workload +
                          " --seed " + std::to_string(cfg.seed) +
                          " --seconds 1 --trace 0 --setup-only 1";
  std::vector<double> runs;
  for (int r = 0; r < kSetupReps; ++r) {
    std::fflush(stdout);
    std::FILE* p = popen(cmd.c_str(), "r");
    if (p == nullptr) break;
    char line[512];
    double v = std::nan("");
    while (std::fgets(line, sizeof line, p) != nullptr) {
      if (std::strncmp(line, "SETUP ", 6) == 0) v = std::atof(line + 6);
    }
    if (pclose(p) != 0 || !std::isfinite(v)) {
      report.violation("setup: child set-up run failed");
      continue;
    }
    runs.push_back(v);
  }
  return median(runs);
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (!t_->enabled_) return;
  index_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(Span{name, t_->open_, now_s(), 0.0});
  t_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = t_->spans_[static_cast<std::size_t>(index_)];
  s.t1 = now_s();
  t_->open_ = s.parent;
}

double Tracer::self_seconds(const std::string& prefix,
                            std::size_t first) const {
  const std::vector<double> self = self_times(spans_);
  double sum = 0.0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].name.compare(0, prefix.size(), prefix) == 0) sum += self[i];
  }
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans_);
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"t0\": %.9f, \"t1\": %.9f, \"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.t0, s.t1, self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- correctness gates -----------------------------------------------------

Accuracy accuracy(tdg::ConstMatrixView a, const std::vector<double>& w,
                  tdg::ConstMatrixView v) {
  using tdg::Trans;
  const tdg::index_t n = a.rows;
  const double eps = std::numeric_limits<double>::epsilon();
  Accuracy acc;
  if (n == 0) return acc;
  // R = A (full symmetric, from the lower triangle) - V diag(w) V^T.
  tdg::Matrix r(n, n);
  for (tdg::index_t j = 0; j < n; ++j) {
    for (tdg::index_t i = j; i < n; ++i) {
      r(i, j) = a(i, j);
      r(j, i) = a(i, j);
    }
  }
  const double anorm = tdg::frobenius_norm(r.view());
  tdg::Matrix vw(n, n);
  for (tdg::index_t j = 0; j < n; ++j) {
    for (tdg::index_t i = 0; i < n; ++i) vw(i, j) = v(i, j) * w[j];
  }
  tdg::la::gemm(Trans::kNo, Trans::kTrans, -1.0, vw.view(), v, 1.0, r.view());
  const double nd = static_cast<double>(n);
  acc.backward = tdg::frobenius_norm(r.view()) /
                 (nd * std::max(anorm, 1e-300) * eps);
  tdg::Matrix g = tdg::Matrix::identity(n);
  tdg::la::gemm(Trans::kTrans, Trans::kNo, 1.0, v, v, -1.0, g.view());
  acc.orth = tdg::frobenius_norm(g.view()) / (nd * eps);
  return acc;
}

double pair_residual(tdg::ConstMatrixView a, const std::vector<double>& w,
                     tdg::ConstMatrixView v) {
  const tdg::index_t n = a.rows;
  tdg::Matrix full(n, n);
  for (tdg::index_t j = 0; j < n; ++j) {
    for (tdg::index_t i = j; i < n; ++i) {
      full(i, j) = a(i, j);
      full(j, i) = a(i, j);
    }
  }
  tdg::Matrix av(n, n);
  tdg::la::gemm(tdg::Trans::kNo, tdg::Trans::kNo, 1.0, full.view(), v, 0.0,
                av.view());
  double worst = 0.0;
  for (tdg::index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (tdg::index_t i = 0; i < n; ++i) {
      const double d = av(i, j) - w[static_cast<std::size_t>(j)] * v(i, j);
      s += d * d;
    }
    worst = std::max(worst, std::sqrt(s));
  }
  return worst / (std::max(tdg::frobenius_norm(full.view()), 1e-300) *
                  std::numeric_limits<double>::epsilon());
}

double eigenvalue_gap(tdg::ConstMatrixView a, const std::vector<double>& w1,
                      const std::vector<double>& w2) {
  if (w1.size() != w2.size()) return std::numeric_limits<double>::infinity();
  double anorm = 0.0;
  for (tdg::index_t j = 0; j < a.cols; ++j) {
    for (tdg::index_t i = j; i < a.rows; ++i) {
      anorm += (i == j ? 1.0 : 2.0) * a(i, j) * a(i, j);
    }
  }
  anorm = std::sqrt(anorm);
  double gap = 0.0;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    gap = std::max(gap, std::abs(w1[i] - w2[i]));
  }
  const double scale = static_cast<double>(a.rows) * std::max(anorm, 1e-300) *
                       std::numeric_limits<double>::epsilon();
  return gap / scale;
}

bool bitwise_equal(const tdg::eig::EvdResult& x,
                   const tdg::eig::EvdResult& y) {
  const auto same = [](const double* p, const double* q, std::size_t k) {
    return k == 0 || std::memcmp(p, q, k * sizeof(double)) == 0;
  };
  const tdg::Matrix& vx = x.eigenvectors;
  const tdg::Matrix& vy = y.eigenvectors;
  return x.eigenvalues.size() == y.eigenvalues.size() &&
         same(x.eigenvalues.data(), y.eigenvalues.data(),
              x.eigenvalues.size()) &&
         vx.rows() == vy.rows() && vx.cols() == vy.cols() &&
         same(vx.data(), vy.data(),
              static_cast<std::size_t>(vx.rows() * vx.cols()));
}

// ---- report ----------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t n) {
  metrics_.push_back({name, value, unit, n});
  detail(name, value, unit, n);
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit, std::size_t n) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "  %-34s %14.6g %-6s (N=%zu)", name.c_str(),
                value, unit.c_str(), n);
  lines_.push_back(buf);
}

void Report::text(const std::string& line) { lines_.push_back(line); }

void Report::violation(const std::string& what, long long count) {
  ++violations_;
  failed_ += count;
  lines_.push_back("  VIOLATION: " + what);
}

void Report::print() const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  const long long attempted = std::max(attempted_, 1LL);
  std::printf("  %-34s %14.6g %-6s (N=%lld)\n", "failed_frac",
              static_cast<double>(failed_) / static_cast<double>(attempted),
              "ratio", attempted);
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
