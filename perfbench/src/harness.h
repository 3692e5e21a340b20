// Run-wide plumbing for the perfbench workloads: configuration, seeded
// inputs, the benchmark's own span recorder, correctness gates, and the
// report that ends in the one-line JSON result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <tdg/eig.h>

#include "stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Report;

/// Seconds on the benchmark's monotonic clock since the process started.
double now_s();

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured window of the run
  bool trace = false;     // --trace 1: per-layer metrics instead of e2e
  int threads = 1;        // pinned thread budget (TDG_THREADS = nproc)
  bool setup_only = false;  // child mode: run the set-up once, print it
  std::string exe;           // this binary, as invoked (argv[0])
};

/// Number of cold set-ups whose median is setup_s.
inline constexpr int kSetupReps = 11;

/// setup_s: the median over kSetupReps fresh child processes of this binary
/// (--setup-only 1), each timing the workload's set-up from a cold start.
/// A child that fails is a violation.
double cold_setup_median(const Config& cfg, Report& report);

/// One warm-up: the cold first call of an operation, and its excess over
/// the steady median of `reps` further calls of the same operation.
struct Warmup {
  double first = 0.0;
  double excess = 0.0;
};

template <class Fn>
Warmup warmup(Fn&& fn, int reps = 5) {
  double t = now_s();
  fn();
  Warmup w;
  w.first = now_s() - t;
  std::vector<double> steady;
  for (int r = 0; r < reps; ++r) {
    t = now_s();
    fn();
    steady.push_back(now_s() - t);
  }
  w.excess = std::max(0.0, w.first - median(steady));
  return w;
}

/// Deterministic 64-bit stream seed for (run seed, purpose tag).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Seeded random symmetric n x n matrix (the library's generator).
tdg::Matrix make_symmetric(tdg::index_t n, std::uint64_t seed);

/// The benchmark's in-memory span recorder. Spans are recorded around
/// calls into a layer from the benchmark's single measuring thread, nest by
/// scope, and are written out when the run ends. A disabled tracer records
/// nothing and costs one branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  /// Open a span named "<layer>.<call>" until the returned scope ends.
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time of every span whose name starts with `prefix`, over
  /// the spans recorded from index `first` on.
  double self_seconds(const std::string& prefix, std::size_t first = 0) const;

  /// Write the spans as one JSON document ({"spans": [...]}).
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Scaled accuracy of one eigendecomposition, LAPACK test-ratio style.
struct Accuracy {
  double backward = 0.0;  // ||A - V diag(w) V^T||_F / (n ||A||_F eps)
  double orth = 0.0;      // ||V^T V - I||_F / (n eps)
};

/// Fixed acceptance bounds of the correctness gate. FP64 results (the
/// standard path, batch slots, served requests, and mixed requests that
/// fell back to FP64) are held to LAPACK-style test ratios on backward error
/// and orthogonality.
inline constexpr double kBackwardBound = 30.0;
inline constexpr double kOrthBound = 30.0;
/// Mixed-precision results are FP32 vectors refined by FP64 Newton sweeps
/// whose contract (src/eig/refine.h, tests/precision_test.cc) bounds each
/// pair's residual only: max_i ||A v_i - w_i v_i|| <= 50 eps ||A||_F. Their
/// orthogonality depends on the smallest eigenvalue gap and is reported,
/// not gated.
inline constexpr double kMixedResidualBound = 50.0;
/// Eigenvalue agreement between modes: max |w1 - w2| / (n ||A||_F eps).
inline constexpr double kAgreeBound = 30.0;

Accuracy accuracy(tdg::ConstMatrixView a, const std::vector<double>& w,
                  tdg::ConstMatrixView v);

/// max_i ||A v_i - w_i v_i||_2 / (eps ||A||_F): the refinement's own
/// acceptance measure.
double pair_residual(tdg::ConstMatrixView a, const std::vector<double>& w,
                     tdg::ConstMatrixView v);

/// max_i |w1[i] - w2[i]| / (n ||A||_F eps); +inf on a length mismatch.
double eigenvalue_gap(tdg::ConstMatrixView a, const std::vector<double>& w1,
                      const std::vector<double>& w2);

/// Bitwise identity of two results (eigenvalues and eigenvectors).
bool bitwise_equal(const tdg::eig::EvdResult& x, const tdg::eig::EvdResult& y);

/// Everything a run reports. Metrics added with add() form the final JSON;
/// detail() lines are printed for people only. Every line carries its unit
/// and sample count.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n);
  void detail(const std::string& name, double value, const std::string& unit,
              std::size_t n);
  void text(const std::string& line);

  /// A correctness-gate violation: the run is marked incorrect and `count`
  /// operations are counted as failed.
  void violation(const std::string& what, long long count = 1);
  void attempted(long long k = 1) { attempted_ += k; }
  void failed(long long k = 1) { failed_ += k; }

  bool correct() const { return violations_ == 0; }
  long long failures() const { return failed_; }

  /// Print the human lines, then the JSON result as the last stdout line.
  void print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> lines_;
  long long attempted_ = 0;
  long long failed_ = 0;
  long long violations_ = 0;
};

// The workloads. Each fills `report` with either its end-to-end metrics
// (cfg.trace == false) or the per-layer metrics of the traced run.
void run_evd_dense(const Config& cfg, Report& report);
void run_tiny_flood(const Config& cfg, Report& report);

// Each workload's set-up, timed in the calling process: pool start, planner
// resolution for every shape the workload uses, and the cold first call of
// each warm-up operation (time to first result).
double setup_evd_dense(const Config& cfg, Report& report);
double setup_tiny_flood(const Config& cfg, Report& report);

}  // namespace perfbench
