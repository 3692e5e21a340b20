// The serve layer's probe in the traced run: the seeded request pool, one
// open-loop rate step into an in-process serve::ServeCore, and the service
// set-up. Latency is timed client-side from each request's due time; no
// server-side percentile is read.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include <tdg/serve.h>

#include "harness.h"

namespace perfbench {

/// The request shapes of bench/bench_serve.cc: two coalescible buckets plus
/// strays, a few hot sizes and a long tail. The pool holds them in these
/// proportions, in a seeded order.
inline constexpr tdg::index_t kServeShapes[] = {48, 64, 64, 96, 96, 96, 128, 57};
/// A step is sustainable when its tail latency from due time stays within
/// kLatencyLimitMs and its backlog does not grow. On a sustainable step the
/// generator may run at most kGenLagLimitMs late (p99 of due-to-submit
/// lag), a fifth of the latency limit, or the run fails: the limit guards
/// that the loop stays open, so that the service and not the generator
/// shapes the figures.
inline constexpr double kLatencyLimitMs = 100.0;
inline constexpr double kGenLagLimitMs = kLatencyLimitMs / 5.0;
/// The low and high rate steps, well below the capacity a 4-vCPU host
/// measures for this shape mix, so that queueing does not turn small speed
/// changes of a shared host into large latency changes.
inline constexpr double kLowRate = 50.0;
inline constexpr double kHighRate = 150.0;

/// Pre-generated request matrices; request k sends a copy of mats[k % size].
struct RequestPool {
  std::vector<tdg::Matrix> mats;
};

RequestPool make_request_pool(std::uint64_t seed);

tdg::serve::ServeOptions serve_options(const Config& cfg);

/// Client-side record of one open-loop step.
struct StepResult {
  double rate = 0.0;
  long long sent = 0;
  long long degraded = 0;
  long long rejected = 0;
  long long failed = 0;
  long long checked = 0;              // responses re-checked bitwise
  std::vector<double> latency_ms;     // due -> resolution; +inf if not solved
  std::vector<double> queue_ms;       // server's admit -> dispatch, per request
  std::vector<double> solve_ms;       // server's dispatch -> resolution
  std::vector<double> gen_lag_ms;     // due -> submit returned
  std::vector<std::pair<double, double>> backlog;  // (s into step, in flight)
  bool growing = false;               // backlog_growing() verdict
};

/// Offer `rate` requests per second for `seconds`, then wait for every
/// response. Sampled responses are checked against the determinism
/// contract; attempted and failed requests are counted into `report`, and
/// a generator that ran late on a sustainable step is a violation.
StepResult run_step(tdg::serve::ServeCore& core, const RequestPool& pool,
                    double rate, double seconds, std::uint64_t seed,
                    Tracer& tracer, Report& report);

/// The service set-up: pool start, bucket plans for every shape, ServeCore
/// construction, and one closed warm-up request per shape bucket. Parts
/// are added to `report` as detail lines and to `tracer` as spans.
std::unique_ptr<tdg::serve::ServeCore> serve_setup(const Config& cfg,
                                                   const RequestPool& pool,
                                                   Tracer& tracer,
                                                   Report& report);

}  // namespace perfbench
