// The serve probe: an open loop into an in-process serve::ServeCore from
// one generator thread, over the bench/bench_serve.cc shape mix, at fixed
// arrival rates. Latency is timed client-side from each request's due time;
// the same thread polls the response futures, so no server-side percentile
// is read.
#include "serve_probe.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include <tdg/serve.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flood.h"

namespace perfbench {

namespace {

constexpr std::size_t kPoolSize = 512;
constexpr std::uint64_t kSampleEvery = 64;  // ~1 in 64 requests re-checked
constexpr double kPollSeconds = 200e-6;
constexpr double kDrainTimeoutSeconds = 60.0;

struct InFlight {
  std::size_t proto = 0;
  double due = 0.0;
  tdg::serve::Ticket ticket;
  bool sampled = false;
};

}  // namespace

RequestPool make_request_pool(std::uint64_t seed) {
  // Fixed proportions, seeded order: the pool cycles through kServeShapes.
  std::vector<tdg::index_t> sizes(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    sizes[i] = kServeShapes[i % std::size(kServeShapes)];
  }
  tdg::Rng rng(mix_seed(seed, 0x5e7e));
  for (std::size_t i = kPoolSize; i > 1; --i) {
    std::swap(sizes[i - 1], sizes[rng.bounded(i)]);
  }
  RequestPool pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    pool.mats.push_back(make_symmetric(sizes[i], mix_seed(seed, 0x20000 + i)));
  }
  return pool;
}

tdg::serve::ServeOptions serve_options(const Config& cfg) {
  tdg::serve::ServeOptions o;
  // Batch executors. The dispatcher thread is itself one of them, so
  // nproc - 2 leaves one core to the generator and one to the rest of the
  // service and the OS. With nproc - 1 the generator's p99 lateness reads
  // 3-5 ms on a 4-vCPU host (the scheduler, not the program), with
  // nproc - 2 about 0.2 ms at the same capacity.
  o.threads = std::max(1, cfg.threads - 2);
  // Overload must show as backlog and latency, never as admission rejects.
  o.queue_capacity = 1 << 20;
  return o;
}

StepResult run_step(tdg::serve::ServeCore& core, const RequestPool& pool,
                    double rate, double seconds, std::uint64_t seed,
                    Tracer& tracer, Report& report) {
  StepResult res;
  res.rate = rate;
  std::vector<InFlight> inflight;
  // Sampled responses awaiting their determinism check: (proto, response).
  std::vector<std::pair<std::size_t, tdg::serve::Response>> kept;
  tdg::Rng rng(seed);
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  double last_sample = -1.0;
  std::uint64_t k = 0;
  bool sending = true;
  const double drain_deadline = t_end + kDrainTimeoutSeconds;

  const auto poll = [&](double now) {
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.ticket.response.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      tdg::serve::Response r = f.ticket.response.get();
      const double lat_ms = (now - f.due) * 1e3;
      const bool solved = r.outcome == tdg::serve::Outcome::kCompleted ||
                          r.outcome == tdg::serve::Outcome::kDegraded;
      if (solved) {
        res.latency_ms.push_back(lat_ms);
        res.queue_ms.push_back(r.queue_ms);
        res.solve_ms.push_back(r.solve_ms);
        if (r.outcome == tdg::serve::Outcome::kDegraded) ++res.degraded;
        const tdg::Matrix& a = pool.mats[f.proto];
        if (r.result.eigenvalues.size() != static_cast<std::size_t>(a.rows())) {
          report.violation("serve probe: response has the wrong eigenvalue count");
        } else if (f.sampled) {
          kept.emplace_back(f.proto, std::move(r));
        }
      } else {
        // A refused or failed request misses every latency limit.
        res.latency_ms.push_back(std::numeric_limits<double>::infinity());
        if (r.outcome == tdg::serve::Outcome::kRejected) {
          ++res.rejected;
        } else {
          ++res.failed;
        }
      }
      inflight[i] = std::move(inflight.back());
      inflight.pop_back();
    }
  };

  for (;;) {
    const double now = now_s();
    poll(now);
    if (now - last_sample >= 1e-3) {
      res.backlog.emplace_back(now - t0, static_cast<double>(inflight.size()));
      last_sample = now;
    }
    if (sending) {
      const double due = t0 + static_cast<double>(k) / rate;
      if (due >= t_end) {
        sending = false;
        continue;
      }
      if (now >= due) {
        InFlight f;
        f.proto = k % pool.mats.size();
        f.due = due;
        f.sampled = rng.bounded(kSampleEvery) == 0;
        const tdg::Matrix& proto = pool.mats[f.proto];
        tdg::Matrix a(proto.rows(), proto.cols());
        tdg::copy(proto.view(), a.view());
        {
          auto span = tracer.span("serve.submit");
          f.ticket = core.submit(std::move(a));
        }
        res.gen_lag_ms.push_back((now_s() - due) * 1e3);
        inflight.push_back(std::move(f));
        ++res.sent;
        ++k;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(kPollSeconds, due - now)));
      continue;
    }
    if (inflight.empty()) break;
    if (now > drain_deadline) {
      report.violation("serve probe: requests still unresolved " +
                       std::to_string(kDrainTimeoutSeconds) +
                       " s after the step");
      res.failed += static_cast<long long>(inflight.size());
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }
  res.growing = backlog_growing(res.backlog, rate);
  // Lateness is checked where the step was sustainable. On a step beyond
  // capacity it is part of the overload, and it is already counted in that
  // step's latencies.
  const Tail lag = tail(res.gen_lag_ms);
  if (!res.growing && tail(res.latency_ms).value <= kLatencyLimitMs &&
      lag.value > kGenLagLimitMs) {
    report.violation("serve probe: generator ran late (p99 " +
                     std::to_string(lag.value) + " ms > limit " +
                     std::to_string(kGenLagLimitMs) + " ms)");
  }

  // Determinism contract on the sampled responses.
  for (const auto& [proto, r] : kept) {
    tdg::eig::BatchOptions bopts;
    bopts.mode = r.mode;
    bopts.vectors = r.mode != tdg::plan::EvdMode::kValuesOnly;
    check_batch_slot(pool.mats[proto].view(), bopts, r.result, "serve probe",
                     report);
    ++res.checked;
  }
  report.attempted(res.sent);
  report.failed(res.rejected + res.failed);
  return res;
}

namespace {

/// One request, waited for: the closed-loop latency of a single solve.
void closed_request(tdg::serve::ServeCore& core, const tdg::Matrix& proto) {
  tdg::Matrix a(proto.rows(), proto.cols());
  tdg::copy(proto.view(), a.view());
  core.submit(std::move(a)).response.get();
}

}  // namespace

std::unique_ptr<tdg::serve::ServeCore> serve_setup(const Config& cfg,
                                                   const RequestPool& pool,
                                                   Tracer& tracer,
                                                   Report& report) {
  double t = now_s();
  {
    auto span = tracer.span("common.pool_start");
    tdg::ThreadPool::global();
  }
  const double pool_s = now_s() - t;
  t = now_s();
  {
    auto span = tracer.span("plan.resolve");
    const tdg::eig::BatchOptions bopts;
    for (tdg::index_t n : kServeShapes) tdg::eig::batch_bucket_plan(n, bopts);
  }
  const double plan_s = now_s() - t;
  t = now_s();
  std::unique_ptr<tdg::serve::ServeCore> core;
  {
    auto span = tracer.span("serve.construct");
    core = std::make_unique<tdg::serve::ServeCore>(serve_options(cfg));
  }
  const double ctor_s = now_s() - t;
  // Warm-up: one closed request per pow2 shape bucket the pool holds.
  double first = 0.0;
  double excess = 0.0;
  std::vector<tdg::index_t> seen;
  for (const tdg::Matrix& m : pool.mats) {
    tdg::index_t b = 1;
    while (b < m.rows()) b *= 2;
    if (std::find(seen.begin(), seen.end(), b) != seen.end()) continue;
    seen.push_back(b);
    auto span = tracer.span("serve.warmup");
    const Warmup wu = warmup([&] { closed_request(*core, m); });
    first += wu.first;
    excess += wu.excess;
  }
  report.detail("serve.setup.pool_s", pool_s, "s", 1);
  report.detail("serve.setup.plan_s", plan_s, "s", 1);
  report.detail("serve.setup.servecore_s", ctor_s, "s", 1);
  report.detail("serve.setup.warmup_first_s", first, "s", seen.size());
  report.detail("serve.setup.warmup_excess_s", excess, "s", seen.size());
  return core;
}

}  // namespace perfbench
