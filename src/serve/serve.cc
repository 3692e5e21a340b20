#include "serve/serve.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "plan/plan_cache.h"

namespace tdg::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             b - a)
      .count();
}

/// serve.* registry metrics, resolved once. All always-on: a request is
/// control-plane traffic and its accounting must survive disarmed metrics.
struct ServeMetrics {
  obs::Counter* submitted;
  obs::Counter* admitted;
  obs::Counter* rejected;
  obs::Counter* completed;
  obs::Counter* degraded;
  obs::Counter* precision_degraded;
  obs::Counter* failed;
  obs::Counter* retries;
  obs::Counter* breaker_trips;
  obs::Counter* batches;
  obs::Counter* deadline_failures;
  obs::Gauge* queue_depth;
  obs::Gauge* queue_depth_hwm;
  obs::Histogram* latency_us;

  static ServeMetrics& get() {
    static ServeMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      const auto always = obs::Gating::kAlways;
      return ServeMetrics{r.counter("serve.submitted", always),
                          r.counter("serve.admitted", always),
                          r.counter("serve.rejected", always),
                          r.counter("serve.completed", always),
                          r.counter("serve.degraded", always),
                          r.counter("serve.precision_degraded", always),
                          r.counter("serve.failed", always),
                          r.counter("serve.retries", always),
                          r.counter("serve.breaker_trips", always),
                          r.counter("serve.batches", always),
                          r.counter("serve.deadline_failures", always),
                          r.gauge("serve.queue_depth", always),
                          r.gauge("serve.queue_depth_hwm", always),
                          r.histogram("serve.latency_us", always)};
    }();
    return m;
  }
};

/// Per-bucket circuit breaker (guarded by the core mutex). Closed ->
/// (threshold consecutive failures) -> open for breaker_open_ms -> one
/// half-open probe -> closed on success, reopened on failure.
struct Breaker {
  int consecutive = 0;
  bool open = false;
  bool probing = false;  // a half-open probe is in flight
  Clock::time_point open_until{};
};

/// Transient failure classes that earn a retry instead of failing the
/// request outright. kCancelled is deliberately absent (retrying past a
/// deadline is never useful), as is kInvalidInput (deterministic).
/// kPipelineStall is also excluded: a drain stall may have abandoned a
/// genuinely wedged in-flight worker (task_graph.h drain watchdog), so
/// re-entering the solver in the same process is not safe — a stall fails
/// typed to the caller instead.
bool transient(ErrorCode code) {
  return code == ErrorCode::kFaultInjected;
}

/// The shape-bucket label a request's latency is recorded under:
/// "n<pow2-bucket>v<0|1>", the human-readable projection of the plan-cache
/// bucket key (stable across processes, safe as an OpenMetrics label).
std::string bucket_label(index_t n, bool vectors) {
  return "n" + std::to_string(plan::pow2_bucket(std::max<index_t>(n, 1))) +
         (vectors ? "v1" : "v0");
}

/// Structured per-request log sink, resolved once from TDG_SERVE_REQLOG:
/// unset/empty = disabled, "stderr" or "-" = stderr, anything else = append
/// to that path. nullptr means disabled.
std::FILE* reqlog_stream() {
  static std::FILE* const f = []() -> std::FILE* {
    const char* e = std::getenv("TDG_SERVE_REQLOG");
    if (e == nullptr || *e == '\0') return nullptr;
    if (std::strcmp(e, "stderr") == 0 || std::strcmp(e, "-") == 0) {
      return stderr;
    }
    return std::fopen(e, "a");
  }();
  return f;
}

/// One JSON line per resolved request (schema tdg.reqlog.v1). A single
/// fprintf call so concurrent resolutions don't interleave mid-line.
void log_request(long long request_id, const std::string& bucket,
                 Outcome outcome, ErrorCode code, double queue_ms,
                 double solve_ms, int retries, bool degraded,
                 const std::string& plan_source) {
  std::FILE* f = reqlog_stream();
  if (f == nullptr) return;
  std::fprintf(
      f,
      "{\"schema\":\"tdg.reqlog.v1\",\"req\":%lld,\"bucket\":\"%s\","
      "\"outcome\":\"%s\",\"code\":%d,\"queue_ms\":%.3f,\"solve_ms\":%.3f,"
      "\"retries\":%d,\"degraded\":%s,\"plan_source\":\"%s\"}\n",
      request_id, json::escape(bucket).c_str(), to_string(outcome),
      static_cast<int>(code), queue_ms, solve_ms, retries,
      degraded ? "true" : "false", json::escape(plan_source).c_str());
  std::fflush(f);
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kCompleted: return "completed";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kRejected: return "rejected";
    case Outcome::kFailed: return "failed";
  }
  return "failed";
}

struct ServeCore::Impl {
  struct Request {
    Matrix a;
    RequestOptions ropts;
    std::promise<Response> promise;
    std::shared_ptr<cancel::Token> token;
    Clock::time_point submitted_at{};
    std::string admit_key;  // breaker bucket, as admitted (pre-degrade)
    std::string label;      // shape-bucket latency label ("n<pow2>v<0|1>")
    // Minted at submit: every span and flight event this request produces,
    // on whichever thread, carries ctx.request_id.
    obs::TraceContext ctx{};
    bool probe = false;  // the bucket breaker's half-open probe
    int retries = 0;
  };

  explicit Impl(const ServeOptions& o) : opts(o) {
    dispatcher = std::thread([this] { run(); });
    retry_worker = std::thread([this] { retry_loop(); });
  }

  ~Impl() {
    {
      std::lock_guard<std::mutex> lk(mu);
      draining = true;
      stopping = true;
    }
    cv.notify_all();
    dispatcher.join();  // drains the queue (may enqueue retry jobs)
    {
      std::lock_guard<std::mutex> lk(retry_mu);
      retry_stop = true;
    }
    retry_cv.notify_all();
    retry_worker.join();  // runs every remaining retry to resolution
  }

  // ---- admission (caller thread) -------------------------------------

  Ticket submit(Matrix a, const RequestOptions& ropts) {
    ServeMetrics& m = ServeMetrics::get();
    auto token = std::make_shared<cancel::Token>();
    if (ropts.deadline_ms > 0.0) token->set_deadline_in_ms(ropts.deadline_ms);

    auto req = std::make_unique<Request>();
    req->ropts = ropts;
    req->token = token;
    req->submitted_at = Clock::now();
    Ticket ticket{req->promise.get_future(), token};

    const index_t n = a.rows();
    const long long bytes =
        static_cast<long long>(n) * static_cast<long long>(n) * 8;
    req->admit_key = plan::cache_key(plan::ProblemShape{
        std::max<index_t>(n, 1), ropts.vectors, 0, ropts.mode});
    req->label = bucket_label(n, ropts.vectors);
    req->ctx = obs::TraceContext{obs::next_request_id(), 0};

    std::lock_guard<std::mutex> lk(mu);
    ++submitted;
    m.submitted->inc();

    // Admission ladder: every reject is synchronous and typed — the
    // request never consumes queue space or a dispatch slot.
    if (fault::should_fire("serve_admit")) {
      reject(std::move(req), ErrorCode::kFaultInjected,
             "serve: fault injected at admission (serve_admit)");
      return ticket;
    }
    if (draining) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: draining, not admitting new requests");
      return ticket;
    }
    if (static_cast<index_t>(queue.size()) >= opts.queue_capacity) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: queue full (queue_capacity)");
      return ticket;
    }
    if (opts.memory_budget_bytes > 0 &&
        queued_bytes + bytes > opts.memory_budget_bytes) {
      reject(std::move(req), ErrorCode::kOverloaded,
             "serve: queued-matrix memory budget exceeded");
      return ticket;
    }
    Breaker& br = breakers[req->admit_key];
    if (br.open) {
      if (Clock::now() < br.open_until || br.probing) {
        reject(std::move(req), ErrorCode::kOverloaded,
               "serve: circuit breaker open for this shape bucket");
        return ticket;
      }
      // Half-open: let exactly one probe through to decide close/reopen.
      br.probing = true;
      req->probe = true;
    }

    req->a = std::move(a);
    ++admitted;
    m.admitted->inc();
    obs::flight::record(obs::flight::EventKind::kMarker, "serve.admit", n,
                        ropts.vectors ? 1 : 0, req->ctx.request_id);
    queued_bytes += bytes;
    queue.push_back(std::move(req));
    note_depth_locked();
    cv.notify_all();
    return ticket;
  }

  /// Resolve a request as kRejected (mu held; synchronous with submit).
  void reject(std::unique_ptr<Request> req, ErrorCode code,
              const std::string& msg) {
    ++rejected;
    ServeMetrics::get().rejected->inc();
    obs::flight::record(obs::flight::EventKind::kError, "serve.reject",
                        static_cast<long long>(code), 0,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, Outcome::kRejected, code,
                0.0, 0.0, 0, false, "");
    Response r;
    r.outcome = Outcome::kRejected;
    r.code = code;
    r.message = msg;
    r.request_id = req->ctx.request_id;
    req->promise.set_value(std::move(r));
  }

  void note_depth_locked() {
    const long long depth = static_cast<long long>(queue.size());
    ServeMetrics& m = ServeMetrics::get();
    m.queue_depth->set(depth);
    m.queue_depth_hwm->update_max(depth);
    depth_hwm = std::max(depth_hwm, depth);
    obs::flight::record(obs::flight::EventKind::kMetric, "serve.queue_depth",
                        depth, 0, 0);
  }

  // ---- dispatcher ----------------------------------------------------

  void run() {
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
      cv.wait(lk, [&] { return !queue.empty() || stopping; });
      if (queue.empty()) break;  // stopping and nothing left to resolve

      // Coalesce window: give same-bucket peers a moment to arrive so a
      // burst becomes one planner pass + one eigh_batched dispatch. Cut
      // short by a full batch, drain, or shutdown.
      if (opts.coalesce_window_ms > 0.0 && !draining) {
        const auto window_end =
            queue.front()->submitted_at +
            std::chrono::microseconds(
                static_cast<long long>(opts.coalesce_window_ms * 1e3));
        cv.wait_until(lk, window_end, [&] {
          return static_cast<int>(queue.size()) >= opts.max_batch ||
                 draining || stopping;
        });
      }

      std::vector<std::unique_ptr<Request>> batch;
      const int take =
          std::min<int>(opts.max_batch, static_cast<int>(queue.size()));
      const index_t depth_at_dispatch = static_cast<index_t>(queue.size());
      for (int i = 0; i < take; ++i) {
        std::unique_ptr<Request> r = std::move(queue.front());
        queue.pop_front();
        const index_t n = r->a.rows();
        queued_bytes -= static_cast<long long>(n) * n * 8;
        batch.push_back(std::move(r));
      }
      in_flight += take;
      note_depth_locked();

      lk.unlock();
      process(std::move(batch), depth_at_dispatch);
      lk.lock();

      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
  }

  /// One request's place in a dispatched batch, after triage.
  struct Slot {
    std::unique_ptr<Request> req;
    bool vectors = false;  // effective, post-degrade
    plan::EvdMode mode = plan::EvdMode::kStandard;  // effective, post-degrade
    bool was_degraded = false;
    double queue_ms = 0.0;
  };

  /// Solve one dispatched batch. Never lets an exception escape to the
  /// dispatcher thread (which would std::terminate the process and leave
  /// the batch's promises unresolved): a batch-level throw — planner
  /// failure, eigh_batched misuse, std::bad_alloc — resolves every
  /// still-unresolved request in the batch with the typed error, keeping
  /// the exactly-once accounting and the dispatcher alive.
  void process(std::vector<std::unique_ptr<Request>> batch,
               index_t depth_at_dispatch) {
    std::vector<Slot> slots;
    slots.reserve(batch.size());
    try {
      process_batch(batch, slots, depth_at_dispatch);
    } catch (...) {
      ErrorCode code = ErrorCode::kUnknown;
      std::string msg = "serve: batch dispatch failed";
      try {
        throw;
      } catch (const Error& err) {
        code = err.code();
        msg = err.what();
      } catch (const std::exception& err) {
        msg = std::string("serve: batch dispatch failed: ") + err.what();
      } catch (...) {
      }
      // Batch-level failures are the flight recorder's raison d'être: dump
      // every thread's recent events (request-tagged) before resolving the
      // batch, while the failing state is still fresh.
      obs::flight::record(obs::flight::EventKind::kError, "serve.batch_fail",
                          static_cast<long long>(code),
                          static_cast<long long>(batch.size()), 0);
      obs::flight::dump("serve batch dispatch failure: " + msg);
      for (Slot& s : slots) {
        if (!s.req) continue;  // already resolved (or handed to retry)
        const bool probe = s.req->probe;
        fail(std::move(s.req), code, msg, s.queue_ms, 0.0, 0, probe);
      }
      for (auto& req : batch) {
        if (!req) continue;  // moved into a slot during triage
        const bool probe = req->probe;
        fail(std::move(req), code, msg, 0.0, 0.0, 0, probe);
      }
    }
  }

  /// process() body: degrade, group by shape bucket, one eigh_batched per
  /// bucket with the warm shared plan, then walk each slot through the
  /// retry/breaker ladder. Requests move from `batch` into `slots` at
  /// triage so the caller's backstop can resolve whatever is left on an
  /// escape at any point.
  void process_batch(std::vector<std::unique_ptr<Request>>& batch,
                     std::vector<Slot>& slots, index_t depth_at_dispatch) {
    ServeMetrics& m = ServeMetrics::get();
    obs::Span span("serve.batch");
    span.attr("requests", static_cast<long long>(batch.size()));
    const Clock::time_point dispatch_tp = Clock::now();

    // Per-request triage: expire, degrade, or enqueue for the bucket solve.
    // `serve_request` fires here — a simulated transient failure of the
    // request's first attempt, sending it straight to the retry rung.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (auto& req : batch) {
      Slot s;
      s.queue_ms = ms_between(req->submitted_at, dispatch_tp);
      s.vectors = req->ropts.vectors;
      s.mode = req->ropts.mode;
      if (req->token->stop_requested()) {
        const bool probe = req->probe;
        fail(std::move(req), ErrorCode::kCancelled,
             "serve: deadline expired before solve", s.queue_ms, 0.0, 0,
             probe);
        continue;
      }
      const bool precision_rung = opts.allow_precision_degraded &&
                                  req->ropts.allow_precision_degraded &&
                                  s.mode == plan::EvdMode::kStandard;
      if (s.vectors && req->ropts.allow_degraded &&
          (opts.allow_degraded || precision_rung)) {
        const bool pressure = opts.degrade_queue_depth > 0 &&
                              depth_at_dispatch > opts.degrade_queue_depth;
        bool deadline_pressure = false;
        if (req->ropts.deadline_ms > 0.0) {
          const double expect = expected_vectors_ms(req->a.rows());
          deadline_pressure =
              expect > 0.0 && req->token->remaining_ms() < expect;
        }
        if (pressure || deadline_pressure) {
          if (precision_rung) {
            // First rung: keep the vectors, drop the reduction to FP32 +
            // FP64 refinement (opt-in — it changes result bits vs FP64).
            s.mode = plan::EvdMode::kMixedPrecision;
          } else {
            s.vectors = false;
          }
          s.was_degraded = true;
        }
      }
      const std::string key = plan::cache_key(plan::ProblemShape{
          std::max<index_t>(req->a.rows(), 1), s.vectors, 0, s.mode});
      s.req = std::move(req);
      if (fault::should_fire("serve_request")) {
        // Transient first-attempt failure: take the retry ladder solo.
        enqueue_retry(std::move(s), key, ErrorCode::kFaultInjected,
                      "serve: fault injected in request solve "
                      "(serve_request)");
        continue;
      }
      slots.push_back(std::move(s));
      groups[key].push_back(slots.size() - 1);
    }

    // One eigh_batched per shape bucket, every problem sharing the
    // bucket's warm plan and carrying its own cancellation token. A throw
    // out of one bucket's planner pass or batch dispatch fails only that
    // bucket's still-unresolved slots; the other buckets still solve.
    for (auto& [key, idxs] : groups) {
      try {
        // Bucket-level work (the warm-plan pass, the batch-span bookkeeping)
        // is attributed to the bucket's first request; per-problem spans get
        // their own slot's context via BatchOptions::trace_contexts.
        obs::ContextScope ctx_scope(slots[idxs[0]].req->ctx);
        const plan::Plan* plan =
            warm_plan(key, slots[idxs[0]].vectors, slots[idxs[0]].mode,
                      slots[idxs[0]].req->a.rows());
        eig::BatchOptions bopts;
        bopts.vectors = slots[idxs[0]].vectors;
        bopts.mode = slots[idxs[0]].mode;
        bopts.plan = opts.plan;
        bopts.solver = opts.solver;
        bopts.check_finite = opts.check_finite;
        bopts.threads = opts.threads;
        bopts.shared_plan = plan;
        std::vector<ConstMatrixView> views;
        views.reserve(idxs.size());
        bopts.tokens.reserve(idxs.size());
        bopts.trace_contexts.reserve(idxs.size());
        for (const std::size_t i : idxs) {
          views.push_back(slots[i].req->a.view());
          bopts.tokens.push_back(slots[i].req->token.get());
          bopts.trace_contexts.push_back(slots[i].req->ctx);
        }
        {
          std::lock_guard<std::mutex> lk(mu);
          ++batches;
        }
        m.batches->inc();
        const eig::BatchResult br = eig::eigh_batched(views, bopts);
        const double per_problem_ms =
            br.seconds * 1e3 / static_cast<double>(idxs.size());

        for (std::size_t j = 0; j < idxs.size(); ++j) {
          Slot& s = slots[idxs[j]];
          const double solve_ms = ms_between(dispatch_tp, Clock::now());
          if (br.status[j].ok) {
            if (s.vectors) note_vectors_ms(key, per_problem_ms);
            succeed(std::move(s.req), eig::EvdResult(br.results[j]),
                    s.was_degraded, s.queue_ms, solve_ms, 0);
          } else {
            route_failure(std::move(s), key, br.status[j].code,
                          br.status[j].message, solve_ms);
          }
        }
      } catch (const Error& err) {
        fail_bucket(slots, idxs, key, err.code(), err.what(), dispatch_tp);
      } catch (const std::exception& err) {
        fail_bucket(slots, idxs, key, ErrorCode::kUnknown,
                    std::string("serve: bucket solve failed: ") + err.what(),
                    dispatch_tp);
      }
    }
  }

  /// Route one failed slot down the ladder: cancellation fails alone,
  /// transient codes go to the retry executor, everything else counts
  /// against the bucket breaker and fails typed.
  void route_failure(Slot&& s, const std::string& key, ErrorCode code,
                     const std::string& msg, double solve_ms) {
    if (code == ErrorCode::kCancelled) {
      const bool probe = s.req->probe;
      fail(std::move(s.req), ErrorCode::kCancelled, msg, s.queue_ms,
           solve_ms, 0, probe);
    } else if (transient(code)) {
      enqueue_retry(std::move(s), key, code, msg);
    } else {
      const bool probe = s.req->probe;
      breaker_failure(s.req->admit_key, probe);
      fail(std::move(s.req), code, msg, s.queue_ms, solve_ms, 0, probe);
    }
  }

  /// A bucket-level failure (the planner pass or eigh_batched itself
  /// threw): every slot of the bucket not yet resolved takes the same
  /// ladder a per-slot failure would.
  void fail_bucket(std::vector<Slot>& slots,
                   const std::vector<std::size_t>& idxs,
                   const std::string& key, ErrorCode code,
                   const std::string& msg, Clock::time_point dispatch_tp) {
    for (const std::size_t i : idxs) {
      if (!slots[i].req) continue;
      route_failure(std::move(slots[i]), key, code, msg,
                    ms_between(dispatch_tp, Clock::now()));
    }
  }

  /// Hand a transient failure to the retry executor so the dispatcher
  /// keeps draining the queue during the backoff and solo re-solve — one
  /// retrying request must not head-of-line block every queued request
  /// behind its backoff sleep. The slot stays accounted as in-flight
  /// until retry_or_fail resolves it on the executor thread.
  void enqueue_retry(Slot&& s, const std::string& key, ErrorCode code,
                     const std::string& msg) {
    auto sp = std::make_shared<Slot>(std::move(s));
    std::lock_guard<std::mutex> lk(retry_mu);
    retry_q.push_back([this, sp, key, code, msg] {
      retry_or_fail(std::move(*sp), key, code, msg);
    });
    retry_cv.notify_one();
  }

  /// Retry executor thread: runs queued retry jobs to resolution, exits
  /// only when told to stop (after the dispatcher joined) AND the queue
  /// is empty, so every handed-off request still resolves exactly once.
  void retry_loop() {
    std::unique_lock<std::mutex> lk(retry_mu);
    for (;;) {
      retry_cv.wait(lk, [&] { return !retry_q.empty() || retry_stop; });
      if (retry_q.empty()) return;  // retry_stop and nothing left
      std::function<void()> job = std::move(retry_q.front());
      retry_q.pop_front();
      lk.unlock();
      job();
      lk.lock();
    }
  }

  /// The retry rung: jittered backoff, then a solo re-solve under the same
  /// token and bucket plan (bitwise-identical configuration to the batch
  /// slot). A second transient failure beyond max_retries, or any
  /// non-transient one, drops to the failure rung. Runs on the retry
  /// executor thread and never throws (an escape would std::terminate).
  void retry_or_fail(Slot&& s, const std::string& key, ErrorCode first_code,
                     const std::string& first_msg) {
    // The solo re-solve runs on the retry executor thread: re-install the
    // request's context so its spans stay attributed across the handoff.
    obs::ContextScope ctx_scope(s.req->ctx);
    ServeMetrics& m = ServeMetrics::get();
    ErrorCode code = first_code;
    std::string msg = first_msg;
    const Clock::time_point t0 = Clock::now();
    while (s.req->retries < opts.max_retries) {
      ++s.req->retries;
      {
        std::lock_guard<std::mutex> lk(mu);
        ++retries;
      }
      m.retries->inc();
      backoff();
      if (s.req->token->stop_requested()) {
        code = ErrorCode::kCancelled;
        msg = "serve: deadline expired before retry";
        break;
      }
      // A persistently-armed serve_request site fails the retry too, so
      // the injection matrix can walk a request all the way down the
      // ladder instead of always being rescued by the first retry.
      if (fault::should_fire("serve_request")) {
        code = ErrorCode::kFaultInjected;
        msg = "serve: fault injected in retry solve (serve_request)";
        continue;
      }
      try {
        const plan::Plan* plan =
            warm_plan(key, s.vectors, s.mode, s.req->a.rows());
        eig::EvdOptions popt;
        popt.vectors = s.vectors;
        popt.mode = s.mode;
        popt.solver = opts.solver;
        popt.tridiag.threads = 1;
        popt.tridiag.bc_threads = 1;
        popt.check_finite = opts.check_finite;
        cancel::Scope scope(s.req->token.get());
        eig::EvdResult r = eig::eigh(s.req->a.view(), popt, *plan);
        const double solve_ms = ms_between(t0, Clock::now());
        const int used = s.req->retries;
        succeed(std::move(s.req), std::move(r), s.was_degraded, s.queue_ms,
                solve_ms, used);
        return;
      } catch (const Error& err) {
        code = err.code();
        msg = err.what();
        if (!transient(code)) break;
      } catch (const std::exception& err) {
        code = ErrorCode::kUnknown;
        msg = err.what();
        break;
      } catch (...) {
        code = ErrorCode::kUnknown;
        msg = "serve: retry solve failed with an untyped exception";
        break;
      }
    }
    const double solve_ms = ms_between(t0, Clock::now());
    const bool probe = s.req->probe;
    const int used = s.req->retries;
    if (code != ErrorCode::kCancelled) {
      breaker_failure(s.req->admit_key, probe);
    }
    fail(std::move(s.req), code, msg, s.queue_ms, solve_ms, used, probe);
  }

  void backoff() {
    double jitter;
    {
      std::lock_guard<std::mutex> lk(mu);
      jitter = jitter_dist(rng);
    }
    const double ms = opts.retry_backoff_ms * jitter;
    if (ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long long>(ms * 1e3)));
    }
  }

  // ---- resolution ----------------------------------------------------

  void succeed(std::unique_ptr<Request> req, eig::EvdResult&& result,
               bool was_degraded, double queue_ms, double solve_ms,
               int used_retries) {
    ServeMetrics& m = ServeMetrics::get();
    breaker_success(req->admit_key, req->probe);
    Response r;
    r.outcome = was_degraded ? Outcome::kDegraded : Outcome::kCompleted;
    r.mode = result.mode;  // effective: post-degrade, post-recovery
    // The precision rung keeps the vectors; a degraded resolution that
    // still carries them (or that fell back fp32->fp64, mode kStandard
    // with a recovery tag) took that rung rather than eigenvalues-only.
    const bool precision_rung =
        was_degraded && r.mode != plan::EvdMode::kValuesOnly;
    r.result = std::move(result);
    r.queue_ms = queue_ms;
    r.solve_ms = solve_ms;
    r.retries = used_retries;
    r.request_id = req->ctx.request_id;
    const double latency = ms_between(req->submitted_at, Clock::now());
    {
      std::lock_guard<std::mutex> lk(mu);
      if (was_degraded) {
        ++degraded;
        if (precision_rung) ++precision_degraded;
      } else {
        ++completed;
      }
      note_latency_locked(latency);
      --in_flight;
      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
    (was_degraded ? m.degraded : m.completed)->inc();
    if (precision_rung) m.precision_degraded->inc();
    m.latency_us->record(static_cast<long long>(latency * 1e3));
    record_latency_ms(latency, req->label);
    obs::flight::record(obs::flight::EventKind::kMarker, "serve.resolve",
                        std::llround(latency * 1e3), was_degraded ? 1 : 0,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, r.outcome,
                ErrorCode::kUnknown, queue_ms, solve_ms, used_retries,
                was_degraded, r.result.plan_source);
    req->promise.set_value(std::move(r));
  }

  void fail(std::unique_ptr<Request> req, ErrorCode code,
            const std::string& msg, double queue_ms, double solve_ms,
            int used_retries, bool was_probe) {
    ServeMetrics& m = ServeMetrics::get();
    if (was_probe) release_probe(req->admit_key);
    Response r;
    r.outcome = Outcome::kFailed;
    r.code = code;
    r.message = msg;
    r.queue_ms = queue_ms;
    r.solve_ms = solve_ms;
    r.retries = used_retries;
    r.request_id = req->ctx.request_id;
    const double latency = ms_between(req->submitted_at, Clock::now());
    {
      std::lock_guard<std::mutex> lk(mu);
      ++failed;
      if (code == ErrorCode::kCancelled) ++deadline_failures;
      note_latency_locked(latency);
      --in_flight;
      if (queue.empty() && in_flight == 0) drain_cv.notify_all();
    }
    m.failed->inc();
    if (code == ErrorCode::kCancelled) m.deadline_failures->inc();
    m.latency_us->record(static_cast<long long>(latency * 1e3));
    record_latency_ms(latency, req->label);
    obs::flight::record(obs::flight::EventKind::kError, "serve.fail",
                        static_cast<long long>(code), used_retries,
                        req->ctx.request_id);
    log_request(req->ctx.request_id, req->label, Outcome::kFailed, code,
                queue_ms, solve_ms, used_retries, false, "");
    req->promise.set_value(std::move(r));
  }

  /// Feed one resolution latency into the registry's labelled
  /// "serve.latency_ms" series (the "" aggregate plus this request's shape
  /// bucket) behind the OpenMetrics exposition.
  void record_latency_ms(double ms, const std::string& label) {
    obs::Registry& r = obs::Registry::global();
    r.latency("serve.latency_ms", "")->record(ms);
    r.latency("serve.latency_ms", label)->record(ms);
  }

  // ---- breaker / plan / ewma (mu) ------------------------------------

  void breaker_success(const std::string& key, bool was_probe) {
    std::lock_guard<std::mutex> lk(mu);
    Breaker& b = breakers[key];
    b.consecutive = 0;
    b.open = false;
    if (was_probe) b.probing = false;
  }

  void breaker_failure(const std::string& key, bool was_probe) {
    ServeMetrics& m = ServeMetrics::get();
    std::lock_guard<std::mutex> lk(mu);
    Breaker& b = breakers[key];
    if (was_probe) {
      // Failed half-open probe: reopen for another full window.
      b.probing = false;
      b.open = true;
      b.open_until = Clock::now() + std::chrono::microseconds(static_cast<
                         long long>(opts.breaker_open_ms * 1e3));
      ++breaker_trips;
      m.breaker_trips->inc();
      return;
    }
    ++b.consecutive;
    if (!b.open && opts.breaker_threshold > 0 &&
        b.consecutive >= opts.breaker_threshold) {
      b.open = true;
      b.open_until = Clock::now() + std::chrono::microseconds(static_cast<
                         long long>(opts.breaker_open_ms * 1e3));
      ++breaker_trips;
      m.breaker_trips->inc();
    }
  }

  /// A cancelled probe neither closes nor reopens the breaker — it just
  /// frees the probe slot so the next request can probe.
  void release_probe(const std::string& key) {
    std::lock_guard<std::mutex> lk(mu);
    breakers[key].probing = false;
  }

  /// One shape bucket's shared plan plus its build state. Lives in a
  /// node-based map so the address is stable for the life of the service;
  /// `plan` is immutable once `ready`, so callers may keep the pointer
  /// without holding the slot mutex.
  struct PlanSlot {
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;
    bool building = false;  // a builder runs outside the lock
    plan::Plan plan;
  };

  /// The bucket's shared plan, resolved once (one planner pass per bucket
  /// for the life of the service) and reused warm by every batch. Only
  /// the map lookup holds the core mutex: the planner pass itself — which
  /// under PlanMode::kMeasure runs real measured solves — happens under
  /// the bucket's own build slot, so concurrent submit()/stats()/drain()
  /// never block on planning and only same-bucket callers wait for it.
  const plan::Plan* warm_plan(const std::string& key, bool vectors,
                              plan::EvdMode mode, index_t n) {
    PlanSlot* slot;
    {
      std::lock_guard<std::mutex> lk(mu);
      slot = &plans[key];
    }
    std::unique_lock<std::mutex> lk(slot->m);
    for (;;) {
      if (slot->ready) return &slot->plan;
      if (!slot->building) break;
      slot->cv.wait(lk);  // another thread is building this bucket's plan
    }
    slot->building = true;
    lk.unlock();
    plan::Plan built;
    try {
      eig::BatchOptions bopts;
      bopts.vectors = vectors;
      bopts.mode = mode;
      bopts.plan = opts.plan;
      built = eig::batch_bucket_plan(n, bopts);
    } catch (...) {
      lk.lock();
      slot->building = false;  // let the next same-bucket caller retry
      slot->cv.notify_all();
      throw;
    }
    lk.lock();
    slot->plan = std::move(built);
    slot->ready = true;
    slot->building = false;
    slot->cv.notify_all();
    return &slot->plan;
  }

  double expected_vectors_ms(index_t n) {
    const std::string key = plan::cache_key(
        plan::ProblemShape{std::max<index_t>(n, 1), true, 0});
    std::lock_guard<std::mutex> lk(mu);
    const auto it = solve_ewma_ms.find(key);
    return it == solve_ewma_ms.end() ? 0.0 : it->second;
  }

  void note_vectors_ms(const std::string& key, double ms) {
    std::lock_guard<std::mutex> lk(mu);
    double& e = solve_ewma_ms[key];
    e = e == 0.0 ? ms : 0.7 * e + 0.3 * ms;
  }

  /// Bounded latency sample (Algorithm R reservoir, deterministic rng):
  /// exact percentiles until kLatencyReservoir requests have resolved, a
  /// uniform sample of the whole history after — memory stays flat and
  /// stats() stays O(capacity) for the long-running-service case. The
  /// serve.latency_us histogram remains the exact aggregate record.
  void note_latency_locked(double ms) {
    ++latency_seen;
    if (latencies_ms.size() < kLatencyReservoir) {
      latencies_ms.push_back(ms);
      return;
    }
    std::uniform_int_distribution<long long> pick(0, latency_seen - 1);
    const long long j = pick(reservoir_rng);
    if (j < static_cast<long long>(kLatencyReservoir)) {
      latencies_ms[static_cast<std::size_t>(j)] = ms;
    }
  }

  // ---- drain / stats -------------------------------------------------

  bool drain(double timeout_ms) {
    std::unique_lock<std::mutex> lk(mu);
    draining = true;
    cv.notify_all();
    const auto done = [&] { return queue.empty() && in_flight == 0; };
    if (timeout_ms <= 0.0) {
      drain_cv.wait(lk, done);
      return true;
    }
    return drain_cv.wait_for(
        lk,
        std::chrono::microseconds(static_cast<long long>(timeout_ms * 1e3)),
        done);
  }

  ServeStats stats() const {
    ServeStats s;
    std::vector<double> lat;
    {
      std::lock_guard<std::mutex> lk(mu);
      s.submitted = submitted;
      s.admitted = admitted;
      s.rejected = rejected;
      s.completed = completed;
      s.degraded = degraded;
      s.precision_degraded = precision_degraded;
      s.failed = failed;
      s.retries = retries;
      s.breaker_trips = breaker_trips;
      s.batches = batches;
      s.deadline_failures = deadline_failures;
      s.queue_depth = static_cast<long long>(queue.size());
      s.queue_depth_hwm = depth_hwm;
      lat = latencies_ms;
    }
    if (!lat.empty()) {
      std::sort(lat.begin(), lat.end());
      const auto pct = [&](double p) {
        const std::size_t i = static_cast<std::size_t>(
            p * static_cast<double>(lat.size() - 1) + 0.5);
        return lat[std::min(i, lat.size() - 1)];
      };
      s.p50_ms = pct(0.50);
      s.p95_ms = pct(0.95);
      s.p99_ms = pct(0.99);
    }
    return s;
  }

  // ---- state ---------------------------------------------------------

  const ServeOptions opts;
  mutable std::mutex mu;
  std::condition_variable cv;        // queue activity / shutdown
  std::condition_variable drain_cv;  // queue empty and nothing in flight
  std::deque<std::unique_ptr<Request>> queue;
  long long queued_bytes = 0;
  int in_flight = 0;  // popped, not yet resolved
  bool draining = false;
  bool stopping = false;

  long long submitted = 0;
  long long admitted = 0;
  long long rejected = 0;
  long long completed = 0;
  long long degraded = 0;
  long long precision_degraded = 0;
  long long failed = 0;
  long long retries = 0;
  long long breaker_trips = 0;
  long long batches = 0;
  long long deadline_failures = 0;
  long long depth_hwm = 0;

  static constexpr std::size_t kLatencyReservoir = 4096;
  std::vector<double> latencies_ms;  // bounded: note_latency_locked
  long long latency_seen = 0;

  std::map<std::string, Breaker> breakers;
  std::map<std::string, PlanSlot> plans;
  std::map<std::string, double> solve_ewma_ms;  // vectors solves, per bucket

  // Deterministic backoff jitter and reservoir sampling (fixed seeds:
  // reproducible schedules and samples).
  std::mt19937 rng{0x5eedu};
  std::uniform_real_distribution<double> jitter_dist{0.5, 1.5};
  std::mt19937_64 reservoir_rng{0x7e5e70a1ull};

  std::thread dispatcher;

  // Retry executor (its own mutex: jobs lock `mu` while resolving).
  std::mutex retry_mu;
  std::condition_variable retry_cv;
  std::deque<std::function<void()>> retry_q;
  bool retry_stop = false;
  std::thread retry_worker;
};

ServeCore::ServeCore(const ServeOptions& opts) {
  TDG_CHECK(opts.queue_capacity >= 1, "serve: queue_capacity must be >= 1");
  TDG_CHECK(opts.max_batch >= 1, "serve: max_batch must be >= 1");
  impl_ = std::make_unique<Impl>(opts);
}

ServeCore::~ServeCore() = default;

Ticket ServeCore::submit(Matrix a, const RequestOptions& ropts) {
  return impl_->submit(std::move(a), ropts);
}

bool ServeCore::drain(double timeout_ms) { return impl_->drain(timeout_ms); }

ServeStats ServeCore::stats() const { return impl_->stats(); }

const ServeOptions& ServeCore::options() const { return impl_->opts; }

}  // namespace tdg::serve
