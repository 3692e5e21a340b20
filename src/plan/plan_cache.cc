#include "plan/plan_cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define TDG_HAVE_FLOCK 1
#endif

#include "common/fault.h"
#include "common/json.h"
#include "plan/fingerprint.h"

namespace tdg::plan {

namespace {

/// Exclusive cross-process lock on `<path>.lock`, held for a save()'s whole
/// read-merge-rename so two tuning processes cannot interleave and drop
/// each other's entries. Degrades gracefully: ok() == false means the lock
/// could not be taken (no flock on this platform, open failure, or the
/// `cache_lock` fault site fired) and the caller proceeds unlocked — the
/// atomic rename still keeps the file valid, restoring the pre-lock
/// last-writer-wins behavior rather than failing the save.
class FileLock {
 public:
  explicit FileLock(const std::string& path) {
    if (fault::should_fire("cache_lock")) return;  // simulated contention
#if defined(TDG_HAVE_FLOCK)
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return;
    // Non-blocking probe first, purely for telemetry: a peer holding the
    // lock is a real contention event (the old blocking-only path silently
    // absorbed the wait, undercounting it to zero). The blocking acquire
    // then waits for the peer as before.
    if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
      acquired_ = true;
      return;
    }
    contended_ = true;
    if (::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    acquired_ = true;
#else
    acquired_ = true;  // no flock on this platform: lock elided
#endif
  }
  ~FileLock() {
#if defined(TDG_HAVE_FLOCK)
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
#endif
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  bool ok() const { return acquired_; }
  /// True when the initial non-blocking probe lost to a peer process and
  /// the acquire had to wait (or failed) behind it.
  bool contended() const { return contended_; }

 private:
  int fd_ = -1;
  bool acquired_ = false;
  bool contended_ = false;
};

const char* method_name(TridiagMethod m) {
  switch (m) {
    case TridiagMethod::kDirect: return "direct";
    case TridiagMethod::kTwoStageClassic: return "classic";
    case TridiagMethod::kTwoStageDbbr: return "dbbr";
  }
  return "dbbr";
}

bool method_from_name(const std::string& s, TridiagMethod* m) {
  if (s == "direct") *m = TridiagMethod::kDirect;
  else if (s == "classic") *m = TridiagMethod::kTwoStageClassic;
  else if (s == "dbbr") *m = TridiagMethod::kTwoStageDbbr;
  else return false;
  return true;
}

// Cache-file reading goes through the shared tdg::json reader; any
// malformed input makes parsing fail as a whole, which the callers treat
// as "no cache" (corrupted-file recovery).

using json::Value;

bool get_index(const Value& obj, const char* key, index_t* out) {
  const Value* v = obj.find(key);
  if (!v || v->kind != Value::kNumber) return false;
  *out = static_cast<index_t>(v->num);
  return true;
}

bool entry_from_json(const Value& e, std::string* key, Plan* plan) {
  const Value* kv = e.find("key");
  if (!kv || kv->kind != Value::kString) return false;
  *key = kv->str;
  const Value* method = e.find("method");
  if (!method || method->kind != Value::kString ||
      !method_from_name(method->str, &plan->method)) {
    return false;
  }
  index_t threads = 0, bc_threads = 0;
  if (!get_index(e, "b", &plan->b) || !get_index(e, "k", &plan->k) ||
      !get_index(e, "sytrd_nb", &plan->sytrd_nb) ||
      !get_index(e, "sweeps", &plan->max_parallel_sweeps) ||
      !get_index(e, "threads", &threads) ||
      !get_index(e, "bc_threads", &bc_threads) ||
      !get_index(e, "bt_kw", &plan->bt_kw) ||
      !get_index(e, "q2_group", &plan->q2_group) ||
      !get_index(e, "smlsiz", &plan->smlsiz)) {
    return false;
  }
  plan->threads = static_cast<int>(threads);
  plan->bc_threads = static_cast<int>(bc_threads);
  // Optional (absent in pre-look-ahead cache files, which stay loadable):
  // default to depth 0 (no look-ahead).
  index_t lookahead = 0;
  get_index(e, "lookahead", &lookahead);
  plan->lookahead = lookahead;
  const Value* sec = e.find("seconds");
  plan->measured_seconds =
      (sec && sec->kind == Value::kNumber) ? sec->num : 0.0;
  plan->source = PlanSource::kMeasured;
  return plan->b >= 1 && plan->k >= 1 && plan->sytrd_nb >= 1;
}

bool parse_cache_file(const std::string& path,
                      std::map<std::string, Plan>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  Value root;
  if (!json::parse(ss.str(), &root) || root.kind != Value::kObject) {
    return false;
  }
  const Value* entries = root.find("entries");
  if (!entries || entries->kind != Value::kArray) return false;
  for (const Value& e : entries->arr) {
    if (e.kind != Value::kObject) return false;
    std::string key;
    Plan plan;
    if (!entry_from_json(e, &key, &plan)) return false;
    auto [it, inserted] = out->emplace(key, plan);
    if (!inserted && plan.measured_seconds < it->second.measured_seconds) {
      it->second = plan;
    }
  }
  return true;
}

void write_entry(std::FILE* f, const std::string& key, const Plan& p,
                 bool last) {
  std::fprintf(
      f,
      "    {\"key\": \"%s\", \"method\": \"%s\", \"b\": %lld, \"k\": %lld, "
      "\"sytrd_nb\": %lld, \"sweeps\": %lld, \"threads\": %d, "
      "\"bc_threads\": %d, \"bt_kw\": %lld, \"q2_group\": %lld, "
      "\"smlsiz\": %lld, \"lookahead\": %lld, \"seconds\": %.9g}%s\n",
      key.c_str(), method_name(p.method), static_cast<long long>(p.b),
      static_cast<long long>(p.k), static_cast<long long>(p.sytrd_nb),
      static_cast<long long>(p.max_parallel_sweeps), p.threads, p.bc_threads,
      static_cast<long long>(p.bt_kw), static_cast<long long>(p.q2_group),
      static_cast<long long>(p.smlsiz), static_cast<long long>(p.lookahead),
      p.measured_seconds, last ? "" : ",");
}

/// Insert-or-improve; returns true when `into` changed (new key, or `plan`
/// won on measured time) — the exact signal the merged-entry telemetry
/// needs.
bool merge_entry(std::map<std::string, Plan>* into, const std::string& key,
                 const Plan& plan) {
  auto [it, inserted] = into->emplace(key, plan);
  if (!inserted && plan.measured_seconds < it->second.measured_seconds) {
    it->second = plan;
    return true;
  }
  return inserted;
}

}  // namespace

PlanCache::PlanCache() {
  // Private always-on counters: test instances must count identically to
  // the global one without sharing its totals.
  obs::Counter** slots[] = {&c_.hits,          &c_.misses,
                            &c_.measure_runs,  &c_.loads,
                            &c_.saves,         &c_.save_failures,
                            &c_.lock_failures, &c_.lock_waits,
                            &c_.merged_entries};
  for (obs::Counter** slot : slots) {
    owned_counters_.push_back(
        std::make_unique<obs::Counter>(obs::Gating::kAlways));
    *slot = owned_counters_.back().get();
  }
}

PlanCache::PlanCache(UseRegistryTag) {
  // The process-wide cache: stats live in the metrics registry, so
  // TDG_METRICS snapshots and stats() read the same counters.
  obs::Registry& r = obs::Registry::global();
  c_.hits = r.counter("plan.cache_hits", obs::Gating::kAlways);
  c_.misses = r.counter("plan.cache_misses", obs::Gating::kAlways);
  c_.measure_runs = r.counter("plan.measure_runs", obs::Gating::kAlways);
  c_.loads = r.counter("plan.cache_loads", obs::Gating::kAlways);
  c_.saves = r.counter("plan.cache_saves", obs::Gating::kAlways);
  c_.save_failures =
      r.counter("plan.cache_save_failures", obs::Gating::kAlways);
  c_.lock_failures =
      r.counter("plan.cache_lock_failures", obs::Gating::kAlways);
  c_.lock_waits = r.counter("plan.cache_lock_waits", obs::Gating::kAlways);
  c_.merged_entries =
      r.counter("plan.cache_merged_entries", obs::Gating::kAlways);
}

index_t pow2_bucket(index_t n) {
  index_t p = 1;
  while (p < n) p *= 2;
  return p;
}

std::string cache_key(const ProblemShape& shape) {
  const ProblemShape s = normalized(shape);
  char buf[96];
  std::snprintf(buf, sizeof(buf), "|n=%lld|vec=%d|sub=%lld",
                static_cast<long long>(pow2_bucket(std::max<index_t>(
                    s.n, 1))),
                s.vectors ? 1 : 0,
                static_cast<long long>(
                    s.subset > 0 ? pow2_bucket(s.subset) : 0));
  std::string key = machine_fingerprint() + buf;
  // Only non-default axes extend the key, so keys minted before the mode
  // axis existed (and the entries old cache files hold) stay valid for
  // default FP64 requests. Values-only is already encoded in vec=0.
  if (s.precision == Precision::kFp32) key += "|prec=fp32";
  return key;
}

bool PlanCache::lookup(const std::string& key, Plan* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    c_.misses->inc();
    ++shape_stats_[key].misses;
    return false;
  }
  c_.hits->inc();
  ++shape_stats_[key].hits;
  *out = it->second;
  out->source = PlanSource::kCache;
  return true;
}

void PlanCache::insert(const std::string& key, const Plan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  merge_entry(&entries_, key, plan);
}

bool PlanCache::load(const std::string& path) {
  std::map<std::string, Plan> fresh;
  if (!parse_cache_file(path, &fresh)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  long long adopted = 0;
  for (const auto& [key, plan] : fresh) {
    if (merge_entry(&entries_, key, plan)) ++adopted;
  }
  c_.loads->inc();
  c_.merged_entries->inc(adopted);
  return true;
}

bool PlanCache::save(const std::string& path) const {
  auto note_failure = [&] { c_.save_failures->inc(); };
  if (fault::should_fire("cache_save")) {
    // Simulated I/O failure, before any file is touched: callers must treat
    // a false return as "cache not updated", never as corruption.
    note_failure();
    return false;
  }

  // Serialize the read-merge-rename against other *processes*; on lock
  // failure fall back to the unlocked atomic-rename path (last-writer-wins,
  // the pre-flock behavior) rather than dropping the save.
  FileLock file_lock(path + ".lock");
  if (!file_lock.ok()) c_.lock_failures->inc();
  if (file_lock.contended()) c_.lock_waits->inc();

  std::map<std::string, Plan> merged;
  parse_cache_file(path, &merged);  // unparsable file = start empty
  // Exact adopted-from-disk count: every file entry that survives the
  // re-merge (its key is absent from memory, or its measured time wins)
  // is a peer measurement this save preserved.
  long long from_disk = static_cast<long long>(merged.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, plan] : entries_) {
      const bool existed = merged.count(key) != 0;
      if (merge_entry(&merged, key, plan) && existed) --from_disk;
    }
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (!f) {
    note_failure();
    return false;
  }
  std::fprintf(f, "{\n  \"version\": 1,\n  \"entries\": [\n");
  std::size_t i = 0;
  for (const auto& [key, plan] : merged) {
    write_entry(f, key, plan, ++i == merged.size());
  }
  std::fprintf(f, "  ]\n}\n");
  const bool write_ok = std::fflush(f) == 0 && !std::ferror(f);
  std::fclose(f);
  if (!write_ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    note_failure();
    return false;
  }
  c_.saves->inc();
  c_.merged_entries->inc(from_disk);
  return true;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

CacheStats PlanCache::stats() const {
  CacheStats s;
  s.hits = c_.hits->value();
  s.misses = c_.misses->value();
  s.measure_runs = c_.measure_runs->value();
  s.loads = c_.loads->value();
  s.saves = c_.saves->value();
  s.save_failures = c_.save_failures->value();
  s.lock_failures = c_.lock_failures->value();
  s.lock_waits = c_.lock_waits->value();
  s.merged_entries = c_.merged_entries->value();
  return s;
}

std::map<std::string, ShapeStats> PlanCache::shape_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shape_stats_;
}

void PlanCache::reset_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  c_.hits->reset();
  c_.misses->reset();
  c_.measure_runs->reset();
  c_.loads->reset();
  c_.saves->reset();
  c_.save_failures->reset();
  c_.lock_failures->reset();
  c_.lock_waits->reset();
  c_.merged_entries->reset();
  shape_stats_.clear();
}

void PlanCache::note_measure_run(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  c_.measure_runs->inc();
  ++shape_stats_[key].measure_runs;
}

PlanCache& PlanCache::global() {
  static PlanCache cache{UseRegistryTag{}};
  return cache;
}

}  // namespace tdg::plan
