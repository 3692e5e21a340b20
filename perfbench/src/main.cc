// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <evd_dense|tiny_flood> --seed <n>
//             --seconds <s> --trace <0|1>
//
// normally through perfbench/run.py, which builds it and pins TDG_THREADS.
//
// --trace 0 measures the workload's end-to-end metrics untraced; --trace 1
// is the separate traced run that derives the per-layer metrics from the
// benchmark's own spans. The last stdout line is the JSON result; the exit
// code is nonzero when a correctness gate or an operation failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

// Variables that change what the library does or writes: a run with any of
// them set would not time the program the parent and the change share.
constexpr const char* kForbiddenEnv[] = {
    "TDG_FAULT_INJECT", "TDG_TRACE_JSON",   "TDG_METRICS",
    "TDG_METRICS_PROM", "TDG_SERVE_REQLOG", "TDG_PLAN_CACHE"};

struct Workload {
  const char* name;
  void (*run)(const perfbench::Config&, perfbench::Report&);
  double (*setup)(const perfbench::Config&, perfbench::Report&);
};

constexpr Workload kWorkloads[] = {
    {"evd_dense", perfbench::run_evd_dense, perfbench::setup_evd_dense},
    {"tiny_flood", perfbench::run_tiny_flood, perfbench::setup_tiny_flood},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <evd_dense|tiny_flood> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  cfg.exe = argv[0];
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--setup-only") {
      cfg.setup_only = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) workload = &w;
  }
  if (argc % 2 != 1 || workload == nullptr || !(cfg.seconds > 0.0)) {
    return usage();
  }
  for (const char* var : kForbiddenEnv) {
    if (const char* v = std::getenv(var); v != nullptr && *v != '\0') {
      std::fprintf(stderr, "perfbench: refusing to time a run with %s set\n",
                   var);
      return 2;
    }
  }
  const char* threads = std::getenv("TDG_THREADS");
  if (threads == nullptr || std::atoi(threads) < 1) {
    std::fprintf(stderr, "perfbench: TDG_THREADS must pin the thread budget\n");
    return 2;
  }
  cfg.threads = tdg::default_threads();

  perfbench::Report report;
  if (cfg.setup_only) {
    const double s = workload->setup(cfg, report);
    report.print();
    std::printf("SETUP %.9f\n", s);
    return 0;
  }
  report.text("perfbench: workload=" + cfg.workload +
              " seed=" + std::to_string(cfg.seed) +
              " seconds=" + std::to_string(cfg.seconds) +
              " trace=" + (cfg.trace ? "1" : "0") +
              " threads=" + std::to_string(cfg.threads));
  workload->run(cfg, report);
  report.print();
  return report.correct() && report.failures() == 0 ? 0 : 1;
}
