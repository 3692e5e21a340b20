// The traced run (--trace 1): per-layer metrics derived from the
// benchmark's own spans around calls into each library layer.
#pragma once

#include "harness.h"

namespace perfbench {

/// Problem size of the dense workload and of the dense layer probes. On a
/// shared 4-vCPU host a run at n = 1024 fits only about four mode cycles
/// (standard 2.3 s, mixed 7 s), and medians at n = 512 moved up to 26%
/// between one-minute runs as neighbours loaded the memory system; at
/// n = 384 a run holds about fifty cycles and moved under 10%.
inline constexpr tdg::index_t kDenseN = 384;
/// Size of the dense warm-up solves (large enough to run every stage).
inline constexpr tdg::index_t kDenseWarmN = 256;

/// Run every layer probe and report every per-layer metric; `workload`
/// selects whose traced-vs-untraced pass gives obs.trace_overhead_frac.
void run_layer_probes(const Config& cfg, const std::string& workload,
                      Report& report);

}  // namespace perfbench
