// Pipelined multi-sweep bulge chasing — the paper's Algorithm 2.
//
// Sweep i+1 may run concurrently with sweep i as long as it stays >= 2b rows
// behind (the paper's law (1): ~3 bulges of lag). Each worker publishes its
// sweep's current block-step row in a progress flag (the `gCom` array of
// Algorithm 2) and the successor spins until the dependency clears. On a GPU
// the flag is a volatile array polled by thread blocks; here it is an
// std::atomic<index_t> with release/acquire ordering and a yielding spin so
// the protocol is livelock-free even on a single hardware thread.
//
// Because the dependency protocol enforces exactly the sequential order on
// every pair of conflicting block steps, the pipelined chase produces
// bitwise-identical output to the sequential chase (asserted in tests).
//
// Failure semantics (docs/ALGORITHMS.md §11): the progress gates are
// poisonable. If any sweep task throws, a shared abort flag — checked
// inside both spin loops — releases every spinning peer, the pipeline
// unwinds, and the first exception is rethrown to the caller; a failure can
// therefore never leave peers spinning forever. Independently, each spin
// loop carries a deadline (spin_timeout_ms / TDG_SPIN_TIMEOUT_MS) that
// converts a gate stuck with no owner progress into a typed
// Error(kPipelineStall) carrying the sweep and row coordinates.
#pragma once

#include "bc/bulge_chase.h"
#include "common/cancel.h"

namespace tdg::bc {

/// Default spin deadline (ms) when neither the option nor
/// TDG_SPIN_TIMEOUT_MS overrides it. Generous: a healthy pipeline advances
/// a gate every few microseconds, so a minute of zero progress is a wedge.
/// Shared with the task-graph drain watchdog (common/cancel.h).
inline constexpr int kDefaultSpinTimeoutMs = cancel::kDefaultStallTimeoutMs;

struct ParallelChaseOptions {
  /// Worker threads. Values above the sweep count are clamped; <= 0 means
  /// the ambient thread budget (common/thread_pool.h current_threads()).
  /// Workers run on the persistent global pool, not per-call threads.
  int threads = 4;
  /// Maximum sweeps in flight (the S of the paper's Section 3.3 pipeline
  /// model). 0 = bounded only by the thread count.
  index_t max_parallel_sweeps = 0;
  /// Spin deadline in milliseconds for each progress gate: a gate that sees
  /// no predecessor progress for this long throws Error(kPipelineStall).
  /// -1 = use TDG_SPIN_TIMEOUT_MS (default kDefaultSpinTimeoutMs); 0 =
  /// never time out.
  int spin_timeout_ms = -1;
};

/// Pipelined chase on the packed (Fig.-10) layout. Same contract as
/// chase_packed.
template <class T>
void chase_packed_parallel(SymBandMatrixT<T>& band, index_t b,
                           const ParallelChaseOptions& opts,
                           std::type_identity_t<ChaseLogT<T>*> log);

/// Pipelined chase on the dense-embedded (naive) layout. Same contract as
/// chase_dense.
void chase_dense_parallel(MatrixView a, index_t b,
                          const ParallelChaseOptions& opts, ChaseLog* log);

}  // namespace tdg::bc
