// Dependency-driven task-graph runtime on the persistent ThreadPool — the
// look-ahead scheduler behind the DBBR/sy2sb DAG paths (src/sbr).
//
// A TaskGraph is a static DAG built once and run once: nodes carry explicit
// predecessor edges, a ready-queue feeds pool workers, and node completion
// atomically releases its successors — no per-phase barriers. This is what
// lets step i+1's panel factorization overlap the remainder of step i's
// trailing syr2k (the classic look-ahead of Rodríguez-Sánchez et al.,
// arXiv:1709.00302), and what removes the per-anti-diagonal barriers inside
// the square-block syr2k schedule itself.
//
// Two node classes, because the ThreadPool runs nested dispatch inline:
//
//  * kDriver — executes only on the thread that called run(). Use for
//    bodies that fan out wide BLAS-3 parallel_for regions (panel symm, JIT
//    GEMMs): on a pool worker those would degrade to serial.
//  * kPooled — may execute on any pool worker (or the driver when it has
//    nothing else to do). Use for leaf work: syr2k tiles, panel QRs.
//
// Invariants, matching the rest of the library:
//
//  * Determinism. The graph only constrains *ordering*; every node writes a
//    disjoint output region (or regions ordered by explicit edges), so any
//    schedule — including the serial fallback — produces bitwise-identical
//    results. run() degrades to a deterministic serial topological order
//    (ascending NodeId among ready nodes) when the thread budget is 1 or
//    when called from inside a pool task (re-entrancy).
//  * Failure poisoning. The first exception thrown by a node body is
//    captured; every node not yet started is cancelled (counted, never
//    executed, but still releases its successors so the graph drains), and
//    the exception is rethrown from run() after all in-flight nodes have
//    completed. A throwing node can therefore never deadlock the graph.
//    The `taskgraph_node` fault site (tdg::fault) fires at node entry.
//  * Drain watchdog. The parallel driver's cv-wait carries the same stall
//    deadline as the chase gates (TDG_SPIN_TIMEOUT_MS via
//    cancel::stall_timeout_ms, overridable per graph): if no node completes
//    for a whole deadline window — a worker that never returns, or a node
//    that never becomes ready — the run poisons the graph (unstarted nodes
//    are cancelled, never executed) and throws Error(kPipelineStall) naming
//    the first unfinished node, instead of hanging the driver thread.
//    Before throwing, the run waits one more deadline window for bodies
//    already in flight to return, so a slow-but-alive node does not end up
//    executing over caller memory freed by the unwind. As with a
//    chase-gate stall, the diagnosis is for clean termination: an
//    in-flight body that is genuinely wedged cannot be rescued — it is
//    abandoned (and counted in the error message), which is why callers
//    must treat a drain-watchdog kPipelineStall as non-recoverable rather
//    than retrying in the same process (the serve layer does not class it
//    as transient).
//  * Observability. Each executed node records an obs::Span under its
//    name (must be a string literal — spans keep the pointer), and a run
//    feeds the taskgraph.* registry metrics (docs/ALGORITHMS.md §12).
//  * Op tracing. A run started under an active trace::Recorder gives every
//    node its own recorder, installed around the body on whichever thread
//    runs it, and appends them to the caller's recorder in node-id order
//    after the drain — so a traced run records the same op sequence at any
//    thread count, and records it from the schedule production runs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "la/matrix.h"  // index_t

namespace tdg::graph {

enum class NodeClass {
  kDriver,  // run() caller only — body may fan out nested parallel_for
  kPooled,  // any pool worker — leaf kernels, no useful nested fan-out
};

class TaskGraph {
 public:
  using NodeId = int;

  /// Aggregate schedule statistics of one run().
  struct Stats {
    long long nodes_run = 0;        // bodies started (includes a failing one)
    long long nodes_cancelled = 0;  // skipped after a failure poisoned the run
    long long ready_depth_hwm = 0;  // peak ready-queue depth
    double busy_us = 0.0;     // wall time with >= 1 node executing
    double overlap_us = 0.0;  // wall time with >= 2 nodes executing
    double idle_us = 0.0;     // driver cv-wait time (nothing ready)

    /// Fraction of busy time in which at least two nodes overlapped — the
    /// direct measure of look-ahead actually happening (0 on serial runs).
    double overlap_fraction() const {
      return busy_us > 0.0 ? overlap_us / busy_us : 0.0;
    }
  };

  TaskGraph();
  ~TaskGraph();
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Append a node. `name` must be a string literal (it outlives the call
  /// as the node's span name). `deps` are NodeIds returned by earlier add()
  /// calls — edges always point backwards, so the graph is a DAG by
  /// construction. Returns the new node's id. Must not be called after
  /// run().
  NodeId add(const char* name, NodeClass cls, std::function<void()> body,
             const std::vector<NodeId>& deps = {});

  /// Execute the graph to completion; call at most once. Runs serially (in
  /// deterministic ascending-id topological order) when the ambient thread
  /// budget is 1 or when called from inside a pool task. Rethrows the
  /// first node failure after the graph has drained.
  Stats run();

  /// Number of nodes added so far.
  int size() const;

  /// Override the drain stall deadline for this graph's run(): ms > 0 is a
  /// hard no-completion window, 0 disables the watchdog, -1 (default) uses
  /// cancel::stall_timeout_ms() (TDG_SPIN_TIMEOUT_MS). Call before run().
  void set_stall_timeout_ms(int ms) { stall_timeout_ms_ = ms; }

  /// Stats of the completed run (zeros before run()).
  const Stats& stats() const { return stats_; }

  /// Implementation state, public only so the runtime's file-local scheduler
  /// functions (which pool workers invoke via shared_ptr) can name it.
  struct State;

 private:
  std::shared_ptr<State> st_;
  Stats stats_;
  bool ran_ = false;
  int stall_timeout_ms_ = -1;  // -1 = cancel::stall_timeout_ms()
};

}  // namespace tdg::graph
