// tdg::plan — the autotuning planner.
//
// Every driver in the library exposes a pile of tuning knobs (band width b,
// DBBR outer block k, sweep cap S, thread counts, back-transform group
// widths, the D&C base-case size). The paper's speedups hinge on choosing
// them well — b = 32 / k = 1024 on the H100 — yet good values depend on the
// problem shape and the machine. The planner produces a complete knob
// vector for a given shape through three tiers:
//
//  1. heuristic — closed-form rules seeded by the analytic device model:
//     S from the Section-3.3 pipeline laws (gpumodel::bc_simulate /
//     bc_cycles_closed_form), b from a model-scored scan with the warp-width
//     step floor (one warp per sweep: steps below b = 32 cost the same, so
//     the scan lands on the paper's operating point), k from the GEMM
//     k-pipeline efficiency k/(k + k_half), and thread/cache-aware choices
//     for the remaining knobs.
//  2. measure — a bounded empirical search: a handful of candidate configs
//     (the heuristic seed, the legacy defaults, and ±1 steps in b and k)
//     are timed on a proxy sub-problem and the winner is kept.
//  3. cache — measured winners persist in a JSON file (FFTW-wisdom style)
//     keyed by a machine fingerprint + problem-shape bucket, so repeated
//     eigh() calls amortize the tuning cost. Path from TDG_PLAN_CACHE.
//
// Drivers resolve their options through the planner at entry: knobs left at
// their zero "auto" value are filled from the plan, explicitly-set knobs
// always win, and the merged vector is validated/clamped (k rounded to a
// multiple of b, everything clamped to legal ranges) before use.
#pragma once

#include <string>

#include "core/tridiag.h"
#include "plan/knobs.h"

namespace tdg::plan {

/// The shape the planner keys on: problem size, whether eigenvectors (and
/// hence the back transformations) are needed, how many columns are
/// back-transformed (0 = all n, as in a full EVD), and the execution-mode
/// axis (EvdMode / Precision). Defaults describe the pre-existing FP64
/// standard path, so cache keys and provenance strings for default requests
/// are unchanged (old plan-cache files stay valid).
struct ProblemShape {
  index_t n = 0;
  bool vectors = true;
  index_t subset = 0;
  EvdMode mode = EvdMode::kStandard;
  Precision precision = Precision::kFp64;
};

/// Provenance of a knob vector.
enum class PlanSource {
  kDefaults,   // legacy static defaults (PlanMode::kManual)
  kHeuristic,  // tier 1: analytic rules
  kMeasured,   // tier 2: empirical search ran
  kCache,      // tier 3: persistent cache hit (no re-measurement)
};

const char* to_string(PlanSource source);

/// A complete knob vector for one problem shape.
struct Plan {
  TridiagMethod method = TridiagMethod::kTwoStageDbbr;
  index_t b = 32;
  index_t k = 1024;
  index_t sytrd_nb = 64;
  index_t max_parallel_sweeps = 0;  // the pipeline model's S
  int threads = 0;                  // planning-time budget (informational)
  int bc_threads = 1;
  index_t bt_kw = 256;
  index_t q2_group = 64;
  index_t smlsiz = 32;
  /// Stage-1 look-ahead depth (0 = no look-ahead, 1 = overlap the next
  /// block's first panel QR with the trailing syr2k's tiles; see
  /// plan::Knobs::lookahead for the override convention). Bitwise-neutral.
  index_t lookahead = 0;
  /// The execution mode / precision this plan was resolved for (stamped
  /// from the ProblemShape; provenance only — the knob vector itself is
  /// mode-independent). Recorded in source_string() for non-default modes.
  EvdMode mode = EvdMode::kStandard;
  Precision precision = Precision::kFp64;
  PlanSource source = PlanSource::kHeuristic;
  /// Proxy wall-clock of the winning config (kMeasured / kCache only).
  double measured_seconds = 0.0;
};

/// Full provenance string for a resolved plan: the tier name plus any
/// schedule-changing knobs ("heuristic+la1" when look-ahead is on) and any
/// non-default execution mode ("+fp32" for mixed precision, "+vo" for
/// values-only). This is what EvdResult.plan_source records, so profiles
/// name the schedule that actually ran; plain tier names compare equal for
/// depth-0 FP64 standard plans.
std::string source_string(const Plan& plan);

/// Canonicalize the execution-mode axis of a shape — the one resolution
/// rule every layer (drivers, batch, serve, cache key) shares:
///   * mode == kValuesOnly        -> vectors = false
///   * vectors == false           -> mode = kValuesOnly (a values-only
///     request spelled through the legacy vectors flag)
///   * kMixedPrecision + vectors  -> precision = kFp32
///   * kMixedPrecision, !vectors  -> kValuesOnly at kFp64 (the FP64
///     refinement needs eigenvectors; a values-only request gains nothing
///     from the FP32 stage it cannot verify)
ProblemShape normalized(ProblemShape shape);

struct PlannerOptions {
  /// Thread budget assumed by the heuristics (0 = ambient current_threads()).
  int threads = 0;
  /// Cache file; empty = the TDG_PLAN_CACHE environment variable (empty or
  /// unset = in-memory caching only).
  std::string cache_path;
  /// Measure-tier proxy problem size (0 = min(n, 640)).
  index_t proxy_n = 0;
  /// Timing repetitions per candidate, best-of (>= 1).
  index_t reps = 1;
};

/// Tier 1: the analytic heuristic. Deterministic for a given shape, thread
/// budget, and machine.
Plan heuristic_plan(const ProblemShape& shape, int threads = 0);

/// Legacy static defaults (what the drivers hard-coded before the planner).
Plan default_plan(const ProblemShape& shape);

/// Tiers 3 then 2: consult the persistent cache, else run the bounded
/// empirical search (seeded by the heuristic) and store the winner.
Plan measured_plan(const ProblemShape& shape, const PlannerOptions& popts = {});

/// Mode dispatch: kManual -> default_plan, kHeuristic -> heuristic_plan,
/// kMeasure -> measured_plan.
Plan plan_for(const ProblemShape& shape, PlanMode mode,
              const PlannerOptions& popts = {});

// ---- option resolution & validation ---------------------------------------

/// Fill every zero ("auto") knob of `opts` from `plan` (explicit knobs win),
/// then validate and clamp the result for problem size n.
TridiagOptions resolve(const TridiagOptions& opts, index_t n, const Plan& plan);
ApplyQOptions resolve(const ApplyQOptions& opts, index_t n, const Plan& plan);

/// Validate and clamp a fully-specified option set for problem size n:
/// negative knobs throw tdg::Error; b is clamped to [1, n-1]; k is rounded
/// to a multiple of b and clamped to [b, ceil(n/b)*b]; thread counts are
/// clamped to [.., kMaxThreads]; group widths to >= 1. Degenerate inputs
/// (n <= b, k > n) therefore resolve to legal configurations instead of
/// misbehaving downstream.
TridiagOptions validated(const TridiagOptions& opts, index_t n);
ApplyQOptions validated(const ApplyQOptions& opts, index_t n);

// ---- whole-pipeline resolution (the single driver entry point) ------------

/// Everything a full-EVD driver needs to run one problem: the resolved plan
/// (for provenance and sharing) plus the validated per-stage option sets,
/// all with plan = kManual so no stage re-plans downstream.
struct ResolvedPipeline {
  Plan plan;               // the knob vector the stages were resolved from
  TridiagOptions tridiag;  // resolved + validated, plan = kManual
  ApplyQOptions applyq;    // resolved + validated, plan = kManual
  index_t smlsiz = 32;     // resolved D&C base-case size
  /// Merged FP64-refinement knobs (zeros = the documented autos), consumed
  /// by the mixed-precision engine only.
  RefineOptions refine;
};

/// The one resolve-and-validate entry point shared by eigh / eigh_range /
/// eigh_batched: run the planner for `shape` under `mode`, then resolve the
/// tridiag options, the back-transform options, and the solver base case
/// against that single plan. `knobs` is the caller's merged knob sub-struct
/// (explicit values win over the plan); `tridiag.knobs` is folded in at the
/// lowest precedence.
ResolvedPipeline resolve_and_validate(const ProblemShape& shape, PlanMode mode,
                                      const TridiagOptions& tridiag,
                                      const Knobs& knobs,
                                      const PlannerOptions& popts = {});

/// Same, against a pre-resolved plan (no planner consultation): the path
/// the batch driver takes so every problem in a shape bucket shares one
/// plan, and the path the eigh(..., plan) overloads expose publicly.
ResolvedPipeline resolve_and_validate(const ProblemShape& shape,
                                      const Plan& plan,
                                      const TridiagOptions& tridiag,
                                      const Knobs& knobs);

}  // namespace tdg::plan
