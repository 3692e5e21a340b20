// The mixed-precision EVD engine (EvdOptions mode kMixedPrecision).
//
// Pipeline: demote A to FP32 -> the FP64 engine's two-stage DBBR reduction
// run at float (core/tridiag.h reduce_two_stage<float>: look-ahead DBBR,
// packed pipelined bulge chase) -> FP64 tridiagonal solve (cheap relative
// to the reduction, and where FP32 eigenvalue error would be amplified for
// free) -> the blocked Q2/Q1 back transformation at float -> promote ->
// FP64 Ogita–Aishima refinement (eig/refine.h).
//
// The engine never throws on numeric failure: a non-converged refinement
// or a solver breakdown comes back as ok == false and the driver reruns
// the standard FP64 path, recording recovery = "fp32->fp64".
#pragma once

#include <vector>

#include "eig/refine.h"
#include "la/matrix.h"
#include "plan/plan.h"

namespace tdg::eig {

struct MixedOutcome {
  bool ok = false;  // pipeline ran and the residual test passed
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // n x n
  RefineOutcome refine;             // iterations, residual, acceptance scale
  double seconds_fp32 = 0.0;  // float reduction + back-transform time
  double seconds_solver = 0.0;      // FP64 tridiagonal solve time
  double seconds_refine = 0.0;      // FP64 refinement time
};

/// Run the FP32-compute / FP64-refine pipeline against the resolved
/// configuration. Requires n >= 3 (the driver routes smaller problems to
/// the standard path). Non-numeric errors (invalid input, cancellation)
/// propagate; kNoConvergence from the tridiagonal solve returns ok = false.
MixedOutcome eigh_mixed(ConstMatrixView a, const plan::ResolvedPipeline& cfg,
                        bool use_dc);

}  // namespace tdg::eig
