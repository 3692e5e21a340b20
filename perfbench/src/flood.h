// Small-problem helpers shared by tiny_flood and the traced probes: the
// seeded flood batch and the determinism-contract check of one batch slot
// (src/eig/batched.h: a slot is bitwise equal to eigh with the same options
// and batch_bucket_plan(n)).
#pragma once

#include <vector>

#include "harness.h"

namespace perfbench {

inline constexpr tdg::index_t kFloodMinN = 8;
inline constexpr tdg::index_t kFloodMaxN = 48;
inline constexpr std::size_t kFloodProblems = 2000;
inline constexpr int kFloodSamplePerCall = 4;

struct Flood {
  std::vector<tdg::Matrix> mats;
  std::vector<tdg::ConstMatrixView> views;
};

/// `count` seeded problems with sizes drawn uniformly from
/// [kFloodMinN, kFloodMaxN].
Flood make_flood(std::uint64_t seed, std::size_t count);

/// The standalone eigh options a batch slot under `b` reproduces.
tdg::eig::EvdOptions solo_options(const tdg::eig::BatchOptions& b);

/// Gate one batch slot: bitwise equal to eigh(a, solo_options(bopts),
/// batch_bucket_plan(n, bopts)), and (with vectors) accurate. Violations
/// are reported under `who`.
void check_batch_slot(tdg::ConstMatrixView a,
                      const tdg::eig::BatchOptions& bopts,
                      const tdg::eig::EvdResult& got, const char* who,
                      Report& report);

}  // namespace perfbench
