// Correctness half of the benchmark, run outside the timed window: every
// served response (for sim_serve, a seeded sample with at least one request
// per system x rate x condis class) is compared, minus its cache/server
// fields, with the offline Engine::EvaluateBatch -> Report::ToJson -> Dump
// render of the same request.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load.h"
#include "workloads.h"

namespace servebench {

struct VerifyResult {
  std::uint64_t checked = 0;     ///< responses compared
  std::uint64_t mismatches = 0;  ///< responses whose bytes differ
  std::string first_mismatch;    ///< a description of the first one
};

/// The offline render of one request line: what the server's response must
/// equal once StripServedFields has removed its cache/server fields.
/// Throws on a line the offline path cannot evaluate.
std::string OfflineRender(const std::string& line);

/// Verifies the records of one load run on `threads` threads, each owning a
/// bounded Engine like the server's.
VerifyResult Verify(const Generator& gen, const LoadResult& load,
                    int threads);

}  // namespace servebench
