// Seeded byte-level mutations of INI text, shared by the mutation property
// tests of the scenario and config parsers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.h"

namespace coc {

/// A uniform draw from [0, n).
inline std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n));
}

/// Number of operators MutateIni takes.
inline constexpr std::size_t kIniMutations = 5;

/// Applies operator `op` (below kIniMutations) to `text`: truncate at a
/// byte, corrupt a byte, duplicate a line, splice garbage, or delete a span.
inline void MutateIni(std::string& text, std::size_t op, Rng& rng) {
  static constexpr char kGarbage[] = "=[]#:.\n\t \"xyz09-+eE\x01\x7f";
  const auto garbage = [&rng] {
    return kGarbage[Pick(rng, sizeof kGarbage - 1)];
  };
  switch (op) {
    case 0:  // truncate at an arbitrary byte
      text.resize(Pick(rng, text.size() + 1));
      break;
    case 1: {  // corrupt a number-ish region with garbage bytes
      if (text.empty()) break;
      const std::size_t at = Pick(rng, text.size());
      text[at] = garbage();
      break;
    }
    case 2: {  // duplicate a random line (duplicate-key territory)
      if (text.empty()) break;
      const std::size_t start =
          text.find_last_of('\n', Pick(rng, text.size()));
      const std::size_t from = start == std::string::npos ? 0 : start + 1;
      const std::size_t end = text.find('\n', from);
      const std::string line = text.substr(
          from, end == std::string::npos ? std::string::npos : end - from + 1);
      text.insert(Pick(rng, text.size() + 1), line);
      break;
    }
    case 3: {  // splice random garbage at a random offset
      std::string chunk;
      for (std::size_t i = Pick(rng, 8); i-- > 0;) chunk += garbage();
      text.insert(Pick(rng, text.size() + 1), chunk);
      break;
    }
    case 4: {  // delete a random span
      if (text.empty()) break;
      const std::size_t at = Pick(rng, text.size());
      text.erase(at, Pick(rng, text.size() - at) + 1);
      break;
    }
  }
}

}  // namespace coc
