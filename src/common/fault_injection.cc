#include "common/fault_injection.h"

#include <cstdlib>

#include "common/parse_num.h"
#include "common/status.h"

namespace coc {
namespace {

constexpr FaultInjector::Site kAllSites[] = {
    FaultInjector::Site::kParse, FaultInjector::Site::kModel,
    FaultInjector::Site::kSimBudget, FaultInjector::Site::kDeadline,
    FaultInjector::Site::kServer};

FaultInjector::Site ParseSite(const std::string& name) {
  for (const FaultInjector::Site s : kAllSites) {
    if (name == FaultSiteName(s)) return s;
  }
  throw UsageError("fault spec: unknown site '" + name +
                   "' (use parse, model, sim_budget, deadline or server)");
}

}  // namespace

const char* FaultSiteName(FaultInjector::Site site) {
  switch (site) {
    case FaultInjector::Site::kParse: return "parse";
    case FaultInjector::Site::kModel: return "model";
    case FaultInjector::Site::kSimBudget: return "sim_budget";
    case FaultInjector::Site::kDeadline: return "deadline";
    case FaultInjector::Site::kServer: return "server";
  }
  return "?";
}

FaultInjector FaultInjector::Parse(const std::string& spec) {
  FaultInjector inj;
  std::string::size_type start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const std::string entry = comma == std::string::npos
                                  ? spec.substr(start)
                                  : spec.substr(start, comma - start);
    if (!entry.empty()) {
      const auto colon = entry.find(':');
      if (colon == std::string::npos) {
        throw UsageError("fault spec: expected site:index, got '" + entry +
                         "'");
      }
      const Site site = ParseSite(entry.substr(0, colon));
      const auto idx = ParseFullInteger<int>(entry.substr(colon + 1));
      if (!idx || *idx < 0) {
        throw UsageError("fault spec: bad scenario index in '" + entry + "'");
      }
      inj.arms_.emplace_back(site, static_cast<int>(*idx));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return inj;
}

FaultInjector FaultInjector::FromEnv() {
  const char* spec = std::getenv("COC_FAULT");
  if (spec == nullptr || spec[0] == '\0') return {};
  return Parse(spec);
}

bool FaultInjector::Armed(Site site, int scenario_index) const {
  for (const auto& [s, i] : arms_) {
    if (s == site && i == scenario_index) return true;
  }
  return false;
}

}  // namespace coc
