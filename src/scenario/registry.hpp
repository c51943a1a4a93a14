#pragma once
/// \file registry.hpp
/// Built-in named scenarios: the workload families every evaluation binary
/// previously hard-coded, now addressable by name from the CLI, tests and
/// CI. Spans all five loader families, both control architectures, and the
/// paper's own workload (`paper-fig7`). Scenarios tagged "smoke" are sized
/// to finish in seconds and drive the CI scenario-smoke job. The registry
/// is one block of campaign text in registry.cpp, parsed once by
/// expand_sweeps.

#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace qrm::scenario {

/// All built-in scenarios, in presentation order. Every entry validates.
[[nodiscard]] const std::vector<ScenarioSpec>& registry();

/// Look up one built-in scenario. Throws PreconditionError for unknown
/// names, listing the registry so typos are self-diagnosing.
[[nodiscard]] const ScenarioSpec& find_scenario(const std::string& name);

/// Registry subset matching a campaign filter (see
/// ScenarioSpec::matches_filter); empty filter returns everything.
[[nodiscard]] std::vector<ScenarioSpec> filter_registry(const std::string& filter);

}  // namespace qrm::scenario
