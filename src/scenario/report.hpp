#pragma once
/// \file report.hpp
/// Campaign reports: the CSV and JSON writers and the mergers of sharded
/// deterministic reports, all driven by one field table in report.cpp.
/// Every row or block carries its global matrix index, so a merge sorts the
/// shards' row text by index and recomputes the JSON envelope: the output
/// is the sequential run's report byte for byte. The mergers throw
/// PreconditionError unless every row or block holds exactly the table's
/// deterministic fields, each value in the form the writer prints it (JSON
/// strings as valid UTF-8), and the indices are 0..N-1 once each.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"

namespace qrm::scenario {

/// Deterministic drops every measurement field (workers, wall, `*_us`
/// timings, shots/sec, cache counters): its reports are byte-comparable
/// across runs, and the mergers accept only them.
enum class ReportMode : std::uint8_t { Full, Deterministic };

/// One CSV row per scenario, led by the global matrix index.
void write_csv(const CampaignReport& report, std::ostream& out,
               ReportMode mode = ReportMode::Full);

/// The same content as a JSON document, for tooling that wants structure.
void write_json(const CampaignReport& report, std::ostream& out,
                ReportMode mode = ReportMode::Full);

/// Merge deterministic CSV shard reports, in any order; empty shards are fine.
[[nodiscard]] std::string merge_csv_reports(const std::vector<std::string>& shard_texts);

/// Merge deterministic JSON shard reports. Scenario blocks pass through
/// byte for byte; the envelope's count and campaign fingerprint are
/// recomputed from the blocks.
[[nodiscard]] std::string merge_json_reports(const std::vector<std::string>& shard_texts);

}  // namespace qrm::scenario
