#pragma once
/// \file report_merge.hpp
/// Text-level mergers for sharded campaign reports.
///
/// A sharded campaign's shard processes each write their own CSV/JSON
/// report (ReportMode::Deterministic — measurement fields would differ
/// between runs and make a byte diff meaningless). These mergers reassemble
/// the shard files into the exact bytes a sequential 1-shard run writes:
/// every scenario row/block carries its global matrix index, so merging is
/// "sort the preserved row text by index and recompute the campaign
/// envelope". No numeric value is ever re-parsed and re-printed — the row
/// bytes pass through untouched, which is what makes byte-identity a
/// provable property instead of a formatting coincidence.
///
/// Both mergers are strict: mismatched headers/modes, duplicate or missing
/// indices, full-mode inputs, CSV rows whose cell count differs from the
/// header's, and JSON blocks whose field keys differ from block 0's (as a
/// row or line cut off mid-write does) all throw PreconditionError.

#include <string>
#include <vector>

namespace qrm::scenario {

/// Merge deterministic-mode CSV shard reports (any order, empty shards
/// fine). The index union must be exactly 0..N-1.
[[nodiscard]] std::string merge_csv_reports(const std::vector<std::string>& shard_texts);

/// Merge deterministic-mode JSON shard reports. Scenario blocks pass
/// through byte-for-byte; the envelope (scenario_count, campaign
/// fingerprint) is recomputed from the per-scenario fingerprints, which by
/// construction equals the sequential run's envelope.
[[nodiscard]] std::string merge_json_reports(const std::vector<std::string>& shard_texts);

}  // namespace qrm::scenario
