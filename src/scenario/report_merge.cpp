#include "scenario/report_merge.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/fnv.hpp"

namespace qrm::scenario {

namespace {

[[noreturn]] void merge_fail(const std::string& what) {
  throw PreconditionError("report merge error: " + what);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

/// Sort rows/blocks by index and require the union to be exactly 0..N-1 —
/// the property that makes "merged equals sequential" well-defined.
template <typename T>
void sort_and_check_indices(std::vector<std::pair<std::size_t, T>>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].first != i)
      merge_fail("scenario indices do not cover 0.." + std::to_string(rows.size() - 1) +
                 " exactly once (saw index " + std::to_string(rows[i].first) + " at rank " +
                 std::to_string(i) + ")");
  }
}

std::size_t parse_index(const std::string& text, const std::string& context) {
  std::size_t index = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), index);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size())
    merge_fail(context + ": '" + text + "' is not a scenario index");
  return index;
}

std::uint64_t parse_hex_fingerprint(const std::string& text) {
  if (text.rfind("0x", 0) != 0) merge_fail("fingerprint '" + text + "' is not 0x-hex");
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  if (ec != std::errc{} || end != text.data() + text.size())
    merge_fail("fingerprint '" + text + "' is not 0x-hex");
  return value;
}

/// A JSON scenario block's field keys in order: each line up to its `": `
/// separator, or the whole line when it has none.
std::vector<std::string> field_keys(const std::vector<std::string>& block) {
  std::vector<std::string> keys;
  keys.reserve(block.size());
  for (const std::string& line : block) keys.push_back(line.substr(0, line.find("\": ")));
  return keys;
}

}  // namespace

std::string merge_csv_reports(const std::vector<std::string>& shard_texts) {
  QRM_EXPECTS_MSG(!shard_texts.empty(), "report merge needs at least one shard");

  std::string header;
  std::size_t columns = 0;
  std::vector<std::pair<std::size_t, std::string>> rows;
  for (std::size_t shard = 0; shard < shard_texts.size(); ++shard) {
    const std::vector<std::string> lines = split_lines(shard_texts[shard]);
    if (lines.empty()) merge_fail("shard " + std::to_string(shard) + " is empty");
    if (lines[0].rfind("index,", 0) != 0)
      merge_fail("shard " + std::to_string(shard) + " does not start with the index column");
    if (lines[0].find("wall_ms") != std::string::npos)
      merge_fail("shard " + std::to_string(shard) +
                 " is a full-mode report (has measurement columns); shards must be written "
                 "with ReportMode::Deterministic");
    if (header.empty()) {
      header = lines[0];
      columns = parse_csv(header).front().size();
    } else if (lines[0] != header) {
      merge_fail("shard " + std::to_string(shard) + " header differs from shard 0");
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      // A row cut off mid-write still starts with a valid index, so count
      // its cells (quoting included) against the header's.
      const std::vector<std::vector<std::string>> cells = parse_csv(lines[i]);
      if (cells.size() != 1 || cells.front().size() != columns)
        merge_fail("shard " + std::to_string(shard) + " row '" + lines[i] + "' does not have " +
                   std::to_string(columns) + " cells");
      rows.emplace_back(parse_index(cells.front().front(), "csv row"), lines[i]);
    }
  }
  sort_and_check_indices(rows);

  std::string merged = header + "\n";
  for (const auto& [index, row] : rows) merged += row + "\n";
  return merged;
}

std::string merge_json_reports(const std::vector<std::string>& shard_texts) {
  QRM_EXPECTS_MSG(!shard_texts.empty(), "report merge needs at least one shard");

  // Each block is the exact lines write_json emitted for one scenario,
  // `    {` through `    }` (shard-local trailing comma stripped).
  std::vector<std::pair<std::size_t, std::vector<std::string>>> blocks;
  for (std::size_t shard = 0; shard < shard_texts.size(); ++shard) {
    const std::string context = "shard " + std::to_string(shard);
    const std::vector<std::string> lines = split_lines(shard_texts[shard]);
    bool deterministic = false;
    bool in_block = false;
    std::vector<std::string> block;
    std::size_t block_index = 0;
    bool saw_index = false;
    for (const std::string& line : lines) {
      if (line == "  \"mode\": \"deterministic\",") deterministic = true;
      if (line == "  \"mode\": \"full\",")
        merge_fail(context + " is a full-mode report; shards must be written with "
                             "ReportMode::Deterministic");
      if (line == "    {") {
        if (in_block) merge_fail(context + ": nested scenario block");
        in_block = true;
        block = {line};
        saw_index = false;
        continue;
      }
      if (!in_block) continue;
      if (line == "    }" || line == "    },") {
        block.push_back("    }");
        if (!saw_index) merge_fail(context + ": scenario block without an index field");
        blocks.emplace_back(block_index, std::move(block));
        in_block = false;
        continue;
      }
      block.push_back(line);
      const std::string index_prefix = "      \"index\": ";
      if (line.rfind(index_prefix, 0) == 0) {
        std::string value = line.substr(index_prefix.size());
        if (!value.empty() && value.back() == ',') value.pop_back();
        block_index = parse_index(value, context);
        saw_index = true;
      }
    }
    if (in_block) merge_fail(context + ": unterminated scenario block");
    if (!deterministic) merge_fail(context + " is not a deterministic-mode campaign report");
  }
  sort_and_check_indices(blocks);

  // Recompute the campaign envelope from the preserved per-scenario
  // fingerprints — the same order-sensitive mix CampaignReport::fingerprint
  // performs, so the merged envelope equals the sequential run's.
  std::uint64_t campaign = fnv::kOffset;
  fnv::mix_u64(campaign, blocks.size());
  const std::string fingerprint_prefix = "      \"fingerprint\": \"";
  std::vector<std::string> first_keys;
  for (const auto& [index, block] : blocks) {
    // A line cut off mid-write changes its block's key sequence.
    std::vector<std::string> keys = field_keys(block);
    if (index == 0)
      first_keys = std::move(keys);
    else if (keys != first_keys)
      merge_fail("scenario block " + std::to_string(index) +
                 " does not have the fields of block 0, in order");
    std::string fingerprint;
    for (const std::string& line : block) {
      if (line.rfind(fingerprint_prefix, 0) == 0) {
        fingerprint = line.substr(fingerprint_prefix.size());
        if (fingerprint.size() < 2 || fingerprint.back() != '"')
          merge_fail("malformed fingerprint line '" + line + "'");
        fingerprint.pop_back();
      }
    }
    if (fingerprint.empty())
      merge_fail("scenario block " + std::to_string(index) + " has no fingerprint");
    fnv::mix_u64(campaign, parse_hex_fingerprint(fingerprint));
  }

  std::ostringstream os;
  os << "{\n";
  os << "  \"report\": \"qrm-scenario-campaign\",\n";
  os << "  \"mode\": \"deterministic\",\n";
  os << "  \"scenario_count\": " << blocks.size() << ",\n";
  os << "  \"fingerprint\": \"0x" << std::hex << campaign << std::dec << "\",\n";
  os << "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const std::vector<std::string>& block = blocks[i].second;
    for (std::size_t line = 0; line < block.size(); ++line) {
      os << block[line];
      if (line + 1 == block.size() && i + 1 < blocks.size()) os << ",";
      os << "\n";
    }
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace qrm::scenario
