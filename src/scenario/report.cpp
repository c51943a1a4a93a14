#include "scenario/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/assert.hpp"
#include "util/csv.hpp"

namespace qrm::scenario {

namespace {

template <typename T>
std::string text_of(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

// --- The field table ---------------------------------------------------------

/// The reports that print a field, as a bit set.
enum Format : std::uint8_t { kCsv = 1, kJson = 2, kBoth = 3 };

/// How a value is written, which is the only text the mergers accept for
/// it: a count in decimal, a finite real in the default stream format, text
/// as CsvWriter escapes it or as a JSON string, hex as 0x and lowercase
/// digits (a JSON string), and a pair as `[a, b]` of two counts.
enum Kind : std::uint8_t { kCount, kReal, kText, kHex, kPair };

using R = CampaignReport;
using O = ScenarioOutcome;
using S = ScenarioSpec;
using B = batch::BatchReport;

struct Field {
  const char* name;
  Format format;
  Kind kind;
  bool measured;  ///< written only in ReportMode::Full
  std::string (*value)(const R&, const O&);
};

/// A member of the outcome, of its spec or of its batch report, as text.
template <auto M>
std::string of(const R&, const O& o) {
  if constexpr (std::is_invocable_v<decltype(M), const O&>)
    return text_of(std::invoke(M, o));
  else if constexpr (std::is_invocable_v<decltype(M), const S&>)
    return text_of(std::invoke(M, o.spec));
  else
    return text_of(std::invoke(M, o.batch));
}

constexpr bool kMeasured = true;

/// Every report field once, in the order both formats print them. The
/// mergers read the index from the first field and the fingerprint from
/// the last.
constexpr Field kFields[] = {
    {"index", kBoth, kCount, false, of<&O::index>},
    {"scenario", kCsv, kText, false, of<&S::name>},
    {"name", kJson, kText, false, of<&S::name>},
    {"grid", kCsv, kText, false,
     [](const R&, const O& o) { return dims_text(o.spec.grid_height, o.spec.grid_width); }},
    {"description", kJson, kText, false, of<&S::description>},
    {"target", kCsv, kText, false,
     [](const R&, const O& o) {
       const Region target = o.spec.target_region();
       return dims_text(target.rows, target.cols);
     }},
    {"load", kBoth, kText, false,
     [](const R&, const O& o) { return text_of(to_cstring(o.spec.load)); }},
    {"algorithm", kBoth, kText, false, of<&S::algorithm>},
    {"architecture", kBoth, kText, false,
     [](const R&, const O& o) { return text_of(arch_key(o.spec.architecture)); }},
    {"grid", kJson, kPair, false,
     [](const R&, const O& o) {
       std::ostringstream os;
       os << '[' << o.spec.grid_height << ", " << o.spec.grid_width << ']';
       return os.str();
     }},
    {"shots", kBoth, kCount, false,
     [](const R&, const O& o) { return text_of(o.batch.shots.size()); }},
    {"workers", kCsv, kCount, kMeasured, [](const R& r, const O&) { return text_of(r.workers); }},
    {"success_rate", kBoth, kReal, false, of<&B::success_rate>},
    {"mean_fill_rate", kBoth, kReal, false, of<&B::mean_fill_rate>},
    {"mean_rounds", kBoth, kReal, false, of<&O::mean_rounds>},
    {"p90_rounds", kCsv, kReal, false, of<&O::p90_rounds>},
    {"total_commands", kBoth, kCount, false, of<&B::total_commands>},
    {"p50_commands", kCsv, kReal, false, of<&O::p50_commands>},
    {"p90_commands", kCsv, kReal, false, of<&O::p90_commands>},
    {"arch_overhead_us", kBoth, kReal, false, of<&O::arch_overhead_us>},
    {"p50_plan_us", kBoth, kReal, kMeasured, of<&O::p50_plan_us>},
    {"p90_plan_us", kCsv, kReal, kMeasured, of<&O::p90_plan_us>},
    {"p50_execute_us", kBoth, kReal, kMeasured, of<&O::p50_execute_us>},
    {"shots_per_sec", kCsv, kReal, kMeasured, of<&B::shots_per_second>},
    {"wall_ms", kCsv, kReal, kMeasured,
     [](const R&, const O& o) { return text_of(o.batch.wall_us / 1000.0); }},
    {"fingerprint", kBoth, kHex, false,
     [](const R&, const O& o) { return hex_text(o.fingerprint); }},
};

/// The fields one format prints in one mode, in table order.
std::vector<const Field*> fields(Format format, ReportMode mode) {
  std::vector<const Field*> printed;
  for (const Field& field : kFields)
    if ((field.format & format) != 0 && (mode == ReportMode::Full || !field.measured))
      printed.push_back(&field);
  return printed;
}

/// Minimal JSON string escaping for names/descriptions (quotes, backslash,
/// control characters).
std::string json_escape(std::string_view text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      escaped += '\\';
      escaped += c;
    } else if (c == '\n' || c == '\t') {
      escaped += c == '\n' ? "\\n" : "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      escaped += buf;
    } else {
      escaped += c;
    }
  }
  return escaped;
}

/// `      "key": `, how a scenario block's field line starts.
std::string json_key(const Field& field) {
  std::string key = "      \"";
  key += field.name;
  key += "\": ";
  return key;
}

/// One scenario's block, `    {` through `    }` without a trailing comma.
std::string json_block(const R& report, const O& outcome, const std::vector<const Field*>& keys) {
  std::string block = "    {\n";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Kind kind = keys[i]->kind;
    const std::string value = keys[i]->value(report, outcome);
    block += json_key(*keys[i]);
    if (kind == kText || kind == kHex) {
      block += '"';
      block += kind == kText ? json_escape(value) : value;
      block += '"';
    } else {
      block += value;
    }
    block += i + 1 < keys.size() ? ",\n" : "\n";
  }
  return block + "    }";
}

/// The JSON document: the envelope around the scenario blocks. `full`
/// supplies the full-mode envelope fields; null prints a deterministic
/// report.
void print_json(std::ostream& out, const CampaignReport* full, std::uint64_t fingerprint,
                const std::vector<std::string>& blocks) {
  out << "{\n  \"report\": \"qrm-scenario-campaign\",\n";
  out << "  \"mode\": \"" << (full != nullptr ? "full" : "deterministic") << "\",\n";
  if (full != nullptr) {
    out << "  \"workers\": " << full->workers << ",\n";
    out << "  \"wall_ms\": " << full->wall_us / 1000.0 << ",\n";
    out << "  \"plan_cache\": {\"hits\": " << full->plan_cache.hits
        << ", \"misses\": " << full->plan_cache.misses
        << ", \"hit_rate\": " << full->plan_cache.hit_rate() << "},\n";
  }
  out << "  \"scenario_count\": " << blocks.size() << ",\n";
  out << "  \"fingerprint\": \"" << hex_text(fingerprint) << "\",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < blocks.size(); ++i)
    out << blocks[i] << (i + 1 < blocks.size() ? ",\n" : "\n");
  out << "  ]\n}\n";
}

std::optional<std::uint64_t> read_count(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size()) return std::nullopt;
  return value;
}

/// True when a CSV cell or an unquoted JSON value of `kind` is in its
/// written form: it reads back and prints back to the same text. Any text
/// passes as kText.
bool written_form(Kind kind, std::string_view text) {
  const bool hex = kind == kHex && text.starts_with("0x");
  const std::optional<std::uint64_t> count = read_count(text.substr(hex ? 2 : 0), hex ? 16 : 10);
  double real = 0.0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), real);
  const std::size_t comma = text.find(", ");
  switch (kind) {
    case kCount: return count && std::to_string(*count) == text;
    case kHex: return hex && count && hex_text(*count) == text;
    case kReal:
      return ec == std::errc{} && end == text.data() + text.size() && std::isfinite(real) &&
             text_of(real) == text;
    case kPair:
      return text.starts_with('[') && text.ends_with(']') && comma != std::string_view::npos &&
             written_form(kCount, text.substr(1, comma - 1)) &&
             written_form(kCount, text.substr(comma + 2, text.size() - comma - 3));
    default: return true;  // kText
  }
}

/// True when `value` is a JSON value as json_block writes one of `kind`: a
/// string must unquote and re-escape to the same text, as valid UTF-8.
bool json_written_form(Kind kind, std::string_view value) {
  if (kind != kText && kind != kHex) return written_form(kind, value);
  if (value.size() < 2 || !value.starts_with('"') || !value.ends_with('"')) return false;
  value = value.substr(1, value.size() - 2);
  if (kind == kHex) return written_form(kHex, value);
  std::string text;  // `value` unescaped
  for (std::size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    if (c == '\\' && ++i < value.size()) {
      c = value[i] == 'n' ? '\n' : value[i] == 't' ? '\t' : value[i];
      const auto code = value[i] == 'u' ? read_count(value.substr(i + 1, 4), 16) : std::nullopt;
      if (code) {
        c = static_cast<char>(*code);
        i += 4;
      }
    }
    text += c;
  }
  return json_escape(text) == value && valid_utf8(text);
}

// --- Merging -----------------------------------------------------------------

[[noreturn]] void merge_fail(const std::string& what) {
  throw PreconditionError("report merge error: " + what);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

/// Sort rows/blocks by index and require the union to be exactly 0..N-1 —
/// the property that makes "merged equals sequential" well-defined.
template <typename T>
void sort_and_check_indices(std::vector<std::pair<std::size_t, T>>& rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < rows.size(); ++i)
    if (rows[i].first != i)
      merge_fail("scenario indices do not cover 0.." + std::to_string(rows.size() - 1) +
                 " exactly once (saw index " + std::to_string(rows[i].first) + " at rank " +
                 std::to_string(i) + ")");
}

}  // namespace

void write_csv(const CampaignReport& report, std::ostream& out, ReportMode mode) {
  const std::vector<const Field*> columns = fields(kCsv, mode);
  CsvWriter csv(out);
  std::vector<std::string> cells;
  for (const Field* field : columns) cells.emplace_back(field->name);
  csv.header(cells);
  for (const ScenarioOutcome& outcome : report.scenarios) {
    cells.clear();
    for (const Field* field : columns) cells.push_back(field->value(report, outcome));
    csv.write_row(cells);
  }
}

void write_json(const CampaignReport& report, std::ostream& out, ReportMode mode) {
  const std::vector<const Field*> keys = fields(kJson, mode);
  std::vector<std::string> blocks;
  for (const ScenarioOutcome& outcome : report.scenarios)
    blocks.push_back(json_block(report, outcome, keys));
  print_json(out, mode == ReportMode::Full ? &report : nullptr, report.fingerprint(), blocks);
}

std::string merge_csv_reports(const std::vector<std::string>& shard_texts) {
  QRM_EXPECTS_MSG(!shard_texts.empty(), "report merge needs at least one shard");
  const std::vector<const Field*> columns = fields(kCsv, ReportMode::Deterministic);
  std::ostringstream header;  // what a deterministic report's first line must be
  write_csv(CampaignReport{}, header, ReportMode::Deterministic);

  std::vector<std::pair<std::size_t, std::string>> rows;
  for (std::size_t shard = 0; shard < shard_texts.size(); ++shard) {
    const std::string context = "shard " + std::to_string(shard);
    const std::vector<std::string> lines = split_lines(shard_texts[shard]);
    if (lines.empty() || lines[0] + "\n" != header.str())
      merge_fail(context + " does not start with the deterministic header; shards must be "
                           "written with ReportMode::Deterministic");
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].empty()) continue;
      // A row cut off mid-write still starts with a valid index, so count
      // its cells (quoting included) against the header's, and check each.
      const std::vector<std::vector<std::string>> cells = parse_csv(lines[i]);
      bool written = cells.size() == 1 && cells[0].size() == columns.size();
      for (std::size_t c = 0; written && c < columns.size(); ++c)
        written = written_form(columns[c]->kind, cells[0][c]);
      if (!written) merge_fail(context + " row '" + lines[i] + "' is not a row the writer prints");
      rows.emplace_back(read_count(cells[0][0]).value(), lines[i]);
    }
  }
  sort_and_check_indices(rows);

  std::string merged = header.str();
  for (const auto& [index, row] : rows) merged += row + "\n";
  return merged;
}

std::string merge_json_reports(const std::vector<std::string>& shard_texts) {
  QRM_EXPECTS_MSG(!shard_texts.empty(), "report merge needs at least one shard");
  const std::vector<const Field*> keys = fields(kJson, ReportMode::Deterministic);

  // Each scenario block's text, `    {` through `    }`, and fingerprint.
  std::vector<std::pair<std::size_t, std::pair<std::string, std::uint64_t>>> blocks;
  for (std::size_t shard = 0; shard < shard_texts.size(); ++shard) {
    const std::string context = "shard " + std::to_string(shard);
    const std::vector<std::string> lines = split_lines(shard_texts[shard]);
    if (std::find(lines.begin(), lines.end(), "  \"mode\": \"deterministic\",") == lines.end())
      merge_fail(context + " is not a deterministic-mode campaign report");
    for (std::size_t at = 0; at < lines.size(); ++at) {
      if (lines[at] != "    {") continue;
      // A block is read by position: one line per key, in table order.
      std::string text = lines[at] + "\n";
      std::size_t index = 0;
      std::uint64_t fingerprint = 0;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const std::string key = json_key(*keys[k]);
        const bool last = k + 1 == keys.size();
        std::string_view value = ++at < lines.size() ? lines[at] : std::string_view();
        const bool framed = value.starts_with(key) && (last || value.ends_with(','));
        value = framed ? value.substr(key.size(), value.size() - key.size() - (last ? 0 : 1)) : "";
        if (!framed || !json_written_form(keys[k]->kind, value))
          merge_fail(context + ": a scenario block does not hold '" + keys[k]->name +
                     "' as the writer prints it");
        if (k == 0) index = read_count(value).value();
        if (last) fingerprint = read_count(value.substr(3, value.size() - 4), 16).value();
        text += lines[at] + "\n";
      }
      if (++at >= lines.size() || (lines[at] != "    }" && lines[at] != "    },"))
        merge_fail(context + ": a scenario block does not end after its fields");
      blocks.push_back({index, {text + "    }", fingerprint}});
    }
  }
  sort_and_check_indices(blocks);

  // The envelope's fingerprint from the preserved per-scenario ones,
  // through CampaignReport::fingerprint itself.
  CampaignReport merged;
  std::vector<std::string> texts;
  for (auto& [index, block] : blocks) {
    merged.scenarios.emplace_back().fingerprint = block.second;
    texts.push_back(std::move(block.first));
  }
  std::ostringstream os;
  print_json(os, nullptr, merged.fingerprint(), texts);
  return os.str();
}

}  // namespace qrm::scenario
