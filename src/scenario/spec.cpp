#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "baselines/algorithm.hpp"
#include "util/assert.hpp"

namespace qrm::scenario {

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw PreconditionError("scenario parse error: " + what);
}

/// Sanity bounds on every count-like field, enforced at parse time (so
/// narrowing into the spec's field types can never wrap) and again in
/// validate() (so programmatically built specs get the same protection).
/// 16384² is already a 256-megasite array — far past the stress registry.
constexpr std::int64_t kMaxGridSide = 16384;
constexpr std::int64_t kMaxClusters = 4096;
constexpr std::int64_t kMaxCount = 1'000'000;
/// Photon-count sanity cap (imaged detection): a real camera pixel well
/// saturates around 1e5 electrons; 1e9 per atom is far past physical.
constexpr double kMaxPhotons = 1e9;

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

/// Shortest decimal form that parses back to the same double ("0.55", not
/// "0.55000000000000004") — what makes the text round trip exact.
std::string format_double(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  QRM_ENSURES(ec == std::errc{});
  return std::string(buf, end);
}

double parse_double(const std::string& key, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (value.empty() || end != begin + value.size())
    parse_fail("key '" + key + "': '" + value + "' is not a number");
  return parsed;
}

std::int64_t parse_int(const std::string& key, const std::string& value) {
  std::int64_t parsed = 0;
  const auto [end, ec] = std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (value.empty() || ec != std::errc{} || end != value.data() + value.size())
    parse_fail("key '" + key + "': '" + value + "' is not an integer");
  return parsed;
}

/// parse_int plus an inclusive range check, so a value can never wrap when
/// narrowed into its spec field (clusters=-1 must be an error, not ~4e9
/// blast regions).
std::int64_t parse_bounded(const std::string& key, const std::string& value, std::int64_t lo,
                           std::int64_t hi) {
  const std::int64_t parsed = parse_int(key, value);
  if (parsed < lo || parsed > hi)
    parse_fail("key '" + key + "': " + value + " is outside [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]");
  return parsed;
}

std::uint64_t parse_seed(const std::string& key, const std::string& value) {
  std::uint64_t parsed = 0;
  const bool hex = value.rfind("0x", 0) == 0 || value.rfind("0X", 0) == 0;
  const char* begin = value.data() + (hex ? 2 : 0);
  const char* stop = value.data() + value.size();
  const auto [end, ec] = std::from_chars(begin, stop, parsed, hex ? 16 : 10);
  if (begin == stop || ec != std::errc{} || end != stop)
    parse_fail("key '" + key + "': '" + value + "' is not a seed (decimal or 0x hex)");
  return parsed;
}

/// "64" -> {64, 64}; "64x48" -> {64, 48} (height x width / rows x cols).
std::pair<std::int32_t, std::int32_t> parse_dims(const std::string& key,
                                                 const std::string& value) {
  const auto x = value.find('x');
  if (x == std::string::npos) {
    const auto side = static_cast<std::int32_t>(parse_bounded(key, value, 1, kMaxGridSide));
    return {side, side};
  }
  return {static_cast<std::int32_t>(parse_bounded(key, value.substr(0, x), 1, kMaxGridSide)),
          static_cast<std::int32_t>(parse_bounded(key, value.substr(x + 1), 1, kMaxGridSide))};
}

template <typename Enum>
Enum parse_enum(const std::string& key, const std::string& value,
                const std::vector<std::pair<std::string, Enum>>& table) {
  for (const auto& [text, parsed] : table)
    if (value == text) return parsed;
  std::string known;
  for (const auto& [text, parsed] : table) known += (known.empty() ? "" : "|") + text;
  parse_fail("key '" + key + "': unknown value '" + value + "' (expected " + known + ")");
}

const std::vector<std::pair<std::string, LoadProfile>>& load_table() {
  static const std::vector<std::pair<std::string, LoadProfile>> table = {
      {"uniform", LoadProfile::Uniform},   {"at-least", LoadProfile::AtLeast},
      {"clustered", LoadProfile::Clustered}, {"gradient", LoadProfile::Gradient},
      {"pattern", LoadProfile::Pattern},
  };
  return table;
}

const std::vector<std::pair<std::string, Pattern>>& pattern_table() {
  static const std::vector<std::pair<std::string, Pattern>> table = {
      {"full", Pattern::Full},
      {"empty", Pattern::Empty},
      {"checkerboard", Pattern::Checkerboard},
      {"row-stripes", Pattern::RowStripes},
      {"col-stripes", Pattern::ColStripes},
      {"border", Pattern::Border},
      {"corner-block", Pattern::CornerBlock},
      {"half-grid", Pattern::HalfGrid},
  };
  return table;
}

const std::vector<std::pair<std::string, DriftShape>>& drift_table() {
  static const std::vector<std::pair<std::string, DriftShape>> table = {
      {"none", DriftShape::None},
      {"ramp", DriftShape::Ramp},
      {"sine", DriftShape::Sine},
  };
  return table;
}

/// Comma list of dead AOD line indices, strictly ascending (which also bans
/// duplicates) so the serialized form is canonical: one spec, one text.
std::vector<std::int32_t> parse_line_list(const std::string& key, const std::string& value) {
  std::vector<std::int32_t> lines;
  // istringstream+getline silently swallows a trailing empty element, so a
  // dangling comma must be rejected up front.
  if (!value.empty() && value.back() == ',')
    parse_fail("key '" + key + "' has an empty element");
  std::istringstream list(value);
  std::string item;
  while (std::getline(list, item, ',')) {
    const std::string cleaned = trim(item);
    if (cleaned.empty()) parse_fail("key '" + key + "' has an empty element");
    const auto line = static_cast<std::int32_t>(parse_bounded(key, cleaned, 0, kMaxGridSide - 1));
    if (!lines.empty() && line <= lines.back())
      parse_fail("key '" + key + "': line indices must be strictly ascending");
    lines.push_back(line);
  }
  if (lines.empty()) parse_fail("key '" + key + "' must list at least one line index");
  return lines;
}

template <typename Enum>
const char* enum_text(Enum value, const std::vector<std::pair<std::string, Enum>>& table) {
  for (const auto& [text, candidate] : table)
    if (candidate == value) return text.c_str();
  return "?";
}

/// Which load profiles a profile-specific key applies to. Keys absent here
/// are universal.
const std::map<std::string, std::set<LoadProfile>>& profile_keys() {
  static const std::map<std::string, std::set<LoadProfile>> keys = {
      {"fill", {LoadProfile::Uniform, LoadProfile::AtLeast, LoadProfile::Clustered}},
      {"min_atoms", {LoadProfile::AtLeast}},
      {"clusters", {LoadProfile::Clustered}},
      {"cluster_radius", {LoadProfile::Clustered}},
      {"gradient_start", {LoadProfile::Gradient}},
      {"gradient_end", {LoadProfile::Gradient}},
      {"gradient_axis", {LoadProfile::Gradient}},
      {"pattern", {LoadProfile::Pattern}},
  };
  return keys;
}

void check_probability(const std::string& key, double p) {
  QRM_EXPECTS_MSG(p >= 0.0 && p <= 1.0,
                  "scenario '" + key + "' must be a probability in [0,1]");
}

}  // namespace

const char* to_cstring(LoadProfile profile) noexcept {
  return enum_text(profile, load_table());
}

const char* arch_key(rt::Architecture architecture) noexcept {
  return architecture == rt::Architecture::FpgaIntegrated ? "fpga" : "host";
}

const char* to_cstring(Pattern pattern) noexcept { return enum_text(pattern, pattern_table()); }

Region ScenarioSpec::target_region() const {
  if (target_rows == 0 && target_cols == 0) {
    // The paper's rule, as used by every existing sweep binary: an even
    // ~0.6*W square ("target=auto").
    const std::int32_t side = std::min(grid_height, grid_width) * 3 / 5 / 2 * 2;
    return centered_region(grid_height, grid_width, side, side);
  }
  return centered_region(grid_height, grid_width, target_rows, target_cols);
}

std::int64_t ScenarioSpec::resolved_min_atoms() const {
  return min_atoms > 0 ? min_atoms : target_region().area();
}

bool ScenarioSpec::has_tag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

bool ScenarioSpec::matches_filter(const std::string& filter) const {
  if (filter.empty()) return true;
  return name.find(filter) != std::string::npos || has_tag(filter);
}

void validate(const ScenarioSpec& spec) {
  // The text form is one key=value per line, trimmed of " \t\r": anything
  // that line format would split or trim cannot round-trip.
  QRM_EXPECTS_MSG(!spec.name.empty(), "scenario name must not be empty");
  QRM_EXPECTS_MSG(spec.name.find_first_of(" \t\r\n") == std::string::npos,
                  "scenario name must not contain whitespace");
  for (const std::string& tag : spec.tags)
    QRM_EXPECTS_MSG(!tag.empty() && tag.find_first_of(" \t\r\n,") == std::string::npos,
                    "scenario tags must be non-empty and comma/whitespace-free");
  QRM_EXPECTS_MSG(spec.description.find_first_of("\r\n") == std::string::npos &&
                      spec.description == trim(spec.description),
                  "scenario description must be one line without leading/trailing blanks");
  QRM_EXPECTS_MSG(spec.grid_height > 0 && spec.grid_width > 0,
                  "scenario grid dimensions must be positive");
  QRM_EXPECTS_MSG(spec.grid_height <= kMaxGridSide && spec.grid_width <= kMaxGridSide,
                  "scenario grid dimensions exceed the sanity cap");
  QRM_EXPECTS_MSG(spec.grid_height % 2 == 0 && spec.grid_width % 2 == 0,
                  "scenario grid dimensions must be even (quadrant decomposition)");
  QRM_EXPECTS_MSG((spec.target_rows == 0) == (spec.target_cols == 0),
                  "target rows/cols must both be explicit or both auto");
  const Region target = spec.target_region();  // throws if it does not fit
  QRM_EXPECTS_MSG(target.rows % 2 == 0 && target.cols % 2 == 0,
                  "scenario target sides must be even (quadrant decomposition)");
  check_probability("fill", spec.fill);
  check_probability("gradient_start", spec.gradient_start);
  check_probability("gradient_end", spec.gradient_end);
  check_probability("per_move_loss", spec.per_move_loss);
  check_probability("background_loss", spec.background_loss);
  QRM_EXPECTS_MSG(spec.min_atoms >= 0, "scenario min_atoms must be non-negative");
  QRM_EXPECTS_MSG(spec.clusters <= kMaxClusters, "scenario clusters exceeds the sanity cap");
  QRM_EXPECTS_MSG(spec.cluster_radius >= 0, "scenario cluster_radius must be non-negative");
  QRM_EXPECTS_MSG(spec.shots > 0, "scenario shots must be positive");
  QRM_EXPECTS_MSG(spec.shots <= kMaxCount, "scenario shots exceeds the sanity cap");
  QRM_EXPECTS_MSG(spec.max_rounds > 0, "scenario max_rounds must be positive");
  QRM_EXPECTS_MSG(spec.max_rounds <= kMaxCount, "scenario max_rounds exceeds the sanity cap");
  QRM_EXPECTS_MSG(std::isfinite(spec.photons_per_atom) && spec.photons_per_atom > 0.0 &&
                      spec.photons_per_atom <= kMaxPhotons,
                  "scenario photons_per_atom must be positive and finite");
  QRM_EXPECTS_MSG(spec.detection_threshold == -1.0 ||
                      (std::isfinite(spec.detection_threshold) &&
                       spec.detection_threshold >= 0.0 &&
                       spec.detection_threshold <= kMaxPhotons),
                  "scenario detection_threshold must be -1 (auto) or a finite photon count");
  check_probability("burst_loss", spec.burst_loss);
  QRM_EXPECTS_MSG(spec.burst_length >= 1 && spec.burst_length <= kMaxCount,
                  "scenario burst_length must be in [1, cap]");
  QRM_EXPECTS_MSG(std::isfinite(spec.drift_amplitude) && spec.drift_amplitude >= 0.0 &&
                      spec.drift_amplitude <= 1.0,
                  "scenario drift_amplitude must be in [0,1]");
  QRM_EXPECTS_MSG(spec.drift_period >= 1 && spec.drift_period <= kMaxCount,
                  "scenario drift_period must be in [1, cap]");
  QRM_EXPECTS_MSG(std::isfinite(spec.threshold_bias) && spec.threshold_bias > 0.0 &&
                      spec.threshold_bias <= 100.0,
                  "scenario threshold_bias must be finite in (0, 100]");
  // Imaging-only axes serialize inside the imaged_detection block; allowing
  // them without it would drop them from the text form and break the
  // serialize/parse round trip.
  QRM_EXPECTS_MSG(spec.imaged_detection ||
                      (spec.drift == DriftShape::None && spec.threshold_bias == 1.0),
                  "scenario drift/threshold_bias require imaged_detection");
  // Dead channels: strictly ascending in-grid indices, disjoint from the
  // target (atoms on dead lines are frozen — a dead target line could never
  // be filled, so every shot would be an unwinnable dud, not a stress test).
  const auto check_dead = [&](const char* what, const std::vector<std::int32_t>& lines,
                              std::int32_t limit, std::int32_t target_lo, std::int32_t target_hi) {
    std::int32_t prev = -1;
    for (const std::int32_t line : lines) {
      QRM_EXPECTS_MSG(line >= 0 && line < limit,
                      "scenario " + std::string(what) + " index outside the grid");
      QRM_EXPECTS_MSG(line > prev,
                      "scenario " + std::string(what) + " must be strictly ascending");
      QRM_EXPECTS_MSG(line < target_lo || line >= target_hi,
                      "scenario " + std::string(what) + " intersects the target region");
      prev = line;
    }
  };
  check_dead("dead_rows", spec.dead_rows, spec.grid_height, target.row0, target.row_end());
  check_dead("dead_cols", spec.dead_cols, spec.grid_width, target.col0, target.col_end());
  // Unknown algorithm names throw here, with the registry's own message.
  (void)baselines::make_algorithm(spec.algorithm);
}

OccupancyGrid generate_workload(const ScenarioSpec& spec, std::uint64_t shot_seed) {
  switch (spec.load) {
    case LoadProfile::Uniform:
      return load_random(spec.grid_height, spec.grid_width, {spec.fill, shot_seed});
    case LoadProfile::AtLeast:
      return load_random_at_least(spec.grid_height, spec.grid_width, {spec.fill, shot_seed},
                                  spec.resolved_min_atoms());
    case LoadProfile::Clustered: {
      ClusteredLoaderConfig config;
      config.base = {spec.fill, shot_seed};
      config.clusters = spec.clusters;
      config.cluster_radius = spec.cluster_radius;
      return load_clustered(spec.grid_height, spec.grid_width, config);
    }
    case LoadProfile::Gradient: {
      GradientLoaderConfig config;
      config.start_fill = spec.gradient_start;
      config.end_fill = spec.gradient_end;
      config.axis = spec.gradient_axis;
      config.seed = shot_seed;
      return load_gradient(spec.grid_height, spec.grid_width, config);
    }
    case LoadProfile::Pattern:
      return load_pattern(spec.grid_height, spec.grid_width, spec.pattern);
  }
  throw InvariantError("generate_workload: unreachable load profile");
}

std::string serialize(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "name=" << spec.name << "\n";
  if (!spec.description.empty()) os << "description=" << spec.description << "\n";
  if (!spec.tags.empty()) {
    os << "tags=";
    for (std::size_t i = 0; i < spec.tags.size(); ++i)
      os << (i > 0 ? "," : "") << spec.tags[i];
    os << "\n";
  }
  os << "grid=" << spec.grid_height << "x" << spec.grid_width << "\n";
  if (spec.target_rows == 0 && spec.target_cols == 0)
    os << "target=auto\n";
  else
    os << "target=" << spec.target_rows << "x" << spec.target_cols << "\n";
  os << "load=" << to_cstring(spec.load) << "\n";
  switch (spec.load) {
    case LoadProfile::Uniform: os << "fill=" << format_double(spec.fill) << "\n"; break;
    case LoadProfile::AtLeast:
      os << "fill=" << format_double(spec.fill) << "\n";
      if (spec.min_atoms > 0)
        os << "min_atoms=" << spec.min_atoms << "\n";
      else
        os << "min_atoms=auto\n";
      break;
    case LoadProfile::Clustered:
      os << "fill=" << format_double(spec.fill) << "\n";
      os << "clusters=" << spec.clusters << "\n";
      os << "cluster_radius=" << spec.cluster_radius << "\n";
      break;
    case LoadProfile::Gradient:
      os << "gradient_start=" << format_double(spec.gradient_start) << "\n";
      os << "gradient_end=" << format_double(spec.gradient_end) << "\n";
      os << "gradient_axis=" << (spec.gradient_axis == GradientAxis::Rows ? "rows" : "cols")
         << "\n";
      break;
    case LoadProfile::Pattern: os << "pattern=" << to_cstring(spec.pattern) << "\n"; break;
  }
  os << "mode=" << to_cstring(spec.mode) << "\n";
  os << "algorithm=" << spec.algorithm << "\n";
  os << "architecture=" << arch_key(spec.architecture) << "\n";
  if (spec.replan != ReplanMode::Scratch) os << "replan=" << to_cstring(spec.replan) << "\n";
  if (spec.imaged_detection) {
    os << "imaged_detection=true\n";
    os << "photons_per_atom=" << format_double(spec.photons_per_atom) << "\n";
    if (spec.detection_threshold < 0.0)
      os << "detection_threshold=auto\n";
    else
      os << "detection_threshold=" << format_double(spec.detection_threshold) << "\n";
    // Hostile imaging axes, emitted only when active so pre-existing spec
    // fingerprints cannot drift.
    if (spec.drift != DriftShape::None) {
      os << "drift=" << enum_text(spec.drift, drift_table()) << "\n";
      os << "drift_amplitude=" << format_double(spec.drift_amplitude) << "\n";
      os << "drift_period=" << spec.drift_period << "\n";
    }
    if (spec.threshold_bias != 1.0)
      os << "threshold_bias=" << format_double(spec.threshold_bias) << "\n";
  }
  os << "shots=" << spec.shots << "\n";
  {
    std::ostringstream hex;
    hex << std::hex << spec.seed;
    os << "seed=0x" << hex.str() << "\n";
  }
  os << "per_move_loss=" << format_double(spec.per_move_loss) << "\n";
  os << "background_loss=" << format_double(spec.background_loss) << "\n";
  if (spec.burst_loss > 0.0) {
    os << "burst_loss=" << format_double(spec.burst_loss) << "\n";
    os << "burst_length=" << spec.burst_length << "\n";
  }
  os << "max_rounds=" << spec.max_rounds << "\n";
  const auto emit_lines = [&os](const char* key, const std::vector<std::int32_t>& lines) {
    if (lines.empty()) return;
    os << key << "=";
    for (std::size_t i = 0; i < lines.size(); ++i) os << (i > 0 ? "," : "") << lines[i];
    os << "\n";
  };
  emit_lines("dead_rows", spec.dead_rows);
  emit_lines("dead_cols", spec.dead_cols);
  return os.str();
}

namespace {

/// One key=value line, order-preserved; the sweep expander rewrites values
/// in place before the strict parser sees them.
struct SpecLine {
  std::string key;
  std::string value;
};

std::vector<SpecLine> tokenize_block(const std::string& text) {
  std::vector<SpecLine> lines;
  std::set<std::string> seen;
  std::istringstream stream(text);
  std::string raw;
  while (std::getline(stream, raw)) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) parse_fail("line '" + line + "' is not key=value");
    SpecLine parsed{trim(line.substr(0, eq)), trim(line.substr(eq + 1))};
    if (parsed.key.empty()) parse_fail("line '" + line + "' has an empty key");
    if (!seen.insert(parsed.key).second) parse_fail("duplicate key '" + parsed.key + "'");
    lines.push_back(std::move(parsed));
  }
  return lines;
}

ScenarioSpec parse_lines(const std::vector<SpecLine>& lines) {
  ScenarioSpec spec;
  std::set<std::string> seen;
  for (const auto& [key, value] : lines) {
    seen.insert(key);
    if (key == "name") {
      spec.name = value;
    } else if (key == "description") {
      spec.description = value;
    } else if (key == "tags") {
      std::istringstream tags(value);
      std::string tag;
      while (std::getline(tags, tag, ',')) spec.tags.push_back(trim(tag));
    } else if (key == "grid") {
      std::tie(spec.grid_height, spec.grid_width) = parse_dims(key, value);
    } else if (key == "target") {
      if (value == "auto")
        spec.target_rows = spec.target_cols = 0;
      else
        std::tie(spec.target_rows, spec.target_cols) = parse_dims(key, value);
    } else if (key == "load") {
      spec.load = parse_enum(key, value, load_table());
    } else if (key == "fill") {
      spec.fill = parse_double(key, value);
    } else if (key == "min_atoms") {
      spec.min_atoms =
          value == "auto" ? 0 : parse_bounded(key, value, 0, kMaxGridSide * kMaxGridSide);
    } else if (key == "clusters") {
      spec.clusters = static_cast<std::uint32_t>(parse_bounded(key, value, 0, kMaxClusters));
    } else if (key == "cluster_radius") {
      spec.cluster_radius =
          static_cast<std::int32_t>(parse_bounded(key, value, 0, kMaxGridSide));
    } else if (key == "gradient_start") {
      spec.gradient_start = parse_double(key, value);
    } else if (key == "gradient_end") {
      spec.gradient_end = parse_double(key, value);
    } else if (key == "gradient_axis") {
      spec.gradient_axis = parse_enum(
          key, value,
          std::vector<std::pair<std::string, GradientAxis>>{{"rows", GradientAxis::Rows},
                                                            {"cols", GradientAxis::Cols}});
    } else if (key == "pattern") {
      spec.pattern = parse_enum(key, value, pattern_table());
    } else if (key == "mode") {
      spec.mode = parse_enum(key, value,
                             std::vector<std::pair<std::string, PlanMode>>{
                                 {"balanced", PlanMode::Balanced}, {"compact", PlanMode::Compact}});
    } else if (key == "algorithm") {
      spec.algorithm = value;
    } else if (key == "architecture") {
      spec.architecture = parse_enum(
          key, value,
          std::vector<std::pair<std::string, rt::Architecture>>{
              {arch_key(rt::Architecture::FpgaIntegrated), rt::Architecture::FpgaIntegrated},
              {arch_key(rt::Architecture::HostMediated), rt::Architecture::HostMediated}});
    } else if (key == "replan") {
      spec.replan = parse_enum(key, value,
                               std::vector<std::pair<std::string, ReplanMode>>{
                                   {"scratch", ReplanMode::Scratch}, {"delta", ReplanMode::Delta}});
    } else if (key == "imaged_detection") {
      if (value != "true" && value != "false")
        parse_fail("key '" + key + "': expected true|false, got '" + value + "'");
      spec.imaged_detection = value == "true";
    } else if (key == "photons_per_atom") {
      spec.photons_per_atom = parse_double(key, value);
    } else if (key == "detection_threshold") {
      spec.detection_threshold = value == "auto" ? -1.0 : parse_double(key, value);
    } else if (key == "shots") {
      spec.shots = static_cast<std::uint32_t>(parse_bounded(key, value, 1, kMaxCount));
    } else if (key == "seed") {
      spec.seed = parse_seed(key, value);
    } else if (key == "per_move_loss") {
      spec.per_move_loss = parse_double(key, value);
    } else if (key == "background_loss") {
      spec.background_loss = parse_double(key, value);
    } else if (key == "max_rounds") {
      spec.max_rounds = static_cast<std::uint32_t>(parse_bounded(key, value, 1, kMaxCount));
    } else if (key == "burst_loss") {
      spec.burst_loss = parse_double(key, value);
    } else if (key == "burst_length") {
      spec.burst_length = static_cast<std::int32_t>(parse_bounded(key, value, 1, kMaxCount));
    } else if (key == "drift") {
      spec.drift = parse_enum(key, value, drift_table());
    } else if (key == "drift_amplitude") {
      spec.drift_amplitude = parse_double(key, value);
    } else if (key == "drift_period") {
      spec.drift_period = static_cast<std::uint32_t>(parse_bounded(key, value, 1, kMaxCount));
    } else if (key == "threshold_bias") {
      spec.threshold_bias = parse_double(key, value);
    } else if (key == "dead_rows") {
      spec.dead_rows = parse_line_list(key, value);
    } else if (key == "dead_cols") {
      spec.dead_cols = parse_line_list(key, value);
    } else {
      parse_fail("unknown key '" + key + "'");
    }
  }
  // Profile-specific keys may only appear under their profile — a
  // `pattern=` line in a uniform scenario is a spec bug, not a default.
  for (const auto& [key, profiles] : profile_keys()) {
    if (seen.count(key) > 0 && profiles.count(spec.load) == 0)
      parse_fail("key '" + key + "' does not apply to load=" +
                 std::string(to_cstring(spec.load)));
  }
  // Imaging keys are gated the same way, on imaged_detection rather than
  // the load profile: a stray photons_per_atom in a perfect-detection spec
  // is a spec bug, not a silent default.
  for (const char* key :
       {"photons_per_atom", "detection_threshold", "drift", "drift_amplitude", "drift_period",
        "threshold_bias"}) {
    if (seen.count(key) > 0 && !spec.imaged_detection)
      parse_fail("key '" + std::string(key) + "' requires imaged_detection=true");
  }
  // Sub-axis keys only apply when their parent axis is active — a stray
  // drift_amplitude with no drift shape (or a burst_length with no burst
  // probability) would silently serialize away, breaking the round trip.
  for (const char* key : {"drift_amplitude", "drift_period"}) {
    if (seen.count(key) > 0 && spec.drift == DriftShape::None)
      parse_fail("key '" + std::string(key) + "' requires drift=ramp|sine");
  }
  if (seen.count("burst_length") > 0 && spec.burst_loss <= 0.0)
    parse_fail("key 'burst_length' requires burst_loss > 0");
  validate(spec);
  return spec;
}

/// Keys whose values may carry `lo..hi step s` / comma-list sweeps.
bool sweepable(const std::string& key) {
  static const std::set<std::string> keys = {"grid",       "target",        "fill", "shots",
                                             "max_rounds", "per_move_loss", "seed"};
  return keys.count(key) > 0;
}

std::vector<std::string> expand_value(const std::string& key, const std::string& value) {
  const auto range = value.find("..");
  if (range != std::string::npos) {
    // `lo..hi step s`, endpoints inclusive.
    const std::string lo_text = trim(value.substr(0, range));
    std::string rest = trim(value.substr(range + 2));
    const auto step_pos = rest.find("step");
    if (step_pos == std::string::npos)
      parse_fail("sweep '" + key + "=" + value + "' is missing 'step'");
    const std::string hi_text = trim(rest.substr(0, step_pos));
    const std::string step_text = trim(rest.substr(step_pos + 4));
    const double lo = parse_double(key, lo_text);
    const double hi = parse_double(key, hi_text);
    const double step = parse_double(key, step_text);
    if (step <= 0.0) parse_fail("sweep '" + key + "=" + value + "': step must be positive");
    if (hi < lo) parse_fail("sweep '" + key + "=" + value + "': upper bound below lower");
    std::vector<std::string> values;
    // Walk by index, not accumulation, so float steps cannot drift; the
    // epsilon admits an endpoint that lands within rounding of `hi`. 15
    // significant digits round 0.4 + 2*0.1 back to "0.6" (the grid point
    // the user wrote) instead of the shortest-exact 0.6000000000000001.
    for (int i = 0;; ++i) {
      const double v = lo + step * i;
      if (v > hi + step * 1e-9) break;
      char buf[64];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                           std::chars_format::general, 15);
      QRM_ENSURES(ec == std::errc{});
      values.emplace_back(buf, end);
    }
    return values;
  }
  if (value.find(',') != std::string::npos) {
    std::vector<std::string> values;
    std::istringstream list(value);
    std::string item;
    while (std::getline(list, item, ',')) {
      const std::string cleaned = trim(item);
      if (cleaned.empty()) parse_fail("sweep '" + key + "=" + value + "' has an empty element");
      values.push_back(cleaned);
    }
    return values;
  }
  return {value};
}

std::vector<ScenarioSpec> expand_block(const std::string& block, std::size_t max_scenarios) {
  const std::vector<SpecLine> lines = tokenize_block(block);
  if (lines.empty()) return {};

  // Expand each sweepable value; multiply counts up front so an oversized
  // matrix fails before any scenario is built.
  std::vector<std::vector<std::string>> choices(lines.size());
  std::size_t total = 1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    choices[i] = sweepable(lines[i].key) ? expand_value(lines[i].key, lines[i].value)
                                         : std::vector<std::string>{lines[i].value};
    QRM_EXPECTS_MSG(total <= max_scenarios / choices[i].size() || choices[i].size() == 1,
                    "sweep expands to more than the scenario cap");
    total *= choices[i].size();
  }
  QRM_EXPECTS_MSG(total <= max_scenarios, "sweep expands to more than the scenario cap");

  std::vector<ScenarioSpec> expanded;
  std::vector<std::size_t> index(lines.size(), 0);
  for (std::size_t combo = 0; combo < total; ++combo) {
    std::vector<SpecLine> concrete = lines;
    std::string suffix;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      concrete[i].value = choices[i][index[i]];
      if (choices[i].size() > 1) suffix += "/" + lines[i].key + "=" + concrete[i].value;
    }
    for (auto& line : concrete)
      if (line.key == "name") line.value += suffix;
    expanded.push_back(parse_lines(concrete));
    for (std::size_t i = lines.size(); i-- > 0;) {
      if (++index[i] < choices[i].size()) break;
      index[i] = 0;
    }
  }
  return expanded;
}

}  // namespace

ScenarioSpec parse_scenario(const std::string& text) {
  const std::vector<SpecLine> lines = tokenize_block(text);
  if (lines.empty()) parse_fail("scenario block is empty");
  return parse_lines(lines);
}

std::vector<ScenarioSpec> expand_sweeps(const std::string& text, std::size_t max_scenarios) {
  QRM_EXPECTS(max_scenarios > 0);
  std::vector<ScenarioSpec> scenarios;
  std::istringstream stream(text);
  std::string line;
  std::string block;
  std::set<std::string> names;
  const auto flush = [&] {
    for (ScenarioSpec& spec : expand_block(block, max_scenarios)) {
      QRM_EXPECTS_MSG(names.insert(spec.name).second,
                      "campaign contains duplicate scenario name '" + spec.name + "'");
      scenarios.push_back(std::move(spec));
      QRM_EXPECTS_MSG(scenarios.size() <= max_scenarios,
                      "campaign expands to more than the scenario cap");
    }
    block.clear();
  };
  while (std::getline(stream, line)) {
    if (trim(line) == "---")
      flush();
    else
      block += line + "\n";
  }
  flush();
  QRM_EXPECTS_MSG(!scenarios.empty(), "campaign text contains no scenarios");
  return scenarios;
}

}  // namespace qrm::scenario
