#include "scenario/spec.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>

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

/// An enum's spec-file values.
template <typename Enum, std::size_t N>
using Names = std::array<std::pair<const char*, Enum>, N>;

template <typename Enum, std::size_t N>
Enum parse_enum(const std::string& key, const std::string& value, const Names<Enum, N>& names) {
  for (const auto& [text, parsed] : names)
    if (value == text) return parsed;
  std::string known;
  for (const auto& [text, parsed] : names) known += std::string(known.empty() ? "" : "|") + text;
  parse_fail("key '" + key + "': unknown value '" + value + "' (expected " + known + ")");
}

template <typename Enum, std::size_t N>
const char* enum_text(Enum value, const Names<Enum, N>& names) {
  for (const auto& [text, candidate] : names)
    if (candidate == value) return text;
  return "?";
}

constexpr Names<LoadProfile, 5> kLoads{{{"uniform", LoadProfile::Uniform},
                                        {"at-least", LoadProfile::AtLeast},
                                        {"clustered", LoadProfile::Clustered},
                                        {"gradient", LoadProfile::Gradient},
                                        {"pattern", LoadProfile::Pattern}}};
constexpr Names<Pattern, 8> kPatterns{{{"full", Pattern::Full},
                                       {"empty", Pattern::Empty},
                                       {"checkerboard", Pattern::Checkerboard},
                                       {"row-stripes", Pattern::RowStripes},
                                       {"col-stripes", Pattern::ColStripes},
                                       {"border", Pattern::Border},
                                       {"corner-block", Pattern::CornerBlock},
                                       {"half-grid", Pattern::HalfGrid}}};
constexpr Names<GradientAxis, 2> kAxes{
    {{"rows", GradientAxis::Rows}, {"cols", GradientAxis::Cols}}};
constexpr Names<PlanMode, 2> kModes{
    {{"balanced", PlanMode::Balanced}, {"compact", PlanMode::Compact}}};
constexpr Names<rt::Architecture, 2> kArchitectures{
    {{"fpga", rt::Architecture::FpgaIntegrated}, {"host", rt::Architecture::HostMediated}}};
constexpr Names<ReplanMode, 2> kReplans{
    {{"scratch", ReplanMode::Scratch}, {"delta", ReplanMode::Delta}}};
constexpr Names<DriftShape, 3> kDrifts{
    {{"none", DriftShape::None}, {"ramp", DriftShape::Ramp}, {"sine", DriftShape::Sine}}};
constexpr Names<bool, 2> kBools{{{"true", true}, {"false", false}}};

/// The trimmed elements of a comma list: tags, dead lines and list sweeps.
/// An empty element, a dangling comma's included, throws.
std::vector<std::string> split_list(const std::string& key, const std::string& value) {
  std::vector<std::string> items;
  for (std::size_t start = 0;;) {
    const std::size_t comma = value.find(',', start);
    items.push_back(trim(value.substr(start, comma - start)));
    if (items.back().empty()) parse_fail("key '" + key + "' has an empty element");
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

/// Comma list of dead AOD line indices, strictly ascending (which also bans
/// duplicates) so the serialized form is canonical: one spec, one text.
std::vector<std::int32_t> parse_line_list(const std::string& key, const std::string& value) {
  std::vector<std::int32_t> lines;
  for (const std::string& item : split_list(key, value)) {
    const auto line = static_cast<std::int32_t>(parse_bounded(key, item, 0, kMaxGridSide - 1));
    if (!lines.empty() && line <= lines.back())
      parse_fail("key '" + key + "': line indices must be strictly ascending");
    lines.push_back(line);
  }
  return lines;
}

template <typename T>
std::string join(const std::vector<T>& items) {
  std::ostringstream os;
  for (std::size_t i = 0; i < items.size(); ++i) os << (i > 0 ? "," : "") << items[i];
  return os.str();
}

// --- The key table ---------------------------------------------------------

using S = ScenarioSpec;
struct Key;

/// How a key's value text reads into and writes out of its spec field(s).
struct Codec {
  std::string (*format)(const S&);
  void (*parse)(S&, const Key&, const std::string&);
  /// Numeric fields: the value validate() checks against Key::range.
  double (*number)(const S&) = nullptr;
};

/// An inclusive range: the parse bounds of a count key, and for count and
/// probability keys the range validate() enforces.
struct Range {
  double lo;
  double hi;
};

/// When a key applies. A key whose gate the parsed spec leaves shut is
/// rejected, and serialize writes a key only while its gate is open.
struct Gate {
  const char* condition;  ///< for the parse error
  bool (*open)(const S&);
};

struct Key {
  const char* name;
  Codec codec;
  const Gate* gate = nullptr;        ///< null: applies to every spec
  bool (*emit)(const S&) = nullptr;  ///< optional keys: written only when this holds
  bool sweep = false;                ///< campaign files may sweep the value
  std::optional<Range> range{};
};

template <auto F>
constexpr Codec text{[](const S& s) -> std::string { return s.*F; },
                     [](S& s, const Key&, const std::string& v) { s.*F = v; }};

template <auto F>
constexpr Codec real{
    [](const S& s) { return format_double(s.*F); },
    [](S& s, const Key& k, const std::string& v) { s.*F = parse_double(k.name, v); },
    [](const S& s) { return s.*F; }};

template <auto F>
constexpr Codec count{
    [](const S& s) { return std::to_string(s.*F); },
    [](S& s, const Key& k, const std::string& v) {
      const auto lo = static_cast<std::int64_t>(k.range->lo);
      const auto hi = static_cast<std::int64_t>(k.range->hi);
      s.*F = static_cast<std::remove_cvref_t<decltype(s.*F)>>(parse_bounded(k.name, v, lo, hi));
    },
    [](const S& s) { return static_cast<double>(s.*F); }};

template <auto F, const auto& N>
constexpr Codec choice{
    [](const S& s) { return std::string(enum_text(s.*F, N)); },
    [](S& s, const Key& k, const std::string& v) { s.*F = parse_enum(k.name, v, N); }};

template <auto F>
constexpr Codec lines{
    [](const S& s) { return join(s.*F); },
    [](S& s, const Key& k, const std::string& v) { s.*F = parse_line_list(k.name, v); }};

constexpr Codec kTags{[](const S& s) { return join(s.tags); },
                      [](S& s, const Key& k, const std::string& v) {
                        s.tags = split_list(k.name, v);
                      }};

template <auto Rows, auto Cols>
constexpr Codec dims{
    [](const S& s) { return dims_text(s.*Rows, s.*Cols); },
    [](S& s, const Key& k, const std::string& v) {
      std::tie(s.*Rows, s.*Cols) = parse_dims(k.name, v);
    }};

/// `auto` stands for the field's sentinel value; any other text goes
/// through Inner. (target=auto leaves target_cols at its default 0.)
template <auto F, auto Sentinel, const Codec& Inner>
constexpr Codec or_auto{
    [](const S& s) { return s.*F == Sentinel ? std::string("auto") : Inner.format(s); },
    [](S& s, const Key& k, const std::string& v) {
      if (v == "auto")
        s.*F = Sentinel;
      else
        Inner.parse(s, k, v);
    },
    Inner.number};

constexpr Codec kSeed{
    [](const S& s) { return hex_text(s.seed); },
    [](S& s, const Key& k, const std::string& v) { s.seed = parse_seed(k.name, v); }};

template <LoadProfile... P>
bool loads(const S& s) {
  return ((s.load == P) || ...);
}
constexpr Gate kFillLoads{
    "load=uniform|at-least|clustered",
    loads<LoadProfile::Uniform, LoadProfile::AtLeast, LoadProfile::Clustered>};
constexpr Gate kAtLeast{"load=at-least", loads<LoadProfile::AtLeast>};
constexpr Gate kClustered{"load=clustered", loads<LoadProfile::Clustered>};
constexpr Gate kGradient{"load=gradient", loads<LoadProfile::Gradient>};
constexpr Gate kPattern{"load=pattern", loads<LoadProfile::Pattern>};
constexpr Gate kImaging{"imaged_detection=true", [](const S& s) { return s.imaged_detection; }};
constexpr Gate kDrift{"drift=ramp|sine", [](const S& s) {
                        return s.imaged_detection && s.drift != DriftShape::None;
                      }};
constexpr Gate kBurst{"burst_loss > 0", [](const S& s) { return s.burst_loss > 0.0; }};

template <auto F>
bool non_empty(const S& s) {
  return !(s.*F).empty();
}

constexpr bool kSweep = true;
constexpr Range kProbability{0, 1};
constexpr Range kPositiveCount{1, kMaxCount};

/// Every spec key once, in serialization order. A new key is a ScenarioSpec
/// field, one row here and one to_batch_config line.
constexpr Key kKeys[] = {
    {"name", text<&S::name>},
    {"description", text<&S::description>, nullptr, non_empty<&S::description>},
    {"tags", kTags, nullptr, non_empty<&S::tags>},
    {"grid", dims<&S::grid_height, &S::grid_width>, nullptr, nullptr, kSweep},
    {"target", or_auto<&S::target_rows, 0, dims<&S::target_rows, &S::target_cols>>, nullptr,
     nullptr, kSweep},
    {"load", choice<&S::load, kLoads>},
    {"fill", real<&S::fill>, &kFillLoads, nullptr, kSweep, kProbability},
    {"min_atoms", or_auto<&S::min_atoms, 0, count<&S::min_atoms>>, &kAtLeast, nullptr, false,
     Range{0, kMaxGridSide * kMaxGridSide}},
    {"clusters", count<&S::clusters>, &kClustered, nullptr, false, Range{0, kMaxClusters}},
    {"cluster_radius", count<&S::cluster_radius>, &kClustered, nullptr, false,
     Range{0, kMaxGridSide}},
    {"gradient_start", real<&S::gradient_start>, &kGradient, nullptr, false, kProbability},
    {"gradient_end", real<&S::gradient_end>, &kGradient, nullptr, false, kProbability},
    {"gradient_axis", choice<&S::gradient_axis, kAxes>, &kGradient},
    {"pattern", choice<&S::pattern, kPatterns>, &kPattern},
    {"mode", choice<&S::mode, kModes>},
    {"algorithm", text<&S::algorithm>},
    {"architecture", choice<&S::architecture, kArchitectures>},
    {"replan", choice<&S::replan, kReplans>, nullptr,
     [](const S& s) { return s.replan != ReplanMode::Scratch; }},
    {"imaged_detection", choice<&S::imaged_detection, kBools>, nullptr, kImaging.open},
    {"photons_per_atom", real<&S::photons_per_atom>, &kImaging},
    {"detection_threshold",
     or_auto<&S::detection_threshold, -1.0, real<&S::detection_threshold>>, &kImaging},
    {"drift", choice<&S::drift, kDrifts>, &kImaging,
     [](const S& s) { return s.drift != DriftShape::None; }},
    {"drift_amplitude", real<&S::drift_amplitude>, &kDrift, nullptr, false, kProbability},
    {"drift_period", count<&S::drift_period>, &kDrift, nullptr, false, kPositiveCount},
    {"threshold_bias", real<&S::threshold_bias>, &kImaging,
     [](const S& s) { return s.threshold_bias != 1.0; }},
    {"shots", count<&S::shots>, nullptr, nullptr, kSweep, kPositiveCount},
    {"seed", kSeed, nullptr, nullptr, kSweep},
    {"per_move_loss", real<&S::per_move_loss>, nullptr, nullptr, kSweep, kProbability},
    {"background_loss", real<&S::background_loss>, nullptr, nullptr, false, kProbability},
    {"burst_loss", real<&S::burst_loss>, nullptr, kBurst.open, false, kProbability},
    {"burst_length", count<&S::burst_length>, &kBurst, nullptr, false, kPositiveCount},
    {"max_rounds", count<&S::max_rounds>, nullptr, nullptr, kSweep, kPositiveCount},
    {"dead_rows", lines<&S::dead_rows>, nullptr, non_empty<&S::dead_rows>},
    {"dead_cols", lines<&S::dead_cols>, nullptr, non_empty<&S::dead_cols>},
};

const Key& find_key(const std::string& name) {
  for (const Key& key : kKeys)
    if (name == key.name) return key;
  parse_fail("unknown key '" + name + "'");
}

}  // namespace

const char* to_cstring(LoadProfile profile) noexcept { return enum_text(profile, kLoads); }

const char* arch_key(rt::Architecture architecture) noexcept {
  return enum_text(architecture, kArchitectures);
}

const char* to_cstring(Pattern pattern) noexcept { return enum_text(pattern, kPatterns); }

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

std::string dims_text(std::int32_t rows, std::int32_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

std::string hex_text(std::uint64_t value) {
  char buf[16];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value, 16);
  QRM_ENSURES(ec == std::errc{});
  return "0x" + std::string(buf, end);
}

bool valid_utf8(std::string_view text) {
  for (std::size_t i = 0; i < text.size();) {
    const auto lead = static_cast<unsigned char>(text[i]);
    const std::size_t n =
        lead < 0x80 ? 1 : lead < 0xC2 ? 0 : lead < 0xE0 ? 2 : lead < 0xF0 ? 3 : lead < 0xF5 ? 4 : 0;
    if (n == 0 || text.size() - i < n) return false;
    std::uint32_t code = lead & (0x7Fu >> n);
    for (std::size_t k = 1; k < n; ++k) {
      const auto next = static_cast<unsigned char>(text[i + k]);
      if ((next & 0xC0) != 0x80) return false;
      code = (code << 6) | (next & 0x3Fu);
    }
    if ((n == 3 && (code < 0x800 || (code >= 0xD800 && code < 0xE000))) ||
        (n == 4 && (code < 0x10000 || code > 0x10FFFF)))
      return false;
    i += n;
  }
  return true;
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
  // The JSON report carries these as strings, which must be UTF-8.
  QRM_EXPECTS_MSG(valid_utf8(spec.name) && valid_utf8(spec.description) &&
                      std::ranges::all_of(spec.tags, valid_utf8),
                  "scenario name, description and tags must be valid UTF-8");
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
  // Counts and probabilities, whatever the gates: NaN fails every range.
  for (const Key& key : kKeys) {
    if (!key.range) continue;
    const double value = key.codec.number(spec);
    QRM_EXPECTS_MSG(value >= key.range->lo && value <= key.range->hi,
                    "scenario '" + std::string(key.name) + "' must lie in [" +
                        format_double(key.range->lo) + ", " + format_double(key.range->hi) +
                        "]");
  }
  QRM_EXPECTS_MSG(std::isfinite(spec.photons_per_atom) && spec.photons_per_atom > 0.0 &&
                      spec.photons_per_atom <= kMaxPhotons,
                  "scenario photons_per_atom must be positive and finite");
  QRM_EXPECTS_MSG(spec.detection_threshold == -1.0 ||
                      (std::isfinite(spec.detection_threshold) &&
                       spec.detection_threshold >= 0.0 &&
                       spec.detection_threshold <= kMaxPhotons),
                  "scenario detection_threshold must be -1 (auto) or a finite photon count");
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
  std::string text;
  for (const Key& key : kKeys) {
    if (key.gate != nullptr && !key.gate->open(spec)) continue;
    if (key.emit != nullptr && !key.emit(spec)) continue;
    text += key.name;
    text += '=';
    text += key.codec.format(spec);
    text += '\n';
  }
  return text;
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
  std::vector<const Key*> keys;
  for (const auto& [name, value] : lines) {
    keys.push_back(&find_key(name));
    keys.back()->codec.parse(spec, *keys.back(), value);
  }
  // A key its gate does not admit (a `pattern=` line in a uniform scenario,
  // a stray photons_per_atom without imaging) is a spec bug, not a default:
  // serialize would drop it and break the round trip.
  for (const Key* key : keys)
    if (key->gate != nullptr && !key->gate->open(spec))
      parse_fail("key '" + std::string(key->name) + "' requires " + key->gate->condition);
  validate(spec);
  return spec;
}

/// A sweep value's expansion, stopped after `cap` + 1 values.
std::vector<std::string> expand_value(const std::string& key, const std::string& value,
                                      std::size_t cap) {
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
    if (!(step > 0.0)) parse_fail("sweep '" + key + "=" + value + "': step must be positive");
    if (!(lo <= hi)) parse_fail("sweep '" + key + "=" + value + "': upper bound below lower");
    std::vector<std::string> values;
    // Walk by index, not accumulation, so float steps cannot drift; the
    // epsilon admits an endpoint that lands within rounding of `hi`. 15
    // significant digits round 0.4 + 2*0.1 back to "0.6" (the grid point
    // the user wrote) instead of the shortest-exact 0.6000000000000001.
    for (std::size_t i = 0; i <= cap; ++i) {
      const double v = lo + step * static_cast<double>(i);
      if (v > hi + step * 1e-9) break;
      char buf[64];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                           std::chars_format::general, 15);
      QRM_ENSURES(ec == std::errc{});
      values.emplace_back(buf, end);
    }
    return values;
  }
  return split_list(key, value);
}

std::vector<ScenarioSpec> expand_block(const std::string& block, std::size_t max_scenarios) {
  const std::vector<SpecLine> lines = tokenize_block(block);
  if (lines.empty()) return {};

  // Expand each sweepable value; multiply counts up front so an oversized
  // matrix fails before any scenario is built.
  std::vector<std::vector<std::string>> choices(lines.size());
  std::size_t total = 1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    choices[i] = find_key(lines[i].key).sweep
                     ? expand_value(lines[i].key, lines[i].value, max_scenarios)
                     : std::vector<std::string>{lines[i].value};
    QRM_EXPECTS_MSG(total <= max_scenarios / choices[i].size() || choices[i].size() == 1,
                    "sweep expands to more than the scenario cap");
    total *= choices[i].size();
  }

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
