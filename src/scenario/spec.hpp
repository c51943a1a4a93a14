#pragma once
/// \file spec.hpp
/// Declarative workload scenarios: the full experiment axis space as data.
///
/// The paper evaluates on exactly one workload family — Bernoulli(0.5)
/// loads into a centred square target. A ScenarioSpec captures everything
/// an evaluation binary would otherwise hard-code: grid geometry, loading
/// model, loss regime, target size, plan mode, planner choice, control
/// architecture, shot count and master seed. Specs round-trip through a
/// diffable key=value text format (see `serialize` / `parse_scenario`) and
/// may carry numeric sweeps (`grid=64..256 step 64`, `fill=0.4,0.5,0.6`)
/// that `expand_sweeps` turns into a scenario matrix. spec.cpp lists every
/// key once, in one table: its text form, the gate that says when it
/// applies, its sweep flag and its count or probability range. A new key is
/// a field here, one table row and one to_batch_config line.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "detection/calibration.hpp"
#include "lattice/grid.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "runtime/control_system.hpp"

namespace qrm::scenario {

/// Which loader family draws a shot's initial occupancy.
enum class LoadProfile : std::uint8_t {
  Uniform,   ///< independent Bernoulli(fill) — the paper's workload
  AtLeast,   ///< Bernoulli retried until min_atoms are present
  Clustered, ///< Bernoulli + emptied circular blast regions
  Gradient,  ///< linear fill ramp across rows/cols
  Pattern,   ///< deterministic worst-case patterns
};

[[nodiscard]] const char* to_cstring(LoadProfile profile) noexcept;
[[nodiscard]] const char* to_cstring(Pattern pattern) noexcept;

/// The spec-file value of an architecture ("fpga" / "host") — the single
/// source for serialize/parse and every report writer.
[[nodiscard]] const char* arch_key(rt::Architecture architecture) noexcept;

/// One fully-specified experiment. Field defaults are the serialized
/// defaults: a key omitted from a scenario file means the value below.
struct ScenarioSpec {
  std::string name;          ///< registry / report identifier (required)
  std::string description;   ///< one line for `scenario_runner describe`
  std::vector<std::string> tags;  ///< free-form labels ("smoke", "paper", ...)

  // --- Geometry -----------------------------------------------------------
  std::int32_t grid_height = 32;
  std::int32_t grid_width = 32;
  /// Target rectangle, centred in the grid. 0x0 selects the paper's rule:
  /// an even ~0.6*min(H,W) square (`target=auto`).
  std::int32_t target_rows = 0;
  std::int32_t target_cols = 0;

  // --- Loading model ------------------------------------------------------
  LoadProfile load = LoadProfile::Uniform;
  double fill = 0.55;               ///< uniform / at-least / clustered base fill
  /// AtLeast: retry until this many atoms. 0 selects `min_atoms=auto`,
  /// the resolved target area (the minimum for a defect-free fill).
  std::int64_t min_atoms = 0;
  std::uint32_t clusters = 3;       ///< Clustered: blast-region count
  std::int32_t cluster_radius = 2;  ///< Clustered: blast radius
  double gradient_start = 0.2;      ///< Gradient: fill at row/col 0
  double gradient_end = 0.8;        ///< Gradient: fill at the last row/col
  GradientAxis gradient_axis = GradientAxis::Rows;
  Pattern pattern = Pattern::Checkerboard;  ///< Pattern profile choice

  // --- Planner + runtime --------------------------------------------------
  PlanMode mode = PlanMode::Balanced;
  std::string algorithm = "qrm";    ///< baselines::algorithm_names() entry
  rt::Architecture architecture = rt::Architecture::FpgaIntegrated;
  /// Loop replan strategy (ExecPolicy::replan): `replan=delta` reuses
  /// untouched quadrant kernels round over round. Scratch is the default
  /// and the serialized default (the key is only emitted for Delta, so
  /// existing spec fingerprints are untouched). This is an execution hint —
  /// delta plans are bit-identical to scratch, so it can never change an
  /// outcome fingerprint.
  ReplanMode replan = ReplanMode::Scratch;

  // --- Imaged detection ---------------------------------------------------
  /// Plan on the *detected* occupancy of a rendered camera frame instead of
  /// perfect ground truth (BatchConfig::imaged_detection): per-shot photon
  /// noise, so detection errors enter the outcome fingerprint.
  bool imaged_detection = false;
  double photons_per_atom = 200.0;  ///< expected signal photons per atom
  /// Per-site photon threshold; -1 selects the automatic two-class
  /// threshold (DetectionConfig::threshold_photons). Validation accepts
  /// exactly -1 or a non-negative finite value — anything else would
  /// silently alias to "auto" and break the serialize/parse round trip.
  double detection_threshold = -1.0;
  std::uint32_t shots = 16;
  std::uint64_t seed = 0x5EED;      ///< master seed; shots derive streams
  double per_move_loss = 0.005;
  double background_loss = 0.002;
  std::uint32_t max_rounds = 10;

  // --- Hostile physics ----------------------------------------------------
  // Fault-injection axes. Every default below is the serialized default
  // (key omitted == value here), so pre-existing spec fingerprints are
  // untouched, and every default disables its axis without consuming a
  // single RNG draw — pre-existing outcome fingerprints are untouched too.
  /// Correlated loss bursts (rt::LossModel::burst_loss): probability per
  /// executed round that a burst kills `burst_length` consecutive atoms.
  /// Serialized only when > 0; `burst_length` only applies then.
  double burst_loss = 0.0;
  std::int32_t burst_length = 4;
  /// Per-shot calibration drift on the imaging model (requires
  /// imaged_detection): shape none|ramp|sine; amplitude/period keys only
  /// apply when the shape is not none.
  DriftShape drift = DriftShape::None;
  double drift_amplitude = 0.2;
  std::uint32_t drift_period = 8;
  /// Detection-threshold miscalibration multiplier (requires
  /// imaged_detection); 1.0 is bit-exact identity.
  double threshold_bias = 1.0;
  /// Dead AOD channels (moves/dead_channels.hpp): strictly ascending line
  /// indices inside the grid, disjoint from the target region. Serialized
  /// as comma lists, only when non-empty.
  std::vector<std::int32_t> dead_rows;
  std::vector<std::int32_t> dead_cols;

  /// The concrete centred target this spec plans into (resolves `auto`).
  [[nodiscard]] Region target_region() const;
  /// The concrete AtLeast demand (resolves `auto` to the target area).
  [[nodiscard]] std::int64_t resolved_min_atoms() const;

  [[nodiscard]] bool has_tag(const std::string& tag) const;
  /// Campaign filter rule: empty matches everything, otherwise substring
  /// of the name or exact tag.
  [[nodiscard]] bool matches_filter(const std::string& filter) const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// `rows`x`cols`, the grid and target text of spec files and reports.
[[nodiscard]] std::string dims_text(std::int32_t rows, std::int32_t cols);
/// 0x and lowercase hex digits, the seed and fingerprint text of spec
/// files and reports.
[[nodiscard]] std::string hex_text(std::uint64_t value);
/// True when `text` is well-formed UTF-8: no stray continuation bytes,
/// overlong forms, surrogates or code points past U+10FFFF.
[[nodiscard]] bool valid_utf8(std::string_view text);

/// Throws PreconditionError unless the spec is runnable and its text form
/// round-trips: non-empty whitespace-free name and tags, a one-line
/// description without leading or trailing blanks, name, description and
/// tags in valid UTF-8 (so JSON reports carry them), positive geometry,
/// target fitting the grid with even sides (the QRM quadrant
/// decomposition's requirement), probabilities in [0,1], counts within
/// their caps (shots/max_rounds positive), and a known algorithm name.
void validate(const ScenarioSpec& spec);

/// Draw the initial occupancy for one shot of this scenario. `shot_seed`
/// is the shot's derived stream (derive_seed(spec.seed, shot)); Pattern
/// profiles ignore it. A validated spec never throws here.
[[nodiscard]] OccupancyGrid generate_workload(const ScenarioSpec& spec, std::uint64_t shot_seed);

/// Canonical text form: `key=value` lines in fixed order, one scenario per
/// block. Keys whose gate is shut (load profile, imaging, active drift or
/// burst) and optional keys at their off value are omitted, so the output
/// is minimal, diffable, and parses back to an equal spec.
[[nodiscard]] std::string serialize(const ScenarioSpec& spec);

/// Parse one scenario block. Strict: unknown keys, duplicate keys, keys
/// whose gate the spec leaves shut (a `pattern=` under load=uniform),
/// malformed values and sweep syntax (use expand_sweeps for sweeps) all
/// throw PreconditionError.
/// `#` starts a comment; blank lines are ignored. The parsed spec is
/// validated before it is returned.
[[nodiscard]] ScenarioSpec parse_scenario(const std::string& text);

/// Parse a campaign file: one or more scenario blocks separated by `---`
/// lines, where numeric keys (grid, target, fill, shots, max_rounds,
/// per_move_loss, seed) may carry a sweep — either `lo..hi step s`
/// (inclusive range) or a comma list. Sweeps multiply into the cartesian
/// scenario matrix; expanded scenarios get `/key=value` name suffixes.
/// Throws PreconditionError on malformed sweeps or a matrix larger than
/// `max_scenarios`.
[[nodiscard]] std::vector<ScenarioSpec> expand_sweeps(const std::string& text,
                                                      std::size_t max_scenarios = 4096);

}  // namespace qrm::scenario
