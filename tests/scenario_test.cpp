// Tests for the qrm::scenario subsystem: spec text round-trip and strict
// rejection, registry completeness, sweep expansion, and the campaign
// runner's worker-count-independent fingerprints (mirroring batch_test).

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/algorithm.hpp"
#include "batch/batch_planner.hpp"
#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/spec.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace qrm {
namespace {

using scenario::LoadProfile;
using scenario::ScenarioSpec;

/// A scenario small enough that the multi-worker campaign cases stay fast.
ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.name = "tiny";
  spec.grid_height = spec.grid_width = 16;
  spec.target_rows = spec.target_cols = 8;
  spec.fill = 0.7;
  spec.shots = 6;
  spec.seed = 0x7117;
  spec.max_rounds = 4;
  return spec;
}

// ---------------------------------------------------------------------------
// Spec round trip + validation
// ---------------------------------------------------------------------------

TEST(ScenarioSpec, SerializeParseRoundTripsEveryRegistryEntry) {
  for (const ScenarioSpec& spec : scenario::registry()) {
    const std::string text = serialize(spec);
    const ScenarioSpec parsed = scenario::parse_scenario(text);
    EXPECT_EQ(parsed, spec) << "round trip diverged for " << spec.name << ":\n" << text;
    // Idempotence: serializing the parse reproduces the text exactly.
    EXPECT_EQ(serialize(parsed), text);
  }
}

TEST(ScenarioSpec, RoundTripPreservesEveryProfileSpecificField) {
  ScenarioSpec spec = tiny_spec();
  spec.description = "a description with spaces = and symbols";
  spec.tags = {"smoke", "extra"};
  spec.load = LoadProfile::Gradient;
  // Serialization is minimal: keys outside the chosen load profile are
  // omitted, so a round trip only preserves profile-relevant fields.
  spec.fill = 0.55;
  spec.gradient_start = 0.125;
  spec.gradient_end = 0.875;
  spec.gradient_axis = GradientAxis::Cols;
  spec.mode = PlanMode::Compact;
  spec.algorithm = "qrm-compact";
  spec.architecture = rt::Architecture::HostMediated;
  const ScenarioSpec parsed = scenario::parse_scenario(serialize(spec));
  EXPECT_EQ(parsed, spec);
}

TEST(ScenarioSpec, ParserAcceptsCommentsBlanksAndAutoKeys) {
  const ScenarioSpec parsed = scenario::parse_scenario(
      "# a campaign comment\n"
      "name=commented\n"
      "\n"
      "grid=24\n"
      "target=auto\n"
      "load=at-least\n"
      "fill=0.4\n"
      "min_atoms=auto\n"
      "seed=123\n");
  EXPECT_EQ(parsed.grid_height, 24);
  EXPECT_EQ(parsed.grid_width, 24);
  EXPECT_EQ(parsed.target_rows, 0);  // auto
  EXPECT_EQ(parsed.target_region().rows, 14);  // 24*3/5 rounded down to even
  EXPECT_EQ(parsed.load, LoadProfile::AtLeast);
  EXPECT_EQ(parsed.resolved_min_atoms(), 14 * 14);
  EXPECT_EQ(parsed.seed, 123u);
}

TEST(ScenarioSpec, ParserRejectsMalformedInput) {
  // Unknown key.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nnot_a_key=1\n"), PreconditionError);
  // Duplicate key.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nname=y\n"), PreconditionError);
  // Not key=value.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\njust some text\n"), PreconditionError);
  // Non-numeric value.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nfill=lots\n"), PreconditionError);
  // Unknown enum values.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nload=magnetic\n"), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nmode=fastest\n"), PreconditionError);
  // Empty block.
  EXPECT_THROW((void)scenario::parse_scenario("# only a comment\n"), PreconditionError);
  // Empty list elements, a dangling comma's included.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ntags=a,\n"), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ntags=a,,b\n"), PreconditionError);
  // Profile-specific key under the wrong profile.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nload=uniform\npattern=border\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nload=pattern\nfill=0.5\n"),
               PreconditionError);
}

TEST(ScenarioSpec, ValidationRejectsUnrunnableSpecs) {
  // Out-of-range probability.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nfill=1.5\n"), PreconditionError);
  // Odd grid/target (quadrant decomposition needs even sides).
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ngrid=33\n"), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ngrid=32\ntarget=15x16\n"),
               PreconditionError);
  // Target larger than the grid.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ngrid=16\ntarget=18\n"),
               PreconditionError);
  // Unknown planner.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nalgorithm=quantum\n"),
               PreconditionError);
  // Whitespace in the name.
  EXPECT_THROW((void)scenario::parse_scenario("name=two words\n"), PreconditionError);
  // Non-positive counts.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nshots=0\n"), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nmax_rounds=0\n"), PreconditionError);
  // Count fields must fit their spec types and sanity caps — a negative or
  // oversized value is an error, never a silent integer wrap (clusters=-1
  // must not become ~4e9 blast regions).
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nload=clustered\nclusters=-1\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nload=clustered\ncluster_radius=-1\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ngrid=5000000000\n"), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nshots=5000000000\n"),
               PreconditionError);
  ScenarioSpec oversized = tiny_spec();
  oversized.clusters = 1u << 20;
  oversized.load = LoadProfile::Clustered;
  EXPECT_THROW(scenario::validate(oversized), PreconditionError);
  // Text the one-line, trimmed key=value form cannot carry back: the parser
  // would trim these descriptions and names, or reject the line outright.
  for (const char* description : {" leading", "trailing\t", "two\nlines", "carriage\r"}) {
    ScenarioSpec unprintable = tiny_spec();
    unprintable.description = description;
    EXPECT_THROW(scenario::validate(unprintable), PreconditionError) << description;
  }
  ScenarioSpec carriage = tiny_spec();
  carriage.name = "tiny\r";
  EXPECT_THROW(scenario::validate(carriage), PreconditionError);
  // Text that is not UTF-8, such as a Latin-1 0xE9, would reach the JSON
  // report byte for byte, and merge-json refuses such a shard.
  ScenarioSpec latin1 = tiny_spec();
  latin1.description = "caf\xE9";
  EXPECT_THROW(scenario::validate(latin1), PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ndescription=caf\xE9\n"),
               PreconditionError);
  latin1 = tiny_spec();
  latin1.name = "caf\xE9";
  EXPECT_THROW(scenario::validate(latin1), PreconditionError);
  latin1 = tiny_spec();
  latin1.tags = {"caf\xE9"};
  EXPECT_THROW(scenario::validate(latin1), PreconditionError);
  ScenarioSpec utf8 = tiny_spec();
  utf8.description = "caf\xC3\xA9";
  EXPECT_NO_THROW(scenario::validate(utf8));
}

TEST(ScenarioSpec, ImagedDetectionRoundTripsAndGatesItsKeys) {
  ScenarioSpec spec = tiny_spec();
  spec.imaged_detection = true;
  spec.photons_per_atom = 48.5;
  spec.detection_threshold = 120.25;
  const std::string text = serialize(spec);
  EXPECT_NE(text.find("imaged_detection=true"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(text), spec);

  // The automatic threshold serializes as `auto` and round-trips to -1.
  spec.detection_threshold = -1.0;
  EXPECT_NE(serialize(spec).find("detection_threshold=auto"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(serialize(spec)), spec);

  // With imaged detection off, the imaging keys are omitted entirely...
  EXPECT_EQ(serialize(tiny_spec()).find("imaged_detection"), std::string::npos);
  // ...and rejected on input: a stray imaging knob is a spec bug.
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nphotons_per_atom=100\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\ndetection_threshold=12\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::parse_scenario("name=x\nimaged_detection=maybe\n"),
               PreconditionError);
}

TEST(ScenarioSpec, ImagedDetectionRejectsOutOfRangeValues) {
  const auto imaged = [](const std::string& tail) {
    return scenario::parse_scenario("name=x\nimaged_detection=true\n" + tail);
  };
  EXPECT_THROW((void)imaged("photons_per_atom=0\n"), PreconditionError);
  EXPECT_THROW((void)imaged("photons_per_atom=-3\n"), PreconditionError);
  EXPECT_THROW((void)imaged("photons_per_atom=nan\n"), PreconditionError);
  EXPECT_THROW((void)imaged("photons_per_atom=inf\n"), PreconditionError);
  EXPECT_THROW((void)imaged("photons_per_atom=1e18\n"), PreconditionError);
  EXPECT_THROW((void)imaged("detection_threshold=-0.5\n"), PreconditionError);
  EXPECT_THROW((void)imaged("detection_threshold=nan\n"), PreconditionError);
  EXPECT_THROW((void)imaged("detection_threshold=1e18\n"), PreconditionError);
  EXPECT_NO_THROW((void)imaged("photons_per_atom=50\ndetection_threshold=auto\n"));

  // Programmatically built specs get the same protection from validate():
  // any negative threshold other than the -1 sentinel would silently alias
  // to "auto" in the text form and break the round trip.
  ScenarioSpec bad = tiny_spec();
  bad.imaged_detection = true;
  bad.detection_threshold = -2.0;
  EXPECT_THROW(scenario::validate(bad), PreconditionError);
}

TEST(ScenarioSpec, HostileAxesRoundTripAndStayOffByDefault) {
  // Every new axis defaults off AND serializes to nothing, so the identity
  // fingerprint of every pre-existing spec is unchanged by this feature.
  const std::string baseline = serialize(tiny_spec());
  for (const char* key : {"burst_loss", "burst_length", "drift", "drift_amplitude",
                          "drift_period", "threshold_bias", "dead_rows", "dead_cols"}) {
    EXPECT_EQ(baseline.find(key), std::string::npos) << key;
  }

  // Correlated loss bursts.
  ScenarioSpec burst = tiny_spec();
  burst.burst_loss = 0.25;
  burst.burst_length = 7;
  const std::string burst_text = serialize(burst);
  EXPECT_NE(burst_text.find("burst_loss=0.25"), std::string::npos);
  EXPECT_NE(burst_text.find("burst_length=7"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(burst_text), burst);

  // Calibration drift and threshold miscalibration (imaging-gated).
  ScenarioSpec drifty = tiny_spec();
  drifty.imaged_detection = true;
  drifty.photons_per_atom = 32.0;
  drifty.drift = DriftShape::Sine;
  drifty.drift_amplitude = 0.4;
  drifty.drift_period = 6;
  drifty.threshold_bias = 1.25;
  const std::string drift_text = serialize(drifty);
  EXPECT_NE(drift_text.find("drift=sine"), std::string::npos);
  EXPECT_NE(drift_text.find("threshold_bias=1.25"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(drift_text), drifty);
  drifty.drift = DriftShape::Ramp;
  EXPECT_EQ(scenario::parse_scenario(serialize(drifty)), drifty);

  // Dead AOD lines serialize as comma lists and round-trip exactly.
  ScenarioSpec dead = tiny_spec();
  dead.grid_height = dead.grid_width = 32;
  dead.target_rows = dead.target_cols = 18;  // occupies rows/cols 7..24
  dead.dead_rows = {0, 2, 28};
  dead.dead_cols = {30};
  const std::string dead_text = serialize(dead);
  EXPECT_NE(dead_text.find("dead_rows=0,2,28"), std::string::npos);
  EXPECT_NE(dead_text.find("dead_cols=30"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(dead_text), dead);

  // The adversarial pattern generators round-trip by name. (The Pattern
  // profile omits fill on serialize, so keep tiny's fill at its default.)
  ScenarioSpec pat = tiny_spec();
  pat.fill = 0.55;
  pat.load = LoadProfile::Pattern;
  pat.pattern = Pattern::CornerBlock;
  EXPECT_NE(serialize(pat).find("pattern=corner-block"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(serialize(pat)), pat);
  pat.pattern = Pattern::HalfGrid;
  EXPECT_NE(serialize(pat).find("pattern=half-grid"), std::string::npos);
  EXPECT_EQ(scenario::parse_scenario(serialize(pat)), pat);
}

TEST(ScenarioSpec, HostileAxesRejectOutOfRangeAndMisgatedValues) {
  const auto reject = [](const std::string& tail) {
    EXPECT_THROW((void)scenario::parse_scenario("name=x\n" + tail), PreconditionError) << tail;
  };
  // Burst loss: probability range, positive length, length gated on the axis.
  reject("burst_loss=1.5\n");
  reject("burst_loss=-0.1\n");
  reject("burst_loss=nan\n");
  reject("burst_loss=0.5\nburst_length=0\n");
  reject("burst_loss=0.5\nburst_length=-4\n");
  reject("burst_length=5\n");  // burst_length without burst_loss > 0
  reject("burst_loss=0\nburst_length=5\n");

  // Drift: imaging-gated shape, amplitude/period gated on a non-none shape.
  reject("drift=sine\n");  // no imaged_detection
  reject("drift_amplitude=0.3\n");
  const auto imaged = [&reject](const std::string& tail) {
    reject("imaged_detection=true\n" + tail);
  };
  imaged("drift=wobble\n");
  imaged("drift=ramp\ndrift_amplitude=1.5\n");
  imaged("drift=ramp\ndrift_amplitude=-0.1\n");
  imaged("drift=ramp\ndrift_amplitude=nan\n");
  imaged("drift=ramp\ndrift_period=0\n");
  imaged("drift=none\ndrift_amplitude=0.3\n");
  imaged("drift=none\ndrift_period=4\n");
  imaged("drift_period=4\n");  // period without any drift shape

  // Threshold bias: imaging-gated, finite, positive, sane.
  reject("threshold_bias=1.2\n");  // no imaged_detection
  imaged("threshold_bias=0\n");
  imaged("threshold_bias=-1\n");
  imaged("threshold_bias=nan\n");
  imaged("threshold_bias=inf\n");
  imaged("threshold_bias=101\n");

  // Dead lines: in-grid, strictly ascending, disjoint from the target.
  reject("grid=32\ntarget=18\ndead_rows=\n");
  reject("grid=32\ntarget=18\ndead_rows=5,\n");
  reject("grid=32\ntarget=18\ndead_rows=5,5\n");
  reject("grid=32\ntarget=18\ndead_rows=6,2\n");
  reject("grid=32\ntarget=18\ndead_rows=32\n");
  reject("grid=32\ntarget=18\ndead_rows=-1\n");
  reject("grid=32\ntarget=18\ndead_rows=12\n");  // auto target covers rows 7..24
  reject("grid=32\ntarget=18\ndead_cols=24\n");  // ...and cols 7..24
  reject("grid=32\ntarget=18\ndead_rows=abc\n");

  // Programmatically built specs hit the same walls via validate().
  ScenarioSpec bad = tiny_spec();
  bad.drift = DriftShape::Ramp;  // drift without imaged detection
  EXPECT_THROW(scenario::validate(bad), PreconditionError);
  bad = tiny_spec();
  bad.threshold_bias = 1.3;
  EXPECT_THROW(scenario::validate(bad), PreconditionError);
  bad = tiny_spec();
  bad.dead_rows = {4, 4};
  EXPECT_THROW(scenario::validate(bad), PreconditionError);
  bad = tiny_spec();
  bad.dead_cols = {6};  // tiny's 8x8 target sits at rows/cols 4..11
  EXPECT_THROW(scenario::validate(bad), PreconditionError);
}

// ---------------------------------------------------------------------------
// Generated specs and mutated texts
// ---------------------------------------------------------------------------

/// A random valid spec over every key. Fields whose key the spec's gates
/// leave out keep their defaults, so the spec equals its own round trip.
ScenarioSpec random_spec(Rng& rng, int id) {
  ScenarioSpec spec;
  spec.name = "gen-" + std::to_string(id);
  if (rng.bernoulli(0.3)) spec.description = "generated spec " + std::to_string(id);
  if (rng.bernoulli(0.3)) spec.tags = {"gen", "t" + std::to_string(rng.uniform_below(4))};
  spec.grid_height = 2 * static_cast<std::int32_t>(4 + rng.uniform_below(29));
  spec.grid_width = rng.bernoulli(0.5) ? spec.grid_height
                                       : 2 * static_cast<std::int32_t>(4 + rng.uniform_below(29));
  if (rng.bernoulli(0.5)) {
    spec.target_rows = 2 * static_cast<std::int32_t>(1 + rng.uniform_below(spec.grid_height / 2));
    spec.target_cols = 2 * static_cast<std::int32_t>(1 + rng.uniform_below(spec.grid_width / 2));
  }
  spec.load = static_cast<LoadProfile>(rng.uniform_below(5));
  switch (spec.load) {
    case LoadProfile::AtLeast:
      if (rng.bernoulli(0.5)) spec.min_atoms = 1 + rng.uniform_below(64);
      [[fallthrough]];
    case LoadProfile::Uniform: spec.fill = rng.uniform01(); break;
    case LoadProfile::Clustered:
      spec.fill = rng.uniform01();
      spec.clusters = rng.uniform_below(9);
      spec.cluster_radius = static_cast<std::int32_t>(rng.uniform_below(6));
      break;
    case LoadProfile::Gradient:
      spec.gradient_start = rng.uniform01();
      spec.gradient_end = rng.uniform01();
      spec.gradient_axis = rng.bernoulli(0.5) ? GradientAxis::Rows : GradientAxis::Cols;
      break;
    case LoadProfile::Pattern: spec.pattern = static_cast<Pattern>(rng.uniform_below(8)); break;
  }
  spec.mode = rng.bernoulli(0.5) ? PlanMode::Balanced : PlanMode::Compact;
  const std::vector<std::string> algorithms = baselines::algorithm_names();
  spec.algorithm = algorithms[rng.uniform_below(static_cast<std::uint32_t>(algorithms.size()))];
  spec.architecture =
      rng.bernoulli(0.5) ? rt::Architecture::FpgaIntegrated : rt::Architecture::HostMediated;
  spec.replan = rng.bernoulli(0.5) ? ReplanMode::Scratch : ReplanMode::Delta;
  if (rng.bernoulli(0.5)) {
    spec.imaged_detection = true;
    spec.photons_per_atom = 1.0 + 400.0 * rng.uniform01();
    if (rng.bernoulli(0.5)) spec.detection_threshold = 300.0 * rng.uniform01();
    spec.drift = static_cast<DriftShape>(rng.uniform_below(3));
    if (spec.drift != DriftShape::None) {
      spec.drift_amplitude = rng.uniform01();
      spec.drift_period = 1 + rng.uniform_below(16);
    }
    if (rng.bernoulli(0.5)) spec.threshold_bias = 0.5 + rng.uniform01();
  }
  spec.shots = 1 + rng.uniform_below(64);
  spec.seed = rng.next_u64();
  spec.per_move_loss = 0.1 * rng.uniform01();
  spec.background_loss = 0.1 * rng.uniform01();
  if (rng.bernoulli(0.4)) {
    spec.burst_loss = 1.0 - rng.uniform01();  // (0, 1]: the burst keys apply
    spec.burst_length = static_cast<std::int32_t>(1 + rng.uniform_below(16));
  } else if (rng.bernoulli(0.2)) {
    spec.burst_loss = -0.0;  // off: serialized as nothing, parsed back as +0.0 == -0.0
  }
  spec.max_rounds = 1 + rng.uniform_below(12);
  const Region target = spec.target_region();
  const auto dead_lines = [&rng](std::int32_t limit, std::int32_t lo, std::int32_t hi) {
    std::vector<std::int32_t> lines;
    for (std::int32_t line = 0; line < limit; ++line)
      if ((line < lo || line >= hi) && rng.bernoulli(0.1)) lines.push_back(line);
    return lines;
  };
  if (rng.bernoulli(0.3)) {
    spec.dead_rows = dead_lines(spec.grid_height, target.row0, target.row_end());
    spec.dead_cols = dead_lines(spec.grid_width, target.col0, target.col_end());
  }
  return spec;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

/// One parser mutation of a valid spec text: drop, duplicate or retarget a
/// line, inject a stray key, or swap a value for a hostile token.
std::string mutate(Rng& rng, const std::string& text, const std::vector<std::string>& keys) {
  static const char* const kTokens[] = {"auto", "-1",   "nan",   "3,",  "",     "-0.0", "0",
                                        "1e999", "inf", "0x1f", "true", "none", "64x", "1,2",
                                        "2..6 step 2", "99999999999", "0.5", "x"};
  std::vector<std::string> lines = split_lines(text);
  const std::size_t at = rng.uniform_below(static_cast<std::uint32_t>(lines.size()));
  const auto pick = [&rng](const auto& items) {
    return items[rng.uniform_below(static_cast<std::uint32_t>(std::size(items)))];
  };
  const std::string value = lines[at].substr(lines[at].find('=') + 1);
  switch (rng.uniform_below(5)) {
    case 0: lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at)); break;
    case 1: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]); break;
    case 2: lines[at] = pick(keys) + "=" + value; break;
    case 3: lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                         pick(keys) + "=" + (rng.bernoulli(0.5) ? value : pick(kTokens)));
      break;
    default: lines[at] = lines[at].substr(0, lines[at].find('=') + 1) + pick(kTokens); break;
  }
  std::string mutant;
  for (const std::string& line : lines) mutant += line + "\n";
  return mutant;
}

TEST(ScenarioSpec, GeneratedSpecsRoundTripAndMutantsParseOrThrow) {
  // The text round trip over random specs across every key, then a parser
  // mutation pass: every mutant parses to a spec that round-trips, or
  // throws PreconditionError — never anything else.
  Rng rng(0x5BEC7E57);
  std::vector<std::string> texts;
  std::set<std::string> seen_keys;
  std::set<std::string> profiles_and_shapes;
  for (int i = 0; i < 2000; ++i) {
    const ScenarioSpec spec = random_spec(rng, i);
    profiles_and_shapes.insert(scenario::to_cstring(spec.load));
    profiles_and_shapes.insert(to_cstring(spec.drift));
    const std::string text = serialize(spec);
    const ScenarioSpec parsed = scenario::parse_scenario(text);
    ASSERT_EQ(parsed, spec) << text;
    ASSERT_EQ(serialize(parsed), text);
    for (const std::string& line : split_lines(text))
      seen_keys.insert(line.substr(0, line.find('=')));
    texts.push_back(text);
  }
  EXPECT_EQ(profiles_and_shapes.size(), 5u + 3u);
  EXPECT_EQ(seen_keys.size(), 34u) << "the generator must reach every spec key";

  std::vector<std::string> keys(seen_keys.begin(), seen_keys.end());
  keys.push_back("not_a_key");
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const std::string& text : texts) {
    for (int m = 0; m < 4; ++m) {
      const std::string mutant = mutate(rng, text, keys);
      try {
        const ScenarioSpec parsed = scenario::parse_scenario(mutant);
        const std::string canonical = serialize(parsed);
        ASSERT_EQ(scenario::parse_scenario(canonical), parsed) << mutant;
        ASSERT_EQ(serialize(scenario::parse_scenario(canonical)), canonical) << mutant;
        ++accepted;
      } catch (const PreconditionError&) {
        ++rejected;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "threw " << error.what() << " on:\n" << mutant;
      }
    }
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, ShipsTheRequiredCoverage) {
  const std::vector<ScenarioSpec>& scenarios = scenario::registry();
  EXPECT_GE(scenarios.size(), 8u);

  std::set<std::string> names;
  std::set<LoadProfile> profiles;
  std::set<rt::Architecture> architectures;
  for (const ScenarioSpec& spec : scenarios) {
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate name " << spec.name;
    EXPECT_NO_THROW(scenario::validate(spec)) << spec.name;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    profiles.insert(spec.load);
    architectures.insert(spec.architecture);
  }
  // All five loader families and both control architectures are exercised.
  EXPECT_EQ(profiles.size(), 5u);
  EXPECT_EQ(architectures.size(), 2u);
  // The detection-error regime is covered (scenario-driven imaged detection).
  bool imaged = false;
  for (const ScenarioSpec& spec : scenarios) imaged = imaged || spec.imaged_detection;
  EXPECT_TRUE(imaged);
  EXPECT_NO_THROW((void)scenario::find_scenario("imaged-detection"));
  // The hostile-physics axes (bursts, drift, bias, dead channels, adversarial
  // patterns) ship as first-class registry scenarios with pinned goldens.
  EXPECT_GE(scenario::filter_registry("hostile").size(), 6u);
  // The paper's own workload and a large-grid stress point are present.
  EXPECT_NO_THROW((void)scenario::find_scenario("paper-fig7"));
  EXPECT_NO_THROW((void)scenario::find_scenario("large-grid-256"));
  EXPECT_THROW((void)scenario::find_scenario("no-such-scenario"), PreconditionError);
}

TEST(ScenarioRegistry, SmokeSubsetIsSmallAndNonEmpty) {
  const std::vector<ScenarioSpec> smoke = scenario::filter_registry("smoke");
  ASSERT_GE(smoke.size(), 5u);
  for (const ScenarioSpec& spec : smoke) {
    EXPECT_LE(spec.grid_height * spec.grid_width, 48 * 48) << spec.name;
    EXPECT_LE(spec.shots, 16u) << spec.name;
  }
  // Name-substring filtering works too, and a miss is empty.
  EXPECT_EQ(scenario::filter_registry("paper-fig7").size(), 1u);
  EXPECT_TRUE(scenario::filter_registry("definitely-missing").empty());
}

// ---------------------------------------------------------------------------
// Sweep expansion
// ---------------------------------------------------------------------------

TEST(ScenarioSweep, RangeAndListSweepsExpandToTheCartesianMatrix) {
  const std::vector<ScenarioSpec> grids =
      scenario::expand_sweeps("name=s\ngrid=64..256 step 64\n");
  ASSERT_EQ(grids.size(), 4u);  // 64, 128, 192, 256
  EXPECT_EQ(grids[0].grid_height, 64);
  EXPECT_EQ(grids[3].grid_height, 256);
  EXPECT_EQ(grids[1].name, "s/grid=128");

  const std::vector<ScenarioSpec> matrix = scenario::expand_sweeps(
      "name=m\ngrid=16,32\nfill=0.5,0.6,0.7\nshots=4\n");
  ASSERT_EQ(matrix.size(), 6u);
  std::set<std::string> names;
  for (const ScenarioSpec& spec : matrix) names.insert(spec.name);
  EXPECT_EQ(names.size(), 6u);  // unique suffixes per combination
  EXPECT_EQ(names.count("m/grid=16/fill=0.6"), 1u);

  // Float range steps land on the written grid points.
  const std::vector<ScenarioSpec> fills =
      scenario::expand_sweeps("name=f\nfill=0.4..0.6 step 0.1\n");
  ASSERT_EQ(fills.size(), 3u);
  EXPECT_DOUBLE_EQ(fills[2].fill, 0.6);
}

TEST(ScenarioSweep, MultiBlockFilesAndRejection) {
  const std::vector<ScenarioSpec> blocks = scenario::expand_sweeps(
      "name=a\nshots=2\n"
      "---\n"
      "name=b\ngrid=16,32\nshots=2\n");
  ASSERT_EQ(blocks.size(), 3u);
  EXPECT_EQ(blocks[0].name, "a");

  // Malformed sweeps.
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\ngrid=64..256\n"), PreconditionError);
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\ngrid=64..32 step 16\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\ngrid=64..128 step 0\n"),
               PreconditionError);
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\nfill=0.4,,0.6\n"), PreconditionError);
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\nfill=0.4,0.6,\n"), PreconditionError);
  // Sweep on a non-sweepable key is a plain parse error (comma value).
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\nmode=balanced,compact\n"),
               PreconditionError);
  // Matrix cap, also for ranges whose value count is huge, unbounded or
  // undefined: the expansion stops one value past the cap.
  EXPECT_THROW((void)scenario::expand_sweeps("name=x\nseed=1..100 step 1\n", 10),
               PreconditionError);
  for (const char* sweep : {"fill=0..1 step 1e-12", "fill=0..1 step nan", "fill=0..inf step 0.1",
                            "fill=nan..1 step 0.1"})
    EXPECT_THROW((void)scenario::expand_sweeps("name=x\n" + std::string(sweep) + "\n"),
                 PreconditionError)
        << sweep;
  // Duplicate names across blocks.
  EXPECT_THROW((void)scenario::expand_sweeps("name=a\n---\nname=a\n"), PreconditionError);
  // Empty file.
  EXPECT_THROW((void)scenario::expand_sweeps("# nothing\n"), PreconditionError);
}

/// `text` with one to three sweep-syntax tokens inserted, each at a random
/// byte or as a line of its own.
std::string mutate_campaign(Rng& rng, std::string text) {
  static const char* const kTokens[] = {"..", " step ", ",", "---", "nan", "inf", "1e-300"};
  for (std::uint32_t edits = 1 + rng.uniform_below(3); edits > 0; --edits) {
    std::size_t at = rng.uniform_below(static_cast<std::uint32_t>(text.size() + 1));
    std::string token = kTokens[rng.uniform_below(std::size(kTokens))];
    if (rng.bernoulli(0.3)) {
      at = at == 0 ? 0 : text.rfind('\n', at - 1) + 1;  // the start of the line holding `at`
      token += "\n";
    }
    text.insert(at, token);
  }
  return text;
}

TEST(ScenarioSweep, MutatedCampaignFilesExpandOrThrowPreconditionError) {
  // Mutation pass over campaign files: sweep tokens inserted into the text
  // of examples/campaigns/batch_campaign.txt and into a multi-block file
  // with range and list sweeps. expand_sweeps must return scenarios or
  // throw PreconditionError; it must never crash, hang or throw anything
  // else.
  const std::string seeds[] = {
      R"(# Grid-size sweep: four grids, the paper's even ~0.6*W target, 32 shots
# per cell from master seed 0xca3ba1. The report's fingerprint column is
# identical for any worker count:
#
#   ./build/examples/scenario_runner run --file examples/campaigns/batch_campaign.txt \
#       --workers 1 --deterministic --csv campaign.csv
name=batch-campaign
grid=24,32,48,64
target=auto
load=uniform
fill=0.6
shots=32
seed=0xca3ba1
per_move_loss=0.01
background_loss=0.002
max_rounds=6
)",
      "name=ranges\ngrid=16..32 step 8\nfill=0.4..0.6 step 0.1\nshots=2\n"
      "---\n"
      "name=lists\ngrid=16,24\ntarget=8,12\nper_move_loss=0.001,0.01\nseed=1..3 step 1\n"
      "max_rounds=2,4\n"
      "---\n"
      "# a block without sweeps\n"
      "name=plain\nload=pattern\npattern=border\nshots=2\n"};
  for (const std::string& seed : seeds) ASSERT_NO_THROW((void)scenario::expand_sweeps(seed, 64));

  Rng rng(0xCA3FA16);
  std::size_t expanded = 0;
  std::size_t refused = 0;
  for (int mutant = 0; mutant < 3000; ++mutant) {
    const std::string text = mutate_campaign(rng, seeds[mutant % 2]);
    try {
      EXPECT_LE(scenario::expand_sweeps(text, 64).size(), 64u) << text;
      ++expanded;
    } catch (const PreconditionError&) {
      ++refused;
    } catch (const std::exception& error) {
      ADD_FAILURE() << "threw " << error.what() << " on:\n" << text;
    }
  }
  RecordProperty("expanded", std::to_string(expanded));
  RecordProperty("refused", std::to_string(refused));
  EXPECT_GT(expanded, 0u) << "no mutant expanded: the pass only exercised rejection";
  EXPECT_GT(refused, 0u) << "no mutant was refused";
}

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

TEST(ScenarioWorkload, EveryProfileGeneratesDeterministically) {
  for (const LoadProfile profile :
       {LoadProfile::Uniform, LoadProfile::AtLeast, LoadProfile::Clustered,
        LoadProfile::Gradient, LoadProfile::Pattern}) {
    ScenarioSpec spec = tiny_spec();
    spec.load = profile;
    const OccupancyGrid a = generate_workload(spec, 7);
    const OccupancyGrid b = generate_workload(spec, 7);
    EXPECT_EQ(a, b) << scenario::to_cstring(profile);
    EXPECT_EQ(a.height(), spec.grid_height);
    EXPECT_EQ(a.width(), spec.grid_width);
    if (profile != LoadProfile::Pattern) {
      const OccupancyGrid c = generate_workload(spec, 8);
      EXPECT_NE(a, c) << scenario::to_cstring(profile) << " ignored the shot seed";
    }
  }
}

TEST(ScenarioWorkload, AtLeastHonoursTheResolvedDemand) {
  ScenarioSpec spec = tiny_spec();
  spec.load = LoadProfile::AtLeast;
  spec.fill = 0.5;
  const OccupancyGrid grid = generate_workload(spec, 3);
  EXPECT_GE(grid.atom_count(), spec.resolved_min_atoms());
}

// ---------------------------------------------------------------------------
// CampaignRunner
// ---------------------------------------------------------------------------

TEST(CampaignRunner, MatchesAHandBuiltBatchPlannerBitForBit) {
  // The scenario path must reproduce a hand-coded BatchPlanner sweep cell
  // (the old batch_campaign binary) exactly: same seeds, same fingerprint.
  const ScenarioSpec spec = tiny_spec();

  batch::BatchConfig by_hand;
  by_hand.plan.target = centered_region(16, 16, 8, 8);
  by_hand.grid_height = by_hand.grid_width = 16;
  by_hand.fill = 0.7;
  by_hand.shots = 6;
  by_hand.exec.workers = 2;
  by_hand.master_seed = spec.seed;
  by_hand.loss.per_move_loss = spec.per_move_loss;
  by_hand.loss.background_loss = spec.background_loss;
  by_hand.max_rounds = 4;
  const std::uint64_t expected = batch::BatchPlanner(by_hand).run().fingerprint();

  scenario::CampaignConfig config;
  config.exec.workers = 2;
  const scenario::ScenarioOutcome outcome = scenario::CampaignRunner(config).run_one(spec);
  EXPECT_EQ(outcome.batch.fingerprint(), expected);
}

TEST(CampaignRunner, FingerprintsAreWorkerCountIndependent) {
  // The batch_test guarantee, one level up: a campaign over multiple
  // loader families must agree bit-for-bit between 1 and 8 workers.
  std::vector<ScenarioSpec> specs;
  for (const LoadProfile profile :
       {LoadProfile::Uniform, LoadProfile::Clustered, LoadProfile::Gradient}) {
    ScenarioSpec spec = tiny_spec();
    spec.name = std::string("tiny-") + scenario::to_cstring(profile);
    spec.load = profile;
    specs.push_back(spec);
  }

  scenario::CampaignConfig serial;
  serial.exec.workers = 1;
  scenario::CampaignConfig pooled;
  pooled.exec.workers = 8;
  const scenario::CampaignReport a = scenario::CampaignRunner(serial).run(specs);
  const scenario::CampaignReport b = scenario::CampaignRunner(pooled).run(specs);

  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].fingerprint, b.scenarios[i].fingerprint)
        << a.scenarios[i].spec.name;
    EXPECT_EQ(a.scenarios[i].batch.fingerprint(), b.scenarios[i].batch.fingerprint());
    EXPECT_DOUBLE_EQ(a.scenarios[i].arch_overhead_us, b.scenarios[i].arch_overhead_us);
    for (std::size_t shot = 0; shot < a.scenarios[i].batch.shots.size(); ++shot) {
      EXPECT_EQ(a.scenarios[i].batch.shots[shot].final_grid,
                b.scenarios[i].batch.shots[shot].final_grid);
    }
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(CampaignRunner, EveryShotPlansOnItsOwnDerivedWorkload) {
  // One workload path for every load profile: shot i of every scenario
  // plans on exactly generate_workload(spec, shot_seed(spec.seed, i)), at
  // any worker count.
  std::vector<ScenarioSpec> specs;
  for (const LoadProfile profile :
       {LoadProfile::Uniform, LoadProfile::AtLeast, LoadProfile::Clustered,
        LoadProfile::Gradient, LoadProfile::Pattern}) {
    ScenarioSpec spec = tiny_spec();
    spec.name = std::string("tiny-") + scenario::to_cstring(profile);
    spec.load = profile;
    specs.push_back(spec);
  }
  for (const std::uint32_t workers : {1u, 4u}) {
    scenario::CampaignConfig config;
    config.exec.workers = workers;
    const scenario::CampaignReport report = scenario::CampaignRunner(config).run(specs);
    ASSERT_EQ(report.scenarios.size(), specs.size());
    for (const scenario::ScenarioOutcome& outcome : report.scenarios) {
      const ScenarioSpec& spec = outcome.spec;
      ASSERT_EQ(outcome.batch.shots.size(), spec.shots);
      for (std::uint32_t shot = 0; shot < spec.shots; ++shot) {
        EXPECT_EQ(outcome.batch.shots[shot].planned_input,
                  generate_workload(spec, exec::shot_seed(spec.seed, shot)))
            << spec.name << " shot " << shot << " at " << workers << " workers";
      }
    }
  }
}

TEST(CampaignRunner, RunOneIsRunOverOneSpec) {
  ScenarioSpec spec = tiny_spec();
  spec.load = LoadProfile::Clustered;
  scenario::CampaignConfig config;
  config.exec.workers = 3;
  const scenario::CampaignRunner runner(config);
  const scenario::ScenarioOutcome one = runner.run_one(spec);
  const scenario::CampaignReport all = runner.run({spec});
  ASSERT_EQ(all.scenarios.size(), 1u);
  const scenario::ScenarioOutcome& listed = all.scenarios.front();
  EXPECT_EQ(one.fingerprint, listed.fingerprint);
  ASSERT_EQ(one.batch.shots.size(), listed.batch.shots.size());
  for (std::size_t shot = 0; shot < one.batch.shots.size(); ++shot) {
    EXPECT_EQ(one.batch.shots[shot].planned_input, listed.batch.shots[shot].planned_input);
    EXPECT_EQ(one.batch.shots[shot].final_grid, listed.batch.shots[shot].final_grid);
  }
}

TEST(CampaignRunner, FilterSelectsAndEmptyFilterFails) {
  std::vector<ScenarioSpec> specs;
  ScenarioSpec first = tiny_spec();
  first.name = "alpha";
  first.tags = {"smoke"};
  ScenarioSpec second = tiny_spec();
  second.name = "beta";
  specs = {first, second};

  scenario::CampaignConfig config;
  config.exec.workers = 2;
  config.filter = "smoke";
  const scenario::CampaignReport report = scenario::CampaignRunner(config).run(specs);
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_EQ(report.scenarios[0].spec.name, "alpha");

  config.filter = "no-match";
  EXPECT_THROW((void)scenario::CampaignRunner(config).run(specs), PreconditionError);
}

TEST(CampaignRunner, ArchitectureModelSeparatesTheTwoControlPaths) {
  ScenarioSpec host = tiny_spec();
  host.name = "tiny-host";
  host.architecture = rt::Architecture::HostMediated;
  ScenarioSpec fpga = tiny_spec();
  fpga.name = "tiny-fpga";
  fpga.architecture = rt::Architecture::FpgaIntegrated;

  scenario::CampaignConfig config;
  config.exec.workers = 2;
  const scenario::CampaignRunner runner(config);
  const scenario::ScenarioOutcome host_outcome = runner.run_one(host);
  const scenario::ScenarioOutcome fpga_outcome = runner.run_one(fpga);

  // Identical physics (the architecture only affects the control path)...
  EXPECT_EQ(host_outcome.batch.fingerprint(), fpga_outcome.batch.fingerprint());
  // ...but the host-mediated path pays the two link hops every round.
  EXPECT_GT(host_outcome.arch_overhead_us, fpga_outcome.arch_overhead_us);
  EXPECT_GT(fpga_outcome.arch_overhead_us, 0.0);
  // The spec is part of the identity fingerprint, so the two differ there.
  EXPECT_NE(host_outcome.fingerprint, fpga_outcome.fingerprint);

  // Each round pays the runtime's control_path_cost for that round's share
  // of the commands.
  for (const scenario::ScenarioOutcome* outcome : {&host_outcome, &fpga_outcome}) {
    ASSERT_GT(outcome->mean_rounds, 0.0);
    std::vector<double> commands;
    for (const batch::ShotResult& shot : outcome->batch.shots)
      commands.push_back(static_cast<double>(shot.commands));
    rt::SystemConfig system;
    system.architecture = outcome->spec.architecture;
    const rt::ControlPathCost cost =
        rt::control_path_cost(system, outcome->spec.grid_height, outcome->spec.grid_width,
                              stats::mean(commands) / outcome->mean_rounds);
    EXPECT_EQ(outcome->arch_overhead_us,
              outcome->mean_rounds * (cost.transfer_us + cost.detection_us));
  }
}

TEST(CampaignRunner, ImagedDetectionFlowsIntoBatchConfigAndOutcome) {
  ScenarioSpec spec = tiny_spec();
  spec.imaged_detection = true;
  spec.photons_per_atom = 6.0;  // deliberately marginal: errors are expected

  const batch::BatchConfig batch_config = scenario::to_batch_config(spec);
  EXPECT_TRUE(batch_config.imaged_detection);
  EXPECT_DOUBLE_EQ(batch_config.imaging.photons_per_atom, 6.0);
  EXPECT_DOUBLE_EQ(batch_config.detection.threshold_photons, -1.0);

  scenario::CampaignConfig config;
  config.exec.workers = 2;
  const scenario::CampaignRunner runner(config);
  const scenario::ScenarioOutcome outcome = runner.run_one(spec);
  std::int64_t errors = 0;
  for (const batch::ShotResult& shot : outcome.batch.shots)
    errors += shot.detection_errors.total();
  // 6 photons/atom over ~4 background is deterministic-per-seed noise that
  // reliably misclassifies sites — the planner really saw the camera.
  EXPECT_GT(errors, 0);
  // And the whole imaged pipeline is reproducible bit for bit.
  EXPECT_EQ(runner.run_one(spec).fingerprint, outcome.fingerprint);

  // Perfect detection remains the default and error-free.
  const scenario::ScenarioOutcome perfect = runner.run_one(tiny_spec());
  for (const batch::ShotResult& shot : perfect.batch.shots)
    EXPECT_EQ(shot.detection_errors.total(), 0);
}

TEST(CampaignReport, CsvAndJsonWritersEmitEveryScenario) {
  scenario::CampaignConfig config;
  config.exec.workers = 2;
  ScenarioSpec spec = tiny_spec();
  spec.tags = {"smoke"};
  const scenario::CampaignReport report = scenario::CampaignRunner(config).run({spec});

  std::ostringstream csv;
  scenario::write_csv(report, csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("scenario,grid,target"), std::string::npos);
  EXPECT_NE(csv_text.find("tiny"), std::string::npos);

  std::ostringstream json;
  scenario::write_json(report, json);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"name\": \"tiny\""), std::string::npos);
  EXPECT_NE(json_text.find("\"fingerprint\""), std::string::npos);
}

}  // namespace
}  // namespace qrm
