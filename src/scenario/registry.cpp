#include "scenario/registry.hpp"

#include "util/assert.hpp"

namespace qrm::scenario {

namespace {

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> scenarios;

  {
    // The paper's evaluation workload: Bernoulli loads into the centred
    // 30x30 target of a 50x50 array (Fig. 7). fill=0.6 rather than the
    // collisional-blockade 0.5 so the target is feasible on most shots,
    // matching the existing fig7/batch sweeps.
    ScenarioSpec spec;
    spec.name = "paper-fig7";
    spec.description = "Fig. 7 reproduction: 50x50 Bernoulli(0.6) into the centred 30x30 target";
    spec.tags = {"paper"};
    spec.grid_height = spec.grid_width = 50;
    spec.target_rows = spec.target_cols = 30;
    spec.fill = 0.6;
    spec.shots = 32;
    spec.seed = 0xF167A;
    spec.per_move_loss = 0.01;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "smoke-uniform";
    spec.description = "small Bernoulli(0.6) workload sized for CI smoke runs";
    spec.tags = {"smoke"};
    spec.grid_height = spec.grid_width = 24;
    spec.fill = 0.6;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "adversarial-row-stripes";
    spec.description = "even rows full, odd rows empty - worst case for column balance";
    spec.tags = {"smoke", "adversarial"};
    spec.load = LoadProfile::Pattern;
    spec.pattern = Pattern::RowStripes;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "adversarial-checkerboard";
    spec.description = "exactly 50% fill arranged adversarially for row balance";
    spec.tags = {"smoke", "adversarial"};
    spec.load = LoadProfile::Pattern;
    spec.pattern = Pattern::Checkerboard;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "adversarial-border";
    spec.description = "only the outer ring occupied - maximal travel into a small target";
    spec.tags = {"smoke", "adversarial"};
    spec.load = LoadProfile::Pattern;
    spec.pattern = Pattern::Border;
    spec.target_rows = spec.target_cols = 8;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "clustered-defect";
    spec.description = "Bernoulli(0.65) with four emptied blast regions (correlated loss)";
    spec.tags = {"smoke"};
    spec.grid_height = spec.grid_width = 48;
    spec.load = LoadProfile::Clustered;
    spec.fill = 0.65;
    spec.clusters = 4;
    spec.cluster_radius = 3;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "low-fill-30";
    spec.description = "30% fill retried until the 12x12 target is feasible (at-least loader)";
    spec.tags = {"smoke"};
    spec.grid_height = spec.grid_width = 40;
    spec.target_rows = spec.target_cols = 12;
    spec.load = LoadProfile::AtLeast;
    spec.fill = 0.3;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "gradient-ramp";
    spec.description = "linear 0.25->0.85 fill ramp across rows (beam-profile falloff)";
    spec.tags = {"smoke"};
    spec.grid_height = spec.grid_width = 48;
    spec.load = LoadProfile::Gradient;
    spec.gradient_start = 0.25;
    spec.gradient_end = 0.85;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "baseline-tetris";
    spec.description = "the Tetris baseline planner on the smoke workload (planner A/B axis)";
    spec.tags = {"smoke", "baseline"};
    spec.grid_height = spec.grid_width = 24;
    spec.algorithm = "tetris";
    spec.fill = 0.6;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "arch-host-mediated";
    spec.description = "Fig. 2(a) control path: camera frame and move list cross the host link";
    spec.tags = {"smoke", "architecture"};
    spec.architecture = rt::Architecture::HostMediated;
    spec.fill = 0.6;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "arch-fpga-integrated";
    spec.description = "Fig. 2(b) control path: detection and planning stay on the FPGA";
    spec.tags = {"smoke", "architecture"};
    spec.architecture = rt::Architecture::FpgaIntegrated;
    spec.fill = 0.6;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    // Detection-error regime: the full Fig. 1 workflow with a noisy camera.
    // 24 photons/atom against ~4 background is marginal on purpose, so the
    // automatic threshold misclassifies a few sites per shot and the
    // planner works from an imperfect occupancy matrix.
    ScenarioSpec spec;
    spec.name = "imaged-detection";
    spec.description = "plans on detected occupancy from noisy rendered frames, not ground truth";
    spec.tags = {"smoke", "detection"};
    spec.grid_height = spec.grid_width = 24;
    spec.fill = 0.6;
    spec.imaged_detection = true;
    spec.photons_per_atom = 24.0;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  // --- Hostile physics: fault injection, drift, dead channels -------------
  // Each axis gets its own scenario (so a fingerprint drift names the broken
  // axis) plus one kitchen-sink combining all of them. All are smoke-sized:
  // these run under TSan in the hostile-physics CI job.
  {
    ScenarioSpec spec;
    spec.name = "hostile-burst-loss";
    spec.description = "correlated loss bursts: 30% of rounds lose a 6-atom run";
    spec.tags = {"smoke", "hostile"};
    spec.fill = 0.6;
    spec.burst_loss = 0.3;
    spec.burst_length = 6;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-calibration-drift";
    spec.description = "sinusoidal photon-rate drift (+/-50% over 4 shots) on marginal imaging";
    spec.tags = {"smoke", "hostile", "detection"};
    spec.grid_height = spec.grid_width = 24;
    spec.fill = 0.6;
    spec.imaged_detection = true;
    spec.photons_per_atom = 24.0;
    spec.drift = DriftShape::Sine;
    spec.drift_amplitude = 0.5;
    spec.drift_period = 4;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-threshold-bias";
    spec.description = "miscalibrated detector: auto threshold applied 35% too high";
    spec.tags = {"smoke", "hostile", "detection"};
    spec.grid_height = spec.grid_width = 24;
    spec.fill = 0.6;
    spec.imaged_detection = true;
    spec.photons_per_atom = 24.0;
    spec.threshold_bias = 1.35;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-dead-rows";
    spec.description = "two dead AOD rows outside the target; the legalizer hops across them";
    spec.tags = {"smoke", "hostile"};
    spec.fill = 0.6;
    spec.dead_rows = {2, 28};
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-dead-cols-delta";
    spec.description = "dead AOD columns under delta replanning (pinned bit-equal to scratch)";
    spec.tags = {"smoke", "hostile"};
    spec.fill = 0.6;
    spec.dead_cols = {1, 30};
    spec.replan = ReplanMode::Delta;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-corner-block";
    spec.description = "every atom packed into one quadrant - worst case cross-quadrant balance";
    spec.tags = {"smoke", "hostile", "adversarial"};
    spec.load = LoadProfile::Pattern;
    spec.pattern = Pattern::CornerBlock;
    spec.target_rows = spec.target_cols = 14;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-half-grid";
    spec.description = "top half full, bottom half empty - maximal one-directional rebalance";
    spec.tags = {"smoke", "hostile", "adversarial"};
    spec.load = LoadProfile::Pattern;
    spec.pattern = Pattern::HalfGrid;
    spec.shots = 4;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "hostile-kitchen-sink";
    spec.description = "every hostile axis at once: bursts, drift, bias, dead lines, delta replan";
    spec.tags = {"smoke", "hostile"};
    spec.grid_height = spec.grid_width = 24;
    spec.fill = 0.6;
    spec.imaged_detection = true;
    spec.photons_per_atom = 24.0;
    spec.drift = DriftShape::Ramp;
    spec.drift_amplitude = 0.3;
    spec.drift_period = 5;
    spec.threshold_bias = 1.2;
    spec.burst_loss = 0.2;
    spec.burst_length = 4;
    spec.dead_rows = {1};
    spec.dead_cols = {22};
    spec.replan = ReplanMode::Delta;
    spec.shots = 8;
    spec.max_rounds = 6;
    scenarios.push_back(spec);
  }
  {
    // Multi-word lines end to end: every row and column of a 128x128 grid
    // spans two 64-bit words, which no smaller scenario reaches. Light loss
    // and no background loss let the shots fill within the round budget.
    ScenarioSpec spec;
    spec.name = "multi-word-128";
    spec.description = "128x128 Bernoulli(0.6) into the centred 76x76 target: two-word lines";
    spec.tags = {"scale"};
    spec.grid_height = spec.grid_width = 128;
    spec.fill = 0.6;
    spec.per_move_loss = 0.0015;
    spec.background_loss = 0.0;
    spec.shots = 4;
    spec.max_rounds = 4;
    scenarios.push_back(spec);
  }
  {
    // Production-scale stress point: ~36k traps. Not tagged "smoke": one
    // run takes ~0.15 s in Release but ~33 s in a Debug --coverage build.
    ScenarioSpec spec;
    spec.name = "large-grid-256";
    spec.description = "256x256 stress workload (~36k atoms into the 152x152 target)";
    spec.tags = {"stress"};
    spec.grid_height = spec.grid_width = 256;
    spec.fill = 0.6;
    spec.shots = 4;
    spec.max_rounds = 4;
    scenarios.push_back(spec);
  }

  for (const ScenarioSpec& spec : scenarios) validate(spec);
  return scenarios;
}

}  // namespace

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> scenarios = build_registry();
  return scenarios;
}

const ScenarioSpec& find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : registry())
    if (spec.name == name) return spec;
  std::string known;
  for (const ScenarioSpec& spec : registry()) known += (known.empty() ? "" : ", ") + spec.name;
  throw PreconditionError("unknown scenario '" + name + "' (registry: " + known + ")");
}

std::vector<ScenarioSpec> filter_registry(const std::string& filter) {
  std::vector<ScenarioSpec> matched;
  for (const ScenarioSpec& spec : registry())
    if (spec.matches_filter(filter)) matched.push_back(spec);
  return matched;
}

}  // namespace qrm::scenario
