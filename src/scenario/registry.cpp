#include "scenario/registry.hpp"

#include "util/assert.hpp"

namespace qrm::scenario {

namespace {

/// The built-in scenarios as campaign text: one `---`-separated block per
/// scenario, in presentation order. A block leaves out every key that keeps
/// its ScenarioSpec default.
constexpr const char* kRegistry = R"(
# The paper's evaluation workload: Bernoulli loads into the centred 30x30
# target of a 50x50 array (Fig. 7). fill=0.6 rather than the
# collisional-blockade 0.5 so the target is feasible on most shots,
# matching the existing fig7/batch sweeps.
name=paper-fig7
description=Fig. 7 reproduction: 50x50 Bernoulli(0.6) into the centred 30x30 target
tags=paper
grid=50
target=30
fill=0.6
shots=32
seed=0xf167a
per_move_loss=0.01
---
name=smoke-uniform
description=small Bernoulli(0.6) workload sized for CI smoke runs
tags=smoke
grid=24
fill=0.6
shots=8
max_rounds=6
---
name=adversarial-row-stripes
description=even rows full, odd rows empty - worst case for column balance
tags=smoke,adversarial
load=pattern
pattern=row-stripes
shots=4
max_rounds=6
---
name=adversarial-checkerboard
description=exactly 50% fill arranged adversarially for row balance
tags=smoke,adversarial
load=pattern
pattern=checkerboard
shots=4
max_rounds=6
---
name=adversarial-border
description=only the outer ring occupied - maximal travel into a small target
tags=smoke,adversarial
target=8
load=pattern
pattern=border
shots=4
max_rounds=6
---
name=clustered-defect
description=Bernoulli(0.65) with four emptied blast regions (correlated loss)
tags=smoke
grid=48
load=clustered
fill=0.65
clusters=4
cluster_radius=3
shots=8
max_rounds=6
---
name=low-fill-30
description=30% fill retried until the 12x12 target is feasible (at-least loader)
tags=smoke
grid=40
target=12
load=at-least
fill=0.3
shots=8
max_rounds=6
---
name=gradient-ramp
description=linear 0.25->0.85 fill ramp across rows (beam-profile falloff)
tags=smoke
grid=48
load=gradient
gradient_start=0.25
gradient_end=0.85
shots=8
max_rounds=6
---
name=baseline-tetris
description=the Tetris baseline planner on the smoke workload (planner A/B axis)
tags=smoke,baseline
grid=24
algorithm=tetris
fill=0.6
shots=4
max_rounds=6
---
name=arch-host-mediated
description=Fig. 2(a) control path: camera frame and move list cross the host link
tags=smoke,architecture
architecture=host
fill=0.6
shots=8
max_rounds=6
---
name=arch-fpga-integrated
description=Fig. 2(b) control path: detection and planning stay on the FPGA
tags=smoke,architecture
fill=0.6
shots=8
max_rounds=6
---
# Detection-error regime: the full Fig. 1 workflow with a noisy camera.
# 24 photons/atom against ~4 background is marginal on purpose, so the
# automatic threshold misclassifies a few sites per shot and the planner
# works from an imperfect occupancy matrix.
name=imaged-detection
description=plans on detected occupancy from noisy rendered frames, not ground truth
tags=smoke,detection
grid=24
fill=0.6
imaged_detection=true
photons_per_atom=24
shots=8
max_rounds=6
---
# Hostile physics: fault injection, drift, dead channels. Each axis gets its
# own scenario (so a fingerprint drift names the broken axis) plus one
# kitchen-sink combining all of them. All are smoke-sized: these run under
# TSan in the hostile-physics CI job.
name=hostile-burst-loss
description=correlated loss bursts: 30% of rounds lose a 6-atom run
tags=smoke,hostile
fill=0.6
burst_loss=0.3
burst_length=6
shots=8
max_rounds=6
---
name=hostile-calibration-drift
description=sinusoidal photon-rate drift (+/-50% over 4 shots) on marginal imaging
tags=smoke,hostile,detection
grid=24
fill=0.6
imaged_detection=true
photons_per_atom=24
drift=sine
drift_amplitude=0.5
drift_period=4
shots=8
max_rounds=6
---
name=hostile-threshold-bias
description=miscalibrated detector: auto threshold applied 35% too high
tags=smoke,hostile,detection
grid=24
fill=0.6
imaged_detection=true
photons_per_atom=24
threshold_bias=1.35
shots=8
max_rounds=6
---
name=hostile-dead-rows
description=two dead AOD rows outside the target; the legalizer hops across them
tags=smoke,hostile
fill=0.6
dead_rows=2,28
shots=8
max_rounds=6
---
name=hostile-dead-cols-delta
description=dead AOD columns under delta replanning (pinned bit-equal to scratch)
tags=smoke,hostile
fill=0.6
dead_cols=1,30
replan=delta
shots=8
max_rounds=6
---
name=hostile-corner-block
description=every atom packed into one quadrant - worst case cross-quadrant balance
tags=smoke,hostile,adversarial
target=14
load=pattern
pattern=corner-block
shots=4
max_rounds=6
---
name=hostile-half-grid
description=top half full, bottom half empty - maximal one-directional rebalance
tags=smoke,hostile,adversarial
load=pattern
pattern=half-grid
shots=4
max_rounds=6
---
name=hostile-kitchen-sink
description=every hostile axis at once: bursts, drift, bias, dead lines, delta replan
tags=smoke,hostile
grid=24
fill=0.6
imaged_detection=true
photons_per_atom=24
drift=ramp
drift_amplitude=0.3
drift_period=5
threshold_bias=1.2
burst_loss=0.2
burst_length=4
dead_rows=1
dead_cols=22
replan=delta
shots=8
max_rounds=6
---
# Multi-word lines end to end: every row and column of a 128x128 grid spans
# two 64-bit words, which no smaller scenario reaches. Light loss and no
# background loss let the shots fill within the round budget.
name=multi-word-128
description=128x128 Bernoulli(0.6) into the centred 76x76 target: two-word lines
tags=scale
grid=128
fill=0.6
per_move_loss=0.0015
background_loss=0
shots=4
max_rounds=4
---
# Production-scale stress point: ~36k traps. Not tagged "smoke": one run
# takes ~0.15 s in Release but ~33 s in a Debug --coverage build.
name=large-grid-256
description=256x256 stress workload (~36k atoms into the 152x152 target)
tags=stress
grid=256
fill=0.6
shots=4
max_rounds=4
)";

}  // namespace

const std::vector<ScenarioSpec>& registry() {
  static const std::vector<ScenarioSpec> scenarios = expand_sweeps(kRegistry);
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
