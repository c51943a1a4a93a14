#pragma once
/// \file rearrangement_loop.hpp
/// Multi-round rearrangement under atom loss — the scaled-up / mid-circuit
/// scenario the paper's introduction motivates ("the runtime for atom
/// rearrangement in scaled-up systems with mid-circuit measurements
/// remains a challenge").
///
/// Each round: image the (simulated) array, detect, plan, execute — but
/// every executed move loses its atom with some probability, and trapped
/// atoms suffer background loss between rounds. The loop repeats until the
/// target is defect-free or the atom budget is exhausted, reporting how
/// analysis latency multiplies across rounds.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/config.hpp"
#include "exec/policy.hpp"
#include "lattice/grid.hpp"
#include "moves/dead_channels.hpp"
#include "moves/schedule.hpp"
#include "util/rng.hpp"

namespace qrm::rt {

struct LossModel {
  double per_move_loss = 0.005;      ///< probability an atom is lost per executed move
  double background_loss = 0.002;    ///< per-atom loss probability between rounds
  /// Correlated loss bursts (a collision with background gas, a tweezer
  /// glitch): after each executed round, with this probability a burst
  /// fires and kills `burst_length` consecutive trapped atoms (scan order,
  /// start drawn uniformly). Draws come from the same derived per-shot
  /// stream as the other loss coins, so determinism and worker-count
  /// invariance carry over; 0.0 (the default) draws nothing at all.
  double burst_loss = 0.0;
  std::int32_t burst_length = 4;     ///< atoms killed per burst
  std::uint64_t seed = 0xA70B1055;   ///< master loss seed; shots draw derived streams

  /// The loss model of one shot in a batch: same physics, an independent
  /// RNG stream split from the master seed. A single shared seed would make
  /// "independent" shots draw the *same* loss coin flips and correlate every
  /// batch statistic; deriving per shot keeps them uncorrelated while the
  /// whole batch stays reproducible from one master seed.
  [[nodiscard]] LossModel derive(std::uint64_t shot_index) const noexcept {
    LossModel shot = *this;
    shot.seed = derive_seed(seed, shot_index);
    return shot;
  }
};

struct LoopConfig {
  QrmConfig plan;                 ///< target + planner settings
  LossModel loss;
  std::uint32_t max_rounds = 10;
  /// Which derived loss stream this run draws (see LossModel::derive).
  /// Batch shots pass their shot number; standalone runs keep 0.
  std::uint32_t shot_index = 0;
  /// Execution policy. The loop honours keep_schedules; workers and
  /// plan_cache belong to the layers above (batch, campaign) and are
  /// ignored here, and replan selects nothing.
  exec::ExecPolicy exec;
};

struct RoundReport {
  std::int64_t atoms_before = 0;
  std::int64_t defects_before = 0;
  std::size_t commands = 0;
  std::int64_t atoms_lost = 0;
  bool filled_after = false;
};

struct LoopReport {
  std::vector<RoundReport> rounds;
  bool success = false;           ///< target defect-free at loop exit
  std::int64_t total_atoms_lost = 0;
  OccupancyGrid final_grid;
  std::vector<Schedule> schedules;  ///< per-round, only when keep_schedules
  /// Always zero: perfbench's delta probe still reads these.
  struct {
    std::uint64_t kernels_reused = 0;
    std::uint64_t kernels_computed = 0;
  } replan;

  [[nodiscard]] std::size_t rounds_used() const noexcept { return rounds.size(); }
};

/// The order the loop executes one parallel move's sites in: front-most
/// along the move direction first (so surviving lockstep chains stay valid),
/// ties — sites abreast of each other perpendicular to the direction —
/// broken by (row, col) ascending. The tie-break is load-bearing: each site
/// consumes RNG draws, so an unspecified tie order (the old plain std::sort
/// on the front key) let loss outcomes differ across standard libraries.
[[nodiscard]] std::vector<Coord> lossy_move_order(const ParallelMove& move);

/// Execute one round's schedule on the lossy world `state`, command by
/// command, each command's atoms in lossy_move_order. An atom that is
/// already gone, whose destination leaves the grid, whose source or
/// destination lies on a dead channel, or whose path crosses an atom off
/// the dead channels stays put and draws nothing; every other one leaves
/// its source and draws one coin from `rng`, lost with probability
/// `per_move_loss`. Returns the atoms lost. Line-form commands run a line at
/// a time; site-form ones per site, which is the reference.
std::int64_t apply_lossy_schedule(OccupancyGrid& state, const Schedule& schedule, Rng& rng,
                                  double per_move_loss, const DeadChannelMask& dead);

/// Produces the schedule for one round given the current (re-imaged) world.
/// Must be a pure function of its argument — the loop may be replayed for
/// verification and batch shots rely on plan determinism.
using PlanFn = std::function<PlanResult(const OccupancyGrid&)>;

/// Run the rearrange-verify loop starting from `initial` ground truth.
/// Detection is assumed perfect (loss, not imaging, is the subject here).
[[nodiscard]] LoopReport run_rearrangement_loop(const OccupancyGrid& initial,
                                                const LoopConfig& config);

/// Same loop with an injected per-round planner, so baselines (or any
/// RearrangementAlgorithm) run behind the identical lossy-execution model.
/// The two-argument overload forwards here with QrmPlanner(config.plan).
[[nodiscard]] LoopReport run_rearrangement_loop(const OccupancyGrid& initial,
                                                const LoopConfig& config, const PlanFn& plan);

}  // namespace qrm::rt
