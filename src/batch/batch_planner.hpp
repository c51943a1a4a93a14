#pragma once
/// \file batch_planner.hpp
/// Shot-level parallelism over the full image -> detect -> plan -> execute
/// pipeline.
///
/// A batch is N independent shots of the same experiment. Each shot draws
/// its own workload (or consumes a pre-captured occupancy grid), optionally
/// runs imaged detection, then plans and lossily executes the multi-round
/// rearrangement loop. Shots fan out across a ThreadPool through
/// run_batches, the one shot fan-out that BatchPlanner::run and the
/// scenario campaign runner share.
///
/// Determinism guarantee: every per-shot RNG stream (loading, photon noise,
/// loss) is derived from one master seed via qrm::derive_seed(master, shot),
/// and each shot writes only its own result slot. The *outcome* fields of a
/// BatchReport — grids, schedules, counts, rates, fingerprint() — are
/// therefore bit-identical for any worker count and any scheduling order.
/// Only the wall-clock fields (`*_us`, wall_us) vary run to run; they are
/// excluded from fingerprint().

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "detection/calibration.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "exec/policy.hpp"
#include "lattice/grid.hpp"
#include "runtime/rearrangement_loop.hpp"

namespace qrm {
class ThreadPool;
}  // namespace qrm

namespace qrm::batch {

struct BatchConfig {
  QrmConfig plan;  ///< target + planner settings (honoured fully for "qrm")
  /// Planner registry name (baselines::algorithm_names()): "qrm",
  /// "qrm-compact", "typical", "tetris", "psca", "mta1". Non-qrm names run
  /// behind the same interface with plan.target as their goal.
  std::string algorithm = "qrm";
  std::uint32_t shots = 16;        ///< ignored when captured grids are given
  std::uint64_t master_seed = 0x5EED;  ///< root of every per-shot stream

  /// Generated-workload geometry (ignored when captured grids are given).
  std::int32_t grid_height = 0;
  std::int32_t grid_width = 0;
  double fill = 0.55;              ///< Bernoulli load probability

  /// When set, each shot renders a fluorescence frame of its ground truth
  /// and plans on the *detected* grid (detection errors and latency are
  /// reported per shot). Off by default: detection is perfect and free.
  bool imaged_detection = false;
  ImagingConfig imaging;
  DetectionConfig detection;
  /// Per-shot calibration drift (only meaningful with imaged_detection):
  /// shot i images with photons_per_atom * drift.factor(i), and a manual
  /// detection threshold drifts by factor(i + period/2) — half a period out
  /// of phase, the way a threshold calibrated against a *past* photon rate
  /// mis-tracks the current one, so the two drifts never cancel. Keyed only
  /// by the shot index: no RNG stream is consumed, worker invariance holds.
  CalibrationDrift drift;

  rt::LossModel loss;              ///< master loss model; shots derive streams
  std::uint32_t max_rounds = 10;   ///< lossy-loop round budget per shot

  /// Execution policy (exec/policy.hpp). The batch honours every field:
  /// workers sizes the shot pool (0 -> hardware_concurrency), replan selects
  /// each shot loop's strategy (Delta is honoured only by the "qrm"
  /// algorithm; baselines always plan as given), plan_cache attaches shared
  /// plan memoisation (null = off; hits are bit-equal to cold plans), and
  /// keep_schedules retains per-round schedules per shot. Pure mechanism:
  /// outcome fields and fingerprint() never depend on it.
  exec::ExecPolicy exec;
};

/// Outcome of one shot. All fields except the `*_us` timings are
/// deterministic functions of (config, shot index).
struct ShotResult {
  std::uint32_t shot = 0;
  std::uint64_t seed = 0;          ///< derive_seed(master_seed, shot)
  OccupancyGrid planned_input;     ///< grid the first round planned on
  OccupancyGrid final_grid;        ///< world state at loop exit
  bool success = false;            ///< target defect-free at loop exit
  std::uint32_t rounds = 0;
  std::size_t commands = 0;        ///< schedule commands, summed over rounds
  std::int64_t atoms_lost = 0;
  std::int64_t defects_remaining = 0;
  double fill_rate = 0.0;          ///< target occupancy fraction at exit
  DetectionErrors detection_errors;   ///< zeros unless imaged_detection
  std::vector<Schedule> schedules;    ///< per round, only when keep_schedules

  // Wall-clock stage latencies — measurement, not outcome; excluded from
  // the determinism guarantee and from BatchReport::fingerprint().
  double detect_us = 0.0;
  double plan_us = 0.0;
  double execute_us = 0.0;
};

/// Descriptive summary of one latency column across the batch.
struct LatencySummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

struct BatchReport {
  std::vector<ShotResult> shots;   ///< indexed by shot number
  std::uint32_t workers = 0;       ///< pool size actually used
  /// Makespan of the batch's shots on the pool: first start to last end
  /// (work from other batches sharing the pool falls inside the span).
  double wall_us = 0.0;

  [[nodiscard]] double shots_per_second() const noexcept;
  [[nodiscard]] double success_rate() const noexcept;
  [[nodiscard]] double mean_fill_rate() const noexcept;
  [[nodiscard]] std::size_t total_commands() const noexcept;

  enum class Stage : std::uint8_t { Detect, Plan, Execute };
  [[nodiscard]] LatencySummary latency(Stage stage) const;

  /// Order-sensitive FNV-1a hash of every deterministic outcome field of
  /// every shot (grids included, timings excluded). Two batches of the same
  /// config must agree here regardless of worker count.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

struct ShotBatch;

/// Fans shots across a ThreadPool and aggregates their results.
class BatchPlanner {
 public:
  /// Validates the config: shots > 0, generated geometry positive (unless
  /// only captured runs are used), fill/loss probabilities in [0,1].
  explicit BatchPlanner(BatchConfig config);

  [[nodiscard]] const BatchConfig& config() const noexcept { return config_; }

  /// The loss master the shots actually draw from: config().loss with its
  /// seed domain-separated from the loading/imaging streams, so that
  /// master_seed == loss.seed cannot correlate loss flips with the loading
  /// pattern. A serial rt::run_rearrangement_loop reconstruction of shot i
  /// must use this model (with shot_index = i) to match the batch exactly.
  [[nodiscard]] rt::LossModel effective_loss() const noexcept;

  /// Run config.shots generated shots on a pool of exec.workers.
  [[nodiscard]] BatchReport run() const;

  /// Run one shot per pre-captured occupancy grid (real camera frames or
  /// replayed experiments); loading config is ignored, loss/photon streams
  /// are still derived per shot.
  [[nodiscard]] BatchReport run(const std::vector<OccupancyGrid>& captured) const;

  /// The exact work one shot performs; exposed so tests can compare the
  /// serial answer against the pooled one. `captured` may be null.
  [[nodiscard]] ShotResult run_shot(std::uint32_t shot, const OccupancyGrid* captured) const;

 private:
  friend std::vector<BatchReport> run_batches(const std::vector<ShotBatch>& batches,
                                              ThreadPool& pool);

  /// Shot `shot`'s generated Bernoulli load.
  [[nodiscard]] OccupancyGrid generated(std::uint32_t shot) const;
  /// One shot on ground truth `truth`.
  [[nodiscard]] ShotResult run_shot_impl(std::uint32_t shot, OccupancyGrid truth) const;

  BatchConfig config_;
};

/// One batch of the shared fan-out: a planner, its shot count, and where
/// each shot's ground-truth grid comes from.
struct ShotBatch {
  const BatchPlanner* planner = nullptr;
  std::uint32_t shots = 0;
  /// Draws shot i's grid inside that shot's own task. Empty = the
  /// planner's generated Bernoulli load.
  std::function<OccupancyGrid(std::uint32_t shot)> workload;
};

/// The one shot fan-out. Every shot of every batch is one task on `pool`,
/// submitted in (batch, shot) order; each task writes only its own result
/// slot and its own start/end timestamps. The caller only waits, so at most
/// pool.worker_count() shots run at once, and a 1-worker pool runs them one
/// at a time in submission order. Once every task has finished, the first
/// failure in submission order is rethrown. Returns one report per batch.
[[nodiscard]] std::vector<BatchReport> run_batches(const std::vector<ShotBatch>& batches,
                                                   ThreadPool& pool);

}  // namespace qrm::batch
