#include "batch/batch_planner.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "baselines/algorithm.hpp"
#include "core/planner.hpp"
#include "exec/plan_cache.hpp"
#include "loading/loader.hpp"
#include "moves/dead_channels.hpp"
#include "util/assert.hpp"
#include "util/fnv.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace qrm::batch {

namespace {

// --- FNV-1a over the deterministic outcome fields -------------------------

void mix(std::uint64_t& hash, std::uint64_t value) noexcept { fnv::mix_u64(hash, value); }

// Grid mixing lives in exec/plan_cache.cpp (exec::mix_grid) so the report
// fingerprint and the cache key share one byte order.

void mix_schedule(std::uint64_t& hash, const Schedule& schedule) noexcept {
  mix(hash, schedule.size());
  for (const ParallelMove& move : schedule.moves()) {
    mix(hash, static_cast<std::uint64_t>(move.dir));
    mix(hash, static_cast<std::uint64_t>(move.steps));
    for (const Coord& site : move.sites) {
      mix(hash, static_cast<std::uint64_t>(site.row));
      mix(hash, static_cast<std::uint64_t>(site.col));
    }
  }
}

}  // namespace

double BatchReport::shots_per_second() const noexcept {
  if (wall_us <= 0.0) return 0.0;
  return static_cast<double>(shots.size()) / (wall_us * 1e-6);
}

double BatchReport::success_rate() const noexcept {
  if (shots.empty()) return 0.0;
  std::size_t successes = 0;
  for (const ShotResult& shot : shots) successes += shot.success ? 1 : 0;
  return static_cast<double>(successes) / static_cast<double>(shots.size());
}

double BatchReport::mean_fill_rate() const noexcept {
  if (shots.empty()) return 0.0;
  double sum = 0.0;
  for (const ShotResult& shot : shots) sum += shot.fill_rate;
  return sum / static_cast<double>(shots.size());
}

std::size_t BatchReport::total_commands() const noexcept {
  std::size_t total = 0;
  for (const ShotResult& shot : shots) total += shot.commands;
  return total;
}

LatencySummary BatchReport::latency(Stage stage) const {
  std::vector<double> column;
  column.reserve(shots.size());
  for (const ShotResult& shot : shots) {
    switch (stage) {
      case Stage::Detect: column.push_back(shot.detect_us); break;
      case Stage::Plan: column.push_back(shot.plan_us); break;
      case Stage::Execute: column.push_back(shot.execute_us); break;
    }
  }
  LatencySummary summary;
  if (column.empty()) return summary;
  summary.mean = stats::mean(column);
  const stats::SortedSample sample(column);
  summary.p50 = sample.percentile(50.0);
  summary.p90 = sample.percentile(90.0);
  summary.p99 = sample.percentile(99.0);
  summary.max = sample.max();
  return summary;
}

std::uint64_t BatchReport::fingerprint() const noexcept {
  std::uint64_t hash = fnv::kOffset;
  mix(hash, shots.size());
  for (const ShotResult& shot : shots) {
    mix(hash, shot.shot);
    mix(hash, shot.seed);
    mix(hash, shot.success ? 1 : 0);
    mix(hash, shot.rounds);
    mix(hash, shot.commands);
    mix(hash, static_cast<std::uint64_t>(shot.atoms_lost));
    mix(hash, static_cast<std::uint64_t>(shot.defects_remaining));
    mix(hash, std::bit_cast<std::uint64_t>(shot.fill_rate));
    mix(hash, static_cast<std::uint64_t>(shot.detection_errors.false_positives));
    mix(hash, static_cast<std::uint64_t>(shot.detection_errors.false_negatives));
    exec::mix_grid(hash, shot.planned_input);
    exec::mix_grid(hash, shot.final_grid);
    mix(hash, shot.schedules.size());
    for (const Schedule& schedule : shot.schedules) mix_schedule(hash, schedule);
  }
  return hash;
}

BatchPlanner::BatchPlanner(BatchConfig config) : config_(std::move(config)) {
  QRM_EXPECTS(config_.shots > 0);
  QRM_EXPECTS(config_.fill >= 0.0 && config_.fill <= 1.0);
  QRM_EXPECTS(config_.max_rounds > 0);
  QRM_EXPECTS(config_.loss.per_move_loss >= 0.0 && config_.loss.per_move_loss <= 1.0);
  QRM_EXPECTS(config_.loss.background_loss >= 0.0 && config_.loss.background_loss <= 1.0);
  QRM_EXPECTS(config_.loss.burst_loss >= 0.0 && config_.loss.burst_loss <= 1.0);
  QRM_EXPECTS(config_.loss.burst_length >= 1);
  QRM_EXPECTS(config_.drift.amplitude >= 0.0 && config_.drift.amplitude <= 1.0);
  QRM_EXPECTS(config_.drift.period >= 1);
  QRM_EXPECTS_MSG(!config_.imaged_detection ||
                      config_.detection.pixels_per_site == config_.imaging.pixels_per_site,
                  "detection geometry must match imaging geometry");
  // Fail on unknown algorithm names at construction, not mid-batch.
  (void)baselines::make_algorithm(config_.algorithm);
}

rt::LossModel BatchPlanner::effective_loss() const noexcept {
  rt::LossModel loss = config_.loss;
  loss.seed = exec::loss_master_seed(config_.loss.seed);
  return loss;
}

OccupancyGrid BatchPlanner::generated(std::uint32_t shot) const {
  return load_random(config_.grid_height, config_.grid_width,
                     {config_.fill, exec::shot_seed(config_.master_seed, shot)});
}

ShotResult BatchPlanner::run_shot(std::uint32_t shot, const OccupancyGrid* captured) const {
  return run_shot_impl(shot, captured != nullptr ? *captured : generated(shot));
}

ShotResult BatchPlanner::run_shot_impl(std::uint32_t shot, OccupancyGrid truth) const {
  ShotResult result;
  result.shot = shot;
  result.seed = exec::shot_seed(config_.master_seed, shot);

  // --- Detection stage ----------------------------------------------------
  if (config_.imaged_detection) {
    ImagingConfig imaging = config_.imaging;
    imaging.seed = exec::imaging_seed(result.seed);
    DetectionConfig detection = config_.detection;
    if (config_.drift.shape != DriftShape::None) {
      // Calibration drift, keyed only by the shot index (no RNG): photons
      // drift with this shot's factor; a manual threshold drifts half a
      // period out of phase (it was calibrated against a past photon rate),
      // so the two never cancel. The automatic threshold re-fits per frame
      // and needs no adjustment.
      imaging.photons_per_atom *= config_.drift.factor(shot);
      if (detection.threshold_photons >= 0.0) {
        detection.threshold_photons *=
            config_.drift.factor(shot + config_.drift.period / 2);
      }
    }
    Stopwatch watch;
    const FluorescenceImage frame = render_image(truth, imaging);
    result.planned_input = detect_atoms(frame, truth.height(), truth.width(), detection);
    result.detect_us = watch.elapsed_microseconds();
    result.detection_errors = compare_detection(truth, result.planned_input);
  } else {
    result.planned_input = std::move(truth);
  }

  // --- Plan + simulated lossy execution -----------------------------------
  rt::LoopConfig loop_config;
  loop_config.plan = config_.plan;
  loop_config.loss = effective_loss();
  loop_config.max_rounds = config_.max_rounds;
  loop_config.shot_index = shot;
  loop_config.exec = config_.exec;

  // The planner runs behind the algorithm interface so baselines batch the
  // same way; "qrm" keeps the full QrmConfig (mode, merge, sen_limit).
  double plan_us = 0.0;
  rt::PlanFn plan_round;
  if (config_.algorithm == "qrm") {
    plan_round = [planner = QrmPlanner(config_.plan), &plan_us](const OccupancyGrid& state) {
      Stopwatch watch;
      PlanResult plan = planner.plan(state);
      plan_us += watch.elapsed_microseconds();
      return plan;
    };
  } else {
    plan_round = [algorithm = std::shared_ptr<baselines::RearrangementAlgorithm>(
                      baselines::make_algorithm(config_.algorithm)),
                  target = config_.plan.target, dead = config_.plan.dead_channels,
                  &plan_us](const OccupancyGrid& state) {
      Stopwatch watch;
      // Baselines share the planner-side dead-channel contract: plan on the
      // masked view so frozen atoms are never scheduled. (The lossy loop
      // additionally refuses dead pickups/dropoffs, authoritatively.)
      PlanResult plan = dead.empty() ? algorithm->plan(state, target)
                                     : algorithm->plan(mask_dead_lines(state, dead), target);
      plan_us += watch.elapsed_microseconds();
      return plan;
    };
  }

  // Plan memoisation: intercept each round's plan with a cache lookup. On a
  // hit the planner is skipped entirely (no plan_us accrues — that is the
  // point); on a miss the cold plan is computed, timed, copied into the
  // cache's flat entry and returned by move. Hits are bit-equal to cold
  // plans (PlanCache's contract), so outcome fields and fingerprints are
  // identical with the cache on or off.
  if (config_.exec.plan_cache) {
    plan_round = [cache = config_.exec.plan_cache,
                  key = exec::PlanCache::config_key(config_.algorithm, config_.plan),
                  cold = std::move(plan_round)](const OccupancyGrid& state) -> PlanResult {
      if (std::optional<PlanResult> hit = cache->find(key, state)) return std::move(*hit);
      PlanResult plan = cold(state);
      cache->insert(key, state, plan);
      return plan;
    };
  }

  Stopwatch loop_watch;
  rt::LoopReport loop = rt::run_rearrangement_loop(result.planned_input, loop_config, plan_round);
  const double loop_us = loop_watch.elapsed_microseconds();
  result.plan_us = plan_us;
  result.execute_us = loop_us > plan_us ? loop_us - plan_us : 0.0;

  result.final_grid = std::move(loop.final_grid);
  result.success = loop.success;
  result.rounds = static_cast<std::uint32_t>(loop.rounds_used());
  result.atoms_lost = loop.total_atoms_lost;
  for (const rt::RoundReport& round : loop.rounds) result.commands += round.commands;
  result.schedules = std::move(loop.schedules);

  const Region& target = config_.plan.target;
  const std::int64_t area = static_cast<std::int64_t>(target.area());
  const std::int64_t filled = result.final_grid.atom_count(target);
  result.defects_remaining = area - filled;
  result.fill_rate = area > 0 ? static_cast<double>(filled) / static_cast<double>(area) : 0.0;
  return result;
}

BatchReport BatchPlanner::run() const {
  QRM_EXPECTS_MSG(config_.grid_height > 0 && config_.grid_width > 0,
                  "generated batches need grid_height/grid_width");
  ThreadPool pool(config_.exec.workers);
  return std::move(run_batches({{this, config_.shots, nullptr}}, pool).front());
}

BatchReport BatchPlanner::run(const std::vector<OccupancyGrid>& captured) const {
  QRM_EXPECTS_MSG(!captured.empty(), "captured batch needs at least one grid");
  ThreadPool pool(config_.exec.workers);
  const auto replay = [&captured](std::uint32_t shot) { return captured[shot]; };
  return std::move(
      run_batches({{this, static_cast<std::uint32_t>(captured.size()), replay}}, pool).front());
}

std::vector<BatchReport> run_batches(const std::vector<ShotBatch>& batches, ThreadPool& pool) {
  for (const ShotBatch& batch : batches) QRM_EXPECTS(batch.planner != nullptr && batch.shots > 0);

  struct Span {
    double start_us = 0.0;
    double end_us = 0.0;
  };
  std::vector<BatchReport> reports(batches.size());
  std::vector<std::vector<Span>> spans(batches.size());
  std::vector<std::future<void>> done;
  const Stopwatch clock;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const ShotBatch& batch = batches[b];
    reports[b].shots.resize(batch.shots);
    reports[b].workers = pool.worker_count();
    spans[b].resize(batch.shots);
    for (std::uint32_t shot = 0; shot < batch.shots; ++shot) {
      done.push_back(pool.submit([&batch, shot, &slot = reports[b].shots[shot],
                                  &span = spans[b][shot], &clock] {
        span.start_us = clock.elapsed_microseconds();
        slot = batch.planner->run_shot_impl(
            shot, batch.workload ? batch.workload(shot) : batch.planner->generated(shot));
        span.end_us = clock.elapsed_microseconds();
      }));
    }
  }

  // Wait for *every* shot before rethrowing, so no task still writes into
  // `reports` after an early failure unwinds the stack.
  std::exception_ptr first_error;
  for (std::future<void>& future : done) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  for (std::size_t b = 0; b < batches.size(); ++b) {
    double first_start = spans[b].front().start_us;
    double last_end = spans[b].front().end_us;
    for (const Span& span : spans[b]) {
      first_start = std::min(first_start, span.start_us);
      last_end = std::max(last_end, span.end_us);
    }
    reports[b].wall_us = last_end - first_start;
  }
  return reports;
}

}  // namespace qrm::batch
