// Tests for the qrm::batch subsystem: the shared qrm::ThreadPool substrate
// (util/thread_pool.hpp), the shared shot fan-out (run_batches) and the
// BatchPlanner's hard determinism guarantee — identical outcomes for any
// worker count.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/assert.hpp"
#include "batch/batch_planner.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "exec/policy.hpp"
#include "util/thread_pool.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace qrm {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, WorkerCountIsFixedAndResolved) {
  const ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  EXPECT_GE(ThreadPool::resolve_workers(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_workers(7), 7u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnceInAnyOrder) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<int> seen;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 200; ++i) {
    done.push_back(pool.submit([i, &mutex, &seen] {
      const std::lock_guard<std::mutex> lock(mutex);
      const bool inserted = seen.insert(i).second;
      ASSERT_TRUE(inserted) << "task " << i << " ran twice";
    }));
  }
  for (auto& future : done) future.get();
  EXPECT_EQ(seen.size(), 200u);  // every task ran, order irrelevant
}

TEST(ThreadPool, SubmitReturnsTaskValueThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFutureAndWorkerSurvives) {
  ThreadPool pool(1);
  auto failing = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(
      {
        try {
          (void)failing.get();
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
  // The worker that threw must still serve subsequent tasks.
  auto after = pool.submit([] { return 7; });
  EXPECT_EQ(after.get(), 7);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasksWithoutDeadlock) {
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> executed{0};
  std::vector<std::future<void>> done;
  {
    ThreadPool pool(1);
    // First task blocks the only worker so the rest stay queued...
    done.push_back(pool.submit([open] { open.wait(); }));
    for (int i = 0; i < 50; ++i) {
      done.push_back(pool.submit([&executed] { ++executed; }));
    }
    EXPECT_GT(pool.pending(), 0u);
    gate.set_value();
    // ...and the destructor must let all 50 queued tasks finish.
  }
  for (auto& future : done) future.get();
  EXPECT_EQ(executed.load(), 50);
}

TEST(ThreadPool, RunAllCompletesNestedFanOutFromAPoolTask) {
  // Self-claiming fork-join: run_all called from *inside* a pool task must
  // make progress even when the only worker is the caller itself. 1 worker,
  // two nesting levels — a blocking join would deadlock (and trip the ctest
  // TIMEOUT); the self-claiming caller drains its own fan-out.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  auto outer = pool.submit([&] {
    std::vector<std::function<void()>> inner;
    for (int i = 0; i < 8; ++i) {
      inner.push_back([&] {
        std::vector<std::function<void()>> leaf;
        for (int j = 0; j < 4; ++j) leaf.push_back([&executed] { ++executed; });
        pool.run_all(std::move(leaf));
      });
    }
    pool.run_all(std::move(inner));
  });
  outer.get();
  EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPool, RunAllRunsEveryTaskAndRethrowsTheFirstException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  std::atomic<int> executed{0};
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([i, &executed] {
      ++executed;
      if (i == 5) throw std::runtime_error("fan-out boom");
    });
  }
  EXPECT_THROW(pool.run_all(std::move(tasks)), std::runtime_error);
  EXPECT_EQ(executed.load(), 16) << "a throwing task must not abandon its siblings";
}

// ---------------------------------------------------------------------------
// Seed splitting
// ---------------------------------------------------------------------------

TEST(SeedSplitting, LossModelDeriveGivesIndependentReproducibleStreams) {
  const rt::LossModel master{.per_move_loss = 0.01, .background_loss = 0.002, .seed = 99};
  const rt::LossModel shot0 = master.derive(0);
  const rt::LossModel shot1 = master.derive(1);
  EXPECT_EQ(shot0.seed, master.derive(0).seed) << "derivation must be reproducible";
  EXPECT_NE(shot0.seed, shot1.seed) << "shots must draw distinct streams";
  EXPECT_NE(shot0.seed, master.seed) << "derived stream must not alias the master";
  // Physics parameters ride along unchanged.
  EXPECT_DOUBLE_EQ(shot0.per_move_loss, master.per_move_loss);
  EXPECT_DOUBLE_EQ(shot0.background_loss, master.background_loss);
}

TEST(SeedSplitting, LoopShotIndexSelectsTheStream) {
  const OccupancyGrid initial = load_random(20, 20, {0.6, 31});
  rt::LoopConfig config;
  config.plan.target = centered_square(20, 12);
  config.loss.per_move_loss = 0.05;
  config.shot_index = 0;
  const rt::LoopReport shot0 = rt::run_rearrangement_loop(initial, config);
  config.shot_index = 1;
  const rt::LoopReport shot1 = rt::run_rearrangement_loop(initial, config);
  config.shot_index = 0;
  const rt::LoopReport shot0_again = rt::run_rearrangement_loop(initial, config);
  EXPECT_EQ(shot0.final_grid, shot0_again.final_grid);
  EXPECT_EQ(shot0.total_atoms_lost, shot0_again.total_atoms_lost);
  // Different streams virtually always lose different atoms here (the loop
  // executes hundreds of Bernoulli draws at p=0.05).
  EXPECT_NE(shot0.final_grid, shot1.final_grid);
}

// ---------------------------------------------------------------------------
// BatchPlanner determinism
// ---------------------------------------------------------------------------

batch::BatchConfig small_batch(std::uint32_t shots, std::uint32_t workers) {
  batch::BatchConfig config;
  config.plan.target = centered_square(24, 14);
  config.grid_height = 24;
  config.grid_width = 24;
  config.fill = 0.6;
  config.shots = shots;
  config.exec.workers = workers;
  config.master_seed = 0xBA7C4;
  config.loss.per_move_loss = 0.02;
  config.exec.keep_schedules = true;
  return config;
}

void expect_same_outcomes(const batch::BatchReport& a, const batch::BatchReport& b) {
  ASSERT_EQ(a.shots.size(), b.shots.size());
  for (std::size_t i = 0; i < a.shots.size(); ++i) {
    const batch::ShotResult& lhs = a.shots[i];
    const batch::ShotResult& rhs = b.shots[i];
    EXPECT_EQ(lhs.shot, rhs.shot);
    EXPECT_EQ(lhs.seed, rhs.seed);
    EXPECT_EQ(lhs.planned_input, rhs.planned_input) << "shot " << i;
    EXPECT_EQ(lhs.final_grid, rhs.final_grid) << "shot " << i;
    EXPECT_EQ(lhs.schedules, rhs.schedules) << "shot " << i;
    EXPECT_EQ(lhs.success, rhs.success);
    EXPECT_EQ(lhs.rounds, rhs.rounds);
    EXPECT_EQ(lhs.commands, rhs.commands);
    EXPECT_EQ(lhs.atoms_lost, rhs.atoms_lost);
    EXPECT_EQ(lhs.defects_remaining, rhs.defects_remaining);
    EXPECT_DOUBLE_EQ(lhs.fill_rate, rhs.fill_rate);
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(BatchPlanner, OneWorkerAndEightWorkersAreBitIdentical) {
  const batch::BatchReport serial = batch::BatchPlanner(small_batch(12, 1)).run();
  const batch::BatchReport pooled = batch::BatchPlanner(small_batch(12, 8)).run();
  EXPECT_EQ(serial.workers, 1u);
  EXPECT_EQ(pooled.workers, 8u);
  expect_same_outcomes(serial, pooled);
}

TEST(BatchPlanner, StressShotsFarExceedWorkers) {
  batch::BatchConfig config = small_batch(96, 4);
  config.plan.target = centered_square(16, 8);
  config.grid_height = 16;
  config.grid_width = 16;
  config.max_rounds = 4;
  config.exec.keep_schedules = false;
  const batch::BatchPlanner planner(config);
  const batch::BatchReport pooled = planner.run();
  ASSERT_EQ(pooled.shots.size(), 96u);
  // Every slot must hold its own shot's answer — cross-checked against the
  // same shot computed serially, and seeds must be the derived streams.
  for (std::uint32_t i = 0; i < 96; i += 17) {
    const batch::ShotResult lone = planner.run_shot(i, nullptr);
    EXPECT_EQ(pooled.shots[i].seed, derive_seed(config.master_seed, i));
    EXPECT_EQ(pooled.shots[i].final_grid, lone.final_grid) << "shot " << i;
    EXPECT_EQ(pooled.shots[i].atoms_lost, lone.atoms_lost) << "shot " << i;
  }
}

TEST(BatchPlanner, EveryScheduleReplaysOntoItsRoundWhenLossless) {
  batch::BatchConfig config = small_batch(6, 3);
  config.loss = {.per_move_loss = 0.0, .background_loss = 0.0};
  config.max_rounds = 1;
  const batch::BatchReport report = batch::BatchPlanner(config).run();
  for (const batch::ShotResult& shot : report.shots) {
    ASSERT_EQ(shot.schedules.size(), 1u);
    testutil::expect_replays_to(shot.planned_input, shot.schedules.front(), shot.final_grid);
    EXPECT_TRUE(shot.success);
    EXPECT_DOUBLE_EQ(shot.fill_rate, 1.0);
  }
}

TEST(BatchPlanner, CapturedGridsRunOneShotEach) {
  std::vector<OccupancyGrid> captured;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    captured.push_back(load_random(24, 24, {0.6, seed}));
  }
  batch::BatchConfig config = small_batch(1, 2);
  const batch::BatchReport report = batch::BatchPlanner(config).run(captured);
  ASSERT_EQ(report.shots.size(), 5u);
  for (std::size_t i = 0; i < captured.size(); ++i) {
    EXPECT_EQ(report.shots[i].planned_input, captured[i]);
  }
}

TEST(BatchPlanner, BaselineAlgorithmsBatchBehindTheSameInterface) {
  batch::BatchConfig config = small_batch(4, 2);
  config.algorithm = "tetris";
  config.loss = {.per_move_loss = 0.0, .background_loss = 0.0};
  const batch::BatchReport one = batch::BatchPlanner(config).run();
  config.exec.workers = 4;
  const batch::BatchReport four = batch::BatchPlanner(config).run();
  for (const batch::ShotResult& shot : one.shots) {
    EXPECT_TRUE(shot.success);
    EXPECT_GT(shot.commands, 0u);
  }
  expect_same_outcomes(one, four);
}

TEST(BatchPlanner, ImagedDetectionReportsFidelityPerShot) {
  batch::BatchConfig config = small_batch(3, 2);
  config.imaged_detection = true;
  config.imaging.photons_per_atom = 400.0;  // high SNR: detection is exact
  config.imaging.background_photons = 1.0;
  const batch::BatchReport report = batch::BatchPlanner(config).run();
  for (const batch::ShotResult& shot : report.shots) {
    EXPECT_EQ(shot.detection_errors.total(), 0);
    EXPECT_GT(shot.detect_us, 0.0);
  }
  // Determinism must hold across worker counts with photon noise in play.
  config.exec.workers = 8;
  expect_same_outcomes(report, batch::BatchPlanner(config).run());
}

TEST(BatchPlanner, DriftMovesPhotonsAndAManualThresholdHalfAPeriodApart) {
  // The drift rule with a manual threshold T, rebuilt per shot from
  // render_image + detect_atoms: shot i images with photons_per_atom x
  // factor(i) and thresholds at T x factor(i + period/2).
  batch::BatchConfig config = small_batch(8, 2);
  config.imaged_detection = true;
  config.imaging.photons_per_atom = 60.0;
  config.detection.threshold_photons = 130.0;  // ~100 background photons per site
  config.drift.shape = DriftShape::Sine;
  config.drift.amplitude = 0.4;
  config.drift.period = 4;
  const batch::BatchReport report = batch::BatchPlanner(config).run();
  ASSERT_EQ(report.shots.size(), 8u);
  std::uint32_t threshold_drift_mattered = 0;
  for (std::uint32_t shot = 0; shot < 8; ++shot) {
    const std::uint64_t seed = exec::shot_seed(config.master_seed, shot);
    const OccupancyGrid truth = load_random(24, 24, {config.fill, seed});
    ImagingConfig imaging = config.imaging;
    imaging.seed = exec::imaging_seed(seed);
    imaging.photons_per_atom = 60.0 * config.drift.factor(shot);
    const FluorescenceImage frame = render_image(truth, imaging);
    DetectionConfig detection = config.detection;
    detection.threshold_photons = 130.0 * config.drift.factor(shot + 2);  // period/2 = 2
    const OccupancyGrid expected = detect_atoms(frame, 24, 24, detection);
    EXPECT_EQ(report.shots[shot].planned_input, expected) << "shot " << shot;
    EXPECT_EQ(report.shots[shot].detection_errors.total(),
              compare_detection(truth, expected).total())
        << "shot " << shot;
    detection.threshold_photons = 130.0;
    if (detect_atoms(frame, 24, 24, detection) != expected) ++threshold_drift_mattered;
  }
  EXPECT_GT(threshold_drift_mattered, 0u) << "no shot tells a drifted threshold from T";
}

TEST(BatchPlanner, AggregatesMatchTheShotTable) {
  const batch::BatchReport report = batch::BatchPlanner(small_batch(10, 4)).run();
  double fill_sum = 0.0;
  std::size_t commands = 0;
  std::size_t successes = 0;
  for (const batch::ShotResult& shot : report.shots) {
    fill_sum += shot.fill_rate;
    commands += shot.commands;
    successes += shot.success ? 1 : 0;
  }
  EXPECT_DOUBLE_EQ(report.mean_fill_rate(), fill_sum / 10.0);
  EXPECT_EQ(report.total_commands(), commands);
  EXPECT_DOUBLE_EQ(report.success_rate(), static_cast<double>(successes) / 10.0);
  EXPECT_GT(report.wall_us, 0.0);
  EXPECT_GT(report.shots_per_second(), 0.0);
  const batch::LatencySummary plan = report.latency(batch::BatchReport::Stage::Plan);
  EXPECT_GT(plan.mean, 0.0);
  EXPECT_LE(plan.p50, plan.max);
}

TEST(BatchPlanner, RejectsBadConfigs) {
  batch::BatchConfig config = small_batch(4, 1);
  config.shots = 0;
  EXPECT_THROW((void)batch::BatchPlanner(config), PreconditionError);
  config = small_batch(4, 1);
  config.algorithm = "no-such-planner";
  EXPECT_THROW((void)batch::BatchPlanner(config), PreconditionError);
  config = small_batch(4, 1);
  config.fill = 1.5;
  EXPECT_THROW((void)batch::BatchPlanner(config), PreconditionError);
  config = small_batch(4, 1);
  config.loss.per_move_loss = 1.5;
  EXPECT_THROW((void)batch::BatchPlanner(config), PreconditionError);
  config = small_batch(4, 1);
  config.imaged_detection = true;
  config.detection.pixels_per_site = config.imaging.pixels_per_site - 2;
  EXPECT_THROW((void)batch::BatchPlanner(config), PreconditionError);
  config = small_batch(4, 1);
  config.grid_height = 0;
  EXPECT_THROW((void)batch::BatchPlanner(config).run(), PreconditionError);
  EXPECT_THROW((void)batch::BatchPlanner(config).run({}), PreconditionError);
}

TEST(BatchPlanner, AFailingShotThrowsOutOfTheSharedFanOut) {
  // One odd-sized grid among valid ones: its shot's planner rejects it
  // inside its pool task, and the fan-out rethrows that failure once every
  // shot has finished.
  std::vector<OccupancyGrid> captured;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    captured.push_back(load_random(24, 24, {0.6, seed}));
  captured.insert(captured.begin() + 2, load_random(23, 23, {0.6, 9}));
  for (const std::uint32_t workers : {1u, 3u}) {
    EXPECT_THROW((void)batch::BatchPlanner(small_batch(1, workers)).run(captured),
                 PreconditionError)
        << workers << " workers";
  }
}

TEST(BatchPlanner, RunBatchesKeepsEachBatchApartOnOnePool) {
  // Two batches on one pool — a generated one and one with its own grid
  // source — come back exactly as each planner's own run() would report.
  const batch::BatchPlanner generated(small_batch(5, 1));
  batch::BatchConfig other = small_batch(3, 1);
  other.master_seed = 0x0DD;
  const batch::BatchPlanner sourced(other);
  const auto source = [&other](std::uint32_t shot) {
    return load_random(24, 24, {0.5, derive_seed(other.master_seed, shot)});
  };
  std::vector<OccupancyGrid> grids;
  for (std::uint32_t shot = 0; shot < 3; ++shot) grids.push_back(source(shot));

  ThreadPool pool(3);
  const std::vector<batch::BatchReport> reports =
      batch::run_batches({{&generated, 5, nullptr}, {&sourced, 3, source}}, pool);
  ASSERT_EQ(reports.size(), 2u);
  expect_same_outcomes(reports[0], generated.run());
  expect_same_outcomes(reports[1], sourced.run(grids));
  for (const batch::BatchReport& report : reports) {
    EXPECT_EQ(report.workers, 3u);
    EXPECT_GT(report.wall_us, 0.0);
  }
}

}  // namespace
}  // namespace qrm
