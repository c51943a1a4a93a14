/// \file shots.cpp
/// The shot workloads, `paper-50` and `large-256`: one operation is one
/// `batch::BatchPlanner::run_shot` call on a grid drawn during set-up
/// (`large-256`), or one such call per CPU at once, up to four (`paper-50`;
/// see ShotParams::concurrent).
///
/// The traced run rebuilds each shot from the public calls run_shot is
/// made of (render_image -> detect_atoms -> compare_detection ->
/// rt::run_rearrangement_loop with effective_loss()), drives the first
/// round's plan through PassDriver itself, and checks the rebuilt shot
/// field for field against the untraced run_shot result.

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <optional>
#include <thread>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "awg/waveform.hpp"
#include "batch/batch_planner.hpp"
#include "core/pass_driver.hpp"
#include "core/planner.hpp"
#include "detection/detector.hpp"
#include "detection/image.hpp"
#include "exec/policy.hpp"
#include "hwmodel/accelerator.hpp"
#include "lattice/region.hpp"
#include "loading/loader.hpp"
#include "moves/executor.hpp"
#include "runtime/rearrangement_loop.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace qrm;

struct ShotParams {
  std::int32_t grid = 0;
  std::int32_t target = 0;
  double fill = 0.0;
  bool imaged = false;
  double per_move_loss = 0.005;
  double background_loss = 0.002;
  std::uint32_t max_rounds = 10;
  std::uint64_t stream = 0;          ///< seed domain of this workload
  /// Shots one operation runs at once, one per CPU (at most nproc). A
  /// shot that runs alone inherits its core's slow and fast periods, which
  /// on a shared host last seconds and move a run's median by up to 25 %;
  /// the slowest of four simultaneous shots moves far less.
  std::uint32_t concurrent = 1;
  double max_ops_per_second = 0.0;   ///< sizes the grids drawn up front
  std::size_t min_ops = 0;           ///< floor on the operations prepared
  std::size_t model_ops = 0;         ///< operations, not shots
  std::size_t success_ops = 0;
};

ShotParams params_of(const std::string& name) {
  ShotParams p;
  if (name == "paper-50") {
    // The paper's setup with the paper-fig7 loss settings.
    p.grid = 50;
    p.target = 30;
    p.fill = 0.6;
    p.imaged = true;
    p.per_move_loss = 0.01;
    p.max_rounds = 10;
    p.stream = 50;
    p.concurrent = 4;
    p.max_ops_per_second = 120.0;
    p.min_ops = 500;
    p.model_ops = 50;
    p.success_ops = 250;
  } else if (name == "large-256") {
    p.grid = 256;
    p.target = 152;
    p.fill = 0.55;
    p.imaged = false;
    // Default loss never fills a 152x152 target: background loss alone
    // empties ~46 target sites a round. These settings succeed on most
    // shots while still using three to four rounds.
    p.per_move_loss = 0.0015;
    p.background_loss = 0.0;
    p.max_rounds = 4;
    p.stream = 256;
    p.max_ops_per_second = 20.0;
    p.min_ops = 200;
    p.model_ops = 6;
    p.success_ops = 100;
  } else {
    throw std::invalid_argument("unknown shot workload " + name);
  }
  return p;
}

/// Outcome fingerprint of one shot: BatchReport's own fingerprint over a
/// one-shot report (every deterministic ShotResult field, grids included).
std::uint64_t fingerprint_of(const batch::ShotResult& shot) {
  batch::BatchReport report;
  report.shots.push_back(shot);
  return report.fingerprint();
}

/// Field-for-field comparison of a rebuilt shot with run_shot's result.
std::string compare_shots(const batch::ShotResult& rebuilt, const batch::ShotResult& expected) {
  std::ostringstream diff;
  const auto check = [&diff](bool same, const char* field) {
    if (!same && diff.tellp() == 0) diff << "rebuilt shot differs from run_shot in " << field;
  };
  check(rebuilt.shot == expected.shot, "shot");
  check(rebuilt.seed == expected.seed, "seed");
  check(rebuilt.planned_input == expected.planned_input, "planned_input");
  check(rebuilt.final_grid == expected.final_grid, "final_grid");
  check(rebuilt.success == expected.success, "success");
  check(rebuilt.rounds == expected.rounds, "rounds");
  check(rebuilt.commands == expected.commands, "commands");
  check(rebuilt.atoms_lost == expected.atoms_lost, "atoms_lost");
  check(rebuilt.defects_remaining == expected.defects_remaining, "defects_remaining");
  check(std::bit_cast<std::uint64_t>(rebuilt.fill_rate) ==
            std::bit_cast<std::uint64_t>(expected.fill_rate),
        "fill_rate");
  check(rebuilt.detection_errors.false_positives == expected.detection_errors.false_positives,
        "detection_errors.false_positives");
  check(rebuilt.detection_errors.false_negatives == expected.detection_errors.false_negatives,
        "detection_errors.false_negatives");
  check(rebuilt.schedules.size() == expected.schedules.size(), "schedules");
  return diff.str();
}

class ShotWorkload final : public Workload {
 public:
  ShotWorkload(const std::string& name, std::uint64_t seed, double seconds)
      : name_(name), p_(params_of(name)) {
    capacity_ = std::max(p_.min_ops, static_cast<std::size_t>(seconds * p_.max_ops_per_second));
    capacity_ = std::max({capacity_, p_.model_ops, p_.success_ops});
    concurrent_ = std::min(p_.concurrent, std::max(1u, std::thread::hardware_concurrency()));
    // The calling thread runs one shot of each operation itself.
    if (concurrent_ > 1) pool_ = std::make_unique<ThreadPool>(concurrent_ - 1);

    config_.plan.target = centered_square(p_.grid, p_.target);
    config_.algorithm = "qrm";
    config_.master_seed = derive_seed(seed, p_.stream);
    config_.grid_height = config_.grid_width = p_.grid;
    config_.fill = p_.fill;
    config_.imaged_detection = p_.imaged;
    config_.loss.per_move_loss = p_.per_move_loss;
    config_.loss.background_loss = p_.background_loss;
    config_.loss.seed = derive_seed(seed, p_.stream + 1);
    config_.max_rounds = p_.max_rounds;
    // Default execution policy: scratch replanning, no plan cache,
    // sequential planning, schedules not kept.

    unlegalized_ = config_.plan;
    unlegalized_.aod_legalize = false;
    accel_config_.plan = config_.plan;
    accel_config_.clock_mhz = 250.0;
    kept_.resize(std::max(p_.model_ops, p_.success_ops) * concurrent_);
  }

  void setup(Tracer* tracer) override {
    planner_.emplace(config_);
    grids_.assign(capacity_ * concurrent_, OccupancyGrid{});
    for (std::size_t i = 0; i < grids_.size(); ++i) {
      Tracer::Scope draw(tracer, "loading.draw");
      grids_[i] = load_random(p_.grid, p_.grid, {p_.fill, exec::shot_seed(config_.master_seed, i)});
    }
  }

  [[nodiscard]] std::size_t capacity() const override { return capacity_; }
  [[nodiscard]] std::uint32_t shots_per_op() const override { return concurrent_; }
  [[nodiscard]] std::size_t model_ops() const override { return p_.model_ops; }
  [[nodiscard]] std::size_t success_ops() const override { return p_.success_ops; }

  [[nodiscard]] OpResult run_op(std::size_t op) override {
    std::vector<batch::ShotResult> results(concurrent_);
    std::vector<std::function<void()>> tasks;
    for (std::uint32_t j = 0; j < concurrent_; ++j) {
      const auto shot = static_cast<std::uint32_t>(op * concurrent_ + j);
      tasks.emplace_back([this, shot, &result = results[j]] {
        result = planner_->run_shot(shot, &grids_[shot]);
      });
    }
    const auto start = std::chrono::steady_clock::now();
    if (pool_) {
      pool_->run_all(std::move(tasks));
    } else {
      tasks.front()();
    }
    const auto end = std::chrono::steady_clock::now();

    OpResult out;
    out.ms = std::chrono::duration<double, std::milli>(end - start).count();
    out.fingerprint = fnv::kOffset;
    for (std::uint32_t j = 0; j < concurrent_; ++j) {
      fnv::mix_u64(out.fingerprint, fingerprint_of(results[j]));
      ++out.shots;
      out.successes += results[j].success ? 1 : 0;
      const std::size_t shot = op * concurrent_ + j;
      if (shot < kept_.size()) kept_[shot] = std::move(results[j]);
    }
    return out;
  }

  [[nodiscard]] std::string traced_op(std::size_t op, const OpResult& untraced, Tracer& tracer,
                                      Samples& samples) override {
    tracer.set_op(static_cast<std::uint32_t>(op));
    std::uint64_t fingerprint = fnv::kOffset;
    for (std::uint32_t j = 0; j < concurrent_; ++j) {
      const auto shot = static_cast<std::uint32_t>(op * concurrent_ + j);
      if (std::string failure = traced_shot(shot, tracer, samples, fingerprint); !failure.empty())
        return failure;
    }
    if (fingerprint != untraced.fingerprint)
      return "rebuilt shots' fingerprint differs from the untraced run";
    return "";
  }

  [[nodiscard]] double aod_ms_per_shot(const Samples& samples) const override {
    return mean(sample(samples, "aod_ms"));
  }
  [[nodiscard]] double accel_us_p50(const Samples& samples) const override {
    return grouped_median(sample(samples, "accel_us"), 1.0 / accel_config_.clock_mhz);
  }

  void layer_metrics(const Tracer& tracer, const Samples& samples, std::size_t ops,
                     double untraced_op_ms, MetricList& out) const override {
    const double shots = static_cast<double>(ops * concurrent_);
    const auto per_shot = [shots](double total) { return total / shots; };
    const std::vector<double> first = tracer.durations_ms("core.first_plan");
    const std::vector<double> replans = tracer.durations_ms("core.replan");
    std::vector<double> all_plans = first;
    all_plans.insert(all_plans.end(), replans.begin(), replans.end());
    const double first_plans = static_cast<double>(std::max<std::size_t>(first.size(), 1));
    const double first_plan_ms = mean(first);

    out.push_back({"loading.draw_ms", mean(tracer.durations_ms("loading.draw")), "ms"});
    out.push_back({"detection.render_ms", per_shot(tracer.total_ms("detection.render")), "ms"});
    out.push_back({"detection.detect_ms", per_shot(tracer.total_ms("detection.detect")), "ms"});
    out.push_back({"detection.compare_ms", per_shot(tracer.total_ms("detection.compare")), "ms"});
    out.push_back({"detection.errors_per_shot", mean(sample(samples, "detection_errors")), "count"});
    out.push_back({"core.plan_ms_p50", percentile(all_plans, 50.0), "ms"});
    out.push_back({"core.plan_ms_p90", percentile(all_plans, 90.0), "ms"});
    out.push_back({"core.first_plan_ms", first_plan_ms, "ms"});
    out.push_back({"core.init_ms", tracer.total_ms("core.init") / first_plans, "ms"});
    out.push_back({"core.next_ms", tracer.total_ms("core.next") / first_plans, "ms"});
    out.push_back({"core.apply_ms", tracer.total_ms("core.apply") / first_plans, "ms"});
    out.push_back({"core.take_result_ms", tracer.total_ms("core.take_result") / first_plans, "ms"});
    out.push_back({"core.untraced_ms", tracer.self_ms("core.first_plan") / first_plans, "ms"});
    out.push_back({"core.passes", mean(sample(samples, "passes")), "count"});
    out.push_back({"core.replan_ms", per_shot(tracer.total_ms("core.replan")), "ms"});
    out.push_back({"moves.legalize_ms",
                   first_plan_ms - mean(tracer.durations_ms("moves.unlegalized_plan")), "ms"});
    out.push_back({"moves.commands_per_plan", mean(sample(samples, "commands")), "count"});
    out.push_back({"moves.sites_per_plan", mean(sample(samples, "sites")), "count"});
    out.push_back({"moves.commands_per_unit_round",
                   sum(sample(samples, "commands")) / std::max(sum(sample(samples, "unit_rounds")), 1.0),
                   "ratio"});
    out.push_back({"moves.schedule_mb", mean(sample(samples, "schedule_mb")), "MB"});
    out.push_back({"runtime.execute_ms", per_shot(tracer.self_ms("runtime.loop")), "ms"});
    out.push_back({"runtime.rounds_per_shot", mean(sample(samples, "rounds")), "count"});
    out.push_back({"runtime.atoms_lost_per_shot", mean(sample(samples, "atoms_lost")), "count"});
    out.push_back({"hwmodel.total_cycles", mean(sample(samples, "total_cycles")), "count"});
    out.push_back({"hwmodel.pass_occupancy", mean(sample(samples, "pass_occupancy")), "ratio"});
    out.push_back({"hwmodel.run_ms", mean(tracer.durations_ms("hwmodel.run")), "ms"});
    out.push_back({"batch.untraced_ms", per_shot(tracer.self_ms("batch.shot")), "ms"});

    // Coverage: the share of each parent span its traced children cover.
    const double shot_ms = tracer.total_ms("batch.shot");
    out.push_back({"batch.coverage", shot_ms > 0 ? tracer.child_ms("batch.shot") / shot_ms : 0.0,
                   "ratio"});
    const double first_ms = tracer.total_ms("core.first_plan");
    out.push_back({"core.coverage",
                   first_ms > 0 ? tracer.child_ms("core.first_plan") / first_ms : 0.0, "ratio"});

    // Tracing overhead: traced shots/s over the shot spans, less the
    // benchmark's own verification inside them.
    const double traced_s = (shot_ms - tracer.total_ms("bench.verify")) * 1e-3;
    const double traced_rate = traced_s > 0 ? shots / traced_s : 0.0;
    const double untraced_rate =
        untraced_op_ms > 0 ? static_cast<double>(concurrent_) * 1e3 / untraced_op_ms : 0.0;
    out.push_back({"trace.untraced_shots_per_s", untraced_rate, "1/s"});
    out.push_back({"trace.traced_shots_per_s", traced_rate, "1/s"});
    out.push_back({"trace.overhead_pct",
                   traced_rate > 0 ? (untraced_rate / traced_rate - 1.0) * 100.0 : 0.0, "%"});
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << name_ << ": " << p_.grid << "x" << p_.grid << " Bernoulli(" << p_.fill << ") -> "
       << p_.target << "x" << p_.target << " target, "
       << (p_.imaged ? "imaged detection" : "no imaging") << ", per_move_loss "
       << p_.per_move_loss << ", background_loss " << p_.background_loss << ", max_rounds "
       << p_.max_rounds << ", " << concurrent_
       << " run_shot call(s) at once per operation, scratch replanning, no plan cache, "
       << capacity_ * concurrent_ << " grids drawn up front";
    return os.str();
  }

 private:
  /// One shot rebuilt from public calls under `tracer`, checked against
  /// the untraced run_shot result; mixes its fingerprint into `fingerprint`.
  [[nodiscard]] std::string traced_shot(std::uint32_t shot, Tracer& tracer, Samples& samples,
                                        std::uint64_t& fingerprint) {
    batch::ShotResult rebuilt;
    rebuilt.shot = shot;
    rebuilt.seed = exec::shot_seed(config_.master_seed, shot);
    std::string failure;
    std::size_t plans = 0;
    double aod_us = 0.0;
    {
      Tracer::Scope span(&tracer, "batch.shot");
      const OccupancyGrid& truth = grids_[shot];
      if (config_.imaged_detection) {
        ImagingConfig imaging = config_.imaging;
        imaging.seed = exec::imaging_seed(rebuilt.seed);
        FluorescenceImage frame;
        {
          Tracer::Scope render(&tracer, "detection.render");
          frame = render_image(truth, imaging);
        }
        {
          Tracer::Scope detect(&tracer, "detection.detect");
          rebuilt.planned_input =
              detect_atoms(frame, truth.height(), truth.width(), config_.detection);
        }
        Tracer::Scope compare(&tracer, "detection.compare");
        rebuilt.detection_errors = compare_detection(truth, rebuilt.planned_input);
      } else {
        rebuilt.planned_input = truth;
      }

      rt::LoopConfig loop_config;
      loop_config.plan = config_.plan;
      loop_config.loss = planner_->effective_loss();
      loop_config.max_rounds = config_.max_rounds;
      loop_config.shot_index = shot;
      loop_config.exec = config_.exec;

      const QrmPlanner planner(config_.plan);
      const rt::PlanFn plan_round = [&](const OccupancyGrid& state) {
        PlanResult plan;
        if (plans == 0) {
          Tracer::Scope first(&tracer, "core.first_plan");
          plan = drive_plan(state, tracer);
        } else {
          Tracer::Scope replan(&tracer, "core.replan");
          plan = planner.plan(state);
        }
        // Replay, model clock and counts: benchmark work, kept out of the
        // loop's own (execute) time by its span.
        Tracer::Scope verify(&tracer, "bench.verify");
        if (failure.empty()) failure = replay(state, plan);
        aod_us += physical_.schedule_duration_us(plan.schedule);
        if (plans == 0) record_first_plan(plan, samples);
        ++plans;
        return plan;
      };

      rt::LoopReport loop;
      {
        Tracer::Scope run(&tracer, "runtime.loop");
        loop = rt::run_rearrangement_loop(rebuilt.planned_input, loop_config, plan_round);
      }
      // The same post-processing run_shot applies to the loop report.
      rebuilt.final_grid = std::move(loop.final_grid);
      rebuilt.success = loop.success;
      rebuilt.rounds = static_cast<std::uint32_t>(loop.rounds_used());
      rebuilt.atoms_lost = loop.total_atoms_lost;
      for (const rt::RoundReport& round : loop.rounds) rebuilt.commands += round.commands;
      const Region& target = config_.plan.target;
      const auto area = static_cast<std::int64_t>(target.area());
      const std::int64_t filled = rebuilt.final_grid.atom_count(target);
      rebuilt.defects_remaining = area - filled;
      rebuilt.fill_rate =
          area > 0 ? static_cast<double>(filled) / static_cast<double>(area) : 0.0;
    }

    // First-round probes outside the shot: the plan without AOD
    // legalization (legalize time is the difference) and the cycle model.
    {
      Tracer::Scope probe(&tracer, "moves.unlegalized_plan");
      const PlanResult plan = QrmPlanner(unlegalized_).plan(rebuilt.planned_input);
      samples["unlegalized_commands"].push_back(static_cast<double>(plan.schedule.size()));
    }
    hw::AccelResult accel;
    {
      Tracer::Scope run(&tracer, "hwmodel.run");
      accel = hw::QrmAccelerator(accel_config_).run(rebuilt.planned_input);
    }
    samples["accel_us"].push_back(accel.latency_us);
    samples["total_cycles"].push_back(static_cast<double>(accel.cycles.total()));
    samples["pass_occupancy"].push_back(static_cast<double>(accel.cycles.pass_total()) /
                                        static_cast<double>(accel.cycles.total()));
    if (failure.empty() && plans > 0 &&
        static_cast<double>(accel.plan.schedule.size()) != samples["commands"].back())
      failure = "cycle model's plan differs from the planner's first-round plan";

    samples["aod_ms"].push_back(aod_us * 1e-3);
    samples["success"].push_back(rebuilt.success ? 1.0 : 0.0);
    samples["rounds"].push_back(rebuilt.rounds);
    samples["atoms_lost"].push_back(static_cast<double>(rebuilt.atoms_lost));
    samples["detection_errors"].push_back(
        static_cast<double>(rebuilt.detection_errors.total()));

    if (!failure.empty()) return failure;
    if (shot < kept_.size()) {
      if (std::string diff = compare_shots(rebuilt, kept_[shot]); !diff.empty()) return diff;
    }
    fnv::mix_u64(fingerprint, fingerprint_of(rebuilt));
    return "";
  }


  /// QrmPlanner::plan's own sequence (no dead channels, sequential), with a
  /// span around each PassDriver call.
  [[nodiscard]] PlanResult drive_plan(const OccupancyGrid& state, Tracer& tracer) const {
    std::optional<PassDriver> driver;
    {
      Tracer::Scope init(&tracer, "core.init");
      driver.emplace(state, config_.plan);
    }
    while (true) {
      std::optional<QuadrantPass> pass;
      {
        Tracer::Scope next(&tracer, "core.next");
        pass = driver->next();
      }
      if (!pass) break;
      Tracer::Scope apply(&tracer, "core.apply");
      driver->apply(std::move(*pass));
    }
    Tracer::Scope take(&tracer, "core.take_result");
    return driver->take_result();
  }

  /// The plan must replay through the checked executor to its final grid.
  [[nodiscard]] static std::string replay(const OccupancyGrid& input, const PlanResult& plan) {
    OccupancyGrid grid = input;
    const ExecutionReport report = run_schedule(grid, plan.schedule, {.check_aod = true});
    if (!report.ok) return "plan fails to replay with AOD checks: " + report.error;
    if (grid != plan.final_grid) return "replayed plan does not reach its final_grid";
    return "";
  }

  static void record_first_plan(const PlanResult& plan, Samples& samples) {
    std::size_t sites = 0;
    for (const ParallelMove& move : plan.schedule.moves()) sites += move.sites.size();
    std::size_t unit_rounds = 0;
    for (const PassInfo& pass : plan.stats.passes) unit_rounds += pass.unit_rounds;
    samples["commands"].push_back(static_cast<double>(plan.schedule.size()));
    samples["sites"].push_back(static_cast<double>(sites));
    samples["unit_rounds"].push_back(static_cast<double>(unit_rounds));
    samples["passes"].push_back(static_cast<double>(plan.stats.passes.size()));
    samples["schedule_mb"].push_back(
        static_cast<double>(sites * sizeof(Coord) + plan.schedule.size() * sizeof(ParallelMove)) /
        (1024.0 * 1024.0));
  }

  std::string name_;
  ShotParams p_;
  std::size_t capacity_ = 0;  ///< operations prepared
  std::uint32_t concurrent_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< concurrent_ - 1 helpers, when concurrent
  batch::BatchConfig config_;
  QrmConfig unlegalized_;  ///< the plan config with aod_legalize off
  hw::AcceleratorConfig accel_config_;
  const PhysicalModel physical_ = awg::physical_model_of(awg::AodCalibration{});
  std::optional<batch::BatchPlanner> planner_;
  std::vector<OccupancyGrid> grids_;
  std::vector<batch::ShotResult> kept_;  ///< untraced results of the model prefix
};

}  // namespace

std::unique_ptr<Workload> make_shot_workload(const std::string& name, std::uint64_t seed,
                                             double seconds) {
  return std::make_unique<ShotWorkload>(name, seed, seconds);
}

}  // namespace perfbench
