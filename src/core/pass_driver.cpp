#include "core/pass_driver.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace qrm {

namespace {

/// Map one quadrant-local assignment into global coordinates. Local lines
/// map to global lines of the same axis (quadrant flips never transpose);
/// positions mirror for quadrants whose local axis points away from the
/// global one, so arrays are reversed to stay ascending.
LineAssignment to_global_assignment(const QuadrantGeometry& geom, Quadrant q, Axis axis,
                                    const LineAssignment& local) {
  LineAssignment global;
  const auto map_pos = [&](std::int32_t pos) {
    const Coord lc = axis == Axis::Rows ? Coord{local.line, pos} : Coord{pos, local.line};
    const Coord gc = geom.to_global(q, lc);
    return axis == Axis::Rows ? gc.col : gc.row;
  };
  {
    const Coord lc0 = axis == Axis::Rows ? Coord{local.line, 0} : Coord{0, local.line};
    const Coord gc0 = geom.to_global(q, lc0);
    global.line = axis == Axis::Rows ? gc0.row : gc0.col;
  }
  global.sources.reserve(local.sources.size());
  global.targets.reserve(local.targets.size());
  for (const auto s : local.sources) global.sources.push_back(map_pos(s));
  for (const auto t : local.targets) global.targets.push_back(map_pos(t));
  if (global.sources.size() > 1 && global.sources.front() > global.sources.back()) {
    std::reverse(global.sources.begin(), global.sources.end());
    std::reverse(global.targets.begin(), global.targets.end());
  }
  return global;
}

/// Validates the grid shape before QuadrantGeometry construction so the
/// caller sees a QRM-specific message rather than the geometry's.
QuadrantGeometry checked_geometry(const OccupancyGrid& grid) {
  QRM_EXPECTS_MSG(grid.height() > 0 && grid.width() > 0 && grid.height() % 2 == 0 &&
                      grid.width() % 2 == 0,
                  "QRM requires non-empty, even grid dimensions");
  return {grid.height(), grid.width()};
}

}  // namespace

PassDriver::PassDriver(const OccupancyGrid& initial, QrmConfig config)
    : config_(std::move(config)), geometry_(checked_geometry(initial)), state_(initial) {
  const Region target = config_.target;
  QRM_EXPECTS_MSG(target.rows > 0 && target.cols > 0 && target.rows % 2 == 0 &&
                      target.cols % 2 == 0,
                  "QRM requires an even-sized target region");
  QRM_EXPECTS_MSG(
      target == centered_region(initial.height(), initial.width(), target.rows, target.cols),
      "QRM requires the target region centred in the grid");
  QRM_EXPECTS_MSG(config_.aod_legalize || config_.dead_channels.empty(),
                  "dead channels require aod_legalize");
  phase_ = config_.mode == PlanMode::Balanced ? Phase::BalanceRow : Phase::CompactRow;
}

std::optional<QuadrantPass> PassDriver::next() {
  QRM_EXPECTS_MSG(!awaiting_apply_, "call apply() before requesting the next pass");
  if (phase_ == Phase::Done) return std::nullopt;

  QuadrantPass pass;
  pass.axis = (phase_ == Phase::BalanceRow || phase_ == Phase::CompactRow) ? Axis::Rows
                                                                           : Axis::Cols;
  pass.balance = phase_ == Phase::BalanceRow;

  const Stopwatch watch;
  const std::int32_t quarter_rows = config_.target.rows / 2;
  const std::int32_t quarter_cols = config_.target.cols / 2;
  // Delta replanning: pass k can serve clean quadrants from the previous
  // drive's captured pass k if the pass kinds line up (they always do until
  // compact-mode termination diverges, at which point extra passes simply
  // compute fresh).
  QuadrantPass* cached = nullptr;
  if (reuse_source_ != nullptr && pass_index_ < reuse_source_->size()) {
    QuadrantPass& prev = (*reuse_source_)[pass_index_];
    if (prev.axis == pass.axis && prev.balance == pass.balance) cached = &prev;
  }
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    const Quadrant q = kAllQuadrants[qi];
    const bool reuse = cached != nullptr && !reuse_dirty_[qi];
    if (reuse_stats_ != nullptr)
      ++(reuse ? reuse_stats_->kernels_reused : reuse_stats_->kernels_computed);
    if (reuse) {
      if (reuse_paranoid_) {
        const OccupancyGrid fresh = geometry_.extract_local(state_, q);
        QRM_ENSURES_MSG(fresh == cached->local_grids[qi],
                        "delta reuse: clean quadrant's grid diverged from the cached pass input");
      }
      // Steal the cached kernel data rather than copying it: a deep copy is
      // O(quadrant area), the same order as the extract+compute it replaces.
      // Safe because each cached pass index is consumed at most once per
      // drive and the source vector is discarded afterwards.
      pass.local_grids[qi] = std::move(cached->local_grids[qi]);
      pass.local_assignments[qi] = std::move(cached->local_assignments[qi]);
      pass.balance_reports[qi] = cached->balance_reports[qi];
    } else {
      pass.local_grids[qi] = geometry_.extract_local(state_, q);
      if (pass.balance) {
        pass.local_assignments[qi] = balance_pass(pass.local_grids[qi], quarter_rows,
                                                  quarter_cols, config_.sen_limit,
                                                  &pass.balance_reports[qi]);
      } else {
        pass.local_assignments[qi] =
            compact_pass(pass.local_grids[qi], pass.axis, config_.sen_limit);
      }
    }
    if (pass.balance && !pass.balance_reports[qi].feasible) stats_.feasible = false;
  }
  stats_.timers.pass_compute_us += watch.elapsed_microseconds();
  awaiting_apply_ = true;
  return pass;
}

void PassDriver::apply(QuadrantPass pass) {
  QRM_EXPECTS_MSG(awaiting_apply_, "apply() must follow a successful next()");
  awaiting_apply_ = false;

  PassInfo info;
  info.axis = pass.axis;
  RealizeOptions realize_options{config_.aod_legalize};
  if (!config_.dead_channels.empty()) realize_options.dead = &config_.dead_channels;

  // Lower each quadrant's local assignments to global coordinates first;
  // the merge below then consumes the slots in fixed quadrant order.
  const Stopwatch merge_watch;
  std::array<std::vector<LineAssignment>, 4> globals;
  for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
    const auto& locals = pass.local_assignments[qi];
    globals[qi].reserve(locals.size());
    for (const auto& la : locals)
      globals[qi].push_back(to_global_assignment(geometry_, kAllQuadrants[qi], pass.axis, la));
  }

  if (config_.merge_quadrants) {
    // Paper Sec. IV-C: west-side (NW+SW) and east-side (NE+SE) shifts run as
    // shared commands; realizing both half-lines of every global line in one
    // call yields exactly those shared rounds.
    std::map<std::int32_t, LineAssignment> merged;
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
      for (LineAssignment& ga : globals[qi]) {
        auto [it, inserted] = merged.try_emplace(ga.line, std::move(ga));
        if (!inserted) {
          // try_emplace left `ga` untouched; append it to the accumulated
          // half-line. The two halves occupy disjoint position ranges.
          LineAssignment& acc = it->second;
          LineAssignment& incoming = ga;
          const bool after = acc.sources.empty() || incoming.sources.empty() ||
                             incoming.sources.front() > acc.sources.back();
          if (after) {
            acc.sources.insert(acc.sources.end(), incoming.sources.begin(),
                               incoming.sources.end());
            acc.targets.insert(acc.targets.end(), incoming.targets.begin(),
                               incoming.targets.end());
          } else {
            acc.sources.insert(acc.sources.begin(), incoming.sources.begin(),
                               incoming.sources.end());
            acc.targets.insert(acc.targets.begin(), incoming.targets.begin(),
                               incoming.targets.end());
          }
        }
      }
    }
    std::vector<LineAssignment> lines;
    lines.reserve(merged.size());
    for (auto& [line, la] : merged) lines.push_back(std::move(la));
    info.lines_with_motion = lines.size();
    stats_.timers.merge_us += merge_watch.elapsed_microseconds();
    if (!lines.empty()) {
      const Stopwatch realize_watch;
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, lines, schedule_, realize_options);
      info.unit_rounds = rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved = rr.atoms_moved;
      stats_.timers.realize_us += realize_watch.elapsed_microseconds();
    }
  } else {
    stats_.timers.merge_us += merge_watch.elapsed_microseconds();
    const Stopwatch realize_watch;
    // Realization mutates the shared grid and schedule: strictly serial, in
    // quadrant order, as the determinism contract requires.
    for (std::size_t qi = 0; qi < kAllQuadrants.size(); ++qi) {
      if (globals[qi].empty()) continue;
      info.lines_with_motion += globals[qi].size();
      const RealizeResult rr =
          realize_assignments(state_, pass.axis, globals[qi], schedule_, realize_options);
      info.unit_rounds += rr.rounds_toward_origin + rr.rounds_away;
      info.atoms_moved += rr.atoms_moved;
    }
    stats_.timers.realize_us += realize_watch.elapsed_microseconds();
  }
  stats_.passes.push_back(info);
  if (capture_sink_ != nullptr) capture_sink_->push_back(std::move(pass));
  ++pass_index_;

  // Advance the pass program.
  switch (phase_) {
    case Phase::BalanceRow:
      phase_ = Phase::BalanceCol;
      break;
    case Phase::BalanceCol:
      stats_.iterations = 1;
      phase_ = Phase::Done;
      break;
    case Phase::CompactRow:
      iteration_atoms_moved_ = info.atoms_moved;
      phase_ = Phase::CompactCol;
      break;
    case Phase::CompactCol:
      iteration_atoms_moved_ += info.atoms_moved;
      ++iteration_;
      stats_.iterations = iteration_;
      if (iteration_atoms_moved_ == 0 || state_.region_full(config_.target) ||
          iteration_ >= config_.max_iterations) {
        phase_ = Phase::Done;
      } else {
        phase_ = Phase::CompactRow;
      }
      break;
    case Phase::Done:
      break;
  }
}

PlanResult PassDriver::take_result() {
  QRM_EXPECTS_MSG(!taken_, "take_result() hands the plan out once per driver");
  taken_ = true;
  phase_ = Phase::Done;
  awaiting_apply_ = false;
  stats_.target_filled = state_.region_full(config_.target);
  stats_.defects_remaining =
      static_cast<std::int64_t>(config_.target.area()) - state_.atom_count(config_.target);
  return {std::move(schedule_), std::move(state_), std::move(stats_)};
}

}  // namespace qrm
